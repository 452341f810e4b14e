"""Shared pieces of the benchmark: paths, child processes, statistics,
operation accounting, input set-up and run metadata."""

from __future__ import annotations

import glob
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import inputs

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

SETUP_REPEATS = 3


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("PYTHONSTARTUP", None)
    return env


@dataclass
class ChildResult:
    code: int
    wall_s: float
    maxrss_mb: float
    stderr: str


def run_child(argv: list[str], cwd: str) -> ChildResult:
    """Run one child to completion; wall time and its own peak RSS."""
    err_path = os.path.join(cwd, ".stderr")
    with open(err_path, "w+") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(),
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        tail = err.read()[-2000:]
    return ChildResult(proc.returncode, wall, usage.ru_maxrss / 1024.0, tail)


def python_child(code: str, cwd: str) -> ChildResult:
    return run_child([sys.executable, "-c", code], cwd)


# ---------------------------------------------------------------------------
# statistics

def median(xs) -> float:
    return float(statistics.median(xs))


def probe_s(fn, *args, repeats: int) -> float:
    """Median wall time of ``repeats`` calls of ``fn(*args)``."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return median(times)


def summary(xs) -> dict:
    """Median, the highest of p90/p99 with ten samples beyond it, and n."""
    xs = sorted(float(x) for x in xs)
    out = {"median": median(xs), "n": len(xs)}
    for p in (99, 90):
        if len(xs) * (100 - p) / 100 >= 10:
            out[f"p{p}"] = xs[min(len(xs) - 1, int(len(xs) * p / 100))]
            break
    return out


class Report:
    """Named metrics with units and samples, printed as one table."""

    def __init__(self):
        self.rows: dict[str, tuple[list[float], str]] = {}

    def add(self, name: str, value, unit: str):
        self.rows.setdefault(name, ([], unit))[0].append(float(value))

    def extend(self, name: str, values, unit: str):
        for v in values:
            self.add(name, v, unit)

    def value(self, name: str) -> float:
        return median(self.rows[name][0])

    def lines(self) -> list[str]:
        out = []
        for name, (xs, unit) in self.rows.items():
            s = summary(xs)
            tail = "".join(f" {k}={s[k]:.6g}" for k in ("p99", "p90") if k in s)
            out.append(f"metric {name:<34} {s['median']:>14.6g} {unit:<6} "
                       f"n={s['n']}{tail}")
        return out

    def as_dict(self) -> dict:
        return {name: {"unit": unit, **summary(xs)}
                for name, (xs, unit) in self.rows.items()}


# ---------------------------------------------------------------------------
# operations and their checks

class CheckFailed(Exception):
    """An operation's output is wrong."""


@dataclass
class Ledger:
    """Operations attempted and those that failed or gave wrong output."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, op: str, check, *args) -> bool:
        """Count one operation; ``check(*args)`` raises if it is wrong."""
        self.attempted += 1
        try:
            check(*args)
        except (CheckFailed, OSError, ValueError, KeyError, TypeError,
                IndexError) as exc:
            self.failures.append(f"{op}: {type(exc).__name__}: {exc}")
            return False
        return True

    @property
    def failed(self) -> int:
        return len(self.failures)


def require(cond, message: str):
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# set-up

def build_inputs(workload: str, seed: int, work: str) -> tuple[list, dict]:
    """Write the workload's documents; one size/sha256 record per file."""
    docs = inputs.documents(workload, seed)
    records = [inputs.write_json(doc, os.path.join(work, name))
               for name, doc in docs.items()]
    return records, docs


def require_ifr(spec):
    from organstop import check_ifr
    require(check_ifr(spec.transition).holds, "generated kernel is not IFR")


def spec_from_section(model: dict):
    """A validated DiscreteModelSpec built directly from a model section."""
    import numpy as np
    from organstop import (DiscreteModelSpec, Orientation, Variant,
                           validate_model)
    opt = {}
    if model.get("living_donor_state") is not None:
        opt["living_donor_state"] = model["living_donor_state"]
    if model.get("success_prob") is not None:
        opt["success_prob"] = np.asarray(model["success_prob"], dtype=float)
        opt["success_reward"] = float(model["success_reward"])
    return validate_model(DiscreteModelSpec(
        variant=Variant(model["variant"]),
        n_patient=model["n_patient"], death_index=model["death_index"],
        n_organ=model["n_organ"], no_offer_index=model["no_offer_index"],
        transition=np.asarray(model["transition"], dtype=float),
        offer_prob=np.asarray(model["offer_prob"], dtype=float),
        wait_reward=np.asarray(model["wait_reward"], dtype=float),
        transplant_reward=np.asarray(model["transplant_reward"], dtype=float),
        discount=float(model["discount"]),
        patient_orientation=Orientation(
            model.get("patient_orientation", "larger_is_worse")),
        organ_orientation=Orientation(
            model.get("organ_orientation", "larger_is_worse")),
        **opt))


def set_up(workload: str, seed: int, work: str, report: Report, prepare):
    """Import organstop once, then build the inputs several times.

    A build writes and hashes the documents and turns them into validated
    program inputs with ``prepare(docs)``.  ``setup_s`` is the import time
    plus the median build.  Returns the records and inputs of the last one.
    """
    t0 = time.perf_counter()
    import organstop  # noqa: F401  (timed: part of set-up)
    import_s = time.perf_counter() - t0
    builds = []
    for _ in range(SETUP_REPEATS):
        records = docs = prepared = None  # drop the previous build first
        t0 = time.perf_counter()
        records, docs = build_inputs(workload, seed, work)
        prepared = prepare(docs)
        builds.append(time.perf_counter() - t0)
    report.add("setup_s", import_s + median(builds), "s")
    return records, prepared


def import_times(work: str, report: Report, repeats: int = 3):
    """Fresh-interpreter start, ``import numpy`` and ``import organstop.cli``."""
    timed = ("import time; t = time.perf_counter(); import {mod}; "
             "print(time.perf_counter() - t)")
    for _ in range(repeats):
        report.add("import.python_s", python_child("pass", work).wall_s, "s")
        for mod, name in (("numpy", "import.numpy_s"),
                          ("organstop.cli", "import.organstop_s")):
            out = subprocess.run([sys.executable, "-c", timed.format(mod=mod)],
                                 cwd=work, env=child_env(), check=True,
                                 capture_output=True, text=True)
            report.add(name, float(out.stdout.strip()), "s")


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# run metadata

def _git_commit() -> str:
    """HEAD from ``.git`` in the checkout, without leaving it."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def _src_lines() -> int:
    total = 0
    for path in glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True):
        with open(path) as fh:
            total += sum(1 for _ in fh)
    return total


def _openblas() -> dict:
    """OpenBLAS version and live thread count, if numpy exposes them."""
    import ctypes

    import numpy as np
    info = {"threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["version"] = f"{cfg.get('name')} {cfg.get('version')}"
    except (TypeError, KeyError):
        pass
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads_live"] = fn()
                return info
    return info


def environment() -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "src_lines": _src_lines(),
    }

"""Reading and writing model and results documents.

A model document is a JSON object with a ``model`` section whose fields
mirror :class:`DiscreteModelSpec` and/or a ``continuous`` section; at least
one of the two is required.  Schema problems raise
:class:`DocumentError` carrying the offending document path; unknown
sections or keys only warn, so newer documents still load.
"""

from __future__ import annotations

import functools
import gc
import itertools
import json
import math
import re
import warnings
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

import numpy as np

from .model import (
    VARIANT_RULES,
    DiscreteModelSpec,
    ModelValidationError,
    Orientation,
    Policy,
    Variant,
    validate_model,
)

if TYPE_CHECKING:  # else only the continuous-section parsers load ctime
    from . import ctime

SIGNIFICANT_DIGITS = 12


class DocumentError(ValueError):
    """Schema violation, annotated with the path inside the document."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


@dataclass
class ModelDocument:
    spec: DiscreteModelSpec | None = None
    continuous: ctime.ContinuousModelSpec | None = None


_MODEL_KEYS = tuple(f.name for f in fields(DiscreteModelSpec))
_KNOWN_SECTIONS = {"model", "continuous"}


def _require(obj, key, path, kind=None, optional=False):
    """``obj[key]``, of type ``kind`` (never bool); optional: null is None."""
    if optional and obj.get(key) is None:
        return None
    if key not in obj:
        raise DocumentError(f"{path}.{key}", "missing required field")
    value = obj[key]
    if kind is not None and (not isinstance(value, kind)
                             or isinstance(value, bool)):
        kinds = kind if isinstance(kind, tuple) else (kind,)
        names = " or ".join(k.__name__ for k in kinds)
        raise DocumentError(f"{path}.{key}",
                            f"expected {names}, got {type(value).__name__}")
    return value


def _array(obj, key, path, dims, optional=False):
    """A ``dims``-dimensional float array, written dense (nested lists) or
    sparse (see :func:`_sparse_array`)."""
    if optional and obj.get(key) is None:
        return None
    raw = _require(obj, key, path)
    if isinstance(raw, dict):
        return _sparse_array(raw, f"{path}.{key}", dims)
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DocumentError(f"{path}.{key}", f"not numeric: {exc}") from None
    if arr.ndim != dims:
        raise DocumentError(f"{path}.{key}",
                            f"expected a {dims}-dimensional array, got "
                            f"{arr.ndim} dimensions")
    return arr


def _sparse_array(obj: dict, path: str, dims: int) -> np.ndarray:
    """``{"shape": [...], "index": [...], "data": [...]}`` as a dense array:
    ``data[i]`` at flat C-order position ``index[i]``, zero elsewhere.  The
    indices must be integers, strictly increasing and inside the array, so
    no entry is written twice."""
    shape = _require(obj, "shape", path, list)
    if not all(type(n) is int and n >= 0 for n in shape):
        raise DocumentError(f"{path}.shape",
                            "expected a list of non-negative integers")
    if len(shape) != dims:
        raise DocumentError(f"{path}.shape", f"expected {dims} dimensions, "
                            f"got {len(shape)}")
    try:
        flat = np.zeros(math.prod(shape))
    except (ValueError, MemoryError) as exc:
        raise DocumentError(f"{path}.shape", f"too large: {exc}") from None
    index = _require(obj, "index", path, list)
    if not all(type(i) is int for i in index):
        raise DocumentError(f"{path}.index", "expected a list of integers")
    if index and (min(index) < 0 or max(index) >= flat.size):
        raise DocumentError(f"{path}.index", f"entry outside [0, {flat.size})")
    data = _require(obj, "data", path, list)
    try:
        data = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DocumentError(f"{path}.data", f"not numeric: {exc}") from None
    if data.shape != (len(index),):
        raise DocumentError(f"{path}.data", f"expected {len(index)} numbers, "
                            f"one per index, got shape {data.shape}")
    index = np.array(index, dtype=np.int64)
    if (np.diff(index) <= 0).any():
        raise DocumentError(f"{path}.index", "not strictly increasing")
    flat[index] = data
    return flat.reshape(shape)


def _enum(cls, raw, path):
    try:
        return cls(raw)
    except ValueError:
        options = ", ".join(e.value for e in cls)
        raise DocumentError(path, f"expected one of {options}, got {raw!r}") \
            from None


def parse_model_section(section: dict, path: str = "model") -> DiscreteModelSpec:
    if not isinstance(section, dict):
        raise DocumentError(path, "model section must be an object")
    for key in section:
        if key not in _MODEL_KEYS:
            warnings.warn(f"ignoring unknown model field {path}.{key}")
    variant = _enum(Variant, _require(section, "variant", path), f"{path}.variant")
    n_patient = int(_require(section, "n_patient", path, int))
    tshape, wshape = VARIANT_RULES[variant].wait_shapes(n_patient)
    spec = DiscreteModelSpec(
        variant=variant,
        n_patient=n_patient,
        death_index=int(_require(section, "death_index", path, int)),
        n_organ=int(_require(section, "n_organ", path, int)),
        no_offer_index=int(_require(section, "no_offer_index", path, int)),
        transition=_array(section, "transition", path, len(tshape)),
        offer_prob=_array(section, "offer_prob", path, 2),
        wait_reward=_array(section, "wait_reward", path, len(wshape)),
        transplant_reward=_array(section, "transplant_reward", path, 2),
        discount=float(_require(section, "discount", path, (int, float))),
        patient_orientation=_enum(
            Orientation, section.get("patient_orientation", "larger_is_worse"),
            f"{path}.patient_orientation"),
        organ_orientation=_enum(
            Orientation, section.get("organ_orientation", "larger_is_worse"),
            f"{path}.organ_orientation"),
        living_donor_state=_require(section, "living_donor_state", path, int,
                                    optional=True),
        success_prob=_array(section, "success_prob", path, 2, optional=True),
        success_reward=_require(section, "success_reward", path, (int, float),
                                optional=True),
    )
    try:
        return validate_model(spec)
    except ModelValidationError as exc:
        raise DocumentError(path, "; ".join(exc.errors)) from None


# --- named distribution families for the continuous section ----------------
#
# The constructors check their values (finite rates, an integer Erlang shape,
# ...) and raise ValueError naming the field; parse_continuous_section turns
# that into a DocumentError.

def _number(section, key, path):
    return float(_require(section, key, path, (int, float)))


def _family(section, path, key, what, makers):
    """``makers[section[key]]()``; an unknown name lists the known ones."""
    name = _require(section, key, path, str)
    if name not in makers:
        raise DocumentError(f"{path}.{key}", f"unknown {what} {name!r} "
                            f"({', '.join(makers)})")
    return makers[name]()


def parse_offers(section: dict, path: str) -> ctime.OfferDistribution:
    from . import ctime
    return _family(section, path, "family", "offer family", {
        "uniform": lambda: ctime.UniformOffers(
            _number(section, "low", path), _number(section, "high", path)),
        "finite": lambda: ctime.FiniteOffers(
            _array(section, "values", path, 1),
            _array(section, "probs", path, 1))})


def parse_lifetime(section: dict, path: str) -> ctime.LifetimeDistribution:
    from . import ctime
    return _family(section, path, "family", "lifetime family", {
        "exponential": lambda: ctime.exponential_lifetime(
            _number(section, "rate", path)),
        "erlang": lambda: ctime.erlang_lifetime(
            _require(section, "shape", path, (int, float)),
            _number(section, "rate", path))})


def parse_interarrival(section: dict, path: str):
    from . import ctime
    return _family(section, path, "family", "interarrival family", {
        "deterministic": lambda: ctime.DeterministicInterarrival(
            _number(section, "gap", path)),
        "exponential": lambda: ctime.exponential_interarrival(
            _number(section, "rate", path))})


def parse_arrivals(section: dict, path: str):
    from . import ctime
    return _family(section, path, "kind", "arrival kind", {
        "fixed": lambda: ctime.FixedInstants(_array(section, "times", path, 1)),
        "poisson": lambda: ctime.PoissonArrivals(
            _number(section, "rate", path)),
        "renewal": lambda: ctime.RenewalArrivals(parse_interarrival(
            _require(section, "interarrival", path, dict),
            f"{path}.interarrival"))})


def parse_discount_fn(section: dict | None, path: str):
    if section is None:
        return lambda t: 1.0
    return _family(section, path, "kind", "discount kind", {
        "constant": lambda: (lambda value: lambda t: value)(
            _number(section, "value", path)),
        "exponential": lambda: (lambda rate: lambda t: math.exp(-rate * t))(
            _number(section, "rate", path))})


def parse_continuous_section(section: dict,
                             path: str = "continuous") -> ctime.ContinuousModelSpec:
    from . import ctime
    if not isinstance(section, dict):
        raise DocumentError(path, "continuous section must be an object")
    try:
        lifetime = None
        if section.get("lifetime") is not None:
            lifetime = parse_lifetime(_require(section, "lifetime", path, dict),
                                      f"{path}.lifetime")
        return ctime.ContinuousModelSpec(
            offers=parse_offers(_require(section, "offers", path, dict),
                                f"{path}.offers"),
            arrivals=parse_arrivals(_require(section, "arrivals", path, dict),
                                    f"{path}.arrivals"),
            lifetime=lifetime,
            discount_fn=parse_discount_fn(
                _require(section, "discount", path, dict, optional=True),
                f"{path}.discount"),
            survival_alphas=_array(section, "survival_alphas", path, 1,
                                   optional=True),
        )
    except DocumentError:
        raise
    except ValueError as exc:
        raise DocumentError(path, str(exc)) from None


def parse_document(doc: dict, path: str = "$") -> ModelDocument:
    if not isinstance(doc, dict):
        raise DocumentError(path, "document root must be an object")
    for key in doc:
        if key not in _KNOWN_SECTIONS:
            warnings.warn(f"ignoring unknown document section {key!r}")
    if "model" not in doc and "continuous" not in doc:
        raise DocumentError(path, "document needs a model or continuous section")
    out = ModelDocument()
    if "model" in doc:
        out.spec = parse_model_section(doc["model"])
    if "continuous" in doc:
        out.continuous = parse_continuous_section(doc["continuous"])
    return out


_SAMPLE_WINDOWS, _SAMPLE_CHARS = 64, 4096
_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


class _Converted(dict):
    """Number text -> its value; each distinct text is converted once, and
    lookups of a text seen before stay in C."""

    def __init__(self, convert):
        super().__init__()
        self.convert = convert

    def __missing__(self, text):
        value = self[text] = self.convert(text)
        return value


def _mostly_repeats(text: str) -> bool:
    """Whether at least half the number texts in evenly spaced windows of
    ``text`` repeat one seen before in them."""
    step = max(_SAMPLE_CHARS, -(-len(text) // _SAMPLE_WINDOWS))
    sample = [number for start in range(0, len(text), step)
              for number in _NUMBER.findall(text, start, start + _SAMPLE_CHARS)]
    return bool(sample) and 2 * len(set(sample)) <= len(sample)


def load_json(path: str) -> dict:
    """The JSON object in ``path``.  Documents are acyclic trees, so the
    cyclic collector, whose scans grow with every list the parser makes, is
    paused while it runs.  When a sample of the text is mostly repeated
    numbers, as in a densely written banded model, each distinct number
    text becomes one shared Python number, so the tree's size follows the
    distinct numbers; otherwise the lookups would only cost."""
    with open(path) as fh:
        text = fh.read()
    collecting = gc.isenabled()
    gc.disable()
    try:
        if _mostly_repeats(text):
            raw = json.loads(text, parse_float=_Converted(float).__getitem__,
                             parse_int=_Converted(int).__getitem__)
        else:
            raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError("$", f"not valid JSON: {exc}") from None
    finally:
        if collecting:
            gc.enable()
    if not isinstance(raw, dict):
        raise DocumentError("$", "document root must be an object")
    return raw


def load_document(path: str) -> ModelDocument:
    return parse_document(load_json(path))


# ---------------------------------------------------------------------------
# writing
#
# Each results document is defined once, with its arrays as ndarrays; the
# CLI writes that form, and the public builders return its ``json_data``.
# ``dump_document`` writes an array as text straight from the ndarray: each
# distinct value is rounded and formatted once; then, a block of
# leading-axis rows at a time, a gather gives each element its text, and the
# block's texts and separators go through one join.

def _round_sig(x: float) -> float:
    return float(f"{x:.{SIGNIFICANT_DIGITS}g}")


def _distinct(a: np.ndarray):
    """The distinct values of a bool, integer or float array as JSON data,
    floats rounded, and a function giving the index among them of each
    element of the C-order slice ``lo:hi``.

    Arrays in result documents hold few distinct values (a 2001-state
    transition matrix about 12 000 in 4 million).  The values come from
    one sort, and a slice's indices from one search of those sorted keys,
    so their work space follows the slice, not the array.
    """
    floats = a.dtype.kind == "f"
    flat = np.ascontiguousarray(a, dtype=np.float64 if floats else None).ravel()
    if floats:   # unique by bit pattern: keeps -0.0 apart from 0.0
        flat = flat.view(np.uint64)
    keys = np.sort(flat)   # np.unique(flat) hashes: far slower when distinct
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    keys = keys[first]
    values = (keys.view(np.float64) if floats else keys).tolist()
    return ([_round_sig(x) for x in values] if floats else values,
            lambda lo, hi: keys.searchsorted(flat[lo:hi]))


def _array_data(a: np.ndarray):
    """``json_data(a.tolist())`` a whole array at a time."""
    if a.dtype.kind != "f":
        return a.tolist() if a.dtype.kind in "biu" else json_data(a.tolist())
    values, index = _distinct(a)
    return np.array(values, dtype=object)[index(0, a.size)].reshape(
        a.shape).tolist()


def json_data(obj):
    """``obj`` as JSON data: ndarrays and tuples become lists, numpy scalars
    Python ones, and every float is rounded to SIGNIFICANT_DIGITS digits."""
    if isinstance(obj, np.ndarray):
        return _array_data(obj)
    if isinstance(obj, dict):
        return {k: json_data(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_data(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (float, np.floating)):
        return _round_sig(float(obj))
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    return obj


def _encoded(items: list) -> list[str]:
    """The JSON text of each item, from one call of the C encoder: "\0"
    occurs in its output only escaped, inside strings."""
    return json.dumps(items, separators=("\0", ": "))[1:-1].split("\0") \
        if items else []


def _texts(a: np.ndarray):
    """A function giving the JSON texts of the elements ``lo:hi``, in C
    order, of a bool, integer or float array, each distinct value's text
    made once."""
    values, index = _distinct(a)
    table = np.array(_encoded(values), dtype=object)
    return lambda lo, hi: table[index(lo, hi)].tolist()


def _joined(texts: list[str], seps: list[str]) -> str:
    """``texts[0] + seps[0] + texts[1] + seps[1] + ...`` in one join."""
    out = [None] * (2 * len(texts))
    out[::2], out[1::2] = texts, seps
    return "".join(out)


@functools.lru_cache
def _layout(m: int, level: int):
    """How ``json.dumps(indent=2)`` opens an ``m``-dimensional array at
    nesting ``level``, and what follows an element that ends r of its lists,
    by r."""
    pad = ["\n" + "  " * (level + d) for d in range(m + 1)]
    after = []
    for r in range(m + 1):
        close = "".join(pad[d] + "]" for d in range(m - 1, m - 1 - r, -1))
        after.append(close if r == m else close + "," + "".join(
            pad[d] + "[" for d in range(m - r, m)) + pad[m])
    return "[" + "".join(pad[d] + "[" for d in range(1, m)) + pad[m], after


_BLOCK = 1 << 16   # elements written per piece, at least one leading row


def _laid_out(texts, shape: tuple, level: int):
    """The array of ``shape`` whose elements ``lo:hi``, in C order, have the
    texts ``texts(lo, hi)``, as ``json.dumps(indent=2)`` lays it out at
    nesting ``level``: in pieces of whole leading-axis rows, about _BLOCK
    elements each, so no piece grows with the array."""
    if 0 in shape:   # the first empty axis ends the nesting
        yield from _laid_out(lambda lo, hi: ["[]"] * (hi - lo),
                             shape[:shape.index(0)], level)
        return
    if not shape:
        yield texts(0, 1)[0]
        return
    head, after = _layout(len(shape), level)
    row = np.empty(shape[1:], dtype=object)   # after each element of a row
    for r, sep in enumerate(after[:-1]):      # but the last row's last
        row[(...,) + (-1,) * r] = sep
    row = row.ravel().tolist()
    rows = max(1, _BLOCK // len(row))
    yield head
    for start in range(0, shape[0], rows):
        stop = min(start + rows, shape[0])
        seps = row * (stop - start)
        if stop == shape[0]:
            seps[-1] = after[-1]
        yield _joined(texts(start * len(row), stop * len(row)), seps)


_SCALARS = frozenset({str, int, float, bool, type(None)})


def _all_scalars(items) -> bool:
    return _SCALARS.issuperset(map(type, items))


def _chunks(obj, level: int = 0):
    """``json.dumps(obj, indent=2)`` at nesting ``level``, in pieces, for
    JSON data whose leaves may also be ndarrays and numpy scalars, written
    as :func:`json_data` turns them into JSON data."""
    if isinstance(obj, np.ndarray) and obj.dtype.kind in "biuf":
        yield from _laid_out(_texts(obj), obj.shape, level)
        return
    if isinstance(obj, np.ndarray):
        obj = json_data(obj)
    if isinstance(obj, (list, tuple)) and obj:
        # a list of scalars, or of rows of scalars of one length
        rows = ({list, tuple}.issuperset(map(type, obj))
                and len(set(map(len, obj))) == 1)
        flat = list(itertools.chain.from_iterable(obj)) if rows else obj
        if _all_scalars(flat):
            texts = _encoded(flat)
            yield from _laid_out(lambda lo, hi: texts[lo:hi],
                                 (len(obj), len(obj[0])) if rows
                                 else (len(obj),), level)
            return
    outer, inner = "\n" + "  " * level, "\n" + "  " * (level + 1)
    if isinstance(obj, dict):
        items, brackets = [(json.dumps(k) + ": ", v) for k, v in obj.items()], "{}"
    elif isinstance(obj, (list, tuple)):
        items, brackets = [("", v) for v in obj], "[]"
    else:
        yield json.dumps(obj if type(obj) in _SCALARS else json_data(obj))
        return
    if not items:
        yield brackets
        return
    for i, (key, value) in enumerate(items):
        yield ("," if i else brackets[0]) + inner + key
        yield from _chunks(value, level + 1)
    yield outer + brackets[1]


def _sparse_if_smaller(a: np.ndarray):
    """``a`` in the sparse form :func:`_sparse_array` reads when that is
    fewer numbers (two per nonzero entry against one per entry)."""
    index = np.flatnonzero(a)
    if 2 * index.size >= a.size:
        return a
    return {"shape": list(a.shape), "index": index, "data": a.ravel()[index]}


def _model(spec: DiscreteModelSpec) -> dict:
    """Each set field of ``spec``, in declaration order: enums by value,
    arrays as ndarrays (the transition sparse if smaller), else json_data."""
    values = {key: getattr(spec, key) for key in _MODEL_KEYS}
    values["transition"] = _sparse_if_smaller(spec.transition)
    return {key: value.value if isinstance(value, (Variant, Orientation))
            else value if isinstance(value, (np.ndarray, dict))
            else json_data(value)
            for key, value in values.items() if value is not None}


def model_section(spec: DiscreteModelSpec) -> dict:
    return json_data(_model(spec))


def _solve_document(spec, value_function, policy) -> dict:
    return {"kind": "solve_results", "model": _model(spec),
            "values": value_function.values,
            "marginal_values": value_function.marginal,
            "policy": policy.actions,
            **json_data({"residual": value_function.residual,
                         "iterations": value_function.iterations,
                         "converged": bool(value_function.converged)})}


def solve_results_document(spec, value_function, policy) -> dict:
    return json_data(_solve_document(spec, value_function, policy))


def _limit_report(report):
    return {
        "axis": report.axis,
        "is_control_limit": bool(report.is_control_limit),
        "thresholds": report.thresholds,
        "witness": report.witness,
    }


def _structure_document(spec, policy, report) -> dict:
    doc = {
        "kind": "structure_results",
        "policy": policy.actions,
        "patient_based": _limit_report(report.patient_based),
        "organ_based": _limit_report(report.organ_based),
        "regions": [{"action": r.action, "cells": r.cells}
                    for r in report.regions],
        "region_count": len(report.regions),
    }
    if report.am2ro is not None:
        doc["am2ro"] = {"holds": report.am2ro.holds,
                        "limits": report.am2ro.limits,
                        "witness_row": report.am2ro.witness_row}
    if report.am3r is not None:
        doc["am3r"] = {"holds": report.am3r.holds,
                       "limits": report.am3r.limits,
                       "region_count": report.am3r.region_count,
                       "disconnected": report.am3r.disconnected}
    return doc


def structure_results_document(spec, policy, report) -> dict:
    return json_data(_structure_document(spec, policy, report))


def simulate_results_document(estimate) -> dict:
    return json_data({
        "kind": "simulate_results",
        "mean": estimate.mean,
        "std_error": estimate.std_error,
        "n": estimate.n,
        "ci_low": estimate.ci_low,
        "ci_high": estimate.ci_high,
        "truncated": estimate.truncated,
    })


def curve_results_document(curve, critical=None, offer_values=None) -> dict:
    doc = {
        "kind": "curve_results",
        "times": curve.times,
        "values": curve.values,
        "truncated": bool(curve.truncated),
        "nonincreasing": curve.is_nonincreasing(),
    }
    if critical is not None:
        doc["offer_values"] = offer_values
        doc["critical_times"] = ["inf" if math.isinf(t) else t
                                 for t in critical]
    return json_data(doc)


def dump_document(doc: dict, path: str) -> None:
    """Write ``doc`` as ``json.dump(doc, fh, indent=2)`` does, and a
    newline.  Its leaves may also be ndarrays and numpy scalars, written as
    :func:`json_data` turns them into JSON data."""
    with open(path, "w") as fh:
        fh.writelines(_chunks(doc))
        fh.write("\n")


# ---------------------------------------------------------------------------
# CSV exports

def write_region_csv(path: str, regions) -> None:
    """Region grid as rows (h, k, action, region_id), written about _BLOCK
    numbers at a time."""
    step = 2 * max(1, _BLOCK // 2)   # whole rows of two numbers
    with open(path, "w", newline="") as fh:
        fh.write("h,k,action,region_id\r\n")
        for rid, region in enumerate(regions):
            texts = _texts(region.cells)
            seps = [",", f",{region.action},{rid}\r\n"]
            for lo in range(0, region.cells.size, step):
                hi = min(lo + step, region.cells.size)
                fh.write(_joined(texts(lo, hi), seps * ((hi - lo) // 2)))


def write_curve_csv(path: str, curve) -> None:
    """Threshold curve as rows (t, lambda)."""
    with open(path, "w", newline="") as fh:
        fh.write("t,lambda\r\n")
        fh.writelines(f"{t:.12g},{v:.12g}\r\n"
                      for t, v in zip(curve.times, curve.values))

"""Document parsing, serialization round-trips, and CLI exit codes."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import organstop
from organstop import Variant, cli, ctime, docio
from organstop.ctime import FixedInstants, PoissonArrivals, UniformOffers
from organstop.docio import DocumentError
from organstop.svgplot import render_curve_svg, render_region_svg

from helpers import (random_analog_spec, random_base_spec,
                     random_living_donor_spec, random_spec)


def model_doc(spec):
    return {"model": docio.model_section(spec)}


def write_doc(tmp_path, doc, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# --- parsing -----------------------------------------------------------------

def test_model_round_trip():
    spec = random_base_spec(np.random.default_rng(0))
    back = docio.parse_model_section(docio.model_section(spec))
    assert back.variant is spec.variant
    np.testing.assert_allclose(back.transition, spec.transition, atol=1e-12)
    np.testing.assert_allclose(back.transplant_reward, spec.transplant_reward,
                               atol=1e-9)
    assert back.discount == pytest.approx(spec.discount, abs=1e-12)


def test_living_donor_round_trip():
    spec = random_living_donor_spec(np.random.default_rng(1))
    back = docio.parse_model_section(docio.model_section(spec))
    assert back.living_donor_state == spec.living_donor_state


def test_missing_field_names_path():
    section = docio.model_section(random_base_spec(np.random.default_rng(2)))
    del section["transition"]
    with pytest.raises(DocumentError, match="model.transition"):
        docio.parse_model_section(section)


def test_bad_probability_row_names_path():
    section = docio.model_section(random_base_spec(np.random.default_rng(3)))
    section["transition"][0][0] += 0.5
    with pytest.raises(DocumentError, match="model.*row sum"):
        docio.parse_model_section(section)


def test_unknown_sections_warn_but_load():
    spec = random_base_spec(np.random.default_rng(4))
    doc = model_doc(spec)
    doc["future_extension"] = {"x": 1}
    doc["ambiguity"] = {"levels": [0.1] * spec.n_patient}
    doc["risk"] = {"risk_coefficient": 0.5,
                   "lifetime_pmf": np.full(
                       (spec.n_patient, spec.n_organ, 2), 0.5).tolist()}
    doc["model"]["annotations"] = "hi"
    with pytest.warns(UserWarning) as record:
        parsed = docio.parse_document(doc)
    assert parsed.spec is not None
    warned = " ".join(str(w.message) for w in record)
    for name in ("future_extension", "ambiguity", "risk", "annotations"):
        assert name in warned


def test_ambiguity_and_risk_sections():
    # No command reads these sections, so the document parser does not
    # either: the model parses as it does without them.
    spec = random_base_spec(np.random.default_rng(5))
    doc = model_doc(spec)
    doc["ambiguity"] = {"levels": [0.1] * spec.n_patient}
    doc["risk"] = {"risk_coefficient": 0.5,
                   "lifetime_pmf": np.full(
                       (spec.n_patient, spec.n_organ, 2), 0.5).tolist()}
    with pytest.warns(UserWarning, match="ambiguity|risk"):
        parsed = docio.parse_document(doc)
    assert not hasattr(parsed, "ambiguity") and not hasattr(parsed, "risk")
    assert parsed.continuous is None
    plain = docio.parse_document(model_doc(spec)).spec
    np.testing.assert_array_equal(parsed.spec.transition, plain.transition)
    np.testing.assert_array_equal(parsed.spec.transplant_reward,
                                  plain.transplant_reward)
    assert not hasattr(docio, "robust") and not hasattr(docio, "risk")


def test_continuous_section_families():
    doc = {"continuous": {
        "offers": {"family": "uniform", "low": 0.0, "high": 1.0},
        "arrivals": {"kind": "poisson", "rate": 1.0},
        "lifetime": {"family": "erlang", "shape": 3, "rate": 1.0},
    }}
    parsed = docio.parse_document(doc)
    assert isinstance(parsed.continuous.offers, UniformOffers)
    assert isinstance(parsed.continuous.arrivals, PoissonArrivals)


def test_unknown_family_is_document_error():
    doc = {"continuous": {
        "offers": {"family": "zipf", "s": 2},
        "arrivals": {"kind": "poisson", "rate": 1.0},
        "lifetime": {"family": "exponential", "rate": 1.0},
    }}
    with pytest.raises(DocumentError, match="continuous.offers.family"):
        docio.parse_document(doc)


def test_numbers_are_rounded_to_12_significant_digits(tmp_path):
    path = tmp_path / "doc.json"
    docio.dump_document(docio.json_data(
        {"x": np.float64(2.0 / 3.0), "y": [1 / 3],
         "z": np.array([2.0 / 3.0, 1e-20 / 3])}), str(path))
    out = json.loads(path.read_text())
    assert out == {"x": 0.666666666667, "y": [0.333333333333],
                   "z": [0.666666666667, 3.33333333333e-21]}


# --- SVG ----------------------------------------------------------------------

def test_region_svg_cell_count():
    svg = render_region_svg(np.array([[0, 1], [1, 0]]))
    assert svg.count(f'width="{40}" height="{40}"') == 4


def test_curve_svg_critical_markers():
    svg = render_curve_svg([0, 1, 2], [1.0, 0.5, 0.0], [0.5, 1.5])
    assert svg.count('class="critical-time"') == 2


def test_svg_is_deterministic():
    a = render_region_svg(np.array([[0, 1], [1, 0]]))
    b = render_region_svg(np.array([[0, 1], [1, 0]]))
    assert a == b


# --- CLI ------------------------------------------------------------------------

def test_cli_solve_roundtrip(tmp_path):
    spec = random_base_spec(np.random.default_rng(6), n_live=3, n_offered=2)
    inp = write_doc(tmp_path, model_doc(spec))
    out = str(tmp_path / "results.json")
    assert cli.main(["solve", "--input", inp, "--output", out,
                     "--tol", "1e-10"]) == cli.EXIT_OK
    results = json.loads(open(out).read())
    assert results["kind"] == "solve_results"
    from organstop import brute_force_optimal
    oracle, _ = brute_force_optimal(spec)
    assert np.max(np.abs(np.array(results["values"]) - oracle)) < 1e-7


def test_cli_solve_validation_error_names_path(tmp_path, capsys):
    spec = random_base_spec(np.random.default_rng(7))
    doc = model_doc(spec)
    doc["model"]["transition"][0][0] += 0.3
    inp = write_doc(tmp_path, doc)
    code = cli.main(["solve", "--input", inp,
                     "--output", str(tmp_path / "o.json")])
    assert code == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "model" in err and "row sum" in err


def test_cli_solve_rejects_nan(tmp_path, capsys):
    doc = model_doc(random_base_spec(np.random.default_rng(9)))
    doc["model"]["transplant_reward"][0][0] = float("nan")
    inp = write_doc(tmp_path, doc)
    with open(inp) as fh:
        assert "NaN" in fh.read()
    code = cli.main(["solve", "--input", inp,
                     "--output", str(tmp_path / "o.json")])
    assert code == cli.EXIT_VALIDATION
    assert "transplant_reward: non-finite entry nan at (0, 0)" \
        in capsys.readouterr().err


def test_cli_analog_without_success_fields_is_validation_error(tmp_path,
                                                                capsys):
    doc = model_doc(random_analog_spec(np.random.default_rng(12)))
    del doc["model"]["success_prob"], doc["model"]["success_reward"]
    inp = write_doc(tmp_path, doc)
    code = cli.main(["simulate", "--input", inp,
                     "--output", str(tmp_path / "o.json")])
    assert code == cli.EXIT_VALIDATION
    assert "success_prob and success_reward required" in capsys.readouterr().err


def test_cli_solve_non_convergence_exit_code(tmp_path):
    spec = random_base_spec(np.random.default_rng(8), discount=0.95)
    inp = write_doc(tmp_path, model_doc(spec))
    code = cli.main(["solve", "--input", inp,
                     "--output", str(tmp_path / "o.json"),
                     "--tol", "1e-12", "--max-iters", "2"])
    assert code == cli.EXIT_NO_CONVERGENCE


COMMANDS = ["solve", "analyze", "simulate", "continuous", "plot"]


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_unreadable_input(tmp_path, capsys, command):
    def run(text):
        inp = tmp_path / "in.json"
        if text is None:
            inp.unlink(missing_ok=True)
        else:
            inp.write_text(text)
        return cli.main([command, "--input", str(inp),
                         "--output", str(tmp_path / "out.json")])

    assert run(None) == cli.EXIT_USAGE
    assert "input file not found" in capsys.readouterr().err
    assert run("{not json") == cli.EXIT_VALIDATION
    assert "$: not valid JSON" in capsys.readouterr().err
    assert run("[1, 2]") == cli.EXIT_VALIDATION
    assert "$: document root must be an object" in capsys.readouterr().err
    if command in ("analyze", "plot"):
        spec = random_base_spec(np.random.default_rng(6))
        doc = {"kind": "solve_results", "model": docio.model_section(spec)}
        assert run(json.dumps(doc)) == cli.EXIT_VALIDATION
        assert "$.policy: missing required field" in capsys.readouterr().err


def test_cli_usage_errors_exit_usage(tmp_path, capsys):
    assert cli.main(["solve"]) == cli.EXIT_USAGE
    assert "--input" in capsys.readouterr().err
    inp = write_doc(tmp_path, {"kind": "structure_results",
                               "policy": [[0, 1], [1, 0]]})
    out = tmp_path / "plot.svg"
    assert cli.main(["plot", "--input", inp, "--output", str(out),
                     "--tol", "1"]) == cli.EXIT_USAGE
    assert "unrecognized arguments: --tol" in capsys.readouterr().err
    assert not out.exists()


def test_cli_solve_analyze_plot_pipeline(tmp_path):
    spec = random_base_spec(np.random.default_rng(9), n_live=3, n_offered=2)
    inp = write_doc(tmp_path, model_doc(spec))
    solved = str(tmp_path / "solved.json")
    analyzed = str(tmp_path / "analysis.json")
    svg = str(tmp_path / "plot.svg")
    assert cli.main(["solve", "--input", inp, "--output", solved]) == 0
    assert cli.main(["analyze", "--input", solved, "--output", analyzed]) == 0
    report = json.loads(open(analyzed).read())
    assert report["kind"] == "structure_results"
    assert (tmp_path / "analysis.csv").exists()
    csv_head = (tmp_path / "analysis.csv").read_text().splitlines()[0]
    assert csv_head == "h,k,action,region_id"
    assert cli.main(["plot", "--input", analyzed, "--output", svg]) == 0
    assert open(svg).read().startswith("<svg")


def test_cli_analyze_rejects_one_dimensional(tmp_path):
    spec = random_living_donor_spec(np.random.default_rng(10))
    inp = write_doc(tmp_path, model_doc(spec))
    code = cli.main(["analyze", "--input", inp,
                     "--output", str(tmp_path / "o.json")])
    assert code == cli.EXIT_VALIDATION


def test_cli_simulate(tmp_path):
    spec = random_base_spec(np.random.default_rng(11))
    inp = write_doc(tmp_path, model_doc(spec))
    out = str(tmp_path / "sim.json")
    assert cli.main(["simulate", "--input", inp, "--output", out,
                     "--trajectories", "500", "--seed", "42"]) == 0
    sim = json.loads(open(out).read())
    assert abs(sim["mean"] - sim["solver_value"]) <= 4 * sim["std_error"]


def test_cli_simulate_rejects_bad_sample_size_and_seed(tmp_path):
    spec = random_base_spec(np.random.default_rng(11))
    inp = write_doc(tmp_path, model_doc(spec))
    out = tmp_path / "sim.json"
    for flags in (["--trajectories", "0"], ["--seed", "-1"]):
        assert cli.main(["simulate", "--input", inp, "--output", str(out)]
                        + flags) == cli.EXIT_VALIDATION
    assert not out.exists()


def test_cli_continuous_fixed_instants(tmp_path):
    doc = {"continuous": {
        "offers": {"family": "finite", "values": [1.0, 0.5],
                   "probs": [0.5, 0.5]},
        "arrivals": {"kind": "fixed", "times": list(np.arange(1.0, 11.0))},
        "survival_alphas": [0.9] * 10,
    }}
    inp = write_doc(tmp_path, doc)
    out = str(tmp_path / "curve.json")
    assert cli.main(["continuous", "--input", inp, "--output", out]) == 0
    curve = json.loads(open(out).read())
    assert curve["nonincreasing"]
    finite = [t for t in curve["critical_times"] if t != "inf"]
    assert finite == sorted(finite)


def test_cli_continuous_truncated_exit_code(tmp_path):
    doc = {"continuous": {
        "offers": {"family": "uniform", "low": 0.0, "high": 1.0},
        "arrivals": {"kind": "poisson", "rate": 1.0},
        "lifetime": {"family": "exponential", "rate": 0.3},
    }}
    inp = write_doc(tmp_path, doc)
    code = cli.main(["continuous", "--input", inp,
                     "--output", str(tmp_path / "o.json"),
                     "--t-max", "5", "--grid-step", "0.1"])
    assert code == cli.EXIT_TRUNCATED


def test_cli_plot_unknown_kind(tmp_path):
    inp = write_doc(tmp_path, {"kind": "mystery"})
    assert cli.main(["plot", "--input", inp,
                     "--output", str(tmp_path / "o.svg")]) == cli.EXIT_USAGE


def test_cli_plot_curve_and_csv(tmp_path):
    doc = {"continuous": {
        "offers": {"family": "uniform", "low": 0.0, "high": 1.0},
        "arrivals": {"kind": "poisson", "rate": 1.0},
        "lifetime": {"family": "exponential", "rate": 0.5},
    }}
    inp = write_doc(tmp_path, doc)
    out = str(tmp_path / "curve.json")
    assert cli.main(["continuous", "--input", inp, "--output", out,
                     "--t-max", "40", "--grid-step", "0.5",
                     "--format", "csv"]) == 0
    assert (tmp_path / "curve.csv").read_text().startswith("t,lambda")
    svg = str(tmp_path / "curve.svg")
    assert cli.main(["plot", "--input", out, "--output", svg]) == 0
    assert "polyline" in open(svg).read()


def test_cli_continuous_underflowing_discount(tmp_path):
    doc = {"continuous": {
        "offers": {"family": "finite", "values": [1.0, 0.5],
                   "probs": [0.5, 0.5]},
        "arrivals": {"kind": "fixed", "times": list(np.arange(1.0, 801.0))},
        "survival_alphas": [0.999] * 800,
        "discount": {"kind": "exponential", "rate": 1.0},
    }}
    inp = write_doc(tmp_path, doc)
    out = tmp_path / "curve.json"
    assert cli.main(["continuous", "--input", inp, "--output", str(out)]) == 0
    values = np.array(json.loads(out.read_text())["values"])
    assert len(values) == 800 and np.isfinite(values).all()
    inp = write_doc(tmp_path, {"continuous": {
        "offers": {"family": "uniform", "low": 0.0, "high": 1.0},
        "arrivals": {"kind": "poisson", "rate": 1.0},
        "lifetime": {"family": "exponential", "rate": 0.5},
        "discount": {"kind": "exponential", "rate": 7.0},
    }}, "poisson.json")
    assert cli.main(["continuous", "--input", inp, "--output", str(out),
                     "--t-max", "110", "--grid-step", "1"]) == 0
    values = np.array(json.loads(out.read_text())["values"])
    assert len(values) == 111 and np.isfinite(values).all()


def test_cli_continuous_non_finite_curve_exits_truncated(tmp_path, capsys,
                                                         monkeypatch):
    monkeypatch.setattr(ctime, "finite_horizon_thresholds",
                        lambda spec: np.full(len(spec.arrivals.times), np.nan))
    doc = {"continuous": {
        "offers": {"family": "finite", "values": [1.0, 0.5],
                   "probs": [0.5, 0.5]},
        "arrivals": {"kind": "fixed", "times": [1.0, 2.0, 3.0]},
        "survival_alphas": [0.9] * 3,
    }}
    inp = write_doc(tmp_path, doc)
    out = tmp_path / "curve.json"
    assert cli.main(["continuous", "--input", inp,
                     "--output", str(out)]) == cli.EXIT_TRUNCATED
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


def test_cli_documents_write_json_booleans(tmp_path):
    spec = random_spec(np.random.default_rng(13), Variant.COMBINED, 4, 3)
    inp = write_doc(tmp_path, model_doc(spec))
    ct = write_doc(tmp_path, {"continuous": {
        "offers": {"family": "uniform", "low": 0.0, "high": 1.0},
        "arrivals": {"kind": "poisson", "rate": 1.0},
        "lifetime": {"family": "exponential", "rate": 0.5},
    }}, "ct.json")
    solved, analyzed, curve = (str(tmp_path / name) for name in
                               ("solved.json", "analysis.json", "curve.json"))
    assert cli.main(["solve", "--input", inp, "--output", solved]) == 0
    assert cli.main(["analyze", "--input", solved, "--output", analyzed]) == 0
    assert cli.main(["continuous", "--input", ct, "--output", curve,
                     "--t-max", "40", "--grid-step", "0.5"]) == 0
    s, a, c = (json.loads(open(path).read())
               for path in (solved, analyzed, curve))
    flags = [s["converged"], a["patient_based"]["is_control_limit"],
             a["organ_based"]["is_control_limit"], a["am2ro"]["holds"],
             a["am3r"]["holds"], a["am3r"]["disconnected"], c["truncated"],
             c["nonincreasing"]]
    assert all(type(flag) is bool for flag in flags)
    assert s["converged"] and c["nonincreasing"] and not c["truncated"]


def test_cli_import_and_discrete_solve_load_no_scipy(tmp_path):
    # and neither does a curve on the closed-form lifetimes and arrivals
    commands = [["solve", "--input", write_doc(tmp_path, model_doc(
        random_base_spec(np.random.default_rng(14)))),
        "--output", str(tmp_path / "o.json")]]
    for life in ({"family": "exponential", "rate": 0.5},
                 {"family": "erlang", "shape": 3, "rate": 1.0}):
        for arrivals in ({"kind": "poisson", "rate": 1.0},
                         {"kind": "renewal", "interarrival":
                          {"family": "exponential", "rate": 1.0}}):
            name = f"{life['family']}-{arrivals['kind']}"
            inp = write_doc(tmp_path, {"continuous": {
                "offers": {"family": "finite", "values": [1.0, 0.5],
                           "probs": [0.5, 0.5]},
                "arrivals": arrivals, "lifetime": life}}, name + ".json")
            commands.append(["continuous", "--input", inp, "--output",
                             str(tmp_path / f"{name}-curve.json"),
                             "--t-max", "30", "--grid-step", "0.1"])
    code = ("import sys; from organstop import cli; "
            "scipy = lambda: [m for m in sys.modules if m.split('.')[0] == 'scipy']; "
            "print(scipy())\n"
            f"for argv in {commands!r}:\n"
            "    print(cli.main(argv), scipy())")
    src = os.path.dirname(os.path.dirname(organstop.__file__))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert run.stdout.splitlines() == ["[]"] + ["0 []"] * len(commands)
    assert all(os.path.exists(argv[4]) for argv in commands)


def test_cli_continuous_nan_rate_exits_validation(tmp_path):
    # refused before the ODE runs; the timeout turns a hang into a failure
    inp = write_doc(tmp_path, {"continuous": {
        "offers": {"family": "uniform", "low": 0.0, "high": 1.0},
        "arrivals": {"kind": "poisson", "rate": float("nan")},
        "lifetime": {"family": "exponential", "rate": 0.5},
    }})
    out = tmp_path / "curve.json"
    code = ("import sys; from organstop import cli; "
            f"sys.exit(cli.main(['continuous', '--input', {inp!r}, "
            f"'--output', {str(out)!r}, '--t-max', '40', '--grid-step', '0.1']))")
    src = os.path.dirname(os.path.dirname(organstop.__file__))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60,
                         env=dict(os.environ, PYTHONPATH=src))
    assert run.returncode == cli.EXIT_VALIDATION
    assert "Poisson arrival rate must be finite" in run.stderr
    assert not out.exists()


_GOOD_CONTINUOUS = {
    "offers": {"family": "uniform", "low": 0.0, "high": 1.0},
    "arrivals": {"kind": "poisson", "rate": 1.0},
    "lifetime": {"family": "exponential", "rate": 0.5},
}


@pytest.mark.parametrize("key, value, message", [
    ("arrivals", {"kind": "poisson", "rate": -1.0}, "Poisson arrival rate"),
    ("arrivals", {"kind": "poisson", "rate": float("inf")},
     "Poisson arrival rate"),
    ("arrivals", {"kind": "poisson", "rate": float("nan")},
     "Poisson arrival rate"),
    ("lifetime", {"family": "exponential", "rate": 0.0}, "lifetime rate"),
    ("lifetime", {"family": "exponential", "rate": -1.0}, "lifetime rate"),
    ("lifetime", {"family": "erlang", "shape": 3, "rate": float("nan")},
     "lifetime rate"),
    ("lifetime", {"family": "erlang", "shape": 2.5, "rate": 1.0},
     "erlang shape"),
    ("lifetime", {"family": "erlang", "shape": 0, "rate": 1.0}, "erlang shape"),
    ("lifetime", {"family": "erlang", "shape": float("nan"), "rate": 1.0},
     "erlang shape"),
    ("lifetime", {"family": "exponential", "rate": None},
     "continuous.lifetime.rate: expected int or float"),
    ("arrivals", {"kind": "renewal", "interarrival":
                  {"family": "exponential", "rate": 0.0}},
     "interarrival rate"),
    ("arrivals", {"kind": "renewal", "interarrival":
                  {"family": "exponential", "rate": float("inf")}},
     "interarrival rate"),
    ("arrivals", {"kind": "renewal", "interarrival":
                  {"family": "deterministic", "gap": float("nan")}},
     "interarrival gap"),
    ("offers", {"family": "finite", "values": [float("nan"), 0.5],
                "probs": [0.5, 0.5]}, "offer values must be finite"),
    ("offers", {"family": "finite", "values": [1.0, 0.5],
                "probs": [float("nan"), 0.5]},
     "offer probabilities must be finite"),
    ("arrivals", {"kind": "fixed", "times": [1.0, float("nan")]},
     "arrival instants must be finite"),
], ids=["poisson-negative", "poisson-inf", "poisson-nan", "lifetime-zero",
        "lifetime-negative", "lifetime-nan", "erlang-fractional-shape",
        "erlang-zero-shape", "erlang-nan-shape", "lifetime-null",
        "interarrival-zero", "interarrival-inf", "gap-nan", "offer-values-nan",
        "offer-probs-nan", "instants-nan"])
def test_cli_continuous_refuses_bad_fields(tmp_path, capsys, key, value,
                                           message):
    doc = {**_GOOD_CONTINUOUS, key: value}
    if key == "arrivals" and value["kind"] == "fixed":
        doc["survival_alphas"] = [0.9, 0.9]
    inp = write_doc(tmp_path, {"continuous": doc})
    out = tmp_path / "curve.json"
    assert cli.main(["continuous", "--input", inp, "--output", str(out),
                     "--t-max", "5", "--grid-step", "0.5"]) == cli.EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert not out.exists()

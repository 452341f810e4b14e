"""Document parsing, serialization round-trips, and CLI exit codes."""

import json

import numpy as np
import pytest

from organstop import cli, docio
from organstop.ctime import FixedInstants, PoissonArrivals, UniformOffers
from organstop.docio import DocumentError
from organstop.svgplot import render_curve_svg, render_region_svg

from helpers import random_base_spec, random_living_donor_spec


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
    doc = model_doc(random_base_spec(np.random.default_rng(4)))
    doc["future_extension"] = {"x": 1}
    doc["model"]["annotations"] = "hi"
    with pytest.warns(UserWarning):
        parsed = docio.parse_document(doc)
    assert parsed.spec is not None


def test_ambiguity_and_risk_sections():
    spec = random_base_spec(np.random.default_rng(5))
    doc = model_doc(spec)
    doc["ambiguity"] = {"levels": [0.1] * spec.n_patient}
    doc["risk"] = {"risk_coefficient": 0.5,
                   "lifetime_pmf": np.full(
                       (spec.n_patient, spec.n_organ, 2), 0.5).tolist()}
    parsed = docio.parse_document(doc)
    assert parsed.ambiguity.levels[0] == 0.1
    assert parsed.risk.risk_coefficient == 0.5


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


def test_numbers_are_rounded_to_12_significant_digits():
    assert docio._round_sig(1 / 3) == 0.333333333333
    out = docio._jsonable({"x": np.float64(2.0 / 3.0)})
    assert out["x"] == 0.666666666667


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


def test_cli_solve_non_convergence_exit_code(tmp_path):
    spec = random_base_spec(np.random.default_rng(8), discount=0.95)
    inp = write_doc(tmp_path, model_doc(spec))
    code = cli.main(["solve", "--input", inp,
                     "--output", str(tmp_path / "o.json"),
                     "--tol", "1e-12", "--max-iters", "2"])
    assert code == cli.EXIT_NO_CONVERGENCE


def test_cli_missing_input(tmp_path):
    assert cli.main(["solve", "--input", str(tmp_path / "nope.json"),
                     "--output", str(tmp_path / "o.json")]) == cli.EXIT_USAGE


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

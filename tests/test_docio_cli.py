"""Document parsing, serialization round-trips, and CLI exit codes."""

import dataclasses
import gc
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import organstop
from organstop import (DiscreteModelSpec, Variant, cli, ctime, docio,
                       solve_value_iteration, structure)
from organstop.ctime import FixedInstants, PoissonArrivals, UniformOffers
from organstop.docio import DocumentError
from organstop.solver import SolveOptions
from organstop.svgplot import render_curve_svg, render_region_svg

import reference_writers as ref
from helpers import (banded_spec, random_analog_spec, random_base_spec,
                     random_dialysis_spec, random_living_donor_spec,
                     random_spec, reversed_spec)


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


@pytest.mark.parametrize("field, value", [
    ("living_donor_state", "a"), ("living_donor_state", 1.5),
    ("living_donor_state", [0]), ("living_donor_state", True),
    ("success_reward", [2]), ("success_reward", "x"),
    ("success_reward", True),
])
def test_cli_refuses_an_optional_model_field_of_the_wrong_type(
        tmp_path, capsys, field, value):
    make = random_living_donor_spec if field == "living_donor_state" \
        else random_analog_spec
    doc = model_doc(make(np.random.default_rng(3)))
    doc["model"][field] = value
    out = tmp_path / "o.json"
    assert cli.main(["solve", "--input", write_doc(tmp_path, doc),
                     "--output", str(out)]) == cli.EXIT_VALIDATION
    assert f"model.{field}: expected" in capsys.readouterr().err
    assert not out.exists()


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


# --- the sparse transition echo ---------------------------------------------

@st.composite
def banded_specs(draw, variants=tuple(Variant)):
    """Specs of the given variants whose transitions are mostly zero."""
    variant = draw(st.sampled_from(variants))
    n_live = draw(st.integers(7, 12))
    n_offered = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    spec = random_spec(np.random.default_rng(seed), variant, n_live, n_offered)
    return banded_spec(spec, draw(st.integers(0, 1)))


def assert_same_spec(a, b):
    for field in dataclasses.fields(DiscreteModelSpec):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, np.ndarray):
            assert np.array_equal(x, y), field.name
        else:
            assert x == y, field.name


def written_json(tmp_path, doc, name):
    path = tmp_path / name
    docio.dump_document(doc, str(path))
    return str(path)


@given(banded_specs())
def test_sparse_transition_echo_parses_as_the_dense_one(tmp_path_factory, spec):
    tmp = tmp_path_factory.mktemp("echo")
    section = docio.model_section(spec)
    assert set(section["transition"]) == {"shape", "index", "data"}
    assert section["transition"]["shape"] == list(spec.transition.shape)
    dense = {**section, "transition": docio.json_data(spec.transition)}
    with open(written_json(tmp, section, "sparse.json")) as fh:
        sparse_back = docio.parse_model_section(json.load(fh))
    with open(written_json(tmp, dense, "dense.json")) as fh:
        dense_back = docio.parse_model_section(json.load(fh))
    assert_same_spec(sparse_back, dense_back)


@settings(max_examples=20)
@given(banded_specs((Variant.BASE, Variant.COMBINED,
                     Variant.CONTINUOUS_ANALOG)))
def test_analyze_and_plot_read_the_sparse_echo(tmp_path_factory, spec):
    tmp = tmp_path_factory.mktemp("cli")
    vf, policy = solve_value_iteration(spec)
    doc = docio.solve_results_document(spec, vf, policy)
    assert isinstance(doc["model"]["transition"], dict)
    dense = {**doc, "model": {**doc["model"],
                              "transition": docio.json_data(spec.transition)}}
    outputs = []
    for name, solved in (("sparse", doc), ("dense", dense)):
        inp = written_json(tmp, solved, f"{name}.json")
        out = tmp / f"{name}_analysis.json"
        assert cli.main(["analyze", "--input", inp, "--output", str(out)]) \
            == cli.EXIT_OK
        svg = tmp / f"{name}.svg"
        assert cli.main(["plot", "--input", inp, "--output", str(svg)]) \
            == cli.EXIT_OK
        outputs.append([p.read_bytes() for p in (
            out, tmp / f"{name}_analysis.csv", svg)])
    assert outputs[0] == outputs[1]


def test_transition_is_sparse_exactly_when_that_is_fewer_numbers():
    spec = random_base_spec(np.random.default_rng(7), n_live=3)
    assert isinstance(docio.model_section(spec)["transition"], list)
    # 8 of 16 nonzero: sparse would take 2 * 8 numbers, as many as dense
    half = np.array([[0.5, 0.3, 0.0, 0.2], [0.0, 0.9, 0.0, 0.1],
                     [0.0, 0.0, 0.8, 0.2], [0.0, 0.0, 0.0, 1.0]])
    spec = dataclasses.replace(spec, transition=half)
    assert docio.model_section(spec)["transition"] == half.tolist()
    half = half.copy()  # the spec sealed the array it was given
    half[0] = [0.8, 0.0, 0.0, 0.2]
    spec = dataclasses.replace(spec, transition=half)
    assert docio.model_section(spec)["transition"] == {
        "shape": [4, 4], "index": [0, 3, 5, 7, 10, 11, 15],
        "data": [0.8, 0.2, 0.9, 0.1, 0.8, 0.2, 1.0]}


def sparse_section():
    section = docio.model_section(
        banded_spec(random_base_spec(np.random.default_rng(8), n_live=7), 1))
    assert section["transition"]["shape"] == [8, 8]
    return section


def _set(key, value):
    return lambda t: t.update({key: value})


def _missing(key):
    return lambda t: t.pop(key)


@pytest.mark.parametrize("mutate, where, message", [
    (_missing("shape"), "shape", "missing required field"),
    (_missing("index"), "index", "missing required field"),
    (_missing("data"), "data", "missing required field"),
    (_set("shape", "8x8"), "shape", "expected list, got str"),
    (_set("shape", [8, -8]), "shape", "non-negative integers"),
    (_set("shape", [8.0, 8]), "shape", "non-negative integers"),
    (_set("shape", [True, 8]), "shape", "non-negative integers"),
    (_set("shape", [64]), "shape", "expected 2 dimensions, got 1"),
    (_set("shape", [2, 8, 8]), "shape", "expected 2 dimensions, got 3"),
    (_set("shape", [2**62, 8]), "shape", "too large"),
    (_set("index", 5), "index", "expected list, got int"),
    (lambda t: t["index"].__setitem__(1, 1.0), "index", "list of integers"),
    (lambda t: t["index"].__setitem__(0, False), "index", "list of integers"),
    (lambda t: t["index"].__setitem__(0, [0]), "index", "list of integers"),
    (lambda t: t["index"].__setitem__(-1, 64), "index", r"outside \[0, 64\)"),
    (lambda t: t["index"].__setitem__(0, -1), "index", r"outside \[0, 64\)"),
    (lambda t: t["index"].__setitem__(-1, 2**70), "index", "outside"),
    (lambda t: t["index"].reverse(), "index", "not strictly increasing"),
    (lambda t: (t["index"].insert(1, t["index"][0]),
                t["data"].insert(1, 0.0)), "index",
     "not strictly increasing"),
    (lambda t: t["data"].pop(), "data", "one per index"),
    (lambda t: t["index"].pop(), "data", "one per index"),
    (lambda t: t["data"].__setitem__(0, "a lot"), "data", "not numeric"),
    (lambda t: t.update(data=[[x] for x in t["data"]]), "data",
     "one per index"),
])
def test_malformed_sparse_array_names_its_field(mutate, where, message):
    section = sparse_section()
    mutate(section["transition"])
    with pytest.raises(DocumentError,
                       match=rf"^model\.transition\.{where}: .*{message}"):
        docio.parse_model_section(section)


def test_sparse_array_of_the_wrong_size_fails_validation():
    section = sparse_section()
    section["transition"]["shape"] = [9, 9]
    with pytest.raises(DocumentError,
                       match=r"^model: transition: shape \(9, 9\), expected "
                             r"\(8, 8\)"):
        docio.parse_model_section(section)


def test_input_documents_may_write_any_array_sparse():
    spec = random_dialysis_spec(np.random.default_rng(9), n_live=3)
    section = docio.model_section(spec)
    for name in ("transition", "offer_prob", "wait_reward"):
        arr = getattr(spec, name)
        section[name] = docio.json_data({
            "shape": list(arr.shape), "index": np.flatnonzero(arr),
            "data": arr.ravel()[np.flatnonzero(arr)]})
    assert_same_spec(docio.parse_model_section(section),
                     docio.parse_model_section(docio.model_section(spec)))


def test_cli_refuses_a_malformed_sparse_echo(tmp_path, capsys):
    spec = banded_spec(random_base_spec(np.random.default_rng(8), n_live=7), 1)
    vf, policy = solve_value_iteration(spec)
    doc = docio.json_data(docio.solve_results_document(spec, vf, policy))
    doc["model"]["transition"]["index"][-1] = 64
    out = tmp_path / "analysis.json"
    assert cli.main(["analyze", "--input", write_doc(tmp_path, doc),
                     "--output", str(out)]) == cli.EXIT_VALIDATION
    assert ("error: model.transition.index: entry outside [0, 64)"
            in capsys.readouterr().err)
    assert not out.exists()


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
        assert capsys.readouterr().err == \
            "error: $.policy: missing required field\n"


@pytest.mark.parametrize("command", ["analyze", "plot"])
def test_cli_refuses_a_policy_that_does_not_fit_the_model(tmp_path, capsys,
                                                          command):
    spec = random_base_spec(np.random.default_rng(6), n_live=3, n_offered=1)
    legal = np.zeros((4, 2), dtype=int)
    legal[:, 0] = 1
    legal[3] = 5
    out = tmp_path / "out"

    def run(policy):
        doc = {"kind": "solve_results", "model": docio.model_section(spec),
               "policy": policy}
        return cli.main([command, "--input", write_doc(tmp_path, doc),
                         "--output", str(out)])

    assert run(legal.tolist()) == cli.EXIT_OK
    out.unlink()
    assert run([[0, 1]]) == cli.EXIT_VALIDATION
    assert ("$.policy: shape (1, 2) does not fit the model, expected (4, 2)"
            in capsys.readouterr().err)
    no_offer = legal.copy()
    no_offer[0, 1] = 1  # transplant with no organ offered
    assert run(no_offer.tolist()) == cli.EXIT_VALIDATION
    assert ("$.policy: illegal action TRANSPLANT at cell (0, 1)"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("policy", [[[7, -3], [9, 1]], [[0.5, 1]], [0, 1]])
def test_cli_plot_refuses_a_structure_policy_of_no_action_codes(
        tmp_path, capsys, policy):
    inp = write_doc(tmp_path, {"kind": "structure_results", "policy": policy})
    out = tmp_path / "plot.svg"
    assert cli.main(["plot", "--input", inp, "--output", str(out)]) \
        == cli.EXIT_VALIDATION
    assert "$.policy: " in capsys.readouterr().err
    assert not out.exists()


# the model of the README's library example
README_MODEL = {"model": {
    "variant": "base", "n_patient": 3, "death_index": 2,
    "n_organ": 3, "no_offer_index": 2,
    "transition": [[0.7, 0.2, 0.1], [0.0, 0.8, 0.2], [0.0, 0.0, 1.0]],
    "offer_prob": [[0.3, 0.3, 0.4]] * 3,
    "wait_reward": [1.0, 0.6, 0.0],
    "transplant_reward": [[8.0, 5.0, 0.0], [7.0, 4.0, 0.0], [0.0, 0.0, 0.0]],
    "discount": 0.9,
}}


def test_cli_runs_as_a_module(tmp_path):
    inp = write_doc(tmp_path, README_MODEL)
    out = tmp_path / "solved.json"
    src = os.path.dirname(os.path.dirname(organstop.__file__))

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "organstop.cli", *argv, "--input", inp,
             "--output", str(out)], capture_output=True, text=True,
            timeout=60, env=dict(os.environ, PYTHONPATH=src))

    assert run("solve").returncode == cli.EXIT_OK
    assert json.loads(out.read_text())["kind"] == "solve_results"
    out.unlink()
    bad = run("solve", "--no-such-flag")
    assert bad.returncode == cli.EXIT_USAGE
    assert "unrecognized arguments: --no-such-flag" in bad.stderr
    assert not out.exists()


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


@pytest.mark.parametrize("variant", [Variant.BASE, Variant.COMBINED])
def test_cli_writes_the_reference_text_of_the_public_builders(tmp_path,
                                                              variant):
    spec = banded_spec(random_spec(np.random.default_rng(21), variant, 60, 20))
    inp = write_doc(tmp_path, model_doc(spec))
    out = {name: str(tmp_path / name) for name in
           ("solved.json", "analysis.json", "analysis.csv", "plot.svg")}
    for command, src, dst in (("solve", inp, "solved.json"),
                              ("analyze", out["solved.json"], "analysis.json"),
                              ("plot", out["analysis.json"], "plot.svg")):
        assert cli.main([command, "--input", src, "--output", out[dst]]) \
            == cli.EXIT_OK
    spec = docio.load_document(inp).spec   # the model as the CLI read it
    vf, policy = solve_value_iteration(spec)
    report = structure.analyze_policy(spec, policy)
    solved = docio.solve_results_document(spec, vf, policy)
    analysis = docio.structure_results_document(spec, policy, report)
    assert isinstance(solved["model"]["transition"], dict)
    assert ("am3r" in analysis) == (variant is Variant.COMBINED)
    json.dumps(solved), json.dumps(analysis)
    text = {name: (tmp_path / name).read_bytes().decode() for name in out}
    assert text["solved.json"] == ref.document_text(solved)
    assert text["analysis.json"] == ref.document_text(analysis)
    assert text["analysis.csv"] == ref.region_csv_text(report.regions)


# sha256 of the README chain's outputs; curve.json is left out, as its numbers
# pass through numpy's SIMD exp, which may differ by an ulp between CPUs
README_CHAIN_SHA256 = {
    "solved.json":
        "cac7f89fbe88e50a52dabab9fcd81c657699b105e2fa3057e1c20012d9902539",
    "analysis.json":
        "dd46c43d08b14511238924f0d2faba849ce4a686eb8737f82291e3f2aec4bd86",
    "analysis.csv":
        "ccaf47f74d23f6be45bff245bac86d88e12e25077eb723ab9a1861eee4f20569",
    "sim.json":
        "fb4f4959a305005c7f3767c846e058e32ca450ace3f7e0891a9c81b6ff40040a",
    "plot.svg":
        "b0692f254d0b9c1e49d3ce080168088bd97234d8b8205f4c99b6f22ddc1dffc0",
}


def test_readme_chain_writes_its_pinned_bytes(tmp_path):
    model = write_doc(tmp_path, README_MODEL)
    out = {name: str(tmp_path / name) for name in README_CHAIN_SHA256}
    for argv in (["solve", "--input", model, "--output", out["solved.json"],
                  "--tol", "1e-10"],
                 ["analyze", "--input", out["solved.json"], "--output",
                  out["analysis.json"]],
                 ["simulate", "--input", model, "--output", out["sim.json"],
                  "--trajectories", "2000", "--seed", "7"],
                 ["plot", "--input", out["analysis.json"], "--output",
                  out["plot.svg"]]):
        assert cli.main(argv) == cli.EXIT_OK, argv
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in README_CHAIN_SHA256} == README_CHAIN_SHA256


# sha256 of the solve document of one spec per model-section form the README
# chain does not write: the analog's success fields, a living-donor state,
# dialysis's stacked arrays, both axes larger_is_better and a sparse
# transition echo
SOLVE_DOCUMENT_SHA256 = {
    "analog": ("7f583b198bfb8271d6dd0fdec831a612d63da2c78aed14203b7a70cdcc4e9cf4",
               lambda: random_analog_spec(np.random.default_rng(51))),
    "living_donor": (
        "ccc737de9be70cff30b06fb1dc68dc1588d5b4ee1acd1a8d31b4834676f128f2",
        lambda: random_living_donor_spec(np.random.default_rng(52))),
    "dialysis": (
        "d27c0af1842efd0a30643ccb4cb142dc032f4b13be8146ded7f07d15aba4c87b",
        lambda: random_dialysis_spec(np.random.default_rng(53))),
    "larger_is_better": (
        "a09db24937b1004303defc7e5c6464f62b5061055b2a27c6b4b71146c73e8ac7",
        lambda: reversed_spec(random_base_spec(np.random.default_rng(54)))),
    "sparse_transition": (
        "b31142807430dd9620cddbb747591e7bbb26059ba02672df448a68c20129c821",
        lambda: banded_spec(random_base_spec(np.random.default_rng(55),
                                             n_live=12))),
}


@pytest.mark.parametrize("name", SOLVE_DOCUMENT_SHA256)
def test_solve_documents_write_their_pinned_bytes(tmp_path, name):
    digest, make = SOLVE_DOCUMENT_SHA256[name]
    spec = make()
    path = tmp_path / "solved.json"
    docio.dump_document(docio._solve_document(
        spec, *solve_value_iteration(spec)), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_curve_svg_writes_its_pinned_bytes():
    """A hand-given curve, so no numpy exp sits between input and bytes; the
    last two critical times are skipped (inf) and clipped (past t_max)."""
    svg = render_curve_svg(np.linspace(0, 5, 11),
                           np.linspace(4, 0, 11) ** 1.5 / 2,
                           (1.25, 3.0, math.inf, 7.0))
    assert svg.count('class="critical-time"') == 3
    assert hashlib.sha256(svg.encode()).hexdigest() == \
        "3491bb99e71d416e92cf9f74def9a4cf0df1a39bfeb806fd1914a0f25f755f8f"


@pytest.mark.parametrize("collecting", [True, False])
def test_load_json_pauses_and_restores_the_collector(tmp_path, monkeypatch,
                                                     collecting):
    good = write_doc(tmp_path, {"kind": "x"})
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    during = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda text, **kw: during.append(
        gc.isenabled()) or loads(text, **kw))
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        assert docio.load_json(good) == {"kind": "x"}
        assert gc.isenabled() is collecting
        with pytest.raises(DocumentError, match="not valid JSON"):
            docio.load_json(str(bad))
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()
    assert during == [False, False]


# number texts json.dumps never writes: an overflow to inf, exponent forms,
# a negative integer zero, an integer past 64 bits
RAW_NUMBERS = ["1e999", "-1e999", "1E+2", "0e0", "-0", "2.5e-310",
               "123456789012345678901234567890"]
number_leaves = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-310,
                     1e308, -1e308, 0.1, 1.0, float("nan"), float("inf")]),
    st.floats(allow_nan=True), st.integers(-(2**70), 2**70),
    st.sampled_from(RAW_NUMBERS).map(lambda text: f"<{text}>"),
    st.booleans(), st.none(), st.text(alphabet="0.1e-a", max_size=4))
json_trees = st.recursive(
    number_leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=6),
                            st.dictionaries(st.text("abc", max_size=3),
                                            inner, max_size=4)),
    max_leaves=40)


def same_tree(a, b) -> bool:
    """Equal values of equal types: repr tells 1 from 1.0 and -0.0 from 0.0,
    and writes every float exactly."""
    return repr(a) == repr(b)


@pytest.mark.parametrize("repeats", [True, False])
@given(tree=json_trees)
def test_load_json_reads_the_tree_json_load_reads(tmp_path_factory, repeats,
                                                  tree):
    text = re.sub(r'"<([^>]*)>"', r"\1", json.dumps({"doc": tree}))
    path = tmp_path_factory.mktemp("load") / "doc.json"
    path.write_text(text)
    with mock.patch.object(docio, "_mostly_repeats", lambda _: repeats):
        assert same_tree(docio.load_json(str(path)), json.loads(text))


def test_load_json_reads_every_document_the_cli_writes(tmp_path):
    model = write_doc(tmp_path, README_MODEL)
    ct = write_doc(tmp_path, {"continuous": _GOOD_CONTINUOUS}, "ct.json")
    spec = banded_spec(random_base_spec(np.random.default_rng(5), n_live=40))
    banded = write_doc(tmp_path, {"model": {
        **docio.model_section(spec),
        "transition": docio.json_data(spec.transition)}}, "banded.json")
    solved = str(tmp_path / "solved.json")
    for argv in (["solve", "--input", model, "--output", solved],
                 ["analyze", "--input", solved, "--output",
                  str(tmp_path / "analysis.json")],
                 ["simulate", "--input", model, "--output",
                  str(tmp_path / "sim.json"), "--trajectories", "100"],
                 ["continuous", "--input", ct, "--output",
                  str(tmp_path / "curve.json"), "--t-max", "40",
                  "--grid-step", "0.5"]):
        assert cli.main(argv) == cli.EXIT_OK
    paths = sorted(tmp_path.glob("*.json"))
    assert len(paths) == 7
    for path in paths:
        with open(path) as fh:
            assert same_tree(docio.load_json(str(path)), json.load(fh)), path
    with open(banded) as fh:
        assert docio._mostly_repeats(fh.read())


def banded_text(n: int) -> str:
    """A dense ``n`` x ``n`` banded matrix of few distinct values, as JSON."""
    rng = np.random.default_rng(n)
    dense = np.zeros((n, n))
    for offset in range(4):
        np.fill_diagonal(dense[:, offset:], rng.integers(1, 50, n) / 200.0)
    return json.dumps({"transition": dense.tolist()})


def test_load_json_shares_each_repeated_number(tmp_path):
    path = tmp_path / "banded.json"
    path.write_text(banded_text(50))
    rows = docio.load_json(str(path))["transition"]
    assert rows[0][-1] is rows[-1][0] == 0.0
    assert len({id(x) for row in rows for x in row}) == \
        len({(x, math.copysign(1, x)) for row in rows for x in row})
    distinct = np.random.default_rng(0).random((40, 40))
    assert docio._mostly_repeats(path.read_text())
    assert not docio._mostly_repeats(json.dumps(distinct.tolist()))
    assert not docio._mostly_repeats('{"kind": "no numbers"}')


def test_load_json_peaks_at_half_the_memory_of_json_load(tmp_path):
    # a dense banded model is almost all repeated numbers: one shared
    # object each, where json.load makes one per element
    path = tmp_path / "banded.json"
    path.write_text(banded_text(600))
    def plain():
        with open(path) as fh:
            return json.load(fh)
    peaks = []
    for load in (plain, lambda: docio.load_json(str(path))):
        tracemalloc.start()
        try:
            tree = load()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(tree["transition"]) == 600
        del tree
    assert peaks[1] <= peaks[0] / 2, peaks


@pytest.mark.parametrize("command, flag, value", [
    ("solve", "--tol", "nan"),
    ("solve", "--tol", "0"),
    ("solve", "--tol", "-1e-8"),
    ("solve", "--tol", "inf"),
    ("analyze", "--tol", "nan"),
    ("simulate", "--tol", "nan"),
    ("continuous", "--t-max", "-5"),
    ("continuous", "--t-max", "nan"),
    ("continuous", "--t-max", "inf"),
    ("continuous", "--grid-step", "0"),
    ("continuous", "--grid-step", "-0.1"),
    ("continuous", "--grid-step", "many"),
    ("simulate", "--max-iters", "0"),
    ("solve", "--max-iters", "-3"),
    ("analyze", "--max-iters", "2.5"),
    ("simulate", "--trajectories", "0"),
    ("simulate", "--trajectories", "1"),
    ("simulate", "--trajectories", str(2**32)),
    ("simulate", "--seed", "-1"),
    ("simulate", "--seed", "seven"),
    ("simulate", "--seed", str(2**128)),
])
def test_cli_bad_numeric_options_exit_usage(tmp_path, capsys, command, flag,
                                            value):
    doc = {"continuous": _GOOD_CONTINUOUS} if command == "continuous" \
        else README_MODEL
    inp = write_doc(tmp_path, doc)
    out = tmp_path / "out.json"
    assert cli.main([command, "--input", inp, "--output", str(out),
                     f"{flag}={value}"]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    expected = {"--max-iters": "an integer >= 1",
                "--trajectories": f"an integer in [2, {2**32})",
                "--seed": f"an integer in [0, {2**128})"}.get(
                    flag, "a finite number > 0")
    assert f"argument {flag}: expected {expected}, got {value!r}" in err
    assert not out.exists()


@pytest.mark.parametrize("tolerance", [float("nan"), 0.0, -1.0])
def test_solve_options_refuse_a_tolerance_that_is_not_positive(tolerance):
    with pytest.raises(ValueError, match="tolerance must be positive"):
        SolveOptions(tolerance=tolerance)


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
                        + flags) == cli.EXIT_USAGE
    assert not out.exists()


def test_cli_simulate_non_finite_estimate_exits_truncated(tmp_path, capsys):
    doc = json.loads(json.dumps(README_MODEL))
    doc["model"]["transplant_reward"][0][0] = 1e308  # the mean overflows
    inp = write_doc(tmp_path, doc)
    out = tmp_path / "sim.json"
    assert cli.main(["simulate", "--input", inp, "--output", str(out),
                     "--trajectories", "1000"]) == cli.EXIT_TRUNCATED
    assert "non-finite estimate" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "analyze", "simulate"])
def test_cli_refuses_a_model_whose_values_overflow(tmp_path, capsys, command):
    doc = json.loads(json.dumps(README_MODEL))
    doc["model"]["wait_reward"] = [1.7e308, 1.7e308, 0.0]
    inp = write_doc(tmp_path, doc)
    out = tmp_path / "out.json"
    # tier-1 turns a RuntimeWarning into an error: none may escape
    assert cli.main([command, "--input", inp, "--output", str(out)]) \
        == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "wait_reward and transplant_reward" in err and "overflows" in err
    assert not list(tmp_path.glob("out*"))


def test_cli_solves_a_model_of_large_finite_values(tmp_path):
    doc = json.loads(json.dumps(README_MODEL))
    doc["model"]["wait_reward"] = [1e300, 1e300, 0.0]
    inp = write_doc(tmp_path, doc)
    out = tmp_path / "solved.json"
    assert cli.main(["solve", "--input", inp, "--output", str(out)]) == 0

    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")
    solved = json.loads(out.read_text(), parse_constant=refuse)
    assert solved["converged"] and max(map(max, solved["values"])) > 1e300


def test_cli_simulates_a_model_of_large_finite_values(tmp_path):
    # rewards near 1e300 square past the float range; their deviations,
    # scaled by a power of two, do not
    doc = json.loads(json.dumps(README_MODEL))
    doc["model"]["wait_reward"] = [1e300, 1e300, 0.0]
    inp = write_doc(tmp_path, doc)
    out = tmp_path / "sim.json"
    assert cli.main(["simulate", "--input", inp, "--output", str(out),
                     "--trajectories", "100"]) == 0

    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")
    sim = json.loads(out.read_text(), parse_constant=refuse)
    assert sim["std_error"] > 0 and sim["ci_low"] <= sim["mean"] <= sim["ci_high"]


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


def test_cli_continuous_step_test_follows_the_offers_unit(tmp_path, capsys):
    # offers up to 1e10 put lambda near 1e10, where an absolute 1e-8 step
    # error cannot be met: the run is only truncated, with no error line
    doc = {"continuous": {
        "offers": {"family": "uniform", "low": 0.0, "high": 1e10},
        "arrivals": {"kind": "poisson", "rate": 1.0},
        "lifetime": {"family": "exponential", "rate": 0.5},
    }}
    inp = write_doc(tmp_path, doc)
    out = tmp_path / "o.json"
    code = cli.main(["continuous", "--input", inp, "--output", str(out),
                     "--t-max", "5", "--grid-step", "0.1"])
    assert (code, capsys.readouterr().err) == (cli.EXIT_TRUNCATED, "")
    assert json.loads(out.read_text())["values"][0] > 1e9


def test_cli_renewal_fixed_point_follows_the_offers_unit(tmp_path, capsys):
    # the renewal twin of the document above: its fixed point settles in the
    # offers' unit, so the run is only truncated, with no error line
    doc = {"continuous": {
        "offers": {"family": "uniform", "low": 0.0, "high": 1e10},
        "arrivals": {"kind": "renewal", "interarrival":
                     {"family": "exponential", "rate": 1.0}},
        "lifetime": {"family": "exponential", "rate": 0.5},
    }}
    inp = write_doc(tmp_path, doc)
    out = tmp_path / "o.json"
    code = cli.main(["continuous", "--input", inp, "--output", str(out),
                     "--t-max", "5", "--grid-step", "0.1"])
    assert (code, capsys.readouterr().err) == (cli.EXIT_TRUNCATED, "")
    assert json.loads(out.read_text())["values"][0] > 1e9


def test_cli_plot_unknown_kind(tmp_path):
    inp = write_doc(tmp_path, {"kind": "mystery"})
    assert cli.main(["plot", "--input", inp,
                     "--output", str(tmp_path / "o.svg")]) == cli.EXIT_USAGE


_CURVE = {"kind": "curve_results", "times": [0.0, 1.0, 2.0],
          "values": [0.6, 0.4, 0.3], "critical_times": [0.5, "inf"]}


@pytest.mark.parametrize("change, field", [
    ({"critical_times": 5}, "critical_times"),
    ({"critical_times": ["soon"]}, "critical_times"),
    ({"critical_times": [True]}, "critical_times"),
    ({"times": [], "values": []}, "times"),
    ({"values": []}, "values"),
    ({"values": [0.6]}, "values"),
    ({"values": [0.6, None, 0.3]}, "values"),
    ({"times": [0.0, 1.0, float("nan")]}, "times"),
    ({"values": [[0.6, 0.4, 0.3]]}, "values"),
    ({"times": "0 1 2"}, "times"),
    ({"values": {"a": 1}}, "values"),
    ({"times": None}, "times"),
], ids=["critical-number", "critical-text", "critical-bool", "empty",
        "values-empty", "lengths-differ", "value-null", "time-nan",
        "values-2d", "times-text", "values-object", "times-null"])
def test_cli_plot_refuses_a_malformed_curve(tmp_path, capsys, change, field):
    inp = write_doc(tmp_path, {**_CURVE, **change})
    out = tmp_path / "curve.svg"
    assert cli.main(["plot", "--input", inp, "--output", str(out)]) \
        == cli.EXIT_VALIDATION
    assert f"$.{field}: " in capsys.readouterr().err
    assert not out.exists()


def test_cli_plot_draws_a_wellformed_curve(tmp_path):
    inp = write_doc(tmp_path, _CURVE)
    out = tmp_path / "curve.svg"
    assert cli.main(["plot", "--input", inp, "--output", str(out)]) == 0
    assert open(out).read() == render_curve_svg([0.0, 1.0, 2.0],
                                                [0.6, 0.4, 0.3], [0.5])


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


def test_cli_continuous_renewal_that_does_not_settle_exits_truncated(
        tmp_path, capsys):
    inp = write_doc(tmp_path, {"continuous": {
        "offers": {"family": "uniform", "low": 0.0, "high": 1.0},
        "arrivals": {"kind": "renewal", "interarrival":
                     {"family": "deterministic", "gap": 1e-4}},
        "lifetime": {"family": "exponential", "rate": 0.5}}})
    out = tmp_path / "curve.json"
    assert cli.main(["continuous", "--input", inp, "--output", str(out),
                     "--t-max", "1", "--grid-step", "0.1"]) \
        == cli.EXIT_TRUNCATED
    assert "renewal fixed point at t = 0.9 " in capsys.readouterr().err
    assert not out.exists()


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


_BASE_MODULES = {"organstop", "organstop.cli", "organstop.docio",
                 "organstop.model"}


def test_each_cli_command_loads_only_its_modules(tmp_path):
    # one fresh interpreter per command, as a user runs them
    model = write_doc(tmp_path, README_MODEL)
    ct = write_doc(tmp_path, {"continuous": _GOOD_CONTINUOUS}, "ct.json")
    paths = {name: str(tmp_path / name) for name in
             ("solved.json", "analysis.json", "curve.json")}
    runs = [
        (["solve", "--input", model, "--output", paths["solved.json"]],
         {"solver"}),
        (["analyze", "--input", paths["solved.json"], "--output",
          paths["analysis.json"]], {"structure"}),
        (["analyze", "--input", model, "--output", str(tmp_path / "a.json")],
         {"structure", "solver"}),
        (["simulate", "--input", model, "--output", str(tmp_path / "s.json"),
          "--trajectories", "100"], {"solver", "simulate"}),
        (["continuous", "--input", ct, "--output", paths["curve.json"],
          "--t-max", "40", "--grid-step", "0.5"], {"ctime"}),
        (["continuous", "--input", ct, "--output", str(tmp_path / "c.json"),
          "--t-max", "40", "--grid-step", "0.5", "--format", "csv"],
         {"ctime"}),
        # a region grid is drawn from structure's run table
        (["plot", "--input", paths["analysis.json"], "--output",
          str(tmp_path / "regions.svg")], {"svgplot", "structure"}),
        (["plot", "--input", paths["curve.json"], "--output",
          str(tmp_path / "curve.svg")], {"svgplot"}),
    ]
    code = ("import json, sys\n"
            "mods = lambda: sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'organstop')\n"
            "before = mods()\n"
            "from organstop import cli\n"
            "after = mods()\n"
            "print(json.dumps([before, after, cli.main(sys.argv[1:]), mods(),\n"
            "                  'numpy.ma' in sys.modules, 'csv' in sys.modules]))")
    src = os.path.dirname(os.path.dirname(organstop.__file__))
    for argv, own in runs:
        run = subprocess.run(
            [sys.executable, "-c", code, *argv], capture_output=True,
            text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src))
        assert run.returncode == 0, run.stderr
        before, after, exit_code, loaded, masked, csv = json.loads(run.stdout)
        assert (before, exit_code, masked, csv) == ([], cli.EXIT_OK, False,
                                                    False), argv
        assert set(after) == _BASE_MODULES
        assert set(loaded) == _BASE_MODULES | {f"organstop.{m}" for m in own}, \
            argv
    bare = subprocess.run(
        [sys.executable, "-c", "import sys, organstop; print(sorted("
         "m for m in sys.modules if m.split('.')[0] == 'organstop'))"],
        capture_output=True, text=True, check=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src))
    assert bare.stdout.split() == ["['organstop']"]


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
    ("discount", 0.9, "continuous.discount: expected dict, got float"),
    ("discount", True, "continuous.discount: expected dict, got bool"),
    ("discount", [1], "continuous.discount: expected dict, got list"),
    ("discount", "exponential", "continuous.discount: expected dict, got str"),
    ("survival_alphas", [1],
     "continuous: survival_alphas unused: these arrivals never read it"),
    ("arrivals", {"kind": "fixed", "times": [1.0, 2.0]},
     "continuous: lifetime unused: these arrivals never read it"),
], ids=["poisson-negative", "poisson-inf", "poisson-nan", "lifetime-zero",
        "lifetime-negative", "lifetime-nan", "erlang-fractional-shape",
        "erlang-zero-shape", "erlang-nan-shape", "lifetime-null",
        "interarrival-zero", "interarrival-inf", "gap-nan", "offer-values-nan",
        "offer-probs-nan", "instants-nan", "discount-number", "discount-bool",
        "discount-list", "discount-string", "alphas-without-instants",
        "lifetime-with-instants"])
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


@pytest.mark.parametrize("key, value, code, message", [
    ("arrivals", {"kind": "poisson", "rate": 1e308}, cli.EXIT_TRUNCATED,
     "arrival rate 1e+308 at t=5 exceeds 1e6"),
    ("offers", {"family": "uniform", "low": 0.0, "high": 1e308},
     cli.EXIT_VALIDATION, "uniform offer width 1e+308 has no finite square"),
    ("lifetime", {"family": "exponential", "rate": 1e308},
     cli.EXIT_VALIDATION, "lifetime rate 1e+308 overflows"),
], ids=["poisson-rate", "uniform-high", "lifetime-rate"])
def test_cli_continuous_names_a_huge_magnitude(tmp_path, capsys, key, value,
                                               code, message):
    """Magnitudes near the float range stop with the field at fault named,
    and no RuntimeWarning escapes (the suite turns those into errors)."""
    inp = write_doc(tmp_path, {"continuous": {**_GOOD_CONTINUOUS, key: value}})
    out = tmp_path / "curve.json"
    assert cli.main(["continuous", "--input", inp, "--output", str(out),
                     "--t-max", "5", "--grid-step", "0.1"]) == code
    assert message in capsys.readouterr().err
    assert not out.exists()

"""The document and region-CSV writers write exactly the bytes of the
per-element reference writers in ``reference_writers``, ``dump_document``
writes JSON data exactly as ``json.dump(indent=2)``, and the region SVG
decodes back into the grid it draws."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from organstop import docio, simulate, solve_value_iteration
from organstop.structure import Region
from organstop.svgplot import (ACTION_COLORS, ACTION_LABELS, CELL, MARGIN,
                               render_region_svg)

import reference_writers as ref
from helpers import random_analog_spec, random_base_spec
from reference_structure import action_runs

# values the writer must not merge, reorder or reformat
SPECIAL_FLOATS = [0.0, -0.0, float("nan"), float("inf"), float("-inf"),
                  5e-324, 2.2250738585072014e-308, 1e-310, 1e16, -1e16,
                  123456789012.0, 1234567890123.0, 1e-5, 1 / 3, 2 / 3,
                  0.1, 1.0, 1e12]
SPECIAL_INTS = [0, -1, 2**53, 2**53 + 1, -(2**53) - 1, 2**63 - 1, -(2**63)]

shapes = array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)
float_arrays = arrays(np.float64, shapes, elements=st.one_of(
    st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=True)))
small_float_arrays = arrays(np.float64, shapes, elements=st.sampled_from(
    SPECIAL_FLOATS[:6]))
float32_arrays = arrays(np.float32, shapes, elements=st.floats(width=32))
int_arrays = arrays(np.int64, shapes, elements=st.one_of(
    st.sampled_from(SPECIAL_INTS), st.integers(-(2**63), 2**63 - 1)))
uint_arrays = arrays(np.uint64, shapes, elements=st.integers(0, 2**64 - 1))
bool_arrays = arrays(np.bool_, shapes)
ndarrays = st.one_of(float_arrays, small_float_arrays, float32_arrays,
                     int_arrays, uint_arrays, bool_arrays,
                     st.just(np.zeros((0, 2), dtype=np.int64)))
scalars = st.one_of(
    st.none(), st.booleans(), st.text(max_size=5),
    st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=True),
    st.integers(-(2**70), 2**70), st.sampled_from(SPECIAL_INTS),
    st.builds(np.float64, st.floats(allow_nan=True)),
    st.builds(np.int64, st.integers(-(2**63), 2**63 - 1)),
    st.builds(np.bool_, st.booleans()))
documents = st.recursive(
    st.one_of(scalars, ndarrays),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=12)


# JSON data as the builders produce it: nests of lists (rows of scalars,
# ragged and empty rows among them), tuples and dicts; the strings hold the
# characters the writer's row joining looks for
json_scalars = st.one_of(
    st.none(), st.booleans(), st.sampled_from(SPECIAL_FLOATS),
    st.floats(allow_nan=True), st.sampled_from(SPECIAL_INTS),
    st.integers(-(2**70), 2**70),
    st.text(alphabet="[],\n \"\\a\0", max_size=6))
json_data = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=20)
json_rows = st.lists(st.lists(json_scalars, max_size=4).map(
    lambda row: row if len(row) % 2 else tuple(row)), min_size=1, max_size=5)


def written(tmp_path, data) -> str:
    path = tmp_path / "doc.json"
    docio.dump_document(data, str(path))
    return path.read_bytes().decode()


@given(data=st.one_of(json_data, json_rows))
def test_dump_document_is_json_dump(tmp_path_factory, data):
    tmp = tmp_path_factory.mktemp("data")
    for doc in (data, {"doc": data, "more": [data, 1]}):
        assert written(tmp, doc) == json.dumps(doc, indent=2) + "\n"


@given(doc=documents)
def test_json_data_matches_reference(tmp_path_factory, doc):
    tmp = tmp_path_factory.mktemp("doc")
    assert written(tmp, docio.json_data({"doc": doc})) == \
        ref.document_text({"doc": doc})
    assert written(tmp, docio.json_data(doc)) == ref.document_text(doc)


@given(arr=ndarrays)
def test_json_data_arrays_match_reference(tmp_path_factory, arr):
    tmp = tmp_path_factory.mktemp("arr")
    doc = {"a": arr, "nested": [{"cells": arr}, (arr, 1.5)]}
    assert written(tmp, docio.json_data(doc)) == ref.document_text(doc)


# documents as the CLI writes them: ndarray leaves, large enough to take
# both the per-element and the distinct-value path, among scalars that are
# JSON data already (floats rounded), and the sparse transition echo
RENDER_FLOATS = SPECIAL_FLOATS + [1e300, -1e300, 1e-300, -1e-300, 4e-320,
                                  -5e-324]
render_shapes = array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=9)
render_arrays = st.one_of(
    arrays(np.float64, render_shapes, elements=st.one_of(
        st.sampled_from(RENDER_FLOATS), st.floats(allow_nan=True))),
    arrays(np.float64, render_shapes,
           elements=st.sampled_from(RENDER_FLOATS[:6])),
    arrays(np.int64, render_shapes, elements=st.one_of(
        st.sampled_from([0, -1, 2**62, -(2**62)]),
        st.integers(-(2**62), 2**62))),
    arrays(np.bool_, render_shapes))


def sparse_echo(a):
    index = np.flatnonzero(a)
    return {"shape": list(a.shape), "index": index, "data": a.ravel()[index]}


echoes = arrays(np.float64, array_shapes(min_dims=2, max_dims=3, max_side=9),
                elements=st.sampled_from([0.0, 0.0, 0.0, 0.25, 1 / 3, -0.5])
                ).map(sparse_echo)
array_documents = st.recursive(
    st.one_of(st.none(), st.booleans(), st.text(max_size=4),
              st.integers(-(2**70), 2**70),
              st.floats(allow_nan=True).map(ref.round_sig),
              render_arrays, echoes),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=8)


@given(doc=array_documents)
def test_dump_document_writes_arrays_as_the_reference(tmp_path_factory, doc):
    tmp = tmp_path_factory.mktemp("arrays")
    for nested in (doc, {"doc": doc, "more": [doc, (doc, 1)]}):
        assert written(tmp, nested) == ref.document_text(nested)


def test_all_distinct_values_match_reference(tmp_path):
    rng = np.random.default_rng(0)
    doc = {"values": rng.standard_normal((30, 40)) * 10.0 ** rng.integers(
        -30, 30, size=(30, 40)), "ints": rng.integers(-2**62, 2**62, 500)}
    assert written(tmp_path, docio.json_data(doc)) == ref.document_text(doc)


BLOCKED_ARRAYS = {
    "1d": np.arange(11) % 4 * 0.25,
    "2d": np.round(np.random.default_rng(1).standard_normal((7, 3)), 1),
    "3d": np.arange(24).reshape(4, 3, 2) % 5 - 2,
    "bools": np.arange(10).reshape(5, 2) % 3 == 0,
    "rows_fill_blocks": np.full((6, 4), -0.0),
    "empty_middle": np.zeros((5, 0, 2)),
    "empty_first": np.zeros((0, 3)),
    "scalar": np.array(1.5),
}


@pytest.mark.parametrize("block", [1, 5, 8, 1 << 16])
def test_dump_document_in_blocks_is_json_dump(tmp_path, monkeypatch, block):
    # block 8 takes two rows of "rows_fill_blocks" a time, so its last block
    # ends on the last row; block 1 still takes whole rows
    monkeypatch.setattr(docio, "_BLOCK", block)
    doc = {**BLOCKED_ARRAYS, "nested": [BLOCKED_ARRAYS["3d"], {"a": 1}],
           "rows": [[0.5, 1], [2, 0.5], [0.5, 3]]}
    assert written(tmp_path, doc) == \
        json.dumps(docio.json_data(doc), indent=2) + "\n"
    regions = [Region(1, np.arange(22).reshape(11, 2)),
               Region(2, np.empty((0, 2), np.int64)),
               Region(3, np.arange(16).reshape(8, 2) % 7)]
    docio.write_region_csv(str(tmp_path / "regions.csv"), regions)
    assert (tmp_path / "regions.csv").read_bytes().decode() == \
        ref.region_csv_text(regions)


def test_dump_document_writes_arrays_larger_than_a_block(tmp_path):
    rng = np.random.default_rng(2)
    doc = {"rows": np.round(rng.random((301, 300)), 2),   # rows end a block
           "flat": rng.integers(-5, 5, 3 * docio._BLOCK + 7)}
    assert written(tmp_path, doc) == \
        json.dumps(docio.json_data(doc), indent=2) + "\n"


def test_result_documents_are_json_data(tmp_path):
    spec = random_analog_spec(np.random.default_rng(3))
    vf, policy = solve_value_iteration(spec)
    doc = docio.solve_results_document(spec, vf, policy)
    text = written(tmp_path, doc)
    assert text == ref.document_text(doc)
    assert json.loads(text) == json.loads(json.dumps(doc))
    assert json.loads(text)["values"] == json.loads(
        ref.document_text(vf.values))

    spec = random_base_spec(np.random.default_rng(4))
    vf, policy = solve_value_iteration(spec)
    est = simulate.estimate_policy_value(spec, policy, 100, 5)
    doc = docio.simulate_results_document(est)
    doc["solver_value"] = docio.json_data(float(vf.marginal[0]))
    assert written(tmp_path, doc) == ref.document_text(doc)
    json.dumps(doc)


# --- region CSV and SVG -------------------------------------------------------

cells = arrays(np.int64, st.tuples(st.integers(0, 6), st.just(2)),
               elements=st.integers(0, 300))
regions = st.lists(st.builds(Region, st.integers(0, 5), cells), max_size=5)


@given(regions=regions)
def test_region_csv_matches_reference(tmp_path_factory, regions):
    path = tmp_path_factory.mktemp("csv") / "regions.csv"
    docio.write_region_csv(str(path), regions)
    assert path.read_bytes().decode() == ref.region_csv_text(regions)


# every code without a colour of its own is drawn black; the decoder reads
# black back as this code
UNCOLOURED = -1
_GRID_RECT = re.compile(r'<rect x="(\d+)" y="(\d+)" width="(\d+)" '
                        rf'height="{CELL}" fill="(#[0-9a-f]{{6}})"')
_GRID_LABEL = re.compile(r'<text x="(\d+)" y="(\d+)" text-anchor="middle" '
                         r'font-size="12" fill="white">([^<]*)</text>')


def decode_region_svg(svg: str, shape) -> tuple[np.ndarray, int]:
    """The action grid the grid-area rects of ``svg`` draw, read by their
    position, width and colour, and the number of rects; every cell must
    be drawn exactly once, and each rect centre its action's label."""
    action_of = {colour: a for a, colour in ACTION_COLORS.items()}
    grid = np.full(shape, -2, dtype=np.int64)
    rects = [tuple(int(v) for v in m.groups()[:3]) + (m.group(4),)
             for m in _GRID_RECT.finditer(svg)]
    labels = []
    for x, y, width, colour in rects:
        assert (x - MARGIN) % CELL == 0 and (y - MARGIN) % CELL == 0
        assert width % CELL == 0 and width > 0
        i, j = (y - MARGIN) // CELL, (x - MARGIN) // CELL
        cells = grid[i, j:j + width // CELL]
        assert cells.size == width // CELL and (cells == -2).all()
        action = action_of.get(colour, UNCOLOURED)
        cells[:] = action
        labels.append((x + width // 2, y + CELL // 2 + 5,
                       ACTION_LABELS.get(action, "?")))
    assert (grid != -2).all()
    drawn = [(int(x), int(y), label)
             for x, y, label in _GRID_LABEL.findall(svg)]
    assert drawn == labels
    return grid, len(rects)


@given(grid=arrays(np.int64, array_shapes(min_dims=2, max_dims=2, min_side=0,
                                          max_side=6),
                   elements=st.integers(-1, 7)))
def test_region_svg_decodes_to_the_grid(grid):
    svg = render_region_svg(grid)
    decoded, n_rects = decode_region_svg(svg, grid.shape)
    coloured = np.where(np.isin(grid, list(ACTION_COLORS)), grid, UNCOLOURED)
    assert np.array_equal(decoded, coloured)
    assert n_rects == sum(len(action_runs(row)) for row in grid)
    for a in np.unique(grid).tolist():
        assert f">{ACTION_LABELS.get(a, '?')}<" in svg
    if grid.shape[0]:
        assert render_region_svg(grid.tolist()) == svg

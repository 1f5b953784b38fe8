"""Dataset format, preprocessing, mixing, hyperbolicity, and generators."""

import dataclasses
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hamgnn import graphdata as gd
from hamgnn.graphdata import GraphDataset
from oracles import loop_delta_hyperbolicity


def write_dataset(path, nodes_text, edges_text, splits_text):
    path.mkdir(parents=True, exist_ok=True)
    (path / "nodes.csv").write_text(nodes_text)
    (path / "edges.tsv").write_text(edges_text)
    (path / "splits.json").write_text(splits_text)
    return path


PATH3_NODES = ("id,label,f0,f1\n"
               "0,0,1.0,0.0\n"
               "1,1,0.5,0.5\n"
               "2,0,0.0,2.0\n")
PATH3_SPLITS = '{"train": [0], "val": [1], "test": [2]}'


# ---------------------------------------------------------------------------
# loading


def test_load_path_fixture(tmp_path):
    ds = gd.load_dataset(write_dataset(tmp_path / "p3", PATH3_NODES,
                                       "0\t1\n1\t2\n", PATH3_SPLITS))
    assert ds.n == 3
    assert len(ds.edges) == 2
    assert ds.num_features == 2
    assert ds.labels.tolist() == [0, 1, 0]
    assert ds.train_mask.tolist() == [0]


def test_load_rejects_self_loop(tmp_path):
    p = write_dataset(tmp_path / "x", PATH3_NODES, "0\t1\n2\t2\n", PATH3_SPLITS)
    with pytest.raises(ValueError, match="self-loop at line 2"):
        gd.load_dataset(p)


def test_load_rejects_reversed_duplicate(tmp_path):
    p = write_dataset(tmp_path / "x", PATH3_NODES, "0\t1\n1\t0\n", PATH3_SPLITS)
    with pytest.raises(ValueError, match="duplicate edge at line 2"):
        gd.load_dataset(p)


def test_load_rejects_unknown_node(tmp_path):
    p = write_dataset(tmp_path / "x", PATH3_NODES, "0\t5\n", PATH3_SPLITS)
    with pytest.raises(ValueError, match="unknown node id 5 at line 1"):
        gd.load_dataset(p)


@pytest.mark.parametrize("edges, message", [
    ("0\t1\n2\t2\n1\t0\n", "self-loop at line 2"),
    ("0\t1\n1\t0\n5\t5\n", "duplicate edge at line 2"),
    ("7\t7\n", "self-loop at line 1"),
    ("0\t9\n0\t9\n", "unknown node id 9 at line 1"),
    ("\n2\t-1\n", "unknown node id -1 at line 2"),
    ("0\t99999999999999999999\n", "unknown node id 99999999999999999999 at line 1"),
    ("0\t1\n0\t1\nx\t2\n", "duplicate edge at line 2"),
    ("0\t1\nx\t2\n0\t1\n", r"node id must be an integer; got 'x' at edges\.tsv line 2"),
    ("0\t1\n1\t2\t0\n1\t1\n", "edge line 2 must hold two tab-separated ids"),
], ids=["loop-before-repeat", "repeat-before-loop", "loop-before-unknown", "unknown-first",
        "negative", "past-int64", "repeat-before-bad-id", "bad-id-before-repeat",
        "bad-layout-before-loop"])
def test_load_reports_the_first_bad_edge_line(tmp_path, edges, message):
    p = write_dataset(tmp_path / "x", PATH3_NODES, edges, PATH3_SPLITS)
    with pytest.raises(ValueError, match=f"^{message}$"):
        gd.load_dataset(p)


@pytest.mark.parametrize("edges, message", [
    ([(0, 1), (2, 2), (1, 0)], "self-loop at node 2"),
    ([(0, 1), (1, 0), (5, 5)], r"duplicate edge \(1, 0\)"),
    ([(7, 7)], "self-loop at node 7"),
    ([(1, 7), (1, 7)], r"edge \(1, 7\) references an unknown node"),
    ([(0, 2**70)], rf"edge \(0, {2**70}\) references an unknown node"),
    (np.array([[2, 1], [1, 2]]), r"duplicate edge \(1, 2\)"),
])
def test_dataset_reports_the_first_bad_edge_by_node(edges, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        GraphDataset("x", np.eye(3), [0, 0, 0], edges, [], [], [])


def test_dataset_stores_each_edge_once_as_sorted_pairs():
    ds = GraphDataset("x", np.eye(4), [0] * 4, np.array([[3, 1], [0, 2], [1, 0]]),
                      [], [], [])
    assert ds.edges == [(0, 1), (0, 2), (1, 3)]
    assert all(type(u) is int and type(v) is int for u, v in ds.edges)


def test_load_rejects_ragged_rows(tmp_path):
    nodes = "id,label,f0,f1\n0,0,1.0,0.0\n1,1,0.5\n2,0,0.0,2.0\n"
    p = write_dataset(tmp_path / "x", nodes, "", PATH3_SPLITS)
    with pytest.raises(ValueError, match="ragged feature row at line 3"):
        gd.load_dataset(p)


@pytest.mark.parametrize("widths, line, count", [
    ({70: 3}, 72, 3), ({70: 1}, 72, 1), ({70: 0}, 72, 0),
    ({70: 3, 71: 1}, 72, 3), ({140: 1, 150: 3}, 142, 1)],
    ids=["long", "short", "no-cell", "long-then-short", "third-block"])
def test_load_reports_a_ragged_row_past_the_first_block_by_its_line(
        tmp_path, widths, line, count):
    # 160 rows of two features: the scan reads 64 rows at a time, and a long
    # row next to a short one leaves their block's comma total right
    cells = ["0.0", "0.5", "1.0"]
    rows = [",".join([str(i), "0", *cells[:widths.get(i, 2)]]) for i in range(160)]
    p = write_dataset(tmp_path / "x", "id,label,f0,f1\n" + "\n".join(rows) + "\n",
                      "", PATH3_SPLITS)
    with pytest.raises(ValueError, match=f"^ragged feature row at line {line}: "
                                         f"{count} features, expected 2$"):
        gd.load_dataset(p)


def test_load_rejects_a_feature_cell_when_the_header_has_none(tmp_path):
    p = write_dataset(tmp_path / "x", "id,label\n0,0\n1,1,0.5\n", "", PATH3_SPLITS)
    with pytest.raises(ValueError, match="^ragged feature row at line 3: 1 features, "
                                         "expected 0$"):
        gd.load_dataset(p)


def test_load_rejects_out_of_order_ids(tmp_path):
    nodes = "id,label,f0,f1\n0,0,1.0,0.0\n0,1,0.5,0.5\n2,0,0.0,2.0\n"
    p = write_dataset(tmp_path / "x", nodes, "", PATH3_SPLITS)
    with pytest.raises(ValueError, match="0..n-1 in order"):
        gd.load_dataset(p)


@pytest.mark.parametrize("edges, splits, message", [
    ("x\t2\n", PATH3_SPLITS, r"node id must be an integer; got 'x' at edges\.tsv line 1"),
    ("0\t1\n1\t2.0\n", PATH3_SPLITS,
     r"node id must be an integer; got '2\.0' at edges\.tsv line 2"),
    ("0\t1\n", "[]", r"splits\.json must be a JSON object, got \[\]"),
    ("0\t1\n", "3", r"splits\.json must be a JSON object, got 3"),
    ("0\t1\n", '{"train": [0],',
     r"splits\.json is not valid JSON: .*: line 1 column 15 \(char 14\)"),
], ids=["edge-id-x", "edge-id-float", "splits-array", "splits-number", "splits-invalid"])
def test_load_names_the_file_and_line_or_key_of_a_malformed_input(
        tmp_path, edges, splits, message):
    p = write_dataset(tmp_path / "x", PATH3_NODES, edges, splits)
    with pytest.raises(ValueError, match=f"^{message}$"):
        gd.load_dataset(p)


def test_load_missing_file(tmp_path):
    (tmp_path / "empty").mkdir()
    with pytest.raises(FileNotFoundError, match="nodes.csv"):
        gd.load_dataset(tmp_path / "empty")


def test_features_l1_normalized_on_load(tmp_path):
    nodes = "id,label,f0,f1,f2\n0,0,2.0,2.0,0.0\n1,0,0.0,0.0,0.0\n"
    ds = gd.load_dataset(write_dataset(tmp_path / "x", nodes, "",
                                       '{"train": [], "val": [], "test": []}'))
    assert ds.features[0].tolist() == [0.5, 0.5, 0.0]
    assert ds.features[1].tolist() == [0.0, 0.0, 0.0]


def reference_features(nodes_text):
    """Per-cell ``float()`` parse plus row-by-row L1 normalization: the
    loader's output must match it bit for bit on every cell both accept."""
    rows = nodes_text.splitlines()
    n_features = len(rows[0].split(",")) - 2
    parsed = [[float(c) for c in row.split(",")[2:]]
              for row in rows[1:] if row.strip()]
    out = np.asarray(parsed, dtype=np.float64).reshape(len(parsed), n_features)
    for i, s in enumerate(np.abs(out).sum(axis=1)):
        if s == 0.0 or abs(s - 1.0) <= 1e-12:
            continue
        out[i] /= s
    return out


AWKWARD_NODES = ("id,label,f0,f1,f2\n"
                 "0,0,1e-3,2E+1,-0.0\n"
                 "1,1, 1.5 ,\t-2 , +3\n"
                 "\n"
                 "   \n"
                 "2,0,0.10000000000000001,0.33333333333333331,1.2345678901234567e-05\n"
                 "\t\n"
                 "3,1,0.0,-0.0,0\n"
                 "4,0,0.1,0.2,0.7\n"
                 "5,1,0.25,0.25,0.5000000000004\n"
                 "6,0,0.25,0.25,0.500000000002\n"
                 "7,1,1.,.5,-2.5e-1\n"
                 "8,0,4.9e-324,2.2250738585072014e-308,1.7976931348623157e+308\n")


def test_load_matches_per_cell_reference(tmp_path):
    ds = gd.load_dataset(write_dataset(tmp_path / "x", AWKWARD_NODES, "",
                                       '{"train": [], "val": [], "test": []}'))
    expected = reference_features(AWKWARD_NODES)
    assert ds.labels.tolist() == [0, 1, 0, 1, 0, 1, 0, 1, 0]
    assert np.array_equal(ds.features, expected)
    assert ds.features.tobytes() == expected.tobytes()  # signed zeros too
    assert ds.features[3].tolist() == [0.0, 0.0, 0.0]
    # within 1e-12 of unit L1 norm: left as written
    assert ds.features[5].tolist() == [0.25, 0.25, 0.5000000000004]
    assert ds.features[6].tolist() != [0.25, 0.25, 0.500000000002]


def test_load_matches_reference_on_random_cells(tmp_path):
    rng = np.random.default_rng(11)
    values = rng.standard_normal((30, 12)) * 10.0 ** rng.integers(-8, 9, (30, 12))
    values[rng.random((30, 12)) < 0.4] = 0.0
    styles = ("{!r}", "{:.17g}", "{:e}", "{:.3f}", "{:+.6E}", " {} ")
    lines = ["id,label," + ",".join(f"f{j}" for j in range(12))]
    for i, row in enumerate(values):
        lines.append(f"{i},{i % 3}," + ",".join(
            styles[(i + j) % len(styles)].format(float(v)) for j, v in enumerate(row)))
    text = "\n".join(lines) + "\n"
    ds = gd.load_dataset(write_dataset(tmp_path / "x", text, "",
                                       '{"train": [], "val": [], "test": []}'))
    assert ds.features.tobytes() == reference_features(text).tobytes()


def test_row_normalisation_builds_no_table_sized_temporary():
    # a Cora-shaped table: 2708 x 1433, about 1.3% of the cells non-zero
    rng = np.random.default_rng(0)
    table = (rng.random((2708, 1433)) < 0.013).astype(np.float64)
    table[::7] *= -1.0
    expected = table / np.abs(table).sum(axis=1, keepdims=True)
    tracemalloc.start()
    try:
        got = gd._l1_normalize_rows(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got is table and got.tobytes() == expected.tobytes()
    assert peak < table.nbytes / 4


# the cells that read as zero but are not the literal 0.0 the loader skips,
# and the smallest subnormal
ZERO_SPELLINGS = ["-0.0", "0", "00", "0.", ".0", "0.00", "+0.0", " 0.0", "0.0 ", "0e0",
                  "4.9e-324"]


def _zero_table(n_rows, n_cols, placed):
    """nodes.csv text whose cells are all 0.0 but those in ``placed``, a
    dict from (row, column) to the cell text; a blank line follows row 2."""
    lines = ["id,label," + ",".join(f"f{j}" for j in range(n_cols))]
    for i in range(n_rows):
        lines.append(f"{i},{i % 2}," + ",".join(placed.get((i, j), "0.0")
                                                 for j in range(n_cols)))
        if i == 2:
            lines.append("")
    return "\n".join(lines) + "\n"


def _lineno(row):
    """The nodes.csv line of a ``_zero_table`` row."""
    return row + 2 + (row > 2)


def _block_edge_cells(n_rows, n_cols):
    """The first and last cells of the first, last and block-boundary rows."""
    block = gd._FEATURE_BLOCK_ROWS
    rows = [0, block - 1, block, 2 * block - 1, 2 * block, n_rows - 1]
    return [(i, j) for i in rows for j in (0, n_cols - 1)]


def test_load_matches_reference_on_zero_spellings_around_blocks(tmp_path):
    n_rows, n_cols = 2 * gd._FEATURE_BLOCK_ROWS + 5, 7
    places = _block_edge_cells(n_rows, n_cols)
    placed = {where: ZERO_SPELLINGS[k % len(ZERO_SPELLINGS)] for k, where in enumerate(places)}
    placed.update({(k, 3): cell for k, cell in enumerate(ZERO_SPELLINGS, start=20)})
    placed[(30, 2)] = "0.5"
    text = _zero_table(n_rows, n_cols, placed)
    ds = gd.load_dataset(write_dataset(tmp_path / "x", text, "",
                                       '{"train": [], "val": [], "test": []}'))
    expected = reference_features(text)
    assert ds.features.tobytes() == expected.tobytes()
    assert np.signbit(ds.features).sum() == sum(
        cell == "-0.0" for cell in placed.values())


def test_load_hands_the_float_reader_only_cells_other_than_0_0(tmp_path, monkeypatch):
    n_rows, n_cols = 2 * gd._FEATURE_BLOCK_ROWS + 5, 9
    rng = np.random.default_rng(4)
    placed = {(i, j): "1.0" for i, j in zip(rng.integers(0, n_rows, 60),
                                           rng.integers(0, n_cols, 60))}
    placed.update({where: ZERO_SPELLINGS[k % len(ZERO_SPELLINGS)]
                   for k, where in enumerate(_block_edge_cells(n_rows, n_cols))})
    text = _zero_table(n_rows, n_cols, placed)
    read = []
    loadtxt = np.loadtxt

    def spy(lines, *args, **kwargs):
        read.extend(cell for line in lines for cell in line.split(","))
        return loadtxt(lines, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    ds = gd.load_dataset(write_dataset(tmp_path / "x", text, "",
                                       '{"train": [], "val": [], "test": []}'))
    assert read == [placed[where] for where in sorted(placed)]
    assert ds.features.tobytes() == reference_features(text).tobytes()


@pytest.mark.parametrize("cell", ["0..0", "0.0.0", "", "  ", "1_0", "nan"])
@pytest.mark.parametrize("where", ["first", "last", "alone-in-block"])
def test_load_names_a_bad_cell_after_many_0_0_cells(tmp_path, cell, where):
    block = gd._FEATURE_BLOCK_ROWS
    n_rows, n_cols = 2 * block + 5, 6
    # the last row of the first block, or the last cell of the table; alone,
    # it is the one cell of the second block that is not 0.0
    row, col = {"first": (block - 1, 0), "last": (n_rows - 1, n_cols - 1),
                "alone-in-block": (block + 3, 2)}[where]
    placed = {} if where == "alone-in-block" else {
        (i, (3 * i) % n_cols): "0.25" for i in range(0, n_rows, 7)}
    placed[(row, col)] = cell
    text = _zero_table(n_rows, n_cols, placed)
    p = write_dataset(tmp_path / "x", text, "", '{"train": [], "val": [], "test": []}')
    kind = "non-finite" if cell == "nan" else "unparsable"
    with pytest.raises(ValueError, match=rf"^{kind} feature f{col} = .* at nodes\.csv"
                                         rf" line {_lineno(row)}$"):
        gd.load_dataset(p)


@pytest.mark.parametrize("cell", ["abc", "", "0x10", "1_0", "1#2", "1 2", "0..0", "0.0.0",
                                  "  "])
def test_load_rejects_bad_cell_by_line(tmp_path, cell):
    nodes = f"id,label,f0,f1\n0,0,1.0,0.0\n\n1,1,0.5,{cell}\n2,0,0.0,2.0\n"
    p = write_dataset(tmp_path / "x", nodes, "", PATH3_SPLITS)
    with pytest.raises(ValueError, match="unparsable feature f1 .* nodes.csv line 4"):
        gd.load_dataset(p)


@pytest.mark.parametrize("cell", ["", "  "])
def test_load_rejects_blank_single_feature_cell(tmp_path, cell):
    nodes = f"id,label,f0\n0,0,1.0\n1,1,{cell}\n"
    p = write_dataset(tmp_path / "x", nodes, "", '{"train": [0], "val": [1]}')
    with pytest.raises(ValueError, match="unparsable feature f0 .* nodes.csv line 3"):
        gd.load_dataset(p)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "-Infinity"])
def test_load_rejects_non_finite_feature_by_line(tmp_path, cell):
    nodes = f"id,label,f0,f1\n0,0,1.0,0.0\n1,1,{cell},0.5\n"
    p = write_dataset(tmp_path / "x", nodes, "", '{"train": [0], "val": [1]}')
    with pytest.raises(ValueError, match="non-finite feature f0 .* nodes.csv line 3"):
        gd.load_dataset(p)


@pytest.mark.parametrize("node_id", ["1.0", "x"])
def test_load_rejects_non_integer_id(tmp_path, node_id):
    nodes = f"id,label,f0,f1\n0,0,1.0,0.0\n{node_id},1,0.5,0.5\n"
    p = write_dataset(tmp_path / "x", nodes, "", PATH3_SPLITS)
    with pytest.raises(ValueError, match="node id must be an integer.* line 3"):
        gd.load_dataset(p)


@pytest.mark.parametrize("cell", ["1_0", "٣"], ids=["underscore", "arabic-indic"])
@pytest.mark.parametrize("where", ["id", "label", "edge"])
def test_load_rejects_integer_cells_other_than_ascii_digits(tmp_path, where, cell):
    # int() alone reads these as 10 and 3
    nodes, edges = PATH3_NODES, "0\t1\n"
    if where == "id":
        nodes = nodes.replace("\n1,1,", f"\n{cell},1,")
        message = f"node id must be an integer; got {cell!r} at nodes.csv line 3"
    elif where == "label":
        nodes = nodes.replace("\n1,1,", f"\n1,{cell},")
        message = f"label must be an integer; got {cell!r} at nodes.csv line 3"
    else:
        edges += f"1\t{cell}\n"
        message = f"node id must be an integer; got {cell!r} at edges.tsv line 2"
    p = write_dataset(tmp_path / "x", nodes, edges, PATH3_SPLITS)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        gd.load_dataset(p)


def test_load_reads_signed_and_space_padded_integer_cells(tmp_path):
    nodes = "id,label,f0\n 0 ,+1,1.0\n+1, 0,2.0\n"
    ds = gd.load_dataset(write_dataset(tmp_path / "x", nodes, " 0\t+1 \n",
                                       '{"train": [0], "val": [1]}'))
    assert ds.labels.tolist() == [1, 0] and ds.edges == [(0, 1)]


def test_int_cells_read_one_to_eighteen_ascii_digits_as_int_does():
    cells = ["0", "7", "0042", "9" * 18, "1" + "0" * 17, "1" + "0" * 18, "", " 4",
             "+3", "-3", "1_0", "٣", "١٢", "12\x00", "a1", "1e3", "७"]
    values, plain = gd._int_cells(cells)
    assert plain.tolist() == [True] * 5 + [False] * 12
    assert values[plain].tolist() == [int(c) for c in cells[:5]]
    assert [x.size for x in gd._int_cells([])] == [0, 0]


@pytest.mark.parametrize("nodes, message", [
    # a bad id before a ragged row, a bad label before a bad id order
    ("id,label,f0\n0,0,1.0\nx,0,1.0\n2,0\n", "node id must be an integer; got 'x'"
     " at nodes.csv line 3"),
    ("id,label,f0\n0,0,1.0\n1,y,1.0\n5,0,1.0\n", "label must be an integer; got 'y'"
     " at nodes.csv line 3"),
    ("id,label,f0\n0,0,1.0\n2,y,1.0\n", "node ids must run 0..n-1 in order; got 2"
     " at line 3"),
    ("id,label,f0\n0,0,1.0\n+1,-1,1.0\n", "label must be a non-negative integer that"
     " fits in int64; got -1 at nodes.csv line 3"),
    ("id,label,f0\n0,0,1.0\n 1,1,1.0\n2,0\n", "ragged feature row at line 4:"
     " 0 features, expected 1")])
def test_load_reports_the_first_node_fault_in_line_order(tmp_path, nodes, message):
    p = write_dataset(tmp_path / "x", nodes, "", PATH3_SPLITS)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        gd.load_dataset(p)


def test_load_rejects_non_integer_label(tmp_path):
    nodes = "id,label,f0,f1\n0,0,1.0,0.0\n1,1.5,0.5,0.5\n"
    p = write_dataset(tmp_path / "x", nodes, "", PATH3_SPLITS)
    with pytest.raises(ValueError, match="label must be an integer.* line 3"):
        gd.load_dataset(p)


@pytest.mark.parametrize("cell", ["-1", str(2**63), "9" * 30])
def test_load_rejects_a_label_outside_int64_class_ids_by_line(tmp_path, cell):
    nodes = PATH3_NODES.replace("\n1,1,", f"\n1,{cell},")
    p = write_dataset(tmp_path / "x", nodes, "", PATH3_SPLITS)
    message = (f"label must be a non-negative integer that fits in int64; got {int(cell)}"
               " at nodes.csv line 3")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        gd.load_dataset(p)


@pytest.mark.parametrize("labels", [[0, 2**70], [0, -2**70]])
def test_dataset_rejects_a_label_past_int64_by_value(labels):
    with pytest.raises(ValueError, match="^labels must be class ids that fit in int64$"):
        GraphDataset("x", np.eye(2), labels, [], [], [], [])


@pytest.mark.parametrize("nodes, edges, splits, message", [
    ("", "", PATH3_SPLITS, "nodes.csv is empty"),
    ("label,id,f0\n0,0,1.0\n", "", PATH3_SPLITS, "nodes.csv header must start with 'id,label'"),
    (PATH3_NODES, "0\t1\n1\t2\t3\n", PATH3_SPLITS,
     "edge line 2 must hold two tab-separated ids"),
    (PATH3_NODES, "0\t1\n", '{"train": [0], "holdout": [1]}',
     "splits.json has unknown keys: ['holdout']"),
], ids=["empty-nodes", "header", "three-field-edge", "splits-key"])
def test_load_names_a_malformed_file_layout(tmp_path, nodes, edges, splits, message):
    p = write_dataset(tmp_path / "x", nodes, edges, splits)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        gd.load_dataset(p)


def test_load_skips_a_blank_edge_line(tmp_path):
    ds = gd.load_dataset(write_dataset(tmp_path / "x", PATH3_NODES, "0\t1\n\n  \n1\t2\n",
                                       PATH3_SPLITS))
    assert ds.edges == [(0, 1), (1, 2)]


def test_load_header_only_and_featureless(tmp_path):
    empty = '{"train": [], "val": [], "test": []}'
    ds = gd.load_dataset(write_dataset(tmp_path / "a", "id,label,f0,f1\n", "", empty))
    assert ds.features.shape == (0, 2)
    ds = gd.load_dataset(write_dataset(tmp_path / "b", "id,label\n0,1\n1,0\n",
                                       "0\t1\n", empty))
    assert ds.features.shape == (2, 0)
    assert ds.labels.tolist() == [1, 0]
    assert ds.edges == [(0, 1)]


def test_dataset_rejects_non_finite_features():
    features = np.eye(3)
    features[2, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite feature in row 2"):
        GraphDataset("x", features, [0, 0, 0], [], [], [], [])
    features[2, 1] = -np.inf
    with pytest.raises(ValueError, match="non-finite feature in row 2"):
        GraphDataset("x", features, [0, 0, 0], [], [], [], [])


def test_dataset_features_are_read_only_and_not_the_callers_array():
    features = np.eye(3)
    ds = GraphDataset("x", features, [0, 0, 0], [], [], [], [])
    features[0, 0] = np.nan
    assert ds.features.tolist() == np.eye(3).tolist()
    assert not ds.features.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        ds.features[1, 1] = 5.0


def test_feature_matrix_holds_the_nonzero_cells_in_row_major_order(rng):
    features = rng.normal(size=(7, 5)) * (rng.random((7, 5)) < 0.4)
    features[3] = 0.0
    features[0, 0] = -0.0  # a zero cell, whatever its sign
    ds = GraphDataset("x", features, np.zeros(7, dtype=int), [], [], [], [])
    table = ds.feature_matrix
    rows, cols = np.nonzero(features)
    assert table.shape == features.shape
    assert table.rows.tolist() == rows.tolist() and table.cols.tolist() == cols.tolist()
    assert table.weights.tobytes() == features[rows, cols].tobytes()
    assert table._csr is not None  # built with the dataset, not on first use
    assert np.array_equal(table.csr().toarray(), features)


@pytest.mark.parametrize("shape", [(0, 2), (2, 0), (3, 4)])
def test_feature_matrix_of_a_table_without_nonzeros_is_empty(shape):
    n = shape[0]
    ds = GraphDataset("x", np.zeros(shape), np.zeros(n, dtype=int), [], [], [], [])
    assert ds.feature_matrix.shape == shape and ds.feature_matrix.weights.size == 0


def _same_entries(a, b):
    return all(getattr(a, name).tobytes() == getattr(b, name).tobytes()
               for name in ("rows", "cols", "weights")) and a.shape == b.shape


def test_mean_matrix_is_the_aggregation_matrix_of_the_sorted_edges(sbm_dataset):
    # edges in any order and orientation are validated and sorted first
    shuffled = GraphDataset("x", np.eye(4), np.zeros(4, dtype=int),
                            [(3, 2), (0, 3), (1, 0)], [], [], [])
    assert shuffled.edges == [(0, 1), (0, 3), (2, 3)]
    for ds in (shuffled, sbm_dataset):
        assert _same_entries(ds.mean_matrix, gd.aggregation_matrix(ds.n, ds.edges))
        assert ds.mean_matrix._csr is not None  # built with the dataset


def test_a_dataset_over_a_subset_of_the_edges_gets_its_own_mean_matrix(sbm_dataset):
    ds, subset = sbm_dataset, sbm_dataset.edges[::3]
    full = ds.mean_matrix
    # as perfbench's leak-free link metric builds one, and by replace
    rebuilt = GraphDataset(ds.name, ds.features, ds.labels, list(subset),
                           ds.train_mask, ds.val_mask, ds.test_mask)
    for sub in (rebuilt, dataclasses.replace(ds, edges=list(subset))):
        assert sub.mean_matrix is not full
        assert _same_entries(sub.mean_matrix, gd.aggregation_matrix(ds.n, subset))
    assert ds.mean_matrix is full
    assert _same_entries(full, gd.aggregation_matrix(ds.n, ds.edges))


def test_roundtrip_identity(tmp_path):
    ds = gd.synth_dataset("sbm", sizes=(10, 10), p_in=0.6, p_out=0.05, seed=3)
    gd.save_dataset(ds, tmp_path / "a")
    first = gd.load_dataset(tmp_path / "a")
    gd.save_dataset(first, tmp_path / "b")
    second = gd.load_dataset(tmp_path / "b")
    assert second.n == first.n
    assert second.edges == first.edges
    assert np.array_equal(second.labels, first.labels)
    assert np.array_equal(second.train_mask, first.train_mask)
    assert np.array_equal(second.val_mask, first.val_mask)
    assert np.array_equal(second.test_mask, first.test_mask)
    assert np.array_equal(second.features, first.features)


def test_save_dataset_writes_each_cell_as_its_repr(tmp_path):
    features = np.array([[-0.0, 1e-300, 5e-324, 1 / 3],
                         [1e20, -2.5, 0.1, 123456789.0]])
    for ds in (GraphDataset("x", features, [0, 3], [(0, 1)], [0], [1], []),
               GraphDataset("w0", np.zeros((2, 0)), [1, 0], [], [0], [], [1])):
        gd.save_dataset(ds, tmp_path / ds.name)
        expected = [",".join(["id", "label"] + [f"f{j}" for j in range(ds.num_features)])]
        for i in range(ds.n):
            cells = [str(i), str(int(ds.labels[i]))]
            cells += [repr(float(x)) for x in ds.features[i]]
            expected.append(",".join(cells))
        got = (tmp_path / ds.name / "nodes.csv").read_bytes()
        assert got == ("\n".join(expected) + "\n").encode("utf-8")


def _save_dataset_cell_by_cell(dataset, path):
    """The writer that calls ``repr`` on every cell, kept as the reference."""
    root = Path(path)
    root.mkdir(parents=True)
    header = ["id", "label"] + [f"f{i}" for i in range(dataset.num_features)]
    lines = [",".join(header)]
    for i, (label, row) in enumerate(zip(dataset.labels.tolist(), dataset.features)):
        lines.append(",".join([f"{i},{label}", *map(repr, row.tolist())]))
    (root / "nodes.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (root / "edges.tsv").write_text(
        "".join(f"{u}\t{v}\n" for u, v in dataset.edges), encoding="utf-8")
    (root / "splits.json").write_text(json.dumps({
        "train": dataset.train_mask.tolist(),
        "val": dataset.val_mask.tolist(),
        "test": dataset.test_mask.tolist()}, indent=0) + "\n", encoding="utf-8")


def test_save_dataset_writes_the_bytes_of_a_repr_per_cell(tmp_path, rng):
    values = np.array([-0.0, 0.0, 5e-324, -5e-324, 1 / 3, -1 / 3, 0.1, 1e300, 2.0])
    tables = {
        "repeats": values[rng.integers(0, values.size, size=(30, 12))],
        "dense": rng.normal(size=(7, 5)),
        "only-negative-zero": np.full((3, 2), -0.0),
        "no-features": np.zeros((3, 0)),
    }
    assert (np.signbit(tables["repeats"]) & (tables["repeats"] == 0)).any()
    for name, features in tables.items():
        n = features.shape[0]
        ds = GraphDataset(name, features, np.arange(n) % 3, [(0, 1), (1, 2)],
                          [0], [1], list(range(2, n)))
        gd.save_dataset(ds, tmp_path / "new" / name)
        _save_dataset_cell_by_cell(ds, tmp_path / "old" / name)
        for file in ("nodes.csv", "edges.tsv", "splits.json"):
            assert ((tmp_path / "new" / name / file).read_bytes()
                    == (tmp_path / "old" / name / file).read_bytes()), (name, file)


def test_dataset_validation():
    with pytest.raises(ValueError, match="self-loop"):
        GraphDataset("x", np.eye(2), [0, 0], [(1, 1)], [], [], [])
    with pytest.raises(ValueError, match="masks overlap"):
        GraphDataset("x", np.eye(2), [0, 0], [], [0], [0], [])
    with pytest.raises(ValueError, match="duplicate edge"):
        GraphDataset("x", np.eye(2), [0, 0], [(0, 1), (1, 0)], [], [], [])


# each bad mask, in the slot it is put in, and the error that names it
BAD_MASKS = [
    ([1.7], "must be a list of integer node ids"),
    ([True], "must be a list of integer node ids"),
    ([0, True], "must be a list of integer node ids"),
    (np.array([1.0]), "must be a list of integer node ids"),
    ([2, 0, 2], "lists node 2 more than once"),
]


@pytest.mark.parametrize("slot", ["train", "val", "test"])
def test_dataset_rejects_non_integer_and_repeated_mask_ids(slot):
    for mask, message in BAD_MASKS:
        masks = {"train": [], "val": [], "test": [], slot: mask}
        with pytest.raises(ValueError, match=f"^{slot} mask {message}$"):
            GraphDataset("x", np.eye(3), [0, 0, 0], [], masks["train"],
                         masks["val"], masks["test"])
    ds = GraphDataset("x", np.eye(3), [0, 0, 0], [], np.array([2, 0]), (1,), [])
    assert ds.train_mask.tolist() == [0, 2] and ds.train_mask.dtype == np.int64
    assert ds.val_mask.tolist() == [1] and ds.test_mask.size == 0


@pytest.mark.parametrize("ids, message", [
    ("[1.7]", "must be a list of integer node ids"),
    ("[1.0]", "must be a list of integer node ids"),
    ("[true]", "must be a list of integer node ids"),
    ("[1, 1]", "lists node 1 more than once"),
])
def test_load_rejects_bad_split_ids_by_mask(tmp_path, ids, message):
    splits = '{"train": [0], "val": %s, "test": [2]}' % ids
    p = write_dataset(tmp_path / "x", PATH3_NODES, "0\t1\n1\t2\n", splits)
    with pytest.raises(ValueError, match=f"^val mask {message}$"):
        gd.load_dataset(p)


# ---------------------------------------------------------------------------
# mixing


def test_mix_basic_counts():
    a = GraphDataset("a", np.ones((2, 3)), [0, 1], [(0, 1)], [0], [1], [])
    b = GraphDataset("b", np.ones((3, 5)), [0, 1, 1], [(0, 2), (1, 2)],
                     [0], [1], [2])
    m = gd.mix_datasets(a, b, seed=1)
    assert m.n == 5
    assert m.num_features == 5
    assert m.num_classes == 4
    assert len(m.edges) == 3
    assert m.labels.tolist() == [0, 1, 2, 3, 3]


def test_mix_never_crosses_sources():
    a = gd.synth_dataset("sbm", sizes=(8, 8), p_in=0.7, p_out=0.2, seed=0)
    b = gd.synth_dataset("tree", depth=3, branching=2, seed=1)
    m = gd.mix_datasets(a, b, seed=2)
    crossing = [e for e in m.edges if (e[0] < a.n) != (e[1] < a.n)]
    assert crossing == []
    # padded features: the second block's tail columns stay zero when b is narrower
    assert m.features[:a.n, a.num_features:].tolist() == \
        np.zeros((a.n, m.num_features - a.num_features)).tolist()


def test_mix_with_itself_disconnects():
    a = gd.synth_dataset("tree", depth=2, branching=2, seed=0)
    m = gd.mix_datasets(a, a, seed=0)
    assert m.n == 2 * a.n
    assert all((u < a.n) == (v < a.n) for u, v in m.edges)


def test_mix_masks_follow_proportions():
    a = gd.synth_dataset("sbm", sizes=(25, 25), p_in=0.5, p_out=0.05, seed=0)
    m = gd.mix_datasets(a, a, split=(0.6, 0.2, 0.2), seed=9)
    assert m.train_mask.size == 60
    assert m.val_mask.size == 20
    assert m.test_mask.size == 20


# ---------------------------------------------------------------------------
# hyperbolicity


@pytest.mark.parametrize("tree", [
    gd.GraphDataset("star", np.eye(5), np.zeros(5, int),
                    [(0, i) for i in range(1, 5)], [], [], []),
    gd.GraphDataset("path", np.eye(6), np.zeros(6, int),
                    [(i, i + 1) for i in range(5)], [], [], []),
])
def test_trees_are_zero_hyperbolic(tree):
    assert gd.delta_hyperbolicity(tree)["max_delta"] == 0.0


def test_deep_tree_is_zero_hyperbolic():
    tree = gd.synth_dataset("tree", depth=4, branching=2, seed=0)
    assert gd.delta_hyperbolicity(tree)["max_delta"] == 0.0


def test_four_cycle(c4_dataset):
    rep = gd.delta_hyperbolicity(c4_dataset)
    assert rep["max_delta"] == 1.0
    assert rep["histogram"] == {1.0: 1}


def test_sampled_all_equals_exact_on_random_graphs():
    rng = np.random.default_rng(7)
    for trial in range(50):
        n = int(rng.integers(5, 21))
        edges = {(i, int(rng.integers(0, i))) for i in range(1, n)}  # spanning tree
        extra = int(rng.integers(0, n))
        while len(edges) < n - 1 + extra:
            u, v = rng.integers(0, n, 2)
            if u != v:
                edges.add((max(u, v), min(u, v)))
        ds = GraphDataset("r", np.eye(n), np.zeros(n, int),
                          [(min(u, v), max(u, v)) for u, v in edges], [], [], [])
        exact = gd.delta_hyperbolicity(ds, "exact")
        sampled = gd.delta_hyperbolicity(ds, "sampled", samples=10 ** 9, seed=trial)
        assert sampled == exact, f"trial {trial}"
        # Python floats and ints, as the one-quadruple-at-a-time loop gives,
        # also over two components
        for graph in (ds, gd.mix_datasets(ds, ds)):
            assert repr(gd.delta_hyperbolicity(graph)) == repr(loop_delta_hyperbolicity(graph))


def test_sampled_mode_is_deterministic(sbm_dataset):
    a = gd.delta_hyperbolicity(sbm_dataset, "sampled", samples=200, seed=5)
    b = gd.delta_hyperbolicity(sbm_dataset, "sampled", samples=200, seed=5)
    assert a == b
    assert a["num_quadruples"] == 200


@pytest.mark.parametrize("seed, histogram", [
    (0, {0.0: 145, 0.5: 51, 1.0: 4}), (1, {0.0: 139, 0.5: 58, 1.0: 3})])
def test_sampled_report_is_pinned(sbm_dataset, seed, histogram):
    # the sampled quadruples index each component's breadth-first node list,
    # so a change of that order changes which quadruples a seed draws
    rep = gd.delta_hyperbolicity(sbm_dataset, "sampled", samples=200, seed=seed)
    assert rep == {"max_delta": 1.0, "histogram": histogram, "num_quadruples": 200}


def test_hyperbolicity_errors(c4_dataset):
    tiny = GraphDataset("t", np.eye(3), np.zeros(3, int), [(0, 1), (1, 2)],
                        [], [], [])
    with pytest.raises(ValueError, match="at least 4"):
        gd.delta_hyperbolicity(tiny)
    with pytest.raises(ValueError, match="positive sample count"):
        gd.delta_hyperbolicity(c4_dataset, "sampled", samples=0)
    big = gd.synth_dataset("sbm", sizes=(40, 40), p_in=0.3, p_out=0.05, seed=0)
    with pytest.raises(ValueError, match="60"):
        gd.delta_hyperbolicity(big, "exact")


# ---------------------------------------------------------------------------
# generators


def test_tree_generator_counts():
    t = gd.synth_dataset("tree", depth=3, branching=2, seed=0)
    assert t.n == 15
    assert len(t.edges) == 14
    assert gd.delta_hyperbolicity(t)["max_delta"] == 0.0
    assert t.labels.tolist()[:3] == [0, 1, 1]  # depth parity


def test_grid_generator_counts():
    g = gd.synth_dataset("grid", width=3, height=3, seed=0)
    assert g.n == 9
    assert len(g.edges) == 12


def test_sbm_density_contrast_over_seeds():
    for seed in range(20):
        s = gd.synth_dataset("sbm", sizes=(20, 20), p_in=0.5, p_out=0.01,
                             seed=seed)
        intra = sum(1 for u, v in s.edges if s.labels[u] == s.labels[v])
        inter = len(s.edges) - intra
        intra_pairs = 2 * (20 * 19 // 2)
        inter_pairs = 20 * 20
        assert intra / intra_pairs > 5 * max(inter, 1) / inter_pairs


def test_generator_determinism_and_errors():
    a = gd.synth_dataset("sbm", sizes=(5, 5), p_in=0.5, p_out=0.1, seed=4)
    b = gd.synth_dataset("sbm", sizes=(5, 5), p_in=0.5, p_out=0.1, seed=4)
    assert a.edges == b.edges
    assert np.array_equal(a.features, b.features)
    with pytest.raises(ValueError):
        gd.synth_dataset("tree", depth=0)
    with pytest.raises(ValueError):
        gd.synth_dataset("sbm", sizes=(5,), p_in=0.5, p_out=0.1)
    with pytest.raises(ValueError):
        gd.synth_dataset("nope")

"""scripts/convert_cora.py: the citation-graph files become a dataset that
load_dataset reads, and malformed input stops the conversion by name."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from hamgnn import graphdata as gd

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "convert_cora.py"

CONTENT = """p1\t1\t0\t0\tRule_Learning
p2\t0\t1\t0\tTheory
p3\t0\t0\t1\tRule_Learning
p4\t1\t1\t0\tTheory
p5\t0\t1\t3\tRule_Learning
"""

# a self-citation, one pair cited both ways and a citation of an unknown id
CITES = """p1\tp2
p3\tp3
p2\tp1
p4\tp9
p5\tp4
p3\tp1
"""


@pytest.fixture
def convert():
    if not SCRIPT.is_file():
        pytest.skip("not a source checkout")
    spec = importlib.util.spec_from_file_location("convert_cora", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.convert


def _source(tmp_path, content=CONTENT):
    src = tmp_path / "cora"
    src.mkdir()
    (src / "cora.content").write_text(content)
    (src / "cora.cites").write_text(CITES)
    return src


def test_converted_files_load_as_a_dataset(tmp_path, convert, capsys):
    convert(_source(tmp_path), tmp_path / "out", 2, 1, 2, 0, "cora")
    assert "2 citation lines skipped" in capsys.readouterr().out
    ds = gd.load_dataset(tmp_path / "out")
    assert ds.n == 5 and ds.num_classes == 2 and ds.num_features == 3
    assert ds.labels.tolist() == [0, 1, 0, 1, 0]
    assert [tuple(e) for e in ds.edges] == [(0, 1), (0, 2), (3, 4)]
    assert ds.features[3].tolist() == [0.5, 0.5, 0.0]
    assert ds.features[4].tolist() == [0.0, 0.25, 0.75]
    order = np.random.default_rng(0).permutation(5)
    assert ds.train_mask.tolist() == order[:2].tolist()
    assert ds.val_mask.tolist() == order[2:3].tolist()
    assert ds.test_mask.tolist() == order[3:].tolist()


def test_a_paper_id_listed_twice_is_rejected(tmp_path, convert):
    content = CONTENT + "p2\t1\t0\t1\tTheory\n"
    with pytest.raises(SystemExit, match="paper id 'p2' is listed twice"):
        convert(_source(tmp_path, content), tmp_path / "out", 2, 1, 2, 0, "cora")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("sizes", [(2, 1, 10), (4, 1, 1), (-1, 1, 1)])
def test_split_sizes_that_do_not_fit_are_rejected(tmp_path, convert, sizes):
    train, val, test = sizes
    with pytest.raises(SystemExit, match=rf"split sizes --train {train} --val {val} "
                                         rf"--test {test} do not fit the 5 nodes"):
        convert(_source(tmp_path), tmp_path / "out", *sizes, 0, "cora")
    assert not (tmp_path / "out").exists()

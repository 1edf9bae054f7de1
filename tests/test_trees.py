"""``tools/trees.py``: the workload names, the paper conv spec, the
temporary parent tree and loading package trees side by side."""

import json
import shutil

import pytest

import hsiladder
from helpers import load_tool, paper_conv_spec

trees = load_tool("trees")


def test_workload_names_are_the_benchmarks_in_order():
    declared = json.loads((trees.ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert trees.workload_names() == tuple(w["name"] for w in declared)
    assert trees.workload_names() == ("conv-ladder-f64", "fc-ladder-f32", "scene-map")


def test_paper_conv_spec_is_the_papers():
    spec = trees.paper_conv_spec(hsiladder)
    assert spec == paper_conv_spec()
    assert [(l.kind, l.width) for l in spec.layers] == [
        ("conv3x3", 90), ("conv3x3", 30), ("conv3x3", 15), ("fc", 30), ("softmax_head", 9),
    ]
    assert spec.noise_std == 0.3
    assert spec.lambdas == (1.0, 0.1, 0.1, 0.1, 0.1, 0.1)
    assert spec.input_shape == (7, 7, 15)


def test_two_copies_load_side_by_side(tmp_path):
    here = trees.ROOT / "src" / "hsiladder"
    copy = tmp_path / "hsiladder"
    shutil.copytree(here, copy, ignore=shutil.ignore_patterns("__pycache__"))
    a = trees.load_package(here, "hsiladder_trees_a")
    b = trees.load_package(copy, "hsiladder_trees_b")
    assert a.tensor is not b.tensor and a.Tensor is not b.Tensor
    assert a.tensor.__name__ == "hsiladder_trees_a.tensor"
    assert a.tensor.__file__ == str(here / "tensor.py")
    assert b.tensor.__file__ == str(copy / "tensor.py")
    # each copy's spec is built from its own classes
    assert type(trees.paper_conv_spec(b).layers[0]) is b.LayerSpec



def test_a_second_load_under_one_name_reads_the_new_tree(tmp_path):
    here = trees.ROOT / "src" / "hsiladder"
    copy = tmp_path / "hsiladder"
    shutil.copytree(here, copy, ignore=shutil.ignore_patterns("__pycache__"))
    assert trees.load_package(here, "hsiladder_trees_again").tensor.__file__ == str(here / "tensor.py")
    assert trees.load_package(copy, "hsiladder_trees_again").tensor.__file__ == str(copy / "tensor.py")


def test_the_parent_tree_is_removed_after_the_block_also_when_it_raises():
    with trees.parent_tree("HEAD", "pyproject.toml") as (commit, tree):
        assert commit == trees.git("rev-parse", "HEAD")
        assert [p.name for p in tree.iterdir()] == ["pyproject.toml"]
    assert not tree.exists()
    with pytest.raises(RuntimeError, match="inside the block"):
        with trees.parent_tree("HEAD", "pyproject.toml") as (_, tree):
            assert tree.is_dir()
            raise RuntimeError("inside the block")
    assert not tree.exists()

"""What the tools share: git in this checkout, a revision's files exported
(also into a temporary parent tree), the change side's record, the ``--out``
rule, a package directory imported by its path, the benchmark's workload
names and the paper conv ladder's spec.  A tool imports it as ``trees`` (a
script's own directory leads ``sys.path``); it imports no numpy, so a tool
can still limit BLAS threads after importing it."""

from __future__ import annotations

import contextlib
import importlib.util
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# the paper conv ladder: 7x7 windows of 15 PCA bands, 9 classes
PAPER_WINDOW, PAPER_PCA, PAPER_CLASSES = 7, 15, 9
PAPER_NOISE_STD = 0.3
PAPER_LAMBDAS = (1.0, 0.1, 0.1, 0.1, 0.1, 0.1)


def git(*args: str) -> str:
    """``git`` run in this checkout; its stripped stdout."""
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], capture_output=True, text=True, check=True
    ).stdout.strip()


def export(rev: str, dest: Path, *paths: str) -> None:
    """The files of ``rev`` under ``paths`` (the whole tree when none are
    given), written into ``dest`` with ``git archive``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, *paths],
        capture_output=True, check=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


@contextlib.contextmanager
def parent_tree(rev: str, *paths: str):
    """``(commit, dir)``: ``rev``'s commit and a temporary directory holding
    its files under ``paths`` (the whole tree when none are given).  The
    directory is removed when the block ends, also when it raises."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    with tempfile.TemporaryDirectory(prefix="parent-") as tmp:
        export(commit, Path(tmp), *paths)
        yield commit, Path(tmp)


def change_record() -> dict:
    """The change side of a paired record: this checkout as it stands."""
    return {"rev": "working tree", "commit": git("rev-parse", "HEAD"),
            "modified": bool(git("status", "--porcelain", "--untracked-files=no"))}


def check_out_path(parser, out: Path) -> None:
    """Exit through ``parser`` when ``out`` lies under ``benchmarks/``."""
    if ROOT / "benchmarks" in out.resolve().parents:
        parser.error("--out must lie outside benchmarks/, which this tool never changes")


def load_package(pkg_dir: Path, name: str):
    """The package in directory ``pkg_dir`` imported under ``name``.  The
    package uses only relative imports, so copies from different trees
    load side by side under different names.  Submodules left by an earlier
    load under ``name`` are dropped first, else its imports would reuse them."""
    for key in [k for k in sys.modules if k.startswith(name + ".")]:
        del sys.modules[key]
    spec = importlib.util.spec_from_file_location(
        name, pkg_dir / "__init__.py", submodule_search_locations=[str(pkg_dir)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def workload_names() -> tuple[str, ...]:
    """The benchmark's workloads, as ``BENCHMARK.json`` declares them."""
    return tuple(w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"])


def paper_conv_spec(pkg):
    """``pkg``'s spec of the paper conv ladder: conv 90 -> conv 30 -> conv 15
    -> fc 30 -> softmax 9 on 7x7x15 patches, noise 0.3, λ (1, 0.1, ..., 0.1)."""
    layers = (
        pkg.LayerSpec("conv3x3", 90),
        pkg.LayerSpec("conv3x3", 30),
        pkg.LayerSpec("conv3x3", 15),
        pkg.LayerSpec("fc", 30),
        pkg.LayerSpec("softmax_head", PAPER_CLASSES, "none"),
    )
    return pkg.LadderSpec(
        layers, PAPER_NOISE_STD, PAPER_LAMBDAS, (PAPER_WINDOW, PAPER_WINDOW, PAPER_PCA)
    )

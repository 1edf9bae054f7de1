"""What the tools share: git in this checkout, a revision's files exported,
a package directory imported by its path, the benchmark's workload names
and the paper conv ladder's spec.  A tool imports it as ``trees`` (a
script's own directory leads ``sys.path``); it imports no numpy, so a tool
can still limit BLAS threads after importing it."""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
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


def load_package(pkg_dir: Path, name: str):
    """The package in directory ``pkg_dir`` imported under ``name``.  The
    package uses only relative imports, so copies from different trees
    load side by side under different names."""
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

"""Print one sha256 over the state that short training runs leave behind.

Two source trees that print the same hash train bit-identically on these
runs, so a change that claims "same arithmetic" can show it by running this
script on both trees (``--src`` points it at another tree's package).  It
trains a small FC ladder and a small conv ladder for 6 iterations each with
``train()``, in all three modes and in f64 and f32, on one synthetic scene
with a quarter of its ground truth masked, so unlabeled (-1) pixels feed the
split, the scaling and PCA fits and the unlabeled pool.  Per run, the hash
takes in every parameter, every running batch-norm statistic, the three loss
curves and the log-probabilities that ``predict_log_probs`` reads for the
first 16 test rows of the patch set's window reader.  It then runs two
paper-scale steps of the paper conv ladder (7x7x15 PCA patches, conv
90-30-15, fc 30, softmax 9; 100 labeled + 100 unlabeled rows) in ``ladder``
and ``supervised-only`` mode, in f64 and f32, on a masked 32x32 scene: these
are the steps whose large arrays come from the step arena, the second one
from ranges the first released.  Their losses, parameters, running
statistics and test log-probabilities go into the hash too.  It also prints
the tape nodes of one training step per small spec in ``ladder`` mode, in
``ladder`` mode with a positive multiplier on the top level only (the cost
records the target statistics of that level alone) and in
``supervised-only`` mode, and, before the hash, the line count of the
tree's ``hsiladder/*.py`` (the size of the source that produced it), the
``tracemalloc`` peak of the two ``prepare_dataset`` calls and that of one
ladder-mode forward and backward of the small conv ladder, so memory drift
in the data pipeline and in a training step shows next to the hash, and the
bytes the step arena holds after the paper-scale steps (``tracemalloc``
does not see them) where the tree has one.

BLAS runs on one thread, so the hash depends only on the source tree, numpy
and its BLAS build, and the CPU.

Usage, from the repository root:

    python3 tools/fingerprint.py
    python3 tools/fingerprint.py --src /tmp/parent/src   # a git archive of another commit
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import os
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import trees

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SEED = 5
ITERATIONS = 6
BATCH = 8
PRECISIONS = ("f64", "f32")
BANDS, CLASSES = 6, 3
WINDOW, PCA_COMPONENTS = 5, 4  # the small conv ladder's patches
LAMBDAS = (1.0, 0.1, 0.1, 0.1)
MASK_SHARE = 0.25  # of each scene's pixels whose ground truth is masked
MASK_STREAM = 7  # second word of the mask's numpy seed
# the paper-scale steps: the paper conv ladder on a 32x32 scene
PAPER_SCENE = dict(height=32, width=32, bands=20, classes=trees.PAPER_CLASSES, block=8)
PAPER_BATCH, PAPER_STEPS = 100, 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description="sha256 over short training runs")
    parser.add_argument(
        "--src", type=Path, default=ROOT / "src", help="directory holding hsiladder/"
    )
    args = parser.parse_args(argv)
    if not (args.src / "hsiladder" / "__init__.py").is_file():
        parser.error(f"--src {args.src} holds no hsiladder package")
    return args


def load(src: Path) -> SimpleNamespace:
    """``hsiladder`` and the modules this script uses, imported from ``src``."""
    pkg = trees.load_package(src / "hsiladder", "hsiladder")
    names = ("data", "synthetic", "tensor", "train")
    return SimpleNamespace(pkg=pkg, **{n: importlib.import_module(f"hsiladder.{n}") for n in names})


def small_specs(api) -> dict:
    """The small FC and conv ladders of the ``train()`` runs."""
    LadderSpec, LayerSpec = api.pkg.LadderSpec, api.pkg.LayerSpec
    head = LayerSpec("softmax_head", CLASSES, "none")
    return {
        "fc": LadderSpec((LayerSpec("fc", 12), LayerSpec("fc", 8), head), 0.3, LAMBDAS, (BANDS,)),
        "conv": LadderSpec(
            (LayerSpec("conv3x3", 6), LayerSpec("fc", 8), head),
            0.3,
            LAMBDAS,
            (WINDOW, WINDOW, PCA_COMPONENTS),
        ),
    }


def masked_scene(api, **scene):
    """A synthetic scene with ``MASK_SHARE`` of its pixels unlabeled; the
    mask is drawn with numpy alone, so every tree sees the same one."""
    cube = api.synthetic.make_synthetic_cube(SEED, **scene)
    gt = cube.ground_truth.copy()
    gt[np.random.default_rng([SEED, MASK_STREAM]).random(gt.shape) < MASK_SHARE] = 0
    return api.data.HsiCube(cube.reflectance, gt, cube.num_classes)


def feed(h, label: str, array) -> None:
    a = np.ascontiguousarray(array)
    h.update(f"{label}|{a.dtype.str}|{a.shape}|".encode())
    h.update(a.tobytes())


def feed_net(h, net) -> None:
    """Every parameter and running statistic of ``net``."""
    for key, p in net.params.items():
        feed(h, f"param/{key}", p.data)
    for l, rs in net.running.items():
        feed(h, f"running/{l}/mean", rs.mean)
        feed(h, f"running/{l}/var", rs.var)
        feed(h, f"running/{l}/init", np.array([rs.initialized]))


def step(api, spec, patches, labels, use_decoder: bool, lambdas=None, traced: bool = False):
    """The forward of one f64 training step on a fresh network, with
    ``lambdas`` in place of the spec's when given: its tape and loss.  With
    ``traced``, ``tracemalloc`` starts after the network and the batch are
    built."""
    net = api.pkg.LadderNetwork(spec, api.pkg.Rng(SEED), dtype=np.float64)
    # labeled rows first, then the scene's first rows, labeled or not
    rows = np.concatenate([np.flatnonzero(labels >= 0)[:BATCH], np.arange(BATCH)])
    batch = api.train.batch_input(patches, spec.input_shape, np.float64, rows)
    if traced:
        tracemalloc.start()
    with api.pkg.GradTape() as tape:
        loss, *_ = net.training_loss(
            batch, BATCH, labels[rows[:BATCH]], api.pkg.Rng(SEED + 1), lambdas, use_decoder
        )
    return tape, loss


def step_peak(api, spec, patches, labels) -> int:
    """Traced peak bytes of one ladder-mode forward and backward."""
    # an untraced step first, so numpy's lazy imports stay out of the peak
    tape, loss = step(api, spec, patches, labels, use_decoder=True)
    tape.backward(loss)
    tape, loss = step(api, spec, patches, labels, use_decoder=True, traced=True)
    try:
        tape.backward(loss)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def paper_steps(api, prepared, precision: str, use_decoder: bool) -> str:
    """sha256 of ``PAPER_STEPS`` training steps of the paper conv ladder
    (forward, backward, Adam, as ``train()`` does them) on fixed rows: the
    losses, then every parameter, every running statistic and the
    log-probabilities of the first 64 test rows."""
    spec, patchset, split = trees.paper_conv_spec(api.pkg), prepared.patches, prepared.split
    dtype = np.float64 if precision == "f64" else np.float32
    net = api.pkg.LadderNetwork(spec, api.pkg.Rng(SEED), dtype=dtype)
    adam = api.train.Adam(net.params, 0.01)
    noise = api.pkg.Rng(SEED + 1)
    h = hashlib.sha256()
    for i in range(PAPER_STEPS):
        take = np.arange(PAPER_BATCH) + i * PAPER_BATCH
        li = split.labeled_train[take % len(split.labeled_train)]
        ui = split.unlabeled_train[take % len(split.unlabeled_train)]
        rows = np.concatenate([li, ui])
        batch = api.train.batch_input(patchset.patches, spec.input_shape, dtype, rows)
        net.zero_grads()
        with api.pkg.GradTape() as tape:
            loss, *_ = net.training_loss(
                batch, PAPER_BATCH, patchset.labels[li], noise, use_decoder=use_decoder
            )
        tape.backward(loss)
        adam.step()
        feed(h, f"loss/{i}", loss.data)
    feed_net(h, net)
    feed(h, "predict", net.predict_log_probs(patchset.patches, split.test[:64]))
    return h.hexdigest()


def main(argv=None) -> int:
    args = parse_args(argv)
    api = load(args.src)
    cube = masked_scene(api, height=24, width=24, bands=BANDS, classes=CLASSES, block=6)
    specs = small_specs(api)

    def prepare():
        return {
            "fc": (specs["fc"], api.data.prepare_dataset(cube, 1, None, 4, seed=SEED)),
            "conv": (
                specs["conv"],
                api.data.prepare_dataset(cube, WINDOW, PCA_COMPONENTS, 4, seed=SEED),
            ),
        }

    prepare()  # untraced, so numpy's lazy imports stay out of the peak
    tracemalloc.start()
    try:
        runs = prepare()
        prepare_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    conv_spec, conv = runs["conv"]
    peak = step_peak(api, conv_spec, conv.patches.patches, conv.patches.labels)
    total = hashlib.sha256()
    for name, (spec, prepared) in runs.items():
        patchset, split = prepared.patches, prepared.split
        top_only = (0.0,) * (spec.num_levels - 1) + (1.0,)
        ladder, top, supervised = (
            len(step(api, spec, patchset.patches, patchset.labels, use_decoder, lambdas)[0].nodes)
            for use_decoder, lambdas in ((True, None), (True, top_only), (False, None))
        )
        print(
            f"{name}: tape nodes per step {ladder} (ladder), {top} (top-only lambda), "
            f"{supervised} (supervised-only)"
        )
        for mode in api.train.MODES:
            for precision in PRECISIONS:
                config = api.train.TrainConfig(
                    ladder=spec,
                    learning_rate=0.01,
                    iterations=ITERATIONS,
                    seed=SEED,
                    batch_size=BATCH,
                    mode=mode,
                    precision=precision,
                    pretrain_iterations=3,
                )
                net, report = api.train.train(config, patchset, split)
                run = hashlib.sha256()
                feed_net(run, net)
                for curve in ("c_super", "c_recon", "c_total"):
                    feed(run, f"curve/{curve}", getattr(report, curve))
                feed(run, "predict", net.predict_log_probs(patchset.patches, split.test[:16]))
                digest = run.hexdigest()
                print(f"  {name} {mode} {precision}: {digest[:16]}")
                total.update(f"{name}|{mode}|{precision}|{digest}".encode())
    paper = api.data.prepare_dataset(
        masked_scene(api, **PAPER_SCENE), trees.PAPER_WINDOW, trees.PAPER_PCA, 20, seed=SEED
    )
    for mode, use_decoder in (("ladder", True), ("supervised-only", False)):
        for precision in PRECISIONS:
            digest = paper_steps(api, paper, precision, use_decoder)
            print(f"  paper conv {mode} {precision}: {digest[:16]}")
            total.update(f"paper|{mode}|{precision}|{digest}".encode())
    sources = (args.src / "hsiladder").glob("*.py")
    print(f"src lines {sum(len(path.read_bytes().splitlines()) for path in sources)}")
    print(f"prepare peak {prepare_peak // 1024} KiB")
    print(f"step peak {peak // 1024} KiB")
    if hasattr(api.tensor, "arena_usage"):
        print(f"step arena {api.tensor.arena_usage()[0] >> 20} MiB reserved")
    print(f"sha256 {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

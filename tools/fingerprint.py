"""Print one sha256 over the state that short training runs leave behind.

Two source trees that print the same hash train bit-identically on these
runs, so a change that claims "same arithmetic" can show it by running this
script before and after.  It trains a small FC ladder and a small conv ladder
for 6 iterations each with ``train()``, in all three modes and in f64 and
f32, on one synthetic scene.  Per run, the hash takes in every parameter,
every running batch-norm statistic, the three loss curves and the
log-probabilities that ``predict_log_probs`` reads for the first 16 test
rows of the patch set's window reader.  It also prints the tape nodes
of one training step per spec in ``ladder`` mode, in ``ladder`` mode with a
positive multiplier on the top level only (the cost records the target
statistics of that level alone) and in ``supervised-only`` mode, and,
before the hash, the line count of ``src/hsiladder/*.py`` (the size of
the source tree that produced it), the ``tracemalloc`` peak of the two
``prepare_dataset`` calls and that of one ladder-mode forward and backward
of the conv ladder, so memory drift in the data pipeline and in a training
step shows next to the hash.

BLAS runs on one thread, so the hash depends only on the source tree, numpy
and its BLAS build, and the CPU.

Usage, from the repository root:

    python3 tools/fingerprint.py
"""

from __future__ import annotations

import hashlib
import os
import sys
import tracemalloc
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from hsiladder import GradTape, LadderNetwork, LadderSpec, LayerSpec, Rng  # noqa: E402
from hsiladder.data import prepare_dataset  # noqa: E402
from hsiladder.synthetic import make_synthetic_cube  # noqa: E402
from hsiladder.train import MODES, TrainConfig, batch_input, train  # noqa: E402

SEED = 5
ITERATIONS = 6
BATCH = 8
PRECISIONS = ("f64", "f32")
BANDS, CLASSES = 6, 3
WINDOW, PCA_COMPONENTS = 5, 4  # the conv ladder's patches
LAMBDAS = (1.0, 0.1, 0.1, 0.1)
FC_SPEC = LadderSpec(
    (LayerSpec("fc", 12), LayerSpec("fc", 8), LayerSpec("softmax_head", CLASSES, "none")),
    0.3,
    LAMBDAS,
    (BANDS,),
)
CONV_SPEC = LadderSpec(
    (LayerSpec("conv3x3", 6), LayerSpec("fc", 8), LayerSpec("softmax_head", CLASSES, "none")),
    0.3,
    LAMBDAS,
    (WINDOW, WINDOW, PCA_COMPONENTS),
)


def feed(h, label: str, array) -> None:
    a = np.ascontiguousarray(array)
    h.update(f"{label}|{a.dtype.str}|{a.shape}|".encode())
    h.update(a.tobytes())


def step(spec: LadderSpec, patches, labels, use_decoder: bool, lambdas=None, traced: bool = False):
    """The forward of one f64 training step on a fresh network, with
    ``lambdas`` in place of the spec's when given: its tape and loss.  With
    ``traced``, ``tracemalloc`` starts after the network and the batch are
    built."""
    net = LadderNetwork(spec, Rng(SEED), dtype=np.float64)
    rows = np.arange(2 * BATCH) % len(patches)
    batch = batch_input(patches, spec.input_shape, np.float64, rows)
    if traced:
        tracemalloc.start()
    with GradTape() as tape:
        loss, *_ = net.training_loss(
            batch, BATCH, labels[rows[:BATCH]], Rng(SEED + 1), lambdas, use_decoder
        )
    return tape, loss


def step_peak(spec: LadderSpec, patches, labels) -> int:
    """Traced peak bytes of one ladder-mode forward and backward."""
    # an untraced step first, so numpy's lazy imports stay out of the peak
    tape, loss = step(spec, patches, labels, use_decoder=True)
    tape.backward(loss)
    tape, loss = step(spec, patches, labels, use_decoder=True, traced=True)
    try:
        tape.backward(loss)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main() -> int:
    cube = make_synthetic_cube(SEED, height=24, width=24, bands=BANDS, classes=CLASSES, block=6)

    def prepare():
        return {
            "fc": (FC_SPEC, prepare_dataset(cube, 1, None, 4, seed=SEED)),
            "conv": (CONV_SPEC, prepare_dataset(cube, WINDOW, PCA_COMPONENTS, 4, seed=SEED)),
        }

    prepare()  # untraced, so numpy's lazy imports stay out of the peak
    tracemalloc.start()
    try:
        runs = prepare()
        prepare_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    conv_spec, conv = runs["conv"]
    peak = step_peak(conv_spec, conv.patches.patches, conv.patches.labels)
    total = hashlib.sha256()
    for name, (spec, prepared) in runs.items():
        patchset, split = prepared.patches, prepared.split
        top_only = (0.0,) * (spec.num_levels - 1) + (1.0,)
        ladder, top, supervised = (
            len(step(spec, patchset.patches, patchset.labels, use_decoder, lambdas)[0].nodes)
            for use_decoder, lambdas in ((True, None), (True, top_only), (False, None))
        )
        print(
            f"{name}: tape nodes per step {ladder} (ladder), {top} (top-only lambda), "
            f"{supervised} (supervised-only)"
        )
        for mode in MODES:
            for precision in PRECISIONS:
                config = TrainConfig(
                    ladder=spec,
                    learning_rate=0.01,
                    iterations=ITERATIONS,
                    seed=SEED,
                    batch_size=BATCH,
                    mode=mode,
                    precision=precision,
                    pretrain_iterations=3,
                )
                net, report = train(config, patchset, split)
                run = hashlib.sha256()
                for key, p in net.params.items():
                    feed(run, f"param/{key}", p.data)
                for l, rs in net.running.items():
                    feed(run, f"running/{l}/mean", rs.mean)
                    feed(run, f"running/{l}/var", rs.var)
                    feed(run, f"running/{l}/init", np.array([rs.initialized]))
                for curve in ("c_super", "c_recon", "c_total"):
                    feed(run, f"curve/{curve}", getattr(report, curve))
                feed(run, "predict", net.predict_log_probs(patchset.patches, split.test[:16]))
                digest = run.hexdigest()
                print(f"  {name} {mode} {precision}: {digest[:16]}")
                total.update(f"{name}|{mode}|{precision}|{digest}".encode())
    lines = sum(len(path.read_bytes().splitlines()) for path in (SRC / "hsiladder").glob("*.py"))
    print(f"src lines {lines}")
    print(f"prepare peak {prepare_peak // 1024} KiB")
    print(f"step peak {peak // 1024} KiB")
    print(f"sha256 {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

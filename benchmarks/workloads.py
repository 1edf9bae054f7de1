"""Workload definitions and the phases every benchmark run goes through.

All inputs come from a synthetic Pavia-shaped scene (103 bands, 9 classes)
that the benchmark generates from the workload seed.  The package under test
only ever sees those generated arrays (or, for ``scene-map``, the HSICUBE1
files written from them).  Every call below goes through a module
attribute (``data.prepare_dataset``, not a bound name) so that the tracer in
``spans.py`` sees it.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hsiladder import DivergenceError, LadderError, LadderNetwork, LadderSpec, LayerSpec, Rng
from hsiladder import cube_io, data, synthetic
from hsiladder import train as train_mod
from hsiladder.tensor import GradTape

BANDS = 103
CLASSES = 9
LABELS_PER_CLASS = 20
SCENE_NOISE = 0.1
SCENE_BLOCK = 16  # side of the square single-class regions
CORRUPTION_STD = 0.3
# reconstruction at every level, so the decoder runs down to the input
LAMBDAS = (1.0, 0.1, 0.1, 0.1, 0.1, 0.1)
LEARNING_RATE = 0.01
BATCH = 100  # labeled rows; as many unlabeled rows follow
EVAL_PATCHES = 1024
OA_FLOOR = 0.5  # 4.5x the 1/9 chance level
REF_SEED = 20181203
REF_STEPS = 4
REF_RTOL = {"f64": 1e-8, "f32": 1e-4}
SUM_ATOL = {"f64": 1e-9, "f32": 1e-4}
WARMUP_STEPS = 2
MIN_STEPS = 10
MIN_PREDICTIONS = 5


def conv_ladder_spec() -> LadderSpec:
    """7x7x15 PCA patches -> conv 90 -> conv 30 -> conv 15 -> fc 30 -> 9."""
    layers = (
        LayerSpec("conv3x3", 90),
        LayerSpec("conv3x3", 30),
        LayerSpec("conv3x3", 15),
        LayerSpec("fc", 30),
        LayerSpec("softmax_head", CLASSES, activation="none"),
    )
    return LadderSpec(layers, CORRUPTION_STD, LAMBDAS, (7, 7, 15))


def fc_ladder_spec() -> LadderSpec:
    """103 bands -> 300-200-100-100 -> 9."""
    layers = tuple(LayerSpec("fc", w) for w in (300, 200, 100, 100)) + (
        LayerSpec("softmax_head", CLASSES, activation="none"),
    )
    return LadderSpec(layers, CORRUPTION_STD, LAMBDAS, (BANDS,))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec: LadderSpec
    precision: str
    mode: str
    scene: int  # scene height and width in pixels
    window: int
    pca: int | None
    iterations: int  # of the one train() call
    via_files: bool  # write the scene as HSICUBE1 and read it back
    predict_map: bool

    @property
    def dtype(self):
        return np.float64 if self.precision == "f64" else np.float32


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "conv-ladder-f64",
            "paper conv ladder, ladder mode, f64: conv kernels, conv2d_transpose and the decoder dominate",
            conv_ladder_spec(), "f64", "ladder", 96, 7, 15, 60, False, False,
        ),
        Workload(
            "fc-ladder-f32",
            "FC ladder 103-300-200-100-100-9, f32: no convolution at all, elementwise ops, matmul and Adam",
            fc_ladder_spec(), "f32", "ladder", 96, 1, None, 300, False, False,
        ),
        Workload(
            "scene-map",
            "145x145x103 scene via HSICUBE1 files, supervised-only conv f32, checkpoints, full-map eval, no decoder",
            conv_ladder_spec(), "f32", "supervised-only", 145, 7, 15, 100, True, True,
        ),
    )
}


class Ledger:
    """Operations attempted and failed; a failure is a non-finite loss, a
    LadderError or a failed output check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)


@dataclass
class State:
    """Everything one set-up produces."""

    prep: data.PreparedData
    x_lab: np.ndarray
    y_lab: np.ndarray
    x_unlab: np.ndarray
    eval_x: np.ndarray
    net: object
    adam: object
    noise_rng: Rng
    batches: np.random.Generator
    use_decoder: bool
    lambdas: tuple
    precision: str


def setup(w: Workload, seed: int, work_dir: Path) -> State:
    """Scene -> (HSICUBE1 round trip) -> prepare_dataset -> input pools,
    held-out eval set, a fresh network and its optimizer."""
    cube = synthetic.make_synthetic_cube(
        seed, height=w.scene, width=w.scene, bands=BANDS, classes=CLASSES, noise=SCENE_NOISE,
        block=SCENE_BLOCK,
    )
    if w.via_files:
        cube_path, gt_path = work_dir / "scene.hsi", work_dir / "scene_gt.hsi"
        cube_io.write_array(cube_path, cube.reflectance)
        cube_io.write_array(gt_path, cube.ground_truth.astype(np.uint8))
        cube = data.load_cube(cube_path, gt_path, expected_classes=CLASSES, scale=False)
    prep = data.prepare_dataset(cube, w.window, w.pca, LABELS_PER_CLASS, seed=seed)
    patches, split = prep.patches, prep.split
    shape = w.spec.input_shape
    if len(split.test) < EVAL_PATCHES:
        raise LadderError(f"{len(split.test)} test patches, need {EVAL_PATCHES} for the eval set")
    pick = np.sort(np.random.default_rng([seed, 2]).choice(len(split.test), EVAL_PATCHES, replace=False))
    init_rng, noise_rng = Rng(seed).spawn(2)
    net = LadderNetwork(w.spec, init_rng, dtype=w.dtype)
    use_decoder = w.mode == "ladder"
    return State(
        prep=prep,
        x_lab=train_mod.batch_input(patches.patches[split.labeled_train], shape, w.dtype),
        y_lab=patches.labels[split.labeled_train],
        x_unlab=train_mod.batch_input(patches.patches[split.unlabeled_train], shape, w.dtype),
        eval_x=train_mod.batch_input(patches.patches[split.test[pick]], shape, w.dtype),
        net=net,
        adam=train_mod.Adam(net.params, LEARNING_RATE),
        noise_rng=noise_rng,
        batches=np.random.default_rng([seed, 1]),
        use_decoder=use_decoder,
        lambdas=w.spec.lambdas if use_decoder else tuple(0.0 for _ in w.spec.lambdas),
        precision=w.precision,
    )


def draw_batch(s: State) -> tuple[np.ndarray, np.ndarray]:
    """100 labeled rows (with replacement) followed by 100 unlabeled rows."""
    li = s.batches.integers(0, len(s.x_lab), BATCH)
    ui = s.batches.integers(0, len(s.x_unlab), BATCH)
    return np.concatenate([s.x_lab[li], s.x_unlab[ui]], axis=0), s.y_lab[li]


def train_step(s: State, batch: np.ndarray, targets: np.ndarray) -> float:
    """Forward, backward and one Adam step, as ``train()`` does them;
    returns the total loss."""
    s.net.zero_grads()
    with GradTape() as tape:
        c_total, _, _, _ = s.net.training_loss(
            batch, BATCH, targets, s.noise_rng, lambdas=s.lambdas, use_decoder=s.use_decoder
        )
    loss = c_total.item()
    if not np.isfinite(loss):
        raise DivergenceError(f"non-finite loss {loss}")
    tape.backward(c_total)
    s.adam.step()
    return loss


@dataclass
class LoopResult:
    step_ms: list[float]
    rates: list[float]  # patches/s of each prediction
    # per step and per prediction: the index of the probe sample that
    # followed it
    step_probe: list[int]
    rate_probe: list[int]


def measure_loop(
    s: State,
    seconds: float,
    ledger: Ledger,
    probe=None,
    eval_share: float = 0.0,
    recorder=None,
    warmup: int = WARMUP_STEPS,
) -> LoopResult:
    """Closed loop of training steps for ``seconds`` after ``warmup``
    untimed ones.

    With ``eval_share`` > 0, predictions on the held-out set are
    interleaved so that they take about that share of the steps' time; with
    a ``probe``, one machine-speed sample follows every step and every
    prediction.  With a recorder, each timed step is one ``bench.step``
    span.
    """
    for _ in range(warmup):
        train_step(s, *draw_batch(s))
    res = LoopResult([], [], [], [])
    step_s = eval_s = 0.0
    end = time.perf_counter() + seconds
    while (
        time.perf_counter() < end
        or len(res.step_ms) < MIN_STEPS
        or (eval_share > 0 and len(res.rates) < MIN_PREDICTIONS)
    ):
        next_probe = len(probe.samples) if probe is not None else -1
        if eval_share > 0 and eval_s <= eval_share * step_s:
            rate = predict_once(s.net, s.eval_x, s.precision, ledger)
            if rate is not None:
                res.rates.append(rate)
                res.rate_probe.append(next_probe)
                eval_s += len(s.eval_x) / rate
        else:
            batch, targets = draw_batch(s)
            idx = recorder.open("bench.step") if recorder is not None else None
            t0 = time.perf_counter()
            try:
                train_step(s, batch, targets)
                ok = True
            except LadderError:
                ok = False
            took = time.perf_counter() - t0
            if recorder is not None:
                recorder.close(idx)
            res.step_ms.append(took * 1e3)
            res.step_probe.append(next_probe)
            step_s += took
            ledger.record(ok, "training step: non-finite loss or LadderError")
        if probe is not None:
            probe.sample()
    return res


def reference_losses(w: Workload, work_dir: Path) -> list[float]:
    """Losses of REF_STEPS steps from REF_SEED inputs."""
    s = setup(w, REF_SEED, work_dir)
    return [train_step(s, *draw_batch(s)) for _ in range(REF_STEPS)]


def check_reference(w: Workload, work_dir: Path, stored: dict, ledger: Ledger) -> None:
    try:
        got = reference_losses(w, work_dir)
    except LadderError as e:
        ledger.record(False, f"reference run raised {e!r}")
        return
    want = stored[w.name]
    ok = len(got) == len(want) and np.allclose(got, want, rtol=REF_RTOL[w.precision], atol=0.0)
    ledger.record(ok, f"reference losses {got} differ from {want}")


@contextlib.contextmanager
def probing_after_adam_steps(probe):
    """Take one speed-probe sample after every ``Adam.step`` inside the
    block, so the probe covers the same stretch of time as ``train()``."""
    orig = vars(train_mod.Adam)["step"]

    def step(self, *args, **kwargs):
        orig(self, *args, **kwargs)
        probe.sample()

    train_mod.Adam.step = step
    try:
        yield
    finally:
        train_mod.Adam.step = orig


def run_train(w: Workload, s: State, seed: int, out_dir: Path, ledger: Ledger, probe=None):
    """One full ``train()`` call with periodic checkpoints; returns
    (net, report, wall seconds) or None when it raised.  With a probe, the
    wall time excludes the probe's own samples."""
    config = train_mod.TrainConfig(
        w.spec,
        LEARNING_RATE,
        w.iterations,
        seed,
        batch_size=BATCH,
        mode=w.mode,
        precision=w.precision,
        checkpoint_interval=w.iterations // 4,
    )
    probing = probing_after_adam_steps(probe) if probe is not None else contextlib.nullcontext()
    probed_ms = sum(probe.samples) if probe is not None else 0.0
    t0 = time.perf_counter()
    try:
        with probing:
            net, report = train_mod.train(config, s.prep.patches, s.prep.split, out_dir=out_dir)
    except LadderError as e:
        ledger.record(False, f"train() raised {e!r}")
        return None
    wall = time.perf_counter() - t0
    if probe is not None:
        wall -= (sum(probe.samples) - probed_ms) / 1e3
    ledger.record(bool(np.all(np.isfinite(report.c_total))), "train(): non-finite loss curve")
    ledger.record(report.oa > OA_FLOOR, f"train(): OA {report.oa:.4f} not above {OA_FLOOR}")
    return net, report, wall


def predict_once(net, eval_x: np.ndarray, precision: str, ledger: Ledger) -> float | None:
    """One prediction of the held-out set; returns patches/s and checks
    that every row of log-probabilities exponentiates to a sum of 1."""
    t0 = time.perf_counter()
    try:
        log_probs = net.predict_log_probs(eval_x)
        np.argmax(log_probs, axis=1)
    except LadderError as e:
        ledger.record(False, f"predict raised {e!r}")
        return None
    rate = len(eval_x) / (time.perf_counter() - t0)
    sums = np.exp(log_probs.astype(np.float64)).sum(axis=1)
    ledger.record(
        log_probs.shape == (len(eval_x), CLASSES)
        and bool(np.all(np.abs(sums - 1.0) <= SUM_ATOL[precision])),
        "predict: log-prob rows do not exponentiate to 1",
    )
    return rate


def check_map(w: Workload, s: State, net, ledger: Ledger) -> None:
    """Predict every pixel of the scene; the map must hold exactly one
    class label per pixel."""
    patches = s.prep.patches
    try:
        labels = net.predict(train_mod.batch_input(patches.patches, w.spec.input_shape, w.dtype))
    except LadderError as e:
        ledger.record(False, f"map prediction raised {e!r}")
        return
    rows, cols = patches.centers[:, 0], patches.centers[:, 1]
    flat = rows * w.scene + cols
    label_map = np.full((w.scene, w.scene), -1, dtype=np.int64)
    label_map[rows, cols] = labels
    ok = (
        len(labels) == w.scene * w.scene
        and np.unique(flat).size == flat.size
        and bool(np.all((label_map >= 0) & (label_map < CLASSES)))
    )
    ledger.record(ok, "scene map does not hold exactly one label per pixel")


def median(values) -> float:
    return float(statistics.median(values))

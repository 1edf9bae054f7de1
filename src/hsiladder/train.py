"""Adam training loop over mixed labeled/unlabeled batches.

Each iteration draws ``batch_size`` labeled patches (with replacement from
the few labeled training points) and ``batch_size`` unlabeled patches,
gathers their windows labeled-first straight into the net's dtype, runs the
ladder forward, and takes one Adam step on the total cost.  The supervised
cost sees only the labeled half; the reconstruction cost sees the whole
batch.  Modes:

    ladder           joint objective (the default)
    supervised-only  zero reconstruction weight; the decoder is skipped and
                     the clean pass only folds its batch statistics into
                     the running averages, off the tape
    sdae-pretrain    greedy layer-wise denoising-autoencoder pretraining on
                     unlabeled data, then supervised fine-tuning of the stack;
                     each autoencoder runs the ladder's own layer maps;
                     fine-tuning runs like supervised-only

Runs are bit-reproducible from (config, data, seed) in double precision, and
checkpoints capture params, optimizer moments, running statistics and RNG
states so a resumed run continues bit-identically.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from . import ops
from .errors import ConfigError, DataError, DivergenceError, as_index, as_real, first_non_finite, one_of
from .ladder import LadderNetwork, LadderSpec, batch_input, he_weight, sample_shape, transposed
from .rng import MAX_SEED, Rng, check_state_words
from .tensor import GradTape, Tensor

MODES = ("ladder", "supervised-only", "sdae-pretrain")
# Under ``lr_decay="linear"`` the learning rate falls linearly to 0 over this
# final fraction of the iterations.
LR_DECAY_FRACTION = 0.25
# Adam's moment decay rates and denominator guard, the defaults of Kingma &
# Ba 2015 (arXiv 1412.6980).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    ladder: LadderSpec
    learning_rate: float
    iterations: int
    seed: int
    batch_size: int = 100
    lr_decay: str = "none"  # "none" | "linear"
    mode: str = "ladder"
    precision: str = "f64"  # "f64" | "f32"
    pretrain_iterations: int = 500
    checkpoint_interval: int = 0

    def __post_init__(self):
        self.iterations = as_index("iterations", self.iterations, 1)
        self.seed = as_index("seed", self.seed, 0, MAX_SEED)
        self.batch_size = as_index("batch_size", self.batch_size, 2)
        self.pretrain_iterations = as_index("pretrain_iterations", self.pretrain_iterations, 0)
        self.checkpoint_interval = as_index("checkpoint_interval", self.checkpoint_interval, 0)
        self.learning_rate = as_real("learning_rate", self.learning_rate, positive=True)
        one_of("mode", self.mode, MODES)
        one_of("lr_decay", self.lr_decay, ("none", "linear"))
        one_of("precision", self.precision, ("f64", "f32"))

    @property
    def dtype(self):
        return np.float64 if self.precision == "f64" else np.float32


@dataclass
class TrainReport:
    c_super: np.ndarray
    c_recon: np.ndarray
    c_total: np.ndarray
    oa: float
    aa: float
    per_class: np.ndarray
    confusion: np.ndarray
    seed: int
    seconds: float
    config_echo: dict  # ``_resume_settings`` of the run's config

    def write(self, out_dir) -> None:
        """report.txt (key = value, settings as JSON) plus losses.csv (per-iteration curve)."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "report.txt", "w") as f:
            f.write(f"seed = {self.seed}\n")
            f.write(f"oa = {self.oa:.6f}\n")
            f.write(f"aa = {self.aa:.6f}\n")
            for i, acc in enumerate(self.per_class, start=1):
                f.write(f"class_{i}_accuracy = {acc:.6f}\n")
            f.write(f"seconds = {self.seconds:.3f}\n")
            f.write(f"iterations = {len(self.c_total)}\n")
            f.write(f"final_c_super = {self.c_super[-1]:.6f}\n")
            f.write(f"final_c_recon = {self.c_recon[-1]:.6f}\n")
            f.write(f"final_c_total = {self.c_total[-1]:.6f}\n")
            for k, v in self.config_echo.items():
                f.write(f"config.{k} = {json.dumps(v)}\n")
            f.write("confusion =\n")
            for row in self.confusion:
                f.write("  " + " ".join(str(int(v)) for v in row) + "\n")
        with open(out / "losses.csv", "w") as f:
            f.write("iteration,c_super,c_recon,c_total\n")
            curves = zip(self.c_super.tolist(), self.c_recon.tolist(), self.c_total.tolist())
            for i, (s, r, t) in enumerate(curves):
                f.write(f"{i},{s!r},{r!r},{t!r}\n")


class Adam:
    """Bias-corrected adaptive-moment optimizer over named parameters.

    The first and second moments of all parameters live in two flat buffers,
    ``flat_m`` and ``flat_v``, in parameter order.  A step gathers every
    gradient into one work buffer (zeros for a parameter without one),
    checks it for finiteness as a whole
    (:func:`~hsiladder.errors.first_non_finite`) and only then updates, so a
    step that raises ``DivergenceError`` leaves the parameters, the moments
    and ``t`` as they were.  The update is the per-parameter formula
    applied once to the whole buffer, with the same operations in the same
    order per element.  All parameters must share one dtype.
    """

    def __init__(self, params: dict[str, Tensor], lr: float):
        dtypes = {p.data.dtype for p in params.values()}
        if len(dtypes) != 1:
            raise ConfigError(f"Adam needs parameters of one dtype, got {sorted(map(str, dtypes))}")
        (dtype,) = dtypes
        self.lr = lr
        self.t = 0
        # (name, parameter, start, stop) of each parameter's slice
        self._spans = []
        start = 0
        for name, p in params.items():
            self._spans.append((name, p, start, start + p.data.size))
            start += p.data.size
        self.flat_m = np.zeros(start, dtype=dtype)
        self.flat_v = np.zeros(start, dtype=dtype)
        self._grad = np.empty(start, dtype=dtype)
        self._upd = np.empty(start, dtype=dtype)
        # what a parameter without a gradient reads: zeros that take no memory
        self._zeros = np.broadcast_to(np.zeros((), dtype), start)

    def step(self, lr_scale: float = 1.0) -> None:
        g, upd = self._grad, self._upd
        grads = [(n, self._zeros[: b - a] if p.grad is None else p.grad) for n, p, a, b in self._spans]
        bad = first_non_finite(grads, out=g)
        if bad is not None:
            raise DivergenceError(f"non-finite gradient for parameter {bad}")
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        m, v = self.flat_m, self.flat_v
        # m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*(g*g)
        m *= b1
        np.multiply(g, 1.0 - b1, out=upd)
        m += upd
        v *= b2
        np.multiply(g, g, out=g)
        g *= 1.0 - b2
        v += g
        # upd = (lr * lr_scale) * (m / bc1) / (sqrt(v / bc2) + eps)
        np.divide(v, bc2, out=g)
        np.sqrt(g, out=g)
        g += ADAM_EPS
        np.divide(m, bc1, out=upd)
        upd *= self.lr * lr_scale
        upd /= g
        for _, p, a, b in self._spans:
            p.data -= upd[a:b].reshape(p.data.shape)


def _lr_scale(config: TrainConfig, iteration: int) -> float:
    if config.lr_decay == "none":
        return 1.0
    start = int(config.iterations * (1.0 - LR_DECAY_FRACTION))
    if iteration < start:
        return 1.0
    return (config.iterations - iteration) / (config.iterations - start)


def check_rows(patchset, indices, what: str, num_classes: int | None = None) -> np.ndarray:
    """``indices`` as an array of rows of ``patchset``.  ``DataError``
    naming ``what`` unless there is at least one, each is an integer in
    ``[0, len(patchset))`` and, given ``num_classes``, each row's label is
    in ``[0, num_classes)``."""
    indices = np.asarray(indices)
    if indices.size == 0:
        raise DataError(f"{what} set is empty")
    if indices.ndim != 1 or not np.issubdtype(indices.dtype, np.integer):
        raise DataError(f"{what} indices must be 1-d integers, got {indices.dtype} {indices.shape}")
    n, lo, hi = len(patchset.labels), indices.min(), indices.max()
    if lo < 0 or hi >= n:
        raise DataError(f"{what} index {lo if lo < 0 else hi} out of range [0, {n})")
    if num_classes is not None:
        y = patchset.labels[indices]
        if y.min() < 0 or y.max() >= num_classes:
            raise DataError(f"{what} labels {y.min()}..{y.max()} out of range [0, {num_classes})")
    return indices


# ---------------------------------------------------------------------------
# checkpoint plumbing
# ---------------------------------------------------------------------------


CURVES = ("c_super", "c_recon", "c_total")
_RESUME_FIELDS = ("seed", "precision", "mode", "batch_size", "learning_rate", "lr_decay")


def _resume_settings(config: TrainConfig) -> dict:
    """The settings that decide a resumed trajectory, as JSON values.
    ``checkpoint_interval`` may differ on resume, and so may ``iterations``
    unless a linear LR decay places its start by it."""
    settings = {f"ladder.{k}": v for k, v in asdict(config.ladder).items()}
    for k in _RESUME_FIELDS:
        settings[k] = getattr(config, k)
    if config.lr_decay == "linear":
        settings["iterations"] = config.iterations
    return json.loads(json.dumps(settings))


def _checkpoint_entries(
    net: LadderNetwork, adam: Adam, noise_rng: Rng, batch_rng: Rng, config: TrainConfig, curves
):
    entries: dict[str, np.ndarray] = {}
    for name, p in net.params.items():
        entries[f"param/{name}"] = p.data
    for l, rs in net.running.items():
        entries[f"running/{l}/mean"] = rs.mean
        entries[f"running/{l}/var"] = rs.var
        entries[f"running/{l}/init"] = np.array([1 if rs.initialized else 0], dtype=np.uint64)
    entries["adam/m"] = adam.flat_m
    entries["adam/v"] = adam.flat_v
    entries["adam/t"] = np.array([adam.t], dtype=np.uint64)
    entries["rng/noise"] = noise_rng.state_words()
    entries["rng/batch"] = batch_rng.state_words()
    for name in CURVES:
        entries[f"curve/{name}"] = np.asarray(curves[name], dtype=np.float64)
    settings = json.dumps(_resume_settings(config), sort_keys=True).encode("utf-8")
    entries["config"] = np.frombuffer(settings, dtype=np.uint8)
    return entries


def save_checkpoint(path, net, adam, iteration, noise_rng, batch_rng, config, curves) -> None:
    """``curves`` maps each name in ``CURVES`` to its first ``iteration`` values."""
    entries = _checkpoint_entries(net, adam, noise_rng, batch_rng, config, curves)
    ckpt.save_entries(path, iteration, entries)


def load_checkpoint(path, net: LadderNetwork, adam: Adam, noise_rng: Rng, batch_rng: Rng, config):
    """Restore ``path`` into the live objects and return ``(iteration,
    curves)``.  All or nothing: before changing anything it refuses a
    checkpoint written under other trajectory settings (``ConfigError``
    naming the field), or one whose entries differ in name, shape or dtype
    from what ``save_checkpoint`` writes for these objects or whose RNG
    words no PCG64 state holds (``DataError``)."""
    iteration, entries = ckpt.load_entries(path)
    if "config" not in entries:
        raise DataError("checkpoint missing config")
    try:
        saved = json.loads(entries["config"].tobytes().decode("utf-8"))
    except ValueError:
        saved = None
    if not isinstance(saved, dict):
        raise DataError("checkpoint config is not a JSON object")
    current = _resume_settings(config)
    # in the order of ``_resume_settings``, so a changed ``lr_decay`` is
    # named before the ``iterations`` it brings in
    for key in [*current, *sorted(set(saved) - set(current))]:
        if saved.get(key) != current.get(key):
            raise ConfigError(
                f"cannot resume {path}: it was written with {key} = {saved.get(key)!r}, "
                f"this run has {key} = {current.get(key)!r}"
            )

    blank = {name: np.zeros(iteration) for name in CURVES}
    expected = _checkpoint_entries(net, adam, noise_rng, batch_rng, config, blank)
    del expected["config"]  # compared as settings above
    for key, want in expected.items():
        if key not in entries:
            raise DataError(f"checkpoint missing {key}")
        got = entries[key]
        if (got.shape, got.dtype) != (want.shape, want.dtype):
            raise DataError(
                f"checkpoint {key} has shape {got.shape} and dtype {got.dtype}, "
                f"model expects {want.shape} and {want.dtype}"
            )
    unknown = [key for key in entries if key not in expected and key != "config"]
    if unknown:
        raise DataError(f"checkpoint has entry {unknown[0]}, which this run never saves")
    for key in ("rng/noise", "rng/batch"):
        check_state_words(f"checkpoint {key}", entries[key])

    # the parameters, running statistics and moments are the live arrays;
    # the flags, counters and RNG states are read back from their copies
    for key, want in expected.items():
        want[...] = entries[key]
    for l, rs in net.running.items():
        rs.initialized = bool(expected[f"running/{l}/init"][0])
    adam.t = int(expected["adam/t"][0])
    noise_rng.set_state_words(expected["rng/noise"])
    batch_rng.set_state_words(expected["rng/batch"])
    return iteration, {name: expected[f"curve/{name}"] for name in CURVES}


# ---------------------------------------------------------------------------
# SDAE pretraining (layer-wise denoising autoencoders, then fine-tuning)
# ---------------------------------------------------------------------------


def _sdae_pretrain(
    net: LadderNetwork, config: TrainConfig, patches, unlabeled: np.ndarray, rng: Rng
):
    """Greedy layer-wise pretraining of the encoder weights on the
    ``unlabeled`` rows of ``patches``.

    Each non-head layer is trained as a denoising autoencoder: corrupt the
    layer input, encode with :meth:`LadderNetwork.layer_map` and a relu,
    decode with :meth:`LadderNetwork.layer_transpose` through a throwaway
    mirror weight, and minimize the squared reconstruction error.  The learned
    weights seed the encoder for the supervised fine-tuning stage.
    """
    dtype = net.dtype
    for depth in range(1, len(net.spec.layers)):  # every layer below the head
        w = net.params[f"enc{depth}/W"]
        w_dec = Tensor(he_weight(rng, transposed(w.data.shape), dtype), requires_grad=True)
        opt = Adam({"w": w, "w_dec": w_dec}, config.learning_rate)
        for _ in range(config.pretrain_iterations):
            idx = unlabeled[rng.gen.integers(0, len(unlabeled), config.batch_size)]
            h = Tensor(batch_input(patches, net.spec.input_shape, dtype, idx))
            for l in range(1, depth):
                h = ops.relu(net.layer_map(l, h))
            x = Tensor(h.data)  # a constant: this layer's input, off the tape
            with GradTape() as tape:
                noisy = ops.add_gaussian_noise(x, net.spec.noise_std, rng)
                enc = ops.relu(net.layer_map(depth, noisy))
                diff = ops.sub(net.layer_transpose(depth, enc, w_dec), x)
                loss = ops.mul(ops.sum_all(ops.square(diff)), 1.0 / x.data.size)
            if not np.isfinite(loss.item()):
                raise DivergenceError(f"SDAE pretraining diverged at layer {depth}")
            w.zero_grad()
            w_dec.zero_grad()
            tape.backward(loss)
            opt.step()


# ---------------------------------------------------------------------------
# the training loop
# ---------------------------------------------------------------------------


def train(
    config: TrainConfig,
    patchset,
    split,
    out_dir=None,
    resume=None,
) -> tuple[LadderNetwork, TrainReport]:
    """Train a fresh net on ``split``, then evaluate it on ``split.test``.

    Before iteration 0 and before ``out_dir`` exists, :func:`check_rows`
    refuses an empty or out-of-range labeled, unlabeled or test set, or a
    labeled or test label the head lacks (``DataError``), and patches that
    do not fit the input are refused (``ShapeError``).  ``out_dir`` gets
    ``last.ckpt`` every ``checkpoint_interval`` iterations (if > 0), then
    ``report.txt``, ``losses.csv`` and ``final.ckpt``.  ``resume`` names a
    checkpoint of the same spec, settings and array shapes, at an iteration
    <= ``iterations`` (:func:`load_checkpoint`); the run continues it
    bit-identically and does not pretrain again.
    """
    spec = config.ladder
    dtype = config.dtype
    root = Rng(config.seed)
    init_rng, noise_rng, batch_rng, pretrain_rng = root.spawn(4)
    net = LadderNetwork(spec, init_rng, dtype=dtype)

    k = spec.num_classes
    labeled = check_rows(patchset, split.labeled_train, "labeled", k)
    unlabeled = check_rows(patchset, split.unlabeled_train, "unlabeled")
    check_rows(patchset, split.test, "test", k)
    sample_shape(patchset.patches, spec.input_shape)

    adam = Adam(net.params, config.learning_rate)
    n_iter = config.iterations
    curves = {name: np.zeros(n_iter) for name in CURVES}
    start_iter = 0
    if resume is not None:
        start_iter, saved = load_checkpoint(resume, net, adam, noise_rng, batch_rng, config)
        if start_iter > n_iter:
            raise ConfigError(
                f"checkpoint {resume} is at iteration {start_iter}, past iterations={n_iter}"
            )
        for name in CURVES:
            curves[name][:start_iter] = saved[name]
    elif config.mode == "sdae-pretrain":
        _sdae_pretrain(net, config, patchset.patches, unlabeled, pretrain_rng)

    t0 = time.perf_counter()
    last_ckpt = None
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)

    for it in range(start_iter, n_iter):
        li = labeled[batch_rng.gen.integers(0, len(labeled), config.batch_size)]
        ui = unlabeled[batch_rng.gen.integers(0, len(unlabeled), config.batch_size)]
        batch = batch_input(patchset.patches, spec.input_shape, dtype, np.concatenate([li, ui]))
        targets = patchset.labels[li]
        net.zero_grads()
        with GradTape() as tape:
            c_total, c_super, c_recon, _ = net.training_loss(
                batch, config.batch_size, targets, noise_rng, use_decoder=config.mode == "ladder"
            )
        # the running statistics the clean pass just updated can overflow
        # while the loss stays finite
        bad = first_non_finite([("loss", c_total.data), *net.named_running_stats()])
        if bad is not None:
            raise DivergenceError(
                f"{bad} became non-finite at iteration {it}"
                + (f"; last checkpoint retained at {last_ckpt}" if last_ckpt else "")
            )
        tape.backward(c_total)
        adam.step(lr_scale=_lr_scale(config, it))
        curves["c_super"][it] = c_super.item()
        curves["c_recon"][it] = c_recon.item()
        curves["c_total"][it] = c_total.item()
        if (
            out_dir is not None
            and config.checkpoint_interval
            and (it + 1) % config.checkpoint_interval == 0
        ):
            last_ckpt = Path(out_dir) / "last.ckpt"
            so_far = {name: c[: it + 1] for name, c in curves.items()}
            save_checkpoint(last_ckpt, net, adam, it + 1, noise_rng, batch_rng, config, so_far)

    seconds = time.perf_counter() - t0
    report = TrainReport(
        **curves,
        **evaluate(net, patchset, split.test),
        seed=config.seed,
        seconds=seconds,
        config_echo=_resume_settings(config),
    )
    if out_dir is not None:
        report.write(out_dir)
        final = Path(out_dir) / "final.ckpt"
        save_checkpoint(final, net, adam, n_iter, noise_rng, batch_rng, config, curves)
    return net, report


def evaluate(net: LadderNetwork, patchset, test_indices) -> dict:
    """Clean-encoder eval metrics: OA, AA, per-class recall, confusion.

    One :meth:`~hsiladder.ladder.LadderNetwork.predict` of the test rows of
    ``patchset.patches``, which reads them a chunk at a time straight into
    the net's dtype."""
    k = net.spec.num_classes
    test_indices = check_rows(patchset, test_indices, "test", k)
    y_true = patchset.labels[test_indices]
    y_pred = net.predict(patchset.patches, test_indices)
    confusion = np.bincount(y_true * k + y_pred, minlength=k * k).reshape(k, k)
    return metrics_from_confusion(confusion)


def metrics_from_confusion(confusion: np.ndarray) -> dict:
    total = confusion.sum()
    if total == 0:
        raise DataError("confusion matrix is empty")
    oa = float(np.trace(confusion)) / float(total)
    row_sums = confusion.sum(axis=1)
    present = row_sums > 0
    per_class = np.zeros(len(confusion))
    per_class[present] = confusion.diagonal()[present] / row_sums[present]
    aa = float(per_class[present].mean())
    return {"oa": oa, "aa": aa, "per_class": per_class, "confusion": confusion}

"""Adam training loop over mixed labeled/unlabeled batches.

Each iteration draws ``batch_size`` labeled patches (with replacement from
the small labeled pool) and ``batch_size`` unlabeled patches, concatenates
them labeled-first, runs the ladder forward, and takes one Adam step on the
total cost.  The supervised cost sees only the labeled half; the
reconstruction cost sees the whole batch.  Modes:

    ladder           joint objective (the default)
    supervised-only  zero reconstruction weight, decoder skipped
    sdae-pretrain    greedy layer-wise denoising-autoencoder pretraining on
                     unlabeled data, then supervised fine-tuning of the stack

Runs are bit-reproducible from (config, data, seed) in double precision, and
checkpoints capture params, optimizer moments, running statistics and RNG
states so a resumed run continues bit-identically.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import checkpoint as ckpt
from . import ops
from .errors import ConfigError, DataError, DivergenceError, ShapeError
from .ladder import CONV3X3, SOFTMAX_HEAD, LadderNetwork, LadderSpec
from .rng import Rng
from .tensor import GradTape, Tensor

MODES = ("ladder", "supervised-only", "sdae-pretrain")


@dataclass
class TrainConfig:
    ladder: LadderSpec
    learning_rate: float
    iterations: int
    seed: int
    batch_size: int = 100
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    lr_decay: str = "none"  # "none" | "linear"
    lr_decay_fraction: float = 0.25
    mode: str = "ladder"
    precision: str = "f64"  # "f64" | "f32"
    grad_clip: float | None = None
    pretrain_iterations: int = 500
    checkpoint_interval: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.lr_decay not in ("none", "linear"):
            raise ConfigError(f"lr_decay must be 'none' or 'linear', got {self.lr_decay!r}")
        if self.precision not in ("f64", "f32"):
            raise ConfigError(f"precision must be 'f64' or 'f32', got {self.precision!r}")

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
    config_echo: dict

    def write(self, out_dir) -> None:
        """report.txt (key = value) plus losses.csv (per-iteration curve)."""
        from pathlib import Path

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
                f.write(f"config.{k} = {v}\n")
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
    ``flat_m`` and ``flat_v``, in parameter order; ``m[name]`` and
    ``v[name]`` are reshaped views of them, so code that reads or writes a
    moment by name (checkpoints) must write into the view, never rebind it.
    A step gathers every gradient into one work buffer (``None`` counts as
    zeros), checks it for finiteness as a whole and only then updates, so a
    step that raises ``DivergenceError`` leaves the parameters, the moments
    and ``t`` as they were.  The update is the per-parameter formula applied
    once to the whole buffer, with the same operations in the same order per
    element.  All parameters must share one dtype.
    """

    def __init__(self, params: dict[str, Tensor], lr: float, beta1=0.9, beta2=0.999, eps=1e-8):
        dtypes = {p.data.dtype for p in params.values()}
        if len(dtypes) != 1:
            raise ConfigError(f"Adam needs parameters of one dtype, got {sorted(map(str, dtypes))}")
        (dtype,) = dtypes
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        # (name, parameter, start, stop) of each parameter's slice
        self._spans = []
        start = 0
        for name, p in params.items():
            self._spans.append((name, p, start, start + p.data.size))
            start += p.data.size
        self.flat_m = np.zeros(start, dtype=dtype)
        self.flat_v = np.zeros(start, dtype=dtype)
        self.m = {n: self.flat_m[a:b].reshape(p.data.shape) for n, p, a, b in self._spans}
        self.v = {n: self.flat_v[a:b].reshape(p.data.shape) for n, p, a, b in self._spans}
        self._grad = np.empty(start, dtype=dtype)
        self._upd = np.empty(start, dtype=dtype)
        self._zero = np.zeros((), dtype=dtype)

    def step(self, lr_scale: float = 1.0) -> None:
        g, upd = self._grad, self._upd
        parts = [
            np.broadcast_to(self._zero, b - a) if p.grad is None else p.grad.reshape(-1)
            for _, p, a, b in self._spans
        ]
        np.concatenate(parts, out=g)
        if not np.isfinite(g).all():
            for name, _, a, b in self._spans:
                if not np.isfinite(g[a:b]).all():
                    raise DivergenceError(f"non-finite gradient for parameter {name}")
        self.t += 1
        b1, b2 = self.beta1, self.beta2
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
        g += self.eps
        np.divide(m, bc1, out=upd)
        upd *= self.lr * lr_scale
        upd /= g
        for _, p, a, b in self._spans:
            p.data -= upd[a:b].reshape(p.data.shape)


def clip_gradients(params: dict[str, Tensor], max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most ``max_norm``."""
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm:
        factor = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad = p.grad * factor
    return norm


def _lr_scale(config: TrainConfig, iteration: int) -> float:
    if config.lr_decay == "none":
        return 1.0
    start = int(config.iterations * (1.0 - config.lr_decay_fraction))
    if iteration < start:
        return 1.0
    return (config.iterations - iteration) / max(1, config.iterations - start)


def batch_input(patches: np.ndarray, input_shape: tuple, dtype) -> np.ndarray:
    """Reshape (n, w, w, c) patches to the model's input shape."""
    n = patches.shape[0]
    flat = int(np.prod(patches.shape[1:]))
    if len(input_shape) == 1:
        if flat != input_shape[0]:
            raise ShapeError(
                f"patches with {flat} values per sample do not fit input {input_shape}"
            )
        return patches.reshape(n, input_shape[0]).astype(dtype, copy=False)
    if patches.shape[1:] != input_shape:
        raise ShapeError(f"patch shape {patches.shape[1:]} does not match input {input_shape}")
    return patches.astype(dtype, copy=False)


# Source bytes that ``gather_input`` gathers and casts per step.  A sweep of
# 64 KiB-8 MiB on the benchmark's input pools was fastest at 256 KiB (8 MiB
# took 10-55% longer); see CHANGES.md.
GATHER_CHUNK_BYTES = 256 << 10


def gather_input(patches: np.ndarray, indices, input_shape: tuple, dtype) -> np.ndarray:
    """``batch_input(patches[indices], input_shape, dtype)`` for integer row
    ``indices``, gathered straight into ``dtype`` a chunk at a time, so an f32
    pool from f64 patches never holds a full-size f64 copy.  The values are
    the same."""
    indices = np.asarray(indices)
    out = np.empty((len(indices), *patches.shape[1:]), dtype=dtype)
    row_bytes = patches.itemsize * int(np.prod(patches.shape[1:]))
    rows = max(1, GATHER_CHUNK_BYTES // max(1, row_bytes))
    for i in range(0, len(indices), rows):
        out[i : i + rows] = patches[indices[i : i + rows]]
    return batch_input(out, input_shape, dtype)


# ---------------------------------------------------------------------------
# checkpoint plumbing
# ---------------------------------------------------------------------------


CURVES = ("c_super", "c_recon", "c_total")
_RESUME_FIELDS = (
    "seed", "precision", "mode", "batch_size", "learning_rate", "adam_beta1", "adam_beta2",
    "adam_eps", "lr_decay", "lr_decay_fraction", "grad_clip",
)


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
    for name in net.params:
        entries[f"adam/m/{name}"] = adam.m[name]
        entries[f"adam/v/{name}"] = adam.v[name]
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
    curves)``.  Refuses, before changing anything, a checkpoint written
    under other trajectory settings (``ConfigError`` naming the field)."""
    iteration, entries = ckpt.load_entries(path)

    def entry(key: str, shape: tuple) -> np.ndarray:
        if key not in entries:
            raise DataError(f"checkpoint missing {key}")
        if entries[key].shape != shape:
            raise DataError(f"checkpoint {key} has shape {entries[key].shape}, model expects {shape}")
        return entries[key]

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

    curves = {name: entry(f"curve/{name}", (iteration,)) for name in CURVES}
    for name, p in net.params.items():
        p.data = entry(f"param/{name}", p.data.shape).astype(p.data.dtype)
    for l, rs in net.running.items():
        rs.mean = entry(f"running/{l}/mean", rs.mean.shape).astype(rs.mean.dtype)
        rs.var = entry(f"running/{l}/var", rs.var.shape).astype(rs.var.dtype)
        rs.initialized = bool(entry(f"running/{l}/init", (1,))[0])
    for name in net.params:
        # write into the views of Adam's flat buffers, never rebind them
        adam.m[name][...] = entry(f"adam/m/{name}", adam.m[name].shape)
        adam.v[name][...] = entry(f"adam/v/{name}", adam.v[name].shape)
    adam.t = int(entry("adam/t", (1,))[0])
    noise_rng.set_state_words(entry("rng/noise", (6,)))
    batch_rng.set_state_words(entry("rng/batch", (6,)))
    return iteration, curves


# ---------------------------------------------------------------------------
# SDAE pretraining (layer-wise denoising autoencoders, then fine-tuning)
# ---------------------------------------------------------------------------


def _sdae_pretrain(net: LadderNetwork, config: TrainConfig, unlabeled: np.ndarray, rng: Rng):
    """Greedy layer-wise pretraining of the encoder weights on unlabeled data.

    Each non-head layer is trained as a denoising autoencoder (corrupt the
    layer input, encode, decode with a throwaway mirror weight, minimize the
    squared reconstruction error); the learned weights seed the encoder for
    the supervised fine-tuning stage.
    """
    spec = net.spec
    dtype = net.dtype

    def stack_forward(x: np.ndarray, depth: int) -> np.ndarray:
        h = Tensor(x, dtype=dtype)
        for l in range(1, depth + 1):
            layer = spec.layers[l - 1]
            w = net.params[f"enc{l}/W"]
            if layer.kind == CONV3X3:
                h = ops.relu(ops.conv2d(h, w))
            else:
                hin = ops.flatten(h) if h.data.ndim > 2 else h
                h = ops.relu(ops.matmul(hin, w))
        return h.data

    for depth, layer in enumerate(spec.layers, start=1):
        if layer.kind == SOFTMAX_HEAD:
            break
        w = net.params[f"enc{depth}/W"]
        if layer.kind == CONV3X3:
            dec_shape = (3, 3, layer.width, w.data.shape[2])
            fan = 9 * layer.width
        else:
            dec_shape = (layer.width, w.data.shape[0])
            fan = layer.width
        w_dec = Tensor(rng.normal(np.sqrt(2.0 / fan), dec_shape, dtype=dtype), requires_grad=True)
        opt = Adam(
            {"w": w, "w_dec": w_dec},
            config.learning_rate,
            config.adam_beta1,
            config.adam_beta2,
            config.adam_eps,
        )
        for _ in range(config.pretrain_iterations):
            idx = rng.integers(0, len(unlabeled), config.batch_size)
            x = stack_forward(unlabeled[idx], depth - 1)
            with GradTape() as tape:
                xt = Tensor(x, dtype=dtype)
                noisy = ops.add_gaussian_noise(xt, spec.noise_std, rng)
                if layer.kind == CONV3X3:
                    enc = ops.relu(ops.conv2d(noisy, w))
                    dec = ops.conv2d_transpose(enc, w_dec)
                else:
                    hin = ops.flatten(noisy) if noisy.data.ndim > 2 else noisy
                    enc = ops.relu(ops.matmul(hin, w))
                    dec = ops.matmul(enc, w_dec)
                    if x.ndim > 2:
                        dec = ops.reshape(dec, x.shape)
                diff = ops.sub(dec, xt)
                loss = ops.scale(ops.sum_all(ops.square(diff)), 1.0 / x.size)
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
    spec = config.ladder
    dtype = config.dtype
    root = Rng(config.seed)
    init_rng, noise_rng, batch_rng, pretrain_rng = root.spawn(4)
    net = LadderNetwork(spec, init_rng, dtype=dtype)

    labeled = split.labeled_train
    unlabeled = split.unlabeled_train if len(split.unlabeled_train) else split.labeled_train
    if len(labeled) == 0:
        raise DataError("split has no labeled training points")
    x_labeled = gather_input(patchset.patches, labeled, spec.input_shape, dtype)
    y_labeled = patchset.labels[labeled]
    x_unlabeled = gather_input(patchset.patches, unlabeled, spec.input_shape, dtype)

    adam = Adam(
        net.params, config.learning_rate, config.adam_beta1, config.adam_beta2, config.adam_eps
    )
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
        _sdae_pretrain(net, config, x_unlabeled, pretrain_rng)

    use_decoder = config.mode == "ladder"
    lambdas = spec.lambdas if use_decoder else tuple(0.0 for _ in spec.lambdas)

    t0 = time.perf_counter()
    last_ckpt = None
    from pathlib import Path

    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)

    for it in range(start_iter, n_iter):
        li = batch_rng.integers(0, len(x_labeled), config.batch_size)
        ui = batch_rng.integers(0, len(x_unlabeled), config.batch_size)
        batch = np.concatenate([x_labeled[li], x_unlabeled[ui]], axis=0)
        targets = y_labeled[li]
        net.zero_grads()
        with GradTape() as tape:
            c_total, c_super, c_recon, _ = net.training_loss(
                batch,
                config.batch_size,
                targets,
                noise_rng,
                lambdas=lambdas,
                use_decoder=use_decoder,
            )
        total_val = c_total.item()
        if not np.isfinite(total_val):
            raise DivergenceError(
                f"loss became non-finite at iteration {it}"
                + (f"; last checkpoint retained at {last_ckpt}" if last_ckpt else "")
            )
        tape.backward(c_total)
        if config.grad_clip is not None:
            clip_gradients(net.params, config.grad_clip)
        adam.step(lr_scale=_lr_scale(config, it))
        curves["c_super"][it] = c_super.item()
        curves["c_recon"][it] = c_recon.item()
        curves["c_total"][it] = total_val
        if (
            out_dir is not None
            and config.checkpoint_interval
            and (it + 1) % config.checkpoint_interval == 0
        ):
            last_ckpt = Path(out_dir) / "last.ckpt"
            so_far = {name: c[: it + 1] for name, c in curves.items()}
            save_checkpoint(last_ckpt, net, adam, it + 1, noise_rng, batch_rng, config, so_far)

    seconds = time.perf_counter() - t0
    metrics = evaluate(net, patchset, split.test)
    report = TrainReport(
        c_super=curves["c_super"],
        c_recon=curves["c_recon"],
        c_total=curves["c_total"],
        oa=metrics["oa"],
        aa=metrics["aa"],
        per_class=metrics["per_class"],
        confusion=metrics["confusion"],
        seed=config.seed,
        seconds=seconds,
        config_echo={
            "mode": config.mode,
            "learning_rate": config.learning_rate,
            "batch_size": config.batch_size,
            "iterations": config.iterations,
            "noise_std": spec.noise_std,
            "lambdas": ",".join(repr(v) for v in spec.lambdas),
            "precision": config.precision,
        },
    )
    if out_dir is not None:
        report.write(out_dir)
        final = Path(out_dir) / "final.ckpt"
        save_checkpoint(final, net, adam, n_iter, noise_rng, batch_rng, config, curves)
    return net, report


def evaluate(net: LadderNetwork, patchset, test_indices) -> dict:
    """Clean-encoder eval metrics: OA, AA, per-class recall, confusion."""
    test_indices = np.asarray(test_indices)
    if test_indices.size == 0:
        raise DataError("empty test set")
    x = gather_input(patchset.patches, test_indices, net.spec.input_shape, net.dtype)
    y_true = patchset.labels[test_indices]
    k = net.spec.num_classes
    if y_true.min() < 0 or y_true.max() >= k:
        raise DataError(f"test labels {y_true.min()}..{y_true.max()} out of range [0, {k})")
    y_pred = net.predict(x)
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

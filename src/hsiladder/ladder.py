"""Ladder network: twin encoders, lateral-combinator decoder, and costs.

The model runs a corrupted encoder pass (Gaussian noise on the input and on
every post-normalization pre-activation), a clean pass over the same batch
(kept off the tape when no decoder reads it), and a top-down decoder that
merges each corrupted lateral signal with the decoded top-down signal
through a learned pointwise combinator.  Training minimizes the supervised
cross-entropy of the corrupted pass plus per-level weighted reconstruction
distances between the clean representations and the decoded ones.
Prediction always uses the clean encoder with running batch-norm statistics.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from . import kernels, ops
from .data import WindowReader, gather_rows
from .errors import ConfigError, GraphError, ShapeError, as_index, as_real, first_non_finite, one_of
from .rng import Rng
from .tensor import Tensor, untaped

FC = "fc"
CONV3X3 = "conv3x3"
SOFTMAX_HEAD = "softmax_head"
_KINDS = (FC, CONV3X3, SOFTMAX_HEAD)

# Default prediction chunk: as many samples as keep the largest per-sample
# intermediate (a conv level's im2col or output row, a dense level's wider
# side) within this many bytes.  Chosen by a sweep of 1-64 MiB on the
# benchmark's conv and FC ladders (see CHANGES.md).
PREDICT_CHUNK_BYTES = 8 << 20

# Weight of the old value in the running averages of batch statistics.
BN_MOMENTUM = 0.99

COMBINATOR_PARAM_NAMES = tuple(f"a{i}" for i in range(1, 11))
# (a1..a5) shape the sigmoid-affine mean, (a6..a10) the gate; these values
# start the combinator at identity-in-z_tilde.
COMBINATOR_INIT = (0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0)


def transposed(shape: tuple[int, ...]) -> tuple[int, ...]:
    """``shape`` with its last two axes swapped: the weight that maps a
    layer's output back to its input."""
    return (*shape[:-2], shape[-1], shape[-2])


def sample_shape(patches, input_shape: tuple) -> tuple:
    """The shape one of ``patches`` takes as model input: ``input_shape``,
    which must equal the patch shape or, for a flat input, hold as many
    values; else ``ShapeError``."""
    if len(input_shape) == 1:
        flat = math.prod(patches.shape[1:])
        if flat != input_shape[0]:
            raise ShapeError(
                f"patches with {flat} values per sample do not fit input {input_shape}"
            )
    elif patches.shape[1:] != input_shape:
        raise ShapeError(f"patch shape {patches.shape[1:]} does not match input {input_shape}")
    return tuple(input_shape)


def batch_input(patches, input_shape: tuple, dtype, rows=None) -> np.ndarray:
    """(n, w, w, c) patches (an array or a ``WindowReader``), or their
    integer ``rows``, as ``dtype`` in the :func:`sample_shape` input shape.
    A reader, ``reader[rows]`` included, and the ``rows`` of an array are
    gathered and cast a chunk at a time by ``gather_rows``, so f32 input
    from f64 patches holds no full-size f64 copy; ``batch_input(reader[rows],
    ...)`` and ``batch_input(reader, ..., rows)`` are the same bits.  Without
    ``rows`` an array already in ``dtype`` comes back as a view, not a
    copy."""
    shape = sample_shape(patches, input_shape)
    out = np.asarray(patches, dtype) if rows is None else gather_rows(patches, rows, dtype)
    return out.reshape(len(out), *shape)


def he_weight(rng: Rng, shape: tuple[int, ...], dtype) -> np.ndarray:
    """N(0, 2 / fan_in) weights with ``fan_in = prod(shape[:-1])``, the inputs
    that feed one output unit (He et al. 2015, arXiv 1502.01852)."""
    return rng.normal(math.sqrt(2.0 / math.prod(shape[:-1])), shape, dtype=dtype)


def check_lambdas(values, levels: int) -> tuple[float, ...]:
    """``values`` as a tuple of floats after checking the cost's rule: one
    finite multiplier lambda_l >= 0 per level 0..L; else ``ConfigError``."""
    lambdas = tuple(as_real("lambdas", v) for v in values)
    if len(lambdas) != levels:
        raise ConfigError(
            f"need {levels} denoising multipliers (input level + one per layer), got {len(lambdas)}"
        )
    return lambdas


@dataclass(frozen=True)
class LayerSpec:
    kind: str
    width: int
    activation: str = "relu"  # "relu" | "none"

    def __post_init__(self):
        one_of("kind", self.kind, _KINDS)
        object.__setattr__(self, "width", as_index("width", self.width, 1))
        one_of("activation", self.activation, ("relu", "none"))


@dataclass(frozen=True)
class LadderSpec:
    layers: tuple[LayerSpec, ...]
    noise_std: float
    lambdas: tuple[float, ...]
    input_shape: tuple[int, ...]
    normalize_targets: bool = True  # standardize decoded signals by the clean
    # batch statistics before the reconstruction distance

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(
            self, "input_shape", tuple(as_index("input_shape", v, 1) for v in self.input_shape)
        )
        if not self.layers:
            raise ConfigError("ladder needs at least one layer")
        if self.layers[-1].kind != SOFTMAX_HEAD:
            raise ConfigError("final layer must be a softmax head")
        if any(l.kind == SOFTMAX_HEAD for l in self.layers[:-1]):
            raise ConfigError("softmax head must be the final layer only")
        object.__setattr__(self, "noise_std", as_real("noise_std", self.noise_std))
        object.__setattr__(self, "lambdas", check_lambdas(self.lambdas, self.num_levels))
        if len(self.input_shape) not in (1, 3):
            raise ConfigError(f"input_shape must be (features,) or (h, w, c), got {self.input_shape}")
        self.level_shapes()  # a conv layer needs a spatial input at least 3x3

    @property
    def num_levels(self) -> int:
        return len(self.layers) + 1

    @property
    def num_classes(self) -> int:
        return self.layers[-1].width

    def level_shapes(self) -> list[tuple[int, ...]]:
        """Per-sample representation shape at every level 0..L; a conv
        layer on a flat input or on one smaller than 3x3 raises
        ``ConfigError`` (when the spec is built)."""
        shapes = [self.input_shape]
        cur = self.input_shape
        for i, layer in enumerate(self.layers, start=1):
            if layer.kind == CONV3X3:
                if len(cur) != 3:
                    raise ConfigError(f"layer {i}: conv3x3 needs a spatial input, got shape {cur}")
                h, w, _ = cur
                if h < 3 or w < 3:
                    raise ConfigError(f"layer {i}: 3x3 kernel larger than input {h}x{w}")
                cur = (h - 2, w - 2, layer.width)
            else:
                cur = (layer.width,)
            shapes.append(cur)
        return shapes


@dataclass
class RunningStats:
    """Exponential averages of one level's clean-pass batch statistics;
    prediction normalizes by them."""

    mean: np.ndarray
    var: np.ndarray
    initialized: bool = False

    def update(self, mean: np.ndarray, var: np.ndarray) -> None:
        if not self.initialized:
            # first batch seeds the averages so early predictions are not
            # pulled toward the arbitrary (0, 1) prior
            self.mean = mean.astype(self.mean.dtype)
            self.var = var.astype(self.var.dtype)
            self.initialized = True
            return
        self.mean = BN_MOMENTUM * self.mean + (1.0 - BN_MOMENTUM) * mean
        self.var = BN_MOMENTUM * self.var + (1.0 - BN_MOMENTUM) * var


def combinator_g(z_tilde: Tensor, u: Tensor, unit_params: dict[str, Tensor]) -> Tensor:
    """Pointwise lateral merge: (z_tilde - mu(u)) * v(u) + mu(u).

    mu(u) = a1*sigmoid(a2*u + a3) + a4*u + a5 and
    v(u)  = a6*sigmoid(a7*u + a8) + a9*u + a10, with one learned scalar per
    unit for each of a1..a10.
    """
    if z_tilde.shape != u.shape:
        raise ShapeError(f"combinator operands differ: {z_tilde.shape} vs {u.shape}")
    p = unit_params
    mu = ops.add(
        ops.mul(p["a1"], ops.sigmoid(ops.add(ops.mul(p["a2"], u), p["a3"]))),
        ops.add(ops.mul(p["a4"], u), p["a5"]),
    )
    v = ops.add(
        ops.mul(p["a6"], ops.sigmoid(ops.add(ops.mul(p["a7"], u), p["a8"]))),
        ops.add(ops.mul(p["a9"], u), p["a10"]),
    )
    return ops.add(ops.mul(ops.sub(z_tilde, mu), v), mu)


class LadderNetwork:
    """Parameters plus the passes; one instance per training run."""

    def __init__(self, spec: LadderSpec, rng: Rng, dtype=np.float64):
        self.spec = spec
        self.dtype = one_of("dtype", np.dtype(dtype), (np.dtype(np.float32), np.dtype(np.float64)))
        self.level_shapes = spec.level_shapes()
        self.params: dict[str, Tensor] = {}
        self.running: dict[int, RunningStats] = {}
        self._init_params(rng)

    # -- construction -------------------------------------------------------

    def _init_params(self, rng: Rng) -> None:
        spec = self.spec
        for l in range(1, spec.num_levels):
            self.params[f"enc{l}/W"] = Tensor(
                he_weight(rng, self.weight_shape(l), self.dtype), requires_grad=True
            )
            feat = self._level_features(l)
            self.params[f"enc{l}/gamma"] = Tensor(np.ones(feat, dtype=self.dtype), requires_grad=True)
            self.params[f"enc{l}/beta"] = Tensor(np.zeros(feat, dtype=self.dtype), requires_grad=True)
            self.running[l] = RunningStats(np.zeros(feat, self.dtype), np.ones(feat, self.dtype))
        for l in range(1, spec.num_levels):
            # dec{l}/V maps level l back to level l-1
            self.params[f"dec{l}/V"] = Tensor(
                he_weight(rng, transposed(self.weight_shape(l)), self.dtype), requires_grad=True
            )
        for l in range(spec.num_levels):
            feat = self._level_features(l)
            for name, init in zip(COMBINATOR_PARAM_NAMES, COMBINATOR_INIT):
                self.params[f"comb{l}/{name}"] = Tensor(
                    np.full(feat, init, dtype=self.dtype), requires_grad=True
                )

    def _level_features(self, l: int) -> int:
        """Trailing (per-unit) dimension at level l: channels for conv
        levels, units for dense levels."""
        return self.level_shapes[l][-1]

    # -- one definition per layer kind ----------------------------------------

    def weight_shape(self, l: int) -> tuple[int, ...]:
        """Shape of ``enc{l}/W``: ``(3, 3, c_in, width)`` for a conv layer,
        ``(fan_in, width)`` over the flattened level l-1 otherwise."""
        layer = self.spec.layers[l - 1]
        below = self.level_shapes[l - 1]
        if layer.kind == CONV3X3:
            return (3, 3, below[2], layer.width)
        return (math.prod(below), layer.width)

    def layer_map(self, l: int, h: Tensor) -> Tensor:
        """Level l-1 to layer l's pre-activation: a valid 3x3 convolution by
        ``enc{l}/W``, or a matmul by it after flattening a spatial input."""
        w = self.params[f"enc{l}/W"]
        if self.spec.layers[l - 1].kind == CONV3X3:
            return ops.conv2d(h, w)
        return ops.matmul(ops.reshape(h, (len(h.data), -1)) if h.data.ndim > 2 else h, w)

    def layer_transpose(self, l: int, h: Tensor, v: Tensor) -> Tensor:
        """Level l back to level l-1 through ``v``, a weight of shape
        ``transposed(weight_shape(l))``: a transposed 3x3 convolution, or a
        matmul reshaped to level l-1 when that level is spatial."""
        if self.spec.layers[l - 1].kind == CONV3X3:
            return ops.conv2d_transpose(h, v)
        out = ops.matmul(h, v)
        below = self.level_shapes[l - 1]
        if len(below) == 3:
            out = ops.reshape(out, (h.data.shape[0], *below))
        return out

    def combinator_params(self, l: int) -> dict[str, Tensor]:
        return {name: self.params[f"comb{l}/{name}"] for name in COMBINATOR_PARAM_NAMES}

    def zero_grads(self) -> None:
        for t in self.params.values():
            t.zero_grad()

    def named_running_stats(self) -> list[tuple[str, np.ndarray]]:
        """Each level's running mean and variance, named for ``first_non_finite``."""
        levels = ((f"running statistics of level {l}", rs) for l, rs in self.running.items())
        return [(name, a) for name, rs in levels for a in (rs.mean, rs.var)]

    def assert_finite_params(self) -> None:
        """Raise ``GraphError`` naming the first parameter (in ``params``
        order), else the first of :meth:`named_running_stats`, that holds a
        NaN or an infinity; prediction calls it first.  Signed zeros and
        subnormals are finite and pass."""
        params = [(f"parameter {name}", t.data) for name, t in self.params.items()]
        bad = first_non_finite(params + self.named_running_stats())
        if bad is not None:
            raise GraphError(f"non-finite values in {bad}")

    # -- encoder ------------------------------------------------------------

    def _encode(self, x: Tensor, corrupted: bool, rng: Rng | None = None):
        """Shared encoder walk; every batchnorm uses batch statistics, and the
        clean pass folds them into ``self.running``.

        Returns (z levels 0..L, top activation, log-probabilities).
        """
        spec = self.spec
        # exactly the input shape, not just as many values: an (n, 1, 1, c)
        # batch for a flat input would broadcast in the level-0 cost
        if x.data.shape[1:] != spec.input_shape:
            raise ShapeError(
                f"input sample shape {x.data.shape[1:]} does not match model input {spec.input_shape}"
            )
        noise = spec.noise_std if corrupted else 0.0
        if corrupted:
            if rng is None:
                raise ConfigError("corrupted pass needs an Rng")
            h = ops.add_gaussian_noise(x, noise, rng)
        else:
            h = x
        zs: list[Tensor] = [h]
        y_logp: Tensor | None = None
        for l, layer in enumerate(spec.layers, start=1):
            z, batch_mean, batch_var = ops.batchnorm(self.layer_map(l, h))
            if corrupted:
                z = ops.add_gaussian_noise(z, noise, rng)
            else:
                self.running[l].update(batch_mean, batch_var)
            zs.append(z)
            scaled = ops.mul(
                self.params[f"enc{l}/gamma"], ops.add(z, self.params[f"enc{l}/beta"])
            )
            if layer.kind == SOFTMAX_HEAD:
                y_logp = ops.log_softmax(scaled)
                h = ops.exp(y_logp)  # probabilities feed the decoder top
            elif layer.activation == "relu":
                h = ops.relu(scaled)
            else:
                h = scaled
        return zs, h, y_logp

    def corrupted_encoder(self, x: Tensor, rng: Rng):
        """Noisy training pass; returns (z_tilde levels, top activation,
        corrupted log-probabilities)."""
        return self._encode(x, corrupted=True, rng=rng)

    def clean_encoder(self, x: Tensor):
        """Noise-free training pass, normalized by batch statistics; returns
        (z levels, log-probabilities) and folds each level's batch
        pre-activation mean and variance into ``self.running``.
        :meth:`training_loss` runs it on the tape when the decoder reads its
        levels as reconstruction targets, and in an ``untaped`` block
        otherwise.  Prediction does not come here (see
        :meth:`predict_log_probs`)."""
        zs, _, y_logp = self._encode(x, corrupted=False)
        return zs, y_logp

    # -- decoder ------------------------------------------------------------

    def decoder(
        self,
        z_tilde: list[Tensor],
        h_top: Tensor,
        min_level: int = 0,
    ) -> dict[int, Tensor]:
        """Top-down reconstruction from the corrupted pass.

        Returns decoded levels L down to ``min_level`` (levels below the
        lowest one with a nonzero cost multiplier can be skipped).
        """
        top = len(self.spec.layers)
        u, _, _ = ops.batchnorm(h_top)
        z_hat: dict[int, Tensor] = {top: combinator_g(z_tilde[top], u, self.combinator_params(top))}
        for l in range(top - 1, min_level - 1, -1):
            u, _, _ = ops.batchnorm(
                self.layer_transpose(l + 1, z_hat[l + 1], self.params[f"dec{l + 1}/V"])
            )
            z_hat[l] = combinator_g(z_tilde[l], u, self.combinator_params(l))
        return z_hat

    # -- costs --------------------------------------------------------------

    def reconstruction_cost(
        self,
        z_clean: list[Tensor],
        z_hat: dict[int, Tensor],
        lambdas=None,
    ) -> Tensor:
        """Sum over levels of lambda_l * ||z_l - z_hat_l||^2 / units_l,
        averaged over the batch; zero-multiplier levels contribute exactly 0
        and record nothing.

        Under ``spec.normalize_targets`` each z_hat_l above the input level
        is first standardized by the batch mean and std (eps ``BN_EPS``) of
        the clean z_l over every axis but the last, computed here on the
        tape.  ``lambdas`` overrides ``spec.lambdas``; ``ConfigError`` if
        :func:`check_lambdas` fails."""
        spec = self.spec
        lambdas = spec.lambdas if lambdas is None else check_lambdas(lambdas, spec.num_levels)
        batch = z_clean[0].data.shape[0]
        total: Tensor | None = None
        for l, lam in enumerate(lambdas):
            if lam == 0.0:
                continue
            if l not in z_hat:
                raise GraphError(f"decoder did not produce level {l} needed by lambda_{l}")
            zh, z = z_hat[l], z_clean[l]
            if spec.normalize_targets and l > 0:
                axes = tuple(range(z.data.ndim - 1))
                mu = ops.reduce_mean(z, axes)
                var = ops.reduce_mean(ops.square(ops.sub(z, mu)), axes)
                zh = ops.div(ops.sub(zh, mu), ops.sqrt(ops.add(var, ops.BN_EPS)))
            diff = ops.sub(zh, z)
            units = int(np.prod(self.level_shapes[l]))
            level_cost = ops.mul(ops.sum_all(ops.square(diff)), lam / (units * batch))
            total = level_cost if total is None else ops.add(total, level_cost)
        if total is None:
            total = Tensor(np.asarray(0.0, dtype=self.dtype))
        return total

    @staticmethod
    def supervised_cost(y_tilde: Tensor, targets: np.ndarray) -> Tensor:
        """Mean negative log-likelihood of the corrupted-pass predictions on
        the labeled sub-batch; ``ShapeError`` when it is empty."""
        return ops.nll_loss(y_tilde, targets)

    def training_loss(
        self,
        batch: np.ndarray,
        labeled_count: int,
        targets: np.ndarray,
        rng: Rng,
        lambdas=None,
        use_decoder: bool = True,
    ):
        """One mixed-batch forward: labeled rows first, unlabeled after.

        ``lambdas`` overrides ``spec.lambdas``; ``ConfigError`` if :func:`check_lambdas` fails.
        The levels with a positive multiplier, none when ``use_decoder`` is
        False, decide whether :meth:`clean_encoder` runs on the tape or in an
        ``untaped`` block, how far down the decoder runs, and the cost.
        Returns (c_total, c_super, c_recon, z_hat), ``z_hat`` being the
        decoded levels (``{}`` without a decoder).
        """
        spec = self.spec
        lambdas = spec.lambdas if lambdas is None else check_lambdas(lambdas, spec.num_levels)
        active = [l for l, lam in enumerate(lambdas) if lam > 0.0] if use_decoder else []
        x = Tensor(batch, dtype=self.dtype)
        z_tilde, h_top, y_tilde = self.corrupted_encoder(x, rng)
        # without a decoder the clean pass only folds its batch statistics
        with contextlib.nullcontext() if active else untaped():
            z_clean, _ = self.clean_encoder(x)
        c_super = self.supervised_cost(ops.slice_rows(y_tilde, labeled_count), targets)
        if active:
            z_hat = self.decoder(z_tilde, h_top, min_level=active[0])
            c_recon = self.reconstruction_cost(z_clean, z_hat, lambdas)
        else:
            z_hat, c_recon = {}, Tensor(np.asarray(0.0, dtype=self.dtype))
        return ops.add(c_recon, c_super), c_super, c_recon, z_hat

    # -- inference ----------------------------------------------------------

    def predict_log_probs(self, x, rows=None) -> np.ndarray:
        """Clean-encoder log-probabilities under the running batch-norm
        statistics (deterministic) of the patches ``x``, a chunk of rows at
        a time.

        ``x`` is an array or a :class:`~hsiladder.data.WindowReader` in any
        float dtype whose samples fit :func:`sample_shape`.  ``rows`` picks
        rows of ``x`` as numpy indexes its first axis; by default every row
        is read.  Each chunk of :meth:`predict_chunk_rows` rows becomes
        input on its own, as :func:`batch_input` of ``x[sel]`` for the
        chunk's slice or its chunk of ``rows`` (a reader's selection reads
        its windows there), so only one chunk's input exists at a time and
        an array already in the net's dtype is read in place.  The result is
        the same bits as predicting ``batch_input(x, ..., rows)``.

        A plain numpy walk without a tape.  Under fixed running statistics
        each level's batch-norm, beta shift and gamma scale is one per-unit
        affine map, ``gamma * ((z - mean) / sqrt(var + eps) + beta) = s*z + t``
        with ``s = gamma / sqrt(var + eps)`` and
        ``t = gamma * (beta - mean / sqrt(var + eps))`` (Ioffe & Szegedy 2015,
        arXiv 1502.03167, sec. 3.1).  The scale is folded into the weights
        once per call, ``W' = W * s`` along the output-unit axis, so each
        level costs one convolution or matmul by ``W'``, one ``+= t`` and an
        in-place relu; the head goes through log-softmax.

        The fold reorders the float operations, so the result is no longer
        bit-identical to composing ``ops.conv2d``/``ops.matmul``,
        ``ops.batchnorm``, ``ops.add``, ``ops.mul`` and ``ops.relu`` on a
        tape: after 30 training steps of the benchmark's conv and FC ladders
        the log-probabilities of their 1024-patch eval sets differ from that
        composition by at most 1.1e-13 in f64 and 5.3e-5 in f32, with the
        same argmax.
        """
        self.assert_finite_params()
        if not isinstance(x, WindowReader):
            x = np.asarray(x)
        shape = sample_shape(x, self.spec.input_shape)
        if rows is not None:
            rows = np.arange(len(x))[rows]
        folded = []
        for l, layer in enumerate(self.spec.layers, start=1):
            gamma = self.params[f"enc{l}/gamma"].data
            std = np.sqrt(self.running[l].var + ops.BN_EPS)
            t = gamma * (self.params[f"enc{l}/beta"].data - self.running[l].mean / std)
            folded.append((layer, self.params[f"enc{l}/W"].data * (gamma / std), t))
        chunk = self.predict_chunk_rows()
        n = len(x) if rows is None else len(rows)
        out = np.empty((n, self.spec.num_classes), dtype=self.dtype)
        for i in range(0, n, chunk):
            sel = slice(i, i + chunk) if rows is None else rows[i : i + chunk]
            h = batch_input(x[sel], shape, self.dtype)
            for layer, w, t in folded:
                # layer_map on plain arrays
                if layer.kind == CONV3X3:
                    z = kernels.conv2d_forward(h, w)
                else:
                    z = h.reshape(len(h), -1) @ w
                z += t
                if layer.kind == SOFTMAX_HEAD:
                    out[i : i + chunk] = ops._log_softmax(z)
                elif layer.activation == "relu":
                    np.maximum(z, 0, out=z)
                h = z
        return out

    def predict_chunk_rows(self) -> int:
        """Samples per chunk of :meth:`predict_log_probs`: as many as keep
        the largest per-sample intermediate within
        :data:`PREDICT_CHUNK_BYTES`.  That is the wider of a conv level's
        im2col row (``oh*ow*kh*kw*ci`` values) and output row (``oh*ow*co``),
        or the wider side of a dense level, in the network's dtype.  It
        keeps the working set near the CPU caches instead of growing with
        the batch."""
        widest = 1  # values in the largest per-sample intermediate
        for l, layer in enumerate(self.spec.layers, start=1):
            shape = self.weight_shape(l)
            if layer.kind == CONV3X3:
                # the im2col row or the output row, whichever is wider
                oh, ow, co = self.level_shapes[l]
                widest = max(widest, oh * ow * max(math.prod(shape[:3]), co))
            else:
                widest = max(widest, *shape)
        return max(1, PREDICT_CHUNK_BYTES // (widest * self.dtype.itemsize))

    def predict(self, x, rows=None) -> np.ndarray:
        """Class indices via the clean encoder (no noise anywhere): the
        argmax of :meth:`predict_log_probs` of ``x`` or of its ``rows``."""
        return np.argmax(self.predict_log_probs(x, rows), axis=1)

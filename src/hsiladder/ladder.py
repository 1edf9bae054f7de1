"""Ladder network: twin encoders, lateral-combinator decoder, and costs.

The model runs a corrupted encoder pass (Gaussian noise on the input and on
every post-normalization pre-activation), a clean pass over the same batch,
and a top-down decoder that merges each corrupted lateral signal with the
decoded top-down signal through a learned pointwise combinator.  Training
minimizes the supervised cross-entropy of the corrupted pass plus per-level
weighted reconstruction distances between the clean representations and the
decoded ones.  Prediction always uses the clean encoder with running
batch-norm statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import ops
from .errors import ConfigError, GraphError, ShapeError
from .ops import RunningStats
from .rng import Rng
from .tensor import Tensor

FC = "fc"
CONV3X3 = "conv3x3"
SOFTMAX_HEAD = "softmax_head"
_KINDS = (FC, CONV3X3, SOFTMAX_HEAD)

COMBINATOR_PARAM_NAMES = tuple(f"a{i}" for i in range(1, 11))
# (a1..a5) shape the sigmoid-affine mean, (a6..a10) the gate; these values
# start the combinator at identity-in-z_tilde.
COMBINATOR_INIT = (0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0)


@dataclass(frozen=True)
class LayerSpec:
    kind: str
    width: int
    activation: str = "relu"  # "relu" | "none"

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown layer kind {self.kind!r}")
        if self.width < 1:
            raise ConfigError(f"layer width must be >= 1, got {self.width}")
        if self.activation not in ("relu", "none"):
            raise ConfigError(f"unknown activation {self.activation!r}")


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
        object.__setattr__(self, "lambdas", tuple(float(v) for v in self.lambdas))
        object.__setattr__(self, "input_shape", tuple(int(v) for v in self.input_shape))
        if not self.layers:
            raise ConfigError("ladder needs at least one layer")
        if self.layers[-1].kind != SOFTMAX_HEAD:
            raise ConfigError("final layer must be a softmax head")
        if any(l.kind == SOFTMAX_HEAD for l in self.layers[:-1]):
            raise ConfigError("softmax head must be the final layer only")
        if self.noise_std < 0:
            raise ConfigError(f"noise_std must be >= 0, got {self.noise_std}")
        if len(self.lambdas) != len(self.layers) + 1:
            raise ConfigError(
                f"need {len(self.layers) + 1} denoising multipliers "
                f"(input level + one per layer), got {len(self.lambdas)}"
            )
        if any(v < 0 for v in self.lambdas):
            raise ConfigError("denoising multipliers must be >= 0")
        if len(self.input_shape) not in (1, 3):
            raise ConfigError(f"input_shape must be (features,) or (h, w, c), got {self.input_shape}")

    @property
    def num_levels(self) -> int:
        return len(self.layers) + 1

    @property
    def num_classes(self) -> int:
        return self.layers[-1].width

    def level_shapes(self) -> list[tuple[int, ...]]:
        """Per-sample representation shape at every level 0..L."""
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
class LadderPassOutput:
    """The corrupted pass's levels and the decoder's reconstructions of them."""

    z_tilde: list[Tensor]
    z_hat: dict[int, Tensor] = field(default_factory=dict)


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
        self.dtype = np.dtype(dtype)
        self.level_shapes = spec.level_shapes()
        self.params: dict[str, Tensor] = {}
        self.running: dict[int, RunningStats] = {}
        self._init_params(rng)

    # -- construction -------------------------------------------------------

    def _init_params(self, rng: Rng) -> None:
        spec = self.spec
        shapes = self.level_shapes
        for l, layer in enumerate(spec.layers, start=1):
            fan_in_shape = shapes[l - 1]
            if layer.kind == CONV3X3:
                c_in = fan_in_shape[2]
                w_shape = (3, 3, c_in, layer.width)
                fan_in = 9 * c_in
            else:
                fan_in = int(np.prod(fan_in_shape))
                w_shape = (fan_in, layer.width)
            std = math.sqrt(2.0 / fan_in)
            self.params[f"enc{l}/W"] = Tensor(
                rng.normal(std, w_shape, dtype=self.dtype), requires_grad=True
            )
            feat = self._level_features(l)
            self.params[f"enc{l}/gamma"] = Tensor(np.ones(feat, dtype=self.dtype), requires_grad=True)
            self.params[f"enc{l}/beta"] = Tensor(np.zeros(feat, dtype=self.dtype), requires_grad=True)
            self.running[l] = RunningStats.for_features(feat, dtype=self.dtype)
        for l, layer in enumerate(spec.layers, start=1):
            # dec{l}/V maps level l back to level l-1
            below = shapes[l - 1]
            if layer.kind == CONV3X3:
                v_shape = (3, 3, layer.width, below[2])
                fan_in = 9 * layer.width
            else:
                v_shape = (layer.width, int(np.prod(below)))
                fan_in = layer.width
            std = math.sqrt(2.0 / fan_in)
            self.params[f"dec{l}/V"] = Tensor(
                rng.normal(std, v_shape, dtype=self.dtype), requires_grad=True
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

    def combinator_params(self, l: int) -> dict[str, Tensor]:
        return {name: self.params[f"comb{l}/{name}"] for name in COMBINATOR_PARAM_NAMES}

    def parameters(self) -> dict[str, Tensor]:
        return self.params

    def zero_grads(self) -> None:
        for t in self.params.values():
            t.zero_grad()

    def assert_finite_params(self) -> None:
        for name, t in self.params.items():
            if not np.all(np.isfinite(t.data)):
                raise GraphError(f"parameter {name} contains non-finite values")

    # -- encoder ------------------------------------------------------------

    def _check_input(self, x: Tensor) -> None:
        if x.data.shape[1:] != self.spec.input_shape:
            raise ShapeError(
                f"input sample shape {x.data.shape[1:]} does not match "
                f"model input {self.spec.input_shape}"
            )

    def _encode(
        self,
        x: Tensor,
        corrupted: bool,
        mode: str,
        rng: Rng | None = None,
        update_running: bool = False,
        want_stats: bool = False,
    ):
        """Shared encoder walk.

        Returns (z levels 0..L, per-level (mean, std) of the pre-norm linear
        output or None, top activation, log-probabilities).
        """
        self._check_input(x)
        spec = self.spec
        noise = spec.noise_std if corrupted else 0.0
        if corrupted:
            if rng is None:
                raise ConfigError("corrupted pass needs an Rng")
            h = ops.add_gaussian_noise(x, noise, rng)
        else:
            h = x
        zs: list[Tensor] = [h]
        stats: list[tuple[Tensor, Tensor] | None] = [None]
        y_logp: Tensor | None = None
        for l, layer in enumerate(spec.layers, start=1):
            if layer.kind == CONV3X3:
                pre = ops.conv2d(h, self.params[f"enc{l}/W"])
            else:
                hin = ops.flatten(h) if h.data.ndim > 2 else h
                pre = ops.matmul(hin, self.params[f"enc{l}/W"])
            z = ops.batchnorm(
                pre,
                mode,
                running=self.running[l],
                update_running=update_running,
            )
            if want_stats:
                # batch statistics of the clean representation itself; the
                # decoded signal is standardized by these before the
                # reconstruction distance
                axes = (0,) if z.data.ndim == 2 else (0, 1, 2)
                mu = ops.reduce_mean(z, axes, keepdims=True)
                var = ops.reduce_mean(ops.square(ops.sub(z, mu)), axes, keepdims=True)
                sigma = ops.sqrt(ops.add(var, ops.BN_EPS))
                stats.append((mu, sigma))
            else:
                stats.append(None)
            if corrupted:
                z = ops.add_gaussian_noise(z, noise, rng)
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
        return zs, stats, h, y_logp

    def corrupted_encoder(self, x: Tensor, rng: Rng):
        """Noisy training pass; returns (z_tilde levels, top activation,
        corrupted log-probabilities)."""
        zs, _, h_top, y_logp = self._encode(
            x, corrupted=True, mode="train", rng=rng, update_running=False
        )
        return zs, h_top, y_logp

    def clean_encoder(self, x: Tensor, mode: str = "train", update_running: bool = False):
        """Noise-free pass; in train mode records per-level batch statistics
        (reconstruction-target normalizers), in eval mode uses running
        statistics and serves prediction."""
        want_stats = mode == "train"
        zs, stats, _, y_logp = self._encode(
            x,
            corrupted=False,
            mode=mode,
            update_running=update_running,
            want_stats=want_stats,
        )
        return zs, stats, y_logp

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
        spec = self.spec
        top = len(spec.layers)
        u = ops.batchnorm(h_top, "train", running=None)
        z_hat: dict[int, Tensor] = {top: combinator_g(z_tilde[top], u, self.combinator_params(top))}
        for l in range(top - 1, min_level - 1, -1):
            above = z_hat[l + 1]
            layer_above = spec.layers[l]  # layer index l+1, list index l
            v = self.params[f"dec{l + 1}/V"]
            if layer_above.kind == CONV3X3:
                pre = ops.conv2d_transpose(above, v)
            else:
                pre = ops.matmul(above, v)
                target = self.level_shapes[l]
                if len(target) == 3:
                    pre = ops.reshape(pre, (above.data.shape[0], *target))
            u = ops.batchnorm(pre, "train", running=None)
            z_hat[l] = combinator_g(z_tilde[l], u, self.combinator_params(l))
        return z_hat

    # -- costs --------------------------------------------------------------

    def reconstruction_cost(
        self,
        z_clean: list[Tensor],
        clean_stats: list,
        z_hat: dict[int, Tensor],
        lambdas=None,
    ) -> Tensor:
        """Sum over levels of lambda_l * ||z_l - z_hat_l||^2 / units_l,
        averaged over the batch; zero-multiplier levels contribute exactly 0."""
        spec = self.spec
        lambdas = spec.lambdas if lambdas is None else tuple(float(v) for v in lambdas)
        if len(lambdas) != spec.num_levels:
            raise ShapeError(
                f"lambda vector length {len(lambdas)} != {spec.num_levels} levels"
            )
        batch = z_clean[0].data.shape[0]
        total: Tensor | None = None
        for l, lam in enumerate(lambdas):
            if lam == 0.0:
                continue
            if l not in z_hat:
                raise GraphError(f"decoder did not produce level {l} needed by lambda_{l}")
            zh = z_hat[l]
            if spec.normalize_targets and l > 0:
                if clean_stats is None or clean_stats[l] is None:
                    raise GraphError(
                        "normalized reconstruction cost requested but clean batch "
                        f"statistics for level {l} are missing"
                    )
                mu, sigma = clean_stats[l]
                zh = ops.div(ops.sub(zh, mu), sigma)
            diff = ops.sub(zh, z_clean[l])
            units = int(np.prod(self.level_shapes[l]))
            level_cost = ops.scale(ops.sum_all(ops.square(diff)), lam / (units * batch))
            total = level_cost if total is None else ops.add(total, level_cost)
        if total is None:
            total = Tensor(np.asarray(0.0, dtype=self.dtype))
        return total

    @staticmethod
    def supervised_cost(y_tilde: Tensor, targets: np.ndarray) -> Tensor:
        """Mean negative log-likelihood of the corrupted-pass predictions on
        the labeled sub-batch."""
        if len(targets) == 0:
            raise ShapeError("supervised cost needs a nonempty labeled sub-batch")
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

        Returns (c_total, c_super, c_recon, LadderPassOutput).
        """
        spec = self.spec
        lambdas = spec.lambdas if lambdas is None else tuple(float(v) for v in lambdas)
        x = Tensor(batch, dtype=self.dtype)
        z_tilde, h_top, y_tilde = self.corrupted_encoder(x, rng)
        z_clean, stats, _ = self.clean_encoder(x, mode="train", update_running=True)
        y_lab = ops.slice_rows(y_tilde, labeled_count)
        c_super = self.supervised_cost(y_lab, targets)
        active = [l for l, lam in enumerate(lambdas) if lam > 0.0]
        if use_decoder and active:
            z_hat = self.decoder(z_tilde, h_top, min_level=min(active))
            c_recon = self.reconstruction_cost(z_clean, stats, z_hat, lambdas)
        else:
            z_hat = {}
            c_recon = Tensor(np.asarray(0.0, dtype=self.dtype))
        c_total = ops.add(c_recon, c_super)
        return c_total, c_super, c_recon, LadderPassOutput(z_tilde=z_tilde, z_hat=z_hat)

    # -- inference ----------------------------------------------------------

    def predict_log_probs(self, x: np.ndarray, chunk: int = 512) -> np.ndarray:
        """Clean-encoder eval-mode log-probabilities (deterministic)."""
        self.assert_finite_params()
        out = []
        for i in range(0, len(x), chunk):
            xt = Tensor(x[i : i + chunk], dtype=self.dtype)
            _, _, y_logp = self.clean_encoder(xt, mode="eval")
            out.append(y_logp.data)
        return np.concatenate(out, axis=0)

    def predict(self, x: np.ndarray, chunk: int = 512) -> np.ndarray:
        """Class indices via the clean encoder (no noise anywhere)."""
        return np.argmax(self.predict_log_probs(x, chunk=chunk), axis=1)

"""In-memory span recording around the public functions of ``hsiladder``.

A :class:`Tracer` replaces module functions and class methods with thin
wrappers that record one span per call: name, start, end, parent and an
optional amount of work (values drawn, bytes written, FLOPs).  Nothing under
``src/`` knows about it; :meth:`Tracer.remove` puts every original object
back and :meth:`Tracer.leftovers` proves that it did.

Self time is a span's duration minus the part of its interval that its
direct child spans cover, so the self times of all spans of one step add up
to the step's wall time without double counting.
"""

from __future__ import annotations

import contextlib
import os
import time
from collections import defaultdict

import numpy as np

from hsiladder import checkpoint, cube_io, data, kernels, ladder, ops, rng, synthetic, tensor
from hsiladder import train as train_mod
from metrics import KERNEL_FNS, LADDER_PHASES, NODE_KINDS, OP_KINDS


def conv_flop(fn: str, a: np.ndarray, b: np.ndarray) -> int:
    """Multiply-adds x 2 of one kernel call, from operand shapes alone.

    Counts the useful work of a valid stride-1 correlation, whatever the
    kernel does internally (padding, zero blocks).
    """
    if fn == "forward":  # (x, k)
        bsz, h, w, ci = a.shape
        kh, kw, _, co = b.shape
        return 2 * bsz * (h - kh + 1) * (w - kw + 1) * kh * kw * ci * co
    if fn == "input_grad":  # (gy, k)
        return 2 * a.size * b.shape[0] * b.shape[1] * b.shape[2]
    # kernel_grad: (x, gy) with the window size taken from x and gy
    kh = a.shape[1] - b.shape[1] + 1
    kw = a.shape[2] - b.shape[2] + 1
    return 2 * b.size * kh * kw * a.shape[3]


class Recorder:
    """Append-only span list plus a stack of the spans still open."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # [name, start, end, parent index or -1, work]
        self.spans: list[list] = []
        self._open: list[int] = []

    def open(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, self.clock(), None, parent, 0])
        idx = len(self.spans) - 1
        self._open.append(idx)
        return idx

    def close(self, idx: int, work: float = 0) -> None:
        span = self.spans[idx]
        span[2] = self.clock()
        span[4] = work
        popped = self._open.pop()
        if popped != idx:
            raise RuntimeError(f"span {span[0]!r} closed out of order")

    def clear(self) -> None:
        if self._open:
            raise RuntimeError("cannot clear while spans are open")
        self.spans = []


def self_times(spans: list[list]) -> list[float]:
    """Per span: duration minus the union of its direct children's
    intervals, clipped to the span itself."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


class Summary:
    """Per span name: call count, inclusive seconds, self seconds, work."""

    def __init__(self, spans: list[list]):
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self: dict[str, float] = defaultdict(float)
        self.work: dict[str, float] = defaultdict(float)
        for span, own in zip(spans, self_times(spans)):
            name, start, end, _, work = span
            self.calls[name] += 1
            self.total[name] += end - start
            self.self[name] += own
            self.work[name] += work


class Tracer:
    """Installs span-recording wrappers around the package's public
    functions; ``remove`` restores the originals."""

    def __init__(self, recorder: Recorder):
        self.rec = recorder
        self.nodes = 0  # tape nodes recorded since the last reset
        self._saved: list[tuple[object, str, object]] = []
        self._restored: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _timed(self, fn, name, work=None):
        rec = self.rec

        def wrapper(*args, **kwargs):
            idx = rec.open(name)
            amount = 0
            try:
                result = fn(*args, **kwargs)
                if work is not None:
                    amount = work(args, kwargs, result)
                return result
            finally:
                rec.close(idx, amount)

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr: str, make) -> None:
        raw = vars(owner)[attr]
        self._saved.append((owner, attr, raw))
        if isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        t = self._timed
        net_cls = ladder.LadderNetwork
        for phase in LADDER_PHASES:
            self._patch(net_cls, phase, lambda f, n=phase: t(f, f"ladder.{n}"))
        self._patch(net_cls, "training_loss", lambda f: t(f, "ladder.training_loss"))
        self._patch(net_cls, "predict_log_probs", lambda f: t(f, "ladder.predict"))

        self._patch(tensor.GradTape, "backward", lambda f: t(f, "tensor.backward"))
        self._patch(tensor.Tensor, "accumulate_grad", lambda f: t(f, "tensor.accumulate_grad"))
        self._patch(tensor.GradTape, "record", self._wrap_record)

        for kind, fname in OP_KINDS.items():
            self._patch(ops, fname, lambda f, k=kind: t(f, f"ops.{k}"))
        for fn in KERNEL_FNS:
            self._patch(
                kernels,
                f"conv2d_{fn}",
                lambda f, n=fn: t(f, f"kernels.conv2d_{n}", lambda a, kw, r: conv_flop(n, a[0], a[1])),
            )
        self._patch(
            rng.Rng, "normal", lambda f: t(f, "rng.normal", lambda a, kw, r: int(np.asarray(r).size))
        )

        self._patch(train_mod.Adam, "step", lambda f: t(f, "train.adam_step"))
        self._patch(train_mod, "evaluate", lambda f: t(f, "train.evaluate"))
        self._patch(
            checkpoint,
            "save_entries",
            lambda f: t(f, "checkpoint.save", lambda a, kw, r: os.path.getsize(a[0])),
        )
        for fname in ("prepare_dataset", "scale_bands", "pca_fit", "extract_patches"):
            self._patch(data, fname, lambda f, n=fname: t(f, f"data.{n}"))
        self._patch(
            cube_io, "read_array", lambda f: t(f, "cube_io.read", lambda a, kw, r: os.path.getsize(a[0]))
        )
        self._patch(synthetic, "make_synthetic_cube", lambda f: t(f, "synthetic.make_cube"))

    def _wrap_record(self, orig):
        tracer = self

        def record(tape, name, inputs, output, backward_fn, forward_fn):
            tracer.nodes += 1
            timed = tracer._timed(backward_fn, f"tensor.backward.{name}")
            return orig(tape, name, inputs, output, timed, forward_fn)

        record.__wrapped__ = orig
        return record

    @contextlib.contextmanager
    def active(self):
        """Wrappers installed for the body of a ``with`` block only."""
        self.install()
        try:
            yield self
        finally:
            self.remove()

    def remove(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._restored, self._saved = self._saved, []

    def leftovers(self) -> list[str]:
        """Names of patched attributes that do not hold their original
        object (empty after a clean ``remove``)."""
        bad = []
        for owner, attr, raw in self._restored:
            if vars(owner).get(attr) is not raw:
                bad.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        for owner, attr, _ in self._saved:
            bad.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return bad


# -- per-layer metrics from one phase's spans --------------------------------


def step_metrics(summary: Summary, nodes: int) -> dict[str, float]:
    """Per-step layer metrics of a traced step loop (``bench.step`` spans)."""
    steps = summary.calls["bench.step"]
    if steps == 0:
        raise ValueError("no traced steps")

    def ms(seconds):
        return seconds * 1e3 / steps

    out = {f"ladder.{p}_ms": ms(summary.total[f"ladder.{p}"]) for p in LADDER_PHASES}
    out["tensor.backward_ms"] = ms(summary.total["tensor.backward"])
    out["tensor.nodes_per_step"] = nodes / steps
    out["tensor.accumulate_grad_ms"] = ms(summary.self["tensor.accumulate_grad"])
    out["tensor.accumulate_grad_calls"] = summary.calls["tensor.accumulate_grad"] / steps
    for kind in NODE_KINDS:
        out[f"tensor.backward.{kind}_ms"] = ms(summary.self[f"tensor.backward.{kind}"])
    for kind in OP_KINDS:
        out[f"ops.{kind}_ms"] = ms(summary.self[f"ops.{kind}"])
        out[f"ops.{kind}_calls"] = summary.calls[f"ops.{kind}"] / steps
    flop = seconds = 0.0
    for fn in KERNEL_FNS:
        name = f"kernels.conv2d_{fn}"
        out[f"{name}_ms"] = ms(summary.self[name])
        out[f"{name}_calls"] = summary.calls[name] / steps
        flop += summary.work[name]
        seconds += summary.self[name]
    out["kernels.gflop_per_step"] = flop / steps / 1e9
    out["kernels.gflops"] = flop / seconds / 1e9 if seconds > 0 else 0.0
    out["rng.normal_ms"] = ms(summary.self["rng.normal"])
    out["rng.normal_values"] = summary.work["rng.normal"] / steps
    out["train.adam_step_ms"] = ms(summary.total["train.adam_step"])
    out["train.step_other_ms"] = ms(summary.self["bench.step"])
    return out


def train_metrics(summary: Summary) -> dict[str, float]:
    """Per ``train()`` call: test-split evaluation and checkpoint writes."""
    return {
        "train.evaluate_ms": summary.total["train.evaluate"] * 1e3,
        "checkpoint.save_ms": summary.total["checkpoint.save"] * 1e3,
        "checkpoint.save_bytes": summary.work["checkpoint.save"],
        "checkpoint.save_calls": summary.calls["checkpoint.save"],
    }


def predict_metrics(summary: Summary) -> dict[str, float]:
    calls = summary.calls["ladder.predict"]
    return {"ladder.predict_ms": summary.total["ladder.predict"] * 1e3 / calls}


def setup_metrics(summary: Summary) -> dict[str, float]:
    """Per set-up: scene generation, cube reads and the data pipeline."""
    out = {
        f"data.{fn}_ms": summary.total[f"data.{fn}"] * 1e3
        for fn in ("prepare_dataset", "scale_bands", "pca_fit", "extract_patches")
    }
    out["cube_io.read_ms"] = summary.total["cube_io.read"] * 1e3
    out["cube_io.read_bytes"] = summary.work["cube_io.read"]
    out["synthetic.make_cube_ms"] = summary.total["synthetic.make_cube"] * 1e3
    return out

"""Dense tensor value type and the reverse-mode gradient tape.

A forward pass executed inside a ``with GradTape() as tape:`` block records
one node per differentiable operation, in execution order.  ``tape.backward``
walks that record once in reverse, accumulating gradients; tensors used in
several places sum their contributions.  Each node's output gradient is
released as soon as that node's backward has read it, so after backward only
leaf tensors (parameters and inputs, which no node produces) keep ``.grad``
and the intermediate gradients of a step are never all alive at once.  Each
node also keeps a pure re-computation closure so a recorded graph can be
replayed and checked bit-exactly against the recorded outputs (stochastic ops
capture their drawn noise, which makes the replay deterministic).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from .errors import GraphError


class Tensor:
    """N-d array of reals with an attached gradient slot."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None and arr.dtype != dtype:
            arr = arr.astype(dtype)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data: np.ndarray = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, g: np.ndarray) -> None:
        """Add ``g`` into ``self.grad`` without copying the first contribution.

        Backward functions may return ``g`` itself or a view of it (``add``,
        ``sub`` and ``reshape`` do), so several tensors can hold the same
        array: a gradient is only ever rebound, never written in place.  That
        is what lets ``GradTape.backward`` drop a node output's gradient once
        read while an alias of it lives on in an input's ``.grad``.
        """
        self.grad = np.asarray(g) if self.grad is None else self.grad + g

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


class TapeNode:
    __slots__ = ("name", "inputs", "output", "backward_fn", "forward_fn")

    def __init__(self, name, inputs, output, backward_fn, forward_fn):
        self.name: str = name
        self.inputs: tuple[Tensor, ...] = tuple(inputs)
        self.output: Tensor = output
        # backward_fn(grad_out) -> tuple of per-input gradients (None where
        # the input does not require one)
        self.backward_fn: Callable[[np.ndarray], Sequence[Optional[np.ndarray]]] = backward_fn
        # forward_fn() -> recomputed output data from the inputs' current data
        self.forward_fn: Callable[[], np.ndarray] = forward_fn


_TAPE_STACK: list["GradTape"] = []


def active_tape() -> Optional["GradTape"]:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


class GradTape:
    """Ordered record of executed operations (the compute graph)."""

    def __init__(self):
        self.nodes: list[TapeNode] = []
        self._used = False

    def __enter__(self) -> "GradTape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc) -> None:
        popped = _TAPE_STACK.pop()
        assert popped is self

    def record(self, name, inputs, output, backward_fn, forward_fn) -> None:
        self.nodes.append(TapeNode(name, inputs, output, backward_fn, forward_fn))

    def backward(self, loss: Tensor) -> None:
        """Accumulate d loss / d t into ``t.grad`` for every leaf tensor.

        The traversal visits nodes exactly once, in reverse execution order,
        so every consumer of a tensor has contributed before that tensor's
        own producer runs.  Nothing adds to a node output's gradient after
        its producer has read it, so the walk sets that ``.grad`` to None
        right there; the array itself lives on only while an input's
        ``.grad`` aliases it (``accumulate_grad`` never writes in place).
        Afterwards only leaf tensors, the ones no node produced, hold a
        gradient.  The nodes and their closures stay until the tape dies:
        freeing them during the walk too saves little more memory and makes
        the step slower.
        """
        if loss.data.size != 1:
            raise GraphError(f"backward requires a scalar loss, got shape {loss.data.shape}")
        if self._used:
            raise GraphError("backward already ran on this tape; record a new forward pass")
        self._used = True
        loss.accumulate_grad(np.ones_like(loss.data))
        for node in reversed(self.nodes):
            g = node.output.grad
            if g is None:
                continue
            node.output.grad = None
            input_grads = node.backward_fn(g)
            for t, gi in zip(node.inputs, input_grads):
                if gi is None:
                    continue
                t.accumulate_grad(gi)

    def verify_replay(self) -> bool:
        """Re-run every recorded op on its recorded inputs; True if all
        recomputed outputs match the recorded outputs bit-exactly."""
        for node in self.nodes:
            again = node.forward_fn()
            if not np.array_equal(again, node.output.data):
                return False
        return True

"""Dense tensor value type and the reverse-mode gradient tape.

A forward pass executed inside a ``with GradTape() as tape:`` block records
one node per differentiable operation, in execution order.  ``tape.backward``
walks that record once in reverse, accumulating gradients; tensors used in
several places sum their contributions.

A node holds no tensors.  It owns the gradient slot of its output
(``TapeNode.grad``) and links to its inputs' slots: the node that produced
an input on the same tape, or the input itself when it is a leaf that
requires a gradient (a parameter, an input, or a tensor produced on another
tape or on none).  A tensor links back only to the node that produced it.
Each op's backward closure captures the arrays its formula reads and
nothing else, so an intermediate that no backward reads is freed by
refcount as soon as the forward code drops it, and the graph holds no
reference cycle.  ``backward`` drops each closure as soon as it has run, so
the arrays a node saved are freed while the walk goes on and the gradients
do not pile up on top of the whole forward's saved arrays.  A recorded graph
cannot be replayed: outputs that no backward reads are not kept.

Step memory.  While a ``GradTape`` is entered or its ``backward`` is
walking, :func:`empty` serves every request of at least
:data:`ARENA_MIN_BYTES` from the step arena: ranges of anonymous ``mmap``
chunks that the package owns and never returns to the operating system.
Ops, backward closures, ``Tensor.accumulate_grad``, the conv kernels and
``Rng.normal`` write their large results through ``out=`` into such arrays,
so a training step reuses the pages of the one before instead of having the
heap trim them and fault them in again (the caching-allocator idea of
Paszke et al. 2019, arXiv 1912.01703, sec. 5.3, with the liveness of Chen
et al. 2016).  Each request gets its own lifetime token, an array that
``np.frombuffer`` builds over the chunk.  Its base is not an ndarray, so
numpy does not collapse the bases of its views past it: every view of the
result (a reshape, a transpose, a slice) keeps the token alive, and the
range goes back to the free list only when the last of them dies.  An array
a caller keeps past the step, such as a decoded level, keeps its range busy
and stays valid.  Outside that window :func:`empty` is ``np.empty``, so
prediction, set-up and ``evaluate`` allocate as numpy does.  ``tracemalloc``
does not see arena memory; :func:`arena_usage` reports it.
"""

from __future__ import annotations

import bisect
import contextlib
import itertools
import math
import mmap
import weakref
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import GraphError

# Smallest request the step arena serves, chosen by a 256 KiB-4 MiB sweep on
# the paper conv ladder (see CHANGES.md); the FC ladder's largest step
# array (240 KB) stays below it.
ARENA_MIN_BYTES = 1 << 20
_CHUNK_BYTES = 32 << 20
_ALIGN = 64


class _Arena:
    """First-fit free lists over anonymous ``mmap`` chunks.

    ``take`` hands out 64-byte-aligned ranges and adds a chunk when no free
    range fits.  A range is released when its token dies: the weakref
    callback only queues it in ``dead`` (it may run inside ``take``, at any
    allocation that triggers a collection), and the next ``take`` or
    ``usage`` merges it back into its chunk's sorted free list, coalesced
    with its neighbours.
    """

    def __init__(self):
        self.depth = 0  # open GradTape blocks and running backward walks
        self.chunks: list[mmap.mmap] = []
        self.free: list[list[list[int]]] = []  # per chunk, sorted [offset, size]
        self.live: dict[int, tuple] = {}  # id(weakref) -> (weakref, chunk, offset, size)
        self.dead: list[int] = []

    def _died(self, ref) -> None:
        self.dead.append(id(ref))

    def _release(self) -> None:
        while self.dead:
            _, c, off, size = self.live.pop(self.dead.pop())
            ranges = self.free[c]
            i = bisect.bisect(ranges, [off])
            if i < len(ranges) and ranges[i][0] == off + size:
                size += ranges.pop(i)[1]
            if i and ranges[i - 1][0] + ranges[i - 1][1] == off:
                ranges[i - 1][1] += size
            else:
                ranges.insert(i, [off, size])

    def take(self, shape: tuple, dtype: np.dtype, nbytes: int) -> np.ndarray:
        self._release()
        size = -(-nbytes // _ALIGN) * _ALIGN
        for c, ranges in enumerate(self.free):
            for i, r in enumerate(ranges):
                if r[1] >= size:
                    off = r[0]
                    if r[1] == size:
                        del ranges[i]
                    else:
                        r[0] += size
                        r[1] -= size
                    return self._token(c, off, size, shape, dtype)
        length = max(_CHUNK_BYTES, -(-size // mmap.PAGESIZE) * mmap.PAGESIZE)
        chunk = mmap.mmap(-1, length)
        if hasattr(mmap, "MADV_HUGEPAGE"):
            chunk.madvise(mmap.MADV_HUGEPAGE)
        self.chunks.append(chunk)
        self.free.append([[size, length - size]] if length > size else [])
        return self._token(len(self.chunks) - 1, 0, size, shape, dtype)

    def _token(self, c: int, off: int, size: int, shape: tuple, dtype: np.dtype) -> np.ndarray:
        token = np.frombuffer(self.chunks[c], dtype, math.prod(shape), off)
        ref = weakref.ref(token, self._died)
        self.live[id(ref)] = (ref, c, off, size)
        return token.reshape(shape)

    def usage(self) -> tuple[int, int]:
        self._release()
        reserved = sum(len(chunk) for chunk in self.chunks)
        return reserved, sum(size for _, _, _, size in self.live.values())


_ARENA = _Arena()


def empty(shape: tuple, dtype) -> np.ndarray:
    """An uninitialized array: a step-arena range inside a ``GradTape``
    block or ``backward`` walk when it holds at least
    :data:`ARENA_MIN_BYTES`, else ``np.empty``.  The ops' small results skip
    it: :func:`ufunc_out` tests an operand's size first."""
    if _ARENA.depth:
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        if nbytes >= ARENA_MIN_BYTES:
            return _ARENA.take(shape, dtype, nbytes)
    return np.empty(shape, dtype)


def ufunc_out(a: np.ndarray, b: Optional[np.ndarray] = None) -> Optional[np.ndarray]:
    """The ``out=`` of an elementwise ufunc of ``a`` (and ``b``): an
    :func:`empty` array of their broadcast shape and result dtype when
    either holds at least :data:`ARENA_MIN_BYTES`, else None, so numpy
    allocates a small result itself."""
    if b is None:
        return empty(a.shape, a.dtype) if a.nbytes >= ARENA_MIN_BYTES else None
    if a.nbytes < ARENA_MIN_BYTES and b.nbytes < ARENA_MIN_BYTES:
        return None
    return empty(np.broadcast_shapes(a.shape, b.shape), np.result_type(a, b))


def arena_usage() -> tuple[int, int]:
    """(bytes reserved in arena chunks, bytes of them in live ranges)."""
    return _ARENA.usage()


class Tensor:
    """N-d array of reals with an attached gradient slot."""

    __slots__ = ("data", "requires_grad", "grad", "node")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None and arr.dtype != dtype:
            arr = arr.astype(dtype)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data: np.ndarray = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        # the tape node that produced this tensor, if any
        self.node: Optional[TapeNode] = None

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

        ``GradTape.backward`` calls this on every gradient slot it fills, a
        leaf tensor or a :class:`TapeNode` alike (``Tensor.accumulate_grad(
        node, g)``), so each accumulation of a walk goes through here.
        Backward functions may return ``g`` itself or a view of it (``add``,
        ``sub`` and ``reshape`` do), so several slots can hold the same
        array: a gradient is only ever rebound, never written in place.  That
        is what lets ``GradTape.backward`` drop a node's gradient once read
        while an alias of it lives on in another slot.
        """
        if self.grad is None:
            self.grad = np.asarray(g)
        else:
            self.grad = np.add(self.grad, g, out=ufunc_out(self.grad, g))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


class TapeNode:
    """One recorded op: its output's gradient slot, its inputs' slots and
    its backward closure."""

    __slots__ = ("name", "inputs", "backward_fn", "grad", "tape_id")

    def __init__(self, name: str, inputs: tuple, backward_fn, tape_id: int):
        self.name = name
        # per input, where its gradient goes: its producing node, a leaf
        # tensor, or nowhere (None)
        self.inputs: tuple[Union[TapeNode, Tensor, None], ...] = inputs
        # backward_fn(grad_out) -> tuple of per-input gradients (None where
        # the input does not require one)
        self.backward_fn: Optional[Callable[[np.ndarray], Sequence[Optional[np.ndarray]]]] = backward_fn
        self.grad: Optional[np.ndarray] = None
        # the recording tape's id; a reference to the tape would be a cycle
        self.tape_id = tape_id


# innermost last; None is an ``untaped`` block
_TAPE_STACK: list[Optional["GradTape"]] = []
_TAPE_IDS = itertools.count()


def active_tape() -> Optional["GradTape"]:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


@contextlib.contextmanager
def untaped():
    """A block whose ops record on no tape, even inside ``with GradTape()``:
    their results are plain values that no backward reaches."""
    _TAPE_STACK.append(None)
    try:
        yield
    finally:
        _TAPE_STACK.pop()


class GradTape:
    """Ordered record of executed operations (the compute graph)."""

    def __init__(self):
        self.nodes: list[TapeNode] = []
        self._id = next(_TAPE_IDS)
        self._used = False

    def __enter__(self) -> "GradTape":
        _TAPE_STACK.append(self)
        _ARENA.depth += 1
        return self

    def __exit__(self, *exc) -> None:
        _ARENA.depth -= 1
        popped = _TAPE_STACK.pop()
        assert popped is self

    def _slot(self, t: Tensor) -> Union[TapeNode, Tensor, None]:
        node = t.node
        if node is not None and node.tape_id == self._id:
            return node
        return t if t.requires_grad else None

    def record(self, name, inputs, output, backward_fn, forward_fn) -> None:
        """Append a node for ``output = name(*inputs)`` and link ``output``
        to it.  ``forward_fn`` is ignored (ops pass None); the benchmark's
        tracer wraps this method with a fixed signature, and the benchmark
        change of ROADMAP item 1 removes the argument."""
        node = TapeNode(name, tuple(self._slot(t) for t in inputs), backward_fn, self._id)
        output.node = node
        self.nodes.append(node)

    def backward(self, loss: Tensor) -> None:
        """Accumulate d loss / d t into ``t.grad`` for every leaf tensor.

        The traversal visits nodes exactly once, in reverse execution order,
        so every consumer of a tensor has contributed before that tensor's
        producer runs.  Nothing adds to a node's gradient after the node has
        read it, so the walk sets ``node.grad`` to None right there; the
        array itself lives on only while another slot aliases it
        (``accumulate_grad`` never writes in place).  Afterwards only leaf
        tensors hold a gradient.  A node's backward closure runs once, so
        the walk takes it out of the node before calling it and drops it
        once its gradients are accumulated: an array that only that closure
        saved is freed before the next node runs (the liveness rule of Chen
        et al. 2016, arXiv 1604.06174, without recomputation).  On the paper
        conv ladder in f64 this keeps the walk's traced peak at the
        forward's (78 MiB) instead of 93 MiB.  ``tape.nodes`` keeps every
        node.  When the walk ends, or stops on an exception, every node
        drops its closure and input links, so the nodes it never reached
        (dead branches such as the clean pass's head) free theirs too, and a
        tensor that outlives the step (a loss kept for logging) pins
        nothing.
        """
        if loss.data.size != 1:
            raise GraphError(f"backward requires a scalar loss, got shape {loss.data.shape}")
        if self._used:
            raise GraphError("backward already ran on this tape; record a new forward pass")
        self._used = True
        # looked up per call so that a patched method sees every accumulation
        accumulate = Tensor.accumulate_grad
        start = self._slot(loss)
        _ARENA.depth += 1
        try:
            accumulate(loss if start is None else start, np.ones_like(loss.data))
            for node in reversed(self.nodes):
                g = node.grad
                if g is None:
                    continue
                fn, node.backward_fn, node.grad = node.backward_fn, None, None
                for slot, gi in zip(node.inputs, fn(g)):
                    if gi is not None and slot is not None:
                        accumulate(slot, gi)
                # the closure's saved arrays go now, not at the end of the walk
                fn = None
        finally:
            _ARENA.depth -= 1
            for node in self.nodes:
                node.backward_fn = None
                node.inputs = ()

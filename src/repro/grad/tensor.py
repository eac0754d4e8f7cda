"""Reverse-mode automatic differentiation over NumPy arrays.

This module is the lowest layer of the reproduction: the paper trains
binary super-resolution networks with gradient descent and custom
straight-through estimators, so we need a small but complete autograd
engine.  :class:`Tensor` wraps an ``np.ndarray`` and records the operations
applied to it; :meth:`Tensor.backward` replays them in reverse
topological order.

Broadcasting follows NumPy semantics; gradients flowing into a broadcast
operand are reduced back to its shape by :func:`unbroadcast`.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

Number = Union[int, float]
ArrayLike = Union[Number, Sequence, np.ndarray, "Tensor"]

# Grad mode is *thread-local* (as in PyTorch): the inference pipeline
# and the model server run no_grad forwards on worker/scheduler
# threads concurrently with the caller, and a shared global would let
# two interleaved save/restore pairs leave gradients switched off for
# the whole process (observed as "training silently stops learning").
# Each thread starts with gradients enabled.
_grad_state = threading.local()
_default_dtype = np.float64
# Per-thread dtype override (see thread_default_dtype): lets a thread
# build tensors in a specific dtype (an engine call, an artifact load on
# a server thread) without a racy save/restore on the shared global.
# The inference pool (repro.infer.parallel) carries the caller's
# effective dtype into its workers, as it does grad mode.
_dtype_override = threading.local()


def check_dtype(dtype) -> np.dtype:
    """``dtype`` as a NumPy dtype; ``ValueError`` unless it is float32 or
    float64, the two dtypes tensors are created in.

    The one rule for every dtype setting: :func:`set_default_dtype`,
    :func:`thread_default_dtype`, ``EngineConfig.dtype`` and
    ``ServerConfig.dtype``.
    """
    try:
        resolved = None if dtype is None else np.dtype(dtype)
    except TypeError:
        resolved = None
    if resolved is None or resolved not in (np.dtype(np.float32),
                                            np.dtype(np.float64)):
        raise ValueError(
            f"dtype must be 'float32' or 'float64', got {dtype!r}")
    return resolved


def set_default_dtype(dtype) -> None:
    """Set the dtype new tensors are created with.

    float64 (default) keeps finite-difference gradient checks tight;
    experiments switch to float32 for a ~2x NumPy speedup.
    """
    global _default_dtype
    _default_dtype = check_dtype(dtype).type


def get_default_dtype():
    override = getattr(_dtype_override, "value", None)
    return override if override is not None else _default_dtype


def process_default_dtype():
    """The process-wide default dtype (:func:`set_default_dtype`),
    whatever override this thread holds."""
    return _default_dtype


@contextlib.contextmanager
def default_dtype(dtype):
    """Temporarily switch the *process-wide* default tensor dtype.

    Every thread without its own override sees the change, which suits
    scripts and test fixtures.  Concurrent *differing* contexts on
    several threads would race on the restore; code that scopes the
    dtype to one operation (an engine call, an artifact load on a
    server thread) uses :func:`thread_default_dtype` instead.
    """
    previous = _default_dtype
    set_default_dtype(dtype)
    try:
        yield
    finally:
        set_default_dtype(previous)


@contextlib.contextmanager
def thread_default_dtype(dtype):
    """Override the default tensor dtype on this thread only.

    Unlike :func:`default_dtype` this never writes shared state, so any
    number of threads can hold different overrides concurrently — each
    engine scopes its configured dtype this way, and the model server
    uses it around artifact loads and flushes.  Work handed to the
    inference pool (:func:`repro.infer.parallel_map`,
    :func:`repro.infer.submit_task`) runs under the submitting
    thread's effective dtype.  ``None`` overrides nothing, so an unset
    ``dtype`` setting can be passed straight through.
    """
    if dtype is None:
        yield
        return
    dtype = check_dtype(dtype)
    previous = getattr(_dtype_override, "value", None)
    _dtype_override.value = dtype.type
    try:
        yield
    finally:
        _dtype_override.value = previous


@contextlib.contextmanager
def no_grad():
    """Disable graph construction (inference mode) on this thread."""
    prev = getattr(_grad_state, "enabled", True)
    _grad_state.enabled = False
    try:
        yield
    finally:
        _grad_state.enabled = prev


def is_grad_enabled() -> bool:
    return getattr(_grad_state, "enabled", True)


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing NumPy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading dims that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over dims that were expanded from size 1.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value: ArrayLike) -> np.ndarray:
    if isinstance(value, Tensor):
        raise TypeError("expected raw data, got Tensor")
    return np.asarray(value, dtype=get_default_dtype())


class Tensor:
    """An N-dimensional array with reverse-mode autodiff.

    Parameters
    ----------
    data:
        Anything convertible to ``np.ndarray`` (float64 by default).
    requires_grad:
        Whether gradients should be accumulated into ``self.grad`` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(self, data: ArrayLike, requires_grad: bool = False, name: str = ""):
        self.data = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple[Tensor, ...] = ()
        self.name = name

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        """Return the underlying array (a view, not a copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """A tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{tag})"

    def __len__(self) -> int:
        return self.data.shape[0]

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Iterable["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Create a graph node from ``data`` with the given parents."""
        parents = tuple(parents)
        requires = is_grad_enabled() and any(
            p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        grad = unbroadcast(np.asarray(grad, dtype=self.data.dtype), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad = self.grad + grad

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Backpropagate from this tensor.

        ``grad`` defaults to ones.  Leaf tensors with ``requires_grad``
        accumulate into ``.grad``; intermediates only forward gradients.
        """
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                grad = np.broadcast_to(grad, self.data.shape).copy()

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))

        seeds: dict[int, np.ndarray] = {id(self): grad}

        def make_send(seeds_ref):
            def send(parent: "Tensor", g: np.ndarray) -> None:
                g = unbroadcast(np.asarray(g, dtype=parent.data.dtype), parent.data.shape)
                key = id(parent)
                if key in seeds_ref:
                    seeds_ref[key] = seeds_ref[key] + g
                else:
                    seeds_ref[key] = g
            return send

        send = make_send(seeds)
        for node in reversed(order):
            g = seeds.pop(id(node), None)
            if g is None:
                continue
            if node._backward is None:
                if node.requires_grad:
                    node._accumulate(g)
                continue
            node._backward(g, send)

    # ------------------------------------------------------------------
    # Arithmetic (forward + backward closures)
    # ------------------------------------------------------------------
    @staticmethod
    def _coerce(value: ArrayLike) -> "Tensor":
        if isinstance(value, Tensor):
            return value
        return Tensor(np.asarray(value, dtype=get_default_dtype()))

    def __add__(self, other: ArrayLike) -> "Tensor":
        other = Tensor._coerce(other)
        data = self.data + other.data

        def backward(grad, send):
            send(self, grad)
            send(other, grad)

        return Tensor._make(data, (self, other), backward)

    __radd__ = __add__

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = Tensor._coerce(other)
        data = self.data * other.data

        def backward(grad, send):
            send(self, grad * other.data)
            send(other, grad * self.data)

        return Tensor._make(data, (self, other), backward)

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        data = -self.data

        def backward(grad, send):
            send(self, -grad)

        return Tensor._make(data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = Tensor._coerce(other)
        data = self.data - other.data

        def backward(grad, send):
            send(self, grad)
            send(other, -grad)

        return Tensor._make(data, (self, other), backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor._coerce(other) - self

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = Tensor._coerce(other)
        data = self.data / other.data

        def backward(grad, send):
            send(self, grad / other.data)
            send(other, -grad * self.data / (other.data ** 2))

        return Tensor._make(data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor._coerce(other) / self

    def __pow__(self, exponent: Number) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        data = self.data ** exponent

        def backward(grad, send):
            send(self, grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(data, (self,), backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = Tensor._coerce(other)
        data = self.data @ other.data

        if self.data.ndim < 2 or other.data.ndim < 2:
            raise ValueError("matmul requires operands with at least 2 dims")

        def backward(grad, send):
            a, b = self.data, other.data
            send(self, grad @ np.swapaxes(b, -1, -2))
            send(other, np.swapaxes(a, -1, -2) @ grad)

        return Tensor._make(data, (self, other), backward)

    # Comparisons produce plain numpy bool arrays (no gradients).
    def __gt__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data > other

    def __lt__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data < other

    def __ge__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data >= other

    def __le__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data <= other


def custom_op(
    inputs: Sequence[Tensor],
    output_data: np.ndarray,
    backward: Callable[[np.ndarray, Callable[[Tensor, np.ndarray], None]], None],
) -> Tensor:
    """Build a graph node with a hand-written backward rule.

    This is the hook used by the straight-through estimators of the paper
    (Eq. 2 / Eq. 3): the forward result is an arbitrary array and
    ``backward(grad, send)`` routes custom gradients to each input.
    """
    return Tensor._make(np.asarray(output_data, dtype=get_default_dtype()), tuple(inputs), backward)


def as_tensor(value: ArrayLike) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` (no copy when already one)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=np.float64))

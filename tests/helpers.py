"""Shared test utilities: finite-difference gradient checking and the
``|``-separated row tables of the table-driven tests."""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.grad import Tensor


def numeric_grad(f: Callable[[], float], x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar-valued ``f`` w.r.t. ``x`` in place."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        original = x[idx]
        x[idx] = original + eps
        f_plus = f()
        x[idx] = original - eps
        f_minus = f()
        x[idx] = original
        grad[idx] = (f_plus - f_minus) / (2 * eps)
        it.iternext()
    return grad


def check_gradients(build: Callable[[Sequence[Tensor]], Tensor],
                    arrays: Sequence[np.ndarray],
                    atol: float = 1e-5, rtol: float = 1e-4) -> None:
    """Assert autograd gradients match finite differences.

    ``build`` maps a list of leaf Tensors to a scalar Tensor output.
    """
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    out = build(leaves)
    assert out.size == 1, "gradient check needs a scalar output"
    out.backward()

    for i, (leaf, arr) in enumerate(zip(leaves, arrays)):
        def f() -> float:
            fresh = [Tensor(a) for a in arrays]
            return float(build(fresh).data)

        expected = numeric_grad(f, arr)
        actual = leaf.grad
        assert actual is not None, f"no gradient for input {i}"
        np.testing.assert_allclose(actual, expected, atol=atol, rtol=rtol,
                                   err_msg=f"gradient mismatch for input {i}")


def rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


def parse_table(text: str) -> List[Dict[str, str]]:
    """Rows of a ``|``-separated table whose second line is a rule."""
    header, _, *lines = text.strip().splitlines()
    names = [token.strip() for token in header.split("|")]
    return [dict(zip(names, (token.strip() for token in line.split("|"))))
            for line in lines]

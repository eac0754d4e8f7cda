"""Shared test utilities: finite-difference gradient checking, the
``|``-separated row tables of the table-driven tests, and the clock,
counter and log-line checks of the serving outcome tables."""

from __future__ import annotations

import re
from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.grad import Tensor
from repro.serve import ServeFuture


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


class FakeClock:
    """Injectable monotonic clock that moves only when told to."""

    def __init__(self, start: float = 100.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def parse_counts(text: str) -> Dict[str, int]:
    """A table cell of counter deltas: ``"a b=2"`` is ``{a: 1, b: 2}``."""
    counts: Dict[str, int] = {}
    for token in text.split():
        name, _, count = token.partition("=")
        counts[name] = counts.get(name, 0) + int(count or 1)
    return counts


def check_fields(fields: Dict, spec: str, always: Sequence[str]) -> None:
    """Assert a structured log line holds exactly the ``always`` keys
    plus those ``spec`` names, ``;``-separated: ``k=v`` pins the value
    (compared as text), ``k~v`` a substring, a bare ``k`` any number."""
    expected = set(always)
    for item in spec.split(";"):
        name, op, value = re.fullmatch(
            r"(\w+)(?:([=~])(.*))?", item.strip()).groups()
        if op == "=":
            assert str(fields[name]) == value, (name, fields)
        elif op == "~":
            assert value in fields[name], (name, fields)
        else:
            assert fields[name] >= 0.0, (name, fields)
        expected.add(name)
    assert set(fields) == expected, fields


def record_resolves(monkeypatch) -> List[ServeFuture]:
    """Every ``ServeFuture`` resolved from now on, once per resolve."""
    resolved: List[ServeFuture] = []
    real_resolve = ServeFuture._resolve

    def resolve(future, value):
        resolved.append(future)
        real_resolve(future, value)

    monkeypatch.setattr(ServeFuture, "_resolve", resolve)
    return resolved

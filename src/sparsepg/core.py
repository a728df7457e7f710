"""Shared low-level primitives: vectors, supports, sorting, seeded randomness."""

from __future__ import annotations

import math
from dataclasses import fields

import numpy as np

__all__ = ["DegenerateSupportError", "support_of", "sorting_permutation", "make_rng"]


class DegenerateSupportError(ValueError):
    """Raised when an operation needs 0 < ||x||_0 < n but got an empty or full support."""


def as_vector(x, n: int | None = None) -> np.ndarray:
    """Coerce ``x`` to a 1-D float64 array, rejecting NaN/Inf entries.

    A finite sum proves every entry finite.  Only when the sum is not (a
    NaN or Inf entry, or finite entries whose sum overflows, which NumPy
    warns about) are the entries tested one by one.
    """
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if n is not None and v.size != n:
        raise ValueError(f"expected length {n}, got {v.size}")
    if not math.isfinite(v.sum()) and not np.isfinite(v).all():
        raise ValueError("vector entries must be finite")
    return v


def support_of(x: np.ndarray, tol: float = 0.0) -> np.ndarray:
    """Indices i with |x_i| > tol, ascending; a ``tol`` that is not ``>= 0`` (NaN too) raises."""
    if tol == 0.0:
        return np.nonzero(x)[0]
    if not tol >= 0:
        raise ValueError("tol must be nonnegative")
    return np.nonzero(np.abs(x) > tol)[0]


def _proper_support(x: np.ndarray) -> np.ndarray:
    """The support of ``x``; a :class:`DegenerateSupportError` unless 0 < ||x||_0 < n."""
    supp = support_of(x)
    if supp.size == 0 or supp.size == x.size:
        raise DegenerateSupportError("need 0 < ||x||_0 < n")
    return supp


def _complement(supp: np.ndarray, n: int) -> np.ndarray:
    """Indices in range(n) outside ``supp``, ascending."""
    mask = np.ones(n, dtype=bool)
    mask[supp] = False
    return mask.nonzero()[0]


def _norm(x: np.ndarray) -> float:
    """``np.linalg.norm(x)`` of a 1-D float64 vector, bit for bit, without its wrapper."""
    return math.sqrt(x.dot(x))


def _scatter(n: int, supp: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The n-vector holding ``values`` on ``supp`` and zeros elsewhere."""
    x = np.zeros(n)
    x[supp] = values
    return x


def sorting_permutation(v: np.ndarray) -> np.ndarray:
    """Permutation sigma with v[sigma] non-ascending; ties broken by ascending index."""
    return np.argsort(-np.asarray(v, dtype=np.float64), kind="stable")


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator; identical seeds give identical streams on all platforms."""
    return np.random.Generator(np.random.PCG64(seed))


class _Record:
    """Mixin of the report dataclasses: ``to_dict`` with arrays as lists, nested records as dicts."""

    def to_dict(self) -> dict:
        """The fields in declaration order."""
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}


def _plain(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value.to_dict() if isinstance(value, _Record) else value

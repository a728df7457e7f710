"""Catalog of permutation-symmetric closed convex sets with Euclidean projections.

Every member is either *nonnegative* (contained in the nonnegative orthant) or
*sign-free* (closed under coordinatewise sign flips).  Projections onto the
simplex and the l1 ball use the classic sort-and-threshold scheme (Duchi,
Shalev-Shwartz, Singer, Chandra, ICML 2008).  Vectors of at most
``_SCALAR_MAX`` entries, such as the s-sparse sub-projections of the sparse
projection, are thresholded in Python floats with the same operations in the
same order, so they give the same bits as the NumPy path at a fraction of its
per-call cost (the break-even, 56 to 64 entries on a 2-vCPU host, is
tabulated at the constant).  The feasibility tests of the simplex and the l1
balls, and the constraint gaps, take the minimum of such vectors in Python
floats too, and their sum when it is shorter than ``_NP_SERIAL_SUM``, where
``np.sum`` adds one entry after another.  Membership checks carry a tiny
absolute slack so that projecting an already-feasible point returns it
unchanged, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _norm, as_vector

__all__ = [
    "SymmetricSet",
    "full_space",
    "nonneg_orthant",
    "nonneg_simplex",
    "l1_ball",
    "l2_ball",
    "nonneg_l1_ball",
    "nonneg_l2_ball",
    "catalog",
    "parse_set",
]

_VARIANTS = ("full", "nonneg", "simplex", "l1ball", "l2ball", "nonneg-l1ball", "nonneg-l2ball")
_SIGN_FREE = frozenset({"full", "l1ball", "l2ball"})
_RADIUS_FREE = frozenset({"full", "nonneg"})

# slack for "already feasible" checks; keeps projections exact at fixed points
_FEAS_ATOL = 1e-12


# Largest vector whose simplex threshold runs on Python floats.  The NumPy
# path makes about ten calls of about 1 us each, whatever the size; the
# scalar loop costs about 0.2 us per entry.  Measured on a shared 2-vCPU
# x86-64 host (NumPy 2.4, Python 3.11; best of 9, two runs over normal and
# all-active inputs), us per threshold, scalar / NumPy: 5 entries 1.0-1.6 /
# 8.1-10.7, 20 entries 3.5-4.3 / 9.6-12.4, 48 entries 9.5-11.1 / 11.8-12.3,
# 56 entries 10.4-12.0 / 11.6-12.6, 64 entries 13.5-13.8 / 11.6-13.8, 96
# entries 19.3-20.7 / 12.3-13.9.  The break-even lies between 56 and 64; the
# cutoff stays below it.
_SCALAR_MAX = 48


# ``np.sum`` adds fewer than this many entries to 0.0 one after another
_NP_SERIAL_SUM = 8


def _total(x: np.ndarray) -> float:
    """``float(x.sum())``, bit for bit; below ``_NP_SERIAL_SUM`` entries in Python floats.

    Builtin ``sum`` is not used: from Python 3.12 it compensates the rounding
    of floats.
    """
    if x.size >= _NP_SERIAL_SUM:
        return float(x.sum())
    total = 0.0
    for u in x.tolist():
        total += u
    return total


def _least(x: np.ndarray) -> float:
    """``float(x.min())`` of a finite vector, up to the sign of a zero minimum."""
    return min(x.tolist()) if x.size <= _SCALAR_MAX else float(x.min())


def _finite_least(x: np.ndarray) -> float:
    """``float(x.min())`` when every entry is finite, else NaN.

    A finite sum proves every entry finite, as in :func:`as_vector`; builtin
    ``sum`` serves, as only its finiteness is read.  The check is needed
    because Python's ``min`` skips a NaN that does not come first.
    """
    if x.size <= _SCALAR_MAX:
        entries = x.tolist()
        return min(entries) if math.isfinite(sum(entries)) else math.nan
    return float(x.min()) if math.isfinite(x.sum()) else math.nan


def _scalar_shift(x: np.ndarray, r: float) -> float | None:
    """:func:`_array_shift` in Python floats, bit for bit, for short vectors.

    The running sum adds in the order of ``np.cumsum`` (starting from 0.0, it
    can differ only in the sign of a zero sum, which neither the test nor
    ``at - r`` sees); ``u * k`` and the division convert the integer count
    exactly, as NumPy does.
    """
    css = at = 0.0
    k = rho = 0
    for u in sorted(x.tolist(), reverse=True):
        k += 1
        css += u
        if u * k > css - r:
            rho, at = k, css
    return (at - r) / rho if rho else None


def _array_shift(x: np.ndarray, r: float) -> float | None:
    """The shift ``lam`` of the projection ``max(x - lam, 0)``.

    None when no prefix of the sorted entries passes the threshold test.
    """
    u = np.sort(x)[::-1]
    css = u.cumsum()
    passing = (u * np.arange(1, x.size + 1) > css - r).nonzero()[0]
    if not passing.size:
        return None
    rho = passing[-1]
    return (css[rho] - r) / (rho + 1.0)


def _shift(x: np.ndarray, r: float) -> float | None:
    return _scalar_shift(x, r) if x.size <= _SCALAR_MAX else _array_shift(x, r)


def _simplex_threshold(x: np.ndarray, r: float) -> np.ndarray:
    """Projection of x onto {z >= 0, sum(z) = r} by sorting and thresholding."""
    lam = _shift(x, r)
    if lam is not None:
        z = np.maximum(x - lam, 0.0)
        if abs(_total(z) - r) <= min(0.5 * r, 1e-3 * (1.0 + r)):
            return z
    # Rounding makes the sum miss r by a few ulp of the largest entries: at
    # most 2.1e-5 on 100 000 random vectors of up to 96 entries below 2e8 and
    # r = 1e-3, so such results keep their bits.  Entries so large that r is
    # a few ulp of them lose r outright: no prefix passes the test, or the
    # result misses r by a multiple of it.  A common shift of the entries
    # leaves the projection unchanged, and after x - max(x) the first test
    # reads 0 > -r and the entries that matter lie within r of 0.
    x = x - x.max()
    return np.maximum(x - _shift(x, r), 0.0)


@dataclass(frozen=True)
class SymmetricSet:
    """One catalog member, identified by variant name and (where relevant) a radius.

    Variants: ``full`` (all of R^n), ``nonneg`` (nonnegative orthant),
    ``simplex`` (nonnegative entries summing to ``radius``), ``l1ball``,
    ``l2ball``, ``nonneg-l1ball``, ``nonneg-l2ball``.
    """

    variant: str
    radius: float = 1.0

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown set variant {self.variant!r}")
        if self.variant not in _RADIUS_FREE and not 0 < self.radius < np.inf:
            raise ValueError("radius must be positive and finite")

    @property
    def kind(self) -> str:
        """``"nonnegative"`` or ``"sign-free"``."""
        return "sign-free" if self.variant in _SIGN_FREE else "nonnegative"

    def __str__(self) -> str:
        if self.variant in _RADIUS_FREE:
            return self.variant
        return f"{self.variant}:{self.radius:g}"

    def ranking_values(self, x: np.ndarray) -> np.ndarray:
        """Values by which coordinates are ranked for support selection.

        Identity for nonnegative sets, entrywise absolute value for sign-free
        sets.  Nonnegative on the set itself, and zero exactly at zero entries.
        """
        if self.kind == "sign-free":
            return np.abs(x)
        return np.asarray(x, dtype=np.float64)

    def project(self, x) -> np.ndarray:
        """Euclidean projection of ``x`` onto the set (unique, the set is convex)."""
        return self._project(as_vector(x))

    def project_sub(self, x_sub) -> np.ndarray:
        """Projection onto the restriction of the set to ``len(x_sub)`` coordinates.

        By permutation symmetry the restriction to an index set depends only on
        its size, and for every catalog member it has the same form in lower
        dimension (the simplex restricts to a lower-dimensional simplex with
        the same radius, and so on).
        """
        x_sub = as_vector(x_sub)
        if x_sub.size < 1:
            raise ValueError("restriction needs at least one coordinate")
        return self._project(x_sub)

    def _project(self, x: np.ndarray) -> np.ndarray:
        """:meth:`project` of a vector that :func:`as_vector` has already checked."""
        r = self.radius
        if self.variant == "full":
            return x
        if self.variant == "simplex":
            if _least(x) >= 0.0 and abs(_total(x) - r) <= _FEAS_ATOL * (1.0 + r):
                return x
            return _simplex_threshold(x, r)
        if self.kind == "nonnegative":  # the orthant, then the shape (Beck and Hallak)
            x = np.maximum(x, 0.0)
            if self.variant == "nonneg":
                return x
        if self.variant in ("l1ball", "nonneg-l1ball"):
            if _total(abs(x)) <= r + _FEAS_ATOL * (1.0 + r):
                return x
            w = _simplex_threshold(abs(x), r)
            return np.where(x < 0, -w, w)
        nrm = _norm(x)
        if nrm <= r + _FEAS_ATOL * (1.0 + r):
            return x
        return x * (r / nrm)

    def contains(self, x, tol: float = 1e-10) -> bool:
        """Membership test with absolute tolerance ``tol`` on each constraint."""
        shape_gap, nonneg_gap = self.constraint_gaps(x)
        return shape_gap <= tol and nonneg_gap <= tol

    def constraint_gaps(self, x) -> tuple[float, float]:
        """Violations ``(shape_gap, nonneg_gap)`` of the defining constraints.

        ``shape_gap`` is |sum - r| for the simplex and max(0, norm - r) for the
        balls; ``nonneg_gap`` is max(0, -min(x)) for nonnegative-kind sets.
        Both are zero for points in the set.
        """
        return self._constraint_gaps(as_vector(x))

    def _constraint_gaps(self, x: np.ndarray) -> tuple[float, float]:
        """:meth:`constraint_gaps` of a vector that :func:`as_vector` has already checked."""
        r = self.radius
        nonneg_gap = 0.0
        if self.kind == "nonnegative":
            nonneg_gap = max(0.0, -_least(x)) if x.size else 0.0
        if self.variant == "simplex":
            shape_gap = abs(_total(x) - r)
        elif self.variant in ("l1ball", "nonneg-l1ball"):
            shape_gap = max(0.0, _total(abs(x)) - r)
        elif self.variant in ("l2ball", "nonneg-l2ball"):
            shape_gap = max(0.0, _norm(x) - r)
        else:
            shape_gap = 0.0
        return shape_gap, nonneg_gap


def full_space() -> SymmetricSet:
    return SymmetricSet("full")


def nonneg_orthant() -> SymmetricSet:
    return SymmetricSet("nonneg")


def nonneg_simplex(radius: float = 1.0) -> SymmetricSet:
    return SymmetricSet("simplex", radius)


def l1_ball(radius: float = 1.0) -> SymmetricSet:
    return SymmetricSet("l1ball", radius)


def l2_ball(radius: float = 1.0) -> SymmetricSet:
    return SymmetricSet("l2ball", radius)


def nonneg_l1_ball(radius: float = 1.0) -> SymmetricSet:
    return SymmetricSet("nonneg-l1ball", radius)


def nonneg_l2_ball(radius: float = 1.0) -> SymmetricSet:
    return SymmetricSet("nonneg-l2ball", radius)


def catalog(radius: float = 1.0) -> list[SymmetricSet]:
    """All catalog members, parameterized ones at the given radius."""
    return [SymmetricSet(v) if v in _RADIUS_FREE else SymmetricSet(v, radius) for v in _VARIANTS]


def parse_set(text: str) -> SymmetricSet:
    """Parse ``full | nonneg | simplex[:r] | l1ball[:r] | l2ball[:r] | nonneg-l1ball[:r] | nonneg-l2ball[:r]``.

    The radius ``r`` defaults to 1 and must be positive and finite.
    """
    name, _, rad = text.strip().partition(":")
    if rad:
        if name in _RADIUS_FREE:
            raise ValueError(f"set {name!r} takes no radius")
        return SymmetricSet(name, float(rad))
    return SymmetricSet(name)

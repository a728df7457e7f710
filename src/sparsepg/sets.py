"""Catalog of permutation-symmetric closed convex sets with Euclidean projections.

Every member is either *nonnegative* (contained in the nonnegative orthant) or
*sign-free* (closed under coordinatewise sign flips).  Projections onto the
simplex and the l1 ball use the classic sort-and-threshold scheme (Duchi,
Shalev-Shwartz, Singer, Chandra, ICML 2008).  Membership checks carry a tiny
absolute slack so that projecting an already-feasible point returns it
unchanged, bit for bit.
"""

from __future__ import annotations

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

_SIGN_FREE = frozenset({"full", "l1ball", "l2ball"})
_NONNEGATIVE = frozenset({"nonneg", "simplex", "nonneg-l1ball", "nonneg-l2ball"})
_RADIUS_FREE = frozenset({"full", "nonneg"})

# slack for "already feasible" checks; keeps projections exact at fixed points
_FEAS_ATOL = 1e-12


def _simplex_threshold(x: np.ndarray, r: float) -> np.ndarray:
    """Projection of x onto {z >= 0, sum(z) = r} by sorting and thresholding."""
    u = np.sort(x)[::-1]
    css = u.cumsum()
    k = np.arange(1, x.size + 1)
    rho = (u * k > css - r).nonzero()[0][-1]
    lam = (css[rho] - r) / (rho + 1.0)
    return np.maximum(x - lam, 0.0)


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
        if self.variant not in _SIGN_FREE | _NONNEGATIVE:
            raise ValueError(f"unknown set variant {self.variant!r}")
        if self.variant not in _RADIUS_FREE and not self.radius > 0:
            raise ValueError("radius must be positive")

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
        if self.variant == "nonneg":
            return np.maximum(x, 0.0)
        if self.variant == "simplex":
            if x.min() >= 0.0 and abs(float(x.sum()) - r) <= _FEAS_ATOL * (1.0 + r):
                return x
            return _simplex_threshold(x, r)
        if self.variant == "l1ball":
            if float(abs(x).sum()) <= r + _FEAS_ATOL * (1.0 + r):
                return x
            w = _simplex_threshold(abs(x), r)
            return np.where(x < 0, -w, w)
        if self.variant == "l2ball":
            nrm = _norm(x)
            if nrm <= r + _FEAS_ATOL * (1.0 + r):
                return x
            return x * (r / nrm)
        if self.variant == "nonneg-l1ball":
            v = np.maximum(x, 0.0)
            if float(v.sum()) <= r + _FEAS_ATOL * (1.0 + r):
                return v
            return _simplex_threshold(x, r)
        # nonneg-l2ball: project onto the cone, then radially onto the ball
        v = np.maximum(x, 0.0)
        nrm = _norm(v)
        if nrm <= r + _FEAS_ATOL * (1.0 + r):
            return v
        return v * (r / nrm)

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
        x = as_vector(x)
        r = self.radius
        nonneg_gap = 0.0
        if self.kind == "nonnegative":
            nonneg_gap = max(0.0, -float(x.min())) if x.size else 0.0
        if self.variant == "simplex":
            shape_gap = abs(float(x.sum()) - r)
        elif self.variant in ("l1ball", "nonneg-l1ball"):
            shape_gap = max(0.0, float(abs(x).sum()) - r)
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
    return [
        full_space(),
        nonneg_orthant(),
        nonneg_simplex(radius),
        l1_ball(radius),
        l2_ball(radius),
        nonneg_l1_ball(radius),
        nonneg_l2_ball(radius),
    ]


def parse_set(text: str) -> SymmetricSet:
    """Parse ``full | nonneg | simplex[:r] | l1ball:<r> | l2ball:<r> | nonneg-l1ball:<r> | nonneg-l2ball:<r>``."""
    name, _, rad = text.strip().partition(":")
    if name not in _SIGN_FREE | _NONNEGATIVE:
        raise ValueError(f"unknown set {text!r}")
    if rad:
        if name in _RADIUS_FREE:
            raise ValueError(f"set {name!r} takes no radius")
        return SymmetricSet(name, float(rad))
    return SymmetricSet(name)

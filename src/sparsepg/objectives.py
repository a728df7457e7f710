"""Smooth loss functions with exact gradients and Lipschitz constants.

Solvers accept any object exposing ``value``, ``grad``, ``value_and_grad``,
``lipschitz`` and ``dim``; the two families below cover least squares and
logistic regression.

Both are losses of ``p = A @ x`` and share one evaluation path.  Since the
solvers' iterates are sparse, ``A @ x`` is formed from the columns on the
support S of ``x`` only, so ``value`` costs O(m * ||x||_0).  Each model keeps
the columns of its last support, and gathers them again only when S changes.
That cache holds m * ||x||_0 floats, up to a second copy of ``A`` as
||x||_0 nears n.  The gradient is ``A.T @ v`` for the loss derivative ``v``
in ``p``: its entries on S come from the support columns, ``A[:, S].T @ v``,
and only the others from the dense product.  ``grad`` and ``value_and_grad``
thus cost one dense ``A.T @ v`` plus O(m * ||x||_0), and a solver that needs
only the entries on S (the screened steps of ``pg_solve``) gets them, bit
for bit, for O(m * ||x||_0).
"""

from __future__ import annotations

import numpy as np

from .core import as_vector

__all__ = ["LeastSquares", "Logistic"]


def _top_singular_value_sq(mat: np.ndarray) -> float:
    """Largest squared singular value by power iteration on the Gram operator.

    Runs until the Rayleigh quotient stalls at relative change 1e-13, or for
    5000 iterations, enough for spectra with small relative gaps.
    """
    n = mat.shape[1]
    v = np.ones(n) / np.sqrt(n)
    # deterministic perturbation so the start is never orthogonal to the top vector
    v += np.linspace(0.0, 1.0, n) * 1e-3
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(5000):
        w = mat.T @ (mat @ v)
        new_lam = float(v @ w)
        nrm = float(np.linalg.norm(w))
        if nrm == 0.0:
            return 0.0
        v = w / nrm
        if abs(new_lam - lam) <= 1e-13 * max(1.0, abs(new_lam)):
            return new_lam
        lam = new_lam
    return lam


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp(-logaddexp(0, -z)) = 1/(1+exp(-z)), stable in both tails
    return np.exp(-np.logaddexp(0.0, -z))


class _LinearModel:
    """A loss of ``p = A @ x``: one evaluation path for every objective.

    Subclasses supply ``_loss(p)`` and ``_dloss(p)``, the m-vector ``v`` with
    gradient ``A.T @ v``.  ``value``, ``grad`` and ``value_and_grad`` check
    ``x`` and form ``p`` once per call in ``_evaluate``, the only place that
    forms ``A @ x``, and ``_gradient`` applies the support-column rule.
    """

    def __init__(self, A):
        self.A = np.array(A, dtype=np.float64)  # the model's own copy, read-only below
        self.A.flags.writeable = False
        if self.A.ndim != 2:
            raise ValueError("A must be a matrix")
        if not np.isfinite(self.A).all():
            raise ValueError("A must be finite")
        self._lipschitz: float | None = None
        self._supp = np.empty(0, dtype=np.intp)
        self._cols = self.A[:, self._supp]

    @property
    def dim(self) -> int:
        return self.A.shape[1]

    @property
    def lipschitz(self) -> float:
        """Squared largest singular value of A."""
        if self._lipschitz is None:
            self._lipschitz = _top_singular_value_sq(self.A)
        return self._lipschitz

    def _gradient(self, v: np.ndarray, supp: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """``A.T @ v`` with its entries on ``supp`` taken from ``cols.T @ v``."""
        g = self.A.T @ v
        g[supp] = cols.T @ v
        return g

    def _evaluate(self, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``p = A[:, S] @ x[S]`` of a checked vector, with its support S and ``A[:, S]``.

        The columns of the last support are kept, and the same support array
        is returned for as long as S does not change.
        """
        supp = x.nonzero()[0]
        # comparing the bytes is exact here, and 30x cheaper than np.array_equal
        if supp.tobytes() != self._supp.tobytes():
            self._supp, self._cols = supp, self.A[:, supp]
        return self._cols @ x[supp], self._supp, self._cols

    def value(self, x) -> float:
        return self._loss(self._evaluate(as_vector(x, self.dim))[0])

    def grad(self, x) -> np.ndarray:
        p, supp, cols = self._evaluate(as_vector(x, self.dim))
        return self._gradient(self._dloss(p), supp, cols)

    def value_and_grad(self, x) -> tuple[float, np.ndarray]:
        p, supp, cols = self._evaluate(as_vector(x, self.dim))
        return self._loss(p), self._gradient(self._dloss(p), supp, cols)


class LeastSquares(_LinearModel):
    """f(x) = 0.5 * ||A x - b||^2."""

    def __init__(self, A, b):
        super().__init__(A)
        self.b = as_vector(b, self.A.shape[0]).copy()
        self.b.flags.writeable = False

    def _loss(self, p: np.ndarray) -> float:
        r = p - self.b
        return 0.5 * float(r @ r)

    def _dloss(self, p: np.ndarray) -> np.ndarray:
        return p - self.b


class Logistic(_LinearModel):
    """f(x) = sum_i log(1 + exp(-b_i <a_i, x>)) with labels b_i in {-1, +1}.

    Rows of ``A`` are the samples a_i.  Evaluation uses logaddexp so large
    margins neither overflow nor lose the tail.  The Lipschitz constant is
    that of A: flipping the sign of rows leaves A^T A unchanged, exactly in
    floating point, so the label-scaled matrix is never formed.
    """

    def __init__(self, A, labels):
        super().__init__(A)
        self.labels = as_vector(labels, self.A.shape[0]).copy()
        self.labels.flags.writeable = False
        if not np.all(np.isin(self.labels, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")

    def _loss(self, p: np.ndarray) -> float:
        return float(np.logaddexp(0.0, -(self.labels * p)).sum())

    def _dloss(self, p: np.ndarray) -> np.ndarray:
        return -(self.labels * _sigmoid(-(self.labels * p)))

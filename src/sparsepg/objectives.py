"""Smooth loss functions with exact gradients and Lipschitz constants.

Solvers accept any object exposing ``value``, ``grad``, ``value_and_grad``,
``lipschitz`` and ``dim``; the two families below cover least squares and
logistic regression.

Both are losses of ``p = A @ x`` and share one evaluation path.  Since the
solvers' iterates are sparse, ``A @ x`` is formed from the columns on the
support S of ``x`` only, so ``value`` costs O(m * ||x||_0).  Each model keeps
the columns of its last support, and gathers them again only when S changes.
That cache holds m * ||x||_0 floats, up to a second copy of ``A`` as
||x||_0 nears n.  A caller that already knows S and its columns (the screened
steps of ``pg_solve``) passes them in, and no n-wide scan for S runs.  The
gradient is ``A.T @ v`` for the loss derivative ``v`` in ``p``: its entries
on S come from the support columns, ``A[:, S].T @ v``, and only the others
from the dense product.  ``grad`` and ``value_and_grad`` thus cost one dense
``A.T @ v`` plus O(m * ||x||_0), and a solver that needs only the entries on
S gets them, bit for bit, for O(m * ||x||_0).

Each model forms its loss and derivative in one pass over ``p``, the same
arithmetic on every path.  The logistic loss takes one ``logaddexp``: with
``u = labels * p`` and ``l = logaddexp(0, -u)``, the loss is ``sum(l)`` and
``v = -labels * exp(-l - u)``, since ``sigmoid(-u) = exp(-l - u)``.  The
loss has the bits of a direct ``logaddexp`` sum, and ``v`` stays within
``2 * eps * (1 + |u|)`` relative of the two-pass ``-labels * sigmoid(-u)``:
``l`` and ``-l - u`` carry absolute rounding errors of order eps * |u|, which
``exp`` turns into relative ones.
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


class _LinearModel:
    """A loss of ``p = A @ x``: one evaluation path for every objective.

    Subclasses supply ``_loss_and_dloss(p)``: the loss and the m-vector ``v``
    with gradient ``A.T @ v``, from one pass over ``p``.  ``value``, ``grad``
    and ``value_and_grad`` check ``x`` and form ``p`` once per call in
    ``_evaluate``, the only place that forms ``A @ x``, and ``_gradient``
    applies the support-column rule.
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

    def _evaluate(self, x, supp=None, cols=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``p = A[:, S] @ x[S]`` of a checked vector, with its support S and ``A[:, S]``.

        ``supp`` and ``cols``, when given, must be the support of ``x`` and
        ``A[:, supp]``; otherwise :meth:`_support_columns` finds them.
        """
        if supp is None:
            supp, cols = self._support_columns(x)
        return cols @ x[supp], supp, cols

    def _support_columns(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The support of ``x`` and its columns, by one n-wide scan.

        The columns of the last support are kept, and the same support array
        is returned for as long as S does not change.
        """
        supp = x.nonzero()[0]
        # comparing the bytes is exact here, and 30x cheaper than np.array_equal
        if supp.tobytes() != self._supp.tobytes():
            self._supp, self._cols = supp, self.A[:, supp]
        return self._supp, self._cols

    def _loss(self, p: np.ndarray) -> float:
        return self._loss_and_dloss(p)[0]

    def value(self, x) -> float:
        return self._loss(self._evaluate(as_vector(x, self.dim))[0])

    def grad(self, x) -> np.ndarray:
        p, supp, cols = self._evaluate(as_vector(x, self.dim))
        return self._gradient(self._loss_and_dloss(p)[1], supp, cols)

    def value_and_grad(self, x) -> tuple[float, np.ndarray]:
        p, supp, cols = self._evaluate(as_vector(x, self.dim))
        f, v = self._loss_and_dloss(p)
        return f, self._gradient(v, supp, cols)


class LeastSquares(_LinearModel):
    """f(x) = 0.5 * ||A x - b||^2."""

    def __init__(self, A, b):
        super().__init__(A)
        self.b = as_vector(b, self.A.shape[0]).copy()
        self.b.flags.writeable = False

    def _loss_and_dloss(self, p: np.ndarray) -> tuple[float, np.ndarray]:
        r = p - self.b
        return 0.5 * float(r @ r), r


class Logistic(_LinearModel):
    """f(x) = sum_i log(1 + exp(-b_i <a_i, x>)) with labels b_i in {-1, +1}.

    Rows of ``A`` are the samples a_i.  Evaluation takes one logaddexp pass
    for the loss and its derivative (see the module docstring), so large
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
        self._flipped = -self.labels

    def _loss(self, p: np.ndarray) -> float:
        return float(np.logaddexp(0.0, self._flipped * p).sum())

    def _loss_and_dloss(self, p: np.ndarray) -> tuple[float, np.ndarray]:
        # flipping signs is exact, so -u = -labels * p and v = -labels * exp(-u - l)
        neg_u = self._flipped * p
        ell = np.logaddexp(0.0, neg_u)
        v = neg_u - ell
        np.exp(v, out=v)  # sigmoid(-u)
        v *= self._flipped
        return float(ell.sum()), v

"""Smooth loss functions with exact gradients and estimated Lipschitz constants.

Solvers accept any object exposing ``value``, ``grad``, ``value_and_grad``,
``lipschitz`` and ``dim``; the two families below cover least squares and
logistic regression.

The Lipschitz constant of both is ``||A||_2^2``, the largest eigenvalue of
``A.T @ A``, estimated by Lanczos on ``v -> A.T @ (A @ v)`` from a fixed
pseudo-random start, with full reorthogonalization.  It stops when the Krylov
space is invariant, when the Ritz error estimate falls to 1e-15 relative, or
at the dimension bound of the Krylov space.  The estimate is a Ritz value, so
it comes from below; against ``np.linalg.norm(A, 2) ** 2`` it was measured
within 3e-15 relative over 20 000 small-integer matrices and the acceptance
seeds, but it is no proven upper bound.  Negating a row of ``A`` negates one
entry of ``A @ v`` and leaves ``A.T @ (A @ v)`` bit for bit the same, so the
logistic labels' sign flips change no bit of the estimate.

Each model holds ``A`` as a read-only float64 array in the memory layout it
was given.  A read-only float64 ndarray that owns its data is adopted as is:
the logistic and simplex generators mark their matrix so and drop it, so no
second copy is made.  Any other input, an array a caller may still write, a
view or another dtype, is copied with ``np.array`` (order K, so the layout
and with it the BLAS bits stay).

Both are losses of ``p = A @ x`` and share one evaluation path.  Since the
solvers' iterates are sparse, ``A @ x`` is formed from the columns on the
support S of ``x`` only: each public call finds S by one n-wide scan and
gathers ``A[:, S]`` anew, so ``value`` costs O(m * ||x||_0).  The gradient is
``A.T @ v`` for the loss derivative ``v`` in ``p``: its entries on S come
from the support columns, ``A[:, S].T @ v``, and only the others from the
dense product.  ``grad`` and ``value_and_grad`` thus cost one dense
``A.T @ v`` plus O(m * ||x||_0), and a solver that needs only the entries on
S gets them, bit for bit, for O(m * ||x||_0).

The models keep nothing of their evaluations: after construction they hold
``A``, ``b`` or the labels and their negation, and the Lipschitz estimate
once it is asked for.  ``grad`` and ``value_and_grad`` form g anew on each
call, in a new array.  What a solve reuses between evaluations, the support
columns while S stays put and the loss derivative at the last point, the
solvers' step objects keep for the length of one solve (see
:mod:`sparsepg.solvers`), so two solves that share a model share nothing
else.

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

from .core import as_vector, make_rng

__all__ = ["LeastSquares", "Logistic"]

_EPS = float(np.finfo(np.float64).eps)


def _top_singular_value_sq(mat: np.ndarray) -> float:
    """Largest eigenvalue of ``A.T @ A`` by Lanczos, from below, to a few ulps.

    Runs Lanczos on ``v -> A.T @ (A @ v)`` from a fixed pseudo-random start,
    with each new vector orthogonalized against all kept ones (classical
    Gram-Schmidt, twice), and returns the top Ritz value theta_1 of the
    tridiagonal T_j at the first step where

    - the next residual beta is at most eps * theta_1: the Krylov space is
      invariant, so theta_1 is an eigenvalue;
    - the error estimate (beta * |last entry of theta_1's Ritz vector|)^2 /
      (theta_1 - theta_2) is at most 1e-15 * theta_1;
    - the step count reaches min(m + 1, n), the bound on the Krylov space's
      dimension.

    A zero matrix gives 0.0.
    """
    m, n = mat.shape
    steps = min(m + 1, n)
    cap = min(steps, 32)  # rows kept, doubled as needed; most table matrices stop within 32 steps
    basis = np.empty((cap, n))  # the Lanczos vectors, one per row
    tri = np.zeros((cap, cap))  # T_j, lower triangle
    # uniform entries, not Gaussian: their positive mean leans the start toward
    # the top singular vector of uncentered data (4-6 steps on Table-2
    # matrices, against 5-7), and their random part keeps it off every fixed
    # subspace, such as the null space of [1, -2, 1]
    q = make_rng(0).random(n)
    q /= np.linalg.norm(q)
    theta = 0.0
    for j in range(steps):
        basis[j] = q
        w = mat.T @ (mat @ q)
        tri[j, j] = q @ w
        kept = basis[: j + 1]
        # one pass is as close to the SVD value on every matrix tried, but it
        # moves half the benchmark estimates by up to 9e-16 relative, and with
        # them the bits of every trace; the second pass keeps those bits
        for _ in range(2):
            w -= kept.T @ (kept @ w)
        beta = float(np.linalg.norm(w))
        ritz, vecs = np.linalg.eigh(tri[: j + 1, : j + 1], UPLO="L")
        theta = float(ritz[-1])
        if beta <= _EPS * theta or j + 1 == steps:
            break
        if j and (beta * vecs[-1, -1]) ** 2 <= 1e-15 * theta * (theta - ritz[-2]):
            break
        if j + 1 == cap:
            cap = min(2 * cap, steps)
            basis = np.concatenate((basis, np.empty((cap - j - 1, n))))
            tri = np.pad(tri, (0, cap - j - 1))
        tri[j + 1, j] = beta
        q = w / beta
    return theta


class _LinearModel:
    """A loss of ``p = A @ x``: one evaluation path for every objective.

    Subclasses supply ``_loss_and_dloss(p)``: the loss and the m-vector ``v``
    with gradient ``A.T @ v``, from one pass over ``p``.  ``value``, ``grad``
    and ``value_and_grad`` check ``x`` on every call and form ``p`` in
    ``_evaluate``.  ``_gradient`` applies the support-column rule.
    """

    def __init__(self, A):
        # adopt a read-only float64 array that owns its data; copy any other in
        # its memory layout (order K), which keeps the BLAS bits
        owned = type(A) is np.ndarray and A.dtype == np.float64 and A.flags.owndata
        self.A = A if owned and not A.flags.writeable else np.array(A, dtype=np.float64)
        self.A.flags.writeable = False
        if self.A.ndim != 2:
            raise ValueError("A must be a matrix")
        if not np.isfinite(self.A).all():
            raise ValueError("A must be finite")
        self._lipschitz: float | None = None

    @property
    def dim(self) -> int:
        return self.A.shape[1]

    @property
    def lipschitz(self) -> float:
        """Squared largest singular value of A: a Lanczos estimate from below.

        Lanczos stops when its Krylov space is invariant, when its Ritz error
        estimate falls to 1e-15 relative, or after min(m + 1, n) steps.  The
        estimate is measured within a few ulps of ``np.linalg.norm(A, 2) ** 2``
        but is not a proven upper bound.  Computed once, on first access.
        """
        if self._lipschitz is None:
            self._lipschitz = _top_singular_value_sq(self.A)
        return self._lipschitz

    def _gradient(self, v: np.ndarray, supp: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """``A.T @ v`` with its entries on ``supp`` taken from ``cols.T @ v``."""
        g = self.A.T @ v
        g[supp] = cols.T @ v
        return g

    def _evaluate(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``p = A[:, S] @ x[S]`` of a checked vector, with its support S and ``A[:, S]``.

        S is found by one n-wide scan, and ``A[:, S]`` gathered anew.
        """
        supp = x.nonzero()[0]
        cols = self.A[:, supp]
        return cols @ x[supp], supp, cols

    def value(self, x) -> float:
        return self._loss_and_dloss(self._evaluate(as_vector(x, self.dim))[0])[0]

    def grad(self, x) -> np.ndarray:
        return self.value_and_grad(x)[1]

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

    def _loss_and_dloss(self, p: np.ndarray) -> tuple[float, np.ndarray]:
        # flipping signs is exact, so -u = -labels * p and v = -labels * exp(-u - l)
        neg_u = self._flipped * p
        ell = np.logaddexp(0.0, neg_u)
        v = neg_u - ell
        np.exp(v, out=v)  # sigmoid(-u)
        v *= self._flipped
        return float(ell.sum()), v

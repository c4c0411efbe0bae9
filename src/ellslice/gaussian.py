"""Zero-mean multivariate Gaussian with a cached square root of its covariance.

Everything downstream (samplers, conditional blocks, posterior oracles)
funnels through :class:`GaussianPrior`: one factorization per covariance,
then draws are a multiply by the root (:meth:`~GaussianPrior.draw` also
returns the white noise behind the draw) and whitening is a solve with it
(:meth:`~GaussianPrior.whiten`). The normalizing constant of the
log-density is computed once, with the root.

The root is the lower Cholesky factor, unless the covariance needed jitter
and has low numerical rank; then it is a symmetric low-rank-plus-jitter
root and draws and whitening cost O(n r) instead of O(n^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dpstrf

from .errors import DimensionMismatch, NotPositiveDefinite

JITTER_SCALE = 1e-10
_JITTER_ATTEMPTS = 3
# pivots of the rank-revealing Cholesky below this fraction of the largest
# variance are dropped: far under the jitter added in their place
_RANK_TOL = 1e-14

LOG_2PI = math.log(2.0 * math.pi)


def check_covariance(cov: np.ndarray) -> np.ndarray:
    """Validate and return a dense covariance matrix.

    Requires a square 2-d array with finite entries, symmetric to within
    1e-12 relative to the largest absolute entry.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or cov.shape[0] < 1:
        raise ValueError(f"covariance must be a square matrix, got shape {cov.shape}")
    if not np.all(np.isfinite(cov)):
        raise ValueError("covariance contains non-finite entries")
    scale = np.abs(cov).max()
    if scale > 0 and np.abs(cov - cov.T).max() > 1e-12 * scale:
        raise ValueError("covariance is not symmetric")
    return cov


@dataclass(frozen=True)
class GaussianPrior:
    """N(0, cov + jitter * I) with a cached square root A of its covariance.

    ``jitter`` is whatever diagonal repair :func:`factorize` actually had to
    add (0.0 on well-conditioned input) and ``rank`` the numerical rank of
    ``cov`` (``n`` when it needed no jitter). The root has one of two forms,
    named by ``backend``:

    * ``"dense"``: ``chol``, lower triangular, ``chol @ chol.T == cov +
      jitter * I``; ``basis`` and ``eig`` are None.
    * ``"low-rank"``: ``cov`` is numerically ``basis @ diag(eig) @ basis.T``
      with orthonormal ``basis`` (n x rank), and the root is the symmetric
      A = sqrt(j) I + basis diag(sqrt(eig + j) - sqrt(j)) basis.T, so
      A A^T = basis diag(eig) basis.T + jitter * I; ``chol`` is None.

    ``log_norm`` is the log normalizing constant -n/2 log(2 pi) - log|A|,
    so that ``log_density(f) == log_norm - |whiten(f)|^2 / 2``. Immutable,
    so one prior can be shared across chains. ``conditionals`` is where
    :func:`~ellslice.blocking.block_update` keeps, per partition, the pair
    (gain Cov_AB Cov_BB^-1, block prior over the factorized Schur
    complement), or the message of its failure to factorize; they are
    derived from ``cov`` alone, so they never go stale.
    """

    cov: np.ndarray
    chol: np.ndarray | None
    jitter: float = 0.0
    rank: int | None = None
    basis: np.ndarray | None = None
    eig: np.ndarray | None = None
    n: int = field(init=False)
    log_norm: np.float64 = field(init=False)
    conditionals: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # low-rank root only: (c, d) with A = c I + basis diag(d) basis^T, and
    # the same for A^-1
    _root: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _inv_root: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.cov.shape[0]
        object.__setattr__(self, "n", n)
        if self.rank is None:
            object.__setattr__(self, "rank", n)
        # kept a NumPy scalar, as np.sum returns it, so log-densities and
        # line-slice thresholds are np.float64, whose repr the pinned trace
        # digests hash
        if self.chol is not None:
            half_logdet = np.sum(np.log(np.diag(self.chol)))
        else:
            root_j, root_eig = math.sqrt(self.jitter), np.sqrt(self.eig + self.jitter)
            object.__setattr__(self, "_root", (root_j, root_eig - root_j))
            object.__setattr__(self, "_inv_root", (1.0 / root_j, 1.0 / root_eig - 1.0 / root_j))
            half_logdet = np.sum(np.log(root_eig)) + (n - self.rank) * math.log(root_j)
        object.__setattr__(self, "log_norm", -0.5 * n * LOG_2PI - half_logdet)

    @property
    def backend(self) -> str:
        """``"dense"`` (Cholesky root) or ``"low-rank"`` (low-rank-plus-jitter root)."""
        return "dense" if self.chol is not None else "low-rank"

    def draw(self, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Draw ``(nu, z)``: z ~ N(0, I), n normals, and nu = A z ~ N(0, cov + jitter*I)."""
        z = rng.standard_normal(self.n)
        if self.chol is not None:
            return self.chol @ z, z
        c, d = self._root
        return c * z + self.basis @ (d * (self.basis.T @ z)), z

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Draw one vector from N(0, cov + jitter*I): one multiply by the root."""
        return self.draw(rng)[0]

    def whiten(self, f: np.ndarray) -> np.ndarray:
        """Solve ``A w = f`` for w, which is N(0, I) when f is a prior draw.

        A triangular solve with the dense root, O(n r) with the low-rank one.
        The root was checked once by :func:`factorize`, so only ``f`` is
        scanned for infs and NaNs.

        Raises
        ------
        DimensionMismatch
            If ``f`` is not a vector of length ``n``.
        ValueError
            If ``f`` contains infs or NaNs.
        """
        f = np.asarray(f, dtype=float)
        if f.shape != (self.n,):
            raise DimensionMismatch(
                f"expected vector of length {self.n}, got shape {f.shape}"
            )
        if not np.isfinite(f).all():
            raise ValueError("vector must not contain infs or NaNs")
        if self.chol is not None:
            return scipy.linalg.solve_triangular(self.chol, f, lower=True, check_finite=False)
        c, d = self._inv_root
        return c * f + self.basis @ (d * (self.basis.T @ f))

    def log_density(self, f: np.ndarray) -> float:
        """Exact log N(f; 0, A A^T): one whitening solve."""
        w = self.whiten(f)
        return self.log_norm - 0.5 * float(w @ w)


def jittered_cholesky(cov: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of ``cov + jitter * I`` and the jitter it took.

    The one place jitter is chosen. A plain factorization is attempted
    first. On failure, retries with ``jitter = JITTER_SCALE * max(diag(cov))``
    (1e-10 of the largest variance) added to the diagonal, escalating the
    jitter tenfold for ``_JITTER_ATTEMPTS`` (3) attempts.

    Raises
    ------
    ValueError
        If ``cov`` fails :func:`check_covariance`.
    NotPositiveDefinite
        If every attempt fails; the covariance is genuinely invalid.
    """
    cov = check_covariance(cov)
    base = JITTER_SCALE * float(np.max(np.diag(cov)))
    jitters = [0.0] + [base * 10.0**k for k in range(_JITTER_ATTEMPTS)]
    for jitter in jitters:
        try:
            return np.linalg.cholesky(cov + jitter * np.eye(cov.shape[0])), jitter
        except np.linalg.LinAlgError:
            continue
    raise NotPositiveDefinite(
        f"factorization failed after jitter escalation (last tried {jitters[-1]:g})"
    )


def factorize(cov: np.ndarray) -> GaussianPrior:
    """Factorize a covariance, repairing near-singularity with jitter.

    The jitter comes from :func:`jittered_cholesky`. When it is positive,
    a pivoted Cholesky factorization (tolerance 1e-14 of the largest
    variance) finds the numerical rank r of ``cov``. If 2r < n, the prior
    keeps the low-rank-plus-jitter root built from that factor's thin SVD
    and drops the dense factor; otherwise it keeps the dense factor.

    Raises
    ------
    ValueError
        If ``cov`` fails :func:`check_covariance`.
    NotPositiveDefinite
        If every attempt fails; the covariance is genuinely invalid.
    """
    cov = np.asarray(cov, dtype=float)
    chol, jitter = jittered_cholesky(cov)
    if jitter == 0.0:
        return GaussianPrior(cov=cov, chol=chol)
    n = cov.shape[0]
    # P^T cov P = L L^T; the first r columns of L, rows put back in order,
    # are a factor G with cov ~ G G^T
    piv_chol, piv, rank, _ = dpstrf(cov, lower=1, tol=_RANK_TOL * float(np.max(np.diag(cov))))
    rank = int(rank)
    # the O(n r) root only pays when it is less than half the width of the
    # dense one
    if 2 * rank >= n:
        return GaussianPrior(cov=cov, chol=chol, jitter=jitter, rank=rank)
    factor = np.empty((n, rank))
    factor[piv - 1] = np.tril(piv_chol[:, :rank])
    basis, sing, _ = np.linalg.svd(factor, full_matrices=False)
    return GaussianPrior(cov=cov, chol=None, jitter=jitter, rank=rank, basis=basis, eig=sing**2)

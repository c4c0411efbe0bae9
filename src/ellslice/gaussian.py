"""Zero-mean multivariate Gaussian with a cached Cholesky factor.

Everything downstream (samplers, conditional blocks, posterior oracles)
funnels through :class:`GaussianPrior`: one factorization per covariance,
then draws are a triangular multiply (:meth:`~GaussianPrior.draw` also
returns the white noise behind the draw) and whitening is a triangular
solve (:meth:`~GaussianPrior.whiten`). The normalizing constant of the
log-density is computed once, with the factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, NotPositiveDefinite

JITTER_SCALE = 1e-10
_JITTER_ATTEMPTS = 3

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
    """N(0, cov + jitter * I) with cached lower-triangular factor.

    ``chol @ chol.T == cov + jitter * I``; ``jitter`` is whatever diagonal
    repair :func:`factorize` actually had to add (0.0 on well-conditioned
    input). ``log_norm`` is the log normalizing constant
    -n/2 log(2 pi) - sum(log diag(chol)), so that
    ``log_density(f) == log_norm - |whiten(f)|^2 / 2``. Immutable, so one
    prior can be shared across chains. ``conditionals`` is where
    :func:`~ellslice.blocking.block_update` keeps each partition's
    conditional factors; they are derived from ``cov`` alone, so they never
    go stale.
    """

    cov: np.ndarray
    chol: np.ndarray
    jitter: float = 0.0
    n: int = field(init=False)
    log_norm: np.float64 = field(init=False)
    conditionals: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "n", self.cov.shape[0])
        # kept a NumPy scalar, as np.sum returns it, so log-densities and
        # line-slice thresholds are np.float64, whose repr the pinned trace
        # digests hash
        half_logdet = np.sum(np.log(np.diag(self.chol)))
        object.__setattr__(self, "log_norm", -0.5 * self.n * LOG_2PI - half_logdet)

    def draw(self, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Draw ``(nu, z)``: z ~ N(0, I) and nu = chol @ z ~ N(0, cov + jitter*I)."""
        z = rng.standard_normal(self.n)
        return self.chol @ z, z

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Draw one vector from N(0, cov + jitter*I): a triangular multiply per draw."""
        return self.draw(rng)[0]

    def whiten(self, f: np.ndarray) -> np.ndarray:
        """Solve ``chol @ w = f`` for w, which is N(0, I) when f is a prior draw.

        The factor was checked once by :func:`factorize`, so the solve skips
        SciPy's finiteness scan of it; a non-finite ``f`` shows up in ``w``.

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
        w = scipy.linalg.solve_triangular(self.chol, f, lower=True, check_finite=False)
        if not np.isfinite(w).all():
            raise ValueError("vector must not contain infs or NaNs")
        return w

    def log_density(self, f: np.ndarray) -> float:
        """Exact log N(f; 0, cov + jitter*I): one triangular solve."""
        w = self.whiten(f)
        return self.log_norm - 0.5 * float(w @ w)


def factorize(cov: np.ndarray) -> GaussianPrior:
    """Cholesky-factorize a covariance, repairing near-singularity with jitter.

    A plain factorization is attempted first. On failure, retries with
    ``jitter = JITTER_SCALE * max(diag(cov))`` (1e-10 of the largest
    variance) added to the diagonal, escalating the jitter tenfold for
    ``_JITTER_ATTEMPTS`` (3) attempts.

    Raises
    ------
    NotPositiveDefinite
        If every attempt fails; the covariance is genuinely invalid.
    """
    cov = check_covariance(cov)
    base = JITTER_SCALE * float(np.max(np.diag(cov)))
    jitters = [0.0] + [base * 10.0**k for k in range(_JITTER_ATTEMPTS)]
    for jitter in jitters:
        try:
            chol = np.linalg.cholesky(cov + jitter * np.eye(cov.shape[0]))
        except np.linalg.LinAlgError:
            continue
        return GaussianPrior(cov=cov, chol=chol, jitter=jitter)
    raise NotPositiveDefinite(
        f"factorization failed after jitter escalation (last tried {jitters[-1]:g})"
    )


def rotate(
    f: np.ndarray, nu: np.ndarray, theta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Rotate the pair (f, nu) by angle theta in their shared plane.

    Returns ``(nu*sin(theta) + f*cos(theta), nu*cos(theta) - f*sin(theta))``.
    The map has unit Jacobian and leaves the joint N(0, cov) density of the
    pair unchanged for any theta.
    """
    f = np.asarray(f, dtype=float)
    nu = np.asarray(nu, dtype=float)
    if f.shape != nu.shape:
        raise DimensionMismatch(f"shape mismatch: {f.shape} vs {nu.shape}")
    c, s = math.cos(theta), math.sin(theta)
    return nu * s + f * c, nu * c - f * s

"""Zero-mean multivariate Gaussian with a cached Cholesky factor.

Everything downstream (samplers, conditional blocks, posterior oracles)
funnels through :class:`GaussianPrior`: one factorization per covariance,
then draws are a triangular multiply and log-densities a triangular solve.
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
    input). Immutable, so one prior can be shared across chains.
    """

    cov: np.ndarray
    chol: np.ndarray
    jitter: float = 0.0
    n: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "n", self.cov.shape[0])

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Draw one vector from N(0, cov + jitter*I): a triangular multiply per draw."""
        return self.chol @ rng.standard_normal(self.n)

    def log_density(self, f: np.ndarray) -> float:
        """Exact log N(f; 0, cov + jitter*I) via the cached factor."""
        f = np.asarray(f, dtype=float)
        if f.shape != (self.n,):
            raise DimensionMismatch(
                f"expected vector of length {self.n}, got shape {f.shape}"
            )
        half_logdet = np.sum(np.log(np.diag(self.chol)))
        w = scipy.linalg.solve_triangular(self.chol, f, lower=True)
        return -0.5 * self.n * LOG_2PI - half_logdet - 0.5 * float(w @ w)


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

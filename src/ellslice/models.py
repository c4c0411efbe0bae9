"""Likelihood models and synthetic data for the three benchmark tasks:
Gaussian regression, binary classification, and a log-Gaussian Cox process
over binned event counts.

Every log-likelihood includes its normalization constants so that traces
from different samplers on the same data are directly comparable. All
likelihoods are deterministic and return a finite value or -inf, never NaN,
for finite latents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date

import numpy as np
import scipy.linalg
from scipy.special import gammaln, log_ndtr

from .errors import DimensionMismatch
# factorize is unused here but stays importable from this module:
# perfbench/tracer.py patches models.factorize
from .gaussian import GaussianPrior, factorize, jittered_cholesky
from .kernels import KernelConfig, squared_exponential

LOG_2PI = math.log(2.0 * math.pi)


def _check_length(f: np.ndarray, n: int) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.shape != (n,):
        raise DimensionMismatch(f"latent vector has shape {f.shape}, expected ({n},)")
    return f


@dataclass(frozen=True)
class ConstantLikelihood:
    """log L == value everywhere; the posterior is the prior."""

    n: int
    value: float = 0.0

    def log_lik(self, f: np.ndarray) -> float:
        _check_length(f, self.n)
        return self.value


class RegressionData:
    """Gaussian observations y_i ~ N(f_i, noise_variance).

    Zero noise variance is allowed only as a container for noise-free
    generated data; evaluating the likelihood requires it positive.
    """

    def __init__(self, y: np.ndarray, noise_variance: float):
        self.y = np.asarray(y, dtype=float)
        if self.y.ndim != 1:
            raise ValueError("y must be a vector")
        if not (math.isfinite(noise_variance) and noise_variance >= 0):
            raise ValueError(f"invalid noise_variance {noise_variance!r}")
        self.noise_variance = float(noise_variance)
        self.n = len(self.y)
        # -n/2 log(2 pi v); undefined at v = 0, where log_lik raises
        self._log_norm = (
            -0.5 * self.n * (LOG_2PI + math.log(self.noise_variance))
            if self.noise_variance > 0.0 else math.nan
        )

    def log_lik(self, f: np.ndarray) -> float:
        if self.noise_variance == 0.0:
            raise ValueError("noise_variance must be positive to evaluate the likelihood")
        f = _check_length(f, self.n)
        resid = self.y - f
        # Python floats: a subnormal variance overflows the quotient to inf
        # (so log L = -inf) without NumPy's scalar overflow warning
        return self._log_norm - 0.5 * float(resid @ resid) / self.noise_variance


class ClassificationData:
    """Binary labels in {-1, +1} through a logistic or probit link."""

    def __init__(self, labels: np.ndarray, link: str = "logistic"):
        self.labels = np.asarray(labels, dtype=float)
        if self.labels.ndim != 1 or not np.all(np.isin(self.labels, (-1.0, 1.0))):
            raise ValueError("labels must be a vector of -1/+1")
        if link not in ("logistic", "probit"):
            raise ValueError(f"link must be 'logistic' or 'probit', got {link!r}")
        self.link = link
        self.n = len(self.labels)

    def log_lik(self, f: np.ndarray) -> float:
        f = _check_length(f, self.n)
        a = self.labels * f
        if self.link == "logistic":
            # log(1 / (1 + e^-a)) = -log1p(e^-a), stable for any |a|
            return float(-np.logaddexp(0.0, -a).sum())
        return float(log_ndtr(a).sum())


class CoxData:
    """Poisson counts per bin with log-intensity f_i + offset."""

    def __init__(self, counts: np.ndarray, offset: float):
        self.counts = np.asarray(counts)
        if self.counts.ndim != 1 or np.any(self.counts < 0):
            raise ValueError("counts must be a vector of non-negative integers")
        if np.any(self.counts != np.floor(self.counts)):
            raise ValueError("counts must be integers")
        self.counts = self.counts.astype(np.int64)
        self.offset = float(offset)
        self.n = len(self.counts)
        self._log_factorials = gammaln(self.counts + 1.0)
        # the product with log_rate converts the counts anyway; converting once saves it per call
        self._float_counts = self.counts.astype(float)

    def log_lik(self, f: np.ndarray) -> float:
        f = _check_length(f, self.n)
        log_rate = f + self.offset
        with np.errstate(over="ignore"):
            rate = np.exp(log_rate)
        return float((self._float_counts * log_rate - rate - self._log_factorials).sum())


def _latent_draw(
    inputs: np.ndarray, kernel: KernelConfig, rng: np.random.Generator
) -> np.ndarray:
    """True latents: one draw from N(0, cov + jitter*I) through the dense
    jittered Cholesky factor, so a seed gives the same dataset whichever
    root :func:`~ellslice.gaussian.factorize` keeps for the chains."""
    chol, _ = jittered_cholesky(squared_exponential(inputs, kernel))
    return chol @ rng.standard_normal(inputs.shape[0])


def generate_regression_dataset(
    n: int,
    dims: int,
    kernel: KernelConfig,
    noise_std: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, RegressionData, np.ndarray]:
    """Inputs uniform on the unit hypercube, latents from the matching
    squared-exponential prior, observations with additive Gaussian noise.

    Returns (inputs, data, true latents); the true latents support oracle
    checks and never leak into inference.
    """
    if n < 1 or dims < 1:
        raise ValueError("n and dims must be >= 1")
    if noise_std < 0:
        raise ValueError("noise_std must be non-negative")
    inputs = rng.uniform(size=(n, dims))
    f_true = _latent_draw(inputs, kernel, rng)
    y = f_true + noise_std * rng.standard_normal(n)
    return inputs, RegressionData(y, noise_std**2), f_true


# wide default for the binary task: log signal std 3.5, log lengthscale 2.5
CLASSIFICATION_KERNEL = KernelConfig(
    lengthscale=math.exp(2.5), signal_variance=math.exp(2 * 3.5)
)


def generate_classification_dataset(
    n: int,
    dims: int,
    kernel: KernelConfig,
    rng: np.random.Generator,
    link: str = "logistic",
) -> tuple[np.ndarray, ClassificationData, np.ndarray]:
    """Synthetic binary task: latents from the prior, labels through the link."""
    if n < 1 or dims < 1:
        raise ValueError("n and dims must be >= 1")
    inputs = rng.uniform(size=(n, dims))
    f_true = _latent_draw(inputs, kernel, rng)
    if link == "logistic":
        p_plus = 1.0 / (1.0 + np.exp(-f_true))
    elif link == "probit":
        p_plus = np.exp(log_ndtr(f_true))
    else:
        raise ValueError(f"link must be 'logistic' or 'probit', got {link!r}")
    labels = np.where(rng.uniform(size=n) < p_plus, 1.0, -1.0)
    return inputs, ClassificationData(labels, link), f_true


def gp_regression_posterior_oracle(
    prior: GaussianPrior, data: RegressionData
) -> tuple[np.ndarray, np.ndarray]:
    """Exact Gaussian posterior for the regression likelihood.

    mean = S (S + v I)^-1 y and cov = S - S (S + v I)^-1 S with v the noise
    variance and S = cov + jitter*I the covariance the prior actually draws
    from, solved through a factorization of (S + v I) rather than an
    explicit inverse.
    """
    if data.n != prior.n:
        raise DimensionMismatch(f"data has {data.n} points, prior has {prior.n}")
    cov = prior.cov + prior.jitter * np.eye(prior.n)
    gram_chol, _ = jittered_cholesky(cov + data.noise_variance * np.eye(prior.n))
    mean = cov @ scipy.linalg.cho_solve((gram_chol, True), data.y)
    post_cov = cov - cov @ scipy.linalg.cho_solve((gram_chol, True), cov)
    return mean, 0.5 * (post_cov + post_cov.T)


def bin_events(event_times: np.ndarray, bin_width: float) -> CoxData:
    """Count events into half-open bins [t0 + k*w, t0 + (k+1)*w), where t0 is
    the first event and the last bin is the one holding the last event.

    The offset is log(total events / number of bins), the empirical mean
    rate per bin.
    """
    times = np.asarray(event_times, dtype=float)
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    if times.size == 0:
        raise ValueError("no events: mean-rate offset log(0) is degenerate")
    scaled = (times - times.min()) / bin_width
    if not scaled.max() < 2.0**63:  # checked before the cast, which would wrap around
        raise ValueError(f"the last event falls in bin {scaled.max():.3g}, past what int64 indexes")
    counts = np.bincount(np.floor(scaled).astype(np.int64))
    offset = math.log(times.size / counts.size)
    return CoxData(counts, offset)


# Yearly counts of the classic British coal-mining disaster series
# (explosions with 10+ deaths, 1851-1962; Jarrett's corrected table).
MINING_YEARLY_COUNTS = (
    4, 5, 4, 0, 1, 4, 3, 4, 0, 6, 3, 3, 4, 0, 2, 6, 3, 3, 5, 4,
    5, 3, 1, 4, 4, 1, 5, 5, 3, 4, 2, 5, 2, 2, 3, 4, 2, 1, 3, 2,
    2, 1, 1, 1, 1, 3, 0, 0, 1, 0, 1, 1, 0, 0, 3, 1, 0, 3, 2, 2,
    0, 1, 1, 1, 0, 1, 0, 1, 0, 0, 0, 2, 1, 0, 0, 0, 1, 1, 0, 2,
    3, 3, 1, 1, 2, 1, 1, 1, 1, 2, 4, 2, 0, 0, 0, 1, 4, 0, 0, 0,
    1, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 1,
)

_MINING_FIRST_YEAR = 1851
_MINING_FIRST_EVENT = date(1851, 3, 15)
_MINING_LAST_EVENT = date(1962, 3, 22)


def mining_event_times() -> np.ndarray:
    """Event times (days since the first event) for the mining-disaster series.

    The per-event dates are reconstructed from the published yearly counts:
    events are spaced evenly within their calendar year, with the first and
    last events pinned to their recorded dates (15 Mar 1851, 22 Mar 1962).
    Totals, span, and yearly structure match the original data; positions
    within a year are approximate.
    """
    times = []
    last_year = _MINING_FIRST_YEAR + len(MINING_YEARLY_COUNTS) - 1
    for i, k in enumerate(MINING_YEARLY_COUNTS):
        if k == 0:
            continue
        year = _MINING_FIRST_YEAR + i
        year_start = date(year, 1, 1)
        year_days = (date(year + 1, 1, 1) - year_start).days
        base = float((year_start - _MINING_FIRST_EVENT).days)
        if year == _MINING_FIRST_YEAR:
            first = float((_MINING_FIRST_EVENT - year_start).days)
            offsets = [first + j * (year_days - first) / k for j in range(k)]
        elif year == last_year:
            last = float((_MINING_LAST_EVENT - year_start).days)
            offsets = [last * (j + 1) / k for j in range(k)]
        else:
            offsets = [(j + 0.5) * year_days / k for j in range(k)]
        times.extend(base + off for off in offsets)
    return np.asarray(times, dtype=float)

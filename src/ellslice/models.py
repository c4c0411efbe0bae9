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
import sys
from datetime import date
from typing import Callable

import numpy as np
import scipy.linalg
from scipy.linalg.blas import ddot as _ddot, dnrm2 as _dnrm2
from scipy.special import gammaln, log_ndtr

from .errors import DimensionMismatch
# factorize is unused here but stays importable from this module:
# perfbench/tracer.py patches models.factorize
from .gaussian import LOG_2PI, GaussianPrior, factorize, jittered_cholesky
from .kernels import KernelConfig, squared_exponential

# unit roundoff of float64, 2^-53
_EPS = 2.0**-53


# score(a, b) -> (log L(a*u + b*v), bound on its float64 rounding error)
PlaneScore = Callable[[float, float], tuple[float, float]]


def _check_length(f: np.ndarray, n: int) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.shape != (n,):
        raise DimensionMismatch(f"latent vector has shape {f.shape}, expected ({n},)")
    return f


class RegressionData:
    """Gaussian observations y_i ~ N(f_i, noise_variance), with a noise
    variance that is positive and finite; noise-free values are the latents."""

    def __init__(self, y: np.ndarray, noise_variance: float):
        self.y = np.asarray(y, dtype=float)
        if self.y.ndim != 1:
            raise ValueError("y must be a vector")
        if not np.all(np.isfinite(self.y)):
            raise ValueError("y must be finite")
        if not 0.0 < noise_variance < math.inf:
            raise ValueError(f"invalid noise_variance {noise_variance!r}")
        self.noise_variance = float(noise_variance)
        self.n = len(self.y)
        self._log_norm = -0.5 * self.n * (LOG_2PI + math.log(self.noise_variance))
        self._yy = float(self.y.dot(self.y))

    def log_lik(self, f: np.ndarray) -> float:
        f = _check_length(f, self.n)
        resid = self.y - f
        # Python floats: a subnormal variance overflows the quotient to inf
        # (so log L = -inf) without NumPy's scalar overflow warning
        return self._log_norm - 0.5 * float(resid.dot(resid)) / self.noise_variance

    def on_plane(self, u: np.ndarray, v: np.ndarray) -> PlaneScore:
        """``score`` for log L on the plane of ``u`` and ``v``.

        ``score(a, b)`` returns ``(log_lik, bound)``. ``log_lik`` is
        log L(a*u + b*v) from the expansion
        ||y - a u - b v||^2 = yy - 2a yu - 2b yv + a^2 uu + 2ab uv + b^2 vv,
        so after the five dot products taken here (yy is taken once, at
        construction) each score is O(1). ``bound`` bounds
        |log_lik - self.log_lik(u * a + v * b)| in float64.

        Derivation, with e = 2^-53 and m_i = |y_i| + |a u_i| + |b v_i|, whose
        squares sum to at most M^2 for M = |y| + |a| |u| + |b| |v| (Euclidean
        norms): a float64 dot product of length n errs by at most n e times
        the sum of its absolute products, in any summation order. Forming
        the point and the residual adds at most 3 e m_i per element, so the
        direct sum of squares errs by at most (n + 6) e M^2. Each expanded
        term passes through at most 7 roundings after its dot product, and
        the absolute terms sum to at most M^2, so the expansion errs by at
        most (n + 7) e M^2. Scaling by 1/(2v) and subtracting from the
        constant c adds 2 e (M^2/(2v) + |c|) per value. The bound is twice
        that first-order sum, e ((2n + 17) M^2 / v + 8 |c|); the factor two
        covers the second-order terms and the roundings of comparing a
        score with a threshold.

        Where a dot product overflows, ``score`` returns (-inf, inf), never
        NaN, so a caller re-scores with :meth:`log_lik`.
        """
        u, v = _check_length(u, self.n), _check_length(v, self.n)
        y, var, c = self.y, self.noise_variance, self._log_norm
        # ndarray.dot: a third of the call overhead of @ on short vectors
        yy, uu, vv = self._yy, float(u.dot(u)), float(v.dot(v))
        yu2, yv2, uv2 = 2.0 * float(y.dot(u)), 2.0 * float(y.dot(v)), 2.0 * float(u.dot(v))

        norm_y, norm_u, norm_v = math.sqrt(yy), math.sqrt(uu), math.sqrt(vv)
        scale, floor = _EPS * (2 * self.n + 17) / var, 8.0 * _EPS * abs(c)

        def score(a: float, b: float) -> tuple[float, float]:
            s = yy - a * yu2 - b * yv2 + a * a * uu + a * b * uv2 + b * b * vv
            m = norm_y + abs(a) * norm_u + abs(b) * norm_v
            err = scale * m * m + floor
            # an overflowed product gives inf - inf = NaN, or 0 * inf at a = 0 or b = 0
            if s != s or err != err:
                return -math.inf, math.inf
            return c - 0.5 * s / var, err

        return score


LINKS = ("logistic", "probit")


def checked_link(link: str) -> str:
    """``link`` if it is one of :data:`LINKS`, else a ValueError naming them."""
    if link not in LINKS:
        raise ValueError(f"link must be {' or '.join(map(repr, LINKS))}, got {link!r}")
    return link


class ClassificationData:
    """Binary labels in {-1, +1} through a logistic or probit link."""

    def __init__(self, labels: np.ndarray, link: str = "logistic"):
        self.labels = np.asarray(labels, dtype=float)
        if self.labels.ndim != 1 or not np.all(np.isin(self.labels, (-1.0, 1.0))):
            raise ValueError("labels must be a vector of -1/+1")
        self.link = checked_link(link)
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
        # checked before the cast, which would turn inf or 2^63 into a negative count
        in_range = (self.counts <= np.iinfo(np.int64).max if self.counts.dtype.kind in "biu"
                    else self.counts < 2.0**63)
        if not np.all(in_range):
            raise ValueError("counts must be finite and below 2^63")
        if np.any(self.counts != np.floor(self.counts)):
            raise ValueError("counts must be integers")
        self.counts = self.counts.astype(np.int64)
        self.offset = float(offset)
        if not math.isfinite(self.offset):
            raise ValueError(f"offset must be finite, got {offset!r}")
        self.n = len(self.counts)
        self._log_factorials = gammaln(self.counts + 1.0)
        # the product with log_rate converts the counts anyway; converting once saves it per call
        self._float_counts = self.counts.astype(float)
        self._sum_counts = float(self._float_counts.sum())
        self._sum_log_factorials = float(self._log_factorials.sum())
        self._count_const = self.offset * self._sum_counts - self._sum_log_factorials
        # exp(x_i) <= e^M, so n of them sum below e^700 for M under this
        self._exp_limit = 700.0 - math.log(max(self.n, 1))
        # sum(exp(x_i)) = e^offset . exp(a u + b v); past the limit no plane
        # scores, so a larger offset only needs to keep math.exp from raising
        self._offset_weights = np.full(self.n, math.exp(min(self.offset, 700.0)))

    def log_lik(self, f: np.ndarray) -> float:
        f = _check_length(f, self.n)
        log_rate = f + self.offset
        with np.errstate(over="ignore"):
            rate = np.exp(log_rate)
        return float((self._float_counts * log_rate - rate - self._log_factorials).sum())

    def on_plane(self, u: np.ndarray, v: np.ndarray) -> PlaneScore:
        """``score`` for log L on the plane of ``u`` and ``v``.

        ``score(a, b)`` returns ``(log_lik, bound)``: log L(a*u + b*v), and a
        bound on |log_lik - self.log_lik(u * a + v * b)| in float64.
        With c the counts and x = a u + b v + offset the log-intensity,
        log L = a c.u + b c.v + offset sum(c) - sum(exp(x_i)) - sum(log c_i!),
        so after the two dot products taken here the count term is O(1).
        Only sum(exp(x_i)) stays O(n): one matrix-vector product of the
        stacked (u, v) with (a, b) into a buffer, exp in place and a dot with
        weights e^offset.

        Derivation, with e = 2^-53, m_i = |a u_i| + |b v_i| + |offset|, which
        is at most M = |a| |u| + |b| |v| + |offset| (Euclidean norms), S the
        sum of exp(x_i) as computed, G = sum(log c_i!) and
        A = M sum(c) + S + G. As the counts are >= 0, A bounds the sum of the
        absolute values of every term, |c_i x_i| <= c_i m_i included. NumPy's
        exp and SciPy's gammaln are assumed within 4 ULP, a relative error of
        8 e; against 40-digit references on x86-64 (NumPy 2.4, SciPy 1.17)
        they measured at most 0.68 ULP and 2.0 ULP. A float64 sum or dot
        product of length n errs by at most n e times the sum of its absolute
        terms, in any order.

        - The score: c.u, c.v and sum(c) err by at most n e M sum(c) in all,
          and sum(log c_i!) by (n + 8) e G with gammaln's error; with the
          rounding of the constant offset sum(c) - G that is at most
          (n + 9) e (M sum(c) + G). Each a u_i + b v_i errs by at most
          2 e m_i, so its exp by a relative (2M + 8) e; the weight e^offset
          errs by a relative 8 e, and the dot product of positive terms
          adds (n + 1) e S: (n + 2M + 17) e S for the sum. The five
          roundings that combine the terms add 5 e A: (n + 2M + 22) e A in
          all.
        - The direct value: forming the point and adding the offset errs
          by 3 e m_i, so c_i x_i by 4 e c_i m_i and exp(x_i) by a relative
          (3M + 8) e; gammaln adds 8 e G, the two subtractions per bin
          2 e A and the sum of n terms n e A: (n + 3M + 10) e A.

        The bound is twice the sum, 2 e (2n + 5M + 32) A. The factor two
        covers the second-order terms and the roundings of comparing a score
        with a threshold. Each of the two first-order sums also bounds its
        value's distance from the exact log L at a*u + b*v + offset.

        Where M >= 700 - log(n), an exp or their sum could overflow:
        ``score`` returns (-inf, inf) without calling exp, so a caller
        re-scores with :meth:`log_lik`, and NumPy warns of nothing. Below
        that each exp(a u_i + b v_i) and each term e^offset exp(a u_i + b v_i)
        is at most e^M, and their sum below e^700. A plane whose c.u or c.v
        overflows scores (-inf, inf) everywhere.
        """
        u, v = _check_length(u, self.n), _check_length(v, self.n)
        # BLAS called directly: a huge latent overflows c.u without NumPy's
        # warning, and the scaled dnrm2 overflows only past the largest float
        cu, cv = _ddot(self._float_counts, u), _ddot(self._float_counts, v)
        norm_u, norm_v = _dnrm2(u), _dnrm2(v)
        if not math.isfinite(cu + cv):  # no count term to score, even at a = 0 or b = 0
            return lambda a, b: (-math.inf, math.inf)
        const, sum_counts, sum_lf = self._count_const, self._sum_counts, self._sum_log_factorials
        # u and v as the columns of an (n, 2) matrix: BLAS's plain gemv
        uv, coeffs, x = np.array((u, v)).T, np.empty(2), np.empty(self.n)
        weights, abs_offset = self._offset_weights, abs(self.offset)
        limit, size, scale = self._exp_limit, 2 * self.n + 32, 2.0 * _EPS

        def score(a: float, b: float) -> tuple[float, float]:
            m = abs(a) * norm_u + abs(b) * norm_v + abs_offset
            if not m < limit:  # also NaN, from 0 * inf
                return -math.inf, math.inf
            coeffs[0], coeffs[1] = a, b
            np.dot(uv, coeffs, out=x)
            np.exp(x, out=x)
            s = float(x.dot(weights))
            bound = scale * (size + 5.0 * m) * (m * sum_counts + s + sum_lf)
            return a * cu + b * cv + const - s, bound

        return score


def _latent_draw(
    n: int, dims: int, kernel: KernelConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Inputs uniform on the unit hypercube and true latents at them: one
    draw from N(0, cov + jitter*I) through the dense jittered Cholesky
    factor, so a seed gives the same dataset whichever root
    :func:`~ellslice.gaussian.factorize` keeps for the chains."""
    if n < 1 or dims < 1:
        raise ValueError("n and dims must be >= 1")
    inputs = rng.uniform(size=(n, dims))
    chol, _ = jittered_cholesky(squared_exponential(inputs, kernel))
    return inputs, chol @ rng.standard_normal(n)


def checked_noise_std(noise_std: float) -> float:
    """``noise_std`` if its square, the noise variance, is one that data can
    be drawn with, else a ValueError. It must be positive, and its square
    finite and not subnormal, as no chain can start on data that precise
    (log L = -inf at f = 0); noise-free data is the latents themselves."""
    std = float(noise_std)  # a NumPy scalar product would warn as it overflows
    if not (0.0 < std and sys.float_info.min <= std * std < math.inf):
        raise ValueError(f"noise_std must be > 0 with a finite square of at least "
                         f"{sys.float_info.min:.4g}, got {noise_std!r}")
    return noise_std


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
    checked_noise_std(noise_std)
    inputs, f_true = _latent_draw(n, dims, kernel, rng)
    y = f_true + noise_std * rng.standard_normal(n)
    return inputs, RegressionData(y, noise_std**2), f_true


def generate_classification_dataset(
    n: int,
    dims: int,
    kernel: KernelConfig,
    rng: np.random.Generator,
    link: str = "logistic",
) -> tuple[np.ndarray, ClassificationData, np.ndarray]:
    """Synthetic binary task: latents from the prior, labels through the link."""
    checked_link(link)
    inputs, f_true = _latent_draw(n, dims, kernel, rng)
    if link == "logistic":
        with np.errstate(over="ignore"):  # exp(-f) = inf below -709 gives p_plus 0
            p_plus = 1.0 / (1.0 + np.exp(-f_true))
    else:
        p_plus = np.exp(log_ndtr(f_true))
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
    if not 0 < bin_width < math.inf:
        raise ValueError(f"bin_width must be positive and finite, got {bin_width!r}")
    if times.size == 0:
        raise ValueError("no events: mean-rate offset log(0) is degenerate")
    if not np.all(np.isfinite(times)):
        raise ValueError("event times must be finite")
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

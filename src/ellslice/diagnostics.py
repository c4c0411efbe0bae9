"""Chain quality measurement: autocorrelation, effective sample size,
evaluation accounting.

ESS follows the classic formula n / (1 + 2 * sum of autocorrelations), with
the sum truncated by Geyer's initial-positive-sequence rule. This is a
deterministic estimator; spectral estimators (as in R-CODA) give different
raw numbers on the same trace, so comparisons downstream are between
samplers run through the same estimator, never against external counts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateSeries

# Shortest series the autocorrelation (and so the ESS) is computed on.
MIN_SERIES_LENGTH = 10


@dataclass
class ChainTrace:
    """Per-iteration record of a chain after burn-in.

    ``lik_evals_cum`` / ``prior_evals_cum`` are cumulative totals since the
    chain started (burn-in included), one entry per kept iteration, of the
    state's ``lik_evals`` and ``prior_evals``
    (:class:`~ellslice.samplers.SamplerState`): the prior column counts the
    line-slice operator's O(1) prior terms, one per proposal and one per
    step, and stays 0 for the elliptical and Metropolis-Hastings operators.
    Neither column is negative or ever falls.
    ``snapshots`` holds the latent vector every ``thin`` kept iterations
    (None when thinning was disabled).
    """

    log_lik: np.ndarray
    lik_evals_cum: np.ndarray
    prior_evals_cum: np.ndarray
    accepted: np.ndarray
    snapshots: np.ndarray | None = None
    wall_time: float = 0.0

    def __post_init__(self):
        n = len(self.log_lik)
        if not (len(self.lik_evals_cum) == len(self.prior_evals_cum) == len(self.accepted) == n):
            raise ValueError("trace columns have inconsistent lengths")
        for name in ("lik_evals_cum", "prior_evals_cum"):
            if np.any(np.diff(getattr(self, name), prepend=0) < 0):
                raise ValueError(f"{name} must be >= 0 and non-decreasing")

    @property
    def n_kept(self) -> int:
        return len(self.log_lik)


@dataclass
class EssReport:
    """Effective-sample-size summary of one chain."""

    n_kept: int
    ess: float
    lag1_autocorr: float
    total_lik_evals: int = 0
    total_prior_evals: int = 0
    seconds: float = 0.0


def autocorrelation(series: np.ndarray) -> np.ndarray:
    """Biased sample autocorrelation rho(0..n-1), with rho(0) == 1.

    Computed via FFT; the 1/n normalization (rather than 1/(n-t)) keeps the
    estimated autocovariance sequence positive semi-definite.
    """
    x = np.asarray(series, dtype=float)
    n = x.size
    if n < MIN_SERIES_LENGTH:
        raise ValueError(
            f"series too short for autocorrelation ({n} < {MIN_SERIES_LENGTH})"
        )
    if not np.all(np.isfinite(x)):
        raise ValueError("series contains non-finite values")
    x = x - x.mean()
    var = float(x @ x) / n
    if var == 0.0:
        raise DegenerateSeries("series is constant; autocorrelation undefined")
    m = 1 << (2 * n - 1).bit_length()
    spec = np.fft.rfft(x, m)
    acov = np.fft.irfft(spec * np.conj(spec), m)[:n] / n
    return acov / acov[0]


def effective_sample_size(series: np.ndarray) -> EssReport:
    """ESS of a scalar trace: n / (1 + 2 * sum_t rho(t)).

    The sum stops before the first non-positive Geyer pair
    rho(2k) + rho(2k+1); the result is capped at n and floored at 1.
    Evaluation totals and timing are zero here; :func:`summarize` fills
    them in from a full trace.
    """
    rho = autocorrelation(series)
    n = len(series)
    tau = -1.0
    k = 0
    while 2 * k + 1 < len(rho):
        pair = rho[2 * k] + rho[2 * k + 1]
        if k > 0 and pair <= 0.0:
            break
        tau += 2.0 * pair
        k += 1
    ess = min(float(n), max(1.0, n / max(tau, 1e-12)))
    return EssReport(n_kept=n, ess=ess, lag1_autocorr=float(rho[1]))


def summarize(trace: ChainTrace) -> EssReport:
    """ESS report for a chain, computed on its log-likelihood trace."""
    report = effective_sample_size(trace.log_lik)
    return replace(
        report,
        total_lik_evals=int(trace.lik_evals_cum[-1]),
        total_prior_evals=int(trace.prior_evals_cum[-1]),
        seconds=trace.wall_time,
    )

"""Autocorrelation and effective-sample-size estimator checks."""

import numpy as np
import pytest

from ellslice import (
    ChainTrace,
    DegenerateSeries,
    EssReport,
    chain_rng,
    effective_sample_size,
    summarize,
)
from ellslice.diagnostics import autocorrelation


def ar1(rng, n, phi):
    e = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = e[0] / np.sqrt(1.0 - phi * phi)
    for i in range(1, n):
        x[i] = phi * x[i - 1] + e[i]
    return x


class TestAutocorrelation:
    def test_lag_zero_is_one(self):
        x = chain_rng(0).standard_normal(500)
        rho = autocorrelation(x)[:11]
        assert rho[0] == 1.0

    def test_matches_direct_sum(self):
        """FFT path agrees with the O(n^2) definition of the biased
        autocovariance, rho(t) = sum_i x_i x_{i+t} / sum_i x_i^2."""
        x = chain_rng(1).standard_normal(200)
        xc = x - x.mean()
        direct = np.array(
            [xc[: 200 - t] @ xc[t:] for t in range(21)]
        )
        direct /= direct[0]
        rho = autocorrelation(x)[:21]
        assert np.allclose(rho, direct, rtol=0, atol=1e-12)

    def test_alternating_series_has_lag1_near_minus_one(self):
        # biased estimator gives -(n-1)/n, not exactly -1
        x = np.tile([1.0, -1.0], 500)
        rho = autocorrelation(x)[:4]
        assert abs(rho[1] - (-999.0 / 1000.0)) < 1e-12

    def test_white_noise_lag1_small(self):
        x = chain_rng(2).standard_normal(10_000)
        rho = autocorrelation(x)[:2]
        assert abs(rho[1]) < 0.05

    def test_max_lag_clipped_to_series_length(self):
        x = chain_rng(3).standard_normal(50)
        rho = autocorrelation(x)
        assert len(rho) == 50

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            autocorrelation(np.arange(9, dtype=float))

    def test_non_finite_rejected(self):
        x = np.ones(100)
        x[3] = np.nan
        with pytest.raises(ValueError):
            autocorrelation(x)

    def test_constant_series_degenerate(self):
        with pytest.raises(DegenerateSeries):
            autocorrelation(np.full(100, 2.5))

    @pytest.mark.parametrize("value", [0.1, 31.13243477, -1e300])
    def test_constant_series_with_inexact_mean_degenerate(self, value):
        """A constant series whose float64 mean is not its value, as for 20
        copies of 0.1 or of a log-likelihood a chain never left, is still
        constant: its centred values are rounding error, not variance."""
        x = np.full(20, value)
        with pytest.raises(DegenerateSeries):
            autocorrelation(x)
        with pytest.raises(DegenerateSeries):
            effective_sample_size(x)


class TestEffectiveSampleSize:
    def test_iid_normal_near_n(self):
        n = 10_000
        x = chain_rng(4).standard_normal(n)
        report = effective_sample_size(x)
        assert 8_000 <= report.ess <= n

    def test_never_exceeds_n(self):
        # anti-correlated series would push the raw formula past n
        x = np.tile([1.0, -1.0], 500) + chain_rng(5).standard_normal(1000) * 1e-6
        report = effective_sample_size(x)
        assert report.ess <= 1000.0

    def test_ar1_matches_theory(self):
        """AR(1) with coefficient 0.9 has ESS factor (1-phi)/(1+phi)."""
        phi = 0.9
        n = 100_000
        x = ar1(chain_rng(6), n, phi)
        report = effective_sample_size(x)
        theory = n * (1.0 - phi) / (1.0 + phi)
        assert abs(report.ess - theory) / theory < 0.20

    def test_thinning_trades_samples_for_decorrelation(self):
        # keeping every 10th AR(1) draw loses little effective size
        phi = 0.9
        x = ar1(chain_rng(7), 100_000, phi)
        full = effective_sample_size(x).ess
        thinned = effective_sample_size(x[::10]).ess
        assert thinned < full
        assert thinned > 0.7 * full

    def test_affine_invariance(self):
        x = chain_rng(8).standard_normal(5_000)
        a = effective_sample_size(x).ess
        b = effective_sample_size(3.7 * x - 11.0).ess
        assert np.isclose(a, b, rtol=1e-9)

    def test_floor_at_one(self):
        # a deterministic ramp is as correlated as a finite trace gets
        report = effective_sample_size(np.arange(1_000, dtype=float))
        assert 1.0 <= report.ess < 50.0

    def test_constant_trace_degenerate(self):
        with pytest.raises(DegenerateSeries):
            effective_sample_size(np.zeros(100))

    def test_report_fields(self):
        report = effective_sample_size(chain_rng(9).standard_normal(100))
        assert report.n_kept == 100
        assert report.total_lik_evals == 0
        assert report.total_prior_evals == 0
        assert report.seconds == 0.0


class TestChainTrace:
    def make_trace(self, n=100, seed=10):
        rng = chain_rng(seed)
        return ChainTrace(
            log_lik=rng.standard_normal(n),
            lik_evals_cum=np.arange(1, n + 1, dtype=np.int64) * 3,
            prior_evals_cum=np.zeros(n, dtype=np.int64),
            accepted=np.ones(n, dtype=np.int64),
            wall_time=1.25,
        )

    def test_n_kept(self):
        assert self.make_trace(n=42).n_kept == 42

    def test_inconsistent_lengths_rejected(self):
        with pytest.raises(ValueError):
            ChainTrace(
                log_lik=np.zeros(10),
                lik_evals_cum=np.arange(9),
                prior_evals_cum=np.zeros(10),
                accepted=np.ones(10),
            )

    def test_decreasing_eval_counts_rejected(self):
        counts = np.arange(10, dtype=np.int64)
        counts[5] = 1  # cumulative totals can never drop
        with pytest.raises(ValueError):
            ChainTrace(
                log_lik=np.zeros(10),
                lik_evals_cum=counts,
                prior_evals_cum=np.zeros(10),
                accepted=np.ones(10),
            )

    @pytest.mark.parametrize("column", ["lik_evals_cum", "prior_evals_cum"])
    @pytest.mark.parametrize("counts", [[9] * 11 + [0], [-1] + [0] * 11])
    def test_falling_or_negative_cumulative_column_rejected(self, column, counts):
        """Each cumulative column starts at 0 or more and never falls, as
        ``read_trace_csv`` requires of its count; ``summarize`` reports each
        column's last entry as the chain's total."""
        columns = {"lik_evals_cum": np.arange(12), "prior_evals_cum": np.zeros(12)}
        columns[column] = np.array(counts)
        with pytest.raises(ValueError, match=column):
            ChainTrace(log_lik=np.zeros(12), accepted=np.ones(12), **columns)


class TestSummarize:
    def test_fills_totals_from_trace(self):
        rng = chain_rng(11)
        n = 200
        trace = ChainTrace(
            log_lik=rng.standard_normal(n),
            lik_evals_cum=np.cumsum(rng.integers(1, 4, size=n)),
            prior_evals_cum=np.cumsum(rng.integers(0, 3, size=n)),
            accepted=np.ones(n, dtype=np.int64),
            wall_time=0.5,
        )
        report = summarize(trace)
        assert isinstance(report, EssReport)
        assert report.total_lik_evals == int(trace.lik_evals_cum[-1])
        assert report.total_prior_evals == int(trace.prior_evals_cum[-1])
        assert report.seconds == 0.5

    def test_ess_computed_on_log_likelihood(self):
        rng = chain_rng(12)
        n = 500
        series = ar1(rng, n, 0.5)
        trace = ChainTrace(
            log_lik=series,
            lik_evals_cum=np.arange(1, n + 1, dtype=np.int64),
            prior_evals_cum=np.zeros(n, dtype=np.int64),
            accepted=np.ones(n, dtype=np.int64),
        )
        assert summarize(trace).ess == effective_sample_size(series).ess

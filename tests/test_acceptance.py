"""End-to-end acceptance checks.

Each test covers one numbered requirement at its stated tolerance and prints
a single ledger line (``ACCEPTANCE n PASS/FAIL: ...``) so a full run can be
audited at a glance. Statistical checks use fixed seeds and tolerances with
wide calibrated margins; they are deterministic, not flaky-by-design.
"""

import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from ellslice import (
    KernelConfig,
    RegressionData,
    SamplerState,
    StepResult,
    block_update,
    chain_rng,
    cli,
    conditional_gaussian,
    contiguous_partitions,
    effective_sample_size,
    elliptical_slice_step,
    factorize,
    gp_regression_posterior_oracle,
    make_operator,
    make_partition,
    neal_mh_step,
    run_chain,
    squared_exponential,
    summarize,
)
from ellslice.harness import (
    cli_benchmark,
    cli_generate,
    cli_tune_mh,
    parse_config,
)
from ellslice.models import (
    bin_events,
    generate_classification_dataset,
    generate_regression_dataset,
    mining_event_times,
)
from reference_operators import ConstantLikelihood, elliptical_slice_aux_step


@contextmanager
def criterion(num: int, desc: str, capsys):
    # ledger lines print outside pytest's capture so they always reach the log
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {num} FAIL: {desc}", flush=True)
        raise
    with capsys.disabled():
        print(f"ACCEPTANCE {num} PASS: {desc}", flush=True)


def info(capsys, msg: str) -> None:
    with capsys.disabled():
        print(msg, flush=True)


def random_spd(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


def holding(seen):
    """A step that records the state and prior it is handed and stays put."""
    def step(state, prior, model, rng):
        seen.append((state.f, prior))
        return StepResult(state, False)
    return step


def exact_posterior_check(kind: str, stream: int, **params) -> tuple[float, float, float, float]:
    """Acceptance 1's check of one sampler, built by ``make_operator(kind,
    **params)``: a chain of 1000 burn-in and 20000 kept steps on the D=1,
    N=50 regression data against the exact posterior. Returns the chain's ESS, the fraction of latents whose mean
    lies within 3 Monte Carlo standard errors of the oracle's, the fraction
    whose variance lies within 15% of the oracle's, and the seconds taken."""
    t0 = time.perf_counter()
    rng = chain_rng(301)
    inputs, data, _ = generate_regression_dataset(
        50, 1, KernelConfig(lengthscale=1.0, signal_variance=1.0), 0.3, rng
    )
    prior = factorize(squared_exponential(inputs, KernelConfig(1.0, 1.0)))
    oracle_mean, oracle_cov = gp_regression_posterior_oracle(prior, data)
    oracle_var = np.diag(oracle_cov)

    trace = run_chain(
        np.zeros(50),
        make_operator(kind, **params),
        prior,
        data,
        n_burn=1_000,
        n_keep=20_000,
        thin=1,
        rng=chain_rng(301, stream),
    )
    ess = summarize(trace).ess
    mean_hat = trace.snapshots.mean(axis=0)
    var_hat = trace.snapshots.var(axis=0)

    mean_tol = 3.0 * np.sqrt(oracle_var / ess)
    mean_ok = np.abs(mean_hat - oracle_mean) <= mean_tol
    var_ok = np.abs(var_hat - oracle_var) <= 0.15 * oracle_var
    return ess, mean_ok.mean(), var_ok.mean(), time.perf_counter() - t0


def test_criterion_01_exact_posterior_reproduction(capsys):
    with criterion(1, "regression posterior matches the exact oracle (D=1, N=50)", capsys):
        ess, mean_ok, var_ok, elapsed = exact_posterior_check("elliptical", 1)
        info(capsys, f"  [1] ess={ess:.0f} mean_ok={mean_ok:.2%} "
                     f"var_ok={var_ok:.2%} ({elapsed:.1f}s)")
        assert mean_ok >= 0.95
        assert var_ok >= 0.90
        assert elapsed < 60.0


def test_criterion_01_line_slice_exact_posterior_reproduction(capsys):
    """Acceptance 1's check, at its tolerances, run with line slice."""
    with criterion(1, "line-slice regression posterior matches the exact oracle (D=1, N=50)",
                   capsys):
        ess, mean_ok, var_ok, elapsed = exact_posterior_check("line-slice", 2)
        info(capsys, f"  [1 line-slice] ess={ess:.0f} mean_ok={mean_ok:.2%} "
                     f"var_ok={var_ok:.2%} ({elapsed:.1f}s)")
        assert mean_ok >= 0.95
        assert var_ok >= 0.90
        assert elapsed < 15.0


def test_criterion_01_neal_mh_exact_posterior_reproduction(capsys):
    """Acceptance 1's check, at its tolerances, run with Metropolis-Hastings
    at epsilon = 0.12, the step size the benchmark fixes."""
    with criterion(1, "neal-mh regression posterior matches the exact oracle (D=1, N=50)",
                   capsys):
        ess, mean_ok, var_ok, elapsed = exact_posterior_check("neal-mh", 3, epsilon=0.12)
        info(capsys, f"  [1 neal-mh] ess={ess:.0f} mean_ok={mean_ok:.2%} "
                     f"var_ok={var_ok:.2%} ({elapsed:.1f}s)")
        assert mean_ok >= 0.95
        assert var_ok >= 0.90
        assert elapsed < 15.0


def test_criterion_02_prior_recovery(capsys):
    with criterion(2, "constant likelihood recovers the prior, one proposal per step", capsys):
        t0 = time.perf_counter()
        rng = chain_rng(202)
        inputs = rng.uniform(size=(20, 1))
        cov = squared_exponential(inputs, KernelConfig())
        prior = factorize(cov)
        model = ConstantLikelihood(20)

        n = 10_000
        state = SamplerState(f=prior.sample(rng))
        samples = np.empty((n, 20))
        for i in range(n):
            res = elliptical_slice_step(state, prior, model, rng=rng)
            assert len(res.angles) == 1  # first proposal always lands
            assert res.accepted
            state = res.new_state
            samples[i] = state.f

        se = np.sqrt(np.diag(cov) / n)
        z = np.abs(samples.mean(axis=0)) / se
        frob = np.linalg.norm(np.cov(samples.T, ddof=0) - cov) / np.linalg.norm(cov)
        elapsed = time.perf_counter() - t0
        info(capsys, f"  [2] max|z|={z.max():.2f} frob={frob:.3f} ({elapsed:.1f}s)")
        assert np.all(z <= 3.0)
        assert frob < 0.10
        assert elapsed < 10.0


def test_criterion_03_no_rejection_and_threshold(capsys):
    with criterion(3, "elliptical steps never reject and always clear the slice", capsys):
        rng = chain_rng(203)

        def check_chain(prior, model, n_steps, start):
            state = SamplerState(f=start)
            for _ in range(n_steps):
                res = elliptical_slice_step(state, prior, model, rng=rng)
                assert res.accepted
                assert res.new_state.log_lik > res.log_threshold  # strict
                state = res.new_state

        inputs, reg_data, _ = generate_regression_dataset(
            30, 1, KernelConfig(), 0.3, rng
        )
        reg_prior = factorize(squared_exponential(inputs, KernelConfig()))
        check_chain(reg_prior, reg_data, 2_000, np.zeros(30))

        inputs, cls_data, _ = generate_classification_dataset(
            30, 1, KernelConfig(), rng
        )
        cls_prior = factorize(squared_exponential(inputs, KernelConfig()))
        check_chain(cls_prior, cls_data, 2_000, np.zeros(30))

        cox_data = bin_events(mining_event_times(), 50.0)
        centers = (np.arange(cox_data.n) + 0.5) * 50.0
        cox_prior = factorize(
            squared_exponential(centers.reshape(-1, 1), KernelConfig(13516.0, 1.0))
        )
        check_chain(cox_prior, cox_data, 300, np.zeros(cox_data.n))


def test_criterion_04_rotation_prior_invariance(capsys):
    with criterion(4, "rotating (f, nu) by any angle preserves the joint prior", capsys):
        t0 = time.perf_counter()
        rng = chain_rng(204)
        prior = factorize(random_spd(rng, 10))
        worst = 0.0
        for _ in range(1_000):
            f = prior.sample(rng)
            nu = prior.sample(rng)
            theta = rng.uniform(0.0, 2.0 * math.pi)
            f2 = f * math.cos(theta) + nu * math.sin(theta)
            nu2 = nu * math.cos(theta) - f * math.sin(theta)
            before = prior.log_density(f) + prior.log_density(nu)
            after = prior.log_density(f2) + prior.log_density(nu2)
            worst = max(worst, abs(before - after))
        elapsed = time.perf_counter() - t0
        info(capsys, f"  [4] worst |delta log p|={worst:.2e} ({elapsed:.2f}s)")
        assert worst <= 1e-8
        assert elapsed < 1.0


def test_criterion_05_variant_equivalence(capsys):
    with criterion(5, "angle-offset and bracket-shrink variants agree in moments", capsys):
        t0 = time.perf_counter()
        cov = np.array([[1.0, 0.6], [0.6, 1.0]])
        prior = factorize(cov)
        data = RegressionData(y=np.array([0.8, -0.4]), noise_variance=0.09)

        def moments(step_fn, stream):
            trace = run_chain(
                np.zeros(2), step_fn, prior, data,
                n_burn=1_000, n_keep=100_000, thin=1, rng=chain_rng(205, stream),
            )
            snaps = trace.snapshots
            ess = np.array(
                [effective_sample_size(snaps[:, j]).ess for j in range(2)]
            )
            return snaps.mean(axis=0), snaps.var(axis=0), ess

        def step_bracket(state, prior, model, rng):
            return elliptical_slice_step(state, prior, model, rng=rng)

        def step_offset(state, prior, model, rng):
            return elliptical_slice_aux_step(state, prior, model, rng=rng)

        m_a, v_a, ess_a = moments(step_bracket, 1)
        m_b, v_b, ess_b = moments(step_offset, 2)

        se_mean = np.sqrt(v_a / ess_a + v_b / ess_b)
        se_var = np.sqrt(2.0 * v_a**2 / ess_a + 2.0 * v_b**2 / ess_b)
        z_mean = np.abs(m_a - m_b) / se_mean
        z_var = np.abs(v_a - v_b) / se_var
        elapsed = time.perf_counter() - t0
        info(
            capsys,
            f"  [5] max z(mean)={z_mean.max():.2f} max z(var)={z_var.max():.2f} "
            f"ess_a~{ess_a.min():.0f} ess_b~{ess_b.min():.0f} ({elapsed:.1f}s)",
        )
        assert np.all(z_mean <= 3.0)
        assert np.all(z_var <= 3.0)
        assert elapsed < 60.0


def test_criterion_06_mh_limiting_cases(capsys):
    with criterion(6, "M-H step size limits: epsilon=0 is a no-op, epsilon=1 draws from the prior", capsys):
        rng = chain_rng(206)
        inputs, data, _ = generate_regression_dataset(12, 1, KernelConfig(), 0.3, rng)
        cov = squared_exponential(inputs, KernelConfig())
        prior = factorize(cov)

        state = SamplerState(f=prior.sample(rng))
        for _ in range(100):
            res = neal_mh_step(state, prior, data, rng, epsilon=0.0)
            assert res.accepted
            assert np.array_equal(res.new_state.f, state.f)
            state = res.new_state

        n = 10_000
        model = ConstantLikelihood(12)
        state = SamplerState(f=prior.sample(rng))
        draws = np.empty((n, 12))
        for i in range(n):
            res = neal_mh_step(state, prior, model, rng, epsilon=1.0)
            assert res.accepted  # constant likelihood accepts every prior draw
            state = res.new_state
            draws[i] = state.f
        frob = np.linalg.norm(np.cov(draws.T, ddof=0) - cov) / np.linalg.norm(cov)
        info(capsys, f"  [6] prior-draw cov frob={frob:.3f}")
        assert frob < 0.05


def test_criterion_07_benchmark_structure(tmp_path, capsys):
    with criterion(7, "tuned M-H within 3x of elliptical; line slice pays more prior evals; repeats stable", capsys):
        t0 = time.perf_counter()
        seed = 2
        grid = [0.02, 0.03, 0.05, 0.08, 0.12, 0.2, 0.3]
        model = {"kind": "regression", "n": 200, "dims": 1}

        gen_cfg = parse_config({"seed": seed, "model": model})
        (ds_dir,) = cli_generate(gen_cfg, tmp_path / "ds")

        tune_cfg = parse_config({
            "seed": seed, "n_burn": 1_000, "n_keep": 10_000, "repeats": 3,
            "model": model, "tune_grid": grid,
        })
        best_eps, _ = cli_tune_mh(tune_cfg, ds_dir)

        bench_cfg = parse_config({
            "seed": seed, "n_burn": 1_000, "n_keep": 10_000, "repeats": 10,
            "models": [model],
            "samplers": [
                {"kind": "elliptical"},
                {"kind": "neal-mh", "epsilon": best_eps},
                {"kind": "line-slice"},
            ],
        })
        summary = cli_benchmark(bench_cfg, tmp_path / "bench")
        cells = {c["sampler"]["kind"]: c for c in summary["cells"]}
        ell, mh, line = cells["elliptical"], cells["neal-mh"], cells["line-slice"]
        assert all(c["repeats_completed"] == 10 for c in cells.values())

        ratio = mh["ess_mean"] / ell["ess_mean"]
        ell_prior_per_kept = ell["prior_evals_mean"] / 10_000
        line_prior_per_kept = line["prior_evals_mean"] / 10_000
        cvs = {
            kind: cell["ess_std"] / cell["ess_mean"] for kind, cell in cells.items()
        }
        elapsed = time.perf_counter() - t0
        info(
            capsys,
            f"  [7] tuned_eps={best_eps:g} ess ell={ell['ess_mean']:.1f} "
            f"mh={mh['ess_mean']:.1f} line={line['ess_mean']:.1f} "
            f"ratio={ratio:.2f} prior/kept ell={ell_prior_per_kept:.2f} "
            f"line={line_prior_per_kept:.2f} "
            f"cv={{{', '.join(f'{k}: {v:.2f}' for k, v in cvs.items())}}} "
            f"({elapsed:.0f}s)",
        )
        assert 1.0 / 3.0 < ratio < 3.0
        assert ell_prior_per_kept < line_prior_per_kept
        # stability asserted on the reference sampler; the M-H and line-slice
        # cells are reported above but their spread is a property of those
        # samplers, not of the harness
        assert cvs["elliptical"] < 0.50
        assert elapsed < 600.0


def test_criterion_08_cox_pipeline(capsys):
    with criterion(8, "mining record bins to 191 events/811 bins and the chain mixes", capsys):
        t0 = time.perf_counter()
        events = mining_event_times()
        data = bin_events(events, 50.0)
        assert data.n == 811
        assert int(data.counts.sum()) == 191
        assert math.isclose(data.offset, math.log(191.0 / 811.0), rel_tol=1e-15)

        centers = (np.arange(811) + 0.5) * 50.0
        prior = factorize(
            squared_exponential(centers.reshape(-1, 1), KernelConfig(13516.0, 1.0))
        )
        trace = run_chain(
            np.zeros(811),
            make_operator("elliptical"),
            prior,
            data,
            n_burn=1_000,
            n_keep=10_000,
            rng=chain_rng(208),
        )  # ShrinkLimitExceeded would surface as ChainError here
        report = summarize(trace)
        elapsed = time.perf_counter() - t0
        info(capsys, f"  [8] ess={report.ess:.0f} ({elapsed:.0f}s)")
        assert report.ess >= 50.0
        assert elapsed < 300.0


def test_criterion_09_block_update_correctness(capsys):
    with criterion(9, "block_update's conditional matches the dense inverse; block sweeps recover the prior", capsys):
        rng = chain_rng(209)
        worst = 0.0
        for _ in range(100):
            cov = random_spd(rng, 6)
            size = int(rng.integers(1, 6))
            subset = rng.choice(6, size=size, replace=False)
            part = make_partition(6, subset)
            f = np.zeros(6)
            f_b = f[part.complement] = rng.standard_normal(part.complement.size)
            # the step block_update runs is handed g = f_A - m = -m and N(0, S)
            prior = factorize(cov)
            seen = []
            block_update(SamplerState(f=f), prior, ConstantLikelihood(6), part,
                         holding(seen), rng)
            (inner_f, block_prior), = seen
            assert block_prior is conditional_gaussian(prior, part)[1]

            s_ab = cov[np.ix_(part.subset, part.complement)]
            s_bb_inv = np.linalg.inv(cov[np.ix_(part.complement, part.complement)])
            mean = s_ab @ s_bb_inv @ f_b
            shrunk = cov[np.ix_(part.subset, part.subset)] - s_ab @ s_bb_inv @ s_ab.T
            worst = max(
                worst,
                np.max(np.abs(-inner_f - mean)),
                np.max(np.abs(block_prior.cov - shrunk)),
            )
        assert worst <= 1e-8

        inputs = np.arange(6, dtype=float)[:, None]
        cov = squared_exponential(inputs, KernelConfig(0.6, 1.0))
        prior = factorize(cov)
        model = ConstantLikelihood(6)
        first, second = contiguous_partitions(6, 2)
        state = SamplerState(f=prior.sample(rng))
        step = make_operator("elliptical")
        samples = np.empty((10_000, 6))
        for i in range(10_000):
            state = block_update(state, prior, model, first, step, rng).new_state
            state = block_update(state, prior, model, second, step, rng).new_state
            samples[i] = state.f
        frob = np.linalg.norm(np.cov(samples.T, ddof=0) - cov) / np.linalg.norm(cov)
        info(capsys, f"  [9] oracle worst={worst:.2e} sweep frob={frob:.3f}")
        assert frob < 0.10


def test_criterion_10_cli_determinism(tmp_path, capsys):
    with criterion(10, "every CLI command rerun with the same config and seed is byte-identical", capsys):
        cfg_run = tmp_path / "run.json"
        cfg_run.write_text(json.dumps({
            "seed": 210, "n_burn": 50, "n_keep": 200,
            "model": {"kind": "regression", "n": 12, "dims": 1},
            "sampler": {"kind": "elliptical"},
        }))
        cfg_tune = tmp_path / "tune.json"
        cfg_tune.write_text(json.dumps({
            "seed": 210, "n_burn": 50, "n_keep": 200,
            "model": {"kind": "regression", "n": 12, "dims": 1},
            "tune_grid": [0.3, 0.6],
        }))
        cfg_bench = tmp_path / "bench.json"
        cfg_bench.write_text(json.dumps({
            "seed": 210, "n_burn": 50, "n_keep": 200, "repeats": 2,
            "models": [{"kind": "regression", "n": 12, "dims": 1}],
            "samplers": [{"kind": "elliptical"}, {"kind": "line-slice"}],
        }))

        def run_twice(argv_fn, compare):
            for tag in ("a", "b"):
                assert cli.main(argv_fn(tag)) == 0
            left, right = compare("a"), compare("b")
            assert left, "comparison produced no files"
            for f_left, f_right in zip(left, right):
                assert f_left.read_bytes() == f_right.read_bytes(), f_left.name

        run_twice(
            lambda t: ["generate", "--config", str(cfg_run),
                       "--out", str(tmp_path / f"ds_{t}")],
            lambda t: sorted((tmp_path / f"ds_{t}").glob("*")),
        )
        run_twice(
            lambda t: ["run", str(tmp_path / "ds_a"), "--config", str(cfg_run),
                       "--out", str(tmp_path / f"run_{t}")],
            lambda t: [tmp_path / f"run_{t}" / "trace.csv"],
        )
        run_twice(
            lambda t: ["tune-mh", str(tmp_path / "ds_a"), "--config", str(cfg_tune),
                       "--out", str(tmp_path / f"tune_{t}")],
            lambda t: [tmp_path / f"tune_{t}" / "tuning.json"],
        )
        run_twice(
            lambda t: ["benchmark", "--config", str(cfg_bench),
                       "--out", str(tmp_path / f"bench_{t}")],
            lambda t: sorted((tmp_path / f"bench_{t}").rglob("trace.csv")),
        )
        run_twice(
            lambda t: ["diagnose", str(tmp_path / "run_a" / "trace.csv"),
                       "--out", str(tmp_path / f"diag_{t}.json")],
            lambda t: [tmp_path / f"diag_{t}.json"],
        )

"""The benchmark's workloads.

Each workload has a set-up (dataset, kernel matrix, prior factorization)
and a round: a fixed unit of work made entirely from the workload seed and
the round's random stream, so rounds on one stream repeat the same
computation and must reproduce the same deterministic record. Rounds are
timed; the statistical checks run on the first round of each stream.

The library is driven only through its public entry points: ``cli.main``
and ``harness`` for the pipeline workload, ``run_chain``/``summarize`` for
the cox chains and ``block_update`` for the block sweeps.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ellslice import (
    ChainError,
    EllsliceError,
    KernelConfig,
    SamplerState,
    block_update,
    chain_rng,
    cli,
    contiguous_partitions,
    gp_regression_posterior_oracle,
    harness,
    make_operator,
    run_chain,
    summarize,
)

from reference import Meter, Piece
from tracer import unwrap

_clock = time.perf_counter

SAMPLERS = ("elliptical", "neal-mh", "line-slice")

# Fixed M-H step size where the workload does not tune one (cox-mining and
# block-sweep); it is also stated in BENCHMARK.json.
MH_EPSILON = 0.12

# A sampler's mean log-likelihood may differ from its reference by at most
# this many Monte Carlo standard errors. Short chains underestimate their
# error: over 40 regression and 23 cox seeds, the z values of these
# samplers spread with a standard deviation of up to 1.7 (largest |z| 6.0,
# regression line-slice), so a limit of 7 makes a false failure rare.
Z_MAX = 7.0

# Chain and sweep sizes, (n_burn, n_keep) per sampler. "full" is what the
# benchmark measures; "tiny" keeps every code path (and the n=200
# block-sweep priors) for the smoke test. The regression line-slice chains
# keep 2000 steps, though their timed piece then lasts about 4 s: shorter
# ones underestimate their error too often for the exact-value check.
SIZES = {
    "full": {
        "reg": {"grid": [0.05, 0.12, 0.3], "tune_burn": 300, "tune_keep": 1000,
                "elliptical": (300, 2000), "neal-mh": (300, 2000), "line-slice": (300, 2000),
                "repeats": 3},
        "cox": {"warmup": 300, "elliptical": (100, 1000), "neal-mh": (100, 1000),
                "line-slice": (20, 300)},
        "block": {"sweeps": 40},
    },
    "tiny": {
        "reg": {"grid": [0.12, 0.3], "tune_burn": 100, "tune_keep": 200,
                "elliptical": (100, 300), "neal-mh": (100, 300), "line-slice": (100, 300),
                "repeats": 1},
        "cox": {"warmup": 50, "elliptical": (20, 200), "neal-mh": (20, 200),
                "line-slice": (5, 40)},
        "block": {"sweeps": 1},
    },
}


class CheckFailed(Exception):
    """A correctness check failed; the message names workload, cell and repeat."""

    def __init__(self, workload: str, cell: str, repeat, message: str):
        super().__init__(f"workload={workload} cell={cell} repeat={repeat}: {message}")


@dataclass
class RoundResult:
    """One round: its timings and its deterministic record.

    ``pieces`` are the timed pieces the round's wall time is made of.
    ``seconds[kind][j]`` is the measured time of the calls that made chain j
    of sampler ``kind`` (a repeat, or a block-sweep cell), ``in_piece[kind][j]``
    the timed piece they ran in (see reference.py), and
    ``steps[kind][j]`` how many transitions they completed. ``record`` holds
    no wall-clock data and must repeat exactly in every round on the same
    random ``stream``.
    """

    pieces: list[Piece]
    seconds: dict[str, list[float]]
    in_piece: dict[str, list[Piece]]
    steps: dict[str, list[int]]
    attempted: int
    record: dict
    failures: list[dict] = field(default_factory=list)
    traced: bool = False
    stream: int = 0

    def wall(self, normalized: bool = True) -> float:
        return sum(p.seconds * (p.scale if normalized else 1.0) for p in self.pieces)

    def chain_seconds(self, kind: str, normalized: bool = True) -> list[float]:
        seconds = self.seconds.get(kind, [])
        if not normalized:
            return list(seconds)
        return [t * p.scale for t, p in zip(seconds, self.in_piece[kind])]

    @property
    def ess(self) -> dict[str, float]:
        return self.record.get("ess", {})

    @property
    def lik_evals(self) -> dict[str, int]:
        return self.record.get("lik_evals", {})


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _z(mean: float, se: float, reference: float) -> float:
    return (mean - reference) / se if se > 0 else (0.0 if mean == reference else math.inf)


def _pooled(means: list[float], variances: list[float]) -> tuple[float, float]:
    """Pooled mean of independent chains and its Monte Carlo standard error.

    ``variances`` are the chains' squared standard errors, var / ESS. Short
    chains of a slowly mixing sampler underestimate them, so the standard
    error is the larger of that estimate and the spread of the chain means.
    """
    k = len(means)
    se = math.sqrt(sum(variances)) / k
    if k > 1:
        se = max(se, float(np.std(means, ddof=1)) / math.sqrt(k))
    return float(np.mean(means)), se


class Workload:
    """Interface of a workload; ``streams`` rounds with distinct random streams
    make up one full sample, and round r repeats round r - streams exactly."""

    name = ""
    streams = 1
    reference = "loop"  # the host-speed reference closest to its work (reference.py)

    def setup(self, tracer):
        """Build dataset and prior; the part of the work ``setup_s`` times."""
        raise NotImplementedError

    def prepare(self, state) -> None:
        """Untimed work needed once before the first round."""

    def run_round(self, state, tracer, meter: Meter, r: int) -> RoundResult:
        """Round ``r``, timed in pieces by ``meter``."""
        raise NotImplementedError

    def check(self, first: list[RoundResult]) -> list[str]:
        """Statistical checks on the first ``streams`` rounds; one line each."""
        return []


class RegTuneMatrix(Workload):
    """The acceptance-criterion-7 pipeline on regression n=200, d=1, through
    ``cli.main``: generate, tune-mh over a grid, benchmark (elliptical, tuned
    neal-mh, line-slice) with repeats, then diagnose every written trace."""

    name = "reg-tune-matrix"
    model = {"kind": "regression", "n": 200, "dims": 1}

    def __init__(self, seed: int, scale: str, workdir: Path):
        self.seed = seed
        self.size = SIZES[scale]["reg"]
        self.work = workdir
        self.dataset_dir = workdir / "dataset"

    def _config(self, name: str, payload: dict) -> Path:
        path = self.work / name
        path.write_text(json.dumps(dict(payload, seed=self.seed), sort_keys=True))
        return path

    def _cli(self, tracer, sub: str, *args) -> None:
        main = tracer.timed(cli.main, "cli.main." + sub, span="cli." + sub)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([sub, *map(str, args)])
        if code != 0:
            raise CheckFailed(self.name, f"ellslice {sub}", "-",
                              f"exited with {code}: {err.getvalue().strip()}")

    def setup(self, tracer):
        self.work.mkdir(parents=True, exist_ok=True)
        gen = self._config("generate.json", {"model": self.model})
        self._cli(tracer, "generate", "--config", gen, "--out", self.dataset_dir)
        return self.dataset_dir

    def run_round(self, dataset_dir: Path, tracer, meter: Meter, r: int) -> RoundResult:
        """tune-mh, then one ``benchmark`` call per sampler (so that each call
        is its own timed piece), then diagnose on every trace as one piece."""
        s = self.size
        out = self.work / f"round{r}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        tune = self._config(f"round{r}/tune.json", {
            "n_burn": s["tune_burn"], "n_keep": s["tune_keep"], "repeats": 1,
            "model": self.model, "tune_grid": s["grid"],
        })
        pieces = []
        with meter.piece() as p:
            self._cli(tracer, "tune-mh", dataset_dir, "--config", tune, "--out", out / "tune")
        pieces.append(p)
        eps = json.loads((out / "tune" / "tuning.json").read_text())["best_epsilon"]
        params = {"elliptical": {}, "neal-mh": {"epsilon": eps}, "line-slice": {}}

        cells, failures = {}, []
        seconds, in_piece, steps, ess, evals = {}, {}, {}, {}, {}
        for kind in SAMPLERS:
            n_burn, n_keep = s[kind]
            bench = self._config(f"round{r}/bench-{kind}.json", {
                "n_burn": n_burn, "n_keep": n_keep, "repeats": s["repeats"],
                "models": [self.model], "samplers": [{"kind": kind, **params[kind]}],
            })
            with meter.piece() as p:
                self._cli(tracer, "benchmark", "--config", bench, "--out", out / kind)
            pieces.append(p)
            summary = json.loads((out / kind / "benchmark_summary.json").read_text())
            (cell,) = summary["cells"]
            seconds[kind], repeats = [], []
            for rep_dir in sorted((out / kind / cell["cell"]).glob("repeat*")):
                if not (rep_dir / "summary.json").exists():
                    continue  # a failed repeat; listed in the cell's failures
                rep = json.loads((rep_dir / "summary.json").read_text())
                repeats.append({
                    "repeat": rep_dir.name,
                    "ess": rep["ess"],
                    "lik_evals": rep["total_lik_evals"],
                    "prior_evals": rep["total_prior_evals"],
                    "n_kept": rep["n_kept"],
                })
                seconds[kind].append(rep["seconds"])
            cells[kind] = {"cell": f"{kind}/{cell['cell']}", "repeats": repeats}
            in_piece[kind] = [p] * len(repeats)
            steps[kind] = [n_burn + n_keep] * len(repeats)
            ess[kind] = sum(x["ess"] for x in repeats)
            evals[kind] = sum(x["lik_evals"] for x in repeats)
            for fail in cell["failures"]:
                # the harness keeps only the message of a failed repeat
                failures.append({"workload": self.name, "cell": cells[kind]["cell"],
                                 "repeat": fail["repeat"], "type": "EllsliceError",
                                 "message": fail["error"]})

        with meter.piece() as p:
            for kind in SAMPLERS:
                for trace in sorted((out / kind).glob("*/repeat*/trace.csv")):
                    self._cli(tracer, "diagnose", trace,
                              "--out", trace.with_name("diagnose.json"))
        pieces.append(p)
        for kind in SAMPLERS:
            for rep in cells[kind]["repeats"]:
                rep_dir = self.work / f"round{r}" / cells[kind]["cell"] / rep["repeat"]
                diag = json.loads((rep_dir / "diagnose.json").read_text())
                rep["diagnose_ess"] = diag["ess"]
                rep["diagnose_lik_evals"] = diag["total_lik_evals"]
                rep["trace_sha256"] = _sha256(rep_dir / "trace.csv")
        if r > 0:
            shutil.rmtree(out)  # round 0 stays for the checks
        record = {"best_epsilon": eps, "cells": cells, "ess": ess, "lik_evals": evals,
                  "failures": failures}
        attempted = len(s["grid"]) + len(SAMPLERS) * s["repeats"]
        return RoundResult(pieces, seconds, in_piece, steps, attempted, record, failures)

    def check(self, first: list[RoundResult]) -> list[str]:
        """Traces re-read by diagnose match the in-memory reports exactly, and
        each sampler's pooled mean log-likelihood over the repeats matches the
        exact posterior expectation
        E[log L] = -n/2 log(2 pi v) - (|y - m|^2 + tr S) / (2 v)."""
        ds = harness.load_dataset(self.dataset_dir)
        post_mean, post_cov = gp_regression_posterior_oracle(harness.build_prior(ds), ds.data)
        v, y = ds.data.noise_variance, ds.data.y
        resid = y - post_mean
        exact = (-0.5 * ds.data.n * math.log(2 * math.pi * v)
                 - (resid @ resid + np.trace(post_cov)) / (2 * v))
        notes = []
        for kind, cell in first[0].record["cells"].items():
            means, variances = [], []
            for rep in cell["repeats"]:
                for key in ("ess", "lik_evals"):
                    if rep["diagnose_" + key] != rep[key]:
                        raise CheckFailed(self.name, cell["cell"], rep["repeat"],
                                          f"diagnose gives {key}={rep['diagnose_' + key]!r}, "
                                          f"the in-memory report {rep[key]!r}")
                log_lik, _, _ = harness.read_trace_csv(
                    self.work / "round0" / cell["cell"] / rep["repeat"] / "trace.csv")
                means.append(float(log_lik.mean()))
                variances.append(float(log_lik.var(ddof=1)) / rep["ess"])
            if not means:
                continue
            mean, se = _pooled(means, variances)
            z = _z(mean, se, exact)
            notes.append(f"check cell={cell['cell']} mean_log_lik_vs_exact z={z:+.3f} limit={Z_MAX}")
            if abs(z) > Z_MAX:
                raise CheckFailed(
                    self.name, cell["cell"], "pooled over " + ",".join(
                        rep["repeat"] for rep in cell["repeats"]),
                    f"mean log-likelihood {mean:.4f} is {z:+.2f} standard "
                    f"errors from the exact {exact:.4f} (limit {Z_MAX})")
        return notes


class CoxMining(Workload):
    """One chain per sampler on the packaged coal-mining Cox data (n=811),
    through ``run_chain`` and ``summarize``; no files are written.

    Round r uses random stream r mod 3, so three rounds give three
    independent chains per sampler for the agreement check. Every chain
    starts from a warm state: the end of a short elliptical chain from zero,
    one per stream, made once before the rounds. Started at zero, short
    line-slice chains stay in their transient and their mean log-likelihood
    sits about one unit low, which no check on so few steps can allow for.
    """

    name = "cox-mining"
    streams = 3
    reference = "matvec"

    def __init__(self, seed: int, scale: str, workdir: Path):
        self.seed = seed
        self.size = SIZES[scale]["cox"]
        self.starts: list[np.ndarray] = []

    def setup(self, tracer):
        ds = harness.build_dataset({"kind": "cox"}, KernelConfig(), chain_rng(self.seed, 0))
        return ds.data, harness.build_prior(ds)

    def prepare(self, state) -> None:
        data, prior = state
        for k in range(self.streams):
            trace = run_chain(np.zeros(data.n), make_operator("elliptical"), prior, data,
                              n_burn=self.size["warmup"] - 1, n_keep=1, thin=1,
                              rng=chain_rng(self.seed, 3, k))
            self.starts.append(trace.snapshots[-1])

    def run_round(self, state, tracer, meter: Meter, r: int) -> RoundResult:
        """One piece per chain."""
        data, prior = state
        stream = r % self.streams
        pieces, seconds, in_piece, steps = [], {}, {}, {}
        ess, evals, chains, failures = {}, {}, {}, []
        for si, kind in enumerate(SAMPLERS):
            params = {"epsilon": MH_EPSILON} if kind == "neal-mh" else {}
            step = tracer.wrap_step(make_operator(kind, **params), kind)
            n_burn, n_keep = self.size[kind]
            with tracer.span("chain", sampler=kind, stream=stream):
                with meter.piece() as p:
                    try:
                        trace = run_chain(self.starts[stream], step, prior, data,
                                          n_burn=n_burn, n_keep=n_keep,
                                          rng=chain_rng(self.seed, 1, si, stream))
                    except ChainError as exc:
                        trace = None
                        failures.append({"workload": self.name, "cell": kind,
                                         "repeat": stream, "iteration": exc.iteration,
                                         "type": type(exc.__cause__).__name__,
                                         "message": str(exc)})
                pieces.append(p)
                if trace is None:
                    continue
                seconds[kind], in_piece[kind] = [p.seconds], [p]
                report = summarize(trace)
            steps[kind] = [n_burn + n_keep]
            ess[kind] = report.ess
            evals[kind] = report.total_lik_evals
            chains[kind] = {"mean": float(trace.log_lik.mean()),
                            "var": float(trace.log_lik.var(ddof=1)),
                            "prior_evals": report.total_prior_evals}
        record = {"stream": stream, "chains": chains, "ess": ess, "lik_evals": evals,
                  "failures": failures}
        return RoundResult(pieces, seconds, in_piece, steps, len(SAMPLERS), record, failures)

    def check(self, first: list[RoundResult]) -> list[str]:
        """The samplers' mean log-likelihoods, pooled over the streams, agree
        pairwise within Monte Carlo error."""
        pooled = {}
        for kind in SAMPLERS:
            runs = [x.record for x in first if kind in x.record["chains"]]
            if runs:
                pooled[kind] = _pooled([x["chains"][kind]["mean"] for x in runs],
                                       [x["chains"][kind]["var"] / x["ess"][kind] for x in runs])
        kinds = sorted(pooled)
        notes = []
        for i, a in enumerate(kinds):
            for b in kinds[i + 1:]:
                (ma, sa), (mb, sb) = pooled[a], pooled[b]
                z = _z(ma, math.hypot(sa, sb), mb)
                notes.append(f"check cell={a}-vs-{b} mean_log_lik z={z:+.3f} limit={Z_MAX}")
                if abs(z) > Z_MAX:
                    raise CheckFailed(
                        self.name, f"{a} vs {b}", f"streams 0-{self.streams - 1}",
                        f"mean log-likelihoods {ma:.4f} and {mb:.4f} differ by "
                        f"{z:+.2f} standard errors (limit {Z_MAX})")
        return notes


class BlockSweep(Workload):
    """Sweeps of ``block_update`` over ``contiguous_partitions(200, 4)`` with
    each inner operator, on the regression n=200 priors with d=10 (full
    rank) and d=1 (the package default, whose conditionals do not
    factorize today). Failed block updates are counted, never worked
    around."""

    name = "block-sweep"
    reference = "lapack"
    n = 200
    dims = (10, 1)

    def __init__(self, seed: int, scale: str, workdir: Path):
        self.seed = seed
        self.sweeps = SIZES[scale]["block"]["sweeps"]
        self.parts = contiguous_partitions(self.n, 4)

    def setup(self, tracer):
        priors = []
        for d in self.dims:
            cfg = {"kind": "regression", "n": self.n, "dims": d}
            ds = harness.build_dataset(cfg, KernelConfig(), chain_rng(self.seed, 0, d))
            priors.append((f"d{d}", ds.data, harness.build_prior(ds)))
        return priors

    def run_round(self, priors, tracer, meter: Meter, r: int) -> RoundResult:
        """One piece per sampler-and-prior cell; a cell's time is the busy
        time of its block updates."""
        update = tracer.timed(block_update, "blocking.block_update")
        seconds = {kind: [] for kind in SAMPLERS}
        in_piece = {kind: [] for kind in SAMPLERS}
        steps = {kind: [] for kind in SAMPLERS}
        pieces, cells, failures = [], {}, []
        for oi, kind in enumerate(SAMPLERS):
            params = {"epsilon": MH_EPSILON} if kind == "neal-mh" else {}
            step = tracer.wrap_step(make_operator(kind, **params), kind)
            for pi, (tag, data, prior) in enumerate(priors):
                cell = f"{kind}/{tag}"
                state = SamplerState(f=np.zeros(self.n))
                rng = chain_rng(self.seed, 2, oi, pi)
                done, busy = 0, 0.0
                with tracer.span("cell", sampler=kind, prior=tag), meter.piece() as p:
                    for sweep in range(self.sweeps):
                        for b, part in enumerate(self.parts):
                            c0 = _clock()
                            try:
                                result = update(state, prior, data, part, step, rng)
                            except EllsliceError as exc:
                                busy += _clock() - c0
                                failures.append({"workload": self.name, "cell": cell,
                                                 "sweep": sweep, "block": b,
                                                 "type": type(exc).__name__,
                                                 "message": str(exc)})
                                continue
                            busy += _clock() - c0
                            new = result.new_state
                            if not np.array_equal(new.f[part.complement], state.f[part.complement]):
                                raise CheckFailed(self.name, cell, f"sweep {sweep} block {b}",
                                                  "block update changed the complement")
                            state = new
                            done += 1
                pieces.append(p)
                seconds[kind].append(busy)
                in_piece[kind].append(p)
                steps[kind].append(done)
                log_lik = state.log_lik
                if done and not math.isclose(log_lik, unwrap(data).log_lik(state.f),
                                             rel_tol=1e-12, abs_tol=1e-9):
                    raise CheckFailed(self.name, cell, 0, "cached log-likelihood does not "
                                      "match the likelihood of the final state")
                cells[cell] = {"completed": done, "log_lik": log_lik,
                               "lik_evals": state.lik_evals, "prior_evals": state.prior_evals}
        attempted = len(SAMPLERS) * len(priors) * self.sweeps * len(self.parts)
        record = {"cells": cells, "failures": failures}
        return RoundResult(pieces, seconds, in_piece, steps, attempted, record, failures)



WORKLOADS = {w.name: w for w in (RegTuneMatrix, CoxMining, BlockSweep)}

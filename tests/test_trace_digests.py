"""Pinned sha256 digests of fixed-seed chains and block sweeps.

A refactor of the transition operators must not change a single bit of what
they produce: the digests below pin the log-likelihood trace, both
cumulative evaluation columns, the acceptance flags and every latent
snapshot of short chains, plus the full step record of block-update sweeps.
Any change in how random numbers are consumed shows up here.

A change that alters the draws on purpose re-baselines the table: run
``PYTHONPATH=src python tests/test_trace_digests.py`` and paste its output.
The ``elliptical-aux`` entries pin the augmented-model reference form
(``reference_operators.elliptical_slice_aux_step``), which the package does
not ship; every other entry builds its step function with ``make_operator``.
Priors stay small (n <= 40) so the digests depend little on the BLAS build,
except three paths the benchmark runs: ``cox-mining``, the packaged
coal-mining data (n=811) with its low-rank root, pinned for the two
operators that score proposals on a plane; ``regression-n200``, the
n=200, d=1 regression data with its low-rank root, pinned for the three
packaged operators; and ``regression-n200-d10``, the n=200, d=10 regression
data with its dense root, whose block sweeps over
``contiguous_partitions(200, 4)`` are pinned for the three packaged
operators, as the block-sweep benchmark runs them. Each model's prior root
is pinned too (:data:`ROOTS`), so a change in which root ``factorize`` picks
fails by name before any digest does.

Every digest is computed in a fresh interpreter whose OpenBLAS runs one
thread (:data:`BLAS_THREADS`, set through ``OPENBLAS_NUM_THREADS``), as the
benchmark runs it, whatever thread count the test process has. A BLAS
product may sum in another order with another thread count: on a 2-core
host the ``regression-n200`` chains and the ``regression-n200-d10`` block
sweeps differ between one thread and two.
"""

import functools
import hashlib
import json
import os
import subprocess
import sys
import traceback
from pathlib import Path

import numpy as np
import pytest

import ellslice
from ellslice import (
    KernelConfig,
    SamplerState,
    bin_events,
    block_update,
    chain_rng,
    contiguous_partitions,
    factorize,
    generate_classification_dataset,
    generate_regression_dataset,
    make_operator,
    run_chain,
    squared_exponential,
)
from ellslice.harness import build_dataset, build_prior
from reference_operators import elliptical_slice_aux_step

OPERATORS = {
    "elliptical": make_operator("elliptical"),
    "elliptical-aux": elliptical_slice_aux_step,
    "neal-mh": make_operator("neal-mh", epsilon=0.3),
    "line-slice": make_operator("line-slice"),
}


def _regression(n=24):
    inputs, data, _ = generate_regression_dataset(n, 2, KernelConfig(), 0.3, chain_rng(5, 0))
    return factorize(squared_exponential(inputs, KernelConfig())), data


def _classification(n=24):
    kernel = KernelConfig(lengthscale=0.5, signal_variance=4.0)
    inputs, data, _ = generate_classification_dataset(n, 1, kernel, chain_rng(5, 1))
    return factorize(squared_exponential(inputs, kernel)), data


def _cox():
    events = np.sort(chain_rng(5, 2).uniform(0.0, 1000.0, size=60))
    data = bin_events(events, 50.0)
    centers = ((np.arange(data.n) + 0.5) * 50.0).reshape(-1, 1)
    return factorize(squared_exponential(centers, KernelConfig(lengthscale=200.0))), data


@functools.cache  # an n=811 root takes most of a second to build
def _cox_mining():
    ds = build_dataset({"kind": "cox"}, KernelConfig(), chain_rng(5, 3))
    return build_prior(ds), ds.data


@functools.cache
def _regression_n200():
    ds = build_dataset({"kind": "regression", "n": 200, "dims": 1}, KernelConfig(), chain_rng(5, 4))
    return build_prior(ds), ds.data


@functools.cache
def _regression_n200_d10():
    ds = build_dataset({"kind": "regression", "n": 200, "dims": 10}, KernelConfig(), chain_rng(5, 5))
    return build_prior(ds), ds.data


MODELS = {"regression": _regression, "classification": _classification, "cox": _cox,
          "cox-mining": _cox_mining, "regression-n200": _regression_n200,
          "regression-n200-d10": _regression_n200_d10}

# (backend, numerical rank, jitter) of each model's prior; cox needs jitter
# but its rank 18 of 20 fails the 2r < n rule, so it keeps the dense root
ROOTS = {
    "regression": ("dense", 24, 0.0),
    "classification": ("low-rank", 11, 4e-10),
    "cox": ("dense", 18, 1e-10),
    "cox-mining": ("low-rank", 15, 1e-10),
    "regression-n200": ("low-rank", 9, 1e-10),
    "regression-n200-d10": ("dense", 200, 0.0),
}


@pytest.mark.parametrize("model", sorted(MODELS))
def test_prior_root_is_pinned(model):
    prior, _ = MODELS[model]()
    assert (prior.backend, prior.rank, prior.jitter) == ROOTS[model]


def chain_digest(model: str, operator: str) -> str:
    prior, data = MODELS[model]()
    trace = run_chain(
        np.zeros(data.n), OPERATORS[operator], prior, data,
        n_burn=20, n_keep=100, thin=1, rng=chain_rng(11, 3),
    )
    h = hashlib.sha256()
    for column in (trace.log_lik, trace.lik_evals_cum, trace.prior_evals_cum,
                   trace.accepted, trace.snapshots):
        h.update(np.ascontiguousarray(column).tobytes())
    return h.hexdigest()


def block_sweep_digest(model: str, operator: str, sweeps: int = 5) -> str:
    prior, data = MODELS[model]()
    step_fn = OPERATORS[operator]
    parts = contiguous_partitions(data.n, 4)
    rng = chain_rng(13, 4)
    state = SamplerState(f=np.zeros(data.n))
    h = hashlib.sha256()
    for _ in range(sweeps):
        for part in parts:
            res = block_update(state, prior, data, part, step_fn, rng)
            state = res.new_state
            h.update(state.f.tobytes())
            h.update(np.array(res.angles, dtype=float).tobytes())
            h.update(repr((state.log_lik, state.lik_evals, state.prior_evals,
                           res.accepted, res.log_threshold)).encode())
    return h.hexdigest()


PACKAGED = ("elliptical", "neal-mh", "line-slice")
# the operators whose chains each benchmark-size model pins (the small
# models pin all four), and those whose block sweeps each model pins
LARGE_MODEL_OPERATORS = {
    "cox-mining": ("elliptical", "line-slice"),
    "regression-n200": PACKAGED,
    "regression-n200-d10": (),
}
BLOCK_MODEL_OPERATORS = {"regression": tuple(OPERATORS), "regression-n200-d10": PACKAGED}
CASES = [("chain", m, op) for m in MODELS for op in LARGE_MODEL_OPERATORS.get(m, OPERATORS)] + [
    ("block", m, op) for m, ops in BLOCK_MODEL_OPERATORS.items() for op in ops
]


def digest(case) -> str:
    what, model, operator = case
    return (chain_digest if what == "chain" else block_sweep_digest)(model, operator)


def digest_or_error(case) -> dict[str, str]:
    """``{"digest": ...}`` for a case, or ``{"error": traceback}`` if
    computing it raised, so that one broken case fails alone."""
    try:
        return {"digest": digest(case)}
    except Exception:
        return {"error": traceback.format_exc()}


EXPECTED = {
    ('chain', 'regression', 'elliptical'):
        '5da763e46b62cde6f175209a8c2a826a7a8dfcd4a484d8d347d3fde34da29844',
    ('chain', 'regression', 'elliptical-aux'):
        '6cd8f26a6c3be3296c131bd7a0bf619ba30d86bdf1946974b753501143457f74',
    ('chain', 'regression', 'neal-mh'):
        '5823d0481aef76d9f6c107a563651b031b1a42e3da63dedf547d9c3231090e84',
    ('chain', 'regression', 'line-slice'):
        '6c824e3f12a9ad8ac80436fd6d4a6f3808c162bd8407a100062c812634b10418',
    ('chain', 'classification', 'elliptical'):
        'cbdf24a26dae1ab388a5ff7bbada87091af9620976e8adefde31c57d98a33cc0',
    ('chain', 'classification', 'elliptical-aux'):
        'a350b3f4b0390251c00cafcf0468eb7e9291a699e45daafe474b111628bee9c6',
    ('chain', 'classification', 'neal-mh'):
        '6578d2c8c87bee2cc58f7d5e59a4c560fa36ee1a2db820f8979b5741840ba0c7',
    ('chain', 'classification', 'line-slice'):
        'c6cffc3ec45774c02ae8670c493cdce6669292c685788b116337284848653da2',
    ('chain', 'cox', 'elliptical'):
        '6791043168cc711c6a58e6b94dc734ca4b66e7628907a63bbb9ac42c8f7ed5b9',
    ('chain', 'cox', 'elliptical-aux'):
        'd311112d317ee8d83f989365d34c07ea6f510a537d438a2d41814b4096e612cb',
    ('chain', 'cox', 'neal-mh'):
        '8494df4006352cc110f8334ce6640167d5d9da0c84ca03e98917ab0f6ec4373c',
    ('chain', 'cox', 'line-slice'):
        '23cae144729e5c3000138668b08eb199fea6725dbdcf09b99e9dd0c9ac137a56',
    ('chain', 'cox-mining', 'elliptical'):
        '2897c98f87f11229bfd988445c9490034d1a86def8e03dc0167913e4792aad1d',
    ('chain', 'cox-mining', 'line-slice'):
        'b1e4dada5146fb63ea138485348d23252a95bd8c0d7c5299e5312cf4bc1c1990',
    ('chain', 'regression-n200', 'elliptical'):
        '091d28aa8a64d51efd9e1e4a4a1b1c015c1ecf39873e627362651cc5b16c551e',
    ('chain', 'regression-n200', 'neal-mh'):
        '487de711f69f40da1c701675d9d06b92a1aa37d348f425e300d50ed452ac6033',
    ('chain', 'regression-n200', 'line-slice'):
        '8ea79e0733ab9f75413d4c073c0737198a68a225ddafd1141e5fcebe0f1ea2c8',
    ('block', 'regression', 'elliptical'):
        '428e9907dc0ae3fa9adb73320fcd32dd4284d0805dc3f7ea77db4f907a1d829f',
    ('block', 'regression', 'elliptical-aux'):
        'ab0f8498afc32e860df6607d62f78270bd8c2c25396f763b6f2a6c02d439b054',
    ('block', 'regression', 'neal-mh'):
        '71e50421396a369700a4e63b89c6ffe079d00d971a12abb91a752ef0d50d5248',
    ('block', 'regression', 'line-slice'):
        '77c24a009673a7c2512607284f8baccc74edbc0fb04d539445c2feac58040ccd',
    ('block', 'regression-n200-d10', 'elliptical'):
        '6c8b6b214379bdce2f3b1f22c905da3b0dd488b8e6d0c10fc3c617380c5589a1',
    ('block', 'regression-n200-d10', 'neal-mh'):
        '3428c904f61b3bbe64bc889b59097aa727bfe6874d016046ad6550865f2ca678',
    ('block', 'regression-n200-d10', 'line-slice'):
        '5b8cf7f3c65141fc2e8d033225be1ca3e58237a9df27d7d94802af45d8aebc71',
}


BLAS_THREADS = 1


@functools.cache
def pinned_digests() -> dict[tuple[str, str, str], dict[str, str]]:
    """Every case's :func:`digest_or_error`, computed by this module run as
    a script with ``--json`` in a fresh interpreter whose BLAS runs
    BLAS_THREADS threads."""
    path = os.pathsep.join(filter(None, [str(Path(ellslice.__file__).parents[1]),
                                         os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(BLAS_THREADS), PYTHONPATH=path)
    worker = subprocess.run([sys.executable, __file__, "--json"], env=env,
                            capture_output=True, text=True)
    assert worker.returncode == 0, worker.stderr
    return {tuple(case): value for case, value in json.loads(worker.stdout)}


@pytest.mark.parametrize("case", CASES, ids=["-".join(c) for c in CASES])
def test_digest_is_pinned(case):
    got = pinned_digests()[case]
    assert "error" not in got, got.get("error")
    assert got["digest"] == EXPECTED[case]


def test_broken_case_fails_alone(monkeypatch):
    """A case whose digest raises records its error; the others keep theirs."""
    broken = CASES[0]

    def digest_unless_broken(case):
        if case == broken:
            raise TypeError("broken case")
        return f"digest of {case}"

    monkeypatch.setattr(sys.modules[__name__], "digest", digest_unless_broken)
    entries = {case: digest_or_error(case) for case in CASES}
    assert "TypeError: broken case" in entries.pop(broken)["error"]
    assert entries == {case: {"digest": f"digest of {case}"} for case in entries}


if __name__ == "__main__":
    if sys.argv[1:] == ["--json"]:  # the worker of pinned_digests
        print(json.dumps([[case, digest_or_error(case)] for case in CASES]))
    else:
        print("EXPECTED = {")
        for case, entry in pinned_digests().items():
            print(f"    {case!r}:\n        {entry.get('digest', entry.get('error'))!r},")
        print("}")

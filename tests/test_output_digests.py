"""Pinned sha256 digest of every file the harness commands write.

A refactor of the harness must leave its outputs byte-identical: dataset
files and manifests, the run's trace, summary and manifest, the tuning
results, every benchmark trace and summary, and the config hash and seed
stamped in each. The digest covers one tiny fixed-seed session of
``generate`` (all three model kinds, one with a ``dims`` list and one cox
spec reading the ``events.txt`` another wrote as its ``events_file``), ``run``,
``tune-mh`` and ``benchmark`` (three samplers by three model kinds). Only
the wall-clock fields ``seconds`` and ``seconds_mean`` are stripped before
hashing.

Each file's digest is pinned as well, so a mismatch names the files that
moved. A change that alters these outputs on purpose re-baselines both: run
``PYTHONPATH=src python tests/test_output_digests.py`` and paste its output.
Datasets stay small (n <= 24) so the digest depends little on the BLAS build.

The session also checks the provenance stamp: every JSON output carries the
``config_hash`` and ``seed`` of the config that wrote it, and every CSV starts
with the ``# config_hash=... seed=...`` line, as does ``events.txt``, which a
cox spec reads back as its ``events_file`` past that comment.
"""

import hashlib
import os
import re
import json
import tempfile
from pathlib import Path

import pytest

from ellslice.harness import (
    cli_benchmark,
    cli_generate,
    cli_run,
    cli_tune_mh,
    config_hash,
    parse_config,
)

BASE = {"seed": 21, "n_burn": 5, "n_keep": 30, "repeats": 2, "tune_grid": [0.2, 0.6]}
MODELS = {
    "regression": {"kind": "regression", "n": 16, "dims": [1, 2], "noise_std": 0.2},
    "classification": {"kind": "classification", "n": 16, "link": "probit"},
    "cox": {"kind": "cox", "bin_width": 2000.0},  # 21 bins of the packaged record
    # the record as the previous spec wrote it, read back as an events_file
    "cox-events": {"kind": "cox", "bin_width": 1000.0, "events_file": "data/cox/events.txt"},
}
MATRIX = {
    "models": [
        {"kind": "regression", "n": 16, "dims": 2},
        {"kind": "classification", "n": 16},
        {"kind": "cox", "bin_width": 2000.0, "kernel": {"lengthscale": 8000.0}},
    ],
    "samplers": [{"kind": "elliptical"}, {"kind": "neal-mh", "epsilon": 0.3},
                 {"kind": "line-slice"}],
}

_WALL_CLOCK = re.compile(r'^\s*"seconds(_mean)?": .*\n', re.MULTILINE)


def run_session() -> dict[Path, object]:
    """Every command once, writing under the working directory with relative
    paths, so the run manifest's dataset path does not depend on it.

    Returns each command's output directory with the config it ran.
    """
    configs = {}
    for name, model in MODELS.items():
        configs[Path("data", name)] = parse_config(dict(BASE, model=model))
        cli_generate(configs[Path("data", name)], Path("data", name))
    dataset = Path("data", "regression", "d01")
    cfg = configs[Path("run")] = configs[Path("tune")] = parse_config(
        dict(BASE, sampler={"kind": "elliptical"})
    )
    cli_run(cfg, dataset, Path("run"))
    cli_tune_mh(cfg, dataset, Path("tune"))
    configs[Path("bench")] = parse_config(dict(BASE, **MATRIX))
    cli_benchmark(configs[Path("bench")], Path("bench"))
    return configs


def _stripped(path: Path) -> bytes:
    text = _WALL_CLOCK.sub("", path.read_text())
    if path.name == "benchmark_summary.csv":  # drop the 4th column, seconds_mean
        rows = [line.split(",") for line in text.splitlines(keepends=True)]
        text = "".join(",".join(row[:3] + row[4:]) for row in rows)
    return text.encode()


def _files(root: Path) -> list[Path]:
    return sorted(p for p in root.rglob("*") if p.is_file())


def file_digests(root: Path) -> dict[str, str]:
    """The first 16 hex digits of each file's digest, by relative path."""
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(_stripped(path)).hexdigest()[:16]
        for path in _files(root)
    }


def output_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in _files(root):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(_stripped(path) + b"\0")
    return h.hexdigest()


EXPECTED = 'b0eb695819407a837148606b80e345f5ac76a913a489c47474944fd00c5d73c5'

FILE_DIGESTS = {
    'bench/benchmark_summary.csv': 'a0048ee6e6fa90de',
    'bench/benchmark_summary.json': '3ae1da9ae17af33c',
    'bench/cell00_elliptical_regression-d2/cell_summary.json': '05123855961b275b',
    'bench/cell00_elliptical_regression-d2/repeat00/summary.json': '277c151c170dda4a',
    'bench/cell00_elliptical_regression-d2/repeat00/trace.csv': '37f8a1af698d406f',
    'bench/cell00_elliptical_regression-d2/repeat01/summary.json': '6e491316c3b9dca3',
    'bench/cell00_elliptical_regression-d2/repeat01/trace.csv': '6e7f1ea29c2e5a3d',
    'bench/cell01_elliptical_classification-d1/cell_summary.json': '668f360bc1ed9627',
    'bench/cell01_elliptical_classification-d1/repeat00/summary.json': 'b6b717539514f386',
    'bench/cell01_elliptical_classification-d1/repeat00/trace.csv': 'af1650e6c61f404d',
    'bench/cell01_elliptical_classification-d1/repeat01/summary.json': '2b64e5c75b391d49',
    'bench/cell01_elliptical_classification-d1/repeat01/trace.csv': 'e4596591090b343b',
    'bench/cell02_elliptical_cox/cell_summary.json': '102e7fdd8cbf98ea',
    'bench/cell02_elliptical_cox/repeat00/summary.json': 'c576cf7126046504',
    'bench/cell02_elliptical_cox/repeat00/trace.csv': 'cdd2962563434a5b',
    'bench/cell02_elliptical_cox/repeat01/summary.json': 'fe04aafd2bcf8707',
    'bench/cell02_elliptical_cox/repeat01/trace.csv': '724144dd31d40976',
    'bench/cell03_neal-mh-eps0.3_regression-d2/cell_summary.json': 'c0677246558812a5',
    'bench/cell03_neal-mh-eps0.3_regression-d2/repeat00/summary.json': 'e2bf274e585549de',
    'bench/cell03_neal-mh-eps0.3_regression-d2/repeat00/trace.csv': '1d5ceba1f529f117',
    'bench/cell03_neal-mh-eps0.3_regression-d2/repeat01/summary.json': 'e0052d957c2e410b',
    'bench/cell03_neal-mh-eps0.3_regression-d2/repeat01/trace.csv': 'acf9c229990cf359',
    'bench/cell04_neal-mh-eps0.3_classification-d1/cell_summary.json': 'b7bdd5681b0d52d2',
    'bench/cell04_neal-mh-eps0.3_classification-d1/repeat00/summary.json': 'bde1cc3053877577',
    'bench/cell04_neal-mh-eps0.3_classification-d1/repeat00/trace.csv': '3a5191de24e8afb0',
    'bench/cell04_neal-mh-eps0.3_classification-d1/repeat01/summary.json': '36ae828000474a9b',
    'bench/cell04_neal-mh-eps0.3_classification-d1/repeat01/trace.csv': '831c11e4c3dd76f8',
    'bench/cell05_neal-mh-eps0.3_cox/cell_summary.json': 'b30e6b701d7a3903',
    'bench/cell05_neal-mh-eps0.3_cox/repeat00/summary.json': 'b2c20d9757cb8d83',
    'bench/cell05_neal-mh-eps0.3_cox/repeat00/trace.csv': 'c31d8f2484444ac4',
    'bench/cell05_neal-mh-eps0.3_cox/repeat01/summary.json': '42e4f1a849d8cba3',
    'bench/cell05_neal-mh-eps0.3_cox/repeat01/trace.csv': '1b0fe11fc4d2a460',
    'bench/cell06_line-slice_regression-d2/cell_summary.json': 'df9dcab4f8e07a6a',
    'bench/cell06_line-slice_regression-d2/repeat00/summary.json': 'd02c9d21768b6b54',
    'bench/cell06_line-slice_regression-d2/repeat00/trace.csv': '3e3a73da173ef816',
    'bench/cell06_line-slice_regression-d2/repeat01/summary.json': 'f71967b01ac3c778',
    'bench/cell06_line-slice_regression-d2/repeat01/trace.csv': '7f28995536503bd8',
    'bench/cell07_line-slice_classification-d1/cell_summary.json': 'c67c6bf538191030',
    'bench/cell07_line-slice_classification-d1/repeat00/summary.json': '4d3b258f1c4a1de0',
    'bench/cell07_line-slice_classification-d1/repeat00/trace.csv': '7313b44ac508d129',
    'bench/cell07_line-slice_classification-d1/repeat01/summary.json': '5f0d603eef128145',
    'bench/cell07_line-slice_classification-d1/repeat01/trace.csv': 'b5e8ac505be845c4',
    'bench/cell08_line-slice_cox/cell_summary.json': '324530e8a7fe4dd6',
    'bench/cell08_line-slice_cox/repeat00/summary.json': '653305a466a6a404',
    'bench/cell08_line-slice_cox/repeat00/trace.csv': 'f24d94ec7c23e714',
    'bench/cell08_line-slice_cox/repeat01/summary.json': '3d531585738e7a88',
    'bench/cell08_line-slice_cox/repeat01/trace.csv': '4b04f9154d1ca03b',
    'data/classification/inputs.csv': '5d0ffd7b5b6fbdd1',
    'data/classification/latents.csv': 'acba5f0b13a6007a',
    'data/classification/manifest.json': '1b853eace5c0b925',
    'data/classification/observations.csv': '91371c640a414d01',
    'data/cox/events.txt': '90b1a076fcb89291',
    'data/cox/manifest.json': 'daea967c1003dbac',
    'data/cox-events/events.txt': '29ae68c6b499c39a',
    'data/cox-events/manifest.json': 'd6398a2456b10a15',
    'data/regression/d01/inputs.csv': 'b7d7e1ec4e122ac5',
    'data/regression/d01/latents.csv': '6950b2072ebd44b3',
    'data/regression/d01/manifest.json': 'cbf655865954dae7',
    'data/regression/d01/observations.csv': '45fa4773ba73d0fd',
    'data/regression/d02/inputs.csv': 'c17c300b3d1ef014',
    'data/regression/d02/latents.csv': '7096564585805b91',
    'data/regression/d02/manifest.json': '545b4fd6d02dc9b3',
    'data/regression/d02/observations.csv': 'a76a771e7b4afe7f',
    'run/manifest.json': 'de0c6d077fa811e1',
    'run/summary.json': '92501e237c89cc31',
    'run/trace.csv': '6800a2720ceed341',
    'tune/tuning.json': 'fa72f9b21be1d7a8',
}


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    """(output root, configs by directory) of one session."""
    root = tmp_path_factory.mktemp("session")
    cwd = os.getcwd()
    os.chdir(root)
    try:
        configs = run_session()
    finally:
        os.chdir(cwd)
    return root, configs


def test_harness_outputs_are_pinned(session):
    root, _ = session
    assert output_digest(root) == EXPECTED


def test_each_output_file_is_pinned(session):
    got = file_digests(session[0])
    moved = sorted(name for name in got.keys() | FILE_DIGESTS.keys()
                   if got.get(name) != FILE_DIGESTS.get(name))
    assert not moved, f"outputs that moved, appeared or went missing: {moved}"


def test_every_output_carries_its_config_stamp(session):
    root, configs = session
    unstamped = []
    for path in _files(root):
        rel = path.relative_to(root)
        cfg = next(configs[d] for d in configs if d in rel.parents)
        digest, seed = config_hash(cfg), cfg.seed
        if path.suffix == ".json":
            payload = json.loads(path.read_text())
            stamped = (payload.get("config_hash"), payload.get("seed")) == (digest, seed)
        else:
            first = path.read_text().splitlines()[0]
            stamped = first == f"# config_hash={digest} seed={seed}"
        if not stamped:
            unstamped.append(rel.as_posix())
    assert unstamped == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        run_session()
        print(f"EXPECTED = {output_digest(Path(tmp))!r}\n")
        print("FILE_DIGESTS = {")
        for name, digest in file_digests(Path(tmp)).items():
            print(f"    {name!r}: {digest!r},")
        print("}")

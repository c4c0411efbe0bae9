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


EXPECTED = '69017ca3235a6ddf679c884fd4e3c2b84dae73b56844994f7b26276e51bd23f0'

FILE_DIGESTS = {
    'bench/benchmark_summary.csv': 'f2deef7aa1fb5e1e',
    'bench/benchmark_summary.json': '0a9538560d6b6c62',
    'bench/cell00_elliptical_regression-d2/cell_summary.json': '18c12ecd2b26b0ad',
    'bench/cell00_elliptical_regression-d2/repeat00/summary.json': '36163f8a870214a0',
    'bench/cell00_elliptical_regression-d2/repeat00/trace.csv': '967d112486e65d85',
    'bench/cell00_elliptical_regression-d2/repeat01/summary.json': '3c4478ccd4128e92',
    'bench/cell00_elliptical_regression-d2/repeat01/trace.csv': '6c1e61b804565ce4',
    'bench/cell01_elliptical_classification-d1/cell_summary.json': '04224da84ae5de7e',
    'bench/cell01_elliptical_classification-d1/repeat00/summary.json': '4d7d31c83b68870b',
    'bench/cell01_elliptical_classification-d1/repeat00/trace.csv': '1a55ed1170bd4071',
    'bench/cell01_elliptical_classification-d1/repeat01/summary.json': '2e550456ac53c49d',
    'bench/cell01_elliptical_classification-d1/repeat01/trace.csv': '1ce6dde7db04e3c6',
    'bench/cell02_elliptical_cox/cell_summary.json': '9065108171c67d3a',
    'bench/cell02_elliptical_cox/repeat00/summary.json': '557d20907d90768b',
    'bench/cell02_elliptical_cox/repeat00/trace.csv': '06fe67520546bcbf',
    'bench/cell02_elliptical_cox/repeat01/summary.json': 'f4574b5085839f5b',
    'bench/cell02_elliptical_cox/repeat01/trace.csv': 'a7a8b76691d4d841',
    'bench/cell03_neal-mh-eps0.3_regression-d2/cell_summary.json': 'd9a1d8cb981f6487',
    'bench/cell03_neal-mh-eps0.3_regression-d2/repeat00/summary.json': '5bdd8cb28fdd2d8f',
    'bench/cell03_neal-mh-eps0.3_regression-d2/repeat00/trace.csv': 'e162fec70c7ae567',
    'bench/cell03_neal-mh-eps0.3_regression-d2/repeat01/summary.json': '1e2a0ca7f02acb05',
    'bench/cell03_neal-mh-eps0.3_regression-d2/repeat01/trace.csv': '2228924b090f69db',
    'bench/cell04_neal-mh-eps0.3_classification-d1/cell_summary.json': '44d2338634631e68',
    'bench/cell04_neal-mh-eps0.3_classification-d1/repeat00/summary.json': 'ca165de2ff18faa0',
    'bench/cell04_neal-mh-eps0.3_classification-d1/repeat00/trace.csv': 'f120ad0217332223',
    'bench/cell04_neal-mh-eps0.3_classification-d1/repeat01/summary.json': 'd82f925a2ab727b3',
    'bench/cell04_neal-mh-eps0.3_classification-d1/repeat01/trace.csv': '5439e48b5e0442e3',
    'bench/cell05_neal-mh-eps0.3_cox/cell_summary.json': 'ea4838005984d0ad',
    'bench/cell05_neal-mh-eps0.3_cox/repeat00/summary.json': '182f7899c68b2a85',
    'bench/cell05_neal-mh-eps0.3_cox/repeat00/trace.csv': '1fcc953d77e0992e',
    'bench/cell05_neal-mh-eps0.3_cox/repeat01/summary.json': 'f86b5f42b8f7a793',
    'bench/cell05_neal-mh-eps0.3_cox/repeat01/trace.csv': 'c8495a376bae7dcc',
    'bench/cell06_line-slice_regression-d2/cell_summary.json': 'c4cc50d8c941a653',
    'bench/cell06_line-slice_regression-d2/repeat00/summary.json': 'd1821975d1e14c05',
    'bench/cell06_line-slice_regression-d2/repeat00/trace.csv': '7e240f21d3bbfca2',
    'bench/cell06_line-slice_regression-d2/repeat01/summary.json': 'f2792447730b6572',
    'bench/cell06_line-slice_regression-d2/repeat01/trace.csv': 'c1384c5b31020fc0',
    'bench/cell07_line-slice_classification-d1/cell_summary.json': '26a4df98e8e7ef52',
    'bench/cell07_line-slice_classification-d1/repeat00/summary.json': 'e7dc7c4498bf7c55',
    'bench/cell07_line-slice_classification-d1/repeat00/trace.csv': '84a45df897aa4253',
    'bench/cell07_line-slice_classification-d1/repeat01/summary.json': 'c6aada3385105c4c',
    'bench/cell07_line-slice_classification-d1/repeat01/trace.csv': 'c71745f17957aa9a',
    'bench/cell08_line-slice_cox/cell_summary.json': '2544943620defd6c',
    'bench/cell08_line-slice_cox/repeat00/summary.json': '676450a19c7676a7',
    'bench/cell08_line-slice_cox/repeat00/trace.csv': 'a99263843c0ab828',
    'bench/cell08_line-slice_cox/repeat01/summary.json': 'b52824210a0006b7',
    'bench/cell08_line-slice_cox/repeat01/trace.csv': '25319abd1b7750f9',
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
    'run/summary.json': '1b67b5d0f505df8c',
    'run/trace.csv': '47ca785411a8080c',
    'tune/tuning.json': '13bba1fc60f2f88a',
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

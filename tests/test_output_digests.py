"""Pinned sha256 digest of every file the harness commands write.

A refactor of the harness must leave its outputs byte-identical: dataset
files and manifests, the run's trace, summary and manifest, the tuning
results, every benchmark trace and summary, and the config hash and seed
stamped in each. The digest covers one tiny fixed-seed session of
``generate`` (all three model kinds, one with a ``dims`` list), ``run``,
``tune-mh`` and ``benchmark`` (three samplers by three model kinds). Only
the wall-clock fields ``seconds`` and ``seconds_mean`` are stripped before
hashing.

A change that alters these outputs on purpose re-baselines the digest: run
``PYTHONPATH=src python tests/test_output_digests.py`` and paste its output.
Datasets stay small (n <= 24) so the digest depends little on the BLAS build.
"""

import hashlib
import os
import re
import tempfile
from pathlib import Path

from ellslice.harness import (
    cli_benchmark,
    cli_generate,
    cli_run,
    cli_tune_mh,
    parse_config,
)

BASE = {"seed": 21, "n_burn": 5, "n_keep": 30, "repeats": 2, "tune_grid": [0.2, 0.6]}
MODELS = {
    "regression": {"kind": "regression", "n": 16, "dims": [1, 2], "noise_std": 0.2},
    "classification": {"kind": "classification", "n": 16, "link": "probit"},
    "cox": {"kind": "cox", "bin_width": 2000.0},  # 21 bins of the packaged record
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


def run_session() -> None:
    """Every command once, writing under the working directory with relative
    paths, so the run manifest's dataset path does not depend on it."""
    for name, model in MODELS.items():
        cli_generate(parse_config(dict(BASE, model=model)), Path("data", name))
    dataset = Path("data", "regression", "d01")
    cfg = parse_config(dict(BASE, sampler={"kind": "elliptical"}))
    cli_run(cfg, dataset, Path("run"))
    cli_tune_mh(cfg, dataset, Path("tune"))
    cli_benchmark(parse_config(dict(BASE, **MATRIX)), Path("bench"))


def _stripped(path: Path) -> bytes:
    text = _WALL_CLOCK.sub("", path.read_text())
    if path.name == "benchmark_summary.csv":  # drop the 4th column, seconds_mean
        rows = [line.split(",") for line in text.splitlines(keepends=True)]
        text = "".join(",".join(row[:3] + row[4:]) for row in rows)
    return text.encode()


def output_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(_stripped(path) + b"\0")
    return h.hexdigest()


EXPECTED = '1ae4cc40b4f1ad9a7365b832618764632ff1c73a3a6a5ff555476555a6025677'


def test_harness_outputs_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_session()
    assert output_digest(tmp_path) == EXPECTED


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        run_session()
        print(f"EXPECTED = {output_digest(Path(tmp))!r}")

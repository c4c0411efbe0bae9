"""Experiment harness: config files, dataset I/O, runs, tuning, benchmarks.

File conventions, shared by the CLI and the test suite:

* configs are JSON (a complete example lives in the README);
* dataset directories hold ``manifest.json`` plus the files ``_FILES``
  names for the model kind: CSVs of inputs, observations and latents, or
  one event time per line for count data;
* run directories hold ``trace.csv`` (columns ``iteration, log_likelihood,
  cumulative_likelihood_evals, accepted``), ``summary.json`` and
  ``manifest.json``;
* every CSV and event file starts with a ``#`` comment carrying the
  config hash and seed, and JSON outputs carry the same keys, so any output
  can be traced back to the exact configuration that produced it.

Floats are written with ``repr`` (shortest round-trip form), which makes
rerunning a command with the same config and seed byte-identical, bar the
wall-clock fields: ``seconds`` in ``summary.json`` and ``seconds_mean`` in
``cell_summary.json``, ``benchmark_summary.json`` and
``benchmark_summary.csv``. Trace CSVs and dataset files carry no timings.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping

import numpy as np

from .diagnostics import (
    MIN_SERIES_LENGTH,
    ChainTrace,
    EssReport,
    effective_sample_size,
    summarize,
)
from .errors import EllsliceError, InvalidConfig
from .gaussian import GaussianPrior, factorize
from .kernels import KernelConfig, squared_exponential
from .models import (
    ClassificationData,
    RegressionData,
    bin_events,
    checked_link,
    checked_noise_std,
    generate_classification_dataset,
    generate_regression_dataset,
    mining_event_times,
)
from .samplers import StepFn, chain_rng, make_operator, run_chain

DESK_BURN = 1_000
DESK_KEEP = 10_000

# Count data defaults: 50-day bins, lengthscale 13516 days, unit variance.
COX_BIN_WIDTH = 50.0
COX_KERNEL = KernelConfig(lengthscale=13516.0, signal_variance=1.0)

_DEFAULT_SAMPLER = "elliptical"  # the kind of a sampler spec without "kind"

# Sub-streams of the master seed, so each command draws from its own
# reproducible stream regardless of execution order. Benchmark cells build
# model mi's dataset from the same stream `generate` uses for variant mi,
# so a step size tuned on a generated dataset transfers exactly.
_STREAM_DATASET = 0
_STREAM_RUN = 1
_STREAM_TUNE = 2
_STREAM_BENCH = 3


def _coerce(key: str, value: Any, convert: Callable[[Any], Any]) -> Any:
    """``convert(value)``; a value it cannot convert raises InvalidConfig naming ``key``."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError, InvalidConfig) as exc:
        raise InvalidConfig(f"bad value for {key!r}: {value!r} ({exc})") from None


def _in_range(convert: Callable[[Any], Any], ok: Callable[[Any], bool], need: str):
    """``convert``, then a range check that raises ValueError saying what is needed."""
    def checked(value: Any) -> Any:
        converted = convert(value)
        if not ok(converted):
            raise ValueError(f"must be {need}")
        return converted
    return checked


def _integer(low: int) -> Callable[[Any], int]:
    """An integer >= ``low``: a float with a fractional part is an error, not
    truncated, and so is anything :func:`_real` rejects."""
    def convert(value: Any) -> int:
        # an int is read exactly, as its float may round
        if type(value) is not int and not _real(value).is_integer():
            raise ValueError("not an integer")
        return int(value)
    return _in_range(convert, lambda x: x >= low, f"an integer >= {low}")


def _real(value: Any) -> float:
    """A JSON number as a float: a bool or a string is an error, not 1.0 or
    the number the string spells."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError("not a number")
    return float(value)


def _grid(values: Any) -> tuple[float, ...]:
    if not isinstance(values, (list, tuple)):  # a string or object would be read item by item
        raise ValueError("not a list")
    return tuple(_real(v) for v in values)


_COUNT = _integer(1)
_POSITIVE = _in_range(_real, lambda x: 0.0 < x < math.inf, "finite and > 0")
_PATH = _in_range(lambda x: x, lambda x: isinstance(x, str), "a path string")


def _kernel(fields: Any) -> KernelConfig:
    return KernelConfig(**fields)


_SPEC = _in_range(lambda x: x, lambda x: x is None or isinstance(x, Mapping), "a JSON object")
_SPECS = _in_range(tuple, lambda xs: all(isinstance(x, Mapping) for x in xs),
                   "a list of JSON objects")


def _key(convert: Callable[[Any], Any], default: Any = dataclasses.MISSING) -> Any:
    """A config field read by ``convert``, a checked converter, or ``default``."""
    return dataclasses.field(default=default, metadata={"convert": convert})


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; build it with :func:`parse_config`.

    Each field is a config key with its checked converter and its default:
    the one place a config is read. The seed has no default, as
    parse_config requires it: the seed must come from the config, never the
    wall clock. ``model``/``sampler`` describe a single run;
    ``models``/``samplers`` a benchmark matrix.
    """

    seed: int = _key(_integer(0))
    n_burn: int = _key(_integer(0), DESK_BURN)
    # every command summarizes its chains by ESS, which needs this many
    n_keep: int = _key(_integer(MIN_SERIES_LENGTH), DESK_KEEP)
    repeats: int = _key(_COUNT, 1)
    kernel: KernelConfig = _key(_kernel, KernelConfig())
    model: Mapping[str, Any] | None = _key(_SPEC, None)
    sampler: Mapping[str, Any] | None = _key(_SPEC, None)
    models: tuple[Mapping[str, Any], ...] = _key(_SPECS, ())
    samplers: tuple[Mapping[str, Any], ...] = _key(_SPECS, ())
    # a repeated value would run twice and win on the better of its draws
    tune_grid: tuple[float, ...] = _key(_in_range(
        _grid, lambda gs: len(set(gs)) == len(gs) and all(0.0 < g <= 1.0 for g in gs),
        "distinct values in (0, 1]"), ())

    def as_dict(self) -> dict[str, Any]:
        """Canonical plain-dict form, used for hashing and manifests."""
        return dataclasses.asdict(self)


def config_hash(cfg: ExperimentConfig) -> str:
    """SHA-256 over the canonical JSON form of a config."""
    blob = json.dumps(cfg.as_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


_Keys = dict[str, tuple[Any, Callable[[Any], Any]]]  # key: (default, checked converter)
_CONFIG_KEYS: _Keys = {
    f.name: (f.default, f.metadata["convert"]) for f in dataclasses.fields(ExperimentConfig)
}


def parse_config(raw: Mapping[str, Any]) -> ExperimentConfig:
    """Build an ExperimentConfig from a JSON-style dict."""
    if "seed" not in raw:
        raise InvalidConfig("config must supply a seed (no wall-clock seeding)")
    unknown = set(raw) - set(_CONFIG_KEYS)
    if unknown:
        raise InvalidConfig(f"unknown config keys: {sorted(unknown)}")
    return ExperimentConfig(**_read_keys(_CONFIG_KEYS, raw))


def _read_keys(table: _Keys, spec: Mapping[str, Any]) -> dict[str, Any]:
    """Each of ``table``'s keys: ``spec``'s value, checked, or the default."""
    return {
        key: _coerce(key, spec[key], convert) if key in spec else default
        for key, (default, convert) in table.items()
    }


# Each model kind's keys besides "kind", as (default, checked converter): the
# one place a model spec is read. A default of None stands for the config's
# kernel (the synthetic kinds) or the coal-mining record (cox).
_SYNTHETIC_KEYS = {"n": (200, _COUNT), "dims": (1, _COUNT), "kernel": (None, _kernel)}
_MODEL_KEYS: dict[str, _Keys] = {
    "regression": {
        **_SYNTHETIC_KEYS, "noise_std": (0.3, lambda x: checked_noise_std(_real(x))),
    },
    "classification": {
        **_SYNTHETIC_KEYS, "link": ("logistic", checked_link),
    },
    "cox": {
        "events_file": (None, _PATH),
        "bin_width": (COX_BIN_WIDTH, _POSITIVE),
        "kernel": (COX_KERNEL, _kernel),
    },
}


def _model_spec(model_cfg: Mapping[str, Any]) -> tuple[str, dict[str, Any]]:
    """A model spec's kind and each of its kind's keys, checked or defaulted.
    A key the spec's kind does not have is an error."""
    kind = model_cfg.get("kind")
    if kind not in tuple(_MODEL_KEYS):  # a tuple, as a JSON list kind is unhashable
        raise InvalidConfig(f"unknown model kind {kind!r}; expected one of {tuple(_MODEL_KEYS)}")
    unknown = set(model_cfg) - set(_MODEL_KEYS[kind]) - {"kind"}
    if unknown:
        raise InvalidConfig(f"unknown {kind} model keys: {sorted(unknown)}")
    return kind, _read_keys(_MODEL_KEYS[kind], model_cfg)


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse a JSON config file."""
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:  # not JSON, or not text at all
            raise InvalidConfig(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise InvalidConfig(f"config {path} must be a JSON object")
    return parse_config(raw)


# ---------------------------------------------------------------------------
# datasets


@dataclass(frozen=True)
class Dataset:
    """In-memory dataset: inputs, likelihood model and kernel."""

    inputs: np.ndarray
    data: Any
    kernel: KernelConfig
    files: Mapping[str, np.ndarray]  # the arrays it is written as, by their names in _FILES


def build_dataset(model_cfg: Mapping[str, Any], kernel: KernelConfig, rng: np.random.Generator) -> Dataset:
    """Generate (or load and bin) the dataset a model spec describes.

    Regression and classification are synthesized from the prior;
    ``cox`` bins event times, either from ``events_file`` or the packaged
    coal-mining record.
    """
    kind, spec = _model_spec(model_cfg)
    kern = spec["kernel"] or kernel
    if kind == "cox":
        source = spec["events_file"]
        arrays = (mining_event_times() if source is None
                  else _coerce("events_file", source, read_event_times),)
    elif kind == "regression":
        inputs, data, latents = generate_regression_dataset(
            spec["n"], spec["dims"], kern, spec["noise_std"], rng
        )
        arrays = (inputs, data.y, latents)
    else:
        inputs, data, latents = generate_classification_dataset(
            spec["n"], spec["dims"], kern, rng, link=spec["link"]
        )
        arrays = (inputs, data.labels, latents)
    return _dataset(kind, spec, kern, dict(zip(_FILES[kind], arrays)))


def _dataset(kind: str, spec: Mapping[str, Any], kernel: KernelConfig,
             files: Mapping[str, np.ndarray]) -> Dataset:
    """The likelihood a model spec describes over a dataset's ``files``. Cox
    events are binned into counts, and the bin centers are the 1-D inputs."""
    arrays = [files[name] for name in _FILES[kind]]
    if kind == "cox":
        try:
            data = bin_events(*arrays, spec["bin_width"])
        except ValueError as exc:  # events and width are checked, so the bin index overflowed
            raise InvalidConfig(f"bad value for 'bin_width': {exc}") from None
        centers = (np.arange(data.n) + 0.5) * spec["bin_width"]
        return Dataset(centers.reshape(-1, 1), data, kernel, files)
    inputs, obs, _ = arrays  # the true latents are only written
    if kind == "regression":
        data = RegressionData(y=obs, noise_variance=spec["noise_std"] ** 2)
    else:  # labels read back from a file may be other than -1/+1: a ValueError
        data = ClassificationData(labels=obs, link=spec["link"])
    return Dataset(inputs, data, kernel, files)


def _write_csv(path: str | Path, comment: str, lines: list[str]) -> None:
    """``lines`` under a ``#`` comment line, the one writer of every CSV."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(f"# {comment}\n" + "\n".join(lines) + "\n")


def _write_matrix(path: Path, arr: np.ndarray, comment: str) -> None:
    """One row per entry of ``arr``'s first axis: a vector is one column."""
    arr = np.asarray(arr, dtype=float)
    rows = arr.reshape(len(arr), -1)
    _write_csv(path, comment, [",".join(repr(float(v)) for v in row) for row in rows])


def _read_rows(
    path: str | Path,
    convert: Callable[[list[str]], Any],
    header: str | None = None,
) -> list[Any]:
    """``convert`` applied to the comma-split fields of each data row of a
    CSV, trace or events file.

    Blank lines, ``#`` comments and a ``header`` line are skipped. Every row
    must have as many fields as the first; a row that does not, or that
    ``convert`` rejects, raises InvalidConfig naming the file and line, as
    does a file that is not text or has no rows.
    """
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise InvalidConfig(f"{path} cannot be decoded as text ({exc})") from None
    rows, width = [], None
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#") or line == header:
            continue
        fields = line.split(",")
        width = width or len(fields)
        try:
            if len(fields) != width:
                raise ValueError(f"{len(fields)} fields, expected {width}")
            rows.append(convert(fields))
        except ValueError as exc:
            raise InvalidConfig(f"{path}:{line_no}: bad row {line!r} ({exc})") from None
    if not rows:
        raise InvalidConfig(f"{path} contains no data rows")
    return rows


def read_event_times(path: str | Path) -> np.ndarray:
    """Event times (days since the first event) from an events file, one per
    row, read like any CSV."""
    return np.asarray(_read_rows(path, _event_time))


def _event_time(fields: list[str]) -> float:
    (text,) = fields  # another width raises ValueError
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise ValueError("an event time must be finite and >= 0")
    return value


def _read_matrix(path: Path) -> np.ndarray:
    arr = np.asarray(_read_rows(path, lambda fields: [float(t) for t in fields]))
    if not np.all(np.isfinite(arr)):
        raise InvalidConfig(f"{path} contains non-finite values")
    return arr


def _read_vector(path: Path) -> np.ndarray:
    return _read_matrix(path).ravel()


# Each model kind's dataset files with their readers, the one list of dataset
# file names: generate writes a Dataset's files, load_dataset reads them back.
_SYNTHETIC = {
    "inputs.csv": _read_matrix, "observations.csv": _read_vector, "latents.csv": _read_vector
}
_FILES: dict[str, dict[str, Callable[[Path], np.ndarray]]] = {
    "regression": _SYNTHETIC, "classification": _SYNTHETIC, "cox": {"events.txt": read_event_times},
}


def _stamp(cfg: ExperimentConfig) -> dict[str, Any]:
    """The keys every output carries to trace it back to its config."""
    return {"config_hash": config_hash(cfg), "seed": cfg.seed}


def _write_json(path: Path, cfg: ExperimentConfig, payload: Mapping[str, Any]) -> dict[str, Any]:
    """Write ``payload`` with ``cfg``'s stamp added; returns the stamped payload."""
    stamped = {**payload, **_stamp(cfg)}
    # strict JSON has no NaN or infinity: a group where no chain finished has null statistics
    strict = json.loads(json.dumps(stamped), parse_constant=lambda _: None)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(strict, sort_keys=True, indent=2) + "\n")
    return stamped


def _provenance(cfg: ExperimentConfig) -> str:
    return " ".join(f"{key}={value}" for key, value in _stamp(cfg).items())


def cli_generate(cfg: ExperimentConfig, out_dir: str | Path) -> list[Path]:
    """Write dataset directories described by the config's model section.

    ``dims`` may be a list of distinct dimensions, in which case one
    subdirectory per dimension is produced (``d01``, ``d02``, ...);
    otherwise files go straight into ``out_dir``. Returns the directories
    written.
    """
    if cfg.model is None:
        raise InvalidConfig("generate requires a 'model' section")
    dims = cfg.model.get("dims", 1)
    if isinstance(dims, (list, tuple)):
        dims = [_coerce("dims", d, _COUNT) for d in dims]
        if not dims:
            raise InvalidConfig("bad value for 'dims': the list is empty")
        if len(set(dims)) < len(dims):
            raise InvalidConfig(f"bad value for 'dims': {dims!r} repeats a dimension")
        variants = [dict(cfg.model, dims=d) for d in dims]
        dirs = [Path(out_dir) / f"d{d:02d}" for d in dims]
    else:
        variants = [dict(cfg.model)]
        dirs = [Path(out_dir)]
    written = []
    for idx, (model_cfg, target) in enumerate(zip(variants, dirs)):
        rng = chain_rng(cfg.seed, _STREAM_DATASET, idx)
        ds = build_dataset(model_cfg, cfg.kernel, rng)
        for name, arr in ds.files.items():
            _write_matrix(target / name, arr, _provenance(cfg))
        _write_json(target / "manifest.json", cfg, {
            "model": model_cfg,
            "kernel": dataclasses.asdict(ds.kernel),
            "n": ds.data.n,
            "files": list(ds.files),
        })
        written.append(target)
    return written


def load_dataset(dataset_dir: str | Path) -> Dataset:
    """Rebuild a Dataset from a directory written by :func:`cli_generate`.

    The manifest is self-describing: model kind, parameters and kernel all
    come from it, so a run only adds sampler and chain settings. Its
    ``files`` must name the files of its model kind and its ``n`` the number
    of data points built from them (for cox, the number of bins).
    """
    dataset_dir = Path(dataset_dir)
    manifest_path = dataset_dir / "manifest.json"
    if not manifest_path.exists():
        raise InvalidConfig(f"{dataset_dir} has no manifest.json")
    try:
        manifest = json.loads(manifest_path.read_text())
        model_cfg = dict(manifest["model"])
        kernel = KernelConfig(**manifest["kernel"])
        kind, spec = _model_spec(model_cfg)
        claimed = {"files": manifest["files"], "n": manifest["n"]}
    except (ValueError, TypeError, KeyError, InvalidConfig) as exc:
        raise InvalidConfig(f"{manifest_path} is not a dataset manifest: {exc!r}") from None
    files = {name: read(dataset_dir / name) for name, read in _FILES[kind].items()}
    lengths = {dataset_dir / name: len(arr) for name, arr in files.items()}
    if len(set(lengths.values())) > 1:
        raise InvalidConfig("a dataset's files must have one row per data point: "
                            + ", ".join(f"{path} has {n}" for path, n in lengths.items()))
    try:
        dataset = _dataset(kind, spec, kernel, files)
    except (ValueError, InvalidConfig) as exc:
        raise InvalidConfig(f"{dataset_dir}: {exc}") from None
    for key, actual in (("files", list(files)), ("n", dataset.data.n)):
        if claimed[key] != actual:
            raise InvalidConfig(f"{manifest_path}: bad value for '{key}': "
                                f"{claimed[key]!r}, but the dataset has {actual!r}")
    return dataset


# ---------------------------------------------------------------------------
# runs


def build_prior(dataset: Dataset) -> GaussianPrior:
    return factorize(squared_exponential(dataset.inputs, dataset.kernel))


_TRACE_HEADER = "iteration,log_likelihood,cumulative_likelihood_evals,accepted"


def write_trace_csv(path: str | Path, trace: ChainTrace, comment: str) -> None:
    rows = zip(trace.log_lik.tolist(), trace.lik_evals_cum.tolist(), trace.accepted.tolist())
    lines = [_TRACE_HEADER] + [
        f"{i},{float(ll)!r},{int(ev)},{int(acc)}" for i, (ll, ev, acc) in enumerate(rows)
    ]
    _write_csv(path, comment, lines)


def read_trace_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(log_likelihood, cumulative_likelihood_evals, accepted) columns.

    A row is rejected, naming the file and line, unless data row k (from 0)
    has iteration k, as :func:`write_trace_csv` writes it, its log-likelihood
    is finite, ``accepted`` is 0 or 1, and its count is at least the previous
    row's (0 for the first), as a :class:`ChainTrace` requires.
    """
    last_evals, next_iteration = 0, 0

    def row(fields: list[str]) -> tuple[float, int, bool]:
        nonlocal last_evals, next_iteration
        it, ll, ev, acc = fields  # another width raises ValueError
        iteration, log_lik, evals, accepted = int(it), float(ll), int(ev), int(acc)
        if iteration != next_iteration:
            raise ValueError(f"iteration {iteration}, expected {next_iteration}")
        if not math.isfinite(log_lik):
            raise ValueError("log-likelihood is not finite")
        if evals < last_evals:
            raise ValueError(f"cumulative count below the previous row's {last_evals}")
        if accepted not in (0, 1):
            raise ValueError("accepted must be 0 or 1")
        last_evals, next_iteration = evals, iteration + 1
        return log_lik, evals, accepted == 1

    log_lik, evals, accepted = zip(*_read_rows(path, row, header=_TRACE_HEADER))
    return np.asarray(log_lik), np.asarray(evals), np.asarray(accepted)


def _step_fn(sampler_cfg: Mapping[str, Any]) -> StepFn:
    """The step function a sampler spec (``kind`` plus parameters) describes."""
    params = {k: v for k, v in sampler_cfg.items() if k != "kind"}
    return make_operator(sampler_cfg.get("kind", _DEFAULT_SAMPLER), **params)


@dataclass(frozen=True)
class _Group:
    """One group of a command's plan: a chain of ``step_fn`` from f = 0 per
    entry of ``outs``, repeat r on stream ``(*stream, r)``."""

    dataset: Dataset
    prior: GaussianPrior
    step_fn: StepFn
    stream: tuple[int, ...]
    outs: tuple[Path | None, ...]  # each repeat's directory, or None to write nothing


def _run_plan(
    cfg: ExperimentConfig, plan: list[_Group]
) -> list[tuple[list[EssReport], list[dict[str, Any]]]]:
    """Every chain of every group; a finished chain writes its ``trace.csv``
    and ``summary.json`` to its directory, if it has one.

    Returns, per group in plan order, the report of each chain that finished
    and a failure entry of each that raised: its repeat, the ``ChainError``
    iteration (None if only the summary failed), the wrapped error's type
    (``ChainError.cause_type``, which survives pickling) and the message.
    """
    results = []
    for group in plan:
        reports, failures = [], []
        for rep, out in enumerate(group.outs):
            try:
                trace = run_chain(np.zeros(group.dataset.data.n), group.step_fn, group.prior,
                                  group.dataset.data, n_burn=cfg.n_burn, n_keep=cfg.n_keep,
                                  rng=chain_rng(cfg.seed, *group.stream, rep))
                report = summarize(trace)
            except EllsliceError as exc:
                failures.append({"repeat": rep, "iteration": getattr(exc, "iteration", None),
                                 "type": getattr(exc, "cause_type", None) or type(exc).__name__,
                                 "error": str(exc)})
                continue
            reports.append(report)
            if out is not None:
                write_trace_csv(out / "trace.csv", trace, _provenance(cfg))
                _write_json(out / "summary.json", cfg, {
                    **dataclasses.asdict(report), "prior_backend": group.prior.backend,
                    "prior_rank": group.prior.rank, "prior_jitter": float(group.prior.jitter),
                })
        results.append((reports, failures))
    return results


def _group_stat(
    reports: list[EssReport], field: str, stat: Callable[[list[float]], Any] = np.mean
) -> float:
    """``stat`` of ``field`` over a group's finished chains; NaN when none finished."""
    values = [getattr(report, field) for report in reports]
    return float(stat(values)) if values else math.nan


# Each statistic of a benchmark cell as (EssReport field, reduction over the
# cell's finished chains), in the order of the benchmark_summary.csv columns
_CELL_STATS = {
    "ess_mean": ("ess", np.mean),
    "ess_std": ("ess", np.std),
    "seconds_mean": ("seconds", np.mean),
    "lik_evals_mean": ("total_lik_evals", np.mean),
    "prior_evals_mean": ("total_prior_evals", np.mean),
}


def cli_run(
    cfg: ExperimentConfig, dataset_dir: str | Path, out_dir: str | Path
) -> EssReport:
    """Single chain on an existing dataset; writes trace, summary, manifest."""
    if cfg.sampler is None:
        raise InvalidConfig("run requires a 'sampler' section")
    step_fn = _step_fn(cfg.sampler)
    dataset = load_dataset(dataset_dir)
    out = Path(out_dir)
    ((reports, failures),) = _run_plan(
        cfg, [_Group(dataset, build_prior(dataset), step_fn, (_STREAM_RUN,), (out,))])
    if failures:
        raise EllsliceError(failures[0]["error"])
    _write_json(out / "manifest.json", cfg, {"config": cfg.as_dict(), "dataset": str(dataset_dir)})
    return reports[0]


def cli_tune_mh(
    cfg: ExperimentConfig,
    dataset_dir: str | Path,
    out_dir: str | Path | None = None,
) -> tuple[float, list[dict[str, Any]]]:
    """Grid-search the M-H step size, maximizing mean ESS over repeats.

    Each grid value gets ``cfg.repeats`` chains; ties break toward the larger
    step size. A value with a failed chain is never chosen, and a grid where
    every value has one is an error. Returns (best epsilon, per-epsilon results).
    """
    grid = sorted(cfg.tune_grid)
    if not grid:
        raise InvalidConfig("tune-mh requires a non-empty 'tune_grid'")
    dataset = load_dataset(dataset_dir)
    prior = build_prior(dataset)
    plan = [_Group(dataset, prior, _step_fn({"kind": "neal-mh", "epsilon": eps}),
                   (_STREAM_TUNE, gi), (None,) * cfg.repeats) for gi, eps in enumerate(grid)]
    results = [{"epsilon": eps, "ess_mean": _group_stat(reports, "ess"),
                "ess": [report.ess for report in reports], "failures": failures}
               for eps, (reports, failures) in zip(grid, _run_plan(cfg, plan))]
    ranked = [row for row in results if not row["failures"]]
    if not ranked:
        raise EllsliceError(f"every tune_grid value has a failed chain, the first: "
                            f"{results[0]['failures'][0]['error']}")
    best_eps = max(ranked, key=lambda row: (row["ess_mean"], row["epsilon"]))["epsilon"]
    if out_dir is not None:
        _write_json(Path(out_dir) / "tuning.json", cfg,
                    {"best_epsilon": best_eps, "results": results})
    return best_eps, results


# ---------------------------------------------------------------------------
# benchmark matrix


def _model_tag(model_cfg: Mapping[str, Any]) -> str:
    kind, spec = _model_spec(model_cfg)
    return f"{kind}-d{spec['dims']}" if "dims" in spec else kind


def _sampler_tag(sampler_cfg: Mapping[str, Any]) -> str:
    kind = sampler_cfg.get("kind", _DEFAULT_SAMPLER)
    if kind == "neal-mh" and "epsilon" in sampler_cfg:
        return f"{kind}-eps{sampler_cfg['epsilon']:g}"
    return str(kind)


def cli_benchmark(cfg: ExperimentConfig, out_dir: str | Path) -> dict[str, Any]:
    """Full samplers x models cross-product, ``repeats`` chains per cell.

    One directory per cell; per-repeat traces and summaries inside. A repeat
    that raises is recorded in the cell's ``failures`` list and the matrix
    keeps going; a bad sampler spec is an error before anything is built or
    written. Datasets are built once per model (stream keyed by model index)
    and shared by every sampler, so cells are comparable.
    """
    if not cfg.samplers or not cfg.models:
        raise InvalidConfig("benchmark requires non-empty 'samplers' and 'models'")
    step_fns = [_step_fn(sampler_cfg) for sampler_cfg in cfg.samplers]
    datasets = []
    for mi, model_cfg in enumerate(cfg.models):
        ds = build_dataset(model_cfg, cfg.kernel, chain_rng(cfg.seed, _STREAM_DATASET, mi))
        datasets.append((ds, build_prior(ds)))
    out = Path(out_dir)
    plan, cells = [], []
    for si, sampler_cfg in enumerate(cfg.samplers):
        for mi, model_cfg in enumerate(cfg.models):
            cell_index = si * len(cfg.models) + mi
            tag = f"cell{cell_index:02d}_{_sampler_tag(sampler_cfg)}_{_model_tag(model_cfg)}"
            plan.append(_Group(*datasets[mi], step_fns[si], (_STREAM_BENCH, cell_index),
                               tuple(out / tag / f"repeat{rep:02d}" for rep in range(cfg.repeats))))
            cells.append({"cell": tag, "sampler": dict(sampler_cfg), "model": dict(model_cfg)})
    for cell, (reports, failures) in zip(cells, _run_plan(cfg, plan)):
        stats = {name: _group_stat(reports, *how) for name, how in _CELL_STATS.items()}
        cell.update(repeats_completed=len(reports), **stats, failures=failures)
        _write_json(out / cell["cell"] / "cell_summary.json", cfg, cell)
    summary = _write_json(out / "benchmark_summary.json", cfg, {
        "n_burn": cfg.n_burn, "n_keep": cfg.n_keep, "repeats": cfg.repeats, "cells": cells,
    })
    _write_csv(out / "benchmark_summary.csv", _provenance(cfg), [
        ",".join(["cell", *_CELL_STATS, "failures"])
    ] + [
        ",".join([c["cell"], *(repr(c[name]) for name in _CELL_STATS), str(len(c["failures"]))])
        for c in cells
    ])
    return summary


def cli_diagnose(trace_path: str | Path) -> EssReport:
    """ESS report recomputed from a trace CSV.

    Wall time and prior-evaluation totals are not stored in trace CSVs, so
    those fields are zero here; everything else matches the original
    summary.
    """
    log_lik, evals, _ = read_trace_csv(trace_path)
    if log_lik.size < MIN_SERIES_LENGTH:
        raise InvalidConfig(
            f"{trace_path} has {log_lik.size} rows; ESS needs at least {MIN_SERIES_LENGTH}"
        )
    report = effective_sample_size(log_lik)
    return dataclasses.replace(report, total_lik_evals=int(evals[-1]))

"""Experiment harness: configs, dataset files, runs, tuning, benchmark matrix."""

import dataclasses
import json
import math
import pickle
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from ellslice import (
    ChainError,
    EssReport,
    InvalidConfig,
    KernelConfig,
    NonFiniteLikelihood,
    chain_rng,
    cli,
    harness,
    samplers,
)
from ellslice.diagnostics import MIN_SERIES_LENGTH
from ellslice.harness import (
    ExperimentConfig,
    build_dataset,
    build_prior,
    cli_benchmark,
    cli_diagnose,
    cli_generate,
    cli_run,
    cli_tune_mh,
    config_hash,
    load_config,
    load_dataset,
    parse_config,
    read_event_times,
    read_trace_csv,
    write_trace_csv,
)


# Corruptions of a generated dataset or run file, for
# TestCliMain.test_malformed_input_file_exits_2.
def _edit_manifest(change):
    def corrupt(path):
        manifest = json.loads(path.read_text())
        change(manifest)
        path.write_text(json.dumps(manifest))
    return corrupt


def _append(text):
    return lambda path: path.write_text(path.read_text() + text)


def _keep_rows(k):
    """Keep the comment and header lines and the first ``k`` data rows."""
    def corrupt(path):
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:2 + k]))
    return corrupt


def _set_iterations(values):
    """Rewrite the iteration field of data rows: ``values`` maps a row (from
    0) to the text it gets."""
    def corrupt(path):
        lines = path.read_text().splitlines(keepends=True)
        for k, value in values.items():
            lines[2 + k] = value + lines[2 + k][lines[2 + k].index(","):]
        path.write_text("".join(lines))
    return corrupt


def _drop_last_line(path):
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))


def _keep_columns(k):
    def corrupt(path):
        lines = path.read_text().splitlines()
        path.write_text("\n".join(",".join(line.split(",")[:k]) for line in lines) + "\n")
    return corrupt


def _set_model(**fields):
    def corrupt(dataset_dir):
        _edit_manifest(lambda m: m["model"].update(fields))(dataset_dir / "manifest.json")
    return corrupt


def _set_kind(kind):
    return _set_model(kind=kind)


def _labels_with(bad):
    """Classification dataset whose labels are +1 except one ``bad`` value."""
    def corrupt(dataset_dir):
        _set_kind("classification")(dataset_dir)
        path = dataset_dir / "observations.csv"
        rows = [line for line in path.read_text().splitlines()
                if line.strip() and not line.startswith("#")]
        path.write_text("\n".join([repr(bad)] + ["1.0"] * (len(rows) - 1)) + "\n")
    return corrupt


def _append_bytes(data):
    return lambda path: path.write_bytes(path.read_bytes() + data)


_NOT_UTF8 = b"\xff\xfe\n"


def _cox_with_events(text):
    def corrupt(path):
        path.write_text(text)
        # a cox spec has no 'n' or 'dims': replace the regression spec whole
        _edit_manifest(lambda m: m.update(model={"kind": "cox"}))(path.parent / "manifest.json")
    return corrupt


def _empty_file(directory):
    path = directory / "empty.txt"
    path.write_text("")
    return str(path)


def _events_file(directory, text):
    path = directory / "events.txt"
    path.write_text(text)
    return str(path)


def small_regression_cfg(seed=3, **extra):
    raw = {
        "seed": seed,
        "n_burn": 10,
        "n_keep": 60,
        "model": {"kind": "regression", "n": 15, "dims": 1},
        "sampler": {"kind": "elliptical"},
    }
    raw.update(extra)
    return parse_config(raw)


def _strict_json(path):
    """``path`` parsed as RFC 8259 JSON, which has no NaN or Infinity."""
    def reject(constant):
        raise ValueError(f"{path} holds {constant}, which is not JSON")
    return json.loads(Path(path).read_text(), parse_constant=reject)


class TestConfig:
    def test_defaults(self):
        cfg = parse_config({"seed": 5})
        assert cfg.n_burn == 1_000
        assert cfg.n_keep == 10_000
        assert cfg.repeats == 1
        assert cfg.kernel == KernelConfig()

    def test_seed_required(self):
        with pytest.raises(InvalidConfig):
            parse_config({"n_keep": 100})

    def test_unknown_keys_rejected(self):
        with pytest.raises(InvalidConfig, match="unknown config keys"):
            parse_config({"seed": 1, "nkeep": 100})
        with pytest.raises(InvalidConfig, match="unknown config keys"):
            parse_config({"seed": 1, "thin": 1})

    def test_bad_values_rejected(self):
        with pytest.raises(InvalidConfig):
            parse_config({"seed": 1, "n_keep": 0})
        with pytest.raises(InvalidConfig, match="n_keep"):
            parse_config({"seed": 1, "n_keep": MIN_SERIES_LENGTH - 1})
        assert parse_config({"seed": 1, "n_keep": MIN_SERIES_LENGTH}).n_keep == MIN_SERIES_LENGTH
        with pytest.raises(InvalidConfig):
            parse_config({"seed": 1, "repeats": 0})
        with pytest.raises(InvalidConfig):
            parse_config({"seed": "tomorrow"})
        # values that do not convert are errors naming their key
        for key, bad in [("n_burn", "abc"), ("n_keep", None), ("repeats", [2]),
                         ("tune_grid", ["wide"]), ("kernel", {"length": 1.0}),
                         ("kernel", {"lengthscale": "long"}), ("kernel", 2.0),
                         # a lengthscale whose square underflows or overflows
                         ("kernel", {"lengthscale": 1e-200}), ("kernel", {"lengthscale": 1e200}),
                         ("seed", -1), ("seed", True),
                         # counts that are not integers are errors, not truncated
                         ("n_keep", 20.7), ("repeats", 2.9), ("n_burn", True),
                         ("n_burn", 2.5), ("seed", 7.5), ("n_keep", float("inf")),
                         # a bool is not a real number
                         ("tune_grid", [True]), ("kernel", {"lengthscale": True}),
                         ("kernel", {"signal_variance": True}),
                         # a grid that is not a list is not read item by item
                         ("tune_grid", "1"), ("tune_grid", {"0.5": 0}),
                         # a number spelt as a string is an error, not parsed
                         ("seed", "7"), ("n_burn", "5"), ("n_keep", " 20 "), ("repeats", "2"),
                         ("tune_grid", ["0.1", "0.3"]),
                         # an integer too large for a float
                         ("tune_grid", [10**400])]:
            with pytest.raises(InvalidConfig, match=key):
                parse_config({"seed": 1, key: bad})

    def test_kernel_section(self):
        cfg = parse_config({"seed": 1, "kernel": {"lengthscale": 2.0}})
        assert cfg.kernel == KernelConfig(lengthscale=2.0)

    def test_hash_ignores_key_order(self):
        a = parse_config({"seed": 9, "n_keep": 20})
        b = parse_config({"n_keep": 20, "seed": 9})
        assert config_hash(a) == config_hash(b)

    def test_hash_sensitive_to_content(self):
        a = parse_config({"seed": 9})
        b = parse_config({"seed": 10})
        assert config_hash(a) != config_hash(b)

    def test_readme_example_is_valid(self):
        """The README's complete example keeps its config hash, and every
        model entry in it builds."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        example = readme.split("A complete example covering every recognized key:")[1]
        cfg = parse_config(json.loads(example.split("```json")[1].split("```")[0]))
        assert config_hash(cfg) == "641136259adb0a5ae4bb19707f4ca53838d78ea653f17dd3aa2442bd1f27b21d"
        for mi, model in enumerate((cfg.model, *cfg.models)):
            build_dataset(model, cfg.kernel, chain_rng(cfg.seed, 0, mi))

    def test_load_config_rejects_bad_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(InvalidConfig):
            load_config(path)
        path.write_text("[1, 2, 3]")
        with pytest.raises(InvalidConfig):
            load_config(path)
        path.write_bytes(b'{"seed": 1' + _NOT_UTF8 + b"}")
        with pytest.raises(InvalidConfig):
            load_config(path)


def _readme_model_defaults() -> dict[str, dict[str, str]]:
    """The README's list of model kinds: each kind's keys, with the words
    stating each default, up to the first comma, semicolon or parenthesis."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("Model kinds and the keys each accepts")[1].split("\n\n")[1]
    return {
        re.match(r"`(\w+)`:", bullet).group(1): {
            key: " ".join(words.split()) for key, words in re.findall(r"`(\w+)` \(([^,;)]*)", bullet)
        }
        for bullet in re.split(r"^\* ", section, flags=re.MULTILINE)[1:]
    }


# the README's words for each default of None, which stands for the config's
# kernel or the packaged record
_README_NONE = {"kernel": "the config's `kernel`", "events_file": "the packaged coal-mining record"}


class TestBuildDataset:
    @pytest.mark.parametrize("kind", sorted(harness._MODEL_KEYS))
    def test_readme_states_each_model_default(self, kind):
        """The README names each key of each model kind and states its
        default: a number or a string as itself, a kernel by its lengthscale
        and None as what it stands for."""
        stated = _readme_model_defaults()[kind]
        assert set(stated) == set(harness._MODEL_KEYS[kind])
        for key, (default, _) in harness._MODEL_KEYS[kind].items():
            first = stated[key].split()[0].strip("`")
            if default is None:
                assert stated[key] == _README_NONE[key]
            elif isinstance(default, KernelConfig):
                assert stated[key] == f"lengthscale {default.lengthscale:g} days"
            elif isinstance(default, str):
                assert first == default, key
            else:
                assert float(first) == default, key

    def test_regression_shapes(self):
        ds = build_dataset(
            {"kind": "regression", "n": 30, "dims": 2}, KernelConfig(), chain_rng(0)
        )
        assert ds.inputs.shape == (30, 2)
        assert ds.data.y.shape == (30,)
        assert ds.files["latents.csv"].shape == (30,)

    def test_classification_labels(self):
        ds = build_dataset(
            {"kind": "classification", "n": 25, "dims": 1}, KernelConfig(), chain_rng(1)
        )
        assert set(np.unique(ds.data.labels)) <= {-1, 1}

    def test_cox_uses_packaged_record(self):
        ds = build_dataset({"kind": "cox"}, KernelConfig(), chain_rng(2))
        assert ds.data.n == 811
        assert int(ds.data.counts.sum()) == 191
        assert ds.inputs.shape == (811, 1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidConfig):
            build_dataset({"kind": "survival"}, KernelConfig(), chain_rng(3))

    @pytest.mark.parametrize("key, spec", [
        ("n", {"kind": "regression", "n": 0}),
        ("dims", {"kind": "regression", "n": 5, "dims": 0}),
        ("noise_std", {"kind": "regression", "n": 5, "noise_std": -1}),
        ("noise_std", {"kind": "regression", "n": 5, "noise_std": float("nan")}),
        ("n", {"kind": "classification", "n": -3}),
        ("bin_width", {"kind": "cox", "bin_width": -5}),
        ("bin_width", {"kind": "cox", "bin_width": float("inf")}),
        ("link", {"kind": "classification", "n": 5, "link": "cauchy"}),
        ("events_file", {"kind": "cox", "events_file": 5}),
        ("n", {"kind": "regression", "n": 20.7}),
        ("dims", {"kind": "regression", "n": 5, "dims": True}),
        ("n", {"kind": "classification", "n": 2.5}),
        ("noise_std", {"kind": "regression", "n": 5, "noise_std": 1e200}),
        ("bin_width", {"kind": "cox", "bin_width": 1e-300}),  # an index past int64
        ("noise_std", {"kind": "regression", "n": 5, "noise_std": True}),
        ("bin_width", {"kind": "cox", "bin_width": True}),
        ("n", {"kind": "regression", "n": "50"}),
        ("noise_std", {"kind": "regression", "n": 5, "noise_std": "0.3"}),
        ("bin_width", {"kind": "cox", "bin_width": "25"}),
        ("noise_std", {"kind": "regression", "n": 5, "noise_std": 0}),
    ])
    def test_out_of_range_value_names_its_key(self, key, spec):
        with pytest.raises(InvalidConfig, match=f"'{key}'"):
            build_dataset(spec, KernelConfig(), chain_rng(4))

    @pytest.mark.parametrize("key, spec", [
        ("nosie_std", {"kind": "regression", "n": 5, "nosie_std": 0.01}),
        ("bin_width", {"kind": "regression", "n": 5, "bin_width": 10.0}),
        ("noise_std", {"kind": "cox", "noise_std": 0.1}),
    ])
    def test_key_its_kind_lacks_is_named(self, key, spec):
        with pytest.raises(InvalidConfig, match=f"unknown .* model keys.*'{key}'"):
            build_dataset(spec, KernelConfig(), chain_rng(4))

    def test_empty_events_file_names_its_key(self, tmp_path):
        spec = {"kind": "cox", "events_file": _empty_file(tmp_path)}
        with pytest.raises(InvalidConfig, match="'events_file'.*contains no data rows"):
            build_dataset(spec, KernelConfig(), chain_rng(5))

    def test_events_file_skips_comments_and_blank_lines(self, tmp_path):
        datasets = []
        for text in ("0.0\n120.0\n130.5\n", "# three events\n0.0\n\n120.0\n# end\n130.5\n\n"):
            spec = {"kind": "cox", "events_file": _events_file(tmp_path, text)}
            datasets.append(build_dataset(spec, KernelConfig(), chain_rng(5)))
        bare, commented = datasets
        np.testing.assert_array_equal(commented.data.counts, bare.data.counts)
        assert commented.data.offset == bare.data.offset


class TestGenerateAndLoad:
    def test_regression_round_trip(self, tmp_path):
        probit = {"kind": "classification", "n": 15, "dims": 1, "link": "probit"}
        for name, cfg in (("reg", small_regression_cfg()),
                          ("cls", small_regression_cfg(model=probit))):
            (written,) = cli_generate(cfg, tmp_path / name)
            ds = load_dataset(written)
            fresh = build_dataset(cfg.model, cfg.kernel, chain_rng(cfg.seed, 0, 0))
            assert np.array_equal(ds.inputs, fresh.inputs)
            assert np.array_equal(ds.files["latents.csv"], fresh.files["latents.csv"])
            if name == "reg":
                assert np.array_equal(ds.data.y, fresh.data.y)
            else:
                assert np.array_equal(ds.data.labels, fresh.data.labels)
                assert ds.data.link == fresh.data.link == "probit"

    def test_manifest_embeds_hash_and_seed(self, tmp_path):
        cfg = small_regression_cfg(seed=7)
        (written,) = cli_generate(cfg, tmp_path / "ds")
        manifest = json.loads((written / "manifest.json").read_text())
        assert manifest["config_hash"] == config_hash(cfg)
        assert manifest["seed"] == 7

    def test_cox_round_trip(self, tmp_path):
        for model, n in (({"kind": "cox"}, 811), ({"kind": "cox", "bin_width": 100.0}, 406)):
            cfg = parse_config({"seed": 4, "model": model})
            (written,) = cli_generate(cfg, tmp_path / f"cox{n}")
            assert (written / "events.txt").exists()
            manifest = json.loads((written / "manifest.json").read_text())
            assert "bin_width" not in manifest  # only the model section carries it
            ds = load_dataset(written)
            assert ds.data.n == n
            assert int(ds.data.counts.sum()) == 191
            assert ds.kernel.lengthscale == 13516.0
            fresh = build_dataset(cfg.model, cfg.kernel, chain_rng(cfg.seed, 0, 0))
            assert np.array_equal(ds.data.counts, fresh.data.counts)
            assert np.array_equal(ds.inputs, fresh.inputs)

    def test_generated_events_file_feeds_another_spec(self, tmp_path):
        cfg = parse_config({"seed": 4, "model": {"kind": "cox", "bin_width": 100.0}})
        (written,) = cli_generate(cfg, tmp_path / "cox")
        events = written / "events.txt"
        assert events.read_text().startswith(f"# config_hash={config_hash(cfg)} seed=4\n")
        spec = {"kind": "cox", "bin_width": 100.0, "events_file": str(events)}
        ds = build_dataset(spec, KernelConfig(), chain_rng(0))
        fresh = build_dataset(cfg.model, cfg.kernel, chain_rng(0))
        np.testing.assert_array_equal(ds.data.counts, fresh.data.counts)
        assert ds.data.offset == fresh.data.offset

    def test_events_file_is_read_once(self, tmp_path, monkeypatch):
        calls = []

        def counting(path):
            calls.append(path)
            return read_event_times(path)

        monkeypatch.setattr(harness, "read_event_times", counting)
        source = _events_file(tmp_path, "0.0\n120.0\n130.5\n")
        cfg = parse_config({"seed": 4, "model": {"kind": "cox", "events_file": source}})
        (written,) = cli_generate(cfg, tmp_path / "cox")
        assert calls == [source]
        np.testing.assert_array_equal(load_dataset(written).data.counts, [1, 0, 2])

    @pytest.mark.parametrize("model", [
        {"kind": "regression", "n": 6}, {"kind": "classification", "n": 6}, {"kind": "cox"},
    ])
    def test_dataset_directory_holds_its_kinds_files(self, tmp_path, model):
        (written,) = cli_generate(parse_config({"seed": 4, "model": model}), tmp_path / "ds")
        files = list(harness._FILES[model["kind"]])
        assert sorted(p.name for p in written.iterdir()) == sorted(["manifest.json", *files])
        assert json.loads((written / "manifest.json").read_text())["files"] == files

    def test_single_point_keeps_its_input_row(self, tmp_path):
        # a 1 x 2 input matrix is one row of two columns, not a column of two
        cfg = parse_config({"seed": 4, "model": {"kind": "regression", "n": 1, "dims": 2}})
        (written,) = cli_generate(cfg, tmp_path / "ds")
        ds = load_dataset(written)
        assert ds.inputs.shape == (1, 2)
        np.testing.assert_array_equal(ds.inputs, build_dataset(cfg.model, cfg.kernel,
                                                               chain_rng(4, 0, 0)).inputs)

    def test_dims_list_writes_one_dir_per_dimension(self, tmp_path):
        cfg = parse_config(
            {"seed": 5, "model": {"kind": "regression", "n": 10, "dims": [1, 3]}}
        )
        written = cli_generate(cfg, tmp_path / "grid")
        assert [p.name for p in written] == ["d01", "d03"]
        for path, dims in zip(written, (1, 3)):
            manifest = json.loads((path / "manifest.json").read_text())
            assert manifest["model"]["dims"] == dims

    def test_generate_requires_model(self, tmp_path):
        with pytest.raises(InvalidConfig):
            cli_generate(parse_config({"seed": 1}), tmp_path)

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = small_regression_cfg(seed=6)
        (a,) = cli_generate(cfg, tmp_path / "a")
        (b,) = cli_generate(cfg, tmp_path / "b")
        for name in ("inputs.csv", "observations.csv", "latents.csv", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(InvalidConfig):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("noise_std", [-0.3, float("inf"), "loud"])
    def test_bad_noise_std_in_manifest_rejected(self, tmp_path, noise_std):
        (written,) = cli_generate(small_regression_cfg(seed=6), tmp_path)
        _set_model(noise_std=noise_std)(written)
        with pytest.raises(InvalidConfig, match="'noise_std'"):
            load_dataset(written)

    def test_misspelt_model_key_in_manifest_rejected(self, tmp_path):
        """A misspelt key is an error, not a silent default: here noise_sd
        would read as the default noise_std 0.3."""
        model = {"kind": "regression", "n": 15, "dims": 1, "noise_std": 0.05}
        (written,) = cli_generate(small_regression_cfg(seed=6, model=model), tmp_path)
        _edit_manifest(lambda m: m["model"].update(noise_sd=m["model"].pop("noise_std")))(
            written / "manifest.json")
        with pytest.raises(InvalidConfig, match=r"unknown regression model keys: \['noise_sd'\]"):
            load_dataset(written)


class TestTraceCsv:
    def test_round_trip_exact(self, tmp_path):
        rng = chain_rng(8)
        from ellslice import ChainTrace

        n = 40
        trace = ChainTrace(
            log_lik=rng.standard_normal(n) * 1e3,
            lik_evals_cum=np.cumsum(rng.integers(1, 5, size=n)),
            prior_evals_cum=np.zeros(n, dtype=np.int64),
            accepted=rng.integers(0, 2, size=n),
        )
        path = tmp_path / "trace.csv"
        write_trace_csv(path, trace, "config_hash=deadbeef seed=8")
        log_lik, evals, accepted = read_trace_csv(path)
        assert np.array_equal(log_lik, trace.log_lik)  # repr survives the trip
        assert np.array_equal(evals, trace.lik_evals_cum)
        assert np.array_equal(accepted, trace.accepted.astype(bool))

    def test_header_and_comment(self, tmp_path):
        from ellslice import ChainTrace

        trace = ChainTrace(
            log_lik=np.zeros(12),
            lik_evals_cum=np.arange(12),
            prior_evals_cum=np.zeros(12),
            accepted=np.ones(12),
        )
        path = tmp_path / "trace.csv"
        write_trace_csv(path, trace, "config_hash=abc seed=1")
        first, second = path.read_text().splitlines()[:2]
        assert first == "# config_hash=abc seed=1"
        assert second == "iteration,log_likelihood,cumulative_likelihood_evals,accepted"

    @pytest.mark.parametrize("values, line, message", [
        ({0: "1", 1: "2", 2: "3"}, 3, "iteration 1, expected 0"),
        ({5: "4"}, 8, "iteration 4, expected 5"),
        ({2: "7", 7: "2"}, 5, "iteration 7, expected 2"),
        ({3: "abc"}, 6, "invalid literal"),
        ({4: "4.0"}, 7, "invalid literal"),
    ], ids=["from-one", "repeated", "shuffled", "not-numeric", "not-integer"])
    def test_row_k_must_carry_iteration_k(self, tmp_path, values, line, message):
        """Rows whose other columns are valid and in order, but whose
        iteration field is not the row's index, name the file and line."""
        from ellslice import ChainTrace

        trace = ChainTrace(log_lik=np.zeros(12), lik_evals_cum=np.arange(12),
                           prior_evals_cum=np.zeros(12), accepted=np.ones(12))
        path = tmp_path / "trace.csv"
        write_trace_csv(path, trace, "config_hash=abc seed=1")
        _set_iterations(values)(path)
        with pytest.raises(InvalidConfig, match=f"{re.escape(str(path))}:{line}: bad row .*{message}"):
            read_trace_csv(path)

    def test_empty_trace_file_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("# nothing\niteration,log_likelihood,cumulative_likelihood_evals,accepted\n")
        with pytest.raises(InvalidConfig):
            read_trace_csv(path)


class TestRunCommand:
    def test_requires_sampler(self, tmp_path):
        cfg = small_regression_cfg()
        (ds,) = cli_generate(cfg, tmp_path / "ds")
        bare = dataclasses.replace(cfg, sampler=None)
        with pytest.raises(InvalidConfig):
            cli_run(bare, ds, tmp_path / "out")

    def test_outputs_and_rerun_identity(self, tmp_path):
        cfg = small_regression_cfg(seed=9)
        (ds,) = cli_generate(cfg, tmp_path / "ds")
        report = cli_run(cfg, ds, tmp_path / "out1")
        cli_run(cfg, ds, tmp_path / "out2")
        trace1 = (tmp_path / "out1" / "trace.csv").read_bytes()
        trace2 = (tmp_path / "out2" / "trace.csv").read_bytes()
        assert trace1 == trace2
        summary = json.loads((tmp_path / "out1" / "summary.json").read_text())
        assert summary["n_kept"] == cfg.n_keep == report.n_kept
        assert summary["config_hash"] == config_hash(cfg)
        assert summary["seed"] == cfg.seed
        prior = build_prior(load_dataset(ds))
        assert summary["prior_jitter"] == prior.jitter > 0.0
        assert (summary["prior_backend"], summary["prior_rank"]) == (prior.backend, prior.rank)

    def test_diagnose_matches_summary(self, tmp_path):
        cfg = small_regression_cfg(seed=10)
        (ds,) = cli_generate(cfg, tmp_path / "ds")
        report = cli_run(cfg, ds, tmp_path / "out")
        again = cli_diagnose(tmp_path / "out" / "trace.csv")
        assert again.ess == pytest.approx(report.ess, rel=1e-12)
        assert again.total_lik_evals == report.total_lik_evals
        assert again.seconds == 0.0  # wall time is not stored in the CSV
        assert again.total_prior_evals == 0


class TestTuneMh:
    def test_empty_grid_rejected(self, tmp_path):
        cfg = small_regression_cfg()
        (ds,) = cli_generate(cfg, tmp_path / "ds")
        with pytest.raises(InvalidConfig):
            cli_tune_mh(cfg, ds)

    def test_out_of_range_grid_rejected(self):
        # the (0, 1] range and distinctness are checked with the rest of the config
        for grid in ([0.5, 1.5], [0.0, 0.5], [float("nan")], [0.2, 0.2, 0.5]):
            with pytest.raises(InvalidConfig, match="tune_grid"):
                small_regression_cfg(tune_grid=grid)

    def test_best_is_argmax_of_mean_ess(self, tmp_path):
        cfg = small_regression_cfg(
            seed=11, n_keep=200, repeats=2, tune_grid=[0.1, 0.4, 0.9]
        )
        (ds,) = cli_generate(cfg, tmp_path / "ds")
        best, results = cli_tune_mh(cfg, ds, tmp_path / "tune")
        assert [r["epsilon"] for r in results] == [0.1, 0.4, 0.9]
        assert all(len(r["ess"]) == 2 for r in results)
        top = max(r["ess_mean"] for r in results)
        assert best == max(r["epsilon"] for r in results if r["ess_mean"] == top)
        saved = json.loads((tmp_path / "tune" / "tuning.json").read_text())
        assert saved["best_epsilon"] == best
        assert saved["config_hash"] == config_hash(cfg)

    def test_ties_break_toward_larger_epsilon(self, tmp_path, monkeypatch):
        # with identical ESS everywhere the selection must return the top
        # of the grid, per the documented tie rule
        flat = EssReport(n_kept=10, ess=42.0, lag1_autocorr=0.0)
        monkeypatch.setattr(harness, "summarize", lambda trace: flat)
        cfg = small_regression_cfg(seed=12, tune_grid=[0.9, 0.2, 0.5])
        (ds,) = cli_generate(cfg, tmp_path / "ds")
        best, results = cli_tune_mh(cfg, ds)
        assert best == 0.9
        assert [r["ess_mean"] for r in results] == [42.0, 42.0, 42.0]

    def test_failed_chain_rules_its_epsilon_out(self, tmp_path):
        # an epsilon=1.0 chain never moves in its kept part, so its summary
        # fails on a constant series; the grid goes on and picks 0.05
        for repeats in (2, 1):
            cfg = parse_config({
                "seed": 0, "n_burn": 100, "n_keep": 20, "repeats": repeats,
                "tune_grid": [0.05, 1.0],
                "model": {"kind": "regression", "n": 50, "dims": 1, "noise_std": 0.01},
            })
            (ds,) = cli_generate(cfg, tmp_path / f"ds{repeats}")
            tune = tmp_path / f"tune{repeats}"
            best, results = cli_tune_mh(cfg, ds, tune)
            assert best == 0.05
            assert [r["epsilon"] for r in results] == [0.05, 1.0]
            assert results[0]["failures"] == []
            failure = results[1]["failures"][0]
            assert failure["type"] == "DegenerateSeries" and failure["iteration"] is None
            assert "series is constant" in failure["error"]
            assert len(results[1]["ess"]) == cfg.repeats - len(results[1]["failures"])
            saved = _strict_json(tune / "tuning.json")
            assert saved["best_epsilon"] == 0.05
            assert saved["results"][1]["failures"] == results[1]["failures"]
        # at 1 repeat no epsilon=1.0 chain finished: its mean is null, not NaN
        assert results[1]["ess"] == [] and saved["results"][1]["ess_mean"] is None


class TestBenchmark:
    def matrix_cfg(self, **extra):
        raw = {
            "seed": 13,
            "n_burn": 5,
            "n_keep": 60,
            "repeats": 2,
            "models": [
                {"kind": "regression", "n": 12, "dims": 1},
                {"kind": "classification", "n": 12, "dims": 1},
            ],
            "samplers": [{"kind": "elliptical"}, {"kind": "line-slice"}],
        }
        raw.update(extra)
        return parse_config(raw)

    def test_requires_models_and_samplers(self, tmp_path):
        with pytest.raises(InvalidConfig):
            cli_benchmark(parse_config({"seed": 1, "samplers": [{"kind": "elliptical"}]}), tmp_path)
        with pytest.raises(InvalidConfig):
            cli_benchmark(parse_config({"seed": 1, "models": [{"kind": "cox"}]}), tmp_path)

    def test_matrix_layout(self, tmp_path):
        cfg = self.matrix_cfg()
        summary = cli_benchmark(cfg, tmp_path)
        assert len(summary["cells"]) == 4
        names = [c["cell"] for c in summary["cells"]]
        assert names[0] == "cell00_elliptical_regression-d1"
        assert names[3] == "cell03_line-slice_classification-d1"
        for cell in summary["cells"]:
            cell_dir = tmp_path / cell["cell"]
            assert (cell_dir / "cell_summary.json").exists()
            for rep in range(cfg.repeats):
                assert (cell_dir / f"repeat{rep:02d}" / "trace.csv").exists()
                assert (cell_dir / f"repeat{rep:02d}" / "summary.json").exists()
        csv_lines = (tmp_path / "benchmark_summary.csv").read_text().splitlines()
        assert len(csv_lines) == 2 + 4  # comment, header, one row per cell

    def test_line_slice_pays_more_prior_evals(self, tmp_path):
        summary = cli_benchmark(self.matrix_cfg(), tmp_path)
        by_cell = {c["cell"]: c for c in summary["cells"]}
        ell = by_cell["cell00_elliptical_regression-d1"]
        line = by_cell["cell02_line-slice_regression-d1"]
        assert line["prior_evals_mean"] > ell["prior_evals_mean"]
        assert ell["prior_evals_mean"] == 0.0

    def test_summaries_report_prior_jitter(self, tmp_path):
        """Each summary names the prior's root, its rank and its jitter; the
        two models of the matrix cover both roots."""
        # a wide kernel (log lengthscale 2.5, log signal std 3.5) needs
        # jitter at n=12, so the classification prior keeps the low-rank root
        wide = {"lengthscale": math.exp(2.5), "signal_variance": math.exp(7.0)}
        cfg = self.matrix_cfg(repeats=1, models=[
            {"kind": "regression", "n": 12, "dims": 1},
            {"kind": "classification", "n": 12, "dims": 1, "kernel": wide},
        ])
        summary = cli_benchmark(cfg, tmp_path)
        priors = [
            build_prior(build_dataset(
                m, cfg.kernel, chain_rng(cfg.seed, harness._STREAM_DATASET, mi)))
            for mi, m in enumerate(cfg.models)
        ]
        assert priors[0].jitter != priors[1].jitter
        assert [p.backend for p in priors] == ["dense", "low-rank"]
        for cell in summary["cells"]:
            rep = json.loads((tmp_path / cell["cell"] / "repeat00" / "summary.json").read_text())
            prior = priors[0 if cell["model"]["kind"] == "regression" else 1]
            assert rep["prior_jitter"] == prior.jitter
            assert rep["prior_backend"] == prior.backend
            assert rep["prior_rank"] == prior.rank < prior.n

    def test_single_repeat_has_zero_std(self, tmp_path):
        summary = cli_benchmark(self.matrix_cfg(repeats=1), tmp_path)
        for cell in summary["cells"]:
            assert cell["ess_std"] == 0.0

    def test_failed_repeats_recorded_matrix_continues(self, tmp_path, monkeypatch):
        # one shrink is never enough for the slice operator here, while
        # Metropolis-Hastings never shrinks
        monkeypatch.setattr(samplers, "MAX_SHRINKS", 1)
        cfg = self.matrix_cfg(samplers=[{"kind": "neal-mh"}, {"kind": "elliptical"}])
        summary = cli_benchmark(cfg, tmp_path)
        healthy = summary["cells"][0]
        crippled = summary["cells"][2]
        assert healthy["repeats_completed"] == 2 and not healthy["failures"]
        assert crippled["repeats_completed"] < 2
        assert crippled["failures"]
        failure = crippled["failures"][0]
        assert failure["type"] == "ShrinkLimitExceeded"
        assert isinstance(failure["iteration"], int)
        assert f"iteration {failure['iteration']}:" in failure["error"]
        for cell in summary["cells"]:  # a failed repeat writes nothing, a finished one both files
            failed = {f["repeat"] for f in cell["failures"]}
            for rep in range(cfg.repeats):
                rep_dir = tmp_path / cell["cell"] / f"repeat{rep:02d}"
                if rep in failed:
                    assert not rep_dir.exists()
                else:
                    assert (rep_dir / "trace.csv").is_file() and (rep_dir / "summary.json").is_file()

    def test_pickled_chain_error_gives_the_same_failure_record(self, tmp_path, monkeypatch):
        """A ChainError that crossed a process boundary, as a pickle round
        trip does, is recorded as the error it wraps, like the original."""
        cause = NonFiniteLikelihood("log-likelihood returned NaN")
        try:
            raise ChainError(12, cause) from cause
        except ChainError as exc:
            original = exc
        records = []
        for error in (original, pickle.loads(pickle.dumps(original))):
            def fail(*args, error=error, **kwargs):
                raise error
            monkeypatch.setattr(harness, "run_chain", fail)
            summary = cli_benchmark(self.matrix_cfg(repeats=1), tmp_path / str(len(records)))
            records.append(summary["cells"][0]["failures"])
        assert records[0] == records[1] == [{
            "repeat": 0, "iteration": 12, "type": "NonFiniteLikelihood",
            "error": "sampler failed at chain iteration 12: log-likelihood returned NaN",
        }]

    def test_sampler_without_kind_is_elliptical(self, tmp_path):
        summary = cli_benchmark(self.matrix_cfg(repeats=1, samplers=[{}]), tmp_path)
        assert [c["cell"] for c in summary["cells"]] == [
            "cell00_elliptical_regression-d1", "cell01_elliptical_classification-d1"]
        assert all(c["repeats_completed"] == 1 for c in summary["cells"])

    def test_summary_embeds_hash_and_seed(self, tmp_path):
        cfg = self.matrix_cfg(repeats=1)
        summary = cli_benchmark(cfg, tmp_path)
        assert summary["config_hash"] == config_hash(cfg)
        assert summary["seed"] == 13
        on_disk = json.loads((tmp_path / "benchmark_summary.json").read_text())
        assert on_disk == json.loads(json.dumps(summary))


class TestCliMain:
    def write_cfg(self, tmp_path, raw, name="cfg.json"):
        path = tmp_path / name
        path.write_text(json.dumps(raw))
        return str(path)

    def test_generate_then_run_exit_codes(self, tmp_path, capsys):
        cfg = self.write_cfg(
            tmp_path,
            {
                "seed": 14,
                "n_burn": 5,
                "n_keep": 40,
                "model": {"kind": "regression", "n": 10, "dims": 1},
                "sampler": {"kind": "elliptical"},
            },
        )
        ds = str(tmp_path / "ds")
        assert cli.main(["generate", "--config", cfg, "--out", ds]) == 0
        out1 = str(tmp_path / "out1")
        out2 = str(tmp_path / "out2")
        assert cli.main(["run", ds, "--config", cfg, "--out", out1]) == 0
        assert cli.main(["run", ds, "--config", cfg, "--out", out2]) == 0
        assert (Path(out1) / "trace.csv").read_bytes() == (Path(out2) / "trace.csv").read_bytes()
        assert "ess=" in capsys.readouterr().out

    def test_keep_too_short_for_ess_exits_2(self, tmp_path, capsys):
        raw = {
            "seed": 14,
            "n_burn": 5,
            "n_keep": 40,
            "model": {"kind": "regression", "n": 10, "dims": 1},
            "sampler": {"kind": "elliptical"},
        }
        ds = str(tmp_path / "ds")
        assert cli.main(["generate", "--config", self.write_cfg(tmp_path, raw), "--out", ds]) == 0
        capsys.readouterr()
        cfg = self.write_cfg(tmp_path, dict(raw, n_keep=5), "short.json")
        code = cli.main(["run", ds, "--config", cfg, "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err and "n_keep" in err
        assert "Traceback" not in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("command, raw", [
        ("generate", {"kernel": {"length": 1.0}}),
        ("generate", {"n_burn": "abc"}),
        ("generate", {"model": {"kind": "regression", "n": 10, "kernel": {"length": 1.0}}}),
        ("generate", {"model": {"kind": "regression", "n": 10, "dims": [1, "a"]}}),
        ("benchmark", {"samplers": [{"kind": "hamiltonian"}]}),
        ("benchmark", {"samplers": [{"kind": "elliptical"},
                                    {"kind": "elliptical", "max_shrinks": 1}]}),
        ("generate", {"model": 5}),
        ("generate", {"sampler": 5}),
        ("benchmark", {"models": 5}),
        ("benchmark", {"models": [5]}),
        ("generate", {"model": {"kind": "cox", "bin_width": -5}}),
        pytest.param("generate",
                     lambda tmp: {"model": {"kind": "cox", "events_file": _empty_file(tmp)}},
                     id="generate-empty-events-file"),
        ("generate", {"model": {"kind": "regression", "n": 0}}),
        ("generate", {"model": {"kind": "regression", "n": 10, "dims": 0}}),
        ("generate", {"model": {"kind": "regression", "n": 10, "noise_std": -1}}),
        ("generate", {"model": {"kind": "classification", "n": -3}}),
        pytest.param("generate", {"model": {"kind": "regression", "n": 10, "dims": [1, 1]}},
                     id="generate-repeated-dims"),
        pytest.param("generate", {"model": {"kind": "regression", "n": 10, "dims": []}},
                     id="generate-empty-dims"),
        pytest.param("generate", {"seed": -1}, id="generate-negative-seed"),
        pytest.param("generate", {"seed": True}, id="generate-boolean-seed"),
        pytest.param("generate", {"n_keep": 20.7}, id="generate-fractional-n-keep"),
        pytest.param("generate", {"n_burn": True}, id="generate-boolean-n-burn"),
        pytest.param("generate", {"model": {"kind": "regression", "n": 10.5}},
                     id="generate-fractional-n"),
        pytest.param("generate", {"model": {"kind": "regression", "n": 10, "dims": [1, 2.5]}},
                     id="generate-fractional-dims-entry"),
        pytest.param("generate", {"model": {"kind": "regression", "n": 10, "noise_std": 1e200}},
                     id="generate-noise-std-square-overflows"),
        pytest.param("generate", {"model": {"kind": "cox", "bin_width": 1e-300}},
                     id="generate-bin-index-overflows"),
        pytest.param("generate",
                     lambda tmp: {"model": {"kind": "cox",
                                            "events_file": _events_file(tmp, "0.0\n1e300\n")}},
                     id="generate-event-bin-index-overflows"),
        pytest.param("generate", {"model": {"kind": "regression", "n": 10, "noise_std": True}},
                     id="generate-boolean-noise-std"),
        pytest.param("generate", {"model": {"kind": "cox", "bin_width": True}},
                     id="generate-boolean-bin-width"),
        pytest.param("generate", {"kernel": {"lengthscale": True}},
                     id="generate-boolean-lengthscale"),
        pytest.param("generate", {"tune_grid": [True]}, id="generate-boolean-grid-entry"),
        pytest.param("generate", {"tune_grid": "1"}, id="generate-string-grid"),
        pytest.param("generate", {"tune_grid": {"0.5": 0}}, id="generate-object-grid"),
        pytest.param("benchmark", {"samplers": [{"kind": "neal-mh", "epsilon": True}]},
                     id="benchmark-boolean-epsilon"),
        # the augmented-model elliptical form is a test reference, not a kind
        pytest.param("benchmark", {"samplers": [{"kind": "elliptical-aux"}]},
                     id="benchmark-augmented-form-kind"),
    ])
    def test_malformed_config_value_exits_2(self, tmp_path, capsys, command, raw):
        if callable(raw):
            raw = raw(tmp_path)
        cfg = self.write_cfg(tmp_path, {
            "seed": 14, "n_keep": 20,
            "model": {"kind": "regression", "n": 10},
            "models": [{"kind": "regression", "n": 10}],
            "samplers": [{"kind": "elliptical"}],
            **raw,
        })
        out = tmp_path / "out"
        code = cli.main([command, "--config", cfg, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "tune-mh", "benchmark"])
    def test_zero_likelihood_start_is_a_chain_failure(self, tmp_path, capsys, command):
        # the noise variance 2.25e-308 is a normal float, but log L at f = 0 is -inf
        model = {"kind": "regression", "n": 10, "noise_std": 1.5e-154}
        cfg = self.write_cfg(tmp_path, {
            "seed": 14, "n_keep": 20, "repeats": 2, "model": model,
            "sampler": {"kind": "elliptical"}, "models": [model],
            "samplers": [{"kind": "elliptical"}], "tune_grid": [0.1, 0.5],
        })
        ds, out = tmp_path / "ds", tmp_path / "out"
        assert cli.main(["generate", "--config", cfg, "--out", str(ds)]) == 0
        capsys.readouterr()
        dataset = [] if command == "benchmark" else [str(ds)]
        code = cli.main([command, *dataset, "--config", cfg, "--out", str(out)])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if command != "benchmark":  # run's one chain, or every chain of the grid
            assert code == 2
            assert "iteration 0" in err and "zero likelihood" in err
            assert not out.exists()
        else:  # the failed repeats are recorded and the matrix completes
            assert code == 0
            (cell,) = json.loads((out / "benchmark_summary.json").read_text())["cells"]
            assert cell["repeats_completed"] == 0
            assert [f["repeat"] for f in cell["failures"]] == [0, 1]
            assert all("iteration 0" in f["error"] for f in cell["failures"])
            assert all((f["iteration"], f["type"]) == (0, "NonFiniteLikelihood")
                       for f in cell["failures"])
            assert cell["ess_mean"] is None and cell["ess_std"] is None
        for path in tmp_path.rglob("*.json"):  # strict JSON: no NaN, even with no finished chain
            _strict_json(path)

    @pytest.mark.parametrize("noise_std", [1e-160, 5e-324])
    def test_subnormal_noise_variance_exits_2_at_generate(self, tmp_path, capsys, noise_std):
        # the squares 1e-320 and 0 (underflowed) are below the smallest normal float
        cfg = self.write_cfg(tmp_path, {
            "seed": 14, "model": {"kind": "regression", "n": 10, "noise_std": noise_std}})
        out = tmp_path / "out"
        code = cli.main(["generate", "--config", cfg, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "'noise_std'" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("raw_seed", [-1, True])
    def test_bad_seed_exits_2_naming_it(self, tmp_path, capsys, raw_seed):
        cfg = self.write_cfg(tmp_path, {"seed": raw_seed, "model": {"kind": "regression", "n": 10}})
        out = tmp_path / "out"
        code = cli.main(["generate", "--config", cfg, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "'seed'" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["generate", "run", "tune-mh", "benchmark"])
    def test_noise_free_regression_is_only_for_generate(self, tmp_path, capsys, command):
        """Noise-free regression values are the latents.csv that generate
        writes with every regression dataset. A noise_std of 0, in a config
        or in the manifest of a generated dataset, exits 2 naming the key in
        every command and writes nothing."""
        raw = {"seed": 14, "n_keep": 20, "tune_grid": [0.5], "sampler": {"kind": "elliptical"},
               "samplers": [{"kind": "elliptical"}]}
        model = {"kind": "regression", "n": 10, "noise_std": 0.3}
        cfg = self.write_cfg(tmp_path, {**raw, "model": model})
        ds = tmp_path / "ds"
        assert cli.main(["generate", "--config", cfg, "--out", str(ds)]) == 0
        assert np.loadtxt(ds / "latents.csv", delimiter=",").shape == (10,)
        _set_model(noise_std=0)(ds)
        zero = {**model, "noise_std": 0}
        cfg = self.write_cfg(tmp_path, {**raw, "model": zero, "models": [zero]})
        capsys.readouterr()
        out = tmp_path / "out"
        dataset = [str(ds)] if command in ("run", "tune-mh") else []
        code = cli.main([command, *dataset, "--config", cfg, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "'noise_std'" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command, key, model", [
        ("generate", "nosie_std", {"kind": "regression", "n": 10, "nosie_std": 0.01}),
        ("benchmark", "nosie_std", {"kind": "regression", "n": 10, "nosie_std": 0.01}),
        ("generate", "link", {"kind": "classification", "n": 10, "link": "cauchy"}),
        ("generate", "events_file", {"kind": "cox", "events_file": 5}),
        ("generate", "dims", {"kind": "regression", "n": 10, "dims": [2, 1, 2]}),
        ("generate", "dims", {"kind": "regression", "n": 10, "dims": []}),
    ])
    def test_bad_model_spec_exits_2_naming_its_key(self, tmp_path, capsys, command, key, model):
        cfg = self.write_cfg(tmp_path, {
            "seed": 14, "n_keep": 20, "model": model,
            "models": [model], "samplers": [{"kind": "elliptical"}],
        })
        out = tmp_path / "out"
        code = cli.main([command, "--config", cfg, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"'{key}'" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command, target, corrupt", [
        pytest.param("run", "ds/manifest.json", lambda p: p.write_text("{not json"),
                     id="manifest-not-json"),
        pytest.param("run", "ds/manifest.json", _edit_manifest(lambda m: m.pop("model")),
                     id="manifest-no-model"),
        pytest.param("run", "ds/inputs.csv", _append("abc\n"), id="cell-not-numeric"),
        pytest.param("run", "ds/inputs.csv", _append("nan\n"), id="cell-not-finite"),
        pytest.param("run", "ds/inputs.csv", _append("0.5,0.5\n"), id="row-wrong-width"),
        pytest.param("run", "ds/observations.csv", _drop_last_line, id="observations-short"),
        pytest.param("run", "ds", _set_kind("classification"), id="labels-not-plus-minus-one"),
        pytest.param("run", "ds", _labels_with(1.9), id="label-1.9"),
        pytest.param("run", "ds", _set_model(noise_std=-0.3), id="manifest-negative-noise-std"),
        pytest.param("run", "ds/events.txt", _cox_with_events("0.0\nsoon\n"),
                     id="event-not-numeric"),
        pytest.param("run", "ds/events.txt", _cox_with_events("0.0\n-1.0\n"),
                     id="event-negative"),
        pytest.param("run", "ds/inputs.csv", _append_bytes(_NOT_UTF8), id="inputs-not-utf8"),
        pytest.param("run", "ds/events.txt",
                     lambda p: (_cox_with_events("0.0\n")(p), _append_bytes(_NOT_UTF8)(p)),
                     id="events-not-utf8"),
        pytest.param("diagnose", "run/trace.csv", _keep_columns(3), id="trace-3-columns"),
        pytest.param("diagnose", "run/trace.csv", _append("20,abc,99,1\n"),
                     id="trace-cell-not-numeric"),
        pytest.param("diagnose", "run/trace.csv", _append("20,nan,99,1\n"),
                     id="trace-log-likelihood-nan"),
        pytest.param("diagnose", "run/trace.csv", _append("20,-1.0,0,1\n"),
                     id="trace-count-decreases"),
        pytest.param("diagnose", "run/trace.csv", _append("20,-1.0,999999,7\n"),
                     id="trace-accepted-not-0-or-1"),
        pytest.param("diagnose", "run/trace.csv", _keep_rows(MIN_SERIES_LENGTH - 1),
                     id="trace-too-short"),
        pytest.param("diagnose", "run/trace.csv", _set_iterations({3: "abc"}),
                     id="trace-iteration-not-numeric"),
        pytest.param("diagnose", "run/trace.csv", _set_iterations({5: "4"}),
                     id="trace-iteration-repeated"),
        pytest.param("diagnose", "run/trace.csv", _set_iterations({2: "7", 7: "2"}),
                     id="trace-iterations-shuffled"),
        pytest.param("diagnose", "run/trace.csv", _append_bytes(_NOT_UTF8), id="trace-not-utf8"),
    ])
    def test_malformed_input_file_exits_2(self, tmp_path, capsys, command, target, corrupt):
        cfg = self.write_cfg(tmp_path, {
            "seed": 14, "n_burn": 5, "n_keep": 20,
            "model": {"kind": "regression", "n": 10},
            "sampler": {"kind": "elliptical"},
        })
        ds, run = str(tmp_path / "ds"), str(tmp_path / "run")
        assert cli.main(["generate", "--config", cfg, "--out", ds]) == 0
        assert cli.main(["run", ds, "--config", cfg, "--out", run]) == 0
        corrupt(tmp_path / target)
        capsys.readouterr()
        out = tmp_path / "out"
        if command == "run":
            code = cli.main(["run", ds, "--config", cfg, "--out", str(out)])
        else:
            code = cli.main(["diagnose", str(tmp_path / target), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err and str(tmp_path / target) in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["regression", "cox"])
    @pytest.mark.parametrize("key, claim", [("n", 999), ("files", ["nothing.csv"])])
    def test_manifest_n_and_files_must_match_the_dataset(self, tmp_path, capsys, kind, key, claim):
        model = {"kind": "regression", "n": 5} if kind == "regression" else {
            "kind": "cox", "bin_width": 1.0,
            "events_file": _events_file(tmp_path, "0.0\n1.5\n2.5\n3.5\n4.5\n"),
        }
        cfg = self.write_cfg(tmp_path, {"seed": 14, "n_keep": 20, "model": model,
                                        "sampler": {"kind": "elliptical"}})
        ds = tmp_path / "ds"
        assert cli.main(["generate", "--config", cfg, "--out", str(ds)]) == 0
        assert load_dataset(ds).data.n == 5
        _edit_manifest(lambda m: m.update({key: claim}))(ds / "manifest.json")
        with pytest.raises(InvalidConfig, match=f"'{key}'"):
            load_dataset(ds)
        capsys.readouterr()
        out = tmp_path / "out"
        assert cli.main(["run", str(ds), "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(ds / "manifest.json") in err and f"'{key}'" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_diagnose_writes_json(self, tmp_path, capsys):
        cfg = self.write_cfg(
            tmp_path,
            {
                "seed": 15,
                "n_burn": 5,
                "n_keep": 40,
                "model": {"kind": "regression", "n": 10, "dims": 1},
                "sampler": {"kind": "elliptical"},
            },
        )
        ds = str(tmp_path / "ds")
        out = str(tmp_path / "out")
        cli.main(["generate", "--config", cfg, "--out", ds])
        cli.main(["run", ds, "--config", cfg, "--out", out])
        capsys.readouterr()
        report_path = tmp_path / "report.json"
        code = cli.main(["diagnose", str(Path(out) / "trace.csv"), "--out", str(report_path)])
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert payload["n_kept"] == 40
        assert json.loads(capsys.readouterr().out) == payload

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        code = cli.main(
            ["generate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, {"n_keep": 10})  # no seed
        code = cli.main(["generate", "--config", cfg, "--out", str(tmp_path / "x")])
        assert code == 2
        assert "seed" in capsys.readouterr().err

    def test_seed_override_changes_output(self, tmp_path):
        """Two config files that differ only in their seed write different data."""
        raw = {
            "seed": 16,
            "n_burn": 2,
            "n_keep": 30,
            "model": {"kind": "regression", "n": 8, "dims": 1},
            "sampler": {"kind": "elliptical"},
        }
        a = str(tmp_path / "a")
        b = str(tmp_path / "b")
        cli.main(["generate", "--config", self.write_cfg(tmp_path, raw, "a.json"), "--out", a])
        cli.main(["generate", "--config", self.write_cfg(tmp_path, dict(raw, seed=99), "b.json"),
                  "--out", b])
        assert (Path(a) / "observations.csv").read_bytes() != (Path(b) / "observations.csv").read_bytes()

    @pytest.mark.parametrize("flags", [
        ["--seed", "5"], ["--burn", "5"], ["--keep", "50"], ["--paper-scale"]])
    def test_removed_flags_are_usage_errors(self, tmp_path, capsys, flags):
        """The config file is the whole run: no flag sets a config key."""
        cfg = self.write_cfg(tmp_path, {"seed": 17, "model": {"kind": "regression", "n": 10}})
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli.main(["generate", "--config", cfg, "--out", str(out), *flags])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
        assert not out.exists()

    def test_readme_commands_parse(self):
        """Every command the README's command-line section shows parses."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Command line")[1].split("```sh")[1].split("```")[0]
        commands = [shlex.split(line) for line in block.splitlines() if line.startswith("ellslice ")]
        assert len(commands) == 5
        parser = cli._build_parser()
        for argv in commands:
            parser.parse_args(argv[1:])

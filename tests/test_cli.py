"""Config parsing, subcommand behavior, exit codes, and file outputs."""

import dataclasses
import gc
import inspect
import json
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import rootgrowth
from rootgrowth import cli, svm
from rootgrowth.cli import (
    RunConfig,
    build_run_config,
    check_runnable,
    main,
    parse_config_file,
    render_table,
)
from rootgrowth.dataset import LABELS, Dataset, SyntheticConfig, write_csv
from rootgrowth.ensembles import TrainConfig
from rootgrowth.errors import ConfigError
from rootgrowth.evaluation import TABLE_ORDER, ClassifierSpec
from rootgrowth.features import FeatureLayout, WindowSpec


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


TINY = """
dataset = synthetic
synthetic_n_per_class = 5
synthetic_n_frames = 24
synthetic_n_coords = 3
synthetic_noise_sd = 0.02
pca_components = 2
window_length = 8
window_stride = 8
folds = 2
classifiers = linear_svm
epochs = 5
seed = 3
"""


class TestConfigParsing:
    def test_defaults_match_protocol(self):
        cfg = RunConfig()
        assert cfg.folds == 5
        assert cfg.window_length == 40
        assert cfg.window_stride == 1
        assert cfg.pca_components == 30
        assert cfg.include_velocity and cfg.include_acceleration
        assert cfg.hidden == 4 and cfg.n_experts == 4
        assert cfg.eta_experts == 0.15 and cfg.eta_gate == 0.1
        assert cfg.classifiers == (
            "sigmoid_svm", "gaussian_svm", "linear_svm", "mnce", "me", "gated_ncl", "ncl",
        )

    def test_key_value_parsing(self, tmp_path):
        path = write_config(
            tmp_path,
            "folds = 3\n# comment line\nclassifiers = ncl, me\n"
            "pairings = wtA:mutA, wtB:mutB\ninclude_velocity = false\n"
            "include_acceleration = false\n",
        )
        cfg = build_run_config(parse_config_file(path))
        assert cfg.folds == 3
        assert cfg.classifiers == ("ncl", "me")
        assert cfg.pairings == (("wtA", "mutA"), ("wtB", "mutB"))
        assert cfg.include_velocity is False

    def test_unknown_key_named(self, tmp_path):
        path = write_config(tmp_path, "fold_count = 3\n")
        with pytest.raises(ConfigError, match="fold_count"):
            parse_config_file(path)

    def test_duplicate_key(self, tmp_path):
        path = write_config(tmp_path, "folds = 3\nfolds = 4\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_file(path)

    def test_bad_value_named(self):
        with pytest.raises(ConfigError, match="folds"):
            build_run_config({"folds": "many"})

    def test_bad_classifier_named(self):
        with pytest.raises(ConfigError, match="forest"):
            build_run_config({"classifiers": "linear_svm,forest"})

    def test_signal_keys_coupled(self):
        with pytest.raises(ConfigError, match="signal"):
            build_run_config({"synthetic_signal_start": "5"})

    def test_signal_window_names_its_keys(self):
        keys = "config keys 'synthetic_signal_start' and 'synthetic_signal_end'"
        with pytest.raises(ConfigError, match=keys):
            build_run_config({"synthetic_signal_start": "20", "synthetic_signal_end": "30", "synthetic_n_frames": "24"})

    def test_pairing_syntax(self):
        with pytest.raises(ConfigError, match="pairings"):
            build_run_config({"pairings": "wtA-mutA"})

    def test_every_key_lands_in_its_field(self, tmp_path):
        # every key at a valid non-default value; synthetic_* keys land in
        # the SyntheticConfig field of that name
        expected = {
            "dataset": ("tracks.csv", "tracks.csv"),
            "pairings": ("wtA:mutA, wtB:mutB", (("wtA", "mutA"), ("wtB", "mutB"))),
            "classifiers": ("ncl, me", ("ncl", "me")),
            "pca_components": ("7", 7),
            "include_velocity": ("no", False),
            "include_acceleration": ("off", False),
            "literal_sum": ("yes", True),
            "window_length": ("12", 12),
            "window_stride": ("3", 3),
            "folds": ("3", 3),
            "seed": ("9", 9),
            "jobs": ("2", 2),
            "svm_c": ("2.5", 2.5),
            "svm_sigma": ("0.7", 0.7),
            "svm_a": ("0.3", 0.3),
            "svm_b": ("-0.2", -0.2),
            "lam": ("0.25", 0.25),
            "n_experts": ("3", 3),
            "hidden": ("6", 6),
            "epochs": ("17", 17),
            "eta_experts": ("0.2", 0.2),
            "eta_gate": ("0.05", 0.05),
            "synthetic_n_per_class": ("6", 6),
            "synthetic_n_frames": ("50", 50),
            "synthetic_n_coords": ("4", 4),
            "synthetic_base_velocity": ("0.01", 0.01),
            "synthetic_velocity_gap": ("0.002", 0.002),
            "synthetic_acceleration_gap": ("0.0001", 0.0001),
            "synthetic_noise_sd": ("0.03", 0.03),
            "synthetic_intercept_sd": ("0.5", 0.5),
            "synthetic_ripple_gap": ("0.01", 0.01),
            "synthetic_signal_gap": ("0.3", 0.3),
            "synthetic_wild_tag": ("wtX", "wtX"),
            "synthetic_mutated_tag": ("mutX", "mutX"),
        }
        text = "".join(f"{key} = {raw}\n" for key, (raw, _) in expected.items())
        text += "synthetic_signal_start = 5\nsynthetic_signal_end = 20\n"
        cfg = build_run_config(parse_config_file(write_config(tmp_path, text)))
        for key, (_, value) in expected.items():
            if key.startswith("synthetic_"):
                assert getattr(cfg.synthetic, key.removeprefix("synthetic_")) == value, key
            else:
                assert getattr(cfg, key) == value, key
        assert cfg.synthetic.signal_window == (5, 20)
        # no field keeps its default, so the table above misses no key
        default = RunConfig()
        for obj, base in ((cfg, default), (cfg.synthetic, default.synthetic)):
            for f in dataclasses.fields(obj):
                assert getattr(obj, f.name) != getattr(base, f.name), f.name

    def test_line_without_equals_named(self, tmp_path, capsys):
        path = write_config(tmp_path, "folds = 3\nfolds\n")
        assert main(["run", "--config", path]) == 1
        assert capsys.readouterr().err == f"error: {path}:2: expected key = value\n"

    def test_every_blamed_key_is_a_config_key(self):
        # a failed check blames fields, which the CLI names as config keys;
        # the nested train config and the derived seeds are set by no key
        owners = (ClassifierSpec, TrainConfig, FeatureLayout, WindowSpec)
        names = {f.name for owner in owners for f in dataclasses.fields(owner)} - {"train", "seed"}
        assert set(cli._KEY_OF) <= names
        keys = {cli._KEY_OF.get(name, name) for name in names}
        for f in dataclasses.fields(SyntheticConfig):
            if f.name != "seed":
                keys.update(cli._synthetic_keys(f.name))
        assert keys <= set(cli._KEY_PARSERS)

    def test_readme_key_tables_name_exactly_the_config_keys(self):
        # the synthetic table drops the `synthetic_` prefix its keys share;
        # a row may name two keys that go together
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        keys = []
        for heading, prefix in (("Protocol keys", ""), ("Synthetic generator keys", "synthetic_")):
            table = readme.split(f"\n{heading}", 1)[1].split("\n\n", 2)[1]
            for row in table.splitlines()[2:]:
                keys += [prefix + key for key in re.findall(r"`(\w+)`", row.split("|")[1])]
        assert len(keys) == len(set(keys))
        assert set(keys) == set(cli._KEY_PARSERS)

    @pytest.mark.parametrize("key", ["synthetic_seed", "synthetic_signal_window", "synthetic"])
    def test_derived_fields_are_not_keys(self, tmp_path, key):
        path = write_config(tmp_path, f"seed = 1\n{key} = 3\n")
        with pytest.raises(ConfigError, match=f":2: unknown config key '{key}'"):
            parse_config_file(path)


class TestGenerate:
    def test_writes_and_reruns_identically(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["generate", "--config", cfg, "--out", str(out_a)]) == 0
        assert main(["generate", "--config", cfg, "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert (tmp_path / "a.manifest").exists()
        text = capsys.readouterr().out
        assert "10 samples" in text and "24 frames" in text

    def test_seed_flag_changes_data(self, tmp_path):
        cfg = write_config(tmp_path, TINY)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        main(["generate", "--config", cfg, "--out", str(out_a)])
        main(["generate", "--config", cfg, "--seed", "99", "--out", str(out_b)])
        assert out_a.read_bytes() != out_b.read_bytes()

    def test_seed_flag_equals_seed_key(self, tmp_path):
        flag_cfg = write_config(tmp_path, TINY)
        key_cfg = write_config(tmp_path, TINY.replace("seed = 3", "seed = 11"), name="k.cfg")
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["generate", "--config", flag_cfg, "--seed", "11", "--out", str(out_a)]) == 0
        assert main(["generate", "--config", key_cfg, "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()


class TestRun:
    def test_outputs_and_table(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY)
        out = tmp_path / "res"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "Linear-SVM" in stdout and "Best Frames" in stdout
        assert "%" in stdout  # error cells render as percentages
        payload = json.loads((out / "results.json").read_text())
        assert payload["format"] == "rootgrowth-results"
        assert payload["schema_version"] == 1
        assert payload["rows"][0]["wild_tag"] == "wt_syn"
        assert len(payload["rows"][0]["windows"]) == 3  # (24 - 8) / 8 + 1
        assert (out / "results.csv").exists()
        assert (out / "table.txt").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_clean_run_emits_no_numpy_warning(self, tmp_path):
        # no fit or prediction of any classifier overflows, divides by zero
        # or makes an invalid value on data that runs clean
        every_kind = "classifiers = " + ", ".join(TABLE_ORDER)
        cfg = write_config(tmp_path, TINY.replace("classifiers = linear_svm", every_kind))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == 0

    def test_literal_sum_flag_recorded(self, tmp_path):
        cfg = write_config(tmp_path, TINY)
        out = tmp_path / "res"
        main(["run", "--config", cfg, "--out", str(out), "--literal-sum"])
        payload = json.loads((out / "results.json").read_text())
        assert payload["config"]["literal_sum"] is True

    def test_flags_equal_file_keys(self, tmp_path):
        # flags replace the file's values before anything is derived from them
        flag_cfg = write_config(tmp_path, TINY)
        key_cfg = write_config(
            tmp_path, TINY.replace("seed = 3", "seed = 7") + "literal_sum = true\n", name="k.cfg"
        )
        a, b = tmp_path / "flags", tmp_path / "keys"
        flags = ["--seed", "7", "--jobs", "2", "--literal-sum"]
        assert main(["run", "--config", flag_cfg, "--out", str(a), *flags]) == 0
        assert main(["run", "--config", key_cfg, "--out", str(b)]) == 0
        for name in ("results.json", "results.csv", "table.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_malformed_key_rejected_under_flag(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY.replace("seed = 3", "seed = x"))
        assert main(["run", "--config", cfg, "--seed", "5", "--out", str(tmp_path / "r")]) == 1
        assert "config key 'seed'" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_blas_thread_count_does_not_change_results(self, tmp_path):
        # 6000 frames x 60 coordinates projected onto 30 components per fold:
        # large enough that OpenBLAS splits the products between threads
        cfg = write_config(tmp_path, (
            "synthetic_n_per_class = 10\nsynthetic_n_frames = 300\nsynthetic_n_coords = 60\n"
            "pca_components = 30\nwindow_length = 40\nwindow_stride = 130\n"
            "classifiers = linear_svm, gaussian_svm\n"
        ))
        src = str(Path(rootgrowth.__file__).resolve().parent.parent)
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
            proc = subprocess.run(
                [sys.executable, "-m", "rootgrowth", "run", "--config", cfg, "--out", f"t{threads}"],
                cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
        for name in ("results.json", "results.csv", "table.txt"):
            assert (tmp_path / "t1" / name).read_bytes() == (tmp_path / "t2" / name).read_bytes(), name

    @pytest.mark.parametrize("classifiers", ["linear_svm", "linear_svm, gaussian_svm"])
    def test_serial_run_loads_no_process_pool(self, tmp_path, classifiers):
        # the pool's modules cost memory and start-up time, and only a
        # run with more than one job and (fold, window) unit uses them;
        # no run needs numpy.ma, which np.median and np.setdiff1d import
        cfg = write_config(tmp_path, TINY.replace("classifiers = linear_svm", f"classifiers = {classifiers}"))
        src = str(Path(rootgrowth.__file__).resolve().parent.parent)
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        script = (
            "import sys\n"
            "from rootgrowth.cli import main\n"
            f"assert main(['run', '--config', {cfg!r}, '--out', 'r']) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent')\n"
            "             or m == 'numpy.ma' or m.startswith('numpy.ma.')))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_run_id_ignores_jobs_but_tracks_seed(self, tmp_path):
        cfg = write_config(tmp_path, TINY)
        a, b, c = (tmp_path / n for n in ("ra", "rb", "rc"))
        main(["run", "--config", cfg, "--out", str(a)])
        main(["run", "--config", cfg, "--out", str(b), "--jobs", "2"])
        main(["run", "--config", cfg, "--out", str(c), "--seed", "8"])
        ida = json.loads((a / "results.json").read_text())["run_id"]
        idb = json.loads((b / "results.json").read_text())["run_id"]
        idc = json.loads((c / "results.json").read_text())["run_id"]
        assert ida == idb
        assert ida != idc

    def test_unconverged_svm_fits_warn_on_stderr(self, tmp_path, monkeypatch, capsys):
        cfg = write_config(tmp_path, TINY)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        assert capsys.readouterr().err == ""
        smo = svm.train_smo
        monkeypatch.setattr(svm, "train_smo", lambda *a, **k: smo(*a, **k, max_passes=1))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert re.fullmatch(
            r"warning: pairing wt_syn:mut_syn: [1-6] of 6 SVM fits stopped with a KKT "
            r"residual above the solver tolerance 0\.001",
            err[0],
        ), err[0]
        a, b = (json.loads((tmp_path / d / "results.json").read_text()) for d in "ab")
        assert a.keys() == b.keys()
        assert [row.keys() for row in a["rows"]] == [row.keys() for row in b["rows"]]

    def test_missing_dataset_is_data_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "dataset = /nonexistent/data.csv\npairings = a:b\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        assert "load-dataset" in capsys.readouterr().err

    def test_no_pairings_for_unpaired_csv(self, tmp_path, capsys):
        gen = write_config(tmp_path, TINY)
        data = tmp_path / "d.csv"
        main(["generate", "--config", gen, "--out", str(data)])
        (tmp_path / "d.manifest").unlink()  # drop the recorded pairing
        run_cfg = write_config(tmp_path, f"dataset = {data}\nfolds = 2\npca_components = 2\nwindow_length = 8\nclassifiers = linear_svm\n", name="r.cfg")
        assert main(["run", "--config", run_cfg, "--out", str(tmp_path / "r")]) == 1
        assert "pairings" in capsys.readouterr().err

    @pytest.mark.parametrize("tags", [("wt_syn", "wt_syn"), ("", "mut_syn")], ids=["equal", "empty"])
    def test_manifest_pairing_is_data_error(self, tmp_path, capsys, tags):
        data = tmp_path / "d.csv"
        main(["generate", "--config", write_config(tmp_path, TINY), "--out", str(data)])
        manifest = tmp_path / "d.manifest"
        manifest.write_text(f"wild_tag={tags[0]}\nmutated_tag={tags[1]}\n")
        run_cfg = write_config(tmp_path, f"dataset = {data}\nfolds = 2\npca_components = 2\nwindow_length = 8\nclassifiers = linear_svm\n", name="r.cfg")
        assert main(["run", "--config", run_cfg, "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"error: load-dataset: {manifest}: wild_tag and mutated_tag must be two distinct non-empty tags, got {tags}"
        )


def refuse(*args, **kwargs):
    raise AssertionError("compute started before the config was checked")


class TestFailFast:
    """Configs that cannot run on their data stop before any compute."""

    def test_bare_run_names_pca_components_before_generating(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "generate_synthetic", refuse)
        assert main(["run"]) == 1
        err = capsys.readouterr().err
        assert "pca_components = 30" in err and "5 coordinates" in err
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize(
        "extra,key",
        [
            ("window_length = 30\n", "window_length = 30"),
            ("folds = 6\n", "folds = 6"),
            ("pca_components = 4\n", "pca_components = 4"),
        ],
    )
    def test_synthetic_checked_before_generating(self, tmp_path, monkeypatch, capsys, extra, key):
        base = "".join(
            line + "\n" for line in TINY.strip().splitlines()
            if not line.startswith(key.split(" ")[0] + " ")
        )
        cfg = write_config(tmp_path, base + extra)
        monkeypatch.setattr(cli, "generate_synthetic", refuse)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "keys,key",
        [
            ("pca_components = 4\nwindow_length = 8\nfolds = 2\n", "pca_components = 4"),
            ("pca_components = 2\nwindow_length = 25\nfolds = 2\n", "window_length = 25"),
            ("pca_components = 2\nwindow_length = 8\nfolds = 6\n", "folds = 6"),
        ],
    )
    def test_csv_checked_before_window_search(self, tmp_path, monkeypatch, capsys, keys, key):
        data = tmp_path / "d.csv"
        assert main(["generate", "--config", write_config(tmp_path, TINY), "--out", str(data)]) == 0
        run_cfg = write_config(tmp_path, f"dataset = {data}\n{keys}classifiers = linear_svm\n", name="r.cfg")
        monkeypatch.setattr(cli, "window_search", refuse)
        assert main(["run", "--config", run_cfg, "--out", str(tmp_path / "r")]) == 1
        err = capsys.readouterr().err
        assert "pairing wt_syn:mut_syn" in err and key in err

    @pytest.mark.parametrize(
        "line,key",
        [
            ("svm_c = nan", "svm_c"),
            ("svm_c = inf", "svm_c"),
            ("svm_c = 0", "svm_c"),
            ("svm_sigma = -1", "svm_sigma"),
            ("svm_sigma = nan", "svm_sigma"),
            # sigma^2 overflows, or 2 sigma^2 rounds to 0
            ("svm_sigma = 1e200", "svm_sigma"),
            ("svm_sigma = 1e-170", "svm_sigma"),
            ("svm_a = nan", "svm_a"),
            # a slope of 0 gives a constant kernel
            ("svm_a = 0", "svm_a"),
            ("svm_a = -0.5", "svm_a"),
            ("svm_b = inf", "svm_b"),
            ("lam = -0.5", "lam"),
            ("lam = nan", "lam"),
            ("n_experts = 1", "n_experts"),
            ("hidden = 0", "hidden"),
            ("epochs = 0", "epochs"),
            ("eta_experts = nan", "eta_experts"),
            ("eta_gate = 0", "eta_gate"),
            ("include_velocity = false", "include_acceleration"),
            ("include_velocity = maybe", "include_velocity"),
            ("pca_components = 0", "pca_components"),
            ("window_length = 2", "window_length"),
            ("window_stride = 0", "window_stride"),
            ("classifiers = linear_svm, forest", "classifiers"),
            ("synthetic_n_per_class = 0", "synthetic_n_per_class"),
            ("synthetic_n_frames = 2", "synthetic_n_frames"),
            ("synthetic_n_coords = 0", "synthetic_n_coords"),
            ("synthetic_base_velocity = -inf", "synthetic_base_velocity"),
            ("synthetic_velocity_gap = inf", "synthetic_velocity_gap"),
            ("synthetic_acceleration_gap = nan", "synthetic_acceleration_gap"),
            ("synthetic_noise_sd = nan", "synthetic_noise_sd"),
            ("synthetic_noise_sd = -0.1", "synthetic_noise_sd"),
            ("synthetic_intercept_sd = inf", "synthetic_intercept_sd"),
            ("synthetic_ripple_gap = nan", "synthetic_ripple_gap"),
            ("synthetic_signal_gap = nan", "synthetic_signal_gap"),
            # a tag equal to the other one names both keys
            ("synthetic_wild_tag = mut_syn", "synthetic_wild_tag"),
            ("synthetic_wild_tag = mut_syn", "synthetic_mutated_tag"),
            ("synthetic_mutated_tag = wt_syn", "synthetic_wild_tag"),
            ("synthetic_wild_tag =", "synthetic_wild_tag"),
            ("synthetic_mutated_tag =", "synthetic_mutated_tag"),
        ],
    )
    @pytest.mark.parametrize("source", ["synthetic", "csv"])
    def test_classifier_and_training_keys_checked_at_parse(
        self, tmp_path, monkeypatch, capsys, line, key, source
    ):
        # every key is rejected whichever classifiers are configured
        if source == "synthetic":
            name = line.split(" ")[0]
            text = "".join(l + "\n" for l in TINY.strip().splitlines() if not l.startswith(name + " "))
        else:
            text = "dataset = d.csv\npairings = a:b\n"
        cfg = write_config(tmp_path, text + line + "\n")
        monkeypatch.setattr(cli, "generate_synthetic", refuse)
        monkeypatch.setattr(cli, "load_csv", refuse)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == 1
        assert f"config key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "line,message",
        [
            ("classifiers =", "classifiers list is empty"),
            ("pairings = wt_syn:wt_syn", "pairings entry wt_syn:wt_syn needs two distinct non-empty tags"),
            ("pairings = wt_syn:", "pairings entry wt_syn: needs two distinct non-empty tags"),
            ("pairings = wt_syn:mut_syn, wt_syn:mut_syn", "pairings list contains duplicates"),
            ("jobs = 0", "jobs must be >= 1, got 0"),
            ("classifiers = ncl, ncl", "classifiers list contains duplicates"),
        ],
    )
    def test_classifiers_and_pairings_checked_at_parse(self, tmp_path, monkeypatch, capsys, line, message):
        name = line.split(" ")[0]
        text = "".join(l + "\n" for l in TINY.strip().splitlines() if not l.startswith(name + " "))
        cfg = write_config(tmp_path, text + line + "\n")
        monkeypatch.setattr(cli, "generate_synthetic", refuse)
        monkeypatch.setattr(cli, "load_csv", refuse)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "raw,message",
        [
            ({"classifiers": "", "pairings": "wt_syn:wt_syn"}, "pairings entry wt_syn:wt_syn needs two distinct non-empty tags"),
            ({"classifiers": "ncl, ncl", "epochs": "0"}, "config key 'epochs': need at least 1 epoch, got 0"),
            ({"classifiers": "linear_svm, forest", "svm_c": "0"}, "config key 'classifiers': unknown classifier kind 'forest'"),
            ({"classifiers": "forest, forest"}, "classifiers list contains duplicates"),
        ],
        ids=["pairings-first", "training-keys-first", "list-before-settings", "repeats-before-kinds"],
    )
    def test_classifier_list_checked_after_pairings_and_training_keys(self, raw, message):
        # the list rules are the classifier spec's, checked before the
        # settings its kinds share and after the keys checked ahead of it
        with pytest.raises(ConfigError) as caught:
            build_run_config(raw)
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "lines,message",
        [
            (
                "synthetic_wild_tag = mut_syn",
                "config key 'synthetic_wild_tag' and config key 'synthetic_mutated_tag': "
                "wild_tag and mutated_tag must differ, both are 'mut_syn'",
            ),
            ("synthetic_mutated_tag =", "config key 'synthetic_mutated_tag': mutated_tag must be non-empty"),
        ],
    )
    def test_synthetic_tags_checked_before_generate(self, tmp_path, monkeypatch, capsys, lines, message):
        cfg = write_config(tmp_path, TINY + lines + "\n")
        monkeypatch.setattr(cli, "generate_synthetic", refuse)
        assert main(["generate", "--config", cfg, "--out", str(tmp_path / "d.csv")]) == 1
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [tmp_path / "run.cfg"]

    def test_swapped_synthetic_tags_accepted(self):
        cfg = build_run_config({"synthetic_wild_tag": "mut_syn", "synthetic_mutated_tag": "wt_syn"})
        assert (cfg.synthetic.wild_tag, cfg.synthetic.mutated_tag) == ("mut_syn", "wt_syn")

    def test_training_frames_bound_pca(self):
        # 2 + 2 samples in 2 folds: 2 training samples of 3 frames, so at
        # most 5 components even with 10 coordinates
        cfg = RunConfig(pca_components=6, window_length=3, folds=2)
        with pytest.raises(ConfigError, match="at most 5 for 10 coordinates and 6 training frames"):
            check_runnable(cfg, 3, 10, (2, 2))
        check_runnable(RunConfig(pca_components=5, window_length=3, folds=2), 3, 10, (2, 2))


class TestReport:
    def make_results(self, tmp_path, rows):
        payload = {
            "format": "rootgrowth-results",
            "schema_version": 1,
            "run_id": "abc",
            "seed": 0,
            "classifier_labels": ["NCL"],
            "config": {},
            "rows": rows,
        }
        path = tmp_path / "results.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def row(self, wild, mutated, err=0.125):
        return {
            "wild_tag": wild,
            "mutated_tag": mutated,
            "n_samples": 10,
            "windows": [],
            "best": {"NCL": {"window": [5, 12], "error": err}},
            "row_best_label": "NCL",
            "row_best_frames": [5, 12],
        }

    def test_sorts_rows_by_pairing(self, tmp_path, capsys):
        path = self.make_results(
            tmp_path, [self.row("wtB", "mutB"), self.row("wtA", "mutA")]
        )
        assert main(["report", path]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split()[:2] == ["NCL", "Best"]
        assert lines[1].split() == ["%12.50", "5-12", "wtA", "mutA"]
        assert lines[2].split() == ["%12.50", "5-12", "wtB", "mutB"]

    def test_empty_results(self, tmp_path, capsys):
        path = self.make_results(tmp_path, [])
        assert main(["report", path]) == 0
        assert capsys.readouterr().out.strip() == "no runs"

    def test_unknown_schema_version(self, tmp_path, capsys):
        payload = json.loads((tmp_path / "x").write_text("") or "{}")  # placeholder
        path = tmp_path / "results.json"
        path.write_text(json.dumps({"format": "rootgrowth-results", "schema_version": 7}))
        assert main(["report", str(path)]) == 2
        err = capsys.readouterr().err
        assert "7" in err and "expected 1" in err

    @pytest.mark.parametrize(
        "payload",
        [
            [1, 2],
            {"format": "rootgrowth-results", "schema_version": 1},
            "row without mutated_tag",
        ],
        ids=["top-level-array", "no-rows", "row-without-mutated-tag"],
    )
    def test_malformed_results_are_data_errors(self, tmp_path, capsys, payload):
        if payload == "row without mutated_tag":
            row = self.row("wtA", "mutA")
            del row["mutated_tag"]
            path = self.make_results(tmp_path, [row])
        else:
            path = tmp_path / "results.json"
            path.write_text(json.dumps(payload))
        assert main(["report", str(path)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err

    def test_table_csv_out(self, tmp_path, capsys):
        path = self.make_results(tmp_path, [self.row("wtA", "mutA")])
        out = tmp_path / "rep"
        assert main(["report", path, "--out", str(out)]) == 0
        table = (out / "table.csv").read_text().splitlines()
        assert table[0] == "NCL,Best Frames,Wild Type,Mutated Type"
        assert table[1] == "%12.50,5-12,wtA,mutA"


class TestPcaFit:
    def test_components_honoured(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        main(["generate", "--config", write_config(tmp_path, TINY), "--out", str(data)])
        out = tmp_path / "m.pca"
        assert main(["pca-fit", str(data), "--components", "2", "--out", str(out)]) == 0
        assert "2 components" in capsys.readouterr().out
        assert out.exists()

    def test_components_clamped_to_data_rank(self, tmp_path, capsys):
        data = tmp_path / "d.csv"  # 3 coordinates
        main(["generate", "--config", write_config(tmp_path, TINY), "--out", str(data)])
        capsys.readouterr()
        features = tmp_path / "f.csv"
        assert main(["features-export", str(data), "--out", str(features)]) == 0  # pca_components = 30
        assert "note: clamping components 30 -> 3 for data of shape (240, 3)" in capsys.readouterr().out
        header = features.read_text().splitlines()[0].split(",")
        assert header[:5] == ["sample_id", "label", "f0_pc0", "f0_pc1", "f0_pc2"]
        assert {name.split("_")[1] for name in header[2:]} == {"pc0", "pc1", "pc2"}
        assert main(["pca-fit", str(data), "--components", "9", "--out", str(tmp_path / "m.pca")]) == 0
        out = capsys.readouterr().out
        assert "note: clamping components 9 -> 3" in out and "3 components over 240 frames" in out

    @pytest.mark.parametrize("value", ["0", "-2", "x"])
    def test_components_below_one_is_usage_error(self, tmp_path, capsys, value):
        # rejected while parsing, before the (missing) CSV is read
        missing = str(tmp_path / "missing.csv")
        assert main(["pca-fit", missing, "--components", value]) == 1
        assert "--components" in capsys.readouterr().err


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert main(["run", "--bogus"]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "folds = 0\n")
        assert main(["run", "--config", cfg]) == 1
        assert "folds" in capsys.readouterr().err

    def test_negative_seed_is_config_error(self, tmp_path, capsys):
        assert main(["generate", "--seed", "-1", "--out", str(tmp_path / "d.csv")]) == 1
        assert "seed must be non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["pca-fit", "features-export"])
    def test_seed_flag_only_where_randomness_is_drawn(self, tmp_path, capsys, command):
        # rejected while parsing, before the (missing) CSV is read
        assert main([command, str(tmp_path / "missing.csv"), "--seed", "3"]) == 1
        assert "--seed" in capsys.readouterr().err


    @pytest.mark.parametrize("command", ["run", "pca-fit"])
    def test_csv_not_utf8_is_data_error(self, tmp_path, capsys, command):
        data = tmp_path / "tracks.csv"
        data.write_bytes(b"sample_id,group_tag,label,frame_index,v0\n\xff,wt,wild,0,1.0\n")
        if command == "run":
            argv = ["run", "--config", write_config(tmp_path, f"dataset = {data}\n")]
        else:
            argv = ["pca-fit", str(data)]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: load-dataset: {data}: not UTF-8 text")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["run", "pca-fit"])
    def test_csv_field_over_size_limit_is_data_error(self, tmp_path, capsys, command):
        # csv refuses a field over 131 072 characters; the quotes send the
        # line through csv
        long_id = '"' + "s" * 140_000 + '"'
        rows = [f"{sid},{tag},{label},{f},0.5" for sid, tag, label in
                ((long_id, "wt", "wild"), ("t", "mut", "mutated")) for f in range(3)]
        data = tmp_path / "tracks.csv"
        data.write_text("sample_id,group_tag,label,frame_index,v0\n" + "\n".join(rows) + "\n")
        if command == "run":
            argv = ["run", "--config", write_config(tmp_path, f"dataset = {data}\n")]
        else:
            argv = ["pca-fit", str(data)]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: load-dataset: {data}:2: field larger than field limit")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["generate", "run"])
    def test_config_not_utf8_is_config_error(self, tmp_path, capsys, command):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"folds = 3\xff\n")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: not UTF-8 text (invalid start byte)")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_manifest_not_utf8_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        rows = [f"{sid},{sid},{label},{f},{f}" for sid, label in (("a", "wild"), ("b", "mutated")) for f in range(3)]
        data.write_text("sample_id,group_tag,label,frame_index,v0\n" + "\n".join(rows) + "\n")
        manifest = tmp_path / "d.manifest"
        manifest.write_bytes(b"n_frames=5\n\xff\n")
        assert main(["pca-fit", str(data), "--out", str(tmp_path / "m.pca")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: load-dataset: {manifest}: not UTF-8 text")

    def test_manifest_line_without_equals_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        assert main(["generate", "--config", write_config(tmp_path, TINY), "--out", str(data)]) == 0
        manifest = tmp_path / "d.manifest"
        manifest.write_text("n_frames=24\nwild_tag\n")
        assert main(["pca-fit", str(data), "--out", str(tmp_path / "m.pca")]) == 2
        assert capsys.readouterr().err.startswith(f"error: load-dataset: {manifest}:2: expected key=value")

    def test_results_not_json_is_data_error(self, tmp_path, capsys):
        results = tmp_path / "r.json"
        results.write_text("rows: []\n")
        assert main(["report", str(results)]) == 2
        assert capsys.readouterr().err.startswith(f"error: read-results: {results}: not a JSON results file")

    def test_numeric_failure_exits_3(self, tmp_path, capsys):
        # coordinates near 1e200 overflow the fold PCA's variances
        rows = [
            f"s{i},{('wt', 'mut')[i % 2]},{('wild', 'mutated')[i % 2]},{f},"
            + ",".join(f"{((i * 12 + f) * 3 + j) % 7 - 3}e200" for j in range(3))
            for i in range(6) for f in range(12)
        ]
        data = tmp_path / "tracks.csv"
        data.write_text("sample_id,group_tag,label,frame_index,v0,v1,v2\n" + "\n".join(rows) + "\n")
        cfg = write_config(tmp_path, (
            f"dataset = {data}\npairings = wt:mut\npca_components = 2\nwindow_length = 6\n"
            "folds = 3\nclassifiers = linear_svm\n"
        ))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == 3
        assert capsys.readouterr().err.startswith("error: window-search: fold 0: PCA variances overflow")
        assert not (tmp_path / "r").exists()

    def test_overflowing_kernel_width_exits_3(self, tmp_path, capsys):
        # every other sample scaled to about 1e153: a training fold's median
        # distance is finite, but the Gaussian kernel's 2 sigma^2 overflows
        rng = np.random.default_rng(1)
        frames = np.stack([rng.standard_normal((6, 2)) * (1.5e153 if i % 2 == 0 else 1.0) for i in range(8)])
        labels = [0] * 4 + [1] * 4
        data = tmp_path / "tracks.csv"
        write_csv(Dataset(frames, [f"s{i}" for i in range(8)], [LABELS[c] for c in labels], labels), data)
        cfg = write_config(tmp_path, (
            f"dataset = {data}\npairings = wild:mutated\npca_components = 1\nwindow_length = 6\n"
            "folds = 2\nclassifiers = gaussian_svm\n"
        ))
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == 3
        err = capsys.readouterr().err
        assert re.match(r"error: window-search: window \(0, 5\), fold \d: gaussian kernel width .* overflows", err)
        assert not (tmp_path / "r").exists()

    def test_results_not_utf8_is_data_error(self, tmp_path, capsys):
        results = tmp_path / "r.json"
        results.write_bytes(b"\xff")
        assert main(["report", str(results)]) == 2
        assert capsys.readouterr().err.startswith(f"error: read-results: {results}: not UTF-8 text")

    def test_stage_annotates_errors_it_cannot_rebuild(self):
        def decode():
            return b"\xff".decode("utf-8")

        # UnicodeDecodeError takes five arguments, not one message
        with pytest.raises(ValueError, match="^load-dataset: 'utf-8' codec can't decode"):
            cli._stage("load-dataset", decode)


class TestMemory:
    @pytest.mark.parametrize("source", ["csv", "synthetic"])
    def test_full_dataset_released_before_the_searches(self, tmp_path, monkeypatch, source):
        # each pairing holds a copy of its rows, so the loaded or generated
        # dataset must be gone by the time the first window search starts
        if source == "csv":
            data = tmp_path / "d.csv"
            assert main(["generate", "--config", write_config(tmp_path, TINY), "--out", str(data)]) == 0
            text = (
                f"dataset = {data}\npairings = wt_syn:mut_syn, mut_syn:wt_syn\npca_components = 2\n"
                "window_length = 8\nwindow_stride = 8\nfolds = 2\nclassifiers = linear_svm\n"
            )
        else:
            text = TINY
        refs, released = [], []

        def keep(make):
            def wrapper(*args, **kwargs):
                ds = make(*args, **kwargs)
                refs.append(weakref.ref(ds))
                return ds

            return wrapper

        search = cli.window_search

        def checked(*args, **kwargs):
            gc.collect()
            released.append(refs[0]() is None)
            return search(*args, **kwargs)

        monkeypatch.setattr(cli, "load_csv", keep(cli.load_csv))
        monkeypatch.setattr(cli, "generate_synthetic", keep(cli.generate_synthetic))
        monkeypatch.setattr(cli, "window_search", checked)
        cfg = write_config(tmp_path, text, name="r.cfg")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == 0
        assert len(refs) == 1
        assert released == [True] * (2 if source == "csv" else 1)


BENCH = Path(__file__).resolve().parent.parent / "perfbench"


class TestBenchmarkHooks:
    def test_wrapped_attributes_exist(self):
        # perfbench/child.py wraps these attributes by name for its traced
        # per-layer split; a rename would only show in a traced benchmark run
        from rootgrowth import ensembles, evaluation, features

        hooks = {
            cli: ("load_run_config", "run_protocol", "cmd_run", "write_results_csv", "render_table",
                  "generate_synthetic", "load_csv", "split_by_pairing", "window_search"),
            evaluation: ("fit_fold_pca", "dataset_scores"),
            features: ("assemble", "slice_features"),
            svm: ("train_smo", "decision_function"),
            ensembles: ("train_me", "predict_batch"),
        }
        for module, names in hooks.items():
            for name in names:
                assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
        assert inspect.signature(svm.train_smo).parameters["tol"].default == svm.SMO_TOL
        assert {"ncl", "gated_ncl", "mnce"} <= set(ensembles.TRAINERS)

    @pytest.mark.parametrize("source", ["csv", "synthetic"])
    def test_traced_run_reads_the_real_objects(self, tmp_path, monkeypatch, source):
        # the wrapped calls' attributes are read from the objects a real
        # run passes and returns; a broken one fails the traced run
        monkeypatch.syspath_prepend(str(BENCH))
        import analysis
        import workloads

        common = dict(why="", n_frames=12, window_length=6, window_stride=6, folds=2, jobs=1)
        if source == "csv":
            groups = (("wtA", "wild"), ("mutA", "mutated"), ("wtB", "wild"), ("mutB", "mutated"))
            shape = workloads.CsvShape(groups=groups, per_group=3, n_frames=12, n_coords=4)
            workload = workloads.Workload(
                name="tiny-csv", classifiers=("linear_svm", "gaussian_svm"),
                keys=(("pca_components", 2),), pairings=(("wtA", "mutA"), ("wtB", "mutB")), csv=shape,
                **common,
            )
            dataset = tmp_path / "tracks.csv"
            workloads.write_tracks_csv(dataset, shape, 0)
            rows_parsed = len(groups) * 3 * 12
        else:
            workload = workloads.Workload(
                name="tiny-synthetic", classifiers=workloads.ALL_CLASSIFIERS,
                keys=(("synthetic_n_per_class", 3), ("synthetic_n_frames", 12), ("synthetic_n_coords", 3),
                      ("pca_components", 2), ("epochs", 1)),
                **common,
            )
            dataset = "synthetic"
            rows_parsed = 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text(workload.config_text(0, str(dataset)))
        stamp = tmp_path / "stamp.json"
        src = Path(rootgrowth.__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), str(src), str(stamp), "1", "--",
             "run", "--config", str(cfg), "--out", str(tmp_path / "out")],
            cwd=tmp_path, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        spans = json.loads(stamp.read_text())["spans"]
        assert analysis.coverage_problems(spans, workload) == []
        metrics = analysis.layer_metrics(spans)
        n_pairings = len(workload.pairings)
        # 3 + 3 samples per pairing; each of the 2 folds trains on one of 2 halves
        assert metrics["dataset.rows_parsed"] == rows_parsed
        assert metrics["pca.fit_calls"] == 2 * n_pairings
        assert metrics["pca.rows_fitted"] == n_pairings * 2 * 3 * 12
        if source == "synthetic":
            # each fit's experts, M networks of H hidden neurons over the
            # window's 3L - 3 frame vectors of k = 2 scores, plus a gate with
            # one output per expert for the three gated kinds (4128 and 5280
            # bytes, mean 4992)
            m, hid = RunConfig.n_experts, RunConfig.hidden
            columns = (3 * workload.window_length - 3) * 2
            experts = 8 * m * (hid * (columns + 1) + hid + 1)
            gate = 8 * (hid * (columns + 1) + m * (hid + 1))
            assert metrics["ensembles.weight_bytes"] == (experts + 3 * (experts + gate)) / 4
            # 3 training rows per fold and 1 epoch; gated NCL steps through
            # them twice, once per stage (60 steps)
            steps_per_epoch = 1 + 2 + 1 + 1
            assert metrics["ensembles.pattern_steps"] == workload.fits_per_classifier * 3 * steps_per_epoch


class TestRenderTable:
    def test_column_alignment(self):
        payload = {
            "classifier_labels": ["NCL", "ME"],
            "rows": [
                {
                    "wild_tag": "wtS2",
                    "mutated_tag": "331S2",
                    "best": {
                        "NCL": {"window": [91, 131], "error": 0.125},
                        "ME": {"window": [50, 89], "error": 0.2523},
                    },
                    "row_best_label": "NCL",
                    "row_best_frames": [91, 131],
                }
            ],
        }
        text = render_table(payload)
        lines = text.splitlines()
        assert lines[0].index("Best Frames") > lines[0].index("ME")
        assert "%12.50" in lines[1] and "%25.23" in lines[1]
        assert "91-131" in lines[1]
        assert lines[1].endswith("331S2")

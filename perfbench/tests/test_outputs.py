"""Output checks on real and doctored results files, and the failed-run count."""

import json

import pytest

import analysis
import run
from rootgrowth import cli
from workloads import Workload

TINY = Workload(
    name="tiny",
    why="test",
    classifiers=("linear_svm", "gaussian_svm"),
    n_frames=24,
    window_length=8,
    window_stride=8,
    folds=2,
    jobs=1,
    keys=(
        ("synthetic_n_per_class", 4),
        ("synthetic_n_frames", 24),
        ("synthetic_n_coords", 3),
        ("synthetic_velocity_gap", 0.02),
        ("pca_components", 2),
    ),
)


@pytest.fixture
def outputs(tmp_path):
    """Result files of one real run of the tiny workload."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY.config_text(3, "synthetic"))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    return out


def check(out):
    rep = run.Rep(seed=3, jobs=1, traced=False)
    run.Runner(TINY, out.parent, cli.load_results).check_outputs(rep, out)
    return rep


def doctor(out, edit):
    path = out / "results.json"
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


def test_real_outputs_pass(outputs):
    rep = check(outputs)
    assert rep.ok, rep.problems
    assert len(rep.cells) == len(TINY.windows) * len(TINY.classifiers)
    assert set(rep.digests) == set(run.OUTPUT_FILES)


def test_error_outside_unit_interval_fails(outputs):
    doctor(outputs, lambda p: p["rows"][0]["windows"][1]["errors"].update({"Linear-SVM": 1.5}))
    rep = check(outputs)
    assert not rep.ok
    assert "outside [0, 1]" in rep.problems[0]


def test_missing_cell_fails(outputs):
    doctor(outputs, lambda p: p["rows"][0]["windows"][2]["errors"].pop("Gaussian-SVM"))
    rep = check(outputs)
    assert any("no Gaussian-SVM error" in p for p in rep.problems)


def test_file_load_results_rejects_fails(outputs):
    doctor(outputs, lambda p: p.update({"schema_version": 99}))
    rep = check(outputs)
    assert rep.problems and "invalid results" in rep.problems[0]


def test_missing_output_file_fails(outputs):
    (outputs / "table.txt").unlink()
    assert not check(outputs).ok


def test_doctored_error_shows_as_drift(outputs):
    reference = check(outputs).cells
    doctor(outputs, lambda p: p["rows"][0]["windows"][0]["errors"].update({"Linear-SVM": 0.0}))
    drifted = check(outputs)
    assert drifted.ok
    original = reference[("wt_syn", "mut_syn", 0, 7, "Linear-SVM")]
    assert analysis.error_drift(drifted.cells, reference) == pytest.approx(original)


def test_reps_whose_files_differ_count_as_failed():
    reps = [run.Rep(0, 1, False, digests={"results.json": "a"}) for _ in range(3)]
    reps[1].digests = {"results.json": "b"}
    reps.append(run.Rep(0, 1, False, problems=["exit code 2: error"]))
    assert run.mark_mismatches(reps) is reps[0]
    assert sum(not r.ok for r in reps) == 2
    assert reps[1].problems == ["result files differ from the first rep's"]


def test_stored_references_cover_every_cell():
    for name, workload in run.WORKLOADS.items():
        cells = run.load_reference(name)
        assert len(cells) == len(workload.windows) * len(workload.classifiers) * len(workload.pairings)

"""The tracks CSV generator and agreement between the code and BENCHMARK.json."""

import json
from pathlib import Path

import analysis
import run
from rootgrowth.dataset import load_csv
from workloads import WORKLOADS, CsvShape, write_tracks_csv

SMALL = CsvShape(groups=(("wtA", "wild"), ("mutA", "mutated")), per_group=3, n_frames=12, n_coords=4)


def test_csv_generator_bytes_depend_only_on_the_seed(tmp_path):
    paths = {}
    for label, seed in (("a", 7), ("b", 7), ("c", 8)):
        paths[label] = tmp_path / f"{label}.csv"
        write_tracks_csv(paths[label], SMALL, seed)
    assert paths["a"].read_bytes() == paths["b"].read_bytes()
    assert paths["a"].read_bytes() != paths["c"].read_bytes()


def test_csv_generator_writes_program_input(tmp_path):
    path = tmp_path / "tracks.csv"
    write_tracks_csv(path, SMALL, 1)
    ds = load_csv(path)
    assert ds.n_samples == 6
    assert (ds.n_frames, ds.n_coords) == (12, 4)
    assert sorted(set(ds.group_tags())) == ["mutA", "wtA"]


def test_csv_pairings_shape():
    shape = WORKLOADS["csv-pairings"].csv
    assert len(shape.groups) * shape.per_group * shape.n_frames == 12000
    assert shape.n_coords == 60


def test_benchmark_json_names_what_the_code_reports():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == ["ensemble-narrow-jobs2", "csv-pairings"]
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in spec["workloads"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == analysis.LAYER_METRICS

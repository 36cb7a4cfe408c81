"""Results from a tracks CSV, byte for byte.

`csv_path/run.cfg` runs all seven classifiers on two pairings of the
committed `csv_path/tracks.csv`, with every SVM and ensemble key off its
default, so the loader, the pairing split and each classifier setting
reach the results. Its three results files must equal the ones next to
it. To regenerate them, after a change that is meant to move results:

    cd tests/csv_path && PYTHONPATH=../../src python -m rootgrowth run --config run.cfg --out .
"""

from pathlib import Path

from rootgrowth import cli

HERE = Path(__file__).parent / "csv_path"
OUTPUT_FILES = ("results.json", "results.csv", "table.txt")


def test_csv_path_results_are_byte_identical(tmp_path, monkeypatch):
    # the config names its CSV relative to its own directory, and results.json records that name
    monkeypatch.chdir(HERE)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", "run.cfg", "--out", str(out)]) == 0
    differing = [name for name in OUTPUT_FILES if (out / name).read_bytes() != (HERE / name).read_bytes()]
    assert not differing, f"{', '.join(differing)} differ"

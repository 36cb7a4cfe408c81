"""Results at the paper's feature width, byte for byte.

`paper_width/run.cfg` runs all seven classifiers on 3510 columns (40
frames of 30 PCA scores with their velocity and acceleration blocks),
the width the paper's windows have. Its three results files must equal
the ones in `paper_width/expected/`, so an engine change that flips one
prediction at this width fails here. To regenerate them, after a change
that is meant to move results:

    PYTHONPATH=src python -m rootgrowth run --config tests/paper_width/run.cfg --out tests/paper_width/expected
"""

from pathlib import Path

import numpy as np

from rootgrowth import cli, ensembles

HERE = Path(__file__).parent / "paper_width"
OUTPUT_FILES = ("results.json", "results.csv", "table.txt")


def test_paper_width_results_are_byte_identical(tmp_path, capsys, monkeypatch):
    # the ensembles' test outputs, to show how near 0.5 (a flipped label) they come
    margins = []
    predict_batch = ensembles.predict_batch

    def recording_predict_batch(model, x):
        outputs, labels = predict_batch(model, x)
        margins.append(float(np.min(np.abs(outputs - 0.5))))
        return outputs, labels

    monkeypatch.setattr(ensembles, "predict_batch", recording_predict_batch)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(HERE / "run.cfg"), "--out", str(out)]) == 0
    # 3 windows x 5 folds x 4 ensembles
    assert len(margins) == 60
    nearest = f"nearest ensemble output to 0.5 at {min(margins):.3g}"
    differing = [
        name for name in OUTPUT_FILES
        if (out / name).read_bytes() != (HERE / "expected" / name).read_bytes()
    ]
    assert not differing, f"{', '.join(differing)} differ; {nearest}"
    with capsys.disabled():
        print(f"\npaper-width results: PASS, {nearest}", flush=True)

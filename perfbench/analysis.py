"""Pure functions the benchmark computes its metrics and checks with.

Spans are the dicts `child.Recorder` writes: id, parent, name, start, end
and attrs. Results payloads are parsed `results.json` files.
"""

from __future__ import annotations

import statistics

from workloads import FIT_KIND

SVM_KINDS = tuple(kind for layer, kind in FIT_KIND.values() if layer == "svm")
ENSEMBLE_VARIANTS = tuple(kind for layer, kind in FIT_KIND.values() if layer == "ensembles")
FIT_SPANS = {"svm": "svm.train_smo", "ensembles": "ensembles.train"}

# Every per-layer metric: name -> (unit, which direction is better).
LAYER_METRICS = {
    "dataset.generate_s": ("s", "lower"),
    "dataset.load_csv_s": ("s", "lower"),
    "dataset.rows_parsed": ("count", "lower"),
    "dataset.split_s": ("s", "lower"),
    "pca.fit_s": ("s", "lower"),
    "pca.fit_calls": ("count", "lower"),
    "pca.rows_fitted": ("count", "lower"),
    "pca.transform_s": ("s", "lower"),
    "features.assemble_s": ("s", "lower"),
    "features.slice_s": ("s", "lower"),
    "features.slice_calls": ("count", "lower"),
    "features.slice_bytes": ("bytes", "lower"),
    **{
        f"svm.{kind}.{metric}": (unit, "lower")
        for kind in SVM_KINDS
        for metric, unit in (("train_s", "s"), ("fits", "count"), ("fit_ms_p50", "ms"))
    },
    "svm.decision_s": ("s", "lower"),
    "svm.unconverged": ("count", "lower"),
    "svm.support_vectors_mean": ("count", "lower"),
    "svm.gram_bytes": ("bytes", "lower"),
    **{
        f"ensembles.{variant}.{metric}": (unit, "lower")
        for variant in ENSEMBLE_VARIANTS
        for metric, unit in (("train_s", "s"), ("fits", "count"), ("fit_ms_p50", "ms"))
    },
    "ensembles.pattern_steps": ("count", "lower"),
    "ensembles.steps_per_s": ("steps/s", "higher"),
    "ensembles.predict_s": ("s", "lower"),
    "ensembles.weight_bytes": ("bytes", "lower"),
    "evaluation.window_search_s": ("s", "lower"),
    "evaluation.self_s": ("s", "lower"),
    "evaluation.windows": ("count", "lower"),
    "evaluation.fits": ("count", "lower"),
    "evaluation.pool_efficiency": ("ratio", "higher"),
    "cli.import_s": ("s", "lower"),
    "cli.config_s": ("s", "lower"),
    "cli.write_s": ("s", "lower"),
    "cli.output_bytes": ("bytes", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as `statistics.quantiles` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of [start, end] that the union of `intervals` covers."""
    total = 0.0
    reach = start
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, end)
        if e > s:
            total += e - s
            reach = e
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> its duration minus the time its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"]) - covered(children.get(s["id"], []), s["start"], s["end"])
        for s in spans
    }


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced run, except the ones that need other runs
    (`evaluation.pool_efficiency`, `cli.output_bytes`, `trace.overhead_s`)."""
    named: dict[str, list[dict]] = {}
    for s in spans:
        named.setdefault(s["name"], []).append(s)

    def total(name: str) -> float:
        return sum(_duration(s) for s in named.get(name, []))

    def attr_sum(name: str, key: str) -> int:
        return sum(s["attrs"][key] for s in named.get(name, []))

    m: dict[str, float] = {
        "dataset.generate_s": total("dataset.generate_synthetic"),
        "dataset.load_csv_s": total("dataset.load_csv"),
        "dataset.rows_parsed": attr_sum("dataset.load_csv", "rows"),
        "dataset.split_s": total("dataset.split_by_pairing"),
        "pca.fit_s": total("evaluation.fit_fold_pca"),
        "pca.fit_calls": len(named.get("evaluation.fit_fold_pca", [])),
        "pca.rows_fitted": attr_sum("evaluation.fit_fold_pca", "rows"),
        "pca.transform_s": total("evaluation.dataset_scores"),
        "features.assemble_s": total("features.assemble"),
        "features.slice_s": total("features.slice_features"),
        "features.slice_calls": len(named.get("features.slice_features", [])),
        "features.slice_bytes": attr_sum("features.slice_features", "bytes"),
    }

    for layer, kinds in (("svm", SVM_KINDS), ("ensembles", ENSEMBLE_VARIANTS)):
        fits = named.get(FIT_SPANS[layer], [])
        for kind in kinds:
            mine = [_duration(s) for s in fits if s["attrs"]["kind"] == kind]
            m[f"{layer}.{kind}.train_s"] = sum(mine)
            m[f"{layer}.{kind}.fits"] = len(mine)
            m[f"{layer}.{kind}.fit_ms_p50"] = 1000.0 * statistics.median(mine) if mine else 0.0

    smo = named.get("svm.train_smo", [])
    m["svm.decision_s"] = total("svm.decision_function")
    m["svm.unconverged"] = sum(s["attrs"]["kkt_residual"] > s["attrs"]["tol"] for s in smo)
    m["svm.support_vectors_mean"] = statistics.mean(s["attrs"]["n_support"] for s in smo) if smo else 0.0
    m["svm.gram_bytes"] = attr_sum("svm.train_smo", "gram_bytes")

    ens = named.get("ensembles.train", [])
    ens_time = total("ensembles.train")
    m["ensembles.pattern_steps"] = attr_sum("ensembles.train", "pattern_steps")
    m["ensembles.steps_per_s"] = m["ensembles.pattern_steps"] / ens_time if ens_time else 0.0
    m["ensembles.predict_s"] = total("ensembles.predict_batch")
    m["ensembles.weight_bytes"] = statistics.mean(s["attrs"]["weight_bytes"] for s in ens) if ens else 0.0

    selfs = self_times(spans)
    searches = named.get("evaluation.window_search", [])
    m["evaluation.window_search_s"] = total("evaluation.window_search")
    m["evaluation.self_s"] = sum(selfs[s["id"]] for s in searches)
    m["evaluation.windows"] = attr_sum("evaluation.window_search", "windows")
    m["evaluation.fits"] = len(smo) + len(ens)

    m["cli.import_s"] = total("cli.import")
    m["cli.config_s"] = total("cli.load_run_config")
    runs = {s["id"]: s for s in named.get("cli.cmd_run", [])}
    m["cli.write_s"] = sum(
        runs[s["parent"]]["end"] - s["end"] for s in named.get("cli.run_protocol", []) if s["parent"] in runs
    )
    m["trace.spans"] = len(spans)
    return m


def coverage_problems(spans: list[dict], workload) -> list[str]:
    """Fit spans per classifier kind must equal windows x folds x pairings."""
    problems = []
    for classifier, (layer, kind) in FIT_KIND.items():
        want = workload.fits_per_classifier if classifier in workload.classifiers else 0
        got = sum(1 for s in spans if s["name"] == FIT_SPANS[layer] and s["attrs"]["kind"] == kind)
        if got != want:
            problems.append(f"trace has {got} {layer} {kind} fit spans, expected {want}")
    return problems


def result_cells(payload: dict) -> dict[tuple, float]:
    """(wild tag, mutated tag, start, end, classifier label) -> CV error."""
    return {
        (row["wild_tag"], row["mutated_tag"], win["start"], win["end"], label): err
        for row in payload["rows"]
        for win in row["windows"]
        for label, err in win["errors"].items()
    }


def result_problems(payload: dict, workload) -> list[str]:
    """Missing pairing, window or classifier cells, and errors outside [0, 1]."""
    labels = payload["classifier_labels"]
    problems = []
    if len(labels) != len(workload.classifiers):
        problems.append(f"{len(labels)} classifier labels, expected {len(workload.classifiers)}")
    cells = result_cells(payload)
    for wild, mutated in workload.pairings:
        for start, end in workload.windows:
            for label in labels:
                err = cells.get((wild, mutated, start, end, label))
                if err is None:
                    problems.append(f"no {label} error for {wild}:{mutated} window {start}-{end}")
                elif not (isinstance(err, (int, float)) and 0.0 <= err <= 1.0):
                    problems.append(f"{label} error {err!r} outside [0, 1] in window {start}-{end}")
    return problems


def error_drift(cells: dict[tuple, float], reference: dict[tuple, float]) -> float:
    """Largest absolute error difference over all cells; a cell only one side has counts 1."""
    drift = 0.0
    for key in cells.keys() | reference.keys():
        if key in cells and key in reference:
            drift = max(drift, abs(cells[key] - reference[key]))
        else:
            drift = 1.0
    return drift

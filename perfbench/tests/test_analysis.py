"""Self time, layer metrics, the fit-span coverage check and error drift."""

import pytest

import analysis
from workloads import FIT_KIND, WORKLOADS


def span(span_id, parent, name, start, end, **attrs):
    return {"id": span_id, "parent": parent, "name": name, "start": start, "end": end, "attrs": attrs}


def test_self_time_subtracts_the_union_of_direct_children():
    spans = [
        span(0, None, "root", 0.0, 10.0),
        span(1, 0, "a", 1.0, 4.0),
        span(2, 0, "b", 3.0, 6.0),  # overlaps a: the union counts once
        span(3, 0, "c", 8.0, 12.0),  # runs past root: clipped at 10
        span(4, 1, "a.child", 2.0, 3.0),  # a grandchild of root
    ]
    selfs = analysis.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert selfs[1] == pytest.approx(3.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0)


def test_evaluation_self_time_leaves_out_layer_children():
    spans = [
        span(0, None, "cli.cmd_run", 0.0, 20.0),
        span(1, 0, "cli.run_protocol", 0.0, 18.5),
        span(2, 1, "evaluation.window_search", 1.0, 11.0, windows=1),
        span(3, 2, "evaluation.fit_fold_pca", 1.0, 2.0, rows=100),
        span(4, 2, "features.slice_features", 2.5, 3.0, bytes=800),
        span(5, 2, "svm.train_smo", 3.0, 7.0, kind="linear", rows=4, kkt_residual=0.5, tol=1e-3,
             n_support=3, gram_bytes=128),
        span(6, 2, "svm.decision_function", 7.0, 7.5),
    ]
    m = analysis.layer_metrics(spans)
    assert m["evaluation.window_search_s"] == pytest.approx(10.0)
    assert m["evaluation.self_s"] == pytest.approx(10.0 - 1.0 - 0.5 - 4.0 - 0.5)
    assert m["pca.rows_fitted"] == 100
    assert m["svm.linear.fit_ms_p50"] == pytest.approx(4000.0)
    assert m["svm.unconverged"] == 1
    assert m["cli.write_s"] == pytest.approx(1.5)
    assert m["ensembles.steps_per_s"] == 0.0  # no ensemble fits in this trace


def fit_spans(workload):
    spans = []
    for classifier in workload.classifiers:
        layer, kind = FIT_KIND[classifier]
        name = analysis.FIT_SPANS[layer]
        for _ in range(workload.fits_per_classifier):
            spans.append(span(len(spans), None, name, 0.0, 1.0, kind=kind))
    return spans


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_coverage_check_fails_when_a_trace_lacks_one_fit(name):
    workload = WORKLOADS[name]
    spans = fit_spans(workload)
    assert analysis.coverage_problems(spans, workload) == []
    missing = spans[:-1]
    problems = analysis.coverage_problems(missing, workload)
    assert len(problems) == 1
    assert f"expected {workload.fits_per_classifier}" in problems[0]


def test_coverage_expects_windows_folds_and_pairings():
    csv = WORKLOADS["csv-pairings"]
    assert csv.fits_per_classifier == 14 * 5 * 2
    stride1 = WORKLOADS["svm-stride1"]
    assert len(stride1.windows) == stride1.n_frames - stride1.window_length + 1


def test_error_drift_is_the_largest_cell_difference():
    reference = {("w", "m", 0, 9, "NCL"): 0.25, ("w", "m", 0, 9, "ME"): 0.5}
    assert analysis.error_drift(dict(reference), reference) == 0.0
    doctored = {("w", "m", 0, 9, "NCL"): 0.3, ("w", "m", 0, 9, "ME"): 0.375}
    assert analysis.error_drift(doctored, reference) == pytest.approx(0.125)
    assert analysis.error_drift({("w", "m", 0, 9, "NCL"): 0.25}, reference) == 1.0


def test_quartiles_match_statistics_quantiles():
    assert analysis.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)
    assert analysis.quartiles([2.0]) == (2.0, 2.0, 2.0)

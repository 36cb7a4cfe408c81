"""Run one `rootgrowth` command in this process and record when things happened.

Usage: python3 child.py SRC STAMP TRACE -- ARGS...

SRC is the absolute `src` directory of the tree under test; the package is
imported from there. ARGS go to `rootgrowth.cli.main`. At exit, STAMP gets
a JSON record: the exit code, the imported package's file, the import
interval and each `window_search` call's interval, all on the monotonic
clock the parent process shares. With TRACE = 1 the record also holds spans
around the calls into each module's public functions; with TRACE = 0 only
`window_search` is timed.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time


class Recorder:
    """Spans kept in memory: name, start, end, parent id and attributes."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def add(self, name: str, start: float, end: float, parent: int | None = None, **attrs) -> int:
        span_id = len(self.spans)
        self.spans.append(
            {"id": span_id, "parent": parent, "name": name, "start": start, "end": end, "attrs": attrs}
        )
        return span_id

    def wrap(self, name: str, fn, attrs=None):
        """`fn` recording one span per call; `attrs(args, kwargs, result)` adds counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span_id = self.add(name, time.monotonic(), 0.0, parent)
            self._stack.append(span_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[span_id]["end"] = time.monotonic()
            if attrs is not None:
                self.spans[span_id]["attrs"] = attrs(args, kwargs, result)
            return result

        return traced


def _rows(ds) -> int:
    return ds.n_samples * ds.n_frames


def _weight_bytes(model) -> int:
    arrays = [a for net in model.experts for a in (net.w_hidden, net.w_out)]
    if model.gate is not None:
        arrays += [model.gate.w_hidden, model.gate.w_out]
    return sum(a.nbytes for a in arrays)


def instrument(rec: Recorder) -> None:
    """Wrap the entry points the CLI and `window_search` call, where they look them up."""
    from rootgrowth import cli, ensembles, evaluation, features, svm

    cli.load_run_config = rec.wrap("cli.load_run_config", cli.load_run_config)
    cli.run_protocol = rec.wrap("cli.run_protocol", cli.run_protocol)
    cli.cmd_run = rec.wrap("cli.cmd_run", cli.cmd_run)
    cli.write_results_csv = rec.wrap("cli.write_results_csv", cli.write_results_csv)
    cli.render_table = rec.wrap("cli.render_table", cli.render_table)
    cli.generate_synthetic = rec.wrap(
        "dataset.generate_synthetic", cli.generate_synthetic, lambda a, k, r: {"rows": _rows(r)}
    )
    cli.load_csv = rec.wrap("dataset.load_csv", cli.load_csv, lambda a, k, r: {"rows": _rows(r)})
    cli.split_by_pairing = rec.wrap("dataset.split_by_pairing", cli.split_by_pairing)
    cli.window_search = rec.wrap(
        "evaluation.window_search", cli.window_search, lambda a, k, r: {"windows": len(r.windows)}
    )

    evaluation.fit_fold_pca = rec.wrap(
        "evaluation.fit_fold_pca",
        evaluation.fit_fold_pca,
        lambda a, k, r: {"rows": len(a[1]) * a[0].n_frames},
    )
    evaluation.dataset_scores = rec.wrap("evaluation.dataset_scores", evaluation.dataset_scores)

    features.assemble = rec.wrap("features.assemble", features.assemble)
    features.slice_features = rec.wrap(
        "features.slice_features", features.slice_features, lambda a, k, r: {"bytes": r.values.nbytes}
    )

    tol_default = inspect.signature(svm.train_smo).parameters["tol"].default

    def smo_attrs(args, kwargs, model):
        n = args[0].shape[0]
        return {
            "kind": model.kernel.kind,
            "rows": n,
            "kkt_residual": model.kkt_residual,
            "tol": kwargs.get("tol", tol_default),
            "n_support": model.n_support,
            "gram_bytes": n * n * 8,
        }

    svm.train_smo = rec.wrap("svm.train_smo", svm.train_smo, smo_attrs)
    svm.decision_function = rec.wrap("svm.decision_function", svm.decision_function)

    def trainer_attrs(variant):
        stages = 2 if variant == "gated_ncl" else 1

        def attrs(args, kwargs, model):
            rows = args[0].shape[0]
            return {
                "kind": variant,
                "rows": rows,
                "pattern_steps": stages * model.config.epochs * rows,
                "weight_bytes": _weight_bytes(model),
            }

        return attrs

    for variant in list(ensembles.TRAINERS):
        ensembles.TRAINERS[variant] = rec.wrap(
            "ensembles.train", ensembles.TRAINERS[variant], trainer_attrs(variant)
        )
    ensembles.train_me = rec.wrap("ensembles.train", ensembles.train_me, trainer_attrs("me"))
    ensembles.predict_batch = rec.wrap("ensembles.predict_batch", ensembles.predict_batch)


def main(argv: list[str]) -> int:
    src, stamp_path, trace = argv[:3]
    if argv[3] != "--":
        raise SystemExit("usage: child.py SRC STAMP TRACE -- ARGS...")
    sys.path.insert(0, src)
    record: dict = {"exit_code": None, "window_search": []}
    try:
        t0 = time.monotonic()
        import rootgrowth
        import rootgrowth.cli as cli

        record["import"] = [t0, time.monotonic()]
        record["rootgrowth_file"] = os.path.abspath(rootgrowth.__file__)
        rec = None
        if trace == "1":
            rec = Recorder(os.urandom(8).hex())
            rec.add("cli.import", *record["import"])
            instrument(rec)
        search = cli.window_search

        def timed_search(*args, **kwargs):
            start = time.monotonic()
            try:
                return search(*args, **kwargs)
            finally:
                record["window_search"].append([start, time.monotonic()])

        cli.window_search = timed_search
        record["exit_code"] = cli.main(argv[4:])
        if rec is not None:
            record["run_id"] = rec.run_id
            record["spans"] = rec.spans
    finally:
        with open(stamp_path, "w") as fh:
            json.dump(record, fh)
    return record["exit_code"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Command-line driver: generate data, run the protocol, render reports.

Subcommands: generate, run, report, pca-fit, features-export. A run
executes the boxed procedure end to end: per-fold PCA, velocity and
acceleration feature assembly, sliding-window search over all
configured classifiers, and a comparison table with one row per group
pairing. Everything is reproducible from (config file, seed): results
files carry no timestamps and rerunning writes identical bytes.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numeric
failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import evaluation, features, pca, svm
from .dataset import LABELS, Dataset, SyntheticConfig, generate_synthetic, load_csv, split_by_pairing, write_csv
from .ensembles import TrainConfig
from .errors import ConfigError, DataFormatError
from .evaluation import TABLE_ORDER, ClassifierSpec, format_error_rate, window_search
from .features import FeatureLayout, WindowSpec
from .seeding import derive

RESULTS_FORMAT = "rootgrowth-results"
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class RunConfig:
    """Resolved run parameters; defaults give the reference protocol shape
    (5 folds, window length 40, 4 hidden neurons, rates 0.15/0.1)."""

    dataset: str = "synthetic"
    pairings: tuple[tuple[str, str], ...] = ()
    classifiers: tuple[str, ...] = TABLE_ORDER
    pca_components: int = 30
    include_velocity: bool = True
    include_acceleration: bool = True
    literal_sum: bool = False
    window_length: int = WindowSpec.length
    window_stride: int = WindowSpec.stride
    folds: int = 5
    seed: int = 0
    jobs: int = 1
    svm_c: float = ClassifierSpec.c
    svm_sigma: float | None = ClassifierSpec.sigma
    svm_a: float | None = ClassifierSpec.a
    svm_b: float = ClassifierSpec.b
    lam: float = ClassifierSpec.lam
    n_experts: int = TrainConfig.n_experts
    hidden: int = TrainConfig.hidden
    epochs: int = TrainConfig.epochs
    eta_experts: float = TrainConfig.eta_experts
    eta_gate: float = TrainConfig.eta_gate
    synthetic: SyntheticConfig = SyntheticConfig()

    def __post_init__(self):
        if self.folds < 2:
            raise ConfigError(f"folds must be >= 2, got {self.folds}")
        if self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {self.jobs}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not self.classifiers:
            raise ConfigError("classifiers list is empty")
        if len(set(self.classifiers)) != len(self.classifiers):
            raise ConfigError("classifiers list contains duplicates")
        for wild, mutated in self.pairings:
            if not wild or not mutated or wild == mutated:
                raise ConfigError(f"pairings entry {wild}:{mutated} needs two distinct non-empty tags")
        if len(set(self.pairings)) != len(self.pairings):
            raise ConfigError("pairings list contains duplicates")
        # the checks of the objects the keys feed; every key is checked,
        # used or not, as a spec checks the fields its kind does not read
        try:
            self.specs()
            FeatureLayout(
                self.window_length, self.pca_components,
                self.include_velocity, self.include_acceleration,
            )
            self.window_spec()
        except ConfigError as exc:
            raise _blamed(exc, lambda name: (_KEY_OF.get(name, name),)) from None

    def window_spec(self) -> WindowSpec:
        return WindowSpec(self.window_length, self.window_stride)

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            n_experts=self.n_experts,
            hidden=self.hidden,
            epochs=self.epochs,
            eta_experts=self.eta_experts,
            eta_gate=self.eta_gate,
            seed=0,  # replaced per fit with a derived sub-seed
        )

    def specs(self) -> list[ClassifierSpec]:
        train = self.train_config()
        out = []
        for kind in self.classifiers:
            out.append(
                ClassifierSpec(
                    kind,
                    c=self.svm_c,
                    sigma=self.svm_sigma,
                    a=self.svm_a,
                    b=self.svm_b,
                    lam=self.lam,
                    train=train,
                )
            )
        return out


# the config key of each field the checks above can blame, where the
# two names differ
_KEY_OF = {
    "kind": "classifiers",
    "c": "svm_c",
    "sigma": "svm_sigma",
    "a": "svm_a",
    "b": "svm_b",
    "n_frames": "window_length",
    "n_components": "pca_components",
    "has_velocity": "include_velocity",
    "has_acceleration": "include_acceleration",
    "length": "window_length",
    "stride": "window_stride",
}


def _synthetic_keys(name: str) -> tuple[str, ...]:
    """The config keys that set a SyntheticConfig field."""
    if name == "signal_window":
        return ("synthetic_signal_start", "synthetic_signal_end")
    return (f"synthetic_{name}",)


def _blamed(exc: ConfigError, keys_of) -> ConfigError:
    """`exc` led by the config keys that set the fields it blames, as
    ``keys_of(field)`` gives them."""
    named = " and ".join(
        ("config key " if len(keys) == 1 else "config keys ") + " and ".join(map(repr, keys))
        for keys in map(keys_of, exc.fields)
    )
    return ConfigError(f"{named}: {exc}" if named else str(exc))


# ---------------------------------------------------------------------------
# Config file parsing (key = value lines)


def _parse_bool(value: str) -> bool:
    low = value.lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected true/false, got {value!r}")


def _parse_pairings(value: str) -> tuple[tuple[str, str], ...]:
    pairs = []
    for tok in value.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if ":" not in tok:
            raise ValueError("pairings entries look like wild:mutated")
        wild, mutated = (t.strip() for t in tok.split(":", 1))
        pairs.append((wild, mutated))
    return tuple(pairs)


# one parser per field annotation (the string form, as these modules use
# postponed annotations)
_PARSERS = {
    "str": str,
    "int": int,
    "float": float,
    "bool": _parse_bool,
    "float | None": lambda v: None if v.lower() in ("", "none", "auto") else float(v),
    "tuple[str, ...]": lambda v: tuple(tok.strip() for tok in v.split(",") if tok.strip()),
    "tuple[tuple[str, str], ...]": _parse_pairings,
}


def _key_parsers() -> dict:
    """Config key -> parser: every RunConfig field but ``synthetic``, and
    every SyntheticConfig field as ``synthetic_<name>`` but the derived
    ``seed`` and ``signal_window`` (set by its start and end)."""
    types = {f.name: f.type for f in fields(RunConfig) if f.name != "synthetic"}
    for f in fields(SyntheticConfig):
        if f.name not in ("seed", "signal_window"):
            types[f"synthetic_{f.name}"] = f.type
    types["synthetic_signal_start"] = types["synthetic_signal_end"] = "int"
    return {key: _PARSERS[t] for key, t in types.items()}


# built at import, so a field whose annotation has no parser fails here
_KEY_PARSERS = _key_parsers()


def parse_config_file(path: str) -> dict[str, str]:
    """Read key = value lines; '#' starts a comment, blanks are skipped."""
    raw: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, value = (part.strip() for part in text.split("=", 1))
        if key not in _KEY_PARSERS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate config key {key!r}")
        raw[key] = value
    return raw


def build_run_config(
    raw: dict[str, str], *, seed: int | None = None, jobs: int | None = None, literal_sum: bool | None = None
) -> RunConfig:
    """Typed RunConfig from the raw strings of `parse_config_file`; errors
    name the offending key.

    The flag values, where given, replace the parsed keys (a malformed
    key is still rejected); the synthetic data seed is derived last.
    """
    kwargs: dict = {}
    synth: dict = {}
    for key, value in raw.items():
        try:
            parsed = _KEY_PARSERS[key](value)
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from None
        if key.startswith("synthetic_"):
            synth[key.removeprefix("synthetic_")] = parsed
        else:
            kwargs[key] = parsed
    start, end = synth.pop("signal_start", None), synth.pop("signal_end", None)
    if (start is None) != (end is None):
        raise ConfigError("synthetic_signal_start and synthetic_signal_end must be set together")
    if start is not None:
        synth["signal_window"] = (start, end)
    if seed is not None:
        kwargs["seed"] = seed
    if jobs is not None:
        kwargs["jobs"] = jobs
    if literal_sum:
        kwargs["literal_sum"] = True
    try:
        synth["seed"] = derive(kwargs.get("seed", 0), "synthetic-data")
        kwargs["synthetic"] = SyntheticConfig(**synth)
    except ConfigError as exc:
        raise _blamed(exc, _synthetic_keys) from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None
    return RunConfig(**kwargs)


def load_run_config(args) -> RunConfig:
    raw = parse_config_file(args.config) if args.config else {}
    flags = {name: getattr(args, name, None) for name in ("seed", "jobs", "literal_sum")}
    return build_run_config(raw, **flags)


# ---------------------------------------------------------------------------
# Pipeline pieces


_STAGE_ERRORS = (ValueError, ArithmeticError, OSError)


def _stage(name: str, fn, *args, **kwargs):
    """Run one pipeline stage; annotate any module error with its name.

    The error keeps its class when that class takes a single message.
    Otherwise (UnicodeDecodeError takes five arguments) it becomes the
    caught base it belongs to, which `main` maps to the same exit code.
    """
    try:
        return fn(*args, **kwargs)
    except _STAGE_ERRORS as exc:
        message = f"{name}: {exc}"
        try:
            annotated = type(exc)(message)
        except TypeError:
            annotated = next(base for base in _STAGE_ERRORS if isinstance(exc, base))(message)
        raise annotated from None


def _resolve_dataset(cfg: RunConfig) -> Dataset:
    if cfg.dataset == "synthetic":
        return _stage("generate", generate_synthetic, cfg.synthetic)
    return _stage("load-dataset", load_csv, cfg.dataset)


def _resolve_pairings(cfg: RunConfig, ds: Dataset) -> tuple[tuple[str, str], ...]:
    if cfg.pairings:
        return cfg.pairings
    if ds.pairing is not None:
        return (ds.pairing,)
    raise ConfigError(
        "no pairings configured and the dataset does not declare one "
        "(set the pairings key, e.g. pairings = wtS2:331S2)"
    )


def _config_echo(cfg: RunConfig) -> dict:
    echo = asdict(cfg)  # json writes its tuples as arrays
    del echo["jobs"]  # execution detail; results must not depend on it
    return echo


def _run_id(cfg: RunConfig) -> str:
    blob = json.dumps(_config_echo(cfg), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def check_runnable(cfg: RunConfig, n_frames: int, n_coords: int, class_sizes) -> None:
    """Reject a config that cannot run on data of this shape, naming the key.

    The fold PCA is fit on the frames of the training samples, so it
    needs pca_components <= min(coordinates, training frames - 1) for
    the smallest training set (the largest test fold held out). Every
    window must fit in the frames, and every class needs at least one
    member per fold.
    """
    n = int(sum(class_sizes))
    train_frames = (n - -(-n // cfg.folds)) * n_frames
    limit = pca.max_components(train_frames, n_coords)
    if cfg.pca_components > limit:
        raise ConfigError(
            f"pca_components = {cfg.pca_components} cannot run: at most {limit} for "
            f"{n_coords} coordinates and {train_frames} training frames per fold"
        )
    if cfg.window_length > n_frames:
        raise ConfigError(
            f"window_length = {cfg.window_length} cannot run: samples have {n_frames} frames"
        )
    smallest = int(min(class_sizes))
    if cfg.folds > smallest:
        raise ConfigError(
            f"folds = {cfg.folds} cannot run: the smallest class has {smallest} samples"
        )


def run_protocol(cfg: RunConfig) -> dict:
    """Execute the full procedure and return the results payload.

    Every pairing is checked with `check_runnable` before the first
    window search; synthetic data is checked before it is generated.
    A pairing whose search had SVM fits stop short of the KKT tolerance
    gets one warning line on stderr; the payload does not change.
    """
    if cfg.dataset == "synthetic":
        syn = cfg.synthetic
        check_runnable(cfg, syn.n_frames, syn.n_coords, (syn.n_per_class, syn.n_per_class))
    ds = _resolve_dataset(cfg)
    pairings = _resolve_pairings(cfg, ds)
    pair_sets = []
    for wild_tag, mutated_tag in pairings:
        pair_ds = _stage("pairing", split_by_pairing, ds, wild_tag, mutated_tag)
        _stage(
            f"pairing {wild_tag}:{mutated_tag}", check_runnable, cfg,
            pair_ds.n_frames, pair_ds.n_coords, np.bincount(pair_ds.labels),
        )
        pair_sets.append(pair_ds)
    del ds  # each pairing holds a copy of its rows, so release the full frames
    specs = cfg.specs()
    labels = [s.label for s in specs]
    rows = []
    for (wild_tag, mutated_tag), pair_ds in zip(pairings, pair_sets):
        pair_seed = derive(cfg.seed, "pairing", wild_tag, mutated_tag)
        result = _stage(
            "window-search",
            window_search,
            pair_ds,
            specs,
            cfg.window_spec(),
            cfg.folds,
            pair_seed,
            n_components=cfg.pca_components,
            include_velocity=cfg.include_velocity,
            include_acceleration=cfg.include_acceleration,
            literal_sum=cfg.literal_sum,
            n_jobs=cfg.jobs,
        )
        if result.unconverged:
            n_svm = sum(s.kind in evaluation.SVM_KINDS for s in specs)
            print(
                f"warning: pairing {wild_tag}:{mutated_tag}: {result.unconverged} of "
                f"{n_svm * len(result.windows) * cfg.folds} SVM fits stopped with a KKT "
                f"residual above the solver tolerance {svm.SMO_TOL:g}",
                file=sys.stderr,
            )
        best_label = min(labels, key=lambda lab: (result.best[lab][1], labels.index(lab)))
        rows.append(
            {
                "wild_tag": wild_tag,
                "mutated_tag": mutated_tag,
                "n_samples": pair_ds.n_samples,
                "windows": [
                    {
                        "start": int(res.window[0]),
                        "end": int(res.window[1]),
                        "errors": {lab: res.errors[lab] for lab in labels},
                    }
                    for res in result.windows
                ],
                "best": {
                    lab: {
                        "window": [int(result.best[lab][0][0]), int(result.best[lab][0][1])],
                        "error": result.best[lab][1],
                    }
                    for lab in labels
                },
                "row_best_label": best_label,
                "row_best_frames": [
                    int(result.best[best_label][0][0]),
                    int(result.best[best_label][0][1]),
                ],
            }
        )
    return {
        "format": RESULTS_FORMAT,
        "schema_version": SCHEMA_VERSION,
        "run_id": _run_id(cfg),
        "seed": cfg.seed,
        "classifier_labels": labels,
        "config": _config_echo(cfg),
        "rows": rows,
    }


def _table_lines(payload: dict) -> list[list[str]]:
    """The comparison table's header and cells, one row per pairing (sorted)."""
    labels = payload["classifier_labels"]
    lines = [list(labels) + ["Best Frames", "Wild Type", "Mutated Type"]]
    for row in sorted(payload["rows"], key=lambda r: (r["wild_tag"], r["mutated_tag"])):
        cells = [format_error_rate(row["best"][lab]["error"]) for lab in labels]
        start, end = row["row_best_frames"]
        lines.append(cells + [f"{start}-{end}", row["wild_tag"], row["mutated_tag"]])
    return lines


def render_table(payload: dict) -> str:
    """Plain-text comparison table, one row per pairing (sorted)."""
    lines = _table_lines(payload)
    widths = [max(len(line[i]) for line in lines) for i in range(len(lines[0]))]
    rendered = []
    for line in lines:
        rendered.append("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip())
    return "\n".join(rendered)


def write_results_csv(payload: dict, path: str) -> None:
    """Long-format CSV: one line per (pairing, window, classifier)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["wild_tag", "mutated_tag", "classifier", "start_frame", "end_frame", "error", "is_best"]
        )
        for row in payload["rows"]:
            for win in row["windows"]:
                for label, err in win["errors"].items():
                    best = row["best"][label]
                    is_best = int([win["start"], win["end"]] == best["window"])
                    writer.writerow(
                        [
                            row["wild_tag"],
                            row["mutated_tag"],
                            label,
                            win["start"],
                            win["end"],
                            repr(float(err)),
                            is_best,
                        ]
                    )


def write_table_csv(payload: dict, path: str) -> None:
    """The rendered comparison table as CSV (same cells as the text form)."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(_table_lines(payload))


# ---------------------------------------------------------------------------
# Subcommands


def cmd_generate(args) -> int:
    cfg = load_run_config(args)
    out = args.out or "synthetic.csv"
    ds = _stage("generate", generate_synthetic, cfg.synthetic)
    _stage("write-dataset", write_csv, ds, out)
    n_rows = ds.n_samples * ds.n_frames
    print(f"wrote {out}: {ds.n_samples} samples ({cfg.synthetic.n_per_class} per class), "
          f"{ds.n_frames} frames x {ds.n_coords} coords, {n_rows} data rows")
    return 0


def cmd_run(args) -> int:
    cfg = load_run_config(args)
    out_dir = args.out or "results"
    payload = run_protocol(cfg)
    os.makedirs(out_dir, exist_ok=True)
    results_path = os.path.join(out_dir, "results.json")
    with open(results_path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    write_results_csv(payload, os.path.join(out_dir, "results.csv"))
    table = render_table(payload)
    with open(os.path.join(out_dir, "table.txt"), "w") as fh:
        fh.write(table + "\n")
    print(table)
    print(f"\nrun {payload['run_id']}: results in {out_dir}/")
    return 0


def load_results(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: not a JSON results file ({exc})") from None
    if not isinstance(payload, dict) or payload.get("format") != RESULTS_FORMAT:
        raise DataFormatError(f"{path}: not a results file")
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise DataFormatError(
            f"{path}: unsupported schema version {version} (expected {SCHEMA_VERSION})"
        )
    labels, rows = payload.get("classifier_labels"), payload.get("rows")
    if not (isinstance(labels, list) and isinstance(rows, list)):
        raise DataFormatError(f"{path}: classifier_labels and rows must be lists")
    for i, row in enumerate(rows):  # what _table_lines reads
        try:
            ok = (
                isinstance(row["wild_tag"], str)
                and isinstance(row["mutated_tag"], str)
                and all(isinstance(row["best"][lab]["error"], (int, float)) for lab in labels)
                and len(row["row_best_frames"]) == 2
            )
        except (KeyError, TypeError):
            ok = False
        if not ok:
            raise DataFormatError(
                f"{path}: row {i} lacks wild_tag, mutated_tag, an error per label or row_best_frames"
            )
    return payload


def cmd_report(args) -> int:
    payload = _stage("read-results", load_results, args.results)
    if not payload["rows"]:
        print("no runs")
        return 0
    print(render_table(payload))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        out_path = os.path.join(args.out, "table.csv")
        write_table_csv(payload, out_path)
        print(f"\nwrote {out_path}")
    return 0


def _clamp_components(k: int, rows: np.ndarray) -> int:
    """Debug utilities cap the request at the data rank instead of failing."""
    k_eff = min(k, pca.max_components(*rows.shape))
    if k_eff != k:
        print(f"note: clamping components {k} -> {k_eff} for data of shape {rows.shape}")
    return k_eff


def _fit_all_frames(ds: Dataset, k: int) -> pca.PcaModel:
    rows = ds.frames.reshape(-1, ds.n_coords)
    return _stage("pca-fit", pca.fit, rows, _clamp_components(k, rows))


def cmd_pca_fit(args) -> int:
    cfg = load_run_config(args)
    k = args.components if args.components is not None else cfg.pca_components
    ds = _stage("load-dataset", load_csv, args.dataset)
    model = _fit_all_frames(ds, k)
    out = args.out or "model.pca"
    _stage("write-model", pca.save_model, model, out)
    eig = ", ".join(f"{v:.6g}" for v in model.eigenvalues)
    print(f"wrote {out}: {model.n_components} components over {ds.n_samples * ds.n_frames} frames")
    print(f"eigenvalues: {eig}")
    return 0


def cmd_features_export(args) -> int:
    cfg = load_run_config(args)
    ds = _stage("load-dataset", load_csv, args.dataset)
    model = _fit_all_frames(ds, cfg.pca_components)
    values = _stage(
        "assemble",
        features.assemble,
        evaluation.dataset_scores(ds, model),
        cfg.include_velocity,
        cfg.include_acceleration,
        cfg.literal_sum,
    )
    layout = FeatureLayout(ds.n_frames, model.n_components, cfg.include_velocity, cfg.include_acceleration)
    out = args.out or "features.csv"
    _stage(
        "write-features",
        features.export_csv,
        values,
        layout,
        out,
        ds.sample_ids,
        [LABELS[c] for c in ds.labels],
    )
    print(f"wrote {out}: {values.shape[0]} rows x {values.shape[1]} feature columns")
    return 0


# ---------------------------------------------------------------------------
# Entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems become exit code 1
        raise ConfigError(message)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_common(sub, *, seed=False, jobs=False, literal=False):
    sub.add_argument("--config", help="key = value config file")
    if seed:
        sub.add_argument("--seed", type=int, help="override the config seed")
    sub.add_argument("--out", help="output path (file or directory by subcommand)")
    if jobs:
        sub.add_argument("--jobs", type=int, help="parallel worker processes")
    if literal:
        sub.add_argument(
            "--literal-sum",
            action="store_true",
            help="use the additive velocity form instead of first differences",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rootgrowth", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("generate", help="write a synthetic dataset CSV + manifest")
    _add_common(gen, seed=True)
    gen.set_defaults(func=cmd_generate)

    run = subs.add_parser("run", help="run the full window-search protocol")
    _add_common(run, seed=True, jobs=True, literal=True)
    run.set_defaults(func=cmd_run)

    rep = subs.add_parser("report", help="render a results file as a table")
    rep.add_argument("results", help="results.json from a previous run")
    rep.add_argument("--out", help="directory to write table.csv into")
    rep.set_defaults(func=cmd_report)

    fit = subs.add_parser("pca-fit", help="fit a PCA on all frames of a dataset CSV")
    _add_common(fit)
    fit.add_argument("dataset", help="dataset CSV path")
    fit.add_argument("--components", type=_positive_int, help="number of components")
    fit.set_defaults(func=cmd_pca_fit)

    exp = subs.add_parser("features-export", help="export assembled features as CSV")
    _add_common(exp, literal=True)
    exp.add_argument("dataset", help="dataset CSV path")
    exp.set_defaults(func=cmd_features_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

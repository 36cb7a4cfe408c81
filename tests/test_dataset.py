"""Dataset container, CSV round-trip, pairing split, synthetic generator."""

import tracemalloc

import numpy as np
import pytest

from rootgrowth import dataset
from rootgrowth.dataset import (
    LABELS,
    Dataset,
    SyntheticConfig,
    class_mean_trajectory,
    generate_synthetic,
    load_csv,
    read_manifest,
    split_by_pairing,
    write_csv,
)
from rootgrowth.errors import ConfigError, DataFormatError

from oracles import load_csv_reference


def make_dataset(t=5, d=2, tags=("wt", "mut"), labels=(0, 1)):
    """Sample i has id ``s<i>`` and every coordinate equal to i."""
    n = len(tags)
    frames = np.arange(n, dtype=np.float64)[:, None, None] * np.ones((n, t, d))
    return Dataset(frames, [f"s{i}" for i in range(n)], tags, labels)


class TestLabels:
    def test_read_only_int64_array(self):
        ds = make_dataset(labels=[True, False])
        assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [1, 0]
        assert LABELS == ("wild", "mutated")
        with pytest.raises(ValueError):
            ds.labels[0] = 0

    @pytest.mark.parametrize("labels", [(0, 2), (-1, 1), (0.5, 1), ("wild", "mutated")])
    def test_outside_zero_one_rejected(self, labels):
        with pytest.raises(DataFormatError, match="labels must be 0"):
            make_dataset(labels=labels)


class TestSample:
    def test_frames_frozen(self):
        ds = make_dataset()
        with pytest.raises(ValueError):
            ds.frames[0, 0, 0] = 9.0

    def test_too_few_frames(self):
        with pytest.raises(DataFormatError, match="at least 3 frames"):
            make_dataset(t=2)

    def test_non_finite_rejected(self):
        frames = np.zeros((2, 4, 2))
        frames[1, 1, 0] = np.nan
        with pytest.raises(DataFormatError, match="non-finite"):
            Dataset(frames, ["a", "b"], ["g", "g"], [0, 1])


class TestDataset:
    def test_shape_mismatch(self):
        # one id, tag or label per sample
        with pytest.raises(DataFormatError, match="sample_ids: 3 entries for 2 samples"):
            Dataset(np.zeros((2, 5, 2)), ["a", "b", "c"], ["g", "g"], [0, 1])
        with pytest.raises(DataFormatError, match=r"labels: shape \(3,\) for 2 samples"):
            Dataset(np.zeros((2, 5, 2)), ["a", "b"], ["g", "g"], [0, 1, 0])
        with pytest.raises(DataFormatError, match=r"3-D \(n, T, d\)"):
            Dataset(np.zeros((5, 2)), ["a"], ["g"], [0])

    def test_single_class_rejected(self):
        with pytest.raises(DataFormatError, match="single class"):
            make_dataset(labels=(0, 0))

    def test_label_vectors(self):
        ds = make_dataset()
        assert ds.labels.tolist() == [0, 1]


class TestPairingSplit:
    def make_multi(self):
        return make_dataset(
            tags=("wtL2", "wtL2", "331L2", "332L2"),
            labels=(0, 0, 1, 1),
        )

    def test_selects_and_relabels(self):
        ds = self.make_multi()
        sub = split_by_pairing(ds, "wtL2", "331L2")
        assert sub.sample_ids == ("s0", "s1", "s2")
        assert sub.tags == ("wtL2", "wtL2", "331L2")
        assert np.array_equal(sub.frames, ds.frames[:3])
        assert sub.pairing == ("wtL2", "331L2")

    def test_tags_override_stored_labels(self):
        # swap roles: the mutated group plays wild type in this pairing
        sub = split_by_pairing(self.make_multi(), "331L2", "wtL2")
        by_id = dict(zip(sub.sample_ids, sub.labels))
        assert by_id["s2"] == 0
        assert by_id["s0"] == 1

    def test_missing_tag(self):
        with pytest.raises(DataFormatError, match="nope"):
            split_by_pairing(self.make_multi(), "wtL2", "nope")

    def test_identical_tags(self):
        with pytest.raises(ConfigError):
            split_by_pairing(self.make_multi(), "wtL2", "wtL2")


class TestCsvRoundTrip:
    def test_bit_exact(self, tmp_path):
        ds = generate_synthetic(SyntheticConfig(n_per_class=3, n_frames=6, n_coords=2, seed=5))
        path = tmp_path / "ds.csv"
        write_csv(ds, path)
        back = load_csv(path)
        order = np.argsort(ds.sample_ids, kind="stable")  # files are id-sorted
        assert back.sample_ids == tuple(ds.sample_ids[i] for i in order)
        assert back.tags == tuple(ds.tags[i] for i in order)
        assert back.labels.tolist() == ds.labels[order].tolist()
        assert np.array_equal(back.frames, ds.frames[order])
        assert back.pairing == ds.pairing

    def test_rewrite_identical_bytes(self, tmp_path):
        ds = generate_synthetic(SyntheticConfig(n_per_class=2, n_frames=5, n_coords=2))
        write_csv(ds, tmp_path / "a.csv")
        write_csv(ds, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_manifest_contents(self, tmp_path):
        ds = generate_synthetic(SyntheticConfig(n_per_class=2, n_frames=5, n_coords=3))
        write_csv(ds, tmp_path / "ds.csv")
        meta = read_manifest(tmp_path / "ds.manifest")
        assert meta["n_frames"] == "5"
        assert meta["n_coords"] == "3"
        assert meta["wild_tag"] == "wt_syn"

    def write_lines(self, tmp_path, lines):
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_bad_header(self, tmp_path):
        path = self.write_lines(tmp_path, ["sample_id,group_tag,label,frame_index,x0", "s,g,wild,0,1.0"])
        with pytest.raises(DataFormatError, match="v0"):
            load_csv(path)

    def test_frame_index_gap(self, tmp_path):
        rows = ["sample_id,group_tag,label,frame_index,v0"]
        rows += [f"a,wt,wild,{i},0.0" for i in (0, 1, 3)]
        rows += [f"b,mut,mutated,{i},1.0" for i in (0, 1, 2)]
        path = self.write_lines(tmp_path, rows)
        with pytest.raises(DataFormatError, match="frame_index"):
            load_csv(path)

    def test_non_numeric_value(self, tmp_path):
        rows = ["sample_id,group_tag,label,frame_index,v0"]
        rows += [f"a,wt,wild,{i},0.0" for i in range(3)]
        rows += ["b,mut,mutated,0,1.0", "b,mut,mutated,1,oops", "b,mut,mutated,2,1.0"]
        path = self.write_lines(tmp_path, rows)
        with pytest.raises(DataFormatError, match="bad.csv:6"):
            load_csv(path)

    def test_non_contiguous_sample(self, tmp_path):
        rows = ["sample_id,group_tag,label,frame_index,v0"]
        rows += [f"a,wt,wild,{i},0.0" for i in range(3)]
        rows += [f"b,mut,mutated,{i},1.0" for i in range(3)]
        rows += ["a,wt,wild,3,0.0"]
        path = self.write_lines(tmp_path, rows)
        with pytest.raises(DataFormatError, match="not contiguous"):
            load_csv(path)


HEADER = "sample_id,group_tag,label,frame_index,v0,v1"
# File lines 2-4 are sample a, lines 5-7 sample b.
GOOD = [
    HEADER,
    "a,wt,wild,0,0.5,1.25",
    "a,wt,wild,1,0.75,1.5",
    "a,wt,wild,2,1.0,-0.0",
    "b,mut,mutated,0,2.5,3.0",
    "b,mut,mutated,1,2.25,3.5",
    "b,mut,mutated,2,2.0,4.0",
]


# GOOD up to sample a, which gains a fourth frame
A4 = GOOD[:4] + ["a,wt,wild,3,1.25,1.75"]


def lines_with(**edits):
    """GOOD with some lines replaced: ``l3="..."`` sets file line 3."""
    lines = list(GOOD)
    for key, line in edits.items():
        lines[int(key[1:]) - 1] = line
    return "\n".join(lines) + "\n"


def a_renamed(sid):
    """GOOD with sample a's id written as ``sid``."""
    return "".join((sid + line[1:] if line.startswith("a,") else line) + "\n" for line in GOOD)


def quote_all(text):
    """``text`` with every field of every line quoted; no field may hold a comma."""
    return "".join(",".join(f'"{field}"' for field in line.split(",")) + "\n" for line in text.splitlines())


# (id, file text, fragment of the error message or None when the file loads)
LOADER_CASES = [
    ("valid", lines_with(), None),
    ("crlf", "\r\n".join(GOOD) + "\r\n", None),
    ("cr-only", "\r".join(GOOD) + "\r", None),
    ("no-final-newline", "\n".join(GOOD), None),
    ("header-only", HEADER + "\n", "tracks.csv: no data rows"),
    ("empty-file", "", "tracks.csv: empty file"),
    ("no-coordinate-columns", "sample_id,group_tag,label,frame_index\na,wt,wild,0\n",
     "tracks.csv: header has no coordinate columns"),
    ("header-not-meta-first", "\n".join(["id,group_tag,label,frame_index,v0,v1"] + GOOD[1:]) + "\n",
     "tracks.csv: header must start with sample_id,group_tag,label,frame_index"),
    ("blank-line-middle", "\n".join(GOOD[:4] + [""] + GOOD[4:]) + "\n", "tracks.csv:5: expected 6 fields, got 0"),
    ("blank-line-end", "\n".join(GOOD) + "\n\n", "tracks.csv:8: expected 6 fields, got 0"),
    ("short-row", lines_with(l3="a,wt,wild,1,0.75"), "tracks.csv:3: expected 6 fields, got 5"),
    ("long-row", lines_with(l3="a,wt,wild,1,0.75,1.5,9"), "tracks.csv:3: expected 6 fields, got 7"),
    ("non-numeric", lines_with(l6="b,mut,mutated,1,oops,3.5"), "tracks.csv:6: non-numeric coordinate value"),
    ("hash-in-value", lines_with(l6="b,mut,mutated,1,2.25#x,3.5"), "tracks.csv:6: non-numeric coordinate value"),
    ("empty-value", lines_with(l6="b,mut,mutated,1,,3.5"), "tracks.csv:6: non-numeric coordinate value"),
    ("nan", lines_with(l6="b,mut,mutated,1,nan,3.5"), "tracks.csv:6: non-finite coordinate value"),
    ("overflow", lines_with(l6="b,mut,mutated,1,1e400,3.5"), "tracks.csv:6: non-finite coordinate value"),
    ("underscore", lines_with(l6="b,mut,mutated,1,1_0,3.5"), None),
    ("unicode-digits", lines_with(l6="b,mut,mutated,1,\u0661.\u0665,3.5"), None),
    ("padded", lines_with(l6="b,mut,mutated,1, 2.25 ,\xa03.5\u2003"), None),
    # numpy's reader strips U+001C as whitespace; float() refuses it
    ("file-separator", lines_with(l6="b,mut,mutated,1,\x1c2.25,3.5"), "tracks.csv:6: non-numeric coordinate value"),
    ("quoted-number", lines_with(l6='b,mut,mutated,1,"2.25",3.5'), None),
    ("quoted-comma-value", lines_with(l6='b,mut,mutated,1,"2,25",3.5'), "tracks.csv:6: non-numeric coordinate value"),
    ("quoted-tag-comma", "".join(
        line.replace(",wt,", ',"w,t",') + "\n" for line in GOOD), None),
    ("id-with-quote", a_renamed('a"x'), None),
    ("id-with-hash", a_renamed("a#1"), None),
    ("id-with-nul", a_renamed("a\x00"), None),
    ("id-with-line-break", a_renamed('"a\nb"'), None),
    # records, not physical lines, are numbered: record 6 is file line 9 here
    ("line-break-then-error", a_renamed('"a\nb"').replace("2.25,3.5", "oops,3.5"),
     "tracks.csv:6: non-numeric coordinate value"),
    ("quoted-header", '"sample_id",group_tag,label,frame_index,v0,"v1"\n' + "\n".join(GOOD[1:]) + "\n", None),
    ("unterminated-quote", lines_with(l7='b,mut,mutated,2,2.0,"4.0'), None),
    ("label-change", lines_with(l3="a,wt,mutated,1,0.75,1.5"),
     "tracks.csv:3: sample 'a' changes group_tag or label mid-file"),
    ("tag-change", lines_with(l3="a,wx,wild,1,0.75,1.5"),
     "tracks.csv:3: sample 'a' changes group_tag or label mid-file"),
    ("unknown-label", lines_with(l2="a,wt,wibble,0,0.5,1.25"), "tracks.csv:2: unknown label token 'wibble'"),
    ("frame-index-gap", lines_with(l3="a,wt,wild,2,0.75,1.5"),
     "tracks.csv:3: frame_index '2' out of order (expected 1)"),
    ("unsorted-ids", "\n".join([HEADER] + GOOD[4:] + GOOD[1:4]) + "\n", "tracks.csv: rows are not sorted by sample_id"),
    ("not-contiguous", "\n".join(GOOD + ["a,wt,wild,3,0.0,0.0"]) + "\n",
     "tracks.csv:8: rows for sample 'a' are not contiguous"),
    ("two-frames-then-not-contiguous", "\n".join(GOOD[:6] + ["a,wt,wild,3,0.0,0.0"]) + "\n",
     "sample 'b': need at least 3 frames, got 2"),
    ("two-frames-at-end", "\n".join(GOOD[:6]) + "\n", "sample 'b': need at least 3 frames, got 2"),
    ("shape-mismatch", "\n".join(GOOD + ["b,mut,mutated,3,0.0,0.0"]) + "\n", "has shape (4, 2), expected (3, 2)"),
    ("single-class", lines_with().replace("mutated", "wild"), "dataset contains a single class (wild)"),
    ("value-before-index", lines_with(l3="a,wt,wild,1,oops,1.5", l6="b,mut,mutated,9,2.25,3.5"),
     "tracks.csv:3: non-numeric coordinate value"),
    ("index-before-value", lines_with(l3="a,wt,wild,9,0.75,1.5", l6="b,mut,mutated,1,oops,3.5"),
     "tracks.csv:3: frame_index '9' out of order"),
    ("nan-before-non-numeric", lines_with(l3="a,wt,wild,1,nan,1.5", l6="b,mut,mutated,1,oops,3.5"),
     "tracks.csv:3: non-finite coordinate value"),
    ("nan-before-underscore", lines_with(l3="a,wt,wild,1,nan,1.5", l6="b,mut,mutated,1,1_0,3.5"),
     "tracks.csv:3: non-finite coordinate value"),
    ("underscore-before-short-row", lines_with(l3="a,wt,wild,1,1_0,1.5", l6="b,mut,mutated,1,2.25"),
     "tracks.csv:6: expected 6 fields, got 5"),
    ("quoted-error-before-nan", lines_with(l3='a,wt,wild,1,"x",1.5', l6="b,mut,mutated,1,nan,3.5"),
     "tracks.csv:3: non-numeric coordinate value"),
    ("nan-before-quoted-error", lines_with(l3="a,wt,wild,1,nan,1.5", l6='b,mut,mutated,1,"x",3.5'),
     "tracks.csv:3: non-finite coordinate value"),
    # id order and the shared frame count are record rules too: the earlier record's rule is reported
    ("short-sample-before-non-numeric",
     "\n".join(A4 + GOOD[4:] + [f"c,mut,mutated,{i},{'oops' if i == 1 else i},1.0" for i in range(4)]) + "\n",
     "sample 'b' has shape (3, 2), expected (4, 2)"),
    ("unsorted-ids-before-non-numeric", "\n".join([HEADER] + GOOD[4:] + GOOD[1:3] + ["a,wt,wild,2,oops,-0.0"]) + "\n",
     "tracks.csv: rows are not sorted by sample_id"),
    ("short-sample-before-unsorted-ids",
     "\n".join(A4 + [line.replace("b,", "c,") for line in GOOD[4:]] + GOOD[4:] + ["b,mut,mutated,3,1.75,4.5"]) + "\n",
     "sample 'c' has shape (3, 2), expected (4, 2)"),
    # every field of every record quoted: the exact pass reads the whole file
    ("quoted-all", quote_all(lines_with()), None),
    # the plain pass gives up at the last record, after numpy has read the rest
    ("not-plain-last-record", lines_with(l7='b,mut,mutated,2,"2.0",4.0'), None),
    ("single-column-empty-value", "sample_id,group_tag,label,frame_index,v0\n" + "".join(
        f"{sid},{tag},{label},{i},{'' if (sid, i) == ('b', 1) else i}\n"
        for sid, tag, label in (("a", "wt", "wild"), ("b", "mut", "mutated")) for i in range(3)),
     "tracks.csv:6: non-numeric coordinate value"),
]


def load_outcome(load, path):
    try:
        ds = load(path)
    except Exception as exc:  # the reference may raise csv's own errors
        return ("error", type(exc).__name__, str(exc))
    return ("ok", ds.pairing, ds.sample_ids, ds.tags, ds.labels.tolist(), ds.frames.shape, ds.frames.tobytes())


class TestLoaderMatchesReference:
    @pytest.mark.parametrize(
        "text, expected", [pytest.param(text, expected, id=name) for name, text, expected in LOADER_CASES]
    )
    def test_same_error_or_same_bits(self, tmp_path, text, expected):
        path = tmp_path / "tracks.csv"
        path.write_bytes(text.encode())
        got = load_outcome(load_csv, path)
        assert got == load_outcome(load_csv_reference, path)
        if expected is None:
            assert got[0] == "ok"
        else:
            assert got[0] == "error" and got[1] == "DataFormatError" and expected in got[2]

    def test_generated_file_same_bits(self, tmp_path):
        ds = generate_synthetic(SyntheticConfig(n_per_class=4, n_frames=30, n_coords=7, seed=3))
        write_csv(ds, tmp_path / "ds.csv")
        got = load_outcome(load_csv, tmp_path / "ds.csv")
        assert got[0] == "ok" and got == load_outcome(load_csv_reference, tmp_path / "ds.csv")

    def test_not_utf8_is_a_data_error(self, tmp_path):
        path = tmp_path / "tracks.csv"
        path.write_bytes(b"sample_id,group_tag,label,frame_index,v0\n\xff,wt,wild,0,1.0\n")
        with pytest.raises(DataFormatError, match=r"tracks\.csv: not UTF-8 text"):
            load_csv(path)

    def test_header_field_over_size_limit_is_a_data_error(self, tmp_path):
        path = tmp_path / "tracks.csv"
        path.write_text('"' + "s" * 140_000 + '",group_tag,label,frame_index,v0\n')
        with pytest.raises(DataFormatError, match=r"tracks\.csv:1: field larger than field limit"):
            load_csv(path)

    def test_record_field_over_size_limit_is_a_data_error(self, tmp_path):
        # the reference lets csv's own error through, so this is no loader case
        path = tmp_path / "tracks.csv"
        path.write_text(lines_with(l5='"' + "b" * 140_000 + '",mut,mutated,0,2.5,3.0'))
        with pytest.raises(DataFormatError, match=r"tracks\.csv:5: field larger than field limit"):
            load_csv(path)

    def test_plain_file_is_read_once_by_numpy(self, tmp_path, monkeypatch):
        calls = self.count_calls(monkeypatch)
        path = tmp_path / "tracks.csv"
        path.write_text(lines_with())
        assert load_outcome(load_csv, path)[0] == "ok"
        assert calls == {"loadtxt": 1, "exact": 0}

    def test_quoted_file_takes_the_exact_pass_once(self, tmp_path, monkeypatch):
        calls = self.count_calls(monkeypatch)
        path = tmp_path / "tracks.csv"
        path.write_text(quote_all(lines_with()))
        assert load_outcome(load_csv, path)[0] == "ok"
        # the plain pass gives up at the first record
        assert calls == {"loadtxt": 1, "exact": 1}

    def count_calls(self, monkeypatch):
        calls = {"loadtxt": 0, "exact": 0}

        def counted(name, func):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(np, "loadtxt", counted("loadtxt", np.loadtxt))
        monkeypatch.setattr(dataset, "_load_exact", counted("exact", dataset._load_exact))
        return calls

    def test_peak_memory_stays_near_the_frames(self, tmp_path):
        # Measured peaks on this file, as multiples of the loaded frames'
        # bytes: 1.27 row by row with csv and float(), 1.23 streaming,
        # 2.5 keeping a field list per line, 5.5 reading the whole text.
        self.assert_peak_near_the_frames(tmp_path)

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(quote_all, id="quoted"),
            pytest.param(lambda text: text[: text.rindex(",")] + ",1_0\n", id="underscore-last"),
        ],
    )
    def test_peak_memory_of_the_exact_pass(self, tmp_path, edit):
        # files that the plain pass gives up on, at the first record or at
        # the last. Measured: 1.15 and 1.22, as the exact pass keeps its
        # values in one buffer; 5.47 with `1_0` last when the fallback
        # kept its rows as Python lists.
        self.assert_peak_near_the_frames(tmp_path, edit)

    def assert_peak_near_the_frames(self, tmp_path, edit=None):
        ds = generate_synthetic(SyntheticConfig(n_per_class=10, n_frames=200, n_coords=30, seed=1))
        path = tmp_path / "ds.csv"
        write_csv(ds, path)
        if edit is not None:
            path.write_text(edit(path.read_text()))
        tracemalloc.start()
        try:
            loaded = load_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        frames = loaded.frames.nbytes
        assert peak < 1.5 * frames, f"peak {peak} B for {frames} B of frames"


class TestSynthetic:
    def test_deterministic(self):
        cfg = SyntheticConfig(n_per_class=4, n_frames=10, n_coords=2, seed=9)
        a = generate_synthetic(cfg)
        b = generate_synthetic(cfg)
        assert np.array_equal(a.frames, b.frames)

    def test_seed_changes_data(self):
        cfg = SyntheticConfig(n_per_class=4, n_frames=10, n_coords=2, seed=9)
        other = generate_synthetic(SyntheticConfig(n_per_class=4, n_frames=10, n_coords=2, seed=10))
        assert not np.array_equal(generate_synthetic(cfg).frames, other.frames)

    def test_mean_trajectory_quadratic(self):
        cfg = SyntheticConfig(
            n_frames=5, base_velocity=2.0, velocity_gap=1.0, acceleration_gap=0.5, noise_sd=0.0
        )
        wild = class_mean_trajectory(cfg, 0)
        mut = class_mean_trajectory(cfg, 1)
        t = np.arange(5.0)
        assert np.allclose(wild[:, 0], 2.0 * t)
        assert np.allclose(mut[:, 0], 3.0 * t + 0.25 * t * t)

    def test_noiseless_matches_mean(self):
        cfg = SyntheticConfig(n_per_class=2, n_frames=8, n_coords=2, noise_sd=0.0)
        ds = generate_synthetic(cfg)
        wild = class_mean_trajectory(cfg, 0)
        assert np.array_equal(ds.frames[0], wild)

    def test_signal_window_confined(self):
        cfg = SyntheticConfig(
            n_per_class=1, n_frames=20, n_coords=2, noise_sd=0.0,
            velocity_gap=0.0, acceleration_gap=0.0,
            signal_window=(5, 9), signal_gap=1.0,
        )
        wild = class_mean_trajectory(cfg, 0)
        mut = class_mean_trajectory(cfg, 1)
        diff = mut - wild
        assert np.all(diff[:, 1] == 0.0)  # bump lives on coordinate 0 only
        assert np.all(diff[:5, 0] == 0.0) and np.all(diff[10:, 0] == 0.0)
        assert diff[7, 0] > 0.0

    def test_ripple_zigzags_mutated_class_only(self):
        cfg = SyntheticConfig(
            n_per_class=1, n_frames=8, n_coords=2, noise_sd=0.0,
            base_velocity=0.0, velocity_gap=0.0, acceleration_gap=0.0,
            ripple_gap=0.4,
        )
        wild = class_mean_trajectory(cfg, 0)
        mut = class_mean_trajectory(cfg, 1)
        assert np.all(wild == 0.0)
        expected = np.where(np.arange(8) % 2 == 0, 0.2, -0.2)
        assert np.array_equal(mut[:, 0], expected)
        assert np.array_equal(mut[:, 1], expected)
        # per-frame velocity alternates by the full gap; no net drift
        assert np.allclose(np.abs(np.diff(mut[:, 0])), 0.4)
        assert mut[0, 0] + mut[1, 0] == 0.0

    def test_ripple_gap_must_be_nonnegative(self):
        with pytest.raises(ConfigError, match="ripple_gap"):
            SyntheticConfig(ripple_gap=-0.1)

    def test_intercept_offsets_constant_per_sample(self):
        cfg = SyntheticConfig(n_per_class=2, n_frames=6, n_coords=2, noise_sd=0.0, intercept_sd=1.0)
        ds = generate_synthetic(cfg)
        mean = class_mean_trajectory(cfg, 0)
        offset = ds.frames[0] - mean
        assert np.allclose(offset, offset[0][None, :])
        assert not np.allclose(offset, 0.0)

    def test_signal_window_bounds_checked(self):
        with pytest.raises(ConfigError, match="signal_window"):
            SyntheticConfig(n_frames=10, signal_window=(5, 10))

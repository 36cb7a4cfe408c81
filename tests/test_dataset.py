"""Dataset container, CSV round-trip, pairing split, synthetic generator."""

import numpy as np
import pytest

from rootgrowth.dataset import (
    ClassLabel,
    Dataset,
    SyntheticConfig,
    TimeSeriesSample,
    class_mean_trajectory,
    generate_synthetic,
    load_csv,
    read_manifest,
    split_by_pairing,
    write_csv,
)
from rootgrowth.errors import ConfigError, DataFormatError


def make_sample(sid="s0", tag="wt", label=ClassLabel.WILD, t=5, d=2, fill=0.0):
    return TimeSeriesSample(sid, tag, label, np.full((t, d), fill))


def all_frames(ds):
    return np.stack([s.frames for s in ds.samples])


def make_dataset(t=5, d=2):
    return Dataset(
        (
            make_sample("a0", "wt", ClassLabel.WILD, t, d, 0.0),
            make_sample("b0", "mut", ClassLabel.MUTATED, t, d, 1.0),
        )
    )


class TestLabels:
    def test_encodings(self):
        assert ClassLabel.WILD.unit == 0 and ClassLabel.MUTATED.unit == 1

    def test_round_trips(self):
        for lab in ClassLabel:
            assert ClassLabel.from_token(lab.value) is lab

    def test_unknown_token(self):
        with pytest.raises(DataFormatError, match="unknown label"):
            ClassLabel.from_token("wibble")


class TestSample:
    def test_frames_frozen(self):
        s = make_sample()
        with pytest.raises(ValueError):
            s.frames[0, 0] = 9.0

    def test_too_few_frames(self):
        with pytest.raises(DataFormatError, match="at least 3 frames"):
            make_sample(t=2)

    def test_non_finite_rejected(self):
        frames = np.zeros((4, 2))
        frames[1, 0] = np.nan
        with pytest.raises(DataFormatError, match="non-finite"):
            TimeSeriesSample("s", "g", ClassLabel.WILD, frames)


class TestDataset:
    def test_shape_mismatch(self):
        with pytest.raises(DataFormatError, match="expected"):
            Dataset(
                (
                    make_sample("a", t=5),
                    make_sample("b", label=ClassLabel.MUTATED, t=6),
                )
            )

    def test_single_class_rejected(self):
        with pytest.raises(DataFormatError, match="single class"):
            Dataset((make_sample("a"), make_sample("b")))

    def test_label_vectors(self):
        ds = make_dataset()
        assert ds.labels_unit().tolist() == [0, 1]


class TestPairingSplit:
    def make_multi(self):
        samples = (
            make_sample("a0", "wtL2", ClassLabel.WILD),
            make_sample("a1", "wtL2", ClassLabel.WILD),
            make_sample("b0", "331L2", ClassLabel.MUTATED),
            make_sample("c0", "332L2", ClassLabel.MUTATED),
        )
        return Dataset(samples)

    def test_selects_and_relabels(self):
        sub = split_by_pairing(self.make_multi(), "wtL2", "331L2")
        assert [s.sample_id for s in sub.samples] == ["a0", "a1", "b0"]
        assert sub.pairing == ("wtL2", "331L2")

    def test_tags_override_stored_labels(self):
        # swap roles: the mutated group plays wild type in this pairing
        sub = split_by_pairing(self.make_multi(), "331L2", "wtL2")
        by_id = {s.sample_id: s.label for s in sub.samples}
        assert by_id["b0"] is ClassLabel.WILD
        assert by_id["a0"] is ClassLabel.MUTATED

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
        assert back.n_samples == ds.n_samples
        by_id = sorted(ds.samples, key=lambda s: s.sample_id)  # files are id-sorted
        for orig, loaded in zip(by_id, back.samples):
            assert loaded.sample_id == orig.sample_id
            assert loaded.group_tag == orig.group_tag
            assert loaded.label is orig.label
            assert np.array_equal(loaded.frames, orig.frames)
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


class TestSynthetic:
    def test_deterministic(self):
        cfg = SyntheticConfig(n_per_class=4, n_frames=10, n_coords=2, seed=9)
        a = generate_synthetic(cfg)
        b = generate_synthetic(cfg)
        assert np.array_equal(all_frames(a), all_frames(b))

    def test_seed_changes_data(self):
        cfg = SyntheticConfig(n_per_class=4, n_frames=10, n_coords=2, seed=9)
        other = generate_synthetic(SyntheticConfig(n_per_class=4, n_frames=10, n_coords=2, seed=10))
        assert not np.array_equal(all_frames(generate_synthetic(cfg)), all_frames(other))

    def test_mean_trajectory_quadratic(self):
        cfg = SyntheticConfig(
            n_frames=5, base_velocity=2.0, velocity_gap=1.0, acceleration_gap=0.5, noise_sd=0.0
        )
        wild = class_mean_trajectory(cfg, ClassLabel.WILD)
        mut = class_mean_trajectory(cfg, ClassLabel.MUTATED)
        t = np.arange(5.0)
        assert np.allclose(wild[:, 0], 2.0 * t)
        assert np.allclose(mut[:, 0], 3.0 * t + 0.25 * t * t)

    def test_noiseless_matches_mean(self):
        cfg = SyntheticConfig(n_per_class=2, n_frames=8, n_coords=2, noise_sd=0.0)
        ds = generate_synthetic(cfg)
        wild = class_mean_trajectory(cfg, ClassLabel.WILD)
        assert np.array_equal(ds.samples[0].frames, wild)

    def test_signal_window_confined(self):
        cfg = SyntheticConfig(
            n_per_class=1, n_frames=20, n_coords=2, noise_sd=0.0,
            velocity_gap=0.0, acceleration_gap=0.0,
            signal_window=(5, 9), signal_gap=1.0,
        )
        wild = class_mean_trajectory(cfg, ClassLabel.WILD)
        mut = class_mean_trajectory(cfg, ClassLabel.MUTATED)
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
        wild = class_mean_trajectory(cfg, ClassLabel.WILD)
        mut = class_mean_trajectory(cfg, ClassLabel.MUTATED)
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
        mean = class_mean_trajectory(cfg, ClassLabel.WILD)
        offset = ds.samples[0].frames - mean
        assert np.allclose(offset, offset[0][None, :])
        assert not np.allclose(offset, 0.0)

    def test_signal_window_bounds_checked(self):
        with pytest.raises(ConfigError, match="signal_window"):
            SyntheticConfig(n_frames=10, signal_window=(5, 10))

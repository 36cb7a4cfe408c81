"""Velocity/acceleration blocks, window grid, and slice identities."""

import numpy as np
import pytest

from rootgrowth.errors import DataFormatError
from rootgrowth.features import (
    FeatureLayout,
    WindowSpec,
    acceleration,
    assemble,
    export_csv,
    slice_features,
    velocity,
    window_slices,
)

from oracles import acceleration_loops, velocity_loops, windows_loops


class TestDifferences:
    def test_known_row(self):
        # scores 1,2,4 -> velocity 1,2 -> acceleration 1
        scores = np.array([[[1.0], [2.0], [4.0]]])
        assert assemble(scores)[0].tolist() == [1.0, 2.0, 4.0, 1.0, 2.0, 1.0]

    def test_literal_sum_row(self):
        scores = np.array([[[1.0], [2.0], [4.0]]])
        # additive velocity 3, 6; its difference 3
        assert assemble(scores, literal_sum=True)[0].tolist() == [1.0, 2.0, 4.0, 3.0, 6.0, 3.0]

    def test_matches_loop_oracle_bitwise(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            t = int(rng.integers(3, 30))
            k = int(rng.integers(1, 5))
            z = rng.standard_normal((t, k)) * 10.0
            assert np.array_equal(velocity(z), velocity_loops(z))
            assert np.array_equal(acceleration(velocity(z)), acceleration_loops(z))

    def test_assembled_rows_match_loop_oracle(self):
        # the blocks are differenced over all samples at once
        rng = np.random.default_rng(12)
        z = rng.standard_normal((5, 9, 3)) * 10.0
        x = assemble(z)
        for i in range(5):
            want = [z[i].ravel(), velocity_loops(z[i]).ravel(), acceleration_loops(z[i]).ravel()]
            assert np.array_equal(x[i], np.concatenate(want))

    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_assemble_returns_fresh_read_only_float64_array(self, dtype):
        scores = np.arange(6, dtype=dtype).reshape(2, 3, 1)
        for blocks, width in [((True, True), 6), ((False, False), 3)]:
            x = assemble(scores, *blocks)
            assert type(x) is np.ndarray and x.dtype == np.float64 and x.shape == (2, width)
            assert not x.flags.writeable and not np.shares_memory(x, scores)

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            velocity(np.ones((1, 2)))
        with pytest.raises(ValueError):
            acceleration(np.ones((1, 2)))


class TestLayout:
    @pytest.mark.parametrize(
        "velocity,acceleration,width",
        [(True, True, 5 * 3 + 4 * 3 + 3 * 3), (False, False, 5 * 3)],
        ids=["default", "scores_only"],
    )
    def test_column_names_match_assembled_width(self, velocity, acceleration, width):
        names = FeatureLayout(5, 3, velocity, acceleration).column_names()
        assert len(names) == assemble(np.zeros((2, 5, 3)), velocity, acceleration).shape[1] == width

    def test_acceleration_requires_velocity(self):
        with pytest.raises(ValueError, match="requires velocity"):
            FeatureLayout(5, 3, has_velocity=False, has_acceleration=True)


class TestWindows:
    def test_grid_defaults(self):
        wins = window_slices(300, WindowSpec(40, 1))
        assert len(wins) == 261
        assert wins[0] == (0, 39)
        assert wins[-1] == (260, 299)

    def test_matches_cursor_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            t = int(rng.integers(5, 200))
            length = int(rng.integers(3, t + 1))
            stride = int(rng.integers(1, 20))
            wins = window_slices(t, WindowSpec(length, stride))
            assert wins == windows_loops(t, length, stride)
            assert len(wins) == (t - length) // stride + 1

    def test_window_longer_than_series(self):
        with pytest.raises(ValueError, match="exceeds"):
            window_slices(10, WindowSpec(11, 1))


class TestSlicing:
    def assemble_random(self, n=4, t=12, k=3, seed=13, **kw):
        rng = np.random.default_rng(seed)
        scores = rng.standard_normal((n, t, k))
        layout = FeatureLayout(t, k, kw.get("include_velocity", True), kw.get("include_acceleration", True))
        return scores, assemble(scores, **kw), layout

    @pytest.mark.parametrize(
        "blocks",
        [
            {},
            {"include_acceleration": False},
            {"literal_sum": True},
            {"include_velocity": False, "include_acceleration": False},
        ],
        ids=["default", "no_acceleration", "literal_sum", "scores_only"],
    )
    def test_slice_equals_direct_assembly(self, blocks):
        # window search assembles each window's features from its frames
        # alone, relying on this identity for every block setting
        scores, x, layout = self.assemble_random(**blocks)
        for window in [(0, 4), (2, 6), (3, 8), (9, 11)]:
            sliced = slice_features(x, layout, window)
            direct = assemble(scores[:, window[0] : window[1] + 1, :], **blocks)
            assert np.array_equal(sliced, direct)

    def test_full_window_is_identity(self):
        _, x, layout = self.assemble_random()
        assert np.array_equal(slice_features(x, layout, (0, 11)), x)

    def test_short_window_rejected(self):
        _, x, layout = self.assemble_random()
        with pytest.raises(DataFormatError, match="too short"):
            slice_features(x, layout, (5, 6))

    def test_out_of_range_rejected(self):
        _, x, layout = self.assemble_random()
        with pytest.raises(ValueError, match="out of range"):
            slice_features(x, layout, (8, 12))


class TestExport:
    def test_header_and_rows(self, tmp_path):
        scores = np.array([[[1.0], [2.0], [4.0]], [[0.0], [1.0], [3.0]]])
        path = tmp_path / "f.csv"
        export_csv(assemble(scores), FeatureLayout(3, 1), path, sample_ids=["a", "b"], labels=["wild", "mutated"])
        lines = path.read_text().splitlines()
        assert lines[0].startswith("sample_id,label,f0_pc0,f1_pc0,f2_pc0,v0_pc0")
        assert lines[1].split(",")[:2] == ["a", "wild"]
        assert len(lines) == 3

    def test_one_id_and_label_per_row(self, tmp_path):
        x = assemble(np.zeros((2, 3, 1)))
        with pytest.raises(ValueError, match="per matrix row"):
            export_csv(x, FeatureLayout(3, 1), tmp_path / "f.csv", ["a", "b"], ["wild"])

    def test_wrong_column_count_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="columns"):
            export_csv(np.zeros((2, 10)), FeatureLayout(5, 3), tmp_path / "f.csv", ["a", "b"], ["wild", "wild"])
        assert not (tmp_path / "f.csv").exists()

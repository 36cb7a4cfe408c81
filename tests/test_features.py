"""Velocity/acceleration blocks, window grid, and slice identities."""

import numpy as np
import pytest

from rootgrowth.errors import DataFormatError
from rootgrowth.features import (
    FeatureLayout,
    FeatureMatrix,
    WindowSpec,
    acceleration,
    assemble,
    slice_features,
    velocity,
    window_slices,
)

from oracles import acceleration_loops, velocity_loops, windows_loops


class TestDifferences:
    def test_known_row(self):
        # scores 1,2,4 -> velocity 1,2 -> acceleration 1
        scores = np.array([[[1.0], [2.0], [4.0]]])
        fm = assemble(scores)
        assert fm.values[0].tolist() == [1.0, 2.0, 4.0, 1.0, 2.0, 1.0]

    def test_literal_sum_row(self):
        scores = np.array([[[1.0], [2.0], [4.0]]])
        fm = assemble(scores, literal_sum=True)
        # additive velocity 3, 6; its difference 3
        assert fm.values[0].tolist() == [1.0, 2.0, 4.0, 3.0, 6.0, 3.0]

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
        fm = assemble(z)
        for i in range(5):
            want = [z[i].ravel(), velocity_loops(z[i]).ravel(), acceleration_loops(z[i]).ravel()]
            assert np.array_equal(fm.values[i], np.concatenate(want))

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            velocity(np.ones((1, 2)))
        with pytest.raises(ValueError):
            acceleration(np.ones((1, 2)))


class TestLayout:
    def test_width_and_offsets(self):
        lay = FeatureLayout(5, 3)
        assert lay.width == 5 * 3 + 4 * 3 + 3 * 3
        assert lay.velocity_offset == 15
        assert lay.acceleration_offset == 27
        assert len(lay.column_names()) == lay.width

    def test_scores_only_width(self):
        lay = FeatureLayout(5, 3, has_velocity=False, has_acceleration=False)
        assert lay.width == 15

    def test_acceleration_requires_velocity(self):
        with pytest.raises(ValueError, match="requires velocity"):
            FeatureLayout(5, 3, has_velocity=False, has_acceleration=True)

    def test_matrix_width_checked(self):
        with pytest.raises(ValueError, match="columns"):
            FeatureMatrix(np.zeros((2, 10)), FeatureLayout(5, 3))

    def test_matrix_copies_writeable_input(self):
        values = np.arange(12.0).reshape(2, 6)
        fm = FeatureMatrix(values, FeatureLayout(3, 1))
        values[0, 0] = 99.0
        assert fm.values[0, 0] == 0.0
        assert not fm.values.flags.writeable


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
        return scores, assemble(scores, **kw)

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
        scores, fm = self.assemble_random(**blocks)
        for window in [(0, 4), (2, 6), (3, 8), (9, 11)]:
            sliced = slice_features(fm, window)
            direct = assemble(scores[:, window[0] : window[1] + 1, :], **blocks)
            assert np.array_equal(sliced.values, direct.values)
            assert sliced.layout == direct.layout

    def test_full_window_is_identity(self):
        _, fm = self.assemble_random()
        sliced = slice_features(fm, (0, 11))
        assert np.array_equal(sliced.values, fm.values)

    def test_short_window_rejected(self):
        _, fm = self.assemble_random()
        with pytest.raises(DataFormatError, match="too short"):
            slice_features(fm, (5, 6))

    def test_out_of_range_rejected(self):
        _, fm = self.assemble_random()
        with pytest.raises(ValueError, match="out of range"):
            slice_features(fm, (8, 12))


class TestExport:
    def test_header_and_rows(self, tmp_path):
        scores = np.array([[[1.0], [2.0], [4.0]], [[0.0], [1.0], [3.0]]])
        fm = assemble(scores)
        path = tmp_path / "f.csv"
        from rootgrowth.features import export_csv

        export_csv(fm, path, sample_ids=["a", "b"], labels=["wild", "mutated"])
        lines = path.read_text().splitlines()
        assert lines[0].startswith("sample_id,label,f0_pc0,f1_pc0,f2_pc0,v0_pc0")
        assert lines[1].split(",")[:2] == ["a", "wild"]
        assert len(lines) == 3

    def test_one_id_and_label_per_row(self, tmp_path):
        from rootgrowth.features import export_csv

        fm = assemble(np.zeros((2, 3, 1)))
        with pytest.raises(ValueError, match="per matrix row"):
            export_csv(fm, tmp_path / "f.csv", ["a", "b"], ["wild"])

"""Projection fitting against a hand-rolled Jacobi eigensolver and the
SVD-based fit it replaced."""

import warnings

import numpy as np
import pytest

from rootgrowth.dataset import SyntheticConfig, generate_synthetic
from rootgrowth.errors import DataFormatError, NumericError
from rootgrowth.pca import PcaModel, fit, max_components, save_model, transform

from oracles import jacobi_eigh, load_model, pca_fit_reference, reconstruct


class TestFitKnownValues:
    def test_diagonal_line(self):
        # points on y = x: all variance along (1,1)/sqrt(2), eigenvalue 2
        data = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        model = fit(data, 1)
        assert model.eigenvalues[0] == pytest.approx(2.0, abs=1e-12)
        assert model.components[0] == pytest.approx(
            [0.7071067811865475, 0.7071067811865475], abs=1e-12
        )
        assert model.mean == pytest.approx([1.0, 1.0])

    def test_sign_convention(self):
        # largest-magnitude loading comes out positive regardless of input sign
        data = np.array([[0.0, 0.0], [-1.0, -2.0], [-2.0, -4.0]])
        model = fit(data, 1)
        assert model.components[0, 1] > 0

    def test_scores_centered(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((20, 4))
        model = fit(data, 3)
        scores = transform(model, data)
        assert np.allclose(scores.mean(axis=0), 0.0, atol=1e-12)


class TestAgainstJacobi:
    @pytest.mark.parametrize("seed", range(5))
    def test_eigenvalues_match(self, seed):
        rng = np.random.default_rng(seed)
        n, d = 30, 4
        data = rng.standard_normal((n, d)) * rng.uniform(0.5, 3.0, size=d)
        model = fit(data, d)
        centered = data - data.mean(axis=0)
        cov = centered.T @ centered / (n - 1)
        ref_vals, ref_vecs = jacobi_eigh(cov)
        assert np.allclose(model.eigenvalues, ref_vals, atol=1e-10)
        # compare subspaces; signs are convention-dependent
        for i in range(d):
            dot = abs(float(model.components[i] @ ref_vecs[:, i]))
            assert dot == pytest.approx(1.0, abs=1e-8)


class TestModelValidation:
    def test_orthonormality_enforced(self):
        with pytest.raises(ValueError, match="orthonormal"):
            PcaModel(
                mean=np.zeros(2),
                components=np.array([[1.0, 0.1], [0.0, 1.0]]),
                eigenvalues=np.array([1.0, 0.5]),
            )

    def test_k_out_of_range(self):
        data = np.random.default_rng(1).standard_normal((5, 3))
        with pytest.raises(ValueError, match="n_components"):
            fit(data, 0)
        with pytest.raises(ValueError, match="n_components"):
            fit(data, 4)  # min(n - 1, d) = 3

    def test_zero_variance_rejected(self):
        with pytest.raises(DataFormatError, match="variance"):
            fit(np.ones((6, 3)), 1)

    def test_non_finite_eigenvalues_rejected(self):
        # np.diff([inf, inf]) is NaN, which the ordering check lets through
        with pytest.raises(ValueError, match="finite"):
            PcaModel(mean=np.zeros(2), components=np.eye(2), eigenvalues=np.array([np.inf, np.inf]))
        with pytest.raises(ValueError, match="finite"):
            PcaModel(mean=np.zeros(2), components=np.eye(2), eigenvalues=np.array([1.0, np.nan]))

    def test_overflowing_variances_raise(self):
        # finite rows whose squared singular values overflow
        data = np.random.default_rng(4).standard_normal((20, 3))
        data[:5] *= 2.0**1016
        with np.errstate(over="ignore"):
            with pytest.raises(NumericError, match="overflow"):
                fit(data, 2)


class TestRankDeficient:
    def test_rank_three_in_ten_coordinates(self):
        rng = np.random.default_rng(8)
        data = rng.standard_normal((40, 3)) @ rng.standard_normal((3, 10)) + 5.0
        model = fit(data, max_components(*data.shape))
        assert model.n_components == 10
        assert np.all(model.eigenvalues >= 0)
        assert np.all(np.diff(model.eigenvalues) <= 0)
        assert np.all(model.eigenvalues[:3] > 1.0)
        assert np.all(model.eigenvalues[3:] < 1e-12)

    def test_fewer_rows_than_coordinates(self):
        data = np.random.default_rng(9).standard_normal((5, 60))
        model = fit(data, 4)
        assert model.components.shape == (4, 60)
        assert np.all(model.eigenvalues > 0)
        assert np.all(np.diff(model.eigenvalues) <= 0)
        back = reconstruct(model, transform(model, data))
        assert np.allclose(back, data, atol=1e-10)  # 5 rows span 4 directions


def _synthetic_frames(n_coords, n_frames, seed):
    ds = generate_synthetic(SyntheticConfig(n_per_class=8, n_frames=n_frames, n_coords=n_coords, seed=seed))
    return ds.frames.reshape(-1, n_coords)


def _random_shape(seed):
    rng = np.random.default_rng(100 + seed)
    n, d = int(rng.integers(3, 60)), int(rng.integers(1, 13))
    k = int(rng.integers(1, max_components(n, d) + 1))
    data = rng.standard_normal((n, d)) * rng.uniform(0.5, 3.0, size=d) + rng.uniform(-10, 10, size=d)
    return data, k


class TestMatchesSvdReference:
    """The scatter-matrix fit against the SVD fit it replaced.

    Tolerances: eigenvalues within 1e-12 relative, sign-fixed components
    within 1e-10 and scores within 1e-10 of the largest score (the
    largest deviations seen are 1.8e-14, 2.7e-13 and 1.3e-13). The
    closest top eigenvalues, on the synthetic 60-coordinate frames, are
    0.08% apart. Errors match in class and message.
    """

    @staticmethod
    def assert_close(data, k):
        got, ref = fit(data, k), pca_fit_reference(data, k)
        assert np.array_equal(got.mean, ref.mean)
        assert np.allclose(got.eigenvalues, ref.eigenvalues, rtol=1e-12, atol=0)
        assert np.abs(got.components - ref.components).max() <= 1e-10
        got_scores, ref_scores = transform(got, data), transform(ref, data)
        assert np.abs(got_scores - ref_scores).max() <= 1e-10 * np.abs(ref_scores).max()

    @pytest.mark.parametrize("seed", range(20))
    def test_random_shapes(self, seed):
        self.assert_close(*_random_shape(seed))

    def test_csv_pairings_fold_shape(self):
        data = _synthetic_frames(60, 300, seed=0)
        assert data.shape == (4800, 60)
        self.assert_close(data, 30)

    def test_narrow_shape(self):
        self.assert_close(_synthetic_frames(5, 60, seed=1), 3)

    @pytest.mark.parametrize(
        "name, k",
        [
            ("non-finite", 1),
            ("zero variance", 1),
            ("overflow", 2),
            ("overflow past a finite scatter", 1),
            ("k too large", 4),
            ("k zero", 0),
            ("1-D", 1),
        ],
    )
    def test_same_errors(self, name, k):
        rng = np.random.default_rng(10)
        data = {
            "non-finite": np.array([[1.0, np.nan], [2.0, 3.0], [0.0, 1.0]]),
            "zero variance": np.full((6, 3), 2.5),
            "overflow": rng.standard_normal((20, 3)) * np.where(np.arange(20) < 5, 2.0**1016, 1.0)[:, None],
            # scatter entries 2^1021 are finite, its top eigenvalue 60 * 2^1021 is not
            "overflow past a finite scatter": np.array([[2.0**510] * 60, [-(2.0**510)] * 60]),
            "k too large": rng.standard_normal((5, 3)),
            "k zero": rng.standard_normal((5, 3)),
            "1-D": np.arange(4.0),
        }[name]
        outcomes = []
        for fitter in (fit, pca_fit_reference):
            with np.errstate(over="ignore"), pytest.raises(Exception) as info:
                fitter(data, k)
            outcomes.append((type(info.value), str(info.value)))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] in (DataFormatError, NumericError, ValueError)


class TestOverwriteData:
    """Centering the caller's array in place keeps the copying fit's
    errors; `test_evaluation.TestFoldProjection` checks its bits."""

    @pytest.mark.parametrize(
        "data, k, error, message",
        [
            (np.array([[1.0, np.nan], [2.0, 3.0], [0.0, 1.0]]), 1, DataFormatError, "data contains non-finite values"),
            (np.array([[1.0, -np.inf], [2.0, 3.0], [0.0, 1.0]]), 1, DataFormatError, "data contains non-finite values"),
            (np.full((6, 3), 2.5), 1, DataFormatError, "data has zero variance (all rows identical)"),
            (np.ones((5, 3)), 4, ValueError, "n_components must be in [1, 3] for data of shape (5, 3), got 4"),
            (np.zeros((0, 3)), 1, ValueError, "n_components must be in [1, -1] for data of shape (0, 3), got 1"),
            (
                np.array([[2.0**510] * 60, [-(2.0**510)] * 60]), 1, NumericError,
                "PCA variances overflow (data up to 3.35e+153 in magnitude)",
            ),
            (
                np.vstack([np.full((5, 3), -(2.0**1016)), np.ones((15, 3))]), 2, NumericError,
                "PCA variances overflow (data up to 7.02e+305 in magnitude)",
            ),
        ],
    )
    def test_same_errors_and_no_warnings(self, data, k, error, message):
        # the message names the data's largest magnitude, not the centered one's
        for overwrite in (False, True):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(error) as info:
                    fit(data.copy(), k, overwrite_data=overwrite)
            assert str(info.value) == message


class TestReconstruction:
    def test_full_rank_identity(self):
        rng = np.random.default_rng(3)
        data = rng.standard_normal((12, 4))
        model = fit(data, 4)
        back = reconstruct(model, transform(model, data))
        assert np.allclose(back, data, atol=1e-10)

    def test_error_monotone_in_k(self):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((25, 6)) * np.array([3.0, 2.5, 2.0, 1.5, 1.0, 0.5])
        errors = []
        for k in range(1, 7):
            model = fit(data, k)
            back = reconstruct(model, transform(model, data))
            errors.append(float(np.sum((back - data) ** 2)))
        for a, b in zip(errors, errors[1:]):
            assert b <= a + 1e-12


class TestSerialization:
    """`save_model` is the package's writer; `load_model` is the reader in
    the oracles, which checks the header and length it writes."""

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        model = fit(rng.standard_normal((15, 4)), 3)
        path = tmp_path / "m.pca"
        save_model(model, path)
        back = load_model(path)
        assert np.array_equal(back.mean, model.mean)
        assert np.array_equal(back.components, model.components)
        assert np.array_equal(back.eigenvalues, model.eigenvalues)

    def test_rewrite_identical_bytes(self, tmp_path):
        model = fit(np.random.default_rng(6).standard_normal((10, 3)), 2)
        save_model(model, tmp_path / "a.pca")
        save_model(model, tmp_path / "b.pca")
        assert (tmp_path / "a.pca").read_bytes() == (tmp_path / "b.pca").read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.pca"
        path.write_bytes(b"NOPE" + bytes(40))
        with pytest.raises(DataFormatError):
            load_model(path)

    def test_truncated(self, tmp_path):
        model = fit(np.random.default_rng(7).standard_normal((10, 3)), 2)
        path = tmp_path / "t.pca"
        save_model(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(DataFormatError):
            load_model(path)

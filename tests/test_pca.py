"""Projection fitting against a hand-rolled Jacobi eigensolver."""

import numpy as np
import pytest

from rootgrowth.errors import DataFormatError, NumericError
from rootgrowth.pca import PcaModel, fit, load_model, reconstruct, save_model, transform

from oracles import jacobi_eigh


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

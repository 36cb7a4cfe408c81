"""Kernels, SMO training, and agreement with a projected-gradient QP."""

import math
import tracemalloc
from functools import partial

import numpy as np
import pytest

from rootgrowth import svm
from rootgrowth.errors import ConfigError, DataFormatError, NumericError
from rootgrowth.evaluation import ClassifierSpec, fit_classifier, predict_labels
from rootgrowth.svm import (
    KERNEL_KINDS,
    SMO_TOL,
    KernelSpec,
    cross_gram,
    decision_function,
    default_sigmoid_a,
    gram_matrix,
    median_pairwise_distance,
    resolve,
    train_smo,
)

from oracles import dual_value, kernel_eval, project_box_hyperplane, qp_max_dual, train_smo_reference

# the kernels the CLI fits, with their parameters resolved from the data
CLI_KERNELS = tuple(partial(KernelSpec, kind) for kind in KERNEL_KINDS)


class TestKernelSpec:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown kernel"):
            KernelSpec("cubic")

    def test_bad_sigma(self):
        with pytest.raises(ConfigError, match="sigma"):
            KernelSpec("gaussian", sigma=-1.0)

    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    @pytest.mark.parametrize(
        "field,value",
        [
            ("sigma", 1e200),  # sigma^2 overflows
            ("sigma", 9.6e153),  # 2 sigma^2 overflows
            ("sigma", 1e-170),  # 2 sigma^2 rounds to 0
            ("a", math.nan),
            ("b", math.inf),
        ],
    )
    def test_parameters_checked_whatever_the_kind(self, kind, field, value):
        x = np.random.default_rng(6).standard_normal((6, 3))
        y = np.array([1.0, -1.0] * 3)
        with pytest.raises(ConfigError, match=f"^{field} must") as exc:
            train_smo(x, y, KernelSpec(kind, **{field: value}))
        assert exc.value.fields == (field,)

    def test_width_from_data_is_not_a_config_value(self):
        # a median distance whose 2 sigma^2 overflows is the data's width,
        # not a config value, so resolving it raises no ConfigError
        x = np.array([[-6e153], [6e153]])
        assert 2.0 * (median_pairwise_distance(x) ** 2) == math.inf
        with pytest.raises(NumericError, match=r"gaussian kernel width 1\.2e\+154 overflows 2 sigma\^2"):
            resolve(KernelSpec("gaussian"), x)

    def test_default_slope(self):
        assert default_sigmoid_a(4) == 0.25
        spec = resolve(KernelSpec("sigmoid"), np.zeros((3, 8)))
        assert spec.a == 1.0 / 8

    def test_median_distance(self):
        x = np.array([[0.0], [3.0], [4.0]])  # pair distances 3, 4, 1
        assert median_pairwise_distance(x) == 3.0

    @pytest.mark.parametrize("n", [2, 3, 7, 16, 17])
    def test_median_distance_bits_match_pair_loop(self, n):
        # two draws per n with another size in between, so later calls
        # reuse the cached index arrays
        rng = np.random.default_rng(n)
        for _ in range(2):
            x = rng.standard_normal((n, 5)) * 3.0
            sq = np.sum(x * x, axis=1)
            d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
            pairs = [math.sqrt(max(d2[i, j], 0.0)) for i in range(n) for j in range(i + 1, n)]
            assert median_pairwise_distance(x) == float(np.median(pairs))
            assert median_pairwise_distance(x, inner=x @ x.T) == float(np.median(pairs))
            median_pairwise_distance(rng.standard_normal((n + 1, 2)))

    def test_median_distance_duplicates(self):
        with pytest.raises(DataFormatError, match="duplicate"):
            median_pairwise_distance(np.zeros((3, 2)))


class TestGramMatrices:
    def random_points(self, seed, n=12, d=4):
        return np.random.default_rng(seed).standard_normal((n, d))

    def test_bitwise_symmetry_all_kernels(self):
        x = self.random_points(0)
        specs = [
            KernelSpec("linear"),
            KernelSpec("gaussian", sigma=1.3),
            KernelSpec("sigmoid", a=0.25, b=0.1),
        ]
        for spec in specs:
            g = gram_matrix(resolve(spec, x), x)
            assert np.array_equal(g, g.T), spec.kind

    def test_gaussian_diagonal_exactly_one(self):
        x = self.random_points(1)
        g = gram_matrix(KernelSpec("gaussian", sigma=2.0), x)
        assert np.all(np.diag(g) == 1.0)

    @pytest.mark.parametrize("make_kernel", CLI_KERNELS, ids=KERNEL_KINDS)
    def test_matches_pointwise_eval(self, make_kernel):
        x = self.random_points(2, n=6)
        spec = resolve(make_kernel(), x)
        g = gram_matrix(spec, x)
        for i in range(6):
            for j in range(6):
                assert g[i, j] == pytest.approx(kernel_eval(spec, x[i], x[j]), abs=1e-12)

    def test_cross_gram_consistent(self):
        x = self.random_points(3, n=5)
        z = self.random_points(4, n=7)
        for spec in (KernelSpec("linear"), KernelSpec("gaussian", sigma=1.1), KernelSpec("sigmoid", a=0.2, b=0.3)):
            kz = cross_gram(spec, x, z)
            for i in range(5):
                for j in range(7):
                    assert kz[i, j] == pytest.approx(kernel_eval(spec, x[i], z[j]), abs=1e-12)

    def test_gaussian_psd(self):
        x = self.random_points(5, n=15)
        g = gram_matrix(KernelSpec("gaussian", sigma=0.7), x)
        w = np.linalg.eigvalsh(g)
        assert w.min() >= -1e-8

    def test_resolve_fills_sigma(self):
        x = self.random_points(6)
        spec = resolve(KernelSpec("gaussian"), x)
        assert spec.sigma == median_pairwise_distance(x)


def layouts(n, d, rng):
    """C-ordered, F-ordered and column-strided (n, d) arrays of the same
    values, with magnitudes over six decades so rounding order shows."""
    base = rng.standard_normal((n, 2 * d)) * 10.0 ** rng.uniform(-3, 3, (n, 2 * d))
    x = base[:, ::2]
    return {"C": np.ascontiguousarray(x), "F": np.asfortranarray(x), "strided": x}


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


class TestSquaredRowNorms:
    """Gaussian norms square a few rows at a time and keep the bits of
    `np.sum(x * x, axis=1)`: numpy sums a C-ordered row pairwise, in
    blocks of its 8192-element buffer, and an F-ordered row left to right."""

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_bits_match_whole_product(self, layout):
        rng = np.random.default_rng(11)
        for n in (1, 2, 3, 5, 16, 17, 40):
            for d in (1, 2, 9, 171, 3510, 8191, 8192, 8193, 9000):
                x = layouts(n, d, rng)[layout]
                want = np.sum(x * x, axis=1)
                assert np.array_equal(bits(svm._sq_row_norms(x)), bits(want)), (n, d)

    def test_holds_a_few_rows_of_squares(self):
        x = np.random.default_rng(12).standard_normal((40, 3510))
        tracemalloc.start()
        try:
            svm._sq_row_norms(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * x.nbytes, peak / x.nbytes

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_gaussian_width_and_cross_gram_keep_their_bits(self, layout):
        # the formulas as they read with the whole product squared
        def sq(a):
            return np.sum(a * a, axis=1)

        rng = np.random.default_rng(13)
        for n, m, d in ((16, 4, 3510), (17, 5, 9000), (40, 3, 171)):
            x = layouts(n, d, rng)[layout]
            z = layouts(m, d, rng)[layout]
            d2 = sq(x)[:, None] + sq(x)[None, :] - 2.0 * (x @ x.T)
            rows, cols = np.triu_indices(n, k=1)
            sigma = float(np.median(np.sqrt(np.maximum(d2[rows, cols], 0.0))))
            assert bits(median_pairwise_distance(x)) == bits(sigma)
            spec = KernelSpec("gaussian", sigma=sigma)
            cross = np.maximum(sq(x)[:, None] + sq(z)[None, :] - 2.0 * (x @ z.T), 0.0)
            want = np.exp(-cross / (2.0 * sigma**2))
            assert np.array_equal(bits(cross_gram(spec, x, z)), bits(want))


class TestProjectionOracle:
    """Self-checks for the reference QP pieces used against the solver."""

    def test_projection_feasible_and_optimal(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            y = rng.choice([-1.0, 1.0], size=n)
            y[0], y[1] = 1.0, -1.0  # both classes present
            v = rng.standard_normal(n) * 3.0
            c = float(rng.uniform(0.5, 5.0))
            p = project_box_hyperplane(v, y, c)
            assert np.all(p >= -1e-12) and np.all(p <= c + 1e-12)
            assert abs(float(y @ p)) < 1e-9
            # variational inequality: no feasible z is closer along (v - p)
            for _ in range(20):
                z = project_box_hyperplane(rng.standard_normal(n) * 3.0, y, c)
                assert float((v - p) @ (z - p)) <= 1e-8

    def test_two_point_qp(self):
        k = np.array([[1.0, -1.0], [-1.0, 1.0]])
        y = np.array([-1.0, 1.0])
        alpha = qp_max_dual(k, y, c=1.0, steps=2000)
        assert alpha == pytest.approx([0.5, 0.5], abs=1e-6)


class TestSmoTraining:
    def test_two_point_exact(self):
        x = np.array([[-1.0], [1.0]])
        y = np.array([-1.0, 1.0])
        model = train_smo(x, y, KernelSpec("linear"), c=1.0)
        assert model.n_support == 2
        assert model.coef == pytest.approx([-0.5, 0.5], abs=1e-9)
        assert model.bias == pytest.approx(0.0, abs=1e-9)
        assert decision_function(model, np.array([[1.0]])) == pytest.approx(1.0, abs=1e-9)
        assert np.min(y * decision_function(model, x)) == pytest.approx(1.0, abs=1e-9)
        assert model.kkt_residual <= 1e-3

    def test_separable_margins(self):
        rng = np.random.default_rng(8)
        x = np.vstack([rng.standard_normal((10, 2)) + 4.0, rng.standard_normal((10, 2)) - 4.0])
        y = np.array([1.0] * 10 + [-1.0] * 10)
        model = train_smo(x, y, KernelSpec("linear"), c=100.0)
        f = decision_function(model, x)
        assert np.min(y * f) >= 1.0 - 5e-3
        assert np.array_equal(np.where(f > 0, 1.0, -1.0), y)

    def test_matches_qp_oracle(self):
        rng = np.random.default_rng(9)
        for trial in range(5):
            n = int(rng.integers(3, 7))
            x = rng.standard_normal((n, 2))
            y = rng.choice([-1.0, 1.0], size=n)
            y[0], y[1] = 1.0, -1.0
            c = float(rng.uniform(0.5, 3.0))
            spec = resolve(KernelSpec("gaussian", sigma=1.0), x)
            k = gram_matrix(spec, x)
            model = train_smo(x, y, spec, c=c, tol=1e-4)
            alpha = np.zeros(n)
            if model.n_support:
                # recover alpha by matching support vectors back to rows
                for sv, co in zip(model.support_vectors, model.coef):
                    idx = int(np.argmin(np.sum((x - sv) ** 2, axis=1)))
                    alpha[idx] = abs(co)
            w_smo = dual_value(alpha, y, k)
            w_ref = dual_value(qp_max_dual(k, y, c), y, k)
            assert w_smo == pytest.approx(w_ref, abs=1e-3), f"trial {trial}"

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((12, 3))
        y = np.where(x[:, 0] > 0, 1.0, -1.0)
        a = train_smo(x, y, KernelSpec("gaussian"), c=2.0)
        b = train_smo(x, y, KernelSpec("gaussian"), c=2.0)
        assert np.array_equal(a.coef, b.coef)
        assert a.bias == b.bias

    def test_box_and_equality_constraints(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((15, 2))
        y = rng.choice([-1.0, 1.0], size=15)
        y[:2] = (1.0, -1.0)
        model = train_smo(x, y, KernelSpec("sigmoid"), c=1.5)
        assert np.all(np.abs(model.coef) <= 1.5 + 1e-9)
        assert abs(model.coef.sum()) <= 1e-8 * 1.5

    def test_tie_goes_negative(self):
        # f(0) = 0 exactly on this symmetric pair; the tie is class 0
        model = fit_classifier("linear_svm", ClassifierSpec(("linear_svm",)), np.array([[-1.0], [1.0]]), np.array([0, 1]), 0)
        assert decision_function(model, np.array([[0.0]])) == 0.0
        assert predict_labels(model, np.array([[0.0]])).tolist() == [0]

    def test_input_validation(self):
        x = np.zeros((4, 2))
        with pytest.raises(ValueError, match="-1/\\+1"):
            train_smo(x, np.array([0.0, 1.0, 0.0, 1.0]), KernelSpec("linear"))
        with pytest.raises(ConfigError):
            train_smo(x, np.array([-1.0, 1.0, -1.0, 1.0]), KernelSpec("linear"), c=0.0)
        bad = x.copy()
        bad[0, 0] = np.inf
        with pytest.raises(DataFormatError, match="non-finite"):
            train_smo(bad, np.array([-1.0, 1.0, -1.0, 1.0]), KernelSpec("linear"))

    @pytest.mark.parametrize("field", ["c", "tol"])
    def test_nan_solver_setting(self, field):
        # a NaN C would keep every multiplier at 0, a NaN tol would run out
        # the update budget and report residual 0
        rng = np.random.default_rng(5)
        x = rng.standard_normal((10, 2))
        y = np.array([-1.0, 1.0] * 5)
        with pytest.raises(ConfigError, match=r"^need finite C > 0, finite tol > 0, max_passes >= 1$"):
            train_smo(x, y, KernelSpec("linear"), **{field: math.nan})
        # an infinite C lets the sigmoid kernel's multipliers grow to about
        # 1e160 on these rows, and an infinite tol stops at once with no
        # support vectors
        x = rng.standard_normal((12, 3))
        y = np.array([-1.0, 1.0] * 6)
        with pytest.raises(ConfigError, match=r"^need finite C > 0, finite tol > 0, max_passes >= 1$"):
            train_smo(x, y, KernelSpec("sigmoid"), **{field: math.inf})

    def test_no_support_vectors_predicts_the_bias(self):
        # one class only: the equality constraint holds every multiplier
        # at 0, so every decision value is the bias
        x = np.array([[0.0], [1.0], [2.0]])
        model = train_smo(x, np.ones(3), KernelSpec("gaussian", sigma=1.0))
        assert model.n_support == 0
        values = decision_function(model, np.array([[0.5], [-3.0], [9.0], [1.0]]))
        assert values.tolist() == [model.bias] * 4
        assert model.bias == 1.0


def assert_same_fit(a, b, where=""):
    assert np.array_equal(a.coef, b.coef), where
    assert np.array_equal(a.support_vectors, b.support_vectors), where
    assert a.bias == b.bias, where
    assert a.kkt_residual == b.kkt_residual, where


class TestKernelWorkFromTheCaller:
    """`train_smo` given its rows' ``x @ x.T``, and the support-vector
    norms a Gaussian model keeps for its predictions."""

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    def test_given_inner_gives_the_same_model(self, kind, layout):
        rng = np.random.default_rng(22)
        for n, d in ((16, 171), (17, 3510)):
            x = layouts(n, d, rng)[layout]
            y = np.where(rng.standard_normal(n) > 0, 1.0, -1.0)
            y[:2] = (1.0, -1.0)
            want = train_smo(x, y, KernelSpec(kind))
            got = train_smo(x, y, KernelSpec(kind), inner=x @ x.T)
            assert np.array_equal(bits(got.support_vectors), bits(want.support_vectors))
            assert np.array_equal(bits(got.coef), bits(want.coef))
            assert bits(got.bias) == bits(want.bias)
            assert got.kernel == want.kernel
            assert bits(got.kkt_residual) == bits(want.kkt_residual)
            if kind == "gaussian":
                assert np.array_equal(bits(got.sq_norms), bits(want.sq_norms))
            else:
                assert got.sq_norms is None and want.sq_norms is None

    def test_inner_of_the_wrong_shape(self):
        x = np.random.default_rng(23).standard_normal((6, 3))
        y = np.array([1.0, -1.0] * 3)
        for inner in ((x @ x.T)[:-1], np.zeros((7, 7)), np.zeros(36), x):
            with pytest.raises(ValueError, match="inner must be x @ x.T"):
                train_smo(x, y, KernelSpec("linear"), inner=inner)

    def test_input_checks_hold_with_inner(self):
        x = np.zeros((4, 2))
        y = np.array([-1.0, 1.0, -1.0, 1.0])
        inner = x @ x.T
        with pytest.raises(ValueError, match="-1/\\+1"):
            train_smo(x, np.array([0.0, 1.0, 0.0, 1.0]), KernelSpec("linear"), inner=inner)
        with pytest.raises(ConfigError):
            train_smo(x, y, KernelSpec("linear"), c=0.0, inner=inner)
        bad = x.copy()
        bad[0, 0] = np.inf
        with pytest.raises(DataFormatError, match="non-finite"):
            train_smo(bad, y, KernelSpec("linear"), inner=inner)

    @pytest.mark.parametrize("width", [None, 0.5])  # resolved, or given as a share of the median
    def test_gaussian_prediction_keeps_its_bits(self, width):
        rng = np.random.default_rng(24)
        for n, m, d in ((16, 4, 3510), (17, 5, 9000), (40, 3, 171)):
            x = layouts(n, d, rng)["C"]
            z = layouts(m, d, rng)["C"]
            y = np.array([1.0, -1.0] * (n // 2) + [1.0] * (n % 2))
            sigma = None if width is None else width * median_pairwise_distance(x)
            model = train_smo(x, y, KernelSpec("gaussian", sigma=sigma))
            assert model.sq_norms.shape == (model.n_support,)
            assert not model.sq_norms.flags.writeable
            want = model.coef @ cross_gram(model.kernel, model.support_vectors, z) + model.bias
            assert np.array_equal(bits(decision_function(model, z)), bits(want))


class TestSmoMatchesReference:
    """The step loop on Python floats against the vector-form loop, bit for bit."""

    def test_random_problems(self):
        rng = np.random.default_rng(2024)
        for trial in range(540):
            n = int(rng.integers(2, 41))
            d = int(rng.integers(1, 60))
            x = rng.standard_normal((n, d)) * rng.choice([0.01, 1.0, 5.0])
            y = rng.choice([-1.0, 1.0], size=n)
            kernel = CLI_KERNELS[trial % 3]()
            kw = dict(
                c=float(rng.choice([0.1, 0.5, 1.0, 2.0, 100.0])),
                tol=float(rng.choice([1e-3, 1e-4])),
            )
            rng.integers(0, 2**31)  # was the solver seed; drawn so the problems stay the same
            where = f"trial {trial}: n={n} d={d} {kernel.kind} {kw}"
            assert_same_fit(train_smo(x, y, kernel, **kw), train_smo_reference(x, y, kernel, **kw), where)

    def test_duplicate_rows(self):
        # a pair of identical rows has eta == 0: the best-endpoint branch
        rng = np.random.default_rng(31)
        for trial in range(30):
            x = rng.standard_normal((12, 3))
            x[6:] = x[:6]
            y = np.array([1.0, -1.0] * 6)
            y[6:] = rng.choice([-1.0, 1.0], size=6)
            kernel = CLI_KERNELS[trial % 3]()
            k = gram_matrix(resolve(kernel, x), x)
            assert k[0, 0] + k[6, 6] - 2.0 * k[0, 6] <= 1e-12
            c = float(rng.choice([0.5, 1.0, 100.0]))
            assert_same_fit(
                train_smo(x, y, kernel, c=c),
                train_smo_reference(x, y, kernel, c=c),
                f"trial {trial}",
            )

    @pytest.mark.parametrize("make_kernel", CLI_KERNELS, ids=KERNEL_KINDS)
    def test_all_bound_end_state(self, make_kernel):
        # no multiplier strictly inside (0, C): the bias is the midpoint
        # of the feasible interval
        x = np.random.default_rng(0).standard_normal((16, 2))
        y = np.array([1.0, -1.0] * 8)
        ref = train_smo_reference(x, y, make_kernel(), c=0.1)
        assert ref.n_support and np.all(np.abs(ref.coef) == 0.1)
        assert_same_fit(train_smo(x, y, make_kernel(), c=0.1), ref)

    def test_single_pass(self):
        rng = np.random.default_rng(32)
        stopped = 0
        for trial in range(30):
            n = int(rng.integers(2, 41))
            x = rng.standard_normal((n, 4))
            y = rng.choice([-1.0, 1.0], size=n)
            kernel = CLI_KERNELS[trial % 3]()
            a = train_smo(x, y, kernel, c=100.0, max_passes=1)
            b = train_smo_reference(x, y, kernel, c=100.0, max_passes=1)
            assert_same_fit(a, b, f"trial {trial}")
            stopped += a.kkt_residual > 1e-3
        assert stopped > 0


class TestConvergence:
    def test_random_labels(self):
        # mostly non-separable problems at the default max_passes; the
        # random-partner solver it replaced (seed 0) left 30 of these 200 above tol
        rng = np.random.default_rng(0)
        above = dict.fromkeys((1.0, 10.0, 100.0, 1000.0), 0)
        for trial in range(200):
            n = int(rng.integers(10, 41))
            x = rng.standard_normal((n, int(rng.integers(1, 20))))
            y = rng.choice([-1.0, 1.0], size=n)
            c = (1.0, 10.0, 100.0, 1000.0)[trial % 4]
            model = train_smo(x, y, CLI_KERNELS[(trial // 4) % 3](), c=c)
            above[c] += model.kkt_residual > SMO_TOL
        assert above[1.0] == 0, above
        assert sum(above.values()) <= 19, above


class TestNonFinite:
    """Overflowing kernel values stop training instead of passing silently."""

    def huge(self):
        x = np.random.default_rng(33).standard_normal((6, 4)) * 1e160
        return x, np.array([1.0, -1.0] * 3)

    def test_linear_gram(self):
        x, y = self.huge()
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="linear kernel matrix has non-finite entries"):
                train_smo(x, y, KernelSpec("linear"))

    def test_gaussian_gram_with_fixed_sigma(self):
        x, y = self.huge()
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="gaussian kernel matrix has non-finite entries"):
                train_smo(x, y, KernelSpec("gaussian", sigma=1.0))

    def test_median_distance(self):
        x, y = self.huge()
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="median pairwise distance is not finite"):
                median_pairwise_distance(x)
            with pytest.raises(NumericError, match="median pairwise distance is not finite"):
                train_smo(x, y, KernelSpec("gaussian"))

    def test_width_whose_square_overflows(self):
        # a finite median distance whose 2 sigma^2 overflows would give an
        # all-ones Gram: every coefficient at C, bias 0 and every decision 0
        x = np.array([[-6e153], [6e153], [-5e153], [5e153]])
        y = np.array([-1.0, 1.0, -1.0, 1.0])
        with pytest.raises(NumericError, match=r"gaussian kernel width 1\.05e\+154 overflows 2 sigma\^2 "
                           r"\(training data up to 6e\+153 in magnitude\)"):
            train_smo(x, y, KernelSpec("gaussian"))

    def test_width_whose_square_rounds_to_zero(self):
        # the median distance 1.11e-162 is positive, but 2 sigma^2 rounds to
        # 0 and the Gram would divide by it
        x = np.array([[0.0], [0.0], [0.0], [2.3e-162]])
        y = np.array([-1.0, 1.0, -1.0, 1.0])
        with pytest.raises(NumericError, match=r"^gaussian kernel width 1\.11e-162 rounds 2 sigma\^2 to 0 "
                           r"\(training data up to 2\.3e-162 in magnitude\)$"):
            train_smo(x, y, KernelSpec("gaussian"))

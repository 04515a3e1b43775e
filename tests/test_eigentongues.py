import struct
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import subspace_angles

from test_arrayfile import traced_peak, with_declared_shape
from ultratts import arrayfile
from ultratts import eigentongues as et
from ultratts.errors import ArgumentError, DataError, FormatError


def gaussian_in_10d(n=200, seed=0):
    """Samples varying in a known 2-D subspace of a 10-D space, plus tiny jitter."""
    rng = np.random.default_rng(seed)
    directions = np.linalg.qr(rng.normal(size=(10, 10)))[0][:, :2]
    latent = rng.normal(size=(n, 2)) * np.array([3.0, 1.5])
    return latent @ directions.T + 0.01 * rng.normal(size=(n, 10)) + rng.normal(size=10)


def wide_decaying(n=40, d=300, seed=0):
    """Fewer samples than dimensions, with a known geometrically decaying spectrum."""
    rng = np.random.default_rng(seed)
    directions = np.linalg.qr(rng.normal(size=(d, n)))[0]
    latent = rng.normal(size=(n, n)) * (5.0 * 0.9 ** np.arange(n))
    return latent @ directions.T + rng.normal(size=d)


def with_repeated_rows(distinct=30, n=75, d=200, scale=1.0, offset=0.0, seed=0):
    """Quantised rows, each repeated 2-3 times in order as frame-clock resampling does."""
    rows = offset + scale * np.random.default_rng(seed).integers(0, 256, size=(distinct, d))
    return rows[np.arange(n) * distinct // n]


class TestFit:
    def test_single_axis_variance(self):
        data = np.tile(np.arange(10.0), (5, 1))
        data[:, 3] = [0.0, 1.0, 2.0, 3.0, 4.0]
        model = et.fit_pca(data, 0.70)
        assert model.n_components == 1
        expect = np.zeros(10)
        expect[3] = 1.0
        assert np.allclose(np.abs(model.basis[0]), expect, atol=1e-12)

    def test_eigenvalues_match_dense_oracle(self):
        data = gaussian_in_10d()
        model = et.fit_pca(data, 1.0, k_max=None)
        oracle = np.sort(np.linalg.eigvalsh(np.cov(data, rowvar=False)))[::-1]
        assert np.allclose(model.eigenvalues, oracle, rtol=1e-6)

    def test_subspace_matches_dense_oracle(self):
        data = gaussian_in_10d()
        model = et.fit_pca(data, 0.70)
        cov = np.cov(data, rowvar=False)
        evals, evecs = np.linalg.eigh(cov)
        oracle_basis = evecs[:, np.argsort(evals)[::-1][: model.n_components]]
        angles = subspace_angles(model.basis.T, oracle_basis)
        assert np.max(angles) < 1e-6

    def test_fewer_samples_than_dimensions_match_dense_oracle(self):
        data = wide_decaying()
        evals, evecs = np.linalg.eigh(np.cov(data, rowvar=False))
        order = np.argsort(evals)[::-1]
        full = et.fit_pca(data, 1.0, k_max=None)
        assert np.allclose(full.eigenvalues, evals[order][: full.n_components], rtol=1e-6)
        model = et.fit_pca(data, 0.9)
        assert 1 < model.n_components < full.n_components
        angles = subspace_angles(model.basis.T, evecs[:, order[: model.n_components]])
        assert np.max(angles) < 1e-6

    @pytest.mark.parametrize(
        "recipe",
        [
            dict(d=200),
            dict(d=20),
            # centring rounding leaves an axis at ~1e-11 of the top variance
            dict(distinct=9, n=14, d=109, scale=1e-6, offset=1e6),
        ],
        ids=["n<d", "n>d", "n<d-rounding-floor"],
    )
    def test_repeated_rows_give_finite_orthonormal_basis_within_rank(self, recipe):
        data = with_repeated_rows(**recipe)
        rank = np.linalg.matrix_rank(data - data.mean(axis=0))
        model = et.fit_pca(data, 1.0, k_max=None)
        assert np.all(np.isfinite(model.basis))
        gram = model.basis @ model.basis.T
        assert np.allclose(gram, np.eye(model.n_components), rtol=0.0, atol=1e-8)
        assert model.n_components <= rank

    @pytest.mark.parametrize("data", [wide_decaying(), gaussian_in_10d()], ids=["n<d", "n>d"])
    def test_total_variance_is_trace_when_truncated(self, data):
        model = et.fit_pca(data, 1.0, k_max=2)
        assert model.n_components == 2
        centered = data - data.mean(axis=0)
        expect = np.sum(centered * centered) / (data.shape[0] - 1)
        assert model.total_variance == pytest.approx(expect, rel=1e-12)

    def test_orthonormal_rows(self):
        model = et.fit_pca(gaussian_in_10d(), 1.0, k_max=None)
        gram = model.basis @ model.basis.T
        assert np.allclose(gram, np.eye(model.n_components), atol=1e-8)

    def test_explained_fractions_non_increasing_and_bounded(self):
        model = et.fit_pca(gaussian_in_10d(), 0.9)
        fractions = model.eigenvalues / model.total_variance
        assert np.all(np.diff(fractions) <= 1e-15)
        assert fractions.sum() <= 1.0 + 1e-12

    def test_deterministic_including_sign(self):
        data = gaussian_in_10d(seed=3)
        a = et.fit_pca(data, 0.8)
        b = et.fit_pca(data, 0.8)
        assert np.array_equal(a.basis, b.basis)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)

    def test_k_max_truncates(self):
        model = et.fit_pca(gaussian_in_10d(), 1.0, k_max=1)
        assert model.n_components == 1

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(DataError):
            et.fit_pca(np.zeros((1, 4)), 0.7)
        with pytest.raises(DataError):
            et.fit_pca(np.ones((5, 4)), 0.7)
        with pytest.raises(ArgumentError):
            et.fit_pca(np.random.default_rng(0).normal(size=(5, 4)), 1.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_frames_rejected(self, bad):
        data = gaussian_in_10d()
        data[7, 3] = bad
        with pytest.raises(ArgumentError, match="frames must be finite"):
            et.fit_pca(data, 0.9)

    @pytest.mark.parametrize("k_max", [0, -1])
    def test_k_max_below_one_rejected(self, k_max):
        with pytest.raises(ArgumentError, match="k_max"):
            et.fit_pca(gaussian_in_10d(), 0.9, k_max=k_max)


def decaying_rows(distinct, d, seed):
    """Distinct rows with a geometrically decaying spectrum, and 1-4 repeats of each."""
    rng = np.random.default_rng(seed)
    rank = min(distinct, d)
    directions = np.linalg.qr(rng.normal(size=(d, rank)))[0]
    latent = rng.normal(size=(distinct, rank)) * (5.0 * 0.8 ** np.arange(rank))
    return latent @ directions.T + rng.normal(size=d) * 10.0, rng.integers(1, 5, size=distinct)


class TestWeightedFit:
    """Distinct rows with their multiplicities fit as the expanded rows do, to
    criterion 4's bounds."""

    @pytest.mark.parametrize(
        "distinct, d",
        [(30, 200), (30, 50), (30, 8)],
        ids=["snapshot", "snapshot-vs-expanded-scatter", "scatter"],
    )
    def test_counts_fit_equals_expanded_fit(self, distinct, d):
        rows, counts = decaying_rows(distinct, d, seed=d)
        expanded = np.repeat(rows, counts, axis=0)
        weighted = et.fit_pca(rows, 0.9, counts=counts)
        plain = et.fit_pca(expanded, 0.9)
        assert weighted.n_components == plain.n_components > 1
        assert np.allclose(weighted.eigenvalues, plain.eigenvalues, rtol=1e-6)
        assert np.max(subspace_angles(weighted.basis.T, plain.basis.T)) < 1e-6
        assert weighted.total_variance == pytest.approx(plain.total_variance, rel=1e-12)
        assert np.allclose(weighted.mean, plain.mean, rtol=0, atol=1e-12 * np.abs(plain.mean).max())
        # projecting the distinct rows and repeating them gives the expanded coefficients
        coeffs = et.transform(weighted, rows)[np.repeat(np.arange(distinct), counts)]
        assert np.allclose(coeffs, et.transform(plain, expanded), rtol=0, atol=1e-6)

    def test_counts_of_one_fit_the_rows(self):
        data = gaussian_in_10d(seed=11)
        weighted = et.fit_pca(data, 0.9, counts=np.ones(len(data), dtype=np.int64))
        plain = et.fit_pca(data, 0.9)
        assert np.allclose(weighted.eigenvalues, plain.eigenvalues, rtol=1e-12)
        assert np.allclose(weighted.basis, plain.basis, atol=1e-9)

    def test_two_copies_of_one_row_are_two_frames(self):
        # n = Σm: a single distinct row counted twice passes the size check and
        # fails on its zero variance instead
        with pytest.raises(DataError, match="zero total variance"):
            et.fit_pca(np.ones((1, 4)), 0.7, counts=np.array([2]))
        with pytest.raises(DataError, match="at least 2 frames"):
            et.fit_pca(np.ones((1, 4)), 0.7, counts=np.array([1]))

    @pytest.mark.parametrize(
        "counts", [np.array([1, 2]), np.array([1, 0, 2]), np.array([1.0, 2.0, 1.0])],
        ids=["length", "zero", "float"],
    )
    def test_bad_counts_rejected(self, counts):
        with pytest.raises(ArgumentError, match="counts"):
            et.fit_pca(np.random.default_rng(0).normal(size=(3, 4)), 0.9, counts=counts)


def krylov_calls(monkeypatch):
    """Record each block Krylov solve's outcome: its pair count, or None when
    it hands over to the dense solve."""
    calls = []
    original = et._krylov_pairs

    def counted(*args):
        pairs = original(*args)
        calls.append(None if pairs is None else len(pairs[0]))
        return pairs

    monkeypatch.setattr(et, "_krylov_pairs", counted)
    return calls


def dense_fit(monkeypatch, *args, **kwargs):
    """The fit with every Gram matrix decomposed whole by numpy's eigh."""
    with monkeypatch.context() as m:
        m.setattr(et, "KRYLOV_MAX_SHARE", 0.0)
        return et.fit_pca(*args, **kwargs)


def assert_matches_dense(model, dense, settled=None):
    """Criterion 4's bounds against the dense solve: the same k, eigenvalues to
    rtol 1e-6, subspace angles under 1e-6, each axis pointing the same way, and
    the same exact-trace total. Only the first ``settled`` axes are compared
    where the next one is ill-determined."""
    settled = model.n_components if settled is None else settled
    assert model.n_components == dense.n_components
    assert np.allclose(model.eigenvalues, dense.eigenvalues, rtol=1e-6)
    assert np.all(np.diff(model.eigenvalues) <= 0.0)
    axes, oracle = model.basis[:settled], dense.basis[:settled]
    assert np.max(subspace_angles(axes.T, oracle.T)) < 1e-6
    # the sign rule points each axis the same way
    assert np.all(np.sum(axes * oracle, axis=1) > 0.0)
    assert model.total_variance == dense.total_variance


def assert_repeats_bit_for_bit(model, *args, **kwargs):
    again = et.fit_pca(*args, **kwargs)
    assert again.basis.tobytes() == model.basis.tobytes()
    assert again.eigenvalues.tobytes() == model.eigenvalues.tobytes()


def bench_like_rows(rows, d_rows, d_cols, seed):
    """Frames like the bench's 96-mode recipe: a mean image plus 96 smooth
    cosine modes with amplitudes decaying as (j + 1) ** -0.25, each driven by
    its own unit-variance trajectory, quantised to whole grey levels."""
    rng = np.random.default_rng(seed)
    r = np.linspace(0.0, 1.0, d_rows)[None, :, None]
    c = np.linspace(0.0, 1.0, d_cols)[None, None, :]
    fr, fc = rng.uniform(0.5, 6.0, (96, 1, 1)), rng.uniform(0.5, 10.0, (96, 1, 1))
    pr, pc = (rng.uniform(0.0, 2.0 * np.pi, (96, 1, 1)) for _ in range(2))
    modes = np.cos(2.0 * np.pi * fr * r + pr) * np.cos(2.0 * np.pi * fc * c + pc)
    modes = modes.reshape(96, -1)
    modes -= modes.mean(axis=1, keepdims=True)
    modes /= np.sqrt(np.mean(modes**2, axis=1, keepdims=True))
    trajectory = rng.normal(size=(rows, 96)) * (14.0 * (np.arange(96) + 1.0) ** -0.25)
    frames = 128.0 + trajectory @ modes
    return np.floor(frames + 0.5), rng.integers(1, 4, size=rows)


class TestLanczosBranch:
    """A fit asking for at most a quarter of the Gram matrix's order, less one
    block, takes its pairs from the block Krylov solve; they match the dense
    numpy solve to criterion 4's bounds, and a solve that does not converge
    hands over to it. The Gram matrices of the first test are 400 x 400."""

    @pytest.mark.parametrize("weighted", [True, False], ids=["weighted", "unweighted"])
    @pytest.mark.parametrize(
        "distinct, d", [(400, 1200), (1200, 400)], ids=["snapshot", "scatter"]
    )
    def test_matches_the_dense_solve(self, monkeypatch, distinct, d, weighted):
        # unweighted snapshot rows put the all-ones vector in CCᵀ's null space
        rows, counts = decaying_rows(distinct, d, seed=distinct)
        counts = counts if weighted else None
        calls = krylov_calls(monkeypatch)
        krylov = et.fit_pca(rows, 1.0, k_max=24, counts=counts)
        assert calls == [24]
        assert krylov.n_components == 24
        assert_matches_dense(krylov, dense_fit(monkeypatch, rows, 1.0, k_max=24, counts=counts))
        assert_repeats_bit_for_bit(krylov, rows, 1.0, k_max=24, counts=counts)

    @pytest.mark.parametrize("k_max", [None, 26, 400, 1000])
    def test_many_pairs_fall_back_to_the_dense_solve(self, monkeypatch, k_max):
        # a 160 x 160 Gram matrix: 26 pairs and a block are more than a quarter
        rows, _ = decaying_rows(160, 1200, seed=400)
        calls = krylov_calls(monkeypatch)
        model = et.fit_pca(rows, 1.0, k_max=k_max)
        assert calls == []
        dense = dense_fit(monkeypatch, rows, 1.0, k_max=k_max)
        assert model.basis.tobytes() == dense.basis.tobytes()

    @pytest.mark.parametrize("weighted", [True, False], ids=["weighted", "unweighted"])
    def test_white_noise_converges_or_hands_over(self, monkeypatch, weighted):
        # a flat spectrum: the top 16 of 512 pairs are separated by little
        rng = np.random.default_rng(5)
        rows = rng.normal(size=(1500, 512))
        counts = rng.integers(1, 4, size=1500) if weighted else None
        calls = krylov_calls(monkeypatch)
        model = et.fit_pca(rows, 0.7, k_max=16, counts=counts)
        dense = dense_fit(monkeypatch, rows, 0.7, k_max=16, counts=counts)
        assert len(calls) == 1
        if calls == [None]:
            assert model.basis.tobytes() == dense.basis.tobytes()
        assert_matches_dense(model, dense)
        assert_repeats_bit_for_bit(model, rows, 0.7, k_max=16, counts=counts)

    @pytest.mark.parametrize("distinct, d", [(1500, 512), (300, 1024)], ids=["scatter", "snapshot"])
    def test_near_degenerate_pair_on_the_k_boundary(self, monkeypatch, distinct, d):
        # centred rows with these exact Gram eigenvalues; pairs 6 and 7 differ
        # by 1e-9 of their size, and the target falls halfway through pair 6
        rng = np.random.default_rng(7)
        gram_eigenvalues = 100.0 * 0.5 ** np.arange(16)
        gram_eigenvalues[6] = gram_eigenvalues[5] * (1.0 - 1e-9)
        # row-space axes orthogonal to the all-ones vector, so the rows are centred
        ones = np.full((distinct, 1), distinct**-0.5)
        left = rng.normal(size=(distinct, 16))
        left = np.linalg.qr(left - ones @ (ones.T @ left))[0]
        right = np.linalg.qr(rng.normal(size=(d, 16)))[0]
        rows = (left * np.sqrt(gram_eigenvalues)) @ right.T + 50.0
        cumulative = np.cumsum(gram_eigenvalues) / gram_eigenvalues.sum()
        target = (cumulative[4] + cumulative[5]) / 2
        calls = krylov_calls(monkeypatch)
        model = et.fit_pca(rows, target, k_max=16)
        dense = dense_fit(monkeypatch, rows, target, k_max=16)
        assert calls == [6]
        assert model.n_components == 6
        # the sixth axis is any unit vector in the plane of pairs 6 and 7
        assert_matches_dense(model, dense, settled=5)
        assert np.allclose(model.eigenvalues * (distinct - 1), gram_eigenvalues[:6], rtol=1e-6)
        assert_repeats_bit_for_bit(model, rows, target, k_max=16)

    @pytest.mark.parametrize(
        "distinct, d_rows, d_cols, k_max, converges",
        [(1500, 16, 32, 16, False), (700, 64, 128, 128, True)],
        ids=["16x32", "64x128"],
    )
    def test_bench_like_decaying_spectrum(
        self, monkeypatch, distinct, d_rows, d_cols, k_max, converges
    ):
        # at 16x32 the rule keeps all 16 pairs asked, and the slow decay
        # leaves the last ones unconverged within a 128-column basis
        rows, counts = bench_like_rows(distinct, d_rows, d_cols, seed=d_cols)
        calls = krylov_calls(monkeypatch)
        model = et.fit_pca(rows, 0.7, k_max=k_max, counts=counts)
        assert calls == [model.n_components if converges else None]
        dense = dense_fit(monkeypatch, rows, 0.7, k_max=k_max, counts=counts)
        assert model.n_components > 1
        assert_matches_dense(model, dense)
        assert_repeats_bit_for_bit(model, rows, 0.7, k_max=k_max, counts=counts)


class TestCentreInPlace:
    """A fit handed its frames centres them in place and gives the model of
    a fit that leaves its input as it was, bit for bit."""

    @pytest.mark.parametrize("weighted", [True, False], ids=["weighted", "unweighted"])
    @pytest.mark.parametrize(
        "recipe", [(400, 1200), (1200, 400), None], ids=["snapshot", "scatter", "dense"]
    )
    def test_in_place_fit_equals_the_copying_fit(self, recipe, weighted):
        if recipe is None:
            rows, counts = gaussian_in_10d(), np.arange(200) % 3 + 1
        else:
            rows, counts = decaying_rows(*recipe, seed=recipe[0])
        counts = counts if weighted else None
        raw = rows.tobytes()
        model = et.fit_pca(rows, 0.9, k_max=24, counts=counts)
        assert rows.tobytes() == raw
        stack = rows.copy()
        handed = et.fit_pca(stack, 0.9, k_max=24, counts=counts, centre_in_place=True)
        for name in ("mean", "basis", "eigenvalues"):
            assert getattr(handed, name).tobytes() == getattr(model, name).tobytes(), name
        assert handed.total_variance == model.total_variance
        assert stack.tobytes() == (rows - model.mean).tobytes()
        # the centred rows project as transform projects the raw ones
        assert et.project(handed, stack).tobytes() == et.transform(model, rows).tobytes()

    def test_in_place_fit_holds_no_frame_sized_temporary(self, monkeypatch):
        # a 400 x 400 scatter Gram matrix, solved by the Krylov path
        rows, counts = decaying_rows(4000, 400, seed=4)
        calls = krylov_calls(monkeypatch)
        model, peak = traced_peak(
            lambda: et.fit_pca(rows, 0.9, 16, counts, centre_in_place=True)
        )
        assert calls == [model.n_components]
        # the Krylov basis and products with 16 columns; a centred copy would
        # be the frames' size
        assert peak < 0.25 * rows.nbytes
        rows[1234, 56] = np.nan
        tracemalloc.start()
        try:
            with pytest.raises(ArgumentError, match="frames must be finite"):
                et.fit_pca(rows, 0.9, 16, counts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the weighted column sums: a bool mask of the frames would be an eighth
        assert peak < 0.01 * rows.nbytes


class TestTransform:
    @pytest.fixture()
    def model(self):
        return et.fit_pca(gaussian_in_10d(seed=5), 0.95)

    def test_mean_maps_to_zero(self, model):
        assert np.allclose(et.transform(model, model.mean), 0.0, atol=1e-9)

    def test_basis_row_maps_to_unit_coefficient(self, model):
        coeffs = et.transform(model, model.mean + 3.0 * model.basis[0])
        expect = np.zeros(model.n_components)
        expect[0] = 3.0
        assert np.allclose(coeffs, expect, atol=1e-9)

    def test_pythagoras_identity(self, model):
        rng = np.random.default_rng(6)
        for _ in range(10):
            x = rng.normal(size=model.dim) * 4.0
            coeffs = et.transform(model, x)
            residual = x - et.inverse_transform(model, coeffs)
            lhs = np.sum((x - model.mean) ** 2)
            rhs = np.sum(coeffs**2) + np.sum(residual**2)
            assert lhs == pytest.approx(rhs, abs=1e-6)

    def test_length_mismatch_rejected(self, model):
        with pytest.raises(ArgumentError):
            et.transform(model, np.zeros(model.dim + 1))
        with pytest.raises(ArgumentError):
            et.inverse_transform(model, np.zeros(model.n_components + 1))


class TestInverse:
    def test_full_rank_round_trip(self):
        data = gaussian_in_10d(seed=7)
        model = et.fit_pca(data, 1.0, k_max=None)
        x = data[17]
        assert np.allclose(et.inverse_transform(model, et.transform(model, x)), x, atol=1e-6)

    def test_zero_coefficients_give_mean(self):
        model = et.fit_pca(gaussian_in_10d(), 0.7)
        assert np.allclose(
            et.inverse_transform(model, np.zeros(model.n_components)), model.mean
        )

    def test_coefficient_space_round_trip(self):
        model = et.fit_pca(gaussian_in_10d(), 0.9)
        rng = np.random.default_rng(8)
        c = rng.normal(size=model.n_components)
        back = et.transform(model, et.inverse_transform(model, c))
        assert np.allclose(back, c, atol=1e-8)

    def test_reconstruction_error_equals_discarded_eigenvalue_share(self):
        data = gaussian_in_10d(seed=9)
        model = et.fit_pca(data, 0.70)
        full = et.fit_pca(data, 1.0, k_max=None)
        discarded = full.eigenvalues[model.n_components :].sum()
        expect = discarded / model.dim
        assert et.reconstruction_mse(model, data) == pytest.approx(expect, rel=1e-5)


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        model = et.fit_pca(gaussian_in_10d(seed=10), 0.8)
        path = tmp_path / "model.bin"
        et.save_model(model, path)
        loaded = et.load_model(path)
        for name in ("mean", "basis", "eigenvalues"):
            a, b = getattr(loaded, name), getattr(model, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
        assert loaded.variance_target == model.variance_target
        assert loaded.total_variance == model.total_variance

    def test_file_is_four_float64_records(self, tmp_path):
        model = et.fit_pca(gaussian_in_10d(seed=10), 0.8)
        path = tmp_path / "model.bin"
        et.save_model(model, path)
        mean, eigenvalues, basis, scalars = arrayfile.load(path)
        assert mean.tobytes() == model.mean.tobytes()
        assert eigenvalues.tobytes() == model.eigenvalues.tobytes()
        assert basis.tobytes() == model.basis.tobytes()
        assert scalars.tolist() == [model.variance_target, model.total_variance]

    def test_load_reads_one_writable_copy(self, tmp_path):
        rng = np.random.default_rng(11)
        model = et.fit_pca(rng.normal(size=(40, 2000)), 0.9)
        path = tmp_path / "model.bin"
        et.save_model(model, path)
        tracemalloc.start()
        try:
            loaded = et.load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * path.stat().st_size
        for a in (loaded.mean, loaded.basis, loaded.eigenvalues):
            assert a.flags.writeable

    def test_oversized_header_rejected_before_allocating(self, tmp_path):
        model = et.fit_pca(np.random.default_rng(12).normal(size=(40, 2000)), 0.9)
        path = tmp_path / "model.bin"
        et.save_model(model, path)
        data = path.read_bytes()
        k = model.n_components
        # the basis record declares 2^40 components
        path.write_bytes(with_declared_shape(data, (k, 2000), (1 << 40, 2000)))
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="declares"):
                et.load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(data) / 10

    def test_truncated_file_rejected(self, tmp_path):
        model = et.fit_pca(gaussian_in_10d(), 0.8)
        path = tmp_path / "model.bin"
        et.save_model(model, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError, match="model.bin"):
            et.load_model(path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda r: r[:3],
            lambda r: [*r, r[3]],
            lambda r: [r[0], r[1], r[2].T.copy(), r[3]],
            lambda r: [r[0], r[1][:-1], r[2], r[3]],
            lambda r: [r[0].astype(np.float32), *r[1:]],
            lambda r: [*r[:3], r[3][:1]],
        ],
        ids=["no-scalars", "extra-record", "transposed-basis", "short-eigenvalues",
             "float32-mean", "one-scalar"],
    )
    def test_other_records_rejected(self, tmp_path, edit):
        path = tmp_path / "model.bin"
        et.save_model(et.fit_pca(gaussian_in_10d(), 0.8), path)
        arrayfile.save(path, edit(arrayfile.load(path)))
        with pytest.raises(FormatError, match="model.bin"):
            et.load_model(path)

    def test_hand_rolled_version_1_model_rejected(self, tmp_path):
        # the earlier ETPC layout: magic, version, d, k, variance target and
        # total variance, then the mean, eigenvalues and basis as float64
        model = et.fit_pca(gaussian_in_10d(), 0.8)
        header = struct.pack(
            "<4sIQQdd", b"ETPC", 1, model.dim, model.n_components,
            model.variance_target, model.total_variance,
        )
        path = tmp_path / "model.bin"
        path.write_bytes(
            header + model.mean.tobytes() + model.eigenvalues.tobytes() + model.basis.tobytes()
        )
        with pytest.raises(FormatError, match="model.bin"):
            et.load_model(path)

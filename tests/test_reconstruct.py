import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specband import (
    BoundaryMatrix,
    GenProfile,
    MatrixSpec,
    PivotViolation,
    SingularZerothMoment,
    StepMeasure,
    analyze_structure,
    compare_measures,
    eigen_decompose,
    generate_random,
    inner_product,
    norm_sq,
    orthonormalize,
    recover_matrix,
    roundtrip,
    spec_from_dense,
    step_measure,
    truncate,
    validate_class,
)
from specband.reconstruct import RECOVER_STRUCT_TOL, ZERO_NORM_TOL, OrthoResult
from conftest import (
    awkward_measures,
    gue_measure,
    outcome,
    random_boundary,
    random_instance,
    reference_orthonormalize,
    reference_outcome,
)


def measure_of(spec, N, t=None, seed=0):
    m = truncate(spec, N)
    t = t or BoundaryMatrix.identity(spec.n)
    return step_measure(eigen_decompose(m), t), m, t


class TestOrthonormalize:
    def test_flip2_hand_gram_schmidt(self, flip2):
        # weights 1/2 at -1 and +1: ||1||=1 -> p1=1; <1,z>=0, ||z||=1 -> p2=z;
        # z^2 - <1,z^2> = z^2 - 1 has zero norm -> q1
        mu, _, _ = measure_of(flip2, 2)
        res = orthonormalize(mu, max_k=2)
        assert len(res.p_tilde) == 2
        assert np.allclose(res.p_tilde[0].comps[0], [1.0])
        assert np.allclose(res.p_tilde[1].comps[0], [0.0, 1.0])
        assert len(res.q_tilde) == 1
        scaled = res.q_tilde[0] * (1 / res.q_tilde[0].comps[0][0])
        assert np.allclose(scaled.comps[0], [1.0, 0.0, -1.0])  # 1 - z^2
        assert np.allclose(res.t_tilde.t, [[1.0]])
        assert res.q_heights == (2,)

    def test_jac5_chebyshev(self, jac5):
        mu, m, _ = measure_of(jac5, 5)
        res = orthonormalize(mu, max_k=5)
        assert len(res.p_tilde) == 5
        # oracle: orthonormal polynomials for these weights are U_k(z/2)
        from test_spectral import chebyshev_u_scaled

        for k in range(5):
            assert np.allclose(
                res.p_tilde[k].comps[0], chebyshev_u_scaled(k), atol=1e-9
            )
        assert res.q_heights == (5,)

    def test_fix7_counts_and_residues(self, fix7):
        mu, _, _ = measure_of(fix7, 7)
        res = orthonormalize(mu, max_k=7)
        assert len(res.p_tilde) == 7
        assert len(res.q_tilde) == 3
        residues = sorted(h % 3 for h in res.q_heights)
        assert residues == [0, 1, 2]

    def test_emitted_orthonormal(self, fix7):
        t = random_boundary(3, 23)
        mu, _, _ = measure_of(fix7, 7, t)
        res = orthonormalize(mu, max_k=7)
        G = np.array(
            [[inner_product(a, b, mu) for b in res.p_tilde] for a in res.p_tilde]
        )
        assert np.max(np.abs(G - np.eye(7))) < 1e-9

    def test_q_tilde_zero_norm(self, fix7):
        mu, _, _ = measure_of(fix7, 7)
        res = orthonormalize(mu, max_k=7)
        for q in res.q_tilde:
            scale = max(abs(c) for comp in q.comps for c in comp)
            assert norm_sq(q, mu) < 1e-16 * scale**2

    def test_skip_rule_predicts_null_directions(self, fix7):
        mu, _, _ = measure_of(fix7, 7)
        res = orthonormalize(mu, max_k=12, check_skips=True)
        assert res.skip_log  # rank 7 measure forces skips beyond exhaustion
        assert all(r <= 1e-8 for r in res.skip_residuals)

    def test_rank_exhaustion_reported(self, flip2):
        mu, _, _ = measure_of(flip2, 2)
        res = orthonormalize(mu, max_k=10)
        assert res.rank_exhausted
        assert len(res.p_tilde) == 2

    def test_boundary_matrix_upper_triangular_positive(self, fix7):
        t = random_boundary(3, 29)
        mu, _, _ = measure_of(fix7, 7, t)
        res = orthonormalize(mu, max_k=7)
        tt = res.t_tilde.t
        assert np.max(np.abs(np.tril(tt, -1))) < 1e-12
        assert np.all(np.diag(tt).real > 0)
        assert np.max(np.abs(np.diag(tt).imag)) < 1e-12

    def test_singular_zeroth_moment(self):
        c = np.array([1.0, 0.0], dtype=complex)
        mu = StepMeasure(2, ((0.0, c), (1.0, c)))
        with pytest.raises(SingularZerothMoment):
            orthonormalize(mu, 2)


class TestRecoverMatrix:
    def test_flip2_self_reconstruction(self, flip2):
        mu, m, _ = measure_of(flip2, 2)
        res = orthonormalize(mu, max_k=2)
        rec = recover_matrix(res, mu)
        assert np.max(np.abs(rec.data - m.data)) < 1e-12

    def test_jac5_three_term_recovery(self, jac5):
        mu, m, _ = measure_of(jac5, 5)
        res = orthonormalize(mu, max_k=5)
        rec = recover_matrix(res, mu)
        assert np.max(np.abs(rec.data - m.data)) < 1e-10

    def test_fix7_unitary_equivalent(self, fix7):
        mu, m, _ = measure_of(fix7, 7)
        res = orthonormalize(mu, max_k=7)
        rec = recover_matrix(res, mu)
        lam_in = np.linalg.eigvalsh(m.data)
        lam_out = np.linalg.eigvalsh(rec.data)
        assert np.max(np.abs(lam_in - lam_out)) < 1e-8
        spec_rec = spec_from_dense(rec.data, 3)
        assert validate_class(spec_rec, "mtilde").passed


class TestSpecFromDense:
    def test_reads_band_structure(self, jac5):
        m = truncate(jac5, 5)
        spec = spec_from_dense(m.data, 1)
        assert spec.pivot == {c: c - 1 for c in range(2, 6)}
        assert spec.tail == (1, 2)

    def test_pentadiagonal_tail(self):
        d = np.zeros((6, 6))
        for r in range(6):
            d[r, r] = 0.5
            if r + 2 < 6:
                d[r, r + 2] = 1.0
                d[r + 2, r] = 1.0
        spec = spec_from_dense(d, 2)
        assert spec.pivot == {3: 1, 4: 2, 5: 3, 6: 4}
        assert spec.tail == (1, 3)


class TestRoundTrip:
    def test_flip2_exact(self, flip2):
        t = BoundaryMatrix.identity(1)
        rep = roundtrip(flip2, t, 2)
        assert rep.class_ok
        assert rep.eigenvalue_error <= 1e-12
        assert rep.jump_matrix_error <= 1e-12
        assert rep.moment_error <= 1e-12

    def test_random_instance(self):
        spec, _ = random_instance(3, n=2, N=10)
        t = random_boundary(2, 3)
        rep = roundtrip(spec, t, 10)
        assert rep.class_ok
        assert rep.eigenvalue_error <= 1e-8
        assert rep.jump_matrix_error <= 1e-7

    def test_fix7_measures_agree(self, fix7):
        t = random_boundary(3, 41)
        rep = roundtrip(fix7, t, 7)
        assert rep.class_ok
        assert rep.jump_matrix_error <= 1e-7
        assert rep.q_residues_distinct

    def test_idempotence_on_reconstructed(self):
        spec, N = random_instance(5, n=2, N=9)
        t = random_boundary(2, 5)
        rep1 = roundtrip(spec, t, N)
        spec2 = spec_from_dense(rep1.matrix.data, 2)
        rep2 = roundtrip(spec2, rep1.boundary, N)
        assert np.max(np.abs(rep2.matrix.data - rep1.matrix.data)) < 1e-9

    def test_moment_agreement_order(self, jac5):
        t = BoundaryMatrix.identity(1)
        rep = roundtrip(jac5, t, 5)
        assert rep.moment_order == 2 * (5 - 1)
        assert rep.moment_error < 1e-9

    def test_compare_measures_detects_difference(self, flip2, jac5):
        mu1, _, _ = measure_of(flip2, 2)
        mu2, _, _ = measure_of(jac5, 5)
        loc, mat = compare_measures(mu1, mu2)
        assert loc == float("inf")


# -- spec_from_dense against the per-query scans it replaced ----------------


def scan_spec_from_dense(data, n, rel_tol=RECOVER_STRUCT_TOL):
    """Reference: entries by a double loop, edges by rescanning the entries."""
    data = np.asarray(data, dtype=complex)
    N = data.shape[0]
    scale = float(np.max(np.abs(data))) or 1.0
    tol = rel_tol * scale
    entries = {}
    for j in range(1, N + 1):
        for k in range(j, N + 1):
            v = data[j - 1, k - 1]
            if abs(v) > tol:
                entries[(j, k)] = complex(v)

    def rightmost(row):
        cols = [k for (j, k) in entries if j == row] + [j for (j, k) in entries if k == row]
        return max(cols, default=0)

    def topmost(col):
        rows = [j for (j, k) in entries if k == col] + [k for (j, k) in entries if j == col]
        return min(rows, default=0)

    pivot = {}
    for c in range(n + 1, N + 1):
        r = topmost(c)
        if r == 0 or r >= c:
            raise PivotViolation(f"column {c} has no readable pivot")
        if rightmost(r) != c:
            raise PivotViolation(f"topmost entry of column {c} (row {r}) is not a row edge")
        pivot[c] = r
    tail = None
    if pivot:
        c = N
        while c - 1 in pivot and c in pivot and pivot[c - 1] == pivot[c] - 1:
            c -= 1
        tail = (pivot[c], c)
    return MatrixSpec(n, N, entries, pivot, tail, None)


def spec_parts(spec):
    """Everything a spec holds, with entry order and index types made visible."""
    if not isinstance(spec, MatrixSpec):
        return spec
    keys = [(type(j), type(k)) for j, k in spec.entries]
    return (spec.n, spec.n_max, list(spec.entries.items()), keys, spec.pivot, spec.tail)


def assert_reads_like_scans(data, n):
    new = outcome(spec_from_dense, data, n)
    assert spec_parts(new) == spec_parts(outcome(scan_spec_from_dense, data, n))
    if isinstance(new, MatrixSpec):
        for which in ("m", "mtilde"):
            report = validate_class(new, which).to_dict()
            assert report == reference_outcome(
                lambda s: validate_class(s, which).to_dict(), new
            )


def recovered_matrix(spec, N, t):
    mu, _, _ = measure_of(spec, N, t)
    return recover_matrix(orthonormalize(mu, N), mu).data


class TestSpecFromDenseMatchesScans:
    def test_recovered_acceptance_set(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            n = seed % 3 + 1
            N = int(rng.integers(n + 2, 16))
            spec = generate_random(GenProfile(n=n, n_max=max(N, n + 2)), seed)
            data = recovered_matrix(spec, N, random_boundary(n, seed + 10_000))
            assert_reads_like_scans(data, n)

    def test_truncations_and_failures(self, jac5, fix7):
        assert_reads_like_scans(truncate(jac5, 5).data, 1)
        assert_reads_like_scans(truncate(fix7, 7).data, 3)  # column 5 is not read
        assert_reads_like_scans(np.zeros((4, 4)), 1)
        assert_reads_like_scans(np.eye(3), 1)


@st.composite
def dense_near_threshold(draw):
    """Recovered band matrices, rescaled, with entries at RECOVER_STRUCT_TOL * scale."""
    n = draw(st.integers(1, 3))
    N = draw(st.integers(n + 2, 14))
    seed = draw(st.integers(0, 10_000))
    spec = generate_random(GenProfile(n=n, n_max=N, mtilde=True), seed)
    data = recovered_matrix(spec, N, BoundaryMatrix.identity(n))
    data = data * draw(st.sampled_from([1e-6, 0.3, 1.0, 40.0]))
    scale = float(np.max(np.abs(data)))
    tol = RECOVER_STRUCT_TOL * scale
    positions = [(j, k) for j in range(N) for k in range(N) if abs(data[j, k]) < scale]
    for j, k in draw(st.lists(st.sampled_from(positions), max_size=8, unique=True)):
        mag = draw(st.sampled_from([tol, np.nextafter(tol, 0.0), np.nextafter(tol, np.inf)]))
        value = draw(st.sampled_from([mag, -mag, 1j * mag]))
        data[j, k] = value
        if draw(st.booleans()):  # keep it Hermitian, or let the lower triangle disagree
            data[k, j] = np.conj(value)
    return data, n


@settings(max_examples=100, deadline=None)
@given(dense_near_threshold())
def test_spec_from_dense_matches_scans_near_threshold(case):
    assert_reads_like_scans(*case)


# -- orthonormalize against the VectorPolynomial sweep it replaced ----------


def sweep_parts(res):
    """Every field of a sweep, arrays as bytes, polynomials as coefficients."""
    if not isinstance(res, OrthoResult):
        return res
    w = res.weights
    return (
        w.dtype, w.shape, w.tobytes(), res.q_heights, res.skip_log, res.rank_exhausted,
        res.skip_residuals, res.t_tilde.t.tobytes(),
        [p.comps for p in res.p_tilde], [q.comps for q in res.q_tilde],
    )


def assert_sweep_like_reference(mu, max_k, check_skips=True, zero_tol=ZERO_NORM_TOL):
    args = (mu, max_k, check_skips, zero_tol)
    new = outcome(orthonormalize, *args)
    assert sweep_parts(new) == sweep_parts(outcome(reference_orthonormalize, *args))
    return new


def acceptance_measures():
    """The shared 50-instance set of the acceptance suite, as step measures."""
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = seed % 3 + 1
        N = int(rng.integers(n + 2, 21))
        spec = generate_random(GenProfile(n=n, n_max=max(N, n + 2)), seed)
        yield measure_of(spec, N, random_boundary(n, seed + 10_000))[0], N


class TestSweepMatchesReference:
    def test_acceptance_set(self):
        for mu, N in acceptance_measures():
            for max_k in (N, N + 4, max(N // 2, mu.n)):
                res = assert_sweep_like_reference(mu, max_k)
                if N <= 10:
                    for p, w in zip(res.p_tilde, res.weights):
                        assert np.max(np.abs(mu.weight_row(p) - w)) <= 1e-10
            assert_sweep_like_reference(mu, N, check_skips=False)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_gue_measures(self, n):
        for N in (n + 1, 10, 20, 40, 80):
            mu = gue_measure(N, n, N)
            assert_sweep_like_reference(mu, N)
            assert_sweep_like_reference(mu, N // 3 + n, check_skips=False)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("max_k", [6, 12])
    def test_tiny_threshold_stops_at_n_emitted(self, n, max_k):
        # under zero_tol=1e-300 rounding residues past the 3-dimensional
        # space count as directions; emission still stops at N = 3
        mu = gue_measure(0, n, 3)
        res = assert_sweep_like_reference(mu, max_k, zero_tol=1e-300)
        assert len(res.p_tilde) == 3 and res.rank_exhausted
        coeffs = [c for p in res.p_tilde for comp in p.comps for c in comp]
        assert np.all(np.isfinite(coeffs))


@settings(max_examples=200, deadline=None)
@given(awkward_measures(), st.data())
def test_sweep_matches_reference_on_awkward_measures(mu, data):
    max_k = data.draw(st.integers(1, mu.size + 3), label="max_k")
    zero_tol = data.draw(st.sampled_from([ZERO_NORM_TOL, 1e-4, 1e-13]), label="zero_tol")
    assert_sweep_like_reference(mu, max_k, data.draw(st.booleans()), zero_tol)

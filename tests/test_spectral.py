import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from specband import (
    BoundaryMatrix,
    FiniteHermitian,
    GenProfile,
    SingularBoundary,
    analyze_structure,
    build_p,
    build_q,
    c_vectors,
    completeness_defect,
    det_theta,
    det_theta_polynomial,
    eigen_decompose,
    generate_random,
    gram_matrix,
    inner_product,
    multiplication_matrix,
    norm_sq,
    psi_at,
    q_norms_sq,
    step_measure,
    theta_at,
    truncate,
)
from specband.errors import DimensionMismatch
from specband.spectral import StepMeasure, jump_rank
from specband.vectorpoly import VectorPolynomial, height

from conftest import (
    awkward_measures,
    gue_measure,
    outcome,
    random_boundary,
    random_instance,
    reference_det_theta,
    reference_det_theta_polynomial,
    reference_gram_matrix,
    reference_moment,
    reference_multiplication_matrix,
    reference_psi_at,
    reference_q_norms_sq,
    reference_theta_at,
)


# ---------------------------------------------------------------- oracles

def chebyshev_u_scaled(k):
    """Oracle: ascending coefficients of U_k(z/2) via the three-term recurrence."""
    prev, cur = [1.0], [0.0, 1.0]  # U_0(z/2)=1, U_1(z/2)=z
    if k == 0:
        return prev
    for _ in range(k - 1):
        nxt = [0.0] + cur  # z * cur
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return cur


def free_jacobi_eigendata(N):
    """Oracle: closed-form eigenvalues/vectors of tridiag(0;1) of size N."""
    ks = np.arange(1, N + 1)
    lams = 2 * np.cos(ks * np.pi / (N + 1))
    vecs = np.array(
        [[np.sin(j * k * np.pi / (N + 1)) for k in ks] for j in ks]
    ) * np.sqrt(2 / (N + 1))
    order = np.argsort(lams)
    return lams[order], vecs[:, order]


def setup(spec, N, t=None, seed=0):
    m = truncate(spec, N)
    s = analyze_structure(spec, N)
    if t is None:
        t = BoundaryMatrix.identity(spec.n)
    sd = eigen_decompose(m)
    return m, s, t, sd


# ---------------------------------------------------------------- eigen

class TestEigenDecompose:
    def test_flip2(self, flip2):
        m, s, t, sd = setup(flip2, 2)
        assert np.allclose(sd.lambdas, [-1.0, 1.0])
        # columns are (1,-1)/sqrt2 and (1,1)/sqrt2 up to phase
        assert np.allclose(np.abs(sd.phi), np.full((2, 2), 1 / np.sqrt(2)))

    def test_jac5_closed_form(self, jac5):
        m, s, t, sd = setup(jac5, 5)
        lams, _ = free_jacobi_eigendata(5)
        expected = [-np.sqrt(3), -1.0, 0.0, 1.0, np.sqrt(3)]
        assert np.allclose(lams, expected)
        assert np.allclose(sd.lambdas, expected, atol=1e-12)

    def test_fix7_against_scipy(self, fix7):
        m, s, t, sd = setup(fix7, 7)
        oracle = np.sort(scipy.linalg.eigh(m.data, eigvals_only=True))
        assert np.max(np.abs(sd.lambdas - oracle)) <= 1e-10

    def test_unitarity(self, fix7):
        _, _, _, sd = setup(fix7, 7)
        assert sd.unitarity_defect() <= 1e-10 * 7


# ---------------------------------------------------------------- p and q

class TestBuildP:
    def test_flip2(self, flip2):
        m, s, t, _ = setup(flip2, 2)
        p = build_p(m, s, t)
        assert p[0].comps == (((1 + 0j),),)
        assert p[1].comps == ((0j, (1 + 0j)),)

    def test_jac5_is_chebyshev_u(self, jac5):
        m, s, t, _ = setup(jac5, 5)
        p = build_p(m, s, t)
        for k in range(5):
            expected = chebyshev_u_scaled(k)
            got = p[k].comps[0]
            assert len(got) == len(expected)
            assert np.allclose(got, expected)

    def test_jac5_frozen_values(self, jac5):
        # frozen from the recurrence oracle: U_2(z/2)=z^2-1, U_4(z/2)=z^4-3z^2+1
        m, s, t, _ = setup(jac5, 5)
        p = build_p(m, s, t)
        assert np.allclose(p[2].comps[0], [-1, 0, 1])
        assert np.allclose(p[4].comps[0], [1, 0, -3, 0, 1])

    def test_fix7_p4_recursion_display(self, fix7):
        # p_4 = m14^{-1} ((z - m11) p_1 - m12 p_2 - m13 p_3) for real entries
        m, s, t, _ = setup(fix7, 7)
        p = build_p(m, s, t)
        d = m.data.real
        expect = (
            p[0].z_mul()
            - p[0] * d[0, 0]
            - p[1] * d[0, 1]
            - p[2] * d[0, 2]
        ) * (1 / d[0, 3])
        diff = p[3] - expect
        assert all(abs(c) < 1e-12 for comp in diff.comps for c in comp)

    def test_boundary_constants(self, fix7):
        t = random_boundary(3, 5)
        m, s, _, _ = setup(fix7, 7)
        p = build_p(m, s, t)
        for k in range(3):
            assert np.allclose(p[k].evaluate(0.37), t.t[:, k])

    def test_initial_heights(self, fix7):
        m, s, t, _ = setup(fix7, 7)
        p = build_p(m, s, t)
        assert [height(p[k]) for k in range(3)] == [0, 1, 2]


class TestBuildQ:
    def test_flip2_q1(self, flip2):
        m, s, t, _ = setup(flip2, 2)
        p = build_p(m, s, t)
        q = build_q(m, s, t, p)
        assert np.allclose(q[0].comps[0], [1, 0, -1])  # 1 - z^2

    def test_fix7_q3_display(self, fix7):
        # q_3 = (m77 - z) p_7 + m76 p_6 for the real fixture
        m, s, t, _ = setup(fix7, 7)
        p = build_p(m, s, t)
        q = build_q(m, s, t, p)
        d = m.data.real
        expect = p[6] * d[6, 6] - p[6].z_mul() + p[5] * d[6, 5]
        diff = q[2] - expect
        assert all(abs(c) < 1e-12 for comp in diff.comps for c in comp)

    def test_jac5_q_roots_are_eigenvalues(self, jac5):
        m, s, t, sd = setup(jac5, 5)
        p = build_p(m, s, t)
        q = build_q(m, s, t, p)
        roots = np.sort(np.roots(list(reversed(q[0].comps[0]))).real)
        assert np.allclose(roots, sd.lambdas, atol=1e-8)


# ---------------------------------------------------------------- C vectors

class TestCVectors:
    def test_flip2(self, flip2):
        m, s, t, sd = setup(flip2, 2)
        cs = c_vectors(sd, t)
        assert all(abs(abs(c[0]) - 1 / np.sqrt(2)) < 1e-12 for c in cs)

    def test_jac5_closed_form_weights(self, jac5):
        m, s, t, sd = setup(jac5, 5)
        cs = c_vectors(sd, t)
        # |C|^2 = phi_1^2 = (1/3) sin^2(k pi/6), eigenvalues ascending <-> k=5..1
        expected = [np.sin(k * np.pi / 6) ** 2 / 3 for k in (5, 4, 3, 2, 1)]
        assert np.allclose([abs(c[0]) ** 2 for c in cs], expected)

    def test_scaling_by_alpha(self, fix7):
        m, s, _, sd = setup(fix7, 7)
        alpha = 1.7 - 0.4j
        t1 = BoundaryMatrix.identity(3)
        t2 = BoundaryMatrix(3, alpha * np.eye(3))
        c1 = c_vectors(sd, t1)
        c2 = c_vectors(sd, t2)
        for a, b in zip(c1, c2):
            assert np.allclose(b, a / np.conj(alpha))

    def test_singular_boundary(self, fix7):
        _, _, _, sd = setup(fix7, 7)
        t = BoundaryMatrix(3, np.triu(np.ones((3, 3))) - np.eye(3) * 1.0 + np.diag([1, 0, 1]))
        with pytest.raises(SingularBoundary):
            c_vectors(sd, t)


# ---------------------------------------------------------------- measure

class TestStepMeasure:
    def test_flip2_jumps(self, flip2):
        m, s, t, sd = setup(flip2, 2)
        mu = step_measure(sd, t)
        jumps = mu.grouped_jumps()
        assert [round(j[0], 12) for j in jumps] == [-1.0, 1.0]
        assert all(abs(j[1][0, 0] - 0.5) < 1e-12 for j in jumps)
        assert np.allclose(mu.total_mass(), [[1.0]])

    def test_jac5_weights(self, jac5):
        m, s, t, sd = setup(jac5, 5)
        mu = step_measure(sd, t)
        ws = [j[1][0, 0].real for j in mu.grouped_jumps()]
        expected = [np.sin(k * np.pi / 6) ** 2 / 3 for k in (5, 4, 3, 2, 1)]
        assert np.allclose(ws, expected)
        assert abs(sum(ws) - 1.0) < 1e-12

    def test_fix7_rank_sum(self, fix7):
        m, s, t, sd = setup(fix7, 7)
        mu = step_measure(sd, t)
        assert sum(r for _, _, r in mu.grouped_jumps()) == 7

    def test_nondecreasing(self, fix7):
        m, s, t, sd = setup(fix7, 7)
        mu = step_measure(sd, t)
        grid = np.linspace(sd.lambdas[0] - 1, sd.lambdas[-1] + 1, 40)
        prev = np.zeros((3, 3))
        for x in grid:
            cur = mu.evaluate(x)
            delta = cur - prev
            assert np.min(np.linalg.eigvalsh(0.5 * (delta + delta.conj().T))) >= -1e-12
            prev = cur

    def test_completeness(self, fix7):
        t = random_boundary(3, 11)
        m, s, _, sd = setup(fix7, 7)
        mu = step_measure(sd, t)
        assert completeness_defect(mu, t) <= 1e-9

    def test_degenerate_eigenvalue_groups_by_multiplicity(self):
        # 2x2 identity block inside: eigenvalue 1 with multiplicity 2 <= n
        spec, _ = random_instance(0, n=2, N=4)
        m = truncate(spec, 4)
        data = np.zeros((4, 4), dtype=complex)
        data[0, 2] = data[2, 0] = 1.0
        data[1, 3] = data[3, 1] = 1.0
        
        sd = eigen_decompose(FiniteHermitian(4, data))
        t = BoundaryMatrix.identity(2)
        mu = step_measure(sd, t)
        jumps = mu.grouped_jumps()
        assert [j[2] for j in jumps] == [2, 2]
        assert [round(j[0], 9) for j in jumps] == [-1.0, 1.0]


# ---------------------------------------------------------------- L2 inner products

class TestInnerProduct:
    def test_p_orthonormal_flip2(self, flip2):
        m, s, t, sd = setup(flip2, 2)
        p = build_p(m, s, t)
        mu = step_measure(sd, t)
        assert inner_product(p[0], p[0], mu) == pytest.approx(1.0, abs=1e-12)
        assert abs(inner_product(p[0], p[1], mu)) < 1e-12

    def test_p_orthonormal_fix7(self, fix7):
        t = random_boundary(3, 2)
        m, s, _, sd = setup(fix7, 7)
        p = build_p(m, s, t)
        mu = step_measure(sd, t)
        G = np.array([[inner_product(a, b, mu) for b in p] for a in p])
        assert np.max(np.abs(G - np.eye(7))) < 1e-9

    def test_q_zero_norm_flip2(self, flip2):
        m, s, t, sd = setup(flip2, 2)
        p = build_p(m, s, t)
        q = build_q(m, s, t, p)
        mu = step_measure(sd, t)
        assert norm_sq(q[0], mu) < 1e-18

    def test_conjugate_symmetry(self, fix7):
        m, s, t, sd = setup(fix7, 7)
        p = build_p(m, s, t)
        mu = step_measure(sd, t)
        a = inner_product(p[2], p[4].z_mul(), mu)
        b = inner_product(p[4].z_mul(), p[2], mu)
        assert a == pytest.approx(np.conj(b))

    def test_dimension_mismatch(self, flip2):
        m, s, t, sd = setup(flip2, 2)
        mu = step_measure(sd, t)
        bad = VectorPolynomial.from_components([[1], [1]], 2)
        with pytest.raises(DimensionMismatch):
            inner_product(bad, bad, mu)


# ---------------------------------------------------------------- moments

class TestMoments:
    def test_flip2_frozen(self, flip2):
        m, s, t, sd = setup(flip2, 2)
        mu = step_measure(sd, t)
        vals = [mu.moment(k)[0, 0] for k in range(3)]
        assert np.allclose(vals, [1.0, 0.0, 1.0], atol=1e-12)

    def test_jac5_matrix_power_oracle(self, jac5):
        m, s, t, sd = setup(jac5, 5)
        mu = step_measure(sd, t)
        for k in range(7):
            oracle = np.linalg.matrix_power(m.data, k)[0, 0]
            assert mu.moment(k)[0, 0] == pytest.approx(oracle, abs=1e-10)

    def test_moments_match_matrix_powers_block(self, fix7):
        # with identity boundary, S_k equals the upper-left n x n block of M^k
        m, s, t, sd = setup(fix7, 7)
        mu = step_measure(sd, t)
        for k in range(5):
            oracle = np.linalg.matrix_power(m.data, k)[:3, :3]
            assert np.max(np.abs(mu.moment(k) - oracle)) < 1e-8

    def test_s1_via_degree_one_inner_products(self, fix7):
        t = random_boundary(3, 3)
        m, s, _, sd = setup(fix7, 7)
        mu = step_measure(sd, t)
        s1 = mu.moment(1)
        from specband.vectorpoly import canonical_e

        for i in range(1, 4):
            for j in range(1, 4):
                ei = canonical_e(i, 3)
                zej = canonical_e(j, 3).z_mul()
                assert inner_product(ei, zej, mu) == pytest.approx(
                    s1[i - 1, j - 1], abs=1e-10
                )

    def test_hermitian(self, fix7):
        t = random_boundary(3, 4)
        m, s, _, sd = setup(fix7, 7)
        mu = step_measure(sd, t)
        for k in range(4):
            sk = mu.moment(k)
            assert np.max(np.abs(sk - sk.conj().T)) < 1e-12

    def test_s0_invertible(self, fix7):
        t = random_boundary(3, 5)
        m, s, _, sd = setup(fix7, 7)
        mu = step_measure(sd, t)
        assert np.min(np.linalg.eigvalsh(mu.moment(0))) > 1e-6

    def test_negative_order_rejected(self, flip2):
        m, s, t, sd = setup(flip2, 2)
        with pytest.raises(ValueError):
            step_measure(sd, t).moment(-1)

    def test_overflowing_power_raises(self):
        mu = StepMeasure(1, ((1e200, [1.0]),))
        with pytest.raises(FloatingPointError):
            mu.moments_upto(2)


def assert_moments_like_reference(mu, K):
    table = mu.moments_upto(K)
    assert table.shape == (K + 1, mu.n, mu.n)
    for k in range(K + 1):
        ref = reference_moment(mu, k).tobytes()
        assert table[k].tobytes() == ref
        assert mu.moment(k).tobytes() == ref


class TestMomentsMatchReference:
    def test_acceptance_set(self):
        for seed in range(50):
            spec, N = random_instance(seed)
            m, s, _, sd = setup(spec, N)
            mu = step_measure(sd, random_boundary(spec.n, seed + 10_000))
            assert_moments_like_reference(mu, 2 * N + 2)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_gue_measures(self, n):
        for N in (n, 20, 80):
            assert_moments_like_reference(gue_measure(N, n, N), 40)

    def test_no_orders(self, fix7):
        m, s, t, sd = setup(fix7, 7)
        assert step_measure(sd, t).moments_upto(-1).shape == (0, 3, 3)


@settings(max_examples=100, deadline=None)
@given(awkward_measures())
def test_moments_match_reference_on_awkward_measures(mu):
    assert_moments_like_reference(mu, 2 * mu.size + 2)


# ---------------------------------------------------------------- theta

class TestTheta:
    def test_flip2_values(self, flip2):
        m, s, t, _ = setup(flip2, 2)
        assert abs(det_theta(m, s, t, 1.0)) < 1e-12
        assert abs(det_theta(m, s, t, 0.0)) == pytest.approx(1.0)
        # Theta is the scalar polynomial 1 - z^2
        for z in (0.3, -1.7, 2.2):
            assert det_theta(m, s, t, z) == pytest.approx(1 - z * z)

    def test_fix7_vanishes_on_spectrum(self, fix7):
        t = random_boundary(3, 6)
        m, s, _, sd = setup(fix7, 7)
        scale = max(abs(det_theta(m, s, t, z)) for z in np.linspace(-6, 6, 13))
        for lam in sd.lambdas:
            assert abs(det_theta(m, s, t, lam)) <= 1e-8 * scale

    def test_interpolated_roots_match_spectrum(self, fix7):
        t = random_boundary(3, 7)
        m, s, _, sd = setup(fix7, 7)
        poly = det_theta_polynomial(m, s, t)
        roots = np.sort(poly.roots().real)
        assert len(roots) == 7
        assert np.max(np.abs(roots - sd.lambdas)) < 1e-6

    def test_theta_annihilates_c_vectors(self, fix7):
        t = random_boundary(3, 8)
        m, s, _, sd = setup(fix7, 7)
        cs = c_vectors(sd, t)
        for lam, c in zip(sd.lambdas, cs):
            assert np.linalg.norm(theta_at(m, s, t, lam) @ c) < 1e-8

    def test_q_matches_theta_formal_adjoint(self, fix7):
        # q_j(lambda) must equal the conjugate of Theta's j-th row at real points
        t = random_boundary(3, 9)
        m, s, _, _ = setup(fix7, 7)
        p = build_p(m, s, t)
        q = build_q(m, s, t, p)
        for z in (0.5, -1.3):
            th = theta_at(m, s, t, z)
            for j in range(3):
                assert np.allclose(q[j].evaluate(z), th[j, :].conj(), atol=1e-10)


# ---------------------------------------------------------------- kernel property

class TestKernelProperty:
    def test_kernel_vectors_are_psi_images(self):
        # any kernel vector of the K-perp rows of (M - zI) is Psi(z) C
        rng = np.random.default_rng(21)
        for seed in range(5):
            spec, N = random_instance(seed, N_hi=12)
            m = truncate(spec, N)
            s = analyze_structure(spec, N)
            t = random_boundary(spec.n, seed + 50)
            z = rng.uniform(-2, 2)
            rows = np.array(s.K_perp) - 1
            block = (m.data - z * np.eye(N))[rows, :]
            kernel = scipy.linalg.null_space(block)
            assert kernel.shape[1] == spec.n
            psi = psi_at(m, s, t, z)
            for _ in range(3):
                v = kernel @ rng.normal(size=kernel.shape[1])
                c, res, _, _ = np.linalg.lstsq(psi, v, rcond=None)
                assert np.linalg.norm(psi @ c - v) < 1e-9 * max(1, np.linalg.norm(v))


# ---------------------------------------------------------------- bulk identities

class TestBulkIdentities:
    def test_gram_identity_random(self):
        for seed in range(8):
            spec, N = random_instance(seed, N_hi=14)
            m = truncate(spec, N)
            s = analyze_structure(spec, N)
            t = random_boundary(spec.n, seed + 100)
            G = gram_matrix(m, s, t)
            assert np.max(np.abs(G - np.eye(N))) < 1e-9

    def test_multiplication_operator_identity(self):
        for seed in range(8):
            spec, N = random_instance(seed, N_hi=14)
            m = truncate(spec, N)
            s = analyze_structure(spec, N)
            t = random_boundary(spec.n, seed + 200)
            M2 = multiplication_matrix(m, s, t)
            assert np.max(np.abs(M2 - m.data)) < 1e-9

    def test_q_norms_vanish(self):
        for seed in range(8):
            spec, N = random_instance(seed, N_hi=14)
            m = truncate(spec, N)
            s = analyze_structure(spec, N)
            t = random_boundary(spec.n, seed + 300)
            norms, scales = q_norms_sq(m, s, t)
            assert np.max(norms / scales) < 1e-18

    def test_jump_rank_tolerance(self):
        jump = np.diag([1.0, 1e-20])
        assert jump_rank(jump) == 1


# ------------------------------------------- direct side against the per-point loops


def as_bytes(value):
    """Arrays as (dtype, shape, bytes), tuples elementwise, anything else as is."""
    if isinstance(value, np.ndarray):
        return value.dtype, value.shape, value.tobytes()
    if isinstance(value, tuple):
        return tuple(as_bytes(v) for v in value)
    return value


def assert_same(fn, ref, *args):
    assert as_bytes(outcome(fn, *args)) == as_bytes(outcome(ref, *args))


def assert_points_like_reference(m, s, t, zs):
    """psi_at/theta_at over the array zs, and at each point alone, against the loop."""
    for fn, ref in ((psi_at, reference_psi_at), (theta_at, reference_theta_at)):
        stacked = outcome(fn, m, s, t, zs)
        refs = [outcome(ref, m, s, t, z) for z in zs]
        if isinstance(stacked, np.ndarray):
            assert stacked.shape[0] == len(zs)
            assert [as_bytes(a) for a in stacked] == [as_bytes(r) for r in refs]
        else:  # the stacked call raises what the first failing point raises
            assert stacked == next(r for r in refs if not isinstance(r, np.ndarray))
        for z in zs:
            assert_same(fn, ref, m, s, t, z)
    for z in zs:
        assert_same(det_theta, reference_det_theta, m, s, t, z)


def assert_direct_like_reference(m, s, t):
    sd = eigen_decompose(m)
    assert_points_like_reference(m, s, t, sd.lambdas)
    for fn, ref in (
        (gram_matrix, reference_gram_matrix),
        (multiplication_matrix, reference_multiplication_matrix),
        (q_norms_sq, reference_q_norms_sq),
    ):
        assert_same(fn, ref, m, s, t, sd)
    poly, ref = det_theta_polynomial(m, s, t), reference_det_theta_polynomial(m, s, t)
    assert as_bytes(poly.coef) == as_bytes(ref.coef)
    assert as_bytes(poly.domain) == as_bytes(ref.domain)


class TestDirectSideMatchesReference:
    def test_acceptance_set(self):
        for seed in range(50):
            spec, N = random_instance(seed)
            m, s = truncate(spec, N), analyze_structure(spec, N)
            assert_direct_like_reference(m, s, random_boundary(spec.n, seed + 10_000))

    @pytest.mark.parametrize("N", [10, 20, 40])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_direct_cells(self, n, N):
        for seed in range(2):
            spec = generate_random(GenProfile(n=n, n_max=N), seed)
            m, s = truncate(spec, N), analyze_structure(spec, N)
            assert_direct_like_reference(m, s, random_boundary(n, seed))

    def test_zero_edge_raises_like_reference(self, fix7):
        m, s, t, _ = setup(fix7, 7)
        data = m.data.copy()
        data[0, 3] = data[3, 0] = 0.0  # the edge of column 4
        assert_points_like_reference(FiniteHermitian(7, data), s, t, np.array([0.5, -1.0]))


@st.composite
def direct_points(draw):
    """A small instance and an array of real or complex points of mixed size."""
    n = draw(st.integers(1, 3))
    N = draw(st.integers(n + 2, 12))
    seed = draw(st.integers(0, 10_000))
    spec = generate_random(GenProfile(n=n, n_max=N), seed)
    m, s = truncate(spec, N), analyze_structure(spec, N)
    sizes = st.sampled_from([0.0, 1e-3, 1.0, 3.0, 40.0])
    part = st.tuples(st.floats(-1.0, 1.0), sizes).map(lambda p: p[0] * p[1])
    re = draw(st.lists(part, min_size=1, max_size=6))
    zs = np.array(re)
    if draw(st.booleans()):
        zs = zs + 1j * np.array(draw(st.lists(part, min_size=len(re), max_size=len(re))))
    return m, s, random_boundary(n, seed), zs


@settings(max_examples=150, deadline=None)
@given(direct_points())
def test_points_match_reference(case):
    assert_points_like_reference(*case)


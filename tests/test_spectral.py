import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specband import spectral
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
    orthonormalize,
    psi_at,
    q_norms_sq,
    step_measure,
    theta_at,
    truncate,
)
from specband.errors import DimensionMismatch, NumericalFailure, PivotViolation
from specband.interpolation import InterpolationData, verify_generators
from specband.spectral import CLUSTER_TOL, SpectralData, StepMeasure, jump_rank
from specband.vectorpoly import VectorPolynomial, height

from conftest import (
    assert_within,
    awkward_measures,
    gue_arrays,
    gue_measure,
    horner_scale,
    outcome,
    random_boundary,
    random_instance,
    reference_build_p,
    reference_build_q,
    reference_c_vectors,
    reference_det_theta,
    reference_det_theta_polynomial,
    reference_eigen_decompose,
    reference_evaluate,
    reference_gram_matrix,
    reference_grouped_jumps,
    reference_moment,
    reference_multiplication_matrix,
    reference_point_weights,
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

    def test_arrays_are_read_only_copies(self, fix7):
        lam, phi = np.arange(3.0), np.eye(3, dtype=complex)
        sd = SpectralData(lam, phi)
        for given, held in ((lam, sd.lambdas), (phi, sd.phi)):
            assert held.tobytes() == given.tobytes() and not np.shares_memory(held, given)
            assert given.flags.writeable
            with pytest.raises(ValueError):
                held[0] = 0.0
        _, _, _, sd = setup(fix7, 7)
        assert not (sd.lambdas.flags.writeable or sd.phi.flags.writeable)


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

    def test_noise_below_the_diagonal_is_dropped(self):
        # the check allows sub-diagonal noise up to 1e-12 of the largest entry;
        # it is stored as an exact zero, so p_1 keeps height 0 at any scale of T
        t = BoundaryMatrix(2, [[1e3, 1], [1e-10, 1e3]])
        assert np.tril(t.t, -1).tobytes() == np.zeros((2, 2), dtype=complex).tobytes()
        m, s, _, _ = setup(generate_random(GenProfile(n=2, n_max=6), 0), 6)
        p = build_p(m, s, t)
        assert [height(p[k]) for k in range(2)] == [0, 1]


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


def polynomial_parts(m, s, t, build_p, build_q):
    """Per p_k, then per q_j: height, component lengths and coefficients; or what
    was raised.  Coefficients compare with ==, so 0.0 and -0.0 count as equal."""
    def parts(polys):
        return [(height(r), [len(c) for c in r.comps], r.comps) for r in polys]

    try:
        p = build_p(m, s, t)
        return parts(p), parts(build_q(m, s, t, p))
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)


def assert_polynomials_like_reference(m, s, t):
    new = polynomial_parts(m, s, t, build_p, build_q)
    assert new == polynomial_parts(m, s, t, reference_build_p, reference_build_q)
    return new


class TestPolynomialsMatchReference:
    def test_acceptance_set(self):
        for seed in range(50):
            spec, N = random_instance(seed)
            m, s = truncate(spec, N), analyze_structure(spec, N)
            assert_polynomials_like_reference(m, s, random_boundary(spec.n, seed + 10_000))

    @pytest.mark.parametrize("N", [10, 20, 40, 80, 160])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_cells(self, n, N):
        for seed in range(2):
            spec = generate_random(GenProfile(n=n, n_max=N), seed)
            m, s = truncate(spec, N), analyze_structure(spec, N)
            p, q = assert_polynomials_like_reference(m, s, random_boundary(n, seed))
            assert len(p) == N and len(q) == n

    def test_zero_edge_raises_like_reference(self, fix7):
        m, s, t, _ = setup(fix7, 7)
        data = m.data.copy()
        data[3, 4] = data[4, 3] = 0.0  # the edge of column 5
        raised = assert_polynomials_like_reference(FiniteHermitian(7, data), s, t)
        assert raised == (PivotViolation, "zero edge entry at (4,5)")

    def test_first_zero_edge_raises_before_any_row(self, fix7, monkeypatch):
        # the edges of columns 5 and 7 vanish: the first in column order is named,
        # as the stepwise reference names it, and no row equation is summed first
        m, s, t, _ = setup(fix7, 7)
        data = m.data.copy()
        for c in (5, 7):
            r = s.pivot[c]
            data[r - 1, c - 1] = data[c - 1, r - 1] = 0.0
        m = FiniteHermitian(7, data)
        raised = assert_polynomials_like_reference(m, s, t)
        assert raised == (PivotViolation, "zero edge entry at (4,5)")
        sums = []
        monkeypatch.setattr(spectral, "_subtract_negated", lambda *args: sums.append(args))
        with pytest.raises(PivotViolation):
            build_p(m, s, t)
        assert sums == []

    def test_no_vector_polynomial_arithmetic(self, fix7, monkeypatch):
        m, s, _, _ = setup(fix7, 7)
        t = random_boundary(3, 1)
        expected = polynomial_parts(m, s, t, reference_build_p, reference_build_q)

        def forbidden(*args, **kwargs):
            raise AssertionError("VectorPolynomial arithmetic inside build_p/build_q")

        for name in ("__add__", "__sub__", "__mul__", "__rmul__", "z_mul"):
            monkeypatch.setattr(VectorPolynomial, name, forbidden)
        assert polynomial_parts(m, s, t, build_p, build_q) == expected


@st.composite
def boundaries_of_any_size(draw):
    """An instance whose complex boundary has one entry of a size from 0 to
    1e150, with an edge entry of the matrix zeroed or not."""
    n = draw(st.integers(1, 3))
    N = draw(st.integers(n + 2, 12))
    seed = draw(st.integers(0, 10_000))
    spec = generate_random(GenProfile(n=n, n_max=N), seed)
    m, s = truncate(spec, N), analyze_structure(spec, N)
    t = random_boundary(n, seed).t.copy()
    i = draw(st.integers(0, n - 1))
    j = draw(st.integers(i, n - 1))
    size = draw(st.sampled_from([0.0, 5e-324, 1e-14, 1e-12, 1e-10, 1.0, 1e150]))
    t[i, j] = size * np.exp(1j * draw(st.floats(0.0, 2 * np.pi)))
    data = m.data.copy()
    if draw(st.booleans()):
        c = draw(st.sampled_from(sorted(s.pivot)))
        data[s.pivot[c] - 1, c - 1] = data[c - 1, s.pivot[c] - 1] = 0.0
    return FiniteHermitian(N, data), s, BoundaryMatrix(n, t)


@settings(max_examples=100, deadline=None)
@given(boundaries_of_any_size())
def test_polynomials_match_reference_with_boundary_entries_of_any_size(case):
    # T's columns reach the rows of p_1..p_n unchanged, however small an entry
    m, s, t = case
    if assert_polynomials_like_reference(m, s, t)[0] is not PivotViolation:
        p = build_p(m, s, t)
        for k in range(s.n):
            assert np.array_equal(np.pad(p[k].coeffs, (0, s.n - p[k].coeffs.size)), t.t[:, k])


#: parts of the ordered sums' entries: signed zeros, subnormals and ordinary sizes
SUM_PARTS = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308, 1.0, -1.0, 0.5)


@st.composite
def ordered_sums(draw):
    """Arguments of ``_subtract_negated`` as its callers form them: a row, 1-20
    factors and rows of width 2-130 whose parts are signed zeros, subnormals
    or of size up to 1e150, with cancelling pairs of terms and rows whose
    parts are all zeros of either sign."""
    k, w = draw(st.integers(1, 20)), draw(st.integers(2, 130))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def parts(*shape):
        kind = rng.integers(0, 3, size=shape)
        wide = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-320, 150, size=shape)
        special = rng.choice(SUM_PARTS, size=shape)
        return np.where(kind == 0, special, np.where(kind == 1, wide, rng.standard_normal(shape)))

    def entries(*shape):
        out = np.empty(shape, dtype=complex)  # parts set apart keep the sign of a zero
        out.real, out.imag = parts(*shape), parts(*shape)
        return out

    row, rows, cs = entries(w), entries(k, w), entries(k)
    for i in np.flatnonzero(rng.random(k) < 0.2):  # a term that cancels the one before it
        rows[i], cs[i] = (rows[i - 1], -cs[i - 1]) if i else (row, 1.0)
    zeros = rng.random(w) < 0.2  # columns of zeros of either sign
    for a in (row, rows):
        a.real[..., zeros] = rng.choice([0.0, -0.0], size=a[..., zeros].shape)
        a.imag[..., zeros] = rng.choice([0.0, -0.0], size=a[..., zeros].shape)
    return row, -cs.real[:, None], (-1j * cs.imag)[:, None], rows


def python_terms(neg_re, neg_im, rows):
    """neg_re_i rows_i + neg_im_i rows_i in Python's arithmetic on complex operands."""
    return np.array([[complex(a, 0.0) * r + b * r for r in row]
                     for a, b, row in zip(neg_re[:, 0].tolist(), neg_im[:, 0].tolist(),
                                          rows.tolist())], dtype=complex).reshape(rows.shape)


def left_to_right(row, terms):
    """row + terms[0] + terms[1] + ..., one column at a time in Python's arithmetic."""
    out = []
    for acc, column in zip(row.tolist(), terms.T.tolist()):
        for term in column:
            acc = acc + term
        out.append(acc)
    return np.array(out, dtype=complex)


@settings(max_examples=200, deadline=None)
@given(ordered_sums())
def test_subtract_negated_sums_left_to_right(args):
    row, neg_re, neg_im, rows = args
    terms = neg_re * rows + neg_im * rows
    # each term is Python's, up to the sign of a part that underflows to zero:
    # numpy's complex multiply may fuse, Python's does not
    assert (terms == python_terms(neg_re, neg_im, rows)).all()
    # numpy's pairwise summation starts at 8 terms; a column of -0.0 stays -0.0
    assert spectral._subtract_negated(*args).tobytes() == left_to_right(row, terms).tobytes()


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

    def test_result_is_kept_for_the_same_boundary(self, fix7):
        m, s, t, sd = setup(fix7, 7)
        cs = c_vectors(sd, t)
        assert c_vectors(sd, t) is cs and not cs.flags.writeable
        # step_measure and the DirectPass of the same eigen data share the solve
        assert step_measure(sd, t).c.tobytes() == cs.tobytes()
        assert spectral.direct_pass(m, s, t, sd).c is cs
        # another boundary object, even of equal bytes, is solved anew and replaces it
        other = BoundaryMatrix(t.n, t.t)
        again = c_vectors(sd, other)
        assert again is not cs and again.tobytes() == cs.tobytes()
        assert c_vectors(sd, other) is again
        assert c_vectors(sd, t) is not cs

    @pytest.mark.parametrize("head, message", [
        (0.0, "eigenvector 2 has a vanishing head"),
        (1e-15, "C-vector 2 vanished"),  # a nonzero head, and |C| <= 1e-13
    ])
    def test_errors_are_raised_again(self, head, message):
        phi = np.eye(6, dtype=complex)
        phi[0, 2:] = head
        sd = SpectralData(np.arange(6.0), phi)
        t = random_boundary(2, 3)
        for _ in range(2):
            with pytest.raises(NumericalFailure, match=f"^{message}$"):
                c_vectors(sd, t)
        assert sd.kept_c is None  # an error keeps nothing

    def test_singular_boundary_is_raised_again(self, fix7):
        _, _, _, sd = setup(fix7, 7)
        cs = c_vectors(sd, BoundaryMatrix.identity(3))
        t = BoundaryMatrix(3, np.diag([1.0, 0.0, 1.0]))
        for _ in range(2):
            with pytest.raises(SingularBoundary):
                c_vectors(sd, t)
        assert sd.kept_c[1] is cs

    def test_singular_boundary(self, fix7):
        _, _, _, sd = setup(fix7, 7)
        t = BoundaryMatrix(3, np.triu(np.ones((3, 3))) - np.eye(3) * 1.0 + np.diag([1, 0, 1]))
        with pytest.raises(SingularBoundary):
            c_vectors(sd, t)

    @pytest.mark.parametrize("n", [0, -1])
    def test_boundary_order_below_one_is_refused(self, n):
        with pytest.raises(ValueError, match=f"^boundary order n must be >= 1, got {n}$"):
            BoundaryMatrix(n, np.zeros((0, 0)))


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
        assert sum(jump_rank(j) for _, j in mu.grouped_jumps()) == 7

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
        assert [jump_rank(j) for _, j in jumps] == [2, 2]
        assert [round(j[0], 9) for j in jumps] == [-1.0, 1.0]


def largest(a):
    return np.max(np.abs(a), initial=0.0)


def assert_jumps_like_reference(mu, cluster_tol=CLUSTER_TOL):
    """The same clusters as the loop; each location within the bound of max |lambda|,
    each jump, a sum of positive semidefinite C C*, within the bound of its largest entry."""
    jumps = mu.grouped_jumps(cluster_tol)
    ref = reference_grouped_jumps(mu, cluster_tol)
    assert len(jumps) == len(ref)
    for (loc, jump), (ref_loc, ref_jump) in zip(jumps, ref):
        assert_within(loc, ref_loc, largest(mu.lambdas))
        assert_within(jump, ref_jump, largest(ref_jump))
    return jumps


class TestJumpsMatchReference:
    def test_acceptance_set(self):
        for seed in range(50):
            spec, N = random_instance(seed)
            m, s, _, sd = setup(spec, N)
            mu = step_measure(sd, random_boundary(spec.n, seed + 10_000))
            # a loose tolerance joins neighbours into clusters of several points
            for cluster_tol in (CLUSTER_TOL, 1e-2):
                assert_jumps_like_reference(mu, cluster_tol)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_gue_measures(self, n):
        for N in (n, 20, 80, 160):
            for seed in range(2):
                assert_jumps_like_reference(gue_measure(seed, n, N))

    def test_multiplicity_and_near_tie(self):
        # eigenvalue 0.5 of multiplicity n = 3, a pair 2 and 2 + 1e-9 within
        # CLUSTER_TOL * 3, and a pair 4 and 4 + 1e-7 outside CLUSTER_TOL * 5
        rng = np.random.default_rng(7)
        lams = [-1.0, 0.5, 0.5, 0.5, 2.0, 2.0 + 1e-9, 4.0, 4.0 + 1e-7]
        heads = rng.normal(size=(len(lams), 3)) + 1j * rng.normal(size=(len(lams), 3))
        mu = StepMeasure(3, lams, heads)
        jumps = assert_jumps_like_reference(mu)
        assert [jump_rank(j) for _, j in jumps] == [1, 3, 2, 1, 1]
        assert jumps["location"][2] == np.mean([2.0, 2.0 + 1e-9])
        assert jumps["location"].tolist() == [loc for loc, _ in jumps]
        assert np.array_equal(jumps["jump"], np.array([j for _, j in jumps]))

    def test_empty_measure(self):
        jumps = StepMeasure(2, [], []).grouped_jumps()
        assert len(jumps) == 0
        assert jumps["jump"].shape == (0, 2, 2)


#: clusters of 2 and 3 points among single ones, and points that are all apart
CLUSTERED = StepMeasure(2, [-1.0, 0.5, 0.5, 2.0, 2.0 + 1e-12, 2.0 - 1e-12, 4.0],
                        np.arange(14).reshape(7, 2) + 1j)
UNCLUSTERED = StepMeasure(3, [-3.0, -1.0, 0.0, 2.5, 7.0], np.arange(15).reshape(5, 3) - 2j)


@settings(max_examples=100, deadline=None)
@given(awkward_measures(), st.sampled_from([CLUSTER_TOL, 1e-12, 1e-3]))
@example(CLUSTERED, CLUSTER_TOL)
@example(UNCLUSTERED, CLUSTER_TOL)
def test_jumps_match_reference_on_awkward_measures(mu, cluster_tol):
    assert_jumps_like_reference(mu, cluster_tol)


# ---------------------------------------------------------------- the measure's arrays


def random_polys(rng, n, count=3):
    """Vector polynomials with random complex coefficients and component degrees -1..8."""
    polys = []
    for _ in range(count):
        degs = rng.integers(-1, 9, size=n)
        comps = [rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1) for d in degs]
        polys.append(VectorPolynomial.from_components(comps, n))
    return polys


def assert_evaluate_and_weights_like_reference(mu, polys):
    """sigma(t) at every point, between the points and at +-inf, within the bound
    of its largest entry (a sum of positive semidefinite C C*); the spectral
    coordinate of each polynomial f at each point within the bound of
    |C^k| times the Horner scale of f at lambda_k."""
    lam = mu.lambdas
    for t in np.concatenate([lam, 0.5 * (lam[:-1] + lam[1:]), [-np.inf, np.inf]]):
        ref = reference_evaluate(mu, t)
        assert_within(mu.evaluate(t), ref, largest(ref))
    c_norms = np.linalg.norm(mu.c, axis=1)
    for f in polys:
        scale = [c * np.linalg.norm(horner_scale(f, t)) for c, t in zip(c_norms, lam)]
        assert_within(mu.weight_row(f), reference_point_weights(mu, f), scale)


class TestEvaluateAndWeightsMatchReference:
    def test_acceptance_set(self):
        for seed in range(50):
            spec, N = random_instance(seed)
            m, s, _, sd = setup(spec, N)
            t = random_boundary(spec.n, seed + 10_000)
            p = build_p(m, s, t)
            polys = p[:3] + build_q(m, s, t, p) + random_polys(np.random.default_rng(seed), spec.n)
            assert_evaluate_and_weights_like_reference(step_measure(sd, t), polys)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_gue_measures(self, n):
        for N in (n, 20, 80, 160):
            rng = np.random.default_rng([n, N])
            assert_evaluate_and_weights_like_reference(gue_measure(0, n, N), random_polys(rng, n))

    def test_empty_measure(self):
        mu = StepMeasure(2, [], [])
        assert mu.evaluate(0.0).tobytes() == np.zeros((2, 2), dtype=complex).tobytes()
        assert mu.weight_row(VectorPolynomial.zero(2)).shape == (0,)


@settings(max_examples=100, deadline=None)
@given(awkward_measures(), st.integers(0, 2**32 - 1))
def test_evaluate_and_weights_match_reference_on_awkward_measures(mu, seed):
    polys = random_polys(np.random.default_rng(seed), mu.n)
    assert_evaluate_and_weights_like_reference(mu, polys)


def assert_no_negative_zero(a):
    parts = np.asarray(a).view(float) if np.iscomplexobj(a) else np.asarray(a)
    assert not np.signbit(parts[parts == 0.0]).any()


def measure_bytes(mu):
    return mu.lambdas.tobytes() + mu.c.tobytes()


class TestMeasureArrays:
    def test_points_are_sorted_stably(self):
        c = np.arange(6).reshape(3, 2) + 1j
        mu = StepMeasure(2, [2.0, -1.0, 2.0], c)
        assert mu.lambdas.tolist() == [-1.0, 2.0, 2.0]
        assert mu.c.tobytes() == c[[1, 0, 2]].astype(complex).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_shuffled_points_give_the_same_measure(self, n):
        for N in (n, 20, 160):
            mu = gue_measure(1, n, N)
            perm = np.random.default_rng(N).permutation(N)
            assert measure_bytes(StepMeasure(n, mu.lambdas[perm], mu.c[perm])) == measure_bytes(mu)
            # sorted input comes out unchanged
            assert measure_bytes(StepMeasure(n, mu.lambdas, mu.c)) == measure_bytes(mu)

    def test_arrays_are_read_only_copies(self, fix7):
        _, _, t, sd = setup(fix7, 7)
        mu = step_measure(sd, t)
        for a in (mu.lambdas, mu.c):
            with pytest.raises(ValueError):
                a[0] = 0.0
        # the caller's arrays are copied, not frozen
        lam, c = np.array(sd.lambdas), np.array(c_vectors(sd, t))
        StepMeasure(t.n, lam, c)
        assert lam.flags.writeable and c.flags.writeable
        assert orthonormalize(mu, 7).lambdas is mu.lambdas

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_outer_products_are_kept_read_only(self, n):
        mu = gue_measure(0, n, 20)
        for sigma in (mu, InterpolationData.from_measure(mu)):
            outer = sigma.outer
            assert outer is sigma.outer
            ref = np.array([np.outer(c, c.conj()) for c in sigma.c])
            assert_within(outer, ref, largest(ref))
            moments, jumps = sigma.moments_upto(6).tobytes(), sigma.grouped_jumps().tobytes()
            with pytest.raises(ValueError):
                outer[0] = 0.0
            assert sigma.moments_upto(6).tobytes() == moments
            assert sigma.grouped_jumps().tobytes() == jumps

    def test_no_negative_zero(self):
        # C = (1, -0) and (-0 - 0i, 2i) give C C* entries of -0.0, and lambda < 0
        # negative powers; a cluster at 0.5 sums two points, the others are single
        c = [[1.0, -0.0], [complex(-0.0, -0.0), 2j], [1.0, -0.0], [-0.0, complex(0.0, -0.0)]]
        mu = StepMeasure(2, [-1.5, 0.5, 0.5, 2.0], c)
        assert np.signbit(mu.outer.view(float)[mu.outer.view(float) == 0.0]).any()
        jumps = mu.grouped_jumps()
        assert len(jumps) == 3
        for t in (-2.0, 0.0, 1.0, 3.0):
            assert_no_negative_zero(mu.evaluate(t))
        assert_no_negative_zero(mu.moments_upto(7))
        assert_no_negative_zero(jumps["jump"])
        assert_no_negative_zero(jumps["location"])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_layout_of_c_gives_the_same_bytes(self, n):
        # a Fortran-ordered block and its C-ordered copy make the same measure
        for N in (n, 20, 80, 160):
            lam, block = gue_arrays(2, n, N)
            assert n == 1 or not block.flags.c_contiguous  # one column is C-ordered either way
            a, b = StepMeasure(n, lam, block), StepMeasure(n, lam, np.ascontiguousarray(block))
            assert a.c.flags.c_contiguous
            assert a.moments_upto(20).tobytes() == b.moments_upto(20).tobytes()
            assert a.grouped_jumps().tobytes() == b.grouped_jumps().tobytes()
            assert orthonormalize(a, N).weights.tobytes() == orthonormalize(b, N).weights.tobytes()


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
        mu = StepMeasure(1, [1e200], [[1.0]])
        with pytest.raises(FloatingPointError):
            mu.moments_upto(2)

    @pytest.mark.parametrize("lambdas, c, k", [
        ([1e154], [[100.0]], 2),  # lambda^2 is finite, its product with C C* is not
        ([1.0, 2.0], [[1e154], [1e154j]], 0),  # each C C* is finite, their sum is not
    ])
    def test_overflowing_product_or_sum_raises(self, lambdas, c, k):
        mu = StepMeasure(1, lambdas, c)
        assert np.isfinite(mu.outer).all()
        with pytest.raises(FloatingPointError, match="overflow"):
            mu.moments_upto(k)

    @pytest.mark.parametrize("first", ["evaluate", "grouped_jumps", "moments_upto", "outer"])
    def test_overflowing_jump_raises_whichever_reader_comes_first(self, first):
        # C C* = 1e400 overflows: no reader may keep or sum an inf in its place
        mu = StepMeasure(1, [1.0], [[1e200]])
        readers = {"evaluate": lambda: mu.evaluate(2.0), "grouped_jumps": mu.grouped_jumps,
                   "moments_upto": lambda: mu.moments_upto(0), "outer": lambda: mu.outer}
        for name in [first, *(name for name in readers if name != first)]:
            with pytest.raises(FloatingPointError, match="overflow"):
                readers[name]()


def assert_moments_like_reference(mu, K):
    """S_0..S_K, in one table and one by one, within the bound of the largest entry
    of sum |lambda|^k C C*, the moment of the measure with |lambda| (max |S_k| for even k)."""
    table = mu.moments_upto(K)
    assert table.shape == (K + 1, mu.n, mu.n)
    folded = StepMeasure(mu.n, np.abs(mu.lambdas), mu.c)
    for k in range(K + 1):
        ref, scale = reference_moment(mu, k), largest(reference_moment(folded, k))
        assert_within(table[k], ref, scale)
        assert_within(mu.moment(k), ref, scale)


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

    def test_negative_count_rejected(self, fix7):
        m, s, t, sd = setup(fix7, 7)
        mu = step_measure(sd, t)
        assert mu.moments_upto(0).shape == (1, 3, 3)
        with pytest.raises(ValueError, match="nonnegative"):
            mu.moments_upto(-1)


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


def raised(value):
    """Whether an ``outcome`` is the (type, message) of an exception."""
    return isinstance(value, tuple) and isinstance(value[0], type)


def assert_like_reference(got, ref, scale):
    """Two outcomes: the same exception, or values within the bound of scale(ref)."""
    assert raised(got) == raised(ref)
    if raised(ref):
        assert got == ref
    else:
        assert_within(got, ref, scale(ref))


def assert_c_vectors_like_reference(sd, t):
    """c_vectors against the loop over k: the same error, or the (N, n) block of the
    C^k within the bound of its largest entry."""
    ref = outcome(reference_c_vectors, sd, t)
    if not raised(ref):
        ref = np.array(ref, dtype=complex).reshape(-1, t.n)
    assert_like_reference(outcome(c_vectors, sd, t), ref, largest)


def assert_phases_like_reference(m, t):
    """eigen_decompose and c_vectors on m against the per-column loops: eigh's
    eigenvalues as they are, the eigenvectors within the bound of their largest
    entry, and the C-vectors as ``assert_c_vectors_like_reference`` compares them."""
    got, ref = outcome(eigen_decompose, m), outcome(reference_eigen_decompose, m)
    assert raised(got) == raised(ref)
    if raised(ref):
        assert got == ref
    else:
        assert got.lambdas.tobytes() == ref.lambdas.tobytes()
        assert_within(got.phi, ref.phi, largest(ref.phi))
        assert_c_vectors_like_reference(ref, t)


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
    assert_phases_like_reference(m, t)
    sd = eigen_decompose(m)
    assert_points_like_reference(m, s, t, sd.lambdas)
    # each matrix within the bound of its largest entry
    for fn, ref in ((gram_matrix, reference_gram_matrix),
                    (multiplication_matrix, reference_multiplication_matrix)):
        assert_like_reference(outcome(fn, m, s, t, sd), outcome(ref, m, s, t, sd), largest)
    # the q-norms, sums whose terms cancel to rounding noise, and their scales,
    # both within the bound of the scales
    got, ref = outcome(q_norms_sq, m, s, t, sd), outcome(reference_q_norms_sq, m, s, t, sd)
    assert_like_reference(got, ref, lambda r: r[1])
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


def direct_outputs(m, s, t, sd):
    """The four direct checks on (m, s, t) as bytes, in the order perfbench calls them."""
    return as_bytes((
        gram_matrix(m, s, t, sd),
        multiplication_matrix(m, s, t, sd),
        q_norms_sq(m, s, t, sd),
        det_theta_polynomial(m, s, t).coef,
    ))


@pytest.fixture
def counted(monkeypatch):
    """Counts of np.linalg.eigh and spectral.psi_at calls made from here on."""
    counts = {"eigh": 0, "psi_at": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "eigh", counting("eigh", np.linalg.eigh))
    monkeypatch.setattr(spectral, "psi_at", counting("psi_at", spectral.psi_at))
    return counts


class TestDirectPass:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_one_eigh_and_one_psi_per_direct_check(self, n, counted):
        spec = generate_random(GenProfile(n=n, n_max=20), n)
        t = random_boundary(n, n)
        # the sequence of perfbench's direct check
        m, s = truncate(spec, 20), analyze_structure(spec, 20)
        sd = eigen_decompose(m)
        mu = step_measure(sd, t)
        q = build_q(m, s, t, build_p(m, s, t))
        direct_outputs(m, s, t, sd)
        verify_generators(q, InterpolationData.from_measure(mu))
        assert counted == {"eigh": 1, "psi_at": 1}

    def test_det_theta_polynomial_first(self, fix7, counted):
        m, s, t, _ = setup(fix7, 7)
        det_theta_polynomial(m, s, t)
        gram_matrix(m, s, t)
        q_norms_sq(m, s, t)
        assert counted == {"eigh": 2, "psi_at": 1}  # setup's eigh and the pass's

    def test_other_inputs_recompute(self, fix7, counted):
        m, s, t, sd = setup(fix7, 7, random_boundary(3, 1))
        first = direct_outputs(m, s, t, sd)
        others = (
            (analyze_structure(fix7, 7), t, sd),
            (s, BoundaryMatrix(3, t.t), sd),
            (s, t, eigen_decompose(m)),
        )
        for s2, t2, sd2 in others:
            gram_matrix(m, s, t, sd)  # the memo holds the pass of (m, s, t, sd) again
            before = counted["psi_at"]
            assert direct_outputs(m, s2, t2, sd2) == first
            assert counted["psi_at"] == before + 1
        # without sd the last pass serves again, and every pass took the sd given
        gram_matrix(m, s, t)
        assert counted == {"eigh": 2, "psi_at": before + 1}

    def test_returns_the_pass_it_made(self, fix7, monkeypatch):
        # truncations may run concurrently: another caller's store may land in
        # the slot between any two lines of direct_pass, here by a line trace
        m, s, t, _ = setup(fix7, 7)
        other = spectral.DirectPass(*setup(fix7, 6)[:3])
        made = []

        def factory(*args):
            made.append(real(*args))
            return made[-1]

        def store_other(frame, event, arg):
            if event == "line" and made and spectral._last_pass is made[-1]:
                spectral._last_pass = other
            return store_other

        def trace(frame, event, arg):
            return store_other if frame.f_code is spectral.direct_pass.__code__ else None

        real = spectral.DirectPass
        monkeypatch.setattr(spectral, "DirectPass", factory)
        monkeypatch.setattr(spectral, "_last_pass", None)
        previous = sys.gettrace()
        sys.settrace(trace)
        try:
            got = spectral.direct_pass(m, s, t)
        finally:
            sys.settrace(previous)
        assert spectral._last_pass is other
        assert got.m is m

    def test_fresh_matrix_with_equal_bytes(self, fix7, counted):
        m, s, t, sd = setup(fix7, 7, random_boundary(3, 2))
        first = direct_outputs(m, s, t, sd)
        m2 = FiniteHermitian(7, m.data.copy())
        assert direct_outputs(m2, s, t, sd) == first
        assert counted["psi_at"] == 2

    def test_inputs_are_read_only_copies(self, fix7):
        data = truncate(fix7, 7).data.copy()
        t_mat = random_boundary(3, 3).t.copy()
        m, t = FiniteHermitian(7, data), BoundaryMatrix(3, t_mat)
        before = m.data.tobytes(), t.t.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            m.data[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            t.t[0, 0] = 1.0
        # the arrays given stay the caller's: writing them changes neither object
        data[0, 0] += 1.0
        t_mat[0, 0] += 1.0
        assert (m.data.tobytes(), t.t.tobytes()) == before


def awkward_matrix(mu, seed):
    """Hermitian matrix with the measure's (clustered) eigenvalues and eigenvectors
    that are unit vectors or 2 x 2 rotations of pairs of them, so mostly zeros."""
    rng = np.random.default_rng(seed)
    N = mu.size
    q = np.eye(N, dtype=complex)
    for i in range(0, N - 1, 2):
        if rng.random() < 0.5:
            q[i : i + 2, i : i + 2], _ = np.linalg.qr(
                rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            )
    data = q @ np.diag(mu.lambdas) @ q.conj().T
    return FiniteHermitian(N, 0.5 * (data + data.conj().T))


def head_data(mu):
    """Spectral data whose eigenvector heads are the measure's C-vectors."""
    return SpectralData(mu.lambdas, mu.c.T.copy())


class TestPhasesMatchReference:
    def test_c_vectors_are_rows(self, fix7):
        _, _, _, sd = setup(fix7, 7)
        t = random_boundary(3, 5)
        cs = c_vectors(sd, t)
        assert cs.shape == (7, 3) and cs.flags.c_contiguous
        assert np.allclose(np.abs(t.t.conj().T @ cs.T), np.abs(sd.phi[:3, :]))
        assert_c_vectors_like_reference(sd, t)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_vanishing_head_names_first_k(self, n):
        # columns n.. of the identity have zero heads; the first of them is named
        sd = SpectralData(np.arange(6.0), np.eye(6, dtype=complex))
        t = random_boundary(n, 3)
        for fn in (c_vectors, reference_c_vectors):
            with pytest.raises(NumericalFailure, match=rf"^eigenvector {n} has a vanishing head$"):
                fn(sd, t)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_vanished_c_vector_names_first_k(self, n):
        # heads 1e-15 at k = 2 and 4 pass the head check and give |C| <= 1e-13
        rng = np.random.default_rng(n)
        phi = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        phi[:n, [2, 4]] *= 1e-15
        sd = SpectralData(np.arange(6.0), phi)
        t = random_boundary(n, 4)
        assert_c_vectors_like_reference(sd, t)
        with pytest.raises(NumericalFailure, match=r"^C-vector 2 vanished$"):
            c_vectors(sd, t)

    def test_one_by_one(self):
        m = FiniteHermitian(1, np.array([[2.5 + 0j]]))
        assert_phases_like_reference(m, BoundaryMatrix(1, np.array([[0.7 - 0.2j]])))


@settings(max_examples=150, deadline=None)
@given(awkward_measures(), st.integers(0, 2**32 - 1))
def test_phases_match_reference_on_awkward_measures(mu, seed):
    t = random_boundary(mu.n, seed)
    assert_phases_like_reference(awkward_matrix(mu, seed), t)
    assert_c_vectors_like_reference(head_data(mu), t)


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


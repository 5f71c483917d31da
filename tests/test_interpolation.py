import numpy as np
import pytest

from specband import (
    BoundaryMatrix,
    GenProfile,
    InterpolationData,
    NoDecomposition,
    analyze_structure,
    build_p,
    build_q,
    decompose,
    eigen_decompose,
    generate_random,
    is_solution,
    kernel_dimension,
    recompose,
    step_measure,
    truncate,
    verify_generators,
)
from specband.interpolation import expected_kernel_dimension
from specband.vectorpoly import VectorPolynomial, canonical_e, height, poly_allclose

from conftest import (
    make_fix7,
    random_boundary,
    random_instance,
    reference_height_table,
    reference_kernel_dimension,
    reference_weight_row,
)


def pipeline(spec, N, t=None, seed=0):
    m = truncate(spec, N)
    s = analyze_structure(spec, N)
    if t is None:
        t = BoundaryMatrix.identity(spec.n)
    sd = eigen_decompose(m)
    mu = step_measure(sd, t)
    p = build_p(m, s, t)
    q = build_q(m, s, t, p)
    return m, s, t, mu, p, q


class TestIsSolution:
    def test_flip2_q_is_solution(self, flip2):
        _, _, _, mu, p, q = pipeline(flip2, 2)
        data = InterpolationData.from_measure(mu)
        assert is_solution(q[0], data, tol=1e-10)

    def test_flip2_p2_is_not(self, flip2):
        _, _, _, mu, p, q = pipeline(flip2, 2)
        data = InterpolationData.from_measure(mu)
        assert not is_solution(p[1], data, tol=1e-10)

    def test_zero_always_solution(self, flip2):
        _, _, _, mu, _, _ = pipeline(flip2, 2)
        data = InterpolationData.from_measure(mu)
        assert is_solution(VectorPolynomial.zero(1), data)

    def test_node_multiplicity_cap(self):
        c = np.array([1.0 + 0j])
        with pytest.raises(ValueError):
            InterpolationData(1, ((0.5, c), (0.5, c)))

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            InterpolationData(1, ((0.5, np.array([0j])),))


class TestDecompose:
    def test_flip2_z_p1_is_p2(self, flip2):
        _, _, _, _, p, q = pipeline(flip2, 2)
        dec = decompose(p[0].z_mul(), p, q)
        assert np.allclose(dec.a, [0.0, 1.0])
        assert all(abs(c) < 1e-12 for c in dec.s[0])
        assert dec.residual < 1e-12

    def test_flip2_z2_p1_hand_check(self, flip2):
        # z^2 = 1*p_1 + (-1)*q_1 since q_1 = 1 - z^2
        _, _, _, _, p, q = pipeline(flip2, 2)
        dec = decompose(p[0].z_mul(2), p, q)
        assert np.allclose(dec.a, [1.0, 0.0], atol=1e-12)
        assert np.allclose(dec.s[0], [-1.0], atol=1e-12)

    def test_recompose_identity(self, fix7):
        t = random_boundary(3, 31)
        _, _, _, _, p, q = pipeline(make_fix7(), 7, t)
        rng = np.random.default_rng(8)
        for mi in (1, 2, 3):
            r = p[mi - 1].z_mul(2)
            dec = decompose(r, p, q, min_s_degree=1)
            back = recompose(dec, p, q)
            scale = max(abs(c) for comp in r.comps for c in comp)
            assert poly_allclose(r, back, tol=1e-8 * scale)

    def test_fix7_z_pi_decomposes(self, fix7):
        _, _, _, _, p, q = pipeline(make_fix7(), 7)
        for i in (1, 2, 3):
            dec = decompose(p[i - 1].z_mul(), p, q, min_s_degree=0)
            assert dec.residual <= 1e-9 * max(dec.scale, 1.0)

    def test_support_bound_with_tail_room(self):
        # band instance starting its tail at the first row: the support of
        # z^l p_m stays within m + l * offset
        entries = {}
        for r in range(1, 13):
            entries[(r, r)] = 0.5
            if r + 1 <= 12:
                entries[(r, r + 1)] = -0.3
            if r + 2 <= 12:
                entries[(r, r + 2)] = 1.0
        from specband import MatrixSpec

        spec = MatrixSpec(2, 12, entries, {c: c - 2 for c in range(3, 13)}, (1, 3))
        _, _, _, _, p, q = pipeline(spec, 12)
        for mi in (1, 2):
            for l in (1, 2, 3):
                dec = decompose(p[mi - 1].z_mul(l), p, q, min_s_degree=l - 1)
                bound = mi + l * 2
                tail_coeffs = np.abs(dec.a[bound:])
                assert dec.residual < 1e-9
                assert np.all(tail_coeffs < 1e-8)

    def test_random_r_decomposes_for_mtilde(self):
        for seed in (1, 4):
            spec, N = random_instance(seed, mtilde=True, N_hi=10)
            t = random_boundary(spec.n, seed)
            _, _, _, _, p, q = pipeline(spec, N, t)
            rng = np.random.default_rng(seed)
            hmax = int(height(p[-1]))
            coords = rng.normal(size=hmax + 1) + 1j * rng.normal(size=hmax + 1)
            from specband.vectorpoly import from_coeff_vector

            r = from_coeff_vector(coords, spec.n)
            dec = decompose(r, p, q)
            assert dec.relative_residual < 1e-8

    def test_no_decomposition_raises(self, flip2):
        # e_1 of a 1-dim system cannot be built from p_1 alone with q absent
        _, _, _, _, p, q = pipeline(flip2, 2)
        stray = canonical_e(4, 1) + canonical_e(1, 1) * 0.5  # z^3 + 0.5
        with pytest.raises(NoDecomposition) as err:
            decompose(stray, p[:1], [], tol=1e-10)
        assert err.value.residual > 0


class TestVerifyGenerators:
    def test_flip2_sole_generator(self, flip2):
        _, _, _, mu, p, q = pipeline(flip2, 2)
        data = InterpolationData.from_measure(mu)
        # brute-force oracle over heights 0 and 1: no nonzero solutions
        assert kernel_dimension(data, 0) == 0
        assert kernel_dimension(data, 1) == 0
        assert kernel_dimension(data, 2) == 1
        rep = verify_generators(q, data)
        assert rep.heights == [2]
        assert rep.minimal
        assert rep.distinct_residues

    def test_fix7_case3_distinct_residues(self):
        spec = make_fix7(m25=0.0, m35=0.0)
        _, _, _, mu, p, q = pipeline(spec, 7)
        data = InterpolationData.from_measure(mu)
        rep = verify_generators(q, data)
        assert rep.heights == [5, 9, 10]
        assert rep.distinct_residues
        assert all(rep.solution_flags)
        assert rep.minimal

    def test_fix7_case1_same_residue_not_minimal(self):
        spec = make_fix7(m25=0.0, m35=2.0)
        _, _, _, mu, p, q = pipeline(spec, 7)
        data = InterpolationData.from_measure(mu)
        rep = verify_generators(q, data)
        assert rep.heights == [6, 9, 10]
        assert rep.heights[0] % 3 == rep.heights[1] % 3
        assert not rep.distinct_residues
        assert all(rep.solution_flags)
        # a solution of height 5 exists outside the q system's span
        assert not rep.minimal

    def test_mtilde_q_are_generators(self):
        for seed in (0, 2):
            spec, N = random_instance(seed, mtilde=True, N_hi=9)
            t = random_boundary(spec.n, seed + 7)
            _, _, _, mu, p, q = pipeline(spec, N, t)
            data = InterpolationData.from_measure(mu)
            rep = verify_generators(q, data)
            assert all(rep.solution_flags)
            assert rep.minimal, rep.height_table
            assert rep.distinct_residues

    def test_expected_dimension_formula(self):
        # generators at heights 2 and 5 with n=2: lattice 2,4,6,... and 5,7,...
        assert expected_kernel_dimension([2, 5], 1, 2) == 0
        assert expected_kernel_dimension([2, 5], 2, 2) == 1
        assert expected_kernel_dimension([2, 5], 5, 2) == 3
        assert expected_kernel_dimension([2, 5], 7, 2) == 5


class TestHeightCoverage:
    def test_mtilde_heights_increasing_and_disjoint(self):
        for seed in (0, 2, 4):
            spec, N = random_instance(seed, mtilde=True, N_hi=12)
            t = random_boundary(spec.n, seed + 13)
            _, _, _, mu, p, q = pipeline(spec, N, t)
            hp = [height(x) for x in p]
            assert hp == sorted(hp)
            assert len(set(hp)) == len(hp)
            hq = {height(x) for x in q}
            lattice = set()
            for h in hq:
                lattice.update(h + spec.n * l for l in range(0, 40))
            assert not (set(hp) & lattice)

    def test_mtilde_full_coverage(self):
        for seed in (0, 2):
            spec, N = random_instance(seed, mtilde=True, N_hi=12)
            t = random_boundary(spec.n, seed + 17)
            _, _, _, mu, p, q = pipeline(spec, N, t)
            hp = [int(height(x)) for x in p]
            hq = [int(height(x)) for x in q]
            covered = set(hp)
            for h in hq:
                covered.update(h + spec.n * l for l in range(0, 40))
            top = max(hp)
            assert set(range(top + 1)) <= covered


# -- the height walk against rebuilding the constraints at every height ----


def assert_walk_like_reference(spec, N, t):
    _, _, _, mu, p, q = pipeline(spec, N, t)
    data = InterpolationData.from_measure(mu)
    table = reference_height_table(q, data)
    assert verify_generators(q, data).height_table == table
    for h in range(-1, len(table) + 1):
        assert kernel_dimension(data, h) == reference_kernel_dimension(data, h)
    B = data.constraint_matrix(len(table) + 1)
    for k in range(1, B.shape[1] + 1):
        assert B[:, k - 1].tobytes() == reference_weight_row(mu, k).tobytes()


class TestHeightWalkMatchesReference:
    def test_acceptance_set(self):
        for seed in range(50):
            spec, N = random_instance(seed)
            assert_walk_like_reference(spec, N, random_boundary(spec.n, seed + 10_000))

    @pytest.mark.parametrize("N", [10, 20, 40])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_direct_cells(self, n, N):
        for seed in range(2):
            spec = generate_random(GenProfile(n=n, n_max=N), seed)
            assert_walk_like_reference(spec, N, random_boundary(n, seed))

    def test_no_nodes(self):
        data = InterpolationData(2, ())
        assert data.constraint_matrix(3).shape == (0, 3)
        assert kernel_dimension(data, 2) == 3

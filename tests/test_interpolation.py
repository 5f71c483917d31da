import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specband import (
    BoundaryMatrix,
    GenProfile,
    InterpolationData,
    NoDecomposition,
    SingularZerothMoment,
    StepMeasure,
    analyze_structure,
    build_p,
    build_q,
    decompose,
    eigen_decompose,
    generate_random,
    is_solution,
    kernel_dimension,
    orthonormalize,
    recompose,
    step_measure,
    truncate,
    verify_generators,
)
from specband.interpolation import expected_kernel_dimension
from specband.vectorpoly import VectorPolynomial, canonical_e, height, poly_allclose

from conftest import (
    awkward_measures,
    gue_measure,
    make_fix7,
    outcome,
    random_boundary,
    random_instance,
    reference_is_solution,
    tie_keeping_permutation,
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

    def test_overflowing_bound_raises(self):
        # |r(-1)| = c: from c of about 1.3e154 the norm in the bound squares to inf,
        # and an inf bound would pass any residual
        data = InterpolationData(1, [-1.0], [[1.0]])
        assert not is_solution(VectorPolynomial(1, np.array([0.0, 1e154])), data)
        with pytest.raises(FloatingPointError, match=r"^the bound .* at node lambda = -1.0 is"):
            is_solution(VectorPolynomial(1, np.array([0.0, 1e155])), data)

    @pytest.mark.parametrize("coeffs", [[0.0, np.inf], [1.0, complex(1.0, np.nan)]])
    def test_value_that_is_not_finite_raises(self, coeffs):
        data = InterpolationData(1, [-1.0, 2.0], [[1.0], [1.0]])
        r = VectorPolynomial(1, np.array(coeffs, dtype=complex))
        with pytest.raises(FloatingPointError, match=r"^r\(lambda\) at node lambda = -1.0 is"):
            is_solution(r, data)
        assert_solution_like_reference([r], data)

    def test_later_node_that_is_not_finite_raises(self):
        # r(0) = 1 fails the test, r(2) = 1 + 2e154 overflows the bound: it raises
        r = VectorPolynomial(1, np.array([1.0, 1e154], dtype=complex))
        assert not is_solution(r, InterpolationData(1, [0.0], [[1.0]]))
        data = InterpolationData(1, [0.0, 2.0], [[1.0], [1.0]])
        with pytest.raises(FloatingPointError, match=r"^the bound .* at node lambda = 2.0 is"):
            is_solution(r, data)
        assert_solution_like_reference([r], data)

    def test_node_multiplicity_cap(self):
        c = np.array([1.0 + 0j])
        with pytest.raises(ValueError):
            InterpolationData(1, [0.5, 0.5], [c, c])

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            InterpolationData(1, [0.5], [[0j]])

    def test_exact_zero_row_named(self):
        with pytest.raises(ValueError, match=r"^zero direction vector at node 0\.5$"):
            InterpolationData(1, [0.5], [[0.0]])

    def test_tiny_direction_accepted(self):
        # its norm underflows to 0.0, yet the direction is nonzero
        data = InterpolationData(1, [0.5], [[1e-170]])
        assert data.c[0, 0] == 1e-170

    def test_from_measure_shares_the_measure_arrays(self):
        mu = gue_measure(0, 2, 20)
        data = InterpolationData.from_measure(mu)
        assert data.n == mu.n and data.lambdas is mu.lambdas and data.c is mu.c

    @pytest.mark.parametrize("lam, c, message", [
        ([3.0, 1.0, 2.0], [[1, 0], [0, 0], [0, 0]], "zero direction vector at node 1.0"),
        ([0.5, -2.0, -2.0, -2.0], [[1, 1]] * 4, "node -2.0 repeats more than n=2 times"),
    ])
    def test_from_measure_runs_its_checks(self, lam, c, message):
        mu = StepMeasure(2, lam, c)
        with pytest.raises(ValueError, match=f"^{message}$"):
            InterpolationData.from_measure(mu)

    def test_errors_name_nodes_in_sorted_order(self):
        # the first zero direction and the (n+1)-th node of the first crowded
        # cluster, by lambda, whatever the order of the points
        zero = ([3.0, 1.0, 2.0], [[1, 0], [0, 0], [0, 0]])
        crowded = ([0.7, 0.5, 0.5, -2.0, -2.0, -2.0, 0.5], [[1, 1]] * 7)
        for (lam, c), message in ((zero, "zero direction vector at node 1.0"),
                                  (crowded, "node -2.0 repeats more than n=2 times")):
            for perm in ([0, 1, 2], [2, 1, 0], [1, 2, 0]):
                idx = perm + list(range(3, len(lam)))
                with pytest.raises(ValueError, match=f"^{message}$"):
                    InterpolationData(2, np.array(lam)[idx], np.array(c)[idx])


@settings(max_examples=150, deadline=None)
@given(awkward_measures(), st.integers(0, 2**32 - 1))
def test_shuffled_points_give_the_same_data(mu, seed):
    perm = tie_keeping_permutation(mu.lambdas, seed)
    data = outcome(InterpolationData.from_measure, mu)
    shuffled = outcome(InterpolationData, mu.n, mu.lambdas[perm], mu.c[perm])
    if isinstance(data, InterpolationData):
        assert shuffled.lambdas.tobytes() == data.lambdas.tobytes()
        assert shuffled.c.tobytes() == data.c.tobytes()
    else:
        assert shuffled == data


def assert_solution_like_reference(polys, data):
    """is_solution of every polynomial at three tolerances against the per-node loop."""
    for r in polys:
        for tol in (1e-14, 1e-8, 1e-2):
            got, ref = outcome(is_solution, r, data, tol), outcome(reference_is_solution, r, data, tol)
            assert got == ref and type(got) is type(ref)


def direct_polys(spec, N, t):
    """Measure data of a truncation, with its q_j, p_k and sums of both."""
    _, _, _, mu, p, q = pipeline(spec, N, t)
    mixed = [qj + p[k % len(p)] * 1e-9 for k, qj in enumerate(q)]
    return InterpolationData.from_measure(mu), q + p[:6] + mixed


class TestIsSolutionMatchesReference:
    def test_acceptance_set(self):
        for seed in range(50):
            spec, N = random_instance(seed)
            data, polys = direct_polys(spec, N, random_boundary(spec.n, seed + 10_000))
            assert_solution_like_reference(polys, data)

    @pytest.mark.parametrize("N", [10, 20, 40])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_direct_cells(self, n, N):
        for seed in range(2):
            spec = generate_random(GenProfile(n=n, n_max=N), seed)
            data, polys = direct_polys(spec, N, random_boundary(n, seed))
            assert_solution_like_reference(polys, data)

    def test_no_nodes(self):
        data = InterpolationData(2, [], [])
        assert_solution_like_reference([VectorPolynomial.zero(2), canonical_e(3, 2)], data)

    def test_dimension_mismatch(self, flip2):
        _, _, _, mu, _, _ = pipeline(flip2, 2)
        data = InterpolationData.from_measure(mu)
        assert_solution_like_reference([VectorPolynomial.zero(2)], data)


@settings(max_examples=150, deadline=None)
@given(awkward_measures(), st.data())
def test_is_solution_matches_reference_on_awkward_measures(mu, draw):
    data = outcome(InterpolationData.from_measure, mu)
    if not isinstance(data, InterpolationData):
        keep = np.flatnonzero(mu.c.any(axis=1))[: mu.n]
        data = InterpolationData(mu.n, mu.lambdas[keep], mu.c[keep])
    rng = np.random.default_rng(draw.draw(st.integers(0, 2**32 - 1)))
    polys = []
    for _ in range(3):
        degs = rng.integers(-1, 8, size=mu.n)
        comps = [rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1) for d in degs]
        polys.append(VectorPolynomial.from_components(comps, mu.n))
    # a solution: every component vanishes at every node
    nodes = np.atleast_1d(np.poly(data.lambdas))[::-1].astype(complex)
    polys.append(VectorPolynomial.from_components([nodes] * mu.n, mu.n))
    assert_solution_like_reference(polys, data)


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

    # the residual is relative at any scale: a tiny r is refused as a large one
    @pytest.mark.parametrize("scale", [1.0, 1e-40])
    def test_no_decomposition_raises(self, flip2, scale):
        # e_1 of a 1-dim system cannot be built from p_1 alone with q absent
        _, _, _, _, p, q = pipeline(flip2, 2)
        stray = canonical_e(4, 1) + canonical_e(1, 1) * 0.5  # z^3 + 0.5
        with pytest.raises(NoDecomposition) as err:
            decompose(stray * scale, p[:1], [], tol=1e-10)
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


# -- the generator check's kernel dimensions against the right answer -------


class TestKernelDimensionsAreExact:
    @pytest.mark.parametrize("mtilde", [False, True])
    @pytest.mark.parametrize("N", [10, 15, 20])
    def test_scalar_solutions_vanish_at_the_nodes(self, N, mtilde):
        # n=1: the scalar polynomials of degree <= h that vanish at P distinct
        # nodes form a space of dimension max(0, h + 1 - P)
        for seed in range(6):
            spec = generate_random(GenProfile(n=1, n_max=N, mtilde=mtilde), seed)
            _, _, _, mu, _, q = pipeline(spec, N, random_boundary(1, seed))
            data = InterpolationData.from_measure(mu)
            table = verify_generators(q, data).height_table
            assert table
            exact = [max(0, h + 1 - data.size) for h, _, _ in table]
            assert [obs for _, obs, _ in table] == exact
            assert [kernel_dimension(data, h) for h, _, _ in table] == exact

    @pytest.mark.parametrize("N", [30, 40])
    def test_mtilde_q_are_minimal_generators(self, N):
        for seed in range(8):
            spec = generate_random(GenProfile(n=3, n_max=N, mtilde=True), seed)
            _, _, _, mu, _, q = pipeline(spec, N, random_boundary(3, seed))
            data = InterpolationData.from_measure(mu)
            rep = verify_generators(q, data)
            assert rep.minimal, (seed, rep.height_table)
            for h, _, expected in rep.height_table:
                assert kernel_dimension(data, h) == expected, (seed, h)

    def test_no_nodes(self):
        data = InterpolationData(2, [], [])
        q = [canonical_e(4, 2), canonical_e(5, 2)]
        rep = verify_generators(q, data)
        assert [obs for _, obs, _ in rep.height_table] == [1, 2, 3, 4, 5]
        assert [kernel_dimension(data, h) for h in range(-2, 5)] == [0, 0, 1, 2, 3, 4, 5]
        assert all(rep.solution_flags) and not rep.minimal

    def test_singular_zeroth_moment_is_counted(self):
        # every direction is e_1, so e_2 is a solution of height 1 < n; with
        # z(z - 1) e_1 of height 4 it generates the module
        data = InterpolationData(2, [0.0, 1.0], [[1.0, 0.0], [1.0, 0.0]])
        q = [VectorPolynomial.from_components([[], [1.0]], 2),
             VectorPolynomial.from_components([[0.0, -1.0, 1.0], []], 2)]
        rep = verify_generators(q, data)
        assert rep.heights == [1, 4]
        assert rep.height_table == [(0, 0, 0), (1, 1, 1), (2, 1, 1), (3, 2, 2), (4, 3, 3)]
        assert rep.minimal
        with pytest.raises(SingularZerothMoment, match="zeroth moment has eigenvalue"):
            orthonormalize(data, 2)

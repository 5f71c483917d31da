import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specband import (
    BoundaryMatrix,
    FiniteHermitian,
    GenProfile,
    InterpolationData,
    MatrixSpec,
    NumericalFailure,
    PivotViolation,
    SingularZerothMoment,
    StepMeasure,
    StructureInfo,
    build_p,
    build_q,
    compare_measures,
    eigen_decompose,
    generate_random,
    inner_product,
    kernel_dimension,
    norm_sq,
    orthonormalize,
    recover_band,
    recover_matrix,
    roundtrip,
    spec_from_dense,
    step_measure,
    truncate,
    validate_class,
)
from specband import reconstruct
from specband import serialize as ser
from specband.cli import EXIT_NUMERICAL, EXIT_OK, run_cli
from specband.reconstruct import RECOVER_STRUCT_TOL, ZERO_NORM_TOL, OrthoResult
from specband.vectorpoly import height
from conftest import (
    REL_BOUND,
    assert_within,
    awkward_measures,
    block_pass,
    gue_measure,
    outcome,
    random_boundary,
    random_instance,
    reference_compare_measures,
    reference_grouped_jumps,
    reference_moment,
    reference_orthonormalize,
    reference_outcome,
    reference_weight_row,
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
        res = assert_sweep_like_reference(mu, 12)
        assert res.skip_log  # rank 7 measure forces skips beyond exhaustion

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
        assert np.all(np.tril(tt, -1) == 0)
        assert np.all(np.diag(tt).real > 0)
        assert np.all(np.diag(tt).imag == 0)

    def test_singular_zeroth_moment(self):
        c = np.array([1.0, 0.0], dtype=complex)
        mu = StepMeasure(2, [0.0, 1.0], [c, c])
        with pytest.raises(SingularZerothMoment, match="zeroth moment has eigenvalue"):
            orthonormalize(mu, 2)

    def test_fewer_than_n_constants(self):
        # max_k = 1 caps the sweep before the second constant
        with pytest.raises(SingularZerothMoment, match="fewer than n orthonormal constants"):
            orthonormalize(gue_measure(0, 2, 5), 1)

    def test_degeneration_below_n_is_singular(self, tmp_path):
        # nearly parallel heads: at zero_tol=1e-2 the residual of e_2 counts
        # as degenerate, which would leave the boundary's second row zero
        rng = np.random.default_rng(0)
        a = rng.normal(size=6) + 1j * rng.normal(size=6)
        eps = rng.normal(size=6)
        heads = np.stack([a, a * (1 + 1e-3 * eps)], axis=1)
        mu = StepMeasure(2, np.linspace(-1, 1, 6), heads)
        with pytest.raises(SingularZerothMoment, match="height 1 < n=2"):
            orthonormalize(mu, 6, zero_tol=1e-2)
        # the default threshold sees the e_2 residual (ratio about 1e-3)
        assert orthonormalize(mu, 6).q_heights == (6, 7)
        sigma = tmp_path / "sigma.json"
        ser.dump(ser.measure_to_dict(mu), sigma)
        assert run_cli(["reconstruct", str(sigma), "--tol-zero", "1e-2"]) == EXIT_NUMERICAL


def test_overflow_is_no_degeneration():
    # |e_2| overflows: a numerical failure, not a degeneration at height 1
    mu = StepMeasure(1, [1e200, -1e200, 0.0], [[1.0], [1.0], [1.0]])
    with pytest.raises(FloatingPointError, match="overflow"):
        orthonormalize(mu, 3)
    with pytest.raises(FloatingPointError, match="overflow"):
        kernel_dimension(InterpolationData.from_measure(mu), 2)


def test_overflow_at_a_skipped_first_height_of_its_level():
    # e_1 has zero norm (degeneration at height 0), so the even heights 2, 4,
    # ... are skipped; lambda^2 overflows, and the first height of level 2
    # that the sweep reaches is 5
    mu = StepMeasure(2, [-1e200, 0.0, 1e200], [[0.0, 1e-150]] * 3)
    with pytest.raises(FloatingPointError, match="overflow"):
        kernel_dimension(InterpolationData.from_measure(mu), 5)


def test_overflow_in_a_skipped_row_raises_nothing():
    # e_2 is a multiple of e_1 (degeneration at height 1), so the odd heights
    # are skipped; lambda^2 * 1e150 overflows, but only at the skipped height 5
    mu = StepMeasure(2, [1e80, 2e80, 3e80], [[1e-150, 1e150]] * 3)
    data = InterpolationData.from_measure(mu)
    assert [kernel_dimension(data, h) for h in range(8)] == [0, 1, 1, 2, 2, 3, 4, 5]


class TestRecoverMatrix:
    def test_flip2_self_reconstruction(self, flip2):
        mu, m, _ = measure_of(flip2, 2)
        res = orthonormalize(mu, max_k=2)
        rec = recover_matrix(res)
        assert np.max(np.abs(rec.data - m.data)) < 1e-12

    def test_jac5_three_term_recovery(self, jac5):
        mu, m, _ = measure_of(jac5, 5)
        res = orthonormalize(mu, max_k=5)
        rec = recover_matrix(res)
        assert np.max(np.abs(rec.data - m.data)) < 1e-10

    def test_fix7_unitary_equivalent(self, fix7):
        mu, m, _ = measure_of(fix7, 7)
        res = orthonormalize(mu, max_k=7)
        rec = recover_matrix(res)
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


def reference_errors(spec, t, N, rep):
    """A round trip's jump and moment errors by the per-cluster and per-order loops,
    and the scale of each: the largest |lambda|, the largest entry of a jump, and
    the largest entry of sum |lambda|^k C C* over k, in either measure."""
    sigma = step_measure(eigen_decompose(truncate(spec, N)), t)
    sigma_rec = step_measure(eigen_decompose(rep.matrix), rep.boundary)
    loc, mat = reference_compare_measures(sigma, sigma_rec)
    mom = mom_scale = 0.0
    for k in range(rep.moment_order + 1):
        gap = reference_moment(sigma, k) - reference_moment(sigma_rec, k)
        mom = max(mom, float(np.max(np.abs(gap))))
        for mu in (sigma, sigma_rec):
            folded = reference_moment(StepMeasure(mu.n, np.abs(mu.lambdas), mu.c), k)
            mom_scale = max(mom_scale, float(np.max(np.abs(folded))))
    both = (sigma, sigma_rec)
    jumps = [jump for mu in both for _, jump in reference_grouped_jumps(mu)]
    scales = (max(float(np.max(np.abs(mu.lambdas))) for mu in both),
              max(float(np.max(np.abs(jump))) for jump in jumps), mom_scale)
    return (loc, mat, mom), scales


class TestRoundTripErrorsMatchReference:
    @pytest.mark.parametrize("N_hi", [15, 40])
    def test_random_instances(self, N_hi):
        compared = inf_sizes = 0
        for seed in range(30):
            spec, N = random_instance(seed, N_hi=N_hi)
            t = random_boundary(spec.n, seed)
            rep = outcome(roundtrip, spec, t, N)
            if not isinstance(rep, reconstruct.RoundTripReport):
                continue
            got = (rep.jump_location_error, rep.jump_matrix_error, rep.moment_error)
            ref, scales = reference_errors(spec, t, N, rep)
            if rep.jump_matrix_error == float("inf"):  # unequal jump counts: inf, inf
                assert got[:2] == ref[:2]
                got, ref, scales = got[2:], ref[2:], scales[2:]
            assert_within(got, ref, scales)
            compared += 1
            inf_sizes += rep.jump_matrix_error == float("inf")
        assert compared >= 20
        if N_hi == 40:
            assert inf_sizes > 0  # the unequal-jump-count branch is exercised


# -- spec_from_dense against the per-query scans it replaced ----------------


def scan_spec_from_dense(data, n):
    """Reference: entries by a double loop, edges by rescanning the entries."""
    data = np.asarray(data, dtype=complex)
    N = data.shape[0]
    scale = float(np.max(np.abs(data))) or 1.0
    tol = RECOVER_STRUCT_TOL * scale
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
    return recover_matrix(orthonormalize(mu, N)).data


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


# -- what the sweep guarantees, and the reference's decisions where they agree --


def heights_by_skip_log(res):
    """The emitted heights: the first ones that are neither degenerate nor skipped."""
    gone = set(res.q_heights) | {k - 1 for k in res.skip_log}
    emitted = [h for h in range(len(res.weights) + len(gone)) if h not in gone]
    return emitted[: len(res.weights)]


def assert_derived_heights(res):
    """p~ and q~ take the sweep's p and q heights."""
    assert [height(p) for p in res.p_tilde] == list(res.p_heights)
    assert [height(q) for q in res.q_tilde] == list(res.q_heights)


def assert_boundary_solves_the_measure(t, mu):
    """T~ is upper triangular, exactly, and T~* S_0 T~ = I within REL_BOUND of
    ||S_0|| ||T~||^2, the scale of the product's rounding."""
    assert np.tril(t, -1).tobytes() == bytes(t.nbytes)  # +0.0 below the diagonal
    s0 = mu.total_mass()
    residual = np.max(np.abs(t.conj().T @ s0 @ t - np.eye(mu.n)))
    assert residual <= REL_BOUND * np.linalg.norm(s0, 2) * np.linalg.norm(t, 2) ** 2


def assert_sweep_guarantees(mu, max_k, zero_tol=ZERO_NORM_TOL):
    """The sweep's rows are orthonormal, T~ solves the measure, the visited heights
    split into emitted, degenerate and lattice-skipped ones, and each skipped e_k
    reduces to zero on the rows below it, within 1e-8 of its norm."""
    res = orthonormalize(mu, max_k, zero_tol=zero_tol)
    w, n = res.weights, mu.n
    assert len(res.p_heights) == len(w) <= min(max_k, mu.size)
    assert res.orthogonality_loss <= 1e-13
    assert_boundary_solves_the_measure(res.t_tilde.t, mu)
    skipped = [k - 1 for k in res.skip_log]
    visited = sorted(res.p_heights + res.q_heights + tuple(skipped))
    assert visited == list(range(len(visited)))
    assert skipped == [h for h in visited if any(h > q and (h - q) % n == 0 for q in res.q_heights)]
    below = np.asarray(res.p_heights)
    for k in res.skip_log:
        e, rows = reference_weight_row(mu, k), w[below < k - 1]
        r = block_pass(block_pass(e, rows)[0], rows)[0]
        assert np.linalg.norm(r) <= 1e-8 * np.linalg.norm(e)
    return res


def sweep_decisions(res):
    """What a sweep decided: heights, skips, stop and emitted count."""
    return res.q_heights, res.p_heights, res.skip_log, res.rank_exhausted, len(res.weights)


def assert_sweep_like_reference(mu, max_k, zero_tol=ZERO_NORM_TOL):
    """The sweep's guarantees; on at most 15 points, where the monomials are still
    well conditioned, also the reference sweep's decisions, its rows within 1e-11
    of their largest entry, and its T~ within REL_BOUND of its largest entry, with
    the same diagonal, 1/norm of each constant's residual."""
    res = assert_sweep_guarantees(mu, max_k, zero_tol)
    if mu.size <= 15:
        ref = reference_orthonormalize(mu, max_k, zero_tol=zero_tol)
        assert sweep_decisions(res) == sweep_decisions(ref)
        w, w_ref = res.weights, ref.weights
        assert np.max(np.abs(w - w_ref)) <= 1e-11 * np.max(np.abs(w_ref))
        t, t_ref = res.t_tilde.t, ref.t_tilde.t
        assert np.max(np.abs(t - t_ref)) <= REL_BOUND * np.max(np.abs(t_ref))
        assert np.diag(t).tobytes() == np.diag(t_ref).tobytes()
    return res


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
                assert_derived_heights(res)
                if N <= 10:
                    for p, w in zip(res.p_tilde, res.weights):
                        assert np.max(np.abs(mu.weight_row(p) - w)) <= 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_gue_measures(self, n):
        for N in (n + 1, 10, 20, 40, 80, 160):
            for seed in (0, 1, N):
                mu = gue_measure(seed, n, N)
                assert_sweep_like_reference(mu, N // 3 + n)
                res = assert_sweep_like_reference(mu, N)
                try:
                    assert_derived_heights(res)
                except NumericalFailure:
                    # only a degeneration of nonzero norm stops the derivation, and
                    # every point carries a rank-one jump, so L2(sigma) has dimension
                    # N and a true degeneration has height N or more
                    assert min(res.q_heights) < N
                    continue
                if N <= 20:  # monomial coefficients are exact objects only at small N
                    for p, w in zip(res.p_tilde, res.weights):
                        assert np.max(np.abs(mu.weight_row(p) - w)) <= 1e-5

    def test_degeneration_of_nonzero_norm_stops_the_derivation(self):
        # the monomial sweep declares height 37 degenerate on a measure of
        # dimension 40; the recursion on the recovered matrix would give a p~
        # of height 38 whose weight row misses the sweep's by about 1
        mu = gue_measure(40, 2, 40)
        res = orthonormalize(mu, 40)
        assert res.q_heights == (37, 40) and len(res.weights) == 38
        with pytest.raises(NumericalFailure, match="has nonzero norm"):
            res.p_tilde
        with pytest.raises(NumericalFailure, match="has nonzero norm"):
            res.q_tilde

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
def test_sweep_guarantees_on_awkward_measures(mu, data):
    max_k = data.draw(st.integers(1, mu.size + 3), label="max_k")
    zero_tol = data.draw(st.sampled_from([ZERO_NORM_TOL, 1e-4, 1e-13]), label="zero_tol")
    ref = outcome(reference_orthonormalize, mu, max_k, zero_tol=zero_tol)
    if isinstance(ref, OrthoResult):
        assert_sweep_guarantees(mu, max_k, zero_tol)
    else:  # a singular S_0 or T~ is refused in the reference's words
        assert outcome(orthonormalize, mu, max_k, zero_tol=zero_tol) == ref


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 170), st.data())
def test_sweep_multipliers_take_matmul_bytes(N, data):
    # _sweep's multipliers bc.dot(w) are bc @ w byte for byte: bc is the first m
    # rows of the conjugated half of a padded (2, cap, N) block, w a scaled row
    cap = data.draw(st.integers(1, N))
    m = data.draw(st.integers(1, cap))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** data.draw(st.integers(-100, 100))
    basis, basis_conj = np.zeros((2, cap, N), dtype=complex)
    basis[:m] = rng.normal(size=(m, N)) + 1j * rng.normal(size=(m, N))
    np.conjugate(basis[:m], out=basis_conj[:m])
    w = scale * (rng.normal(size=N) + 1j * rng.normal(size=N))
    bc = basis_conj[:m]
    assert bc.dot(w).tobytes() == (bc @ w).tobytes()


def test_one_row_projection_is_no_dot():
    # why _sweep keeps cs @ b: with one emitted row, ndarray.dot rounds the
    # product otherwise than matmul (here on every draw of 20)
    rng = np.random.default_rng(0)
    differ = 0
    for N in range(10, 170, 8):
        cs = rng.normal(size=1) + 1j * rng.normal(size=1)
        b = rng.normal(size=(1, N)) + 1j * rng.normal(size=(1, N))
        differ += (cs @ b).tobytes() != cs.dot(b).tobytes()
    assert differ > 0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_boundary_matrix_is_read_only_from_the_constants(n):
    # T~ comes from the first n emitted rows and their norms alone: a sweep
    # stopped after the constants gives it bit for bit
    mu = gue_measure(0, n, 40)
    full, constants = orthonormalize(mu, 40), orthonormalize(mu, n)
    assert len(full.weights) > n and len(constants.weights) == n
    assert constants.weights.tobytes() == full.weights[:n].tobytes()
    assert constants.t_tilde.t.tobytes() == full.t_tilde.t.tobytes()
    assert_boundary_solves_the_measure(full.t_tilde.t, mu)


def test_orthogonality_loss_is_computed_when_read(fix7):
    res = orthonormalize(measure_of(fix7, 7)[0], 7)
    assert "orthogonality_loss" not in vars(res)
    w = res.weights
    assert res.orthogonality_loss == float(np.max(np.abs(w @ w.conj().T - np.eye(7))))
    assert res.orthogonality_loss <= 1e-14
    # rows of norm 2: W W* = 4 I
    assert dataclasses.replace(res, weights=2 * w).orthogonality_loss == pytest.approx(3.0)


def test_polynomials_are_derived_only_on_access(monkeypatch, tmp_path, fix7):
    def refuse(*args):
        raise AssertionError("polynomials derived")

    monkeypatch.setattr(reconstruct, "build_p", refuse)
    monkeypatch.setattr(reconstruct, "build_q", refuse)
    mu, _, _ = measure_of(fix7, 7)
    sigma = tmp_path / "sigma.json"
    ser.dump(ser.measure_to_dict(mu), sigma)
    assert run_cli(["reconstruct", str(sigma), "-o", str(tmp_path / "out.json")]) == EXIT_OK
    assert roundtrip(fix7, random_boundary(3, 41), 7).class_ok
    with pytest.raises(AssertionError, match="derived"):
        orthonormalize(mu, 7).p_tilde


# -- the recovered band ---------------------------------------------------------


def band_by_skip_log(res):
    """The band, structure and polynomials as ``_band`` built them from the heights
    that the q heights and the skip log give, with its zeroing and refusal."""
    n, N = res.t_tilde.n, len(res.weights)
    heights = heights_by_skip_log(res)
    row = {h: i for i, h in enumerate(heights, 1)}
    s = StructureInfo.from_pivot(n, N, {c: row[h - n] for c, h in enumerate(heights, 1) if h >= n})
    m = recover_matrix(res)
    far = np.abs(np.subtract.outer(heights, heights)) > n
    off = float(np.max(np.abs(m.data[far]), initial=0.0))
    if off > reconstruct.BAND_NOISE_TOL * float(np.max(np.abs(m.data))):
        raise NumericalFailure("has nonzero norm")
    m = FiniteHermitian(N, np.where(far, 0.0, m.data))
    p = build_p(m, s, res.t_tilde)
    q = build_q(m, s, res.t_tilde, p)
    return p, [q[s.K.index(heights.index(h - n) + 1)] for h in res.q_heights]


def poly_bytes(polys):
    return [[np.array(c, dtype=complex).tobytes() for c in p.comps] for p in polys]


def band_measures():
    """The acceptance set and GUE measures up to N = 40, with their sweeps' caps."""
    yield from acceptance_measures()
    for n in (1, 2, 3):
        for N in (n + 1, 10, 20, 40):
            yield gue_measure(N, n, N), N


def test_derived_polynomials_keep_their_bytes():
    refused = 0
    for mu, N in band_measures():
        res = orthonormalize(mu, N)
        ref = outcome(band_by_skip_log, res)
        if ref == (NumericalFailure, "has nonzero norm"):
            refused += 1
            with pytest.raises(NumericalFailure, match="has nonzero norm"):
                res.p_tilde
            continue
        assert poly_bytes(res.p_tilde) == poly_bytes(ref[0])
        assert poly_bytes(res.q_tilde) == poly_bytes(ref[1])
    assert refused == 1  # gue_measure(40, 2, 40)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_band_is_the_dense_recovery_inside_the_band(n):
    for N in (n + 1, 10, 20, 40):
        res = orthonormalize(gue_measure(N, n, N), N)
        dense = recover_matrix(res).data
        m, leakage = recover_band(res)
        h = np.array(heights_by_skip_log(res))
        far = np.abs(np.subtract.outer(h, h)) > n
        assert m.data[~far].tobytes() == dense[~far].tobytes()
        assert np.all(m.data[far] == 0.0) and not np.signbit(m.data[far].view(float)).any()
        if far.any():
            assert leakage == np.max(np.abs(dense[far])) / np.max(np.abs(dense))
        else:  # N = n + 1 rows lie within n heights of each other
            assert leakage == 0.0

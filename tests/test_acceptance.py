"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criteria 2, 3, 4 and 6 share one set of 50 seeded random instances
(n in {1,2,3}, N in n+2..20, random upper-triangular boundary matrices with
diagonal in [0.5, 2]).
"""

import time

import numpy as np
import pytest

from specband import (
    BoundaryMatrix,
    GenProfile,
    MatrixSpec,
    analyze_structure,
    build_p,
    build_q,
    c_vectors,
    completeness_defect,
    decompose,
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
    recover_matrix,
    roundtrip,
    spec_from_dense,
    step_measure,
    theta_at,
    truncate,
    validate_class,
)
from specband.spectral import jump_rank
from specband.vectorpoly import canonical_e, from_coeff_vector, height

from conftest import make_fix7, random_boundary


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {name}: {status}  {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _instance(seed, N_hi):
    rng = np.random.default_rng(seed)
    n = seed % 3 + 1
    N = int(rng.integers(n + 2, N_hi + 1))
    spec = generate_random(GenProfile(n=n, n_max=max(N, n + 2)), seed)
    t = random_boundary(n, seed + 10_000)
    return spec, N, t


@pytest.fixture(scope="module")
def instances20():
    """The shared 50-instance set for criteria 2, 3, 4, 6."""
    out = []
    for seed in range(50):
        spec, N, t = _instance(seed, 20)
        m = truncate(spec, N)
        s = analyze_structure(spec, N)
        sd = eigen_decompose(m)
        mu = step_measure(sd, t)
        out.append((spec, N, m, s, t, sd, mu))
    return out


def test_criterion_01_fixture_exactness(flip2):
    t0 = time.monotonic()
    t = BoundaryMatrix.identity(1)
    m = truncate(flip2, 2)
    s = analyze_structure(flip2, 2)
    sd = eigen_decompose(m)
    mu = step_measure(sd, t)
    p = build_p(m, s, t)
    q = build_q(m, s, t, p)

    eig_err = float(np.max(np.abs(sd.lambdas - [-1.0, 1.0])))
    jump_err = max(abs(j[1][0, 0] - 0.5) for j in mu.grouped_jumps())
    p_err = max(
        float(np.max(np.abs(np.array(p[0].comps[0]) - [1.0]))),
        float(np.max(np.abs(np.array(p[1].comps[0]) - [0.0, 1.0]))),
    )
    q1 = q[0] * (1.0 / q[0].comps[0][0])
    q_err = float(np.max(np.abs(np.array(q1.comps[0]) - [1.0, 0.0, -1.0])))
    mom_err = max(
        abs(mu.moment(0)[0, 0] - 1.0),
        abs(mu.moment(1)[0, 0]),
        abs(mu.moment(2)[0, 0] - 1.0),
    )
    elapsed = time.monotonic() - t0
    worst = max(eig_err, jump_err, p_err, q_err, mom_err)
    report(
        1,
        "fixture exactness (2x2 exchange)",
        worst <= 1e-12 and elapsed < 1.0,
        f"worst deviation {worst:.2e}, {elapsed * 1000:.0f} ms",
    )


def test_criterion_02_orthonormality(instances20):
    worst = 0.0
    for spec, N, m, s, t, sd, mu in instances20:
        G = gram_matrix(m, s, t, sd)
        worst = max(worst, float(np.max(np.abs(G - np.eye(N)))))
    report(2, "orthonormality of p under sigma", worst <= 1e-9, f"max defect {worst:.2e}")


def test_criterion_03_zero_norms(instances20):
    worst_norm = 0.0
    worst_theta = 0.0
    for spec, N, m, s, t, sd, mu in instances20:
        norms, scales = q_norms_sq(m, s, t, sd)
        worst_norm = max(worst_norm, float(np.max(norms / scales)))
        cs = c_vectors(sd, t)
        for lam, c in zip(sd.lambdas, cs):
            worst_theta = max(
                worst_theta, float(np.linalg.norm(theta_at(m, s, t, lam) @ c))
            )
    ok = worst_norm <= 1e-18 and worst_theta <= 1e-8
    report(
        3,
        "zero norms of q and Theta*C annihilation",
        ok,
        f"max |q|^2/scale^2 {worst_norm:.2e}, max |Theta C| {worst_theta:.2e}",
    )


def test_criterion_04_spectral_function_structure(instances20):
    ok = True
    worst_complete = 0.0
    for spec, N, m, s, t, sd, mu in instances20:
        jumps = mu.grouped_jumps()
        ranks = [jump_rank(jump) for _, jump in jumps]
        if any(r > spec.n for r in ranks) or sum(ranks) != N:
            ok = False
        for _, jump in jumps:
            if float(np.min(np.linalg.eigvalsh(jump))) < -1e-12:
                ok = False
        worst_complete = max(worst_complete, completeness_defect(mu, t))
    ok = ok and worst_complete <= 1e-9
    report(
        4,
        "step function structure and completeness",
        ok,
        f"max completeness defect {worst_complete:.2e}",
    )


def test_criterion_05_det_theta_spectrum():
    worst = 0.0
    for seed in range(25):
        spec, N, t = _instance(seed, 15)
        m = truncate(spec, N)
        s = analyze_structure(spec, N)
        sd = eigen_decompose(m)
        poly = det_theta_polynomial(m, s, t)
        roots = np.sort(poly.roots().real)
        if len(roots) != N:
            report(5, "det Theta spectrum", False, f"seed {seed}: {len(roots)} roots for N={N}")
        worst = max(worst, float(np.max(np.abs(roots - sd.lambdas))))
    report(5, "det Theta roots match the spectrum", worst <= 1e-6, f"max gap {worst:.2e}")


def test_criterion_06_multiplication_operator(instances20):
    worst = 0.0
    for spec, N, m, s, t, sd, mu in instances20:
        M2 = multiplication_matrix(m, s, t, sd)
        worst = max(worst, float(np.max(np.abs(M2 - m.data))))
    report(6, "multiplication operator identity", worst <= 1e-9, f"max defect {worst:.2e}")


def test_criterion_07_moment_stabilization():
    # tail offset 2 with n=2: banded instance whose tail starts at row 1
    entries = {}
    for r in range(1, 9):
        entries[(r, r)] = 0.3
        if r + 1 <= 8:
            entries[(r, r + 1)] = -0.25
        if r + 2 <= 8:
            entries[(r, r + 2)] = 1.1
    spec = MatrixSpec(2, 8, entries, {c: c - 2 for c in range(3, 9)}, (1, 3))
    assert validate_class(spec, "m").passed
    t = random_boundary(2, 77)
    mus = {}
    for N in (8, 13):
        m = truncate(spec, N)
        mus[N] = step_measure(eigen_decompose(m), t)
    worst = 0.0
    for k in range(0, 7):
        worst = max(worst, float(np.max(np.abs(mus[8].moment(k) - mus[13].moment(k)))))
    report(
        7,
        "moments S_0..S_6 stable from N = n + l(k0-j0) = 8 to N' = 13",
        worst <= 1e-8,
        f"max entry gap {worst:.2e}",
    )


def test_criterion_08_height_calculus():
    ok = True
    for n in (1, 2, 3):
        for h in range(0, 31):
            if height(canonical_e(h + 1, n)) != h:
                ok = False
    t = BoundaryMatrix.identity(3)

    def heights_for(m25, m35):
        spec = make_fix7(m25=m25, m35=m35)
        m = truncate(spec, 7)
        s = analyze_structure(spec, 7)
        p = build_p(m, s, t)
        q = build_q(m, s, t, p)
        return [height(x) for x in p], [height(x) for x in q]

    hp1, hq1 = heights_for(0.0, 2.0)
    case1 = hp1[4] == 6 and hq1[0] == 6 and hq1[1] == 9 and hq1[0] % 3 == hq1[1] % 3
    hp3, hq3 = heights_for(0.0, 0.0)
    residues = sorted(h % 3 for h in hq3)
    covered = set(int(h) for h in hp3)
    for h in hq3:
        covered.update(int(h) + 3 * l for l in range(0, 20))
    top = int(max(hp3))
    case3 = residues == [0, 1, 2] and set(range(top + 1)) <= covered
    ok = ok and case1 and case3
    report(
        8,
        "height calculus and the q-height patterns",
        ok,
        f"case1 q-heights {hq1}, case3 q-heights {hq3}",
    )


def test_criterion_09_round_trip():
    t0 = time.monotonic()
    worst_eig = 0.0
    worst_jump = 0.0
    worst_idem = 0.0
    all_class = True
    for seed in range(50):
        spec, N, t = _instance(seed, 15)
        rep = roundtrip(spec, t, N)
        all_class = all_class and rep.class_ok
        worst_eig = max(worst_eig, rep.eigenvalue_error)
        worst_jump = max(worst_jump, rep.jump_matrix_error)
        spec2 = spec_from_dense(rep.matrix.data, spec.n)
        rep2 = roundtrip(spec2, rep.boundary, N)
        worst_idem = max(
            worst_idem, float(np.max(np.abs(rep2.matrix.data - rep.matrix.data)))
        )
    elapsed = time.monotonic() - t0
    ok = (
        all_class
        and worst_eig <= 1e-8
        and worst_jump <= 1e-7
        and worst_idem <= 1e-9
        and elapsed < 60.0
    )
    report(
        9,
        "round trip and idempotence",
        ok,
        f"eig {worst_eig:.2e}, jumps {worst_jump:.2e}, idem {worst_idem:.2e}, {elapsed:.1f}s",
    )


def test_criterion_10_decomposition():
    # band subclass: arbitrary polynomials up to h(p_N) decompose
    worst_resid = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n = seed % 3 + 1
        N = int(rng.integers(n + 2, 13))
        spec = generate_random(GenProfile(n=n, n_max=max(N, n + 2), mtilde=True), seed)
        t = random_boundary(n, seed + 400)
        m = truncate(spec, N)
        s = analyze_structure(spec, N)
        p = build_p(m, s, t)
        q = build_q(m, s, t, p)
        hmax = int(height(p[-1]))
        coords = rng.normal(size=hmax + 1) + 1j * rng.normal(size=hmax + 1)
        r = from_coeff_vector(coords, n)
        dec = decompose(r, p, q)
        worst_resid = max(worst_resid, dec.relative_residual)

    # general class: support bound of z^l p_m; the printed equation's bound
    # m + l(k0-j0) is provable for m >= j0-1 and the sharpened bound
    # max(m, j0-1) + l(k0-j0) holds for every m in G_n
    worst_stated = 0.0
    worst_general = 0.0
    checked_stated = 0
    cases = [(seed, GenProfile(n=seed % 3 + 1, n_max=16)) for seed in range(10)]
    # tails starting at the first rows keep every m in the provable regime
    cases += [
        (91, GenProfile(n=2, n_max=16, tail=(1, 3))),
        (92, GenProfile(n=3, n_max=16, tail=(2, 5))),
        (93, GenProfile(n=3, n_max=16, tail=(2, 4))),
        (94, GenProfile(n=2, n_max=16, tail=(2, 3))),
        (95, GenProfile(n=3, n_max=16, tail=(1, 4))),
    ]
    for seed, profile in cases:
        n = profile.n
        spec = generate_random(profile, seed + 900)
        j0, k0 = spec.tail
        toff = k0 - j0
        N = 16
        m = truncate(spec, N)
        s = analyze_structure(spec, N)
        t = random_boundary(n, seed + 500)
        p = build_p(m, s, t)
        q = build_q(m, s, t, p)
        for mi in range(1, n + 1):
            for l in (1, 2):
                dec = decompose(p[mi - 1].z_mul(l), p, q, min_s_degree=l - 1)
                scale = float(np.max(np.abs(dec.a))) or 1.0
                general = max(mi, j0 - 1) + l * toff
                if general < N:
                    tail_mag = float(np.max(np.abs(dec.a[general:])))
                    worst_general = max(worst_general, tail_mag / scale)
                if mi >= j0 - 1:
                    stated = mi + l * toff
                    if stated < N:
                        tail_mag = float(np.max(np.abs(dec.a[stated:])))
                        worst_stated = max(worst_stated, tail_mag / scale)
                        checked_stated += 1
    ok = worst_resid <= 1e-8 and worst_stated <= 1e-8 and worst_general <= 1e-8
    report(
        10,
        "decompositions and coefficient support bounds",
        ok and checked_stated > 0,
        f"resid {worst_resid:.2e}, stated-bound leak {worst_stated:.2e} "
        f"({checked_stated} checks), general-bound leak {worst_general:.2e}",
    )

"""Shared fixtures: the three reference instances and instance generators.

FLIP2  2x2 exchange matrix, n=1.
JAC5   free Jacobi matrix (zero diagonal, unit off-diagonal), n=1, N=5.
FIX7   the 7x7 matrix with n=3, pivots 4->1, 5->4, 6->2, 7->6 and
       unpivoted rows {3,5,7}; interior values chosen generically so no
       accidental cancellations occur.  Variants zero the entries (2,5)
       and/or (3,5), which toggles the height pattern of the q system.

``brute_force_scans`` swaps MatrixSpec's structural index for the original
per-query scans over every stored entry, as a reference for equivalence tests.
Where an array form may round otherwise than its reference, ``assert_within``
compares the two within ``REL_BOUND`` of the scale of the quantity, which the
test states; ``horner_scale`` is that scale for a polynomial's value.
``reference_orthonormalize`` and ``reference_moment`` are the inverse sweep
on VectorPolynomial arithmetic and the original per-order moment loop, the
references of the array-based sweep and moments.
``points`` gives a measure's (lambda, C) pairs for the per-point references.
``reference_evaluate`` and ``reference_point_weights`` are sigma(t) and the
spectral coordinates of a polynomial by a loop over the points, the
references of ``StepMeasure.evaluate`` and ``StepMeasure.weight_row``.
``reference_grouped_jumps`` clusters the growth points and sums each jump in
a loop over the points, and ``reference_compare_measures`` compares two
measures' jumps cluster by cluster, the references of the array passes in
``StepMeasure.grouped_jumps`` and ``reconstruct.compare_measures``.
``reference_psi_at`` and the functions after it are the original direct
side, which evaluated Psi one point at a time.  ``reference_eigen_decompose``,
``reference_c_vectors`` and ``reference_is_solution`` fix phases, check
C-vectors and test nodes in a loop over the columns or nodes, the references
of their array forms; the gram, multiplication and q-norm references take
their C-vectors from ``reference_c_vectors``.  ``reference_build_p`` and
``reference_build_q`` build the p_k and q_j by stepwise VectorPolynomial
arithmetic, the references of the coefficient-array ``build_p``/``build_q``.
``reference_dumps`` is the CLI's original output encoder, json's indent-2
encoder, and ``reference_from_coeff_vector`` the original per-coefficient
slot loop with its trimming loop, the references of ``serialize.dumps`` and
of ``vectorpoly.from_coeff_vector``; ``_reference_trim`` is the trailing-zero
walk that the array scan of ``vectorpoly.from_coeff_rows`` replaced.
``pairs_as_lists`` readies a payload that holds ``serialize.Pairs`` arrays
for ``reference_dumps``.
``reference_generate_random`` is the generator that drew each uniform with
its own ``rng.uniform`` call, scanned every pair (j, k) with k >= j and
rescanned the free rows for each pivot, the reference of ``generate_random``.
"""

import contextlib
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import strategies as st

from specband import BoundaryMatrix, GenProfile, MatrixSpec, StepMeasure, generate_random
from specband import matrices, serialize
from specband.errors import (
    DimensionMismatch,
    InconsistentProfile,
    NumericalFailure,
    PivotViolation,
    SingularZerothMoment,
)
from specband.reconstruct import ZERO_NORM_TOL, OrthoResult
from specband.spectral import CLUSTER_TOL, SpectralData
from specband.vectorpoly import (
    VectorPolynomial,
    canonical_e,
    leading_slot,
)


@pytest.fixture
def flip2():
    return MatrixSpec(
        n=1,
        n_max=2,
        entries={(1, 2): 1.0},
        pivot={2: 1},
        tail=(1, 2),
    )


@pytest.fixture
def jac5():
    entries = {(i, i + 1): 1.0 for i in range(1, 5)}
    return MatrixSpec(
        n=1,
        n_max=5,
        entries=entries,
        pivot={c: c - 1 for c in range(2, 6)},
        tail=(1, 2),
    )


def make_fix7(m25=1.0, m35=2.0):
    entries = {
        (1, 1): 1.0, (1, 2): -1.0, (1, 3): 2.0, (1, 4): 3.0,
        (2, 2): 2.0, (2, 3): 1.0, (2, 4): -2.0, (2, 5): m25, (2, 6): 2.0,
        (3, 3): -1.0, (3, 4): 1.0, (3, 5): m35, (3, 6): -1.0,
        (4, 4): 1.0, (4, 5): 2.0,
        (5, 5): 3.0, (5, 6): 1.0,
        (6, 6): -2.0, (6, 7): 1.0,
        (7, 7): 2.0,
    }
    entries = {k: v for k, v in entries.items() if v != 0.0}
    return MatrixSpec(
        n=3,
        n_max=7,
        entries=entries,
        pivot={4: 1, 5: 4, 6: 2, 7: 6},
        tail=(7, 8),
    )


@pytest.fixture
def fix7():
    return make_fix7()


def random_boundary(n, seed, complex_offdiag=True):
    """Upper-triangular boundary matrix with diagonal in [0.5, 2]."""
    rng = np.random.default_rng(seed)
    if complex_offdiag:
        t = np.triu(rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n)), 1)
    else:
        t = np.triu(rng.uniform(-1, 1, (n, n)), 1)
    t = t + np.diag(rng.uniform(0.5, 2.0, n)).astype(complex)
    return BoundaryMatrix(n, t)


def random_instance(seed, n=None, N=None, mtilde=False, N_hi=20):
    """Seeded random matrix spec plus a truncation size."""
    rng = np.random.default_rng(seed)
    if n is None:
        n = [1, 2, 3][seed % 3]
    if N is None:
        N = int(rng.integers(n + 2, N_hi + 1))
    spec = generate_random(GenProfile(n=n, n_max=max(N, n + 2), mtilde=mtilde), seed)
    return spec, N


def gue_arrays(seed, n, N):
    """Eigenvalues and the (N, n) block of eigenvector heads of a random N x N
    GUE matrix; the block is a transposed view, so it is in Fortran order."""
    rng = np.random.default_rng([seed, n, N])
    a = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
    lam, phi = np.linalg.eigh(0.5 * (a + a.conj().T))
    return lam, phi[:n, :].T


def gue_measure(seed, n, N):
    """Step measure (T = I) of a random N x N GUE matrix."""
    return StepMeasure(n, *gue_arrays(seed, n, N))


def tie_keeping_permutation(lambdas, seed):
    """A random permutation of the points that keeps equal lambdas in their order,
    so that sorting the permuted points stably gives back the original ones."""
    perm = np.random.default_rng(seed).permutation(len(lambdas))
    for lam in np.unique(lambdas):
        slots = np.flatnonzero(lambdas[perm] == lam)
        perm[slots] = np.sort(perm[slots])
    return perm


@st.composite
def awkward_measures(draw):
    """Step measures with clustered points and rank-deficient heads.

    Points sit on a few centres, exactly or 1e-12 apart; heads may lie in a
    subspace of C^n (singular S_0) or have zero components at many points,
    which forces early degenerations and long lattice-skip runs.  A quarter
    of the draws or fewer have a head rank below n, and point i keeps its
    component i (i < n), so that most measures have a nonsingular S_0 and
    reach the sweep.
    """
    n = draw(st.integers(1, 3))
    N = draw(st.integers(n, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centres = rng.normal(size=draw(st.integers(1, N))) * draw(st.sampled_from([1e-2, 1.0, 30.0]))
    jitter = draw(st.sampled_from([0.0, 1e-12]))
    lam = np.sort(rng.choice(centres, N) + jitter * rng.normal(size=N))
    heads = rng.normal(size=(N, n)) + 1j * rng.normal(size=(N, n))
    rank = draw(st.sampled_from([n, n, n, draw(st.integers(1, n))]))
    heads = heads[:, :rank] @ (rng.normal(size=(rank, n)) + 0j)
    # per slot, the share of points whose head component is zero
    sparsity = np.array(draw(st.lists(st.sampled_from([0.0, 0.5, 0.9]), min_size=n, max_size=n)))
    zero = rng.random((N, n)) < sparsity
    zero[np.arange(n), np.arange(n)] = False
    heads[zero] = 0.0
    return StepMeasure(n, lam, heads)


# -- reference: structural queries by rescanning every stored entry --------


def _scan_max_abs(spec):
    return max((abs(v) for v in spec.entries.values()), default=0.0)


def _scan_struct_tol(spec):
    return matrices.STRUCT_TOL * max(_scan_max_abs(spec), 1.0)


def scan_row_rightmost(spec, j):
    tol = _scan_struct_tol(spec)
    best = 0
    for (a, b), v in spec.entries.items():
        if abs(v) <= tol:
            continue
        if a == j and b <= spec.n_max:
            best = max(best, b)
        if b == j and a <= spec.n_max:
            best = max(best, a)
    return best


def scan_column_topmost(spec, k):
    tol = _scan_struct_tol(spec)
    best = 0
    for (a, b), v in spec.entries.items():
        if abs(v) <= tol:
            continue
        row = None
        if b == k:
            row = a
        elif a == k:
            row = b
        if row is not None:
            best = row if best == 0 else min(best, row)
    return best


def _scan_row_edge_candidates(spec, column):
    out = []
    for j in range(1, spec.n_max + 1):
        if spec.row_rightmost(j) == column:
            out.append(j)
    return out


def _scan_diag_is_simultaneous_edge(spec, j, k):
    m = 0
    any_checked = False
    while k + m <= spec.n_max:
        r, c = j + m, k + m
        any_checked = True
        if not spec.is_structural_nonzero(r, c):
            return False
        if spec.row_rightmost(r) != c or spec.column_topmost(c) != r:
            return False
        m += 1
    return any_checked


@contextlib.contextmanager
def brute_force_scans():
    """Answer every structural query by a full scan of the stored entries."""
    with mock.patch.multiple(
        MatrixSpec,
        struct_tol=_scan_struct_tol,
        row_rightmost=scan_row_rightmost,
        column_topmost=scan_column_topmost,
    ), mock.patch.multiple(
        matrices,
        _row_edge_candidates=_scan_row_edge_candidates,
        _diag_is_simultaneous_edge=_scan_diag_is_simultaneous_edge,
    ):
        yield


def outcome(fn, *args, **kwargs):
    """Return value of fn(*args, **kwargs), or the type and message of what it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)


def reference_outcome(fn, *args):
    with brute_force_scans():
        return outcome(fn, *args)


#: the largest departure from a reference that a comparison allows, as a
#: share of the scale of the quantity compared
REL_BOUND = 1e-13


def assert_within(got, ref, scale):
    """Same shape, and |got - ref| <= REL_BOUND * scale entrywise (scale broadcasts)."""
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    gap = np.abs(got - ref)
    assert np.all(gap <= REL_BOUND * np.asarray(scale)), (float(np.max(gap)), np.max(scale))


def horner_scale(r, t):
    """Per component of r, sum |c_k| |t|^k: the size that bounds Horner's rounding
    at t, by Horner's rule on the magnitudes, so that it overflows to inf as the
    value does."""
    out = []
    for comp in r.comps:
        acc = 0.0
        for c in reversed(comp):
            acc = acc * abs(t) + abs(c)
        out.append(acc)
    return np.array(out)


# -- reference: the step measure's moments and jumps, point by point -------


def points(mu):
    """The (lambda, C) pairs of a measure, in its order, each lambda a Python float."""
    return list(zip(mu.lambdas.tolist(), mu.c))


def reference_evaluate(mu, t):
    """sigma(t) by one loop over the points below t."""
    out = np.zeros((mu.n, mu.n), dtype=complex)
    for lam, c in points(mu):
        if lam < t:
            out += np.outer(c, c.conj())
    return out


def reference_point_weights(mu, f):
    """(C^k)* f(lambda_k), one ``np.vdot`` per point."""
    return np.array([np.vdot(c, f.evaluate(lam)) for lam, c in points(mu)])


def reference_moment(mu, k):
    """k-th moment by one loop over the points for this order alone."""
    out = np.zeros((mu.n, mu.n), dtype=complex)
    for lam, c in points(mu):
        out += (lam**k) * np.outer(c, c.conj())
    return out


def reference_grouped_jumps(mu, cluster_tol=CLUSTER_TOL):
    """(location, jump) per cluster by one loop over the points."""
    groups = []
    for lam, c in points(mu):
        if groups and abs(lam - groups[-1][0][-1]) <= cluster_tol * (1.0 + abs(lam)):
            groups[-1][0].append(lam)
            groups[-1][1].append(c)
        else:
            groups.append(([lam], [c]))
    out = []
    for lams, cs in groups:
        jump = np.zeros((mu.n, mu.n), dtype=complex)
        for c in cs:
            jump += np.outer(c, c.conj())
        out.append((float(np.mean(lams)), jump))
    return out


def reference_compare_measures(a, b):
    """(max location gap, max jump-matrix gap), one cluster pair at a time."""
    ja = reference_grouped_jumps(a)
    jb = reference_grouped_jumps(b)
    if len(ja) != len(jb):
        return float("inf"), float("inf")
    loc = max(abs(x[0] - y[0]) for x, y in zip(ja, jb))
    mat = max(float(np.max(np.abs(x[1] - y[1]))) for x, y in zip(ja, jb))
    return loc, mat


# -- reference: the inverse sweep on VectorPolynomial arithmetic ------------


def reference_weight_row(mu, k):
    i, l = leading_slot(k - 1, mu.n)
    return np.array([(lam**l) * np.conj(c[i - 1]) for lam, c in points(mu)])


def block_pass(w, emitted_w):
    """One classical Gram-Schmidt pass: every multiplier is taken from the same w."""
    basis = np.array(emitted_w).reshape(len(emitted_w), w.size)
    cs = (basis @ w.conj()).conj()
    return w - cs @ basis, cs


def reference_orthonormalize(mu, max_k, zero_tol=ZERO_NORM_TOL):
    """The sweep with every residual carried as a VectorPolynomial, reduced by
    two ``block_pass``es."""
    n = mu.n
    if max_k < n:
        raise ValueError(f"max_k={max_k} is below the measure's order n={n}")
    eig = np.linalg.eigvalsh(reference_moment(mu, 0))
    if eig[0] <= 1e-12 * max(eig[-1], 1.0):
        raise SingularZerothMoment(
            f"zeroth moment has eigenvalue {eig[0]:.3e}; cannot start"
        )
    emitted_w, emitted_poly, p_heights = [], [], []
    q_heights, skip_log = [], []
    k = 0
    while len(q_heights) < n:
        k += 1
        h = k - 1
        if any((h - hq) > 0 and (h - hq) % n == 0 for hq in q_heights):
            skip_log.append(k)
            continue
        w = reference_weight_row(mu, k)
        e_norm = float(np.linalg.norm(w))
        poly = canonical_e(k, n)
        for _ in range(2):
            w, cs = block_pass(w, emitted_w)
            for pi, c in zip(emitted_poly, cs):
                if c != 0:
                    poly = poly - pi * c
        norm = float(np.linalg.norm(w))
        if norm <= zero_tol * max(e_norm, 1e-300):
            if h < n:
                raise SingularZerothMoment(f"degeneration at height {h} < n={n}; T~ is singular")
            q_heights.append(h)
        elif len(emitted_poly) < min(max_k, mu.size):
            emitted_w.append(w / norm)
            emitted_poly.append(poly * (1.0 / norm))
            p_heights.append(h)
        else:
            break
    t_mat = np.zeros((n, n), dtype=complex)
    for j in range(n):
        for i in range(n):
            comp = emitted_poly[j].comps[i]
            t_mat[i, j] = comp[0] if comp else 0.0
    return OrthoResult(
        t_tilde=BoundaryMatrix(n, t_mat),
        skip_log=tuple(skip_log),
        q_heights=tuple(q_heights),
        p_heights=tuple(p_heights),
        rank_exhausted=len(emitted_poly) < max_k,
        weights=np.array(emitted_w),
        lambdas=mu.lambdas,
    )


# -- reference: the direct side, one point and one height at a time --------


def reference_psi_at(m, s, t, z):
    """Psi(z) at one point by the row recursion."""
    N, n = s.N, s.n
    data = m.data
    psi = np.zeros((N, n), dtype=complex)
    psi[:n, :] = t.t.conj().T
    for c in sorted(s.pivot):
        r = s.pivot[c]
        edge = data[r - 1, c - 1]
        if abs(edge) == 0.0:
            raise PivotViolation(f"zero edge entry at ({r},{c})")
        acc = z * psi[r - 1, :].copy()
        row = data[r - 1, : c - 1]
        acc -= row @ psi[: c - 1, :]
        psi[c - 1, :] = acc / edge
    return psi


def reference_build_p(m, s, t):
    """The p_k by VectorPolynomial arithmetic, one operation per matrix entry."""
    n = s.n
    data = m.data
    p = []
    for k in range(1, n + 1):
        p.append(VectorPolynomial.from_components([[v] for v in t.t[:, k - 1].tolist()], n))
    for c in sorted(s.pivot):
        r = s.pivot[c]
        edge = data[r - 1, c - 1]
        if abs(edge) == 0.0:
            raise PivotViolation(f"zero edge entry at ({r},{c})")
        acc = p[r - 1].z_mul()
        for i in range(1, c):
            coeff = data[r - 1, i - 1]
            if coeff != 0:
                acc = acc - p[i - 1] * coeff.conjugate()
        p.append(acc * (1.0 / edge.conjugate()))
    return p


def reference_build_q(m, s, t, p):
    """The q_j by VectorPolynomial arithmetic, one operation per matrix entry."""
    if len(p) != s.N:
        raise DimensionMismatch("expected one p polynomial per truncation row")
    data = m.data
    q = []
    for k in s.K:
        acc = VectorPolynomial.zero(s.n)
        for i in range(1, s.N + 1):
            coeff = data[k - 1, i - 1]
            if coeff != 0:
                acc = acc + p[i - 1] * coeff.conjugate()
        acc = acc - p[k - 1].z_mul()
        q.append(acc)
    return q


def reference_theta_at(m, s, t, z):
    psi = reference_psi_at(m, s, t, z)
    rows = np.array(s.K) - 1
    mat = m.data[rows, :] @ psi
    mat -= z * psi[rows, :]
    return mat


def reference_det_theta(m, s, t, z):
    return complex(np.linalg.det(reference_theta_at(m, s, t, z)))


def reference_det_theta_polynomial(m, s, t):
    """det Theta interpolated from one determinant per Chebyshev node."""
    sd = reference_eigen_decompose(m)
    lo, hi = float(sd.lambdas[0]), float(sd.lambdas[-1])
    pad = 0.25 * max(hi - lo, 1.0)
    lo, hi = lo - pad, hi + pad
    N = s.N
    k = np.arange(N + 1)
    nodes = np.cos((2 * k + 1) * np.pi / (2 * (N + 1)))
    nodes = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
    vals = np.array([reference_det_theta(m, s, t, z) for z in nodes])
    if np.max(np.abs(vals.imag)) <= 1e-9 * max(1.0, np.max(np.abs(vals))):
        vals = vals.real
    return np.polynomial.chebyshev.Chebyshev.fit(nodes, vals, deg=N, domain=[lo, hi])


def reference_eigen_decompose(m):
    """eigh, then the phase of each eigencolumn fixed in a loop over the columns."""
    defect = m.hermiticity_defect()
    scale = max(1.0, float(np.max(np.abs(m.data))))
    if defect > 1e-9 * scale:
        raise NumericalFailure(f"matrix is not Hermitian (defect {defect:.3e})")
    lams, phi = np.linalg.eigh(m.data)
    phi = np.asarray(phi, dtype=complex)
    for k in range(phi.shape[1]):
        col = phi[:, k]
        idx = np.argmax(np.abs(col) > 1e-8 * np.max(np.abs(col)))
        pivot_val = col[idx]
        if abs(pivot_val) > 0:
            phi[:, k] = col * (abs(pivot_val) / pivot_val)
    sd = SpectralData(np.asarray(lams, dtype=float), phi)
    if sd.unitarity_defect() > 1e-10 * max(1, m.N):
        raise NumericalFailure("eigenvector matrix lost unitarity")
    return sd


def reference_c_vectors(sd, t):
    """The C-vectors as a list, each head's phase and each norm taken in a loop over k."""
    t.require_invertible()
    n = t.n
    phi0 = sd.phi[:n, :].copy()
    for k in range(phi0.shape[1]):
        head = phi0[:, k]
        mags = np.abs(head)
        if np.max(mags) == 0.0:
            raise NumericalFailure(f"eigenvector {k} has a vanishing head")
        idx = np.argmax(mags > 1e-8 * np.max(mags))
        head *= abs(head[idx]) / head[idx]
    cs = np.linalg.solve(t.t.conj().T, phi0)
    out = []
    for k in range(cs.shape[1]):
        c = cs[:, k]
        if np.linalg.norm(c) <= 1e-13:
            raise NumericalFailure(f"C-vector {k} vanished")
        out.append(c)
    return out


def _reference_eigen_rows(m, s, t, sd):
    cs = reference_c_vectors(sd, t)
    return [(lam, reference_psi_at(m, s, t, lam) @ c) for lam, c in zip(sd.lambdas, cs)]


def reference_gram_matrix(m, s, t, sd):
    gram = np.zeros((s.N, s.N), dtype=complex)
    for _, u in _reference_eigen_rows(m, s, t, sd):
        gram += np.outer(u, u.conj())
    return gram


def reference_multiplication_matrix(m, s, t, sd):
    out = np.zeros((s.N, s.N), dtype=complex)
    for lam, u in _reference_eigen_rows(m, s, t, sd):
        out += lam * np.outer(u, u.conj())
    return out


def reference_q_norms_sq(m, s, t, sd):
    n = s.n
    rows = np.array(s.K) - 1
    norms = np.zeros(n)
    scales = np.zeros(n)
    for lam, u in _reference_eigen_rows(m, s, t, sd):
        v = m.data[rows, :] @ u - lam * u[rows]
        norms += np.abs(v) ** 2
        shifted = m.data[rows, :].copy()
        shifted[np.arange(n), rows] -= lam
        scales += (np.linalg.norm(shifted, axis=1) * np.linalg.norm(u)) ** 2
    return norms, scales


def reference_is_solution(r, data, tol=1e-8):
    """The annihilation test one node at a time.  The first node whose value,
    residual or bound is not finite raises, whatever the nodes before it decide."""
    if r.n != data.n:
        raise DimensionMismatch("polynomial dimension does not match the data")
    solved = True
    for mu, c in points(data):
        with np.errstate(over="ignore", invalid="ignore"):
            val = r.evaluate(mu)
            resid = abs(np.vdot(c, val))
            bound = tol * (1.0 + np.linalg.norm(c) * np.linalg.norm(val))
        for what, x in (("r(lambda)", val), ("the residual C* r(lambda)", resid),
                        ("the bound tol (1 + |C| |r(lambda)|)", bound)):
            if not np.isfinite(x).all():
                raise FloatingPointError(f"{what} at node lambda = {mu!r} is not finite")
        solved = solved and not resid > bound
    return solved


def reference_dumps(obj):
    """JSON text as the CLI wrote it before ``serialize.dumps``."""
    return json.dumps(obj, indent=2)


def pairs_as_lists(obj):
    """obj with the ``complex_pairs`` lists of each ``serialize.Pairs`` in its place."""
    if isinstance(obj, serialize.Pairs):
        return serialize.complex_pairs(obj.array)
    if isinstance(obj, dict):
        return {k: pairs_as_lists(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [pairs_as_lists(v) for v in obj]
    return obj


def _reference_trim(coeffs):
    last = len(coeffs)
    while last > 0 and abs(coeffs[last - 1]) <= 0.0:
        last -= 1
    return tuple(complex(c) for c in coeffs[:last])


def reference_from_coeff_vector(coords, n):
    """Vector polynomial of canonical coordinates, one coefficient at a time."""
    comps = [[] for _ in range(n)]
    for m, c in enumerate(coords):
        i, k = leading_slot(m, n)
        comp = comps[i - 1]
        while len(comp) <= k:
            comp.append(0j)
        comp[k] = complex(c)
    return VectorPolynomial.from_components([_reference_trim(c) for c in comps], n)


# -- reference: the generator with one scalar draw per uniform --------------


def _reference_assign_pivots(profile, tail, rng):
    """Injection columns (n, k0) -> rows [1, j0) with r(c) < c."""
    n = profile.n
    j0, k0 = tail
    columns = list(range(n + 1, k0))
    rows_pool = list(range(1, j0))
    if len(columns) > len(rows_pool):
        raise InconsistentProfile("not enough rows before the tail to pivot every column")
    if profile.mtilde:
        rows = sorted(rng.choice(rows_pool, size=len(columns), replace=False).tolist())
        assignment = dict(zip(columns, rows))
    else:
        assignment = {}
        used = set()
        for c in columns:
            options = [r for r in rows_pool if r not in used and r < c]
            r = int(options[rng.integers(0, len(options))])
            assignment[c] = r
            used.add(r)
    # avoid an accidental simultaneous-edge diagonal gluing onto the tail
    if columns and assignment[k0 - 1] == j0 - 1 and len(rows_pool) > len(columns):
        spare = max(r for r in rows_pool if r not in assignment.values())
        if profile.mtilde:
            # replace the largest row and renumber increasingly
            rows = sorted(set(assignment.values()) - {j0 - 1} | {spare})
            assignment = dict(zip(columns, rows))
        else:
            assignment[k0 - 1] = spare
    degens = sorted(set(rows_pool) - set(assignment.values()))
    return assignment, degens


def _reference_sample_value(rng, complex_entries, lo=0.0, hi=1.0):
    mag = rng.uniform(lo, hi)
    if complex_entries:
        phase = np.exp(2j * np.pi * rng.uniform())
        return mag * phase
    return mag * (1.0 if rng.uniform() < 0.5 else -1.0)


def reference_generate_random(profile: GenProfile, seed: int) -> MatrixSpec:
    """Deterministic random instance passing the class validator.

    Edge entries are sampled with magnitude in [0.5, 1.5]; interior entries
    stay within the support allowed by the declared structure, so the
    result always validates (for "mtilde" when the profile forces it).
    """
    rng = np.random.default_rng(seed)
    n, n_max = profile.n, profile.n_max
    if n < 1 or n_max < n + 1:
        raise InconsistentProfile("need n >= 1 and declared size > n")
    tail = tuple(profile.tail) if profile.tail is not None else matrices._random_tail(profile, rng)
    j0, k0 = tail
    t = k0 - j0
    if not 1 <= t <= n:
        raise InconsistentProfile("tail offset must lie in 1..n")
    if k0 < n + 1:
        raise InconsistentProfile("tail must start beyond the boundary columns")
    if k0 > n_max + 1:
        raise InconsistentProfile("tail must start by column N_max + 1")
    assignment, degens = _reference_assign_pivots(profile, tail, rng)
    pivot = dict(assignment)
    for c in range(max(k0, n + 1), n_max + 1):
        pivot[c] = c - t

    edge_col = {r: c for c, r in pivot.items()}

    def allowed(j, k):
        e = edge_col.get(j)
        if e is not None and k > e:
            return False
        if k >= k0:
            if j < k - t:
                return False
        elif profile.mtilde and k in pivot and j < pivot[k]:
            return False
        return True

    entries = {}
    for c, r in pivot.items():
        if c <= n_max:
            entries[(r, c)] = _reference_sample_value(rng, profile.complex_entries, 0.5, 1.5)
    for j in range(1, n_max + 1):
        for k in range(j, n_max + 1):
            if (j, k) in entries or not allowed(j, k):
                continue
            if rng.uniform() > 0.9:
                continue
            if j == k:
                entries[(j, k)] = complex(rng.uniform(-1.0, 1.0))
            else:
                entries[(j, k)] = _reference_sample_value(rng, profile.complex_entries, 0.05, 1.0)
    for j in degens:
        anchor = max((k for k in range(j, n_max + 1) if allowed(j, k)), default=None)
        if anchor is not None and anchor > j:
            entries[(j, anchor)] = _reference_sample_value(rng, profile.complex_entries, 0.5, 1.5)
    return MatrixSpec(n, n_max, entries, pivot, tail, None)

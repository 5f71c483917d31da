"""Shared fixtures: the three reference instances and instance generators.

FLIP2  2x2 exchange matrix, n=1.
JAC5   free Jacobi matrix (zero diagonal, unit off-diagonal), n=1, N=5.
FIX7   the 7x7 matrix with n=3, pivots 4->1, 5->4, 6->2, 7->6 and
       unpivoted rows {3,5,7}; interior values chosen generically so no
       accidental cancellations occur.  Variants zero the entries (2,5)
       and/or (3,5), which toggles the height pattern of the q system.

``brute_force_scans`` swaps MatrixSpec's structural index for the original
per-query scans over every stored entry, as a reference for equivalence tests.
``reference_orthonormalize`` and ``reference_moment`` are the original
inverse sweep on VectorPolynomial arithmetic and the original per-order
moment loop, the references of the array-based sweep and moments.
``reference_psi_at`` and the functions after it are the original direct
side, which evaluated Psi one point at a time and rebuilt the interpolation
constraints entry by entry at every height.
"""

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import strategies as st

from specband import BoundaryMatrix, GenProfile, MatrixSpec, StepMeasure, generate_random
from specband import matrices
from specband.errors import PivotViolation, SingularZerothMoment
from specband.interpolation import LSTSQ_RCOND, expected_kernel_dimension
from specband.reconstruct import ZERO_NORM_TOL, OrthoResult
from specband.spectral import c_vectors, eigen_decompose
from specband.vectorpoly import MINUS_INF, canonical_e, height, leading_slot


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


def gue_measure(seed, n, N):
    """Step measure (T = I) of a random N x N GUE matrix."""
    rng = np.random.default_rng([seed, n, N])
    a = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
    lam, phi = np.linalg.eigh(0.5 * (a + a.conj().T))
    return StepMeasure(n, tuple((float(x), phi[:n, k]) for k, x in enumerate(lam)))


@st.composite
def awkward_measures(draw):
    """Step measures with clustered points and rank-deficient heads.

    Points sit on a few centres, exactly or 1e-12 apart; heads may lie in a
    subspace of C^n (singular S_0) or have zero components at many points,
    which forces early degenerations and long lattice-skip runs.
    """
    n = draw(st.integers(1, 3))
    N = draw(st.integers(n, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centres = rng.normal(size=draw(st.integers(1, N))) * draw(st.sampled_from([1e-2, 1.0, 30.0]))
    jitter = draw(st.sampled_from([0.0, 1e-12]))
    lam = np.sort(rng.choice(centres, N) + jitter * rng.normal(size=N))
    heads = rng.normal(size=(N, n)) + 1j * rng.normal(size=(N, n))
    rank = draw(st.integers(1, n))
    heads = heads[:, :rank] @ (rng.normal(size=(rank, n)) + 0j)
    # per slot, the share of points whose head component is zero
    sparsity = np.array(draw(st.lists(st.sampled_from([0.0, 0.5, 0.9]), min_size=n, max_size=n)))
    heads[rng.random((N, n)) < sparsity] = 0.0
    return StepMeasure(n, tuple((float(x), c) for x, c in zip(lam, heads)))


# -- reference: structural queries by rescanning every stored entry --------


def _scan_max_abs(spec):
    return max((abs(v) for v in spec.entries.values()), default=0.0)


def _scan_struct_tol(spec):
    return matrices.STRUCT_TOL * max(_scan_max_abs(spec), 1.0)


def scan_row_rightmost(spec, j, upto=None):
    upto = spec.n_max if upto is None else upto
    tol = _scan_struct_tol(spec)
    best = 0
    for (a, b), v in spec.entries.items():
        if abs(v) <= tol:
            continue
        if a == j and b <= upto:
            best = max(best, b)
        if b == j and a <= upto:
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
        max_abs=_scan_max_abs,
        struct_tol=_scan_struct_tol,
        row_rightmost=scan_row_rightmost,
        column_topmost=scan_column_topmost,
    ), mock.patch.multiple(
        matrices,
        _row_edge_candidates=_scan_row_edge_candidates,
        _diag_is_simultaneous_edge=_scan_diag_is_simultaneous_edge,
    ):
        yield


def outcome(fn, *args):
    """Return value of fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)


def reference_outcome(fn, *args):
    with brute_force_scans():
        return outcome(fn, *args)


# -- reference: the inverse sweep on VectorPolynomial arithmetic ------------


def reference_moment(mu, k):
    """k-th moment by one loop over the points for this order alone."""
    out = np.zeros((mu.n, mu.n), dtype=complex)
    for lam, c in mu.points:
        out += (lam**k) * np.outer(c, c.conj())
    return out


def reference_weight_row(mu, k):
    i, l = leading_slot(k - 1, mu.n)
    return np.array([(lam**l) * np.conj(c[i - 1]) for lam, c in mu.points])


def _reference_residual(mu, k, emitted_w, emitted_poly):
    w = reference_weight_row(mu, k)
    e_norm = float(np.linalg.norm(w))
    poly = canonical_e(k, mu.n)
    for _ in range(2):
        for wi, pi in zip(emitted_w, emitted_poly):
            c = complex(np.vdot(wi, w))
            if c != 0:
                w = w - c * wi
                poly = poly - pi * c
    return w, poly, e_norm


def reference_orthonormalize(mu, max_k, check_skips=False, zero_tol=ZERO_NORM_TOL):
    """The sweep with every residual carried as a VectorPolynomial."""
    n = mu.n
    eig = np.linalg.eigvalsh(reference_moment(mu, 0))
    if eig[0] <= 1e-12 * max(eig[-1], 1.0):
        raise SingularZerothMoment(
            f"zeroth moment has eigenvalue {eig[0]:.3e}; cannot start"
        )
    emitted_w, emitted_poly = [], []
    q_tilde, q_heights, skip_log, skip_residuals = [], [], [], []
    k = 0
    while len(q_tilde) < n:
        k += 1
        h = k - 1
        if any((h - hq) > 0 and (h - hq) % n == 0 for hq in q_heights):
            skip_log.append(k)
            if check_skips:
                w, _, e_norm = _reference_residual(mu, k, emitted_w, emitted_poly)
                skip_residuals.append(float(np.linalg.norm(w)) / max(e_norm, 1e-300))
            continue
        w, poly, e_norm = _reference_residual(mu, k, emitted_w, emitted_poly)
        norm = float(np.linalg.norm(w))
        if norm <= zero_tol * max(e_norm, 1e-300):
            q_tilde.append(poly)
            q_heights.append(h)
        elif len(emitted_poly) < min(max_k, mu.size):
            emitted_w.append(w / norm)
            emitted_poly.append(poly * (1.0 / norm))
        else:
            break
    if len(emitted_poly) < n:
        raise SingularZerothMoment("fewer than n orthonormal constants emerged")
    t_mat = np.zeros((n, n), dtype=complex)
    for j in range(n):
        for i in range(n):
            comp = emitted_poly[j].comps[i]
            t_mat[i, j] = comp[0] if comp else 0.0
    return OrthoResult(
        p_tilde=tuple(emitted_poly),
        q_tilde=tuple(q_tilde),
        t_tilde=BoundaryMatrix(n, t_mat),
        skip_log=tuple(skip_log),
        q_heights=tuple(q_heights),
        rank_exhausted=len(emitted_poly) < max_k,
        weights=np.array(emitted_w) if emitted_w else np.zeros((0, mu.size)),
        skip_residuals=tuple(skip_residuals),
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
    sd = eigen_decompose(m)
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


def _reference_eigen_rows(m, s, t, sd):
    cs = c_vectors(sd, t)
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


def reference_constraint_matrix(data, length):
    """Annihilation constraints built entry by entry, powers by ``**``."""
    rows = []
    for mu, c in data.points:
        powers = mu ** np.arange((length + data.n - 1) // data.n)
        row = np.empty(length, dtype=complex)
        for m in range(1, length + 1):
            i, k = leading_slot(m - 1, data.n)
            row[m - 1] = powers[k] * np.conj(c[i - 1])
        rows.append(row)
    return np.array(rows)


def reference_kernel_dimension(data, h):
    if h < 0:
        return 0
    svals = np.linalg.svd(reference_constraint_matrix(data, h + 1), compute_uv=False)
    if svals.size == 0:
        return h + 1
    cutoff = LSTSQ_RCOND * svals[0] if svals[0] > 0 else 0.0
    return h + 1 - int(np.sum(svals > cutoff))


def reference_height_table(q, data):
    """(h, observed, expected) per height, the constraints rebuilt for every h."""
    heights = [height(qj) for qj in q]
    h_max = max((int(h) for h in heights if h != MINUS_INF), default=-1)
    return [
        (h, reference_kernel_dimension(data, h), expected_kernel_dimension(heights, h, data.n))
        for h in range(h_max + 1)
    ]

"""Direct spectral problem for finite truncations.

Given a truncation M_N, a structure (pivot map / unpivoted rows K) and an
upper-triangular invertible boundary matrix T, the N x n solution matrix
Psi(z) of the reduced difference equation is built row by row: its first n
rows equal T*, and each further row is solved from the row equation that
owns the edge entry of the corresponding column.

The associated objects:

  * p_k(z)   = formal-adjoint row k of Psi  (n-dim vector polynomial),
  * Theta(z) = K-rows of (M_N - zI) Psi(z)  (n x n matrix polynomial),
  * q_j(z)   = formal-adjoint row j of Theta,
  * C^k      = (T*)^{-1} (first n entries of eigenvector k),
  * sigma(t) = sum_{lambda_k < t} C^k (C^k)*   (the step spectral function).

"Formal adjoint" means coefficients are conjugated; evaluated at real
points it agrees with the pointwise adjoint, which is the only place the
theory needs it.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NumericalFailure,
    PivotViolation,
    SingularBoundary,
)
from .matrices import FiniteHermitian, StructureInfo
from .vectorpoly import VectorPolynomial

#: relative gap under which neighbouring eigenvalues join one jump
CLUSTER_TOL = 1e-9

#: relative singular-value threshold for the numerical rank of a jump
JUMP_RANK_TOL = 1e-8


@dataclass(frozen=True)
class BoundaryMatrix:
    """Upper-triangular invertible n x n matrix fixing boundary values."""

    n: int
    t: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=complex)
        if t.shape != (self.n, self.n):
            raise DimensionMismatch(f"boundary matrix must be {self.n}x{self.n}")
        if np.max(np.abs(np.tril(t, -1))) > 1e-12 * max(1.0, np.max(np.abs(t))):
            raise ValueError("boundary matrix must be upper triangular")
        object.__setattr__(self, "t", t)

    @classmethod
    def identity(cls, n):
        return cls(n, np.eye(n, dtype=complex))

    def min_diag(self):
        return float(np.min(np.abs(np.diag(self.t))))

    def require_invertible(self):
        if self.min_diag() <= 1e-12 * max(1.0, float(np.max(np.abs(self.t)))):
            raise SingularBoundary("boundary matrix has a (near-)zero diagonal entry")


@dataclass(frozen=True)
class SpectralData:
    """Eigenvalues (ascending, multiplicity repeated) and eigenvector columns."""

    lambdas: np.ndarray
    phi: np.ndarray

    @property
    def N(self):
        return len(self.lambdas)

    def unitarity_defect(self):
        N = self.N
        return float(np.max(np.abs(self.phi @ self.phi.conj().T - np.eye(N))))


@dataclass(frozen=True)
class StepMeasure:
    """Matrix-valued nondecreasing step function as growth points with vectors.

    One summand C^k (C^k)* per eigenvalue-with-multiplicity; jumps at equal
    (clustered) locations may be grouped on demand.  sigma is
    left-continuous: sigma(t) sums the jumps strictly below t.

    ``points`` is the one stored form.  Array views for vectorised callers
    (``spectral_arrays``, ``moments_upto``) are built per call and never
    cached, so they cannot fall out of step with it.
    """

    n: int
    points: tuple  # ((lambda, C-vector), ...) ascending in lambda

    def __post_init__(self):
        pts = tuple(
            (float(lam), np.asarray(c, dtype=complex).reshape(self.n))
            for lam, c in self.points
        )
        object.__setattr__(self, "points", pts)

    @property
    def size(self):
        return len(self.points)

    def lambdas(self):
        return np.array([lam for lam, _ in self.points])

    def evaluate(self, t):
        """sigma(t): sum of jumps at growth points strictly below t."""
        out = np.zeros((self.n, self.n), dtype=complex)
        for lam, c in self.points:
            if lam < t:
                out += np.outer(c, c.conj())
        return out

    def spectral_arrays(self):
        """The lambda vector and the (N, n) block of conj(C^k), a row per point."""
        conj_c = np.array([c for _, c in self.points], dtype=complex).conj()
        return self.lambdas(), conj_c.reshape(self.size, self.n)

    def moments_upto(self, K):
        """Moments S_0..S_K as a (K+1, n, n) array, in one pass over the points.

        S_k is the sum of lambda^k C C* over the growth points, added point
        by point in order.  ``np.float_power`` gives the same powers as
        Python's ``float ** int``; an overflowing power raises
        ``FloatingPointError`` rather than turning into inf.
        """
        with np.errstate(over="raise"):
            powers = np.float_power(self.lambdas()[:, None], np.arange(K + 1))
        out = np.zeros((K + 1, self.n, self.n), dtype=complex)
        for pw, (_, c) in zip(powers, self.points):
            out += pw[:, None, None] * np.outer(c, c.conj())
        return out

    def moment(self, k):
        """k-th moment: sum of lambda^k C C* over all growth points."""
        if k < 0:
            raise ValueError("moment order must be nonnegative")
        return self.moments_upto(k)[k]

    def total_mass(self):
        return self.moment(0)

    def grouped_jumps(self, cluster_tol=CLUSTER_TOL):
        """Cluster equal growth points; returns (location, jump matrix, rank)."""
        groups = []
        for lam, c in self.points:
            if groups and abs(lam - groups[-1][0][-1]) <= cluster_tol * (1.0 + abs(lam)):
                groups[-1][0].append(lam)
                groups[-1][1].append(c)
            else:
                groups.append(([lam], [c]))
        out = []
        for lams, cs in groups:
            jump = np.zeros((self.n, self.n), dtype=complex)
            for c in cs:
                jump += np.outer(c, c.conj())
            out.append((float(np.mean(lams)), jump, jump_rank(jump)))
        return out

    def weight_row(self, f: VectorPolynomial):
        """Spectral coordinates of f: the scalar (C^k)* f(lambda_k) per point."""
        if f.n != self.n:
            raise DimensionMismatch("polynomial dimension does not match the measure")
        return np.array([np.vdot(c, f.evaluate(lam)) for lam, c in self.points])


def canonical_coordinates(lam, conj_c, m) -> np.ndarray:
    """(C^p)* e_{m+1}(lambda_p), a row per point p, for a 0-based index m.

    ``lam`` and ``conj_c`` are a measure's ``spectral_arrays()``; for an
    array of indices the result has a column per index.  Unlike ``**`` on
    arrays, ``np.float_power`` gives Python's ``float ** int`` bit for bit;
    an overflowing power raises ``FloatingPointError``.
    """
    n = conj_c.shape[1]
    with np.errstate(over="raise"):
        power = np.float_power.outer(lam, m // n)
    return power * conj_c[:, m % n]


def jump_rank(jump, tol=JUMP_RANK_TOL):
    """Numerical rank of a jump matrix via its singular values."""
    svals = np.linalg.svd(jump, compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        return 0
    return int(np.sum(svals > tol * svals[0]))


def eigen_decompose(m: FiniteHermitian) -> SpectralData:
    """Hermitian eigendecomposition with a deterministic column phase.

    Eigenvalues come out ascending with multiplicity; each eigenvector is
    rotated so its first significant entry is real positive.
    """
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


def _recursion_order(s: StructureInfo):
    """Columns n+1..N paired with the row that solves them, ascending."""
    return [(c, s.pivot[c]) for c in sorted(s.pivot)]


def psi_at(m: FiniteHermitian, s: StructureInfo, t: BoundaryMatrix, z) -> np.ndarray:
    """Numeric N x n solution matrix Psi(z) of the reduced equation.

    ``z`` is a point or a 1-D array of points; for an array the matrices are
    stacked, shape (len(z), N, n), and the recursion runs once over all of
    them.  Row-by-row forward recursion; evaluating at points rather than
    via stored coefficients keeps the computation stable at spectrum points.
    """
    z = np.asarray(z)
    N, n = s.N, s.n
    data = m.data
    psi = np.zeros(z.shape + (N, n), dtype=complex)
    psi[..., :n, :] = t.t.conj().T
    for c, r in _recursion_order(s):
        edge = data[r - 1, c - 1]
        if abs(edge) == 0.0:
            raise PivotViolation(f"zero edge entry at ({r},{c})")
        acc = z[..., None] * psi[..., r - 1, :]
        acc -= data[r - 1, : c - 1] @ psi[..., : c - 1, :]
        psi[..., c - 1, :] = acc / edge
    return psi


def theta_at(m: FiniteHermitian, s: StructureInfo, t: BoundaryMatrix, z) -> np.ndarray:
    """Numeric n x n matrix Theta(z): the K rows of (M_N - zI) Psi(z), stacked like psi_at."""
    psi = psi_at(m, s, t, z)
    rows = np.array(s.K) - 1
    mat = m.data[rows, :] @ psi
    mat -= np.asarray(z)[..., None, None] * psi[..., rows, :]
    return mat


def det_theta(m: FiniteHermitian, s: StructureInfo, t: BoundaryMatrix, z) -> complex:
    """det Theta(z); its zeros are exactly the eigenvalues of the truncation."""
    return complex(np.linalg.det(theta_at(m, s, t, z)))


def det_theta_polynomial(m: FiniteHermitian, s: StructureInfo, t: BoundaryMatrix):
    """Degree-N interpolant of det Theta on Chebyshev nodes over the spectrum.

    Returns a ``numpy.polynomial.chebyshev.Chebyshev`` instance; use its
    ``roots()`` for the spectrum cross-check.
    """
    sd = eigen_decompose(m)
    lo, hi = float(sd.lambdas[0]), float(sd.lambdas[-1])
    pad = 0.25 * max(hi - lo, 1.0)
    lo, hi = lo - pad, hi + pad
    N = s.N
    k = np.arange(N + 1)
    nodes = np.cos((2 * k + 1) * np.pi / (2 * (N + 1)))
    nodes = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
    vals = np.linalg.det(theta_at(m, s, t, nodes))
    if np.max(np.abs(vals.imag)) <= 1e-9 * max(1.0, np.max(np.abs(vals))):
        vals = vals.real
    return np.polynomial.chebyshev.Chebyshev.fit(nodes, vals, deg=N, domain=[lo, hi])


def build_p(m: FiniteHermitian, s: StructureInfo, t: BoundaryMatrix):
    """The N vector polynomials p_k as formal-adjoint rows of Psi.

    For k <= n these are the constant columns of the boundary matrix; each
    further p_c is solved from the row equation owning the edge of column
    c, with conjugated matrix entries (formal adjoint of the numeric
    recursion).
    """
    N, n = s.N, s.n
    data = m.data
    p = []
    for k in range(1, n + 1):
        p.append(VectorPolynomial.from_components([[t.t[i, k - 1]] for i in range(n)], n))
    for c, r in _recursion_order(s):
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


def build_q(m: FiniteHermitian, s: StructureInfo, t: BoundaryMatrix, p):
    """The n degeneration polynomials q_j from the K-row equations.

    q_j = sum_i conj(m_{k,i}) p_i - z p_k where k is the j-th element of K.
    """
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


def c_vectors(sd: SpectralData, t: BoundaryMatrix):
    """Boundary-reduced eigenvector heads: solve T* C = (first n rows of phi).

    The phase of each eigencolumn is re-fixed so the first significant
    entry of its head is real positive; everything downstream only depends
    on C C*.
    """
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


def step_measure(sd: SpectralData, t: BoundaryMatrix) -> StepMeasure:
    """Step spectral function of the truncation for the given boundary matrix."""
    cs = c_vectors(sd, t)
    return StepMeasure(t.n, tuple((lam, c) for lam, c in zip(sd.lambdas, cs)))


def inner_product(f: VectorPolynomial, g: VectorPolynomial, mu: StepMeasure) -> complex:
    """L2(R, sigma) inner product  sum_k f(l_k)* C^k (C^k)* g(l_k)."""
    wf = mu.weight_row(f)
    wg = mu.weight_row(g)
    return complex(np.vdot(wf, wg))


def norm_sq(f: VectorPolynomial, mu: StepMeasure) -> float:
    w = mu.weight_row(f)
    return float(np.real(np.vdot(w, w)))


def completeness_defect(mu: StepMeasure, t: BoundaryMatrix) -> float:
    """Deviation of T* (sum C C*) T from the identity."""
    total = mu.total_mass()
    return float(np.max(np.abs(t.t.conj().T @ total @ t.t - np.eye(t.n))))


def _eigen_rows(m: FiniteHermitian, s: StructureInfo, t: BoundaryMatrix,
                sd: SpectralData = None):
    """The eigenvalues lambda_k and the rows u_k = Psi(lambda_k) C^k.

    Each u_k is its own matrix-vector product, rounded as a loop over k
    would round it."""
    if sd is None:
        sd = eigen_decompose(m)
    cs = np.array(c_vectors(sd, t))
    psi = psi_at(m, s, t, sd.lambdas)
    return sd.lambdas, np.matmul(psi, cs[:, :, None])[:, :, 0]


def gram_matrix(m: FiniteHermitian, s: StructureInfo, t: BoundaryMatrix,
                sd: SpectralData = None) -> np.ndarray:
    """Gram matrix of {p_k} under the step measure, from Psi at the eigenvalues.

    Evaluates Psi at each eigenvalue instead of expanding polynomial
    coefficients, which stays accurate for truncations around N = 20.
    """
    _, us = _eigen_rows(m, s, t, sd)
    gram = np.zeros((s.N, s.N), dtype=complex)
    for u in us:
        gram += np.outer(u, u.conj())
    return gram


def multiplication_matrix(m: FiniteHermitian, s: StructureInfo, t: BoundaryMatrix,
                          sd: SpectralData = None) -> np.ndarray:
    """Matrix elements <p_i, t * p_j> under the step measure, from Psi at the eigenvalues."""
    lams, us = _eigen_rows(m, s, t, sd)
    out = np.zeros((s.N, s.N), dtype=complex)
    for lam, u in zip(lams, us):
        out += lam * np.outer(u, u.conj())
    return out


def q_norms_sq(m: FiniteHermitian, s: StructureInfo, t: BoundaryMatrix,
               sd: SpectralData = None):
    """Squared measure norms of the q_j, plus the natural magnitude scale.

    Returns (norms_sq, scales_sq).  The j-th norm is sum_k |Theta(l_k) C^k|_j^2,
    which the theory says is exactly zero; scales_sq[j] is the size the same
    sum would have without the cancellation inside (M - l I)_K Psi(l) C, i.e.
    the K-row magnitudes of (M - l I) times the recovered eigenvector norms.
    """
    lams, us = _eigen_rows(m, s, t, sd)
    n = s.n
    rows = np.array(s.K) - 1
    k_rows = m.data[rows, :]
    norms = np.zeros(n)
    scales = np.zeros(n)
    for lam, u in zip(lams, us):
        v = k_rows @ u - lam * u[rows]
        norms += np.abs(v) ** 2
        shifted = k_rows.copy()
        shifted[np.arange(n), rows] -= lam
        scales += (np.linalg.norm(shifted, axis=1) * np.linalg.norm(u)) ** 2
    return norms, scales

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

The direct checks ``gram_matrix``, ``multiplication_matrix``, ``q_norms_sq``
and ``det_theta_polynomial`` read one ``DirectPass`` per truncation: its
eigen data, C and one Psi recursion over the eigenvalues and the det Theta
nodes.  ``direct_pass`` keeps the last pass and hands it out again while m, s
and t are the same objects, so a sequence of checks on one truncation runs
``eigh`` and ``psi_at`` once each.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    NumericalFailure,
    PivotViolation,
    SingularBoundary,
)
from .matrices import FiniteHermitian, StructureInfo
from .vectorpoly import VectorPolynomial, from_coeff_rows

#: relative gap under which neighbouring eigenvalues join one jump
CLUSTER_TOL = 1e-9

#: relative singular-value threshold for the numerical rank of a jump
JUMP_RANK_TOL = 1e-8


@dataclass(frozen=True)
class BoundaryMatrix:
    """Upper-triangular invertible n x n matrix fixing boundary values.

    ``t`` is a read-only complex copy of the upper triangle of the array
    given: the noise that the check allows below the diagonal is dropped.
    """

    n: int
    t: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"boundary order n must be >= 1, got {self.n}")
        t = np.array(self.t, dtype=complex)
        if t.shape != (self.n, self.n):
            raise DimensionMismatch(f"boundary matrix must be {self.n}x{self.n}")
        if not np.isfinite(t).all():
            raise ValueError("boundary matrix t must be finite")
        if np.max(np.abs(np.tril(t, -1))) > 1e-12 * max(1.0, np.max(np.abs(t))):
            raise ValueError("boundary matrix must be upper triangular")
        t = np.triu(t)
        t.flags.writeable = False
        object.__setattr__(self, "t", t)

    @classmethod
    def identity(cls, n):
        return cls(n, np.eye(n, dtype=complex))

    def require_invertible(self):
        if np.min(np.abs(np.diag(self.t))) <= 1e-12 * max(1.0, float(np.max(np.abs(self.t)))):
            raise SingularBoundary("boundary matrix has a (near-)zero diagonal entry")


@dataclass(frozen=True)
class SpectralData:
    """Eigenvalues (ascending, multiplicity repeated) and eigenvector columns.

    ``lambdas`` and ``phi`` are read-only copies of the arrays given, so the
    data never changes once made and ``c_vectors`` may keep its result on it.
    ``kept_c`` is that result: (boundary, C) of the last ``c_vectors`` call.
    """

    lambdas: np.ndarray
    phi: np.ndarray
    kept_c: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("lambdas", "phi"):
            a = np.array(getattr(self, name))
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def N(self):
        return len(self.lambdas)

    def unitarity_defect(self):
        N = self.N
        return float(np.max(np.abs(self.phi @ self.phi.conj().T - np.eye(N))))


@dataclass(frozen=True)
class StepMeasure:
    """Matrix-valued nondecreasing step function as growth points with vectors.

    ``lambdas`` holds the N growth points, sorted stably on construction, and
    ``c`` the (N, n) block whose row k is C^k, in C order; both are read-only
    arrays, the one stored form that every reader uses.  One summand
    C^k (C^k)* per eigenvalue-with-multiplicity; ``outer`` stacks them, formed
    once and read by ``evaluate``, ``moments_upto`` (and so ``total_mass``)
    and ``grouped_jumps``.  Jumps at equal (clustered) locations may be
    grouped on demand.  sigma is left-continuous: sigma(t) sums the jumps
    strictly below t.  Its sums (sigma, the moments, the jumps) hold no -0.0.
    """

    n: int
    lambdas: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float).reshape(-1)
        c = np.asarray(self.c, dtype=complex).reshape(lam.size, self.n)
        for name, a in (("lambdas", lam), ("c", c)):
            if not np.isfinite(a).all():
                raise ValueError(f"step measure {name} must be finite")
        order = np.argsort(lam, kind="stable")
        # indexing copies, in C order whatever the layout of the input
        for name, a in (("lambdas", lam[order]), ("c", c[order])):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def size(self):
        return len(self.lambdas)

    @functools.cached_property
    def outer(self):
        """The (N, n, n) block of C^k (C^k)*: formed on first read, then kept
        read-only for every later reader.  An overflowing product raises
        ``FloatingPointError`` and keeps nothing, so every reader raises it."""
        with np.errstate(over="raise"):
            outer = self.c[:, :, None] * self.c.conj()[:, None, :]
        outer.flags.writeable = False
        return outer

    def evaluate(self, t):
        """sigma(t): the sum of C C* over the points strictly below t."""
        return np.add.reduce(self.outer[self.lambdas < t], axis=0, initial=0.0)

    def moments_upto(self, K):
        """Moments S_0..S_K as a (K+1, n, n) array, in one array pass.

        S_k is the sum of lambda^k C C* over the growth points.  Any overflow,
        of a power, of its product with C C* or of the sum, raises
        ``FloatingPointError`` rather than turning into inf.
        """
        if K < 0:
            raise ValueError("moment order must be nonnegative")
        with np.errstate(over="raise"):
            powers = np.vander(self.lambdas, K + 1, increasing=True)
            return np.add.reduce(powers[:, :, None, None] * self.outer[:, None], axis=0,
                                 initial=0.0)

    def moment(self, k):
        """k-th moment: sum of lambda^k C C* over all growth points."""
        return self.moments_upto(k)[k]

    def total_mass(self):
        return self.moment(0)

    def grouped_jumps(self, cluster_tol=CLUSTER_TOL):
        """The jumps of sigma with equal (clustered) growth points grouped.

        Clusters are those of ``cluster_starts``.  Returns a structured array
        with a (location, jump) record per cluster, in order: the fields
        ``"location"`` and ``"jump"`` hold all clusters as arrays, and a
        record unpacks as a pair.  The location is the mean of the cluster's
        lambdas, the jump the sum of its C C*.  ``jump_rank`` gives a jump's
        numerical rank.
        """
        lam, outer = self.lambdas, self.outer
        start = cluster_starts(lam, cluster_tol)
        out = np.empty(start.size, dtype=[("location", float), ("jump", complex, outer.shape[1:])])
        out["location"] = np.add.reduceat(lam, start) / np.add.reduceat(np.ones_like(lam), start)
        out["jump"] = np.add.reduceat(outer, start, axis=0) + 0.0  # a lone -0.0 becomes 0.0
        return out

    def weight_row(self, f: VectorPolynomial):
        """Spectral coordinates of f: the scalar (C^k)* f(lambda_k) per point."""
        if f.n != self.n:
            raise DimensionMismatch("polynomial dimension does not match the measure")
        return np.einsum("ki,ki->k", self.c.conj(), f.evaluate_at(self.lambdas))


def cluster_starts(lam, cluster_tol=CLUSTER_TOL):
    """Index of the first point of each cluster of the ascending ``lam``: a point
    joins its predecessor's when their gap is at most ``cluster_tol * (1 + |lambda|)``."""
    first = np.ones(lam.size, dtype=bool)
    first[1:] = ~(np.abs(np.diff(lam)) <= cluster_tol * (1.0 + np.abs(lam[1:])))
    return np.flatnonzero(first)


def jump_rank(jump):
    """Numerical rank of a jump matrix via its singular values."""
    svals = np.linalg.svd(jump, compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        return 0
    return int(np.sum(svals > JUMP_RANK_TOL * svals[0]))


def eigen_decompose(m: FiniteHermitian) -> SpectralData:
    """Hermitian eigendecomposition with a deterministic column phase.

    Eigenvalues come out ascending with multiplicity; each eigenvector is
    rotated so its first significant entry is real positive.  A unit
    eigenvector always has a nonzero pivot, so every column turns.
    """
    defect = m.hermiticity_defect()
    # a non-finite entry makes the defect inf or NaN, which no comparison below refuses
    if not math.isfinite(defect) and not np.isfinite(m.data).all():
        raise NumericalFailure("matrix data holds a non-finite entry")
    # the scale is at least 1, so a zero defect passes without reading it
    if defect and defect > 1e-9 * max(1.0, float(np.max(np.abs(m.data)))):
        raise NumericalFailure(f"matrix is not Hermitian (defect {defect:.3e})")
    lams, phi = np.linalg.eigh(m.data)
    phi = np.asarray(phi, dtype=complex)
    pivot, _ = _first_significant(phi)
    phi = phi * (np.abs(pivot) / pivot)
    sd = SpectralData(np.asarray(lams, dtype=float), phi)
    if sd.unitarity_defect() > 1e-10 * max(1, m.N):
        raise NumericalFailure("eigenvector matrix lost unitarity")
    return sd


def _first_significant(block):
    """Per column, the first entry with |x| > 1e-8 max |x|, and that max."""
    mags = np.abs(block)
    peak = mags.max(axis=0)
    idx = np.argmax(mags > 1e-8 * peak, axis=0)
    return block[idx, np.arange(block.shape[1])], peak


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
    for c, r in sorted(s.pivot.items()):
        edge = data[r - 1, c - 1]
        if abs(edge) == 0.0:
            raise PivotViolation(f"zero edge entry at ({r},{c})")
        acc = z[..., None] * psi[..., r - 1, :]
        acc -= data[r - 1, : c - 1] @ psi[..., : c - 1, :]
        acc /= edge  # in place: contiguous, where the row of a stack is strided
        psi[..., c - 1, :] = acc
    return psi


def theta_at(m: FiniteHermitian, s: StructureInfo, t: BoundaryMatrix, z) -> np.ndarray:
    """Numeric n x n matrix Theta(z): the K rows of (M_N - zI) Psi(z), stacked like psi_at."""
    return _theta_from_psi(m, s, psi_at(m, s, t, z), z)


def _theta_from_psi(m: FiniteHermitian, s: StructureInfo, psi, z) -> np.ndarray:
    """The K rows of (M_N - zI) Psi(z), from psi_at's output at z."""
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
    ``roots()`` for the spectrum cross-check.  The nodes, their window and
    Theta at them come from the ``DirectPass`` of (m, s, t).
    """
    dp = direct_pass(m, s, t)
    vals = np.linalg.det(dp.theta_nodes)
    if np.max(np.abs(vals.imag)) <= 1e-9 * max(1.0, np.max(np.abs(vals))):
        vals = vals.real
    return np.polynomial.chebyshev.Chebyshev.fit(dp.nodes, vals, deg=s.N, domain=dp.window)


def build_p(m: FiniteHermitian, s: StructureInfo, t: BoundaryMatrix):
    """The N vector polynomials p_k as formal-adjoint rows of Psi.

    Row k of one array is n zeros, then the canonical coefficients of p_k
    (degree <= k - n), so its first w = n(N - n + 1) places are z p_k.  Rows
    k <= n are the boundary matrix's columns as they are; each further p_c
    solves the row equation owning the edge of column c with conjugated
    entries (formal adjoint of the numeric recursion), summed by
    ``_subtract_negated``.

    The edges are checked, in column order, before any row is built.  The
    pivot rows' terms are formed once for all rows: where each row's nonzero
    entries left of its edge lie, the -re and -1j*im parts of their
    conjugates (``_subtract_negated``'s factors), and the real part and 1j
    times the imaginary part of each scale 1/conj(edge).  The loop then only
    gathers the rows that a row equation reads, sums them and stores the
    scaled sum.
    """
    N, n, data = s.N, s.n, m.data
    w = n * (N - n + 1)
    pivots = sorted(s.pivot.items())
    cols = np.array([c for c, _ in pivots], dtype=int) - 1
    rows = np.array([r for _, r in pivots], dtype=int) - 1
    edges = data[rows, cols]
    zero = np.flatnonzero(edges == 0)
    if zero.size:
        c, r = pivots[zero[0]]
        raise PivotViolation(f"zero edge entry at ({r},{c})")
    left = (data[rows] != 0) & (np.arange(N) < cols[:, None])
    owner, at = np.nonzero(left)  # row by row, columns ascending
    conj = data[rows[owner], at].conj()
    neg_re, neg_im = -conj.real[:, None], (-1j * conj.imag)[:, None]
    ends = np.cumsum(left.sum(axis=1)).tolist()
    scale = 1.0 / edges.conj()
    coeffs = np.zeros((N, n + w), dtype=complex)
    coeffs[:n, n : 2 * n] = t.t.T
    lo = 0
    for c, r, hi, sr, si in zip(cols.tolist(), rows.tolist(), ends,
                                scale.real.tolist(), (1j * scale.imag).tolist()):
        acc = _subtract_negated(coeffs[r, :w], neg_re[lo:hi], neg_im[lo:hi], coeffs[at[lo:hi], n:])
        coeffs[c, n:] = acc * sr + acc * si
        lo = hi
    return from_coeff_rows(coeffs[:, n:], n)


def build_q(m: FiniteHermitian, s: StructureInfo, t: BoundaryMatrix, p):
    """The n degeneration polynomials q_j from the K-row equations.

    q_j = sum_i conj(m_{k,i}) p_i - z p_k, k the j-th element of K, summed in
    this order on canonical coefficient rows n places wider than the longest p_i.
    The rows are the p_i's stored arrays, padded with zeros.  Every K row's
    terms are written once into one block, segment after segment: the rows at
    the nonzero columns i of row k, then z p_k, row k shifted by n places.
    Their factors, -conj(m_{k,i}) and 1, lie in one array in the same order,
    and each segment's sum is ``_subtract_negated``'s.
    """
    if len(p) != s.N:
        raise DimensionMismatch("expected one p polynomial per truncation row")
    n = s.n
    width = n * (-(-max(pk.coeffs.size for pk in p) // n) + 1)
    coeffs = np.zeros((s.N, width), dtype=complex)
    for row, pk in zip(coeffs, p):
        row[: pk.coeffs.size] = pk.coeffs
    k = np.array(s.K, dtype=int) - 1
    nonzero = m.data[k] != 0
    owner, at = np.nonzero(nonzero)  # row by row, columns ascending
    ends = np.cumsum(nonzero.sum(axis=1) + 1)
    shifted = ends - 1  # each segment ends with its z p_k
    gathered = np.ones(owner.size + k.size, dtype=bool)
    gathered[shifted] = False
    rows = np.empty((gathered.size, width), dtype=complex)
    rows[gathered] = coeffs[at]
    rows[shifted, :n] = 0.0
    rows[shifted, n:] = coeffs[k, :-n]
    cs = np.empty(gathered.size, dtype=complex)
    cs[gathered] = -m.data[k[owner], at].conj()
    cs[shifted] = 1.0
    neg_re, neg_im = -cs.real[:, None], (-1j * cs.imag)[:, None]
    q = np.zeros((n, width), dtype=complex)
    lo = 0
    for j, hi in enumerate(ends.tolist()):
        q[j] = _subtract_negated(q[j], neg_re[lo:hi], neg_im[lo:hi], rows[lo:hi])
        lo = hi
    return from_coeff_rows(q, n)


#: -0.0 in both parts: the sum that leaves every addend's bits, signed zeros included
_NEGATIVE_ZERO = complex(-0.0, -0.0)


def _subtract_negated(row, neg_re, neg_im, rows):
    """row - cs[0] rows[0] - cs[1] rows[1] - ..., summed left to right, from the
    columns neg_re = -cs.real and neg_im = -1j * cs.imag of its factors cs.

    Each product is rounded as Python's complex product rounds it, up to the
    sign of a part that underflows to zero.  numpy's complex multiply may
    fuse a multiply-add; with a purely real or purely imaginary factor one
    term of each part is an exact zero, and fusing moves no other bit,
    hence the split of c into c.real and 1j*c.imag.

    The terms are the rows of one C-ordered block, and ``np.add.reduce``
    along its axis 0 adds them one row after the other: numpy's pairwise
    summation runs only along the contiguous axis.  The reduction starts
    from ``initial``; -0.0 is the value that every first term passes
    unchanged, where add's identity +0.0 would turn a -0.0 into +0.0.  So
    the sum is the left-to-right one bit for bit, signed zeros included.

    The p and q coefficients keep these bits because decisions read them:
    ``interpolation.is_solution`` tests the q_j at the nodes at a relative
    1e-8, a bound that their residual reaches on many instances.
    ``row - cs @ rows`` in its place flips that test, either way, on 119 of
    perfbench's 960 n = 1, N = 20 ``direct`` instances of seeds 1-20:
    rounding noise, until the test reads point values.
    """
    terms = np.empty((len(neg_re) + 1, row.size), dtype=complex)
    terms[0] = row
    np.multiply(neg_re, rows, out=terms[1:])
    terms[1:] += neg_im * rows
    return np.add.reduce(terms, axis=0, initial=_NEGATIVE_ZERO)


def c_vectors(sd: SpectralData, t: BoundaryMatrix) -> np.ndarray:
    """Boundary-reduced eigenvector heads: solve T* C = (first n rows of phi).

    Returns a read-only (N, n) array whose row k is C^k.  The phase of each
    eigencolumn is re-fixed so the first significant entry of its head is
    real positive; everything downstream only depends on C C*.  Heads and
    C-vectors are checked all at once, each error naming the first failing k.

    The result is kept on ``sd`` (``sd.kept_c``) with the boundary object it
    was solved for, and handed out again while ``t`` is that very object:
    ``sd`` and ``t`` are read-only, so ``step_measure`` and the
    ``DirectPass`` of one truncation share one solve.  Another boundary
    replaces the kept result; an error keeps nothing.
    """
    if sd.kept_c is not None and sd.kept_c[0] is t:
        return sd.kept_c[1]
    t.require_invertible()
    heads = sd.phi[: t.n, :]
    pivot, peak = _first_significant(heads)
    vanished = peak == 0.0
    if vanished.any():
        raise NumericalFailure(f"eigenvector {int(np.argmax(vanished))} has a vanishing head")
    heads = heads * (np.abs(pivot) / pivot)
    cs = np.ascontiguousarray(np.linalg.solve(t.t.conj().T, heads).T)
    small = np.linalg.norm(cs, axis=1) <= 1e-13
    if small.any():
        raise NumericalFailure(f"C-vector {int(np.argmax(small))} vanished")
    cs.flags.writeable = False
    object.__setattr__(sd, "kept_c", (t, cs))
    return cs


def step_measure(sd: SpectralData, t: BoundaryMatrix) -> StepMeasure:
    """Step spectral function of the truncation for the given boundary matrix.

    Its C is ``c_vectors(sd, t)``, kept on ``sd`` for a ``DirectPass`` of the
    same eigen data and boundary object."""
    return StepMeasure(t.n, sd.lambdas, c_vectors(sd, t))


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


@dataclass(frozen=True, eq=False)
class DirectPass:
    """The spectral pass over one truncation (m, s, t) that the direct checks share.

    Each attribute is computed once, on first read:

      * ``sd``          the eigen data: the ``sd`` it was made with, else
                        ``eigen_decompose(m)``;
      * ``c``           the (N, n) block of the C^k, ``c_vectors(sd, t)``,
                        the solve that ``step_measure(sd, t)`` shares;
      * ``window``      the spectrum's range padded by a quarter of its width
                        (at least 1/4 each side), and ``nodes`` the N + 1
                        Chebyshev nodes of ``det_theta_polynomial`` over it;
      * ``psi``         one ``psi_at`` recursion over lambda_1..lambda_N and
                        then the nodes, (2N + 1, N, n);
      * ``u``           the rows u_k = Psi(lambda_k) C^k;
      * ``theta_nodes`` Theta at the nodes, from the node rows of ``psi``.

    Points stacked in one ``psi_at`` call give the bytes of separate calls.
    The object relies on m.data and t.t being read-only; ``direct_pass``
    finds it.
    """

    m: FiniteHermitian
    s: StructureInfo
    t: BoundaryMatrix
    given_sd: SpectralData = None

    @functools.cached_property
    def sd(self):
        return eigen_decompose(self.m) if self.given_sd is None else self.given_sd

    @functools.cached_property
    def c(self):
        return c_vectors(self.sd, self.t)

    @functools.cached_property
    def window(self):
        lo, hi = float(self.sd.lambdas[0]), float(self.sd.lambdas[-1])
        pad = 0.25 * max(hi - lo, 1.0)
        return lo - pad, hi + pad

    @functools.cached_property
    def nodes(self):
        lo, hi = self.window
        k = np.arange(self.s.N + 1)
        nodes = np.cos((2 * k + 1) * np.pi / (2 * (self.s.N + 1)))
        return 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)

    @functools.cached_property
    def psi(self):
        return psi_at(self.m, self.s, self.t, np.concatenate([self.sd.lambdas, self.nodes]))

    @functools.cached_property
    def u(self):
        c = self.c  # before psi: a vanished C-vector is reported before a zero edge
        return np.matmul(self.psi[: self.s.N], c[:, :, None])[:, :, 0]

    @functools.cached_property
    def theta_nodes(self):
        return _theta_from_psi(self.m, self.s, self.psi[self.s.N :], self.nodes)


#: the last DirectPass made, the one slot of ``direct_pass``'s memo
_last_pass = None


def direct_pass(m: FiniteHermitian, s: StructureInfo, t: BoundaryMatrix,
                sd: SpectralData = None) -> DirectPass:
    """The ``DirectPass`` of (m, s, t), from a one-slot memo.

    The memo holds the last pass made, by strong reference.  It hits when m,
    s and t are the very objects of that pass and ``sd`` is None or that
    pass's eigen data; otherwise a new pass, adopting ``sd``, replaces it.
    The direct checks take (m, s, t) as separate calls, so the slot is what
    lets a sequence of them on one truncation share the pass: one ``eigh``
    (the caller's, when it passes ``sd``) and one ``psi_at``.
    """
    global _last_pass
    last = _last_pass
    if (last is not None and last.m is m and last.s is s and last.t is t
            and (sd is None or sd is last.sd)):
        return last
    made = DirectPass(m, s, t, sd)
    _last_pass = made
    return made


def gram_matrix(m: FiniteHermitian, s: StructureInfo, t: BoundaryMatrix,
                sd: SpectralData = None) -> np.ndarray:
    """Gram matrix of {p_k} under the step measure, from Psi at the eigenvalues.

    Evaluates Psi at each eigenvalue instead of expanding polynomial
    coefficients, which stays accurate for truncations around N = 20.  The
    rows u_k come from the ``DirectPass`` of (m, s, t), as in the other
    direct checks.
    """
    u = direct_pass(m, s, t, sd).u
    return u.T @ u.conj()


def multiplication_matrix(m: FiniteHermitian, s: StructureInfo, t: BoundaryMatrix,
                          sd: SpectralData = None) -> np.ndarray:
    """Matrix elements <p_i, t * p_j> under the step measure, from Psi at the eigenvalues."""
    dp = direct_pass(m, s, t, sd)
    return (dp.u.T * dp.sd.lambdas) @ dp.u.conj()


def q_norms_sq(m: FiniteHermitian, s: StructureInfo, t: BoundaryMatrix,
               sd: SpectralData = None):
    """Squared measure norms of the q_j, plus the natural magnitude scale.

    Returns (norms_sq, scales_sq).  The j-th norm is sum_k |Theta(l_k) C^k|_j^2,
    which the theory says is exactly zero; scales_sq[j] is the size the same
    sum would have without the cancellation inside (M - l I)_K Psi(l) C, i.e.
    the K-row magnitudes of (M - l I) times the recovered eigenvector norms.
    The squared magnitude of K-row j at l is that of its entries off the
    diagonal plus |m_kk - l|^2, k the j-th element of K.
    """
    dp = direct_pass(m, s, t, sd)
    lams, us = dp.sd.lambdas, dp.u
    rows = np.array(s.K) - 1
    k_rows = m.data[rows, :]
    diag = k_rows[np.arange(s.n), rows]
    off_diag = k_rows.copy()
    off_diag[np.arange(s.n), rows] = 0.0
    row_sq = np.linalg.norm(off_diag, axis=1) ** 2 + np.abs(diag - lams[:, None]) ** 2
    v = us @ k_rows.T - lams[:, None] * us[:, rows]
    scales = row_sq * np.linalg.norm(us, axis=1)[:, None] ** 2
    return (np.add.reduce(np.abs(v) ** 2, axis=0, initial=0.0),
            np.add.reduce(scales, axis=0, initial=0.0))

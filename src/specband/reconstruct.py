"""Inverse problem: from a step measure back to a band matrix with degenerations.

Gram-Schmidt runs over the canonical vector polynomials e_1, e_2, ... in
L2(R, sigma).  Whenever the residual of e_k vanishes, a degeneration
polynomial q~ of height k-1 is recorded; afterwards every index whose
height lies on the lattice h(q~) + n*N is skipped, because the residual
there is forced to vanish again (scalar multiples of q~ reproduce the same
zero-norm direction).  The surviving normalized residuals p~_k are an
orthonormal system, the first n of them form the boundary matrix, and

    m~_ij = <p~_i, t * p~_j>

assembles a matrix in the band-with-degenerations class whose step
spectral function reproduces sigma.  ``recover_band`` sets the entries that
the class makes zero, between heights more than n apart, to 0.0 and reports
the largest of them as the band leakage.

Working representation: the sweep reads the measure once into a lambda
vector and the n rows conj(C^p)_i over the points p.  The spectral
coordinates of e_k, w[p] = (C^p)* e_k(lambda_p), are lambda^l conj(C)_i,
where k - 1 = l n + i.  A level's power lambda^l is formed once, at its
first height that the lattice rule does not skip, and each w at the
height that reads it, so an overflow raises where it did when every e_k
was formed anew.  Norms are sqrt(x.x + y.y) over the real and imaginary
parts, the sum that ``np.linalg.norm`` takes, without its wrapper.  The
emitted coordinates are the rows of one array V, and their conjugates,
written once as each row is emitted, the rows of a second.  A residual is
reduced by classical Gram-Schmidt, twice: each pass takes every multiplier
at once, cs = conj(V) w, from the conjugated rows, and subtracts cs V, so w
is orthogonal to V at working precision (Giraud, Langou, Rozloznik & van
den Eshof, Numer. Math. 101, 2005); before the first row is emitted there
is nothing to project against, and no pass runs.  The sweep carries no
coefficients: ``orthonormalize`` reads T~ off the constants' rows once.  p~
and q~ are the p_k and q_j of the recovered matrix, built when asked for.
The sweep itself, ``_sweep``, also gives ``interpolation.verify_generators``
its kernel dimensions; the checks that the matrix needs are
``orthonormalize``'s.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure, PivotViolation, SingularZerothMoment, StageError
from .matrices import (
    FiniteHermitian,
    MatrixSpec,
    StructureInfo,
    analyze_structure,
    truncate,
    validate_class,
)
from .spectral import (
    BoundaryMatrix,
    CLUSTER_TOL,
    StepMeasure,
    build_p,
    build_q,
    eigen_decompose,
    step_measure,
)

#: relative residual threshold declaring a Gram-Schmidt degeneration
ZERO_NORM_TOL = 1e-8

#: relative threshold for reading structure off a reconstructed dense matrix
RECOVER_STRUCT_TOL = 1e-8

#: criterion 09 bounds of one round trip: eigenvalue error and jump-matrix error
ROUNDTRIP_EIG_TOL = 1e-8
ROUNDTRIP_JUMP_TOL = 1e-7

#: relative size of an entry outside the band of the sweep's heights that is no
#: rounding noise (perfbench's inverse pools, seeds 0-30, N <= 160: noise <= 1.4e-7,
#: a false degeneration >= 1.2e-3)
BAND_NOISE_TOL = 1e-4


@dataclass(frozen=True)
class OrthoResult:
    """Output of the orthonormalization sweep.

    ``t_tilde`` is the boundary matrix, the first n constants' e_1..e_n
    coefficients transposed, ``skip_log`` lists the canonical indices suppressed
    by the height-lattice rule, ``q_heights`` the heights of degenerations and
    ``p_heights`` those of the emitted rows.
    ``p_tilde`` and ``q_tilde`` are derived on first access by ``build_p``
    and ``build_q``.  They keep the sweep's heights and, where the declared
    degenerations have zero norm, equal its residuals in L2(sigma); as
    coefficient vectors they may differ from them by a zero-norm polynomial,
    q~ also by a scalar; where one has nonzero norm, access raises
    ``NumericalFailure``.  Monomial coefficients scale exponentially, so they
    are exact objects only at small N.
    """

    t_tilde: BoundaryMatrix
    skip_log: tuple
    q_heights: tuple
    p_heights: tuple  # one per row of weights
    rank_exhausted: bool
    weights: np.ndarray  # emitted spectral coordinates, row per p~
    lambdas: np.ndarray  # the measure's points, a column of weights each

    @functools.cached_property
    def orthogonality_loss(self):
        """max |W W* - I| over the emitted spectral coordinates W, computed when read."""
        w = self.weights
        return float(np.max(np.abs(w @ w.conj().T - np.eye(len(w))), initial=0.0))

    @functools.cached_property
    def _band(self):
        """The recovered band (``recover_band``) and its structure by the emitted heights.

        Column height h >= n is pivoted by row height h - n.  Entries between
        heights more than n apart vanish if the degenerations have zero norm;
        their rounding noise is zeroed, lest it raise the derived heights.
        """
        n, N = self.t_tilde.n, len(self.weights)
        m, leakage = recover_band(self)
        if leakage > BAND_NOISE_TOL:
            raise NumericalFailure(f"band leakage {leakage:.3e}: a degeneration at "
                                   f"{self.q_heights} has nonzero norm; p~, q~ not derivable")
        row = {h: i for i, h in enumerate(self.p_heights, 1)}
        pivot = {c: row[h - n] for c, h in enumerate(self.p_heights, 1) if h >= n}
        return m, StructureInfo.from_pivot(n, N, pivot)

    @functools.cached_property
    def p_tilde(self):
        m, s = self._band
        return tuple(build_p(m, s, self.t_tilde))

    @functools.cached_property
    def q_tilde(self):
        """The q~ of height h: build_q's polynomial of the K row of height h - n."""
        m, s = self._band
        q = build_q(m, s, self.t_tilde, self.p_tilde)
        return tuple(q[s.K.index(self.p_heights.index(h - s.n) + 1)] for h in self.q_heights)


def orthonormalize(mu: StepMeasure, max_k: int, zero_tol: float = ZERO_NORM_TOL) -> OrthoResult:
    """Gram-Schmidt over the canonical family with the height-lattice skip rule.

    Runs until min(``max_k``, N) orthonormal polynomials are emitted (an
    orthonormal system in L2 of N points has at most N members) or all
    residue classes mod n are closed by degenerations (then the measure's
    rank is exhausted and the result says so).  A degeneration below height
    n raises, as T~ would be singular.  The first n emitted rows are
    V = H conj(C)^T, H lower triangular with diagonal 1/norm of each
    constant's residual, and V V* = I gives H^-1 = conj(C)^T V*; T~ = H^T.
    H is solved for from that product's lower part, taken in two passes as
    the sweep takes them, and the sweep's norms, which its diagonal would
    blur by cancellation where the constants lean on each other.
    """
    n = mu.n
    s0 = mu.total_mass()
    eig = np.linalg.eigvalsh(s0)
    if eig[0] <= 1e-12 * max(eig[-1], 1.0):
        raise SingularZerothMoment(
            f"zeroth moment has eigenvalue {eig[0]:.3e}; cannot start"
        )
    cap = max(min(max_k, mu.size), 0)
    weights, p_heights, norms, q_heights, skip_log = _sweep(mu, cap, zero_tol)
    if q_heights and q_heights[0] < n:
        raise SingularZerothMoment(f"degeneration at height {q_heights[0]} < n={n}; T~ is singular")
    if len(weights) < n:
        raise SingularZerothMoment("fewer than n orthonormal constants emerged")
    cols, v = mu.c.conj().T, weights[:n]
    h_inv = np.tril(cols @ v.conj().T, -1)
    h_inv += np.tril((cols - h_inv @ v) @ v.conj().T, -1)
    h = np.zeros((n, n), dtype=complex)
    for i, norm in enumerate(norms[:n]):
        h[i, :i] = -(h_inv[i, :i] @ h[:i, :i]) / norm
        h[i, i] = 1.0 / norm
    return OrthoResult(
        t_tilde=BoundaryMatrix(n, h.T),
        skip_log=tuple(skip_log),
        q_heights=tuple(q_heights),
        p_heights=tuple(p_heights),
        rank_exhausted=len(weights) < max_k,
        weights=weights,
        lambdas=mu.lambdas,
    )


@np.errstate(over="raise")
def _sweep(mu: StepMeasure, cap: int, zero_tol: float):
    """The Gram-Schmidt sweep over e_1, e_2, ... with the height-lattice skip rule.

    Emits at most ``cap`` rows and stops when n degenerations have closed
    every residue class mod n, or at the first direction past the cap that
    is not degenerate.  A degeneration below height n is recorded like any
    other, so the sweep also runs on data whose S_0 is singular.  Returns
    the emitted spectral coordinates (a row each), their heights and the
    norms of their residuals, the degeneration heights and the skipped
    canonical indices.  An overflow, such as a norm of e_k past the largest
    float, raises ``FloatingPointError`` rather than passing for a degeneration.

    The multipliers are ``bc.dot(w)``: the same zgemv (zdotu for one row) as
    ``bc @ w``, byte for byte, at less dispatch per call.  The projection
    stays ``cs @ b``: with one emitted row, matmul and ``ndarray.dot`` round
    that product differently.
    """
    n = mu.n
    lam = mu.lambdas
    cols = mu.c.conj().T.copy()  # row i: conj(C^p)_i over the points p
    # the first m rows of ``basis`` hold the emitted p~'s spectral coordinates
    # and those of ``basis_conj`` their conjugates; one allocation holds both, as
    # a second one cost more than the conjugations it saves at N = 160
    basis, basis_conj = np.zeros((2, cap, mu.size), dtype=complex)
    b, bc = basis[:0], basis_conj[:0]
    emitted, norms = [], []  # heights and residual norms of the emitted rows
    q_heights = []
    closed = set()  # residues mod n of the degeneration heights
    skip_log = []
    level = None
    k = 0
    while len(q_heights) < n:
        k += 1
        h = k - 1
        l, i = divmod(h, n)
        if i in closed:  # h lies on the lattice of an earlier degeneration
            skip_log.append(k)
            continue
        if l != level:
            # lambda^l, formed at the level's first height that is not skipped;
            # np.float_power gives Python's float ** int bit for bit
            level, power = l, np.float_power(lam, l)
        w = power * cols[i]  # a fresh array, reduced in place; x and y view it
        x, y = w.real, w.imag  # np.linalg.norm's sum; its dot raises on overflow
        e_norm = math.sqrt(x.dot(x) + y.dot(y))
        m = len(emitted)
        for _ in range(2 if m else 0):  # nothing to project against before the first row
            cs = bc.dot(w)
            w -= cs @ b
        norm = math.sqrt(x.dot(x) + y.dot(y))
        if norm <= zero_tol * max(e_norm, 1e-300):
            q_heights.append(h)
            closed.add(i)
        elif m < cap:
            np.divide(w, norm, out=basis[m])
            np.conjugate(basis[m], out=basis_conj[m])
            emitted.append(h)
            norms.append(norm)
            b, bc = basis[: m + 1], basis_conj[: m + 1]
        else:
            # cap reached and the next direction is not degenerate: stop
            break
    return b, emitted, norms, q_heights, skip_log


def recover_matrix(res: OrthoResult) -> FiniteHermitian:
    """m~_ij = <p~_i, t p~_j> from the spectral coordinates, made exactly Hermitian."""
    w = res.weights
    mat = (w.conj() * res.lambdas) @ w.T
    return FiniteHermitian(w.shape[0], 0.5 * (mat + mat.conj().T))


def recover_band(res: OrthoResult):
    """(m~ of ``recover_matrix`` inside its band, band leakage).

    Entries between heights more than n apart vanish in m~, as the matrix
    lies in the band-with-degenerations class; they are set to 0.0.  The
    leakage is the largest of them over the largest entry, 0.0 where none
    is dropped: rounding residue where the degenerations have zero norm,
    above ``BAND_NOISE_TOL`` where one has not.
    """
    m = recover_matrix(res)
    h = np.asarray(res.p_heights)
    far = np.abs(h[:, None] - h) > res.t_tilde.n
    size = np.abs(m.data)
    off = float(np.max(size[far], initial=0.0))
    leakage = off / float(np.max(size)) if off else 0.0
    return FiniteHermitian(m.N, np.where(far, 0.0, m.data)), leakage


def spec_from_dense(data: np.ndarray, n: int) -> MatrixSpec:
    """Read the structural description off a dense band-with-degenerations matrix.

    Pivots are identified as entries that are simultaneously the rightmost
    significant entry of their row and the topmost of their column; the
    trailing run of consecutive pivots determines the tail.
    """
    data = np.asarray(data, dtype=complex)
    N = data.shape[0]
    scale = float(np.max(np.abs(data))) or 1.0
    upper = np.triu(np.abs(data) > RECOVER_STRUCT_TOL * scale)
    entries = dict(zip(map(tuple, (np.argwhere(upper) + 1).tolist()), data[upper].tolist()))
    # 1-based rightmost column per row and topmost row per column, 0 where
    # empty; the upper triangle decides every edge a pivot can sit on
    rightmost = np.where(upper.any(axis=1), N - np.argmax(upper[:, ::-1], axis=1), 0)
    topmost = np.where(upper.any(axis=0), np.argmax(upper, axis=0) + 1, 0)
    pivot = {}
    for c in range(n + 1, N + 1):
        r = int(topmost[c - 1])
        if r == 0 or r >= c:
            raise PivotViolation(f"column {c} has no readable pivot")
        if rightmost[r - 1] != c:
            raise PivotViolation(
                f"topmost entry of column {c} (row {r}) is not a row edge"
            )
        pivot[c] = r
    tail = None
    if pivot:
        c = N
        while c - 1 in pivot and c in pivot and pivot[c - 1] == pivot[c] - 1:
            c -= 1
        tail = (pivot[c], c)
    return MatrixSpec(n, N, entries, pivot, tail, None)


@dataclass
class RoundTripReport:
    """Agreement metrics of the matrix -> measure -> matrix pipeline."""

    N: int
    n: int
    class_report: object
    eigenvalue_error: float
    jump_location_error: float
    jump_matrix_error: float
    moment_error: float
    moment_order: int
    matrix: FiniteHermitian
    boundary: BoundaryMatrix
    skip_count: int
    q_heights: tuple
    q_residues_distinct: bool

    @property
    def class_ok(self):
        return self.class_report.passed

    @property
    def passed(self):
        """Criterion 09: class ok, size N recovered, eigenvalues and jumps within bounds."""
        return (
            self.class_ok
            and self.matrix.N == self.N
            and self.eigenvalue_error <= ROUNDTRIP_EIG_TOL
            and self.jump_matrix_error <= ROUNDTRIP_JUMP_TOL
        )

    def to_dict(self):
        return {
            "N": self.N,
            "n": self.n,
            "class_ok": self.class_ok,
            "class_report": self.class_report.to_dict(),
            "eigenvalue_error": self.eigenvalue_error,
            "jump_location_error": self.jump_location_error,
            "jump_matrix_error": self.jump_matrix_error,
            "moment_error": self.moment_error,
            "moment_order": self.moment_order,
            "skip_count": self.skip_count,
            "q_heights": list(self.q_heights),
            "q_residues_distinct": self.q_residues_distinct,
        }


def _stage(name, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - tag and re-raise
        raise StageError(name, exc) from exc


def compare_measures(a: StepMeasure, b: StepMeasure):
    """(max jump-location gap, max entrywise jump-matrix gap) between measures.

    Both are inf where the measures have different numbers of jumps.
    """
    ja = a.grouped_jumps(CLUSTER_TOL)
    jb = b.grouped_jumps(CLUSTER_TOL)
    if len(ja) != len(jb):
        return float("inf"), float("inf")
    loc = float(np.max(np.abs(ja["location"] - jb["location"])))
    mat = float(np.max(np.abs(ja["jump"] - jb["jump"])))
    return loc, mat


def roundtrip(spec: MatrixSpec, t: BoundaryMatrix, N: int) -> RoundTripReport:
    """Truncate, decompose spectrally, reconstruct, and measure the agreement."""
    m = _stage("truncate", truncate, spec, N)
    _stage("structure", analyze_structure, spec, N)
    sd = _stage("eigen", eigen_decompose, m)
    sigma = _stage("measure", step_measure, sd, t)
    res = _stage("orthonormalize", orthonormalize, sigma, N)
    m_rec = _stage("recover", recover_matrix, res)

    rec_spec = _stage("verify", spec_from_dense, m_rec.data, spec.n)
    class_report = validate_class(rec_spec, "mtilde")
    sd_rec = _stage("verify", eigen_decompose, m_rec)
    eig_err = (
        float(np.max(np.abs(sd.lambdas[: m_rec.N] - sd_rec.lambdas)))
        if m_rec.N == N
        else float("inf")
    )
    sigma_rec = _stage("verify", step_measure, sd_rec, res.t_tilde)
    loc_err, mat_err = compare_measures(sigma, sigma_rec)
    if spec.tail is not None:
        j0, k0 = spec.tail
        l = max((N - spec.n) // (k0 - j0), 0)
    else:
        l = 0
    order = 2 * l
    mom_err = _stage("verify", lambda: float(np.max(np.abs(
        sigma.moments_upto(order) - sigma_rec.moments_upto(order)))))
    residues = [h % spec.n for h in res.q_heights]
    return RoundTripReport(
        N=N,
        n=spec.n,
        class_report=class_report,
        eigenvalue_error=eig_err,
        jump_location_error=loc_err,
        jump_matrix_error=mat_err,
        moment_error=mom_err,
        moment_order=order,
        matrix=m_rec,
        boundary=res.t_tilde,
        skip_count=len(res.skip_log),
        q_heights=res.q_heights,
        q_residues_distinct=len(set(residues)) == len(residues),
    )

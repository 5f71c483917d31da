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
spectral function reproduces sigma.

Working representation: the sweep reads the measure once into a lambda
vector and the block of conj(C^p), so the spectral coordinates of e_k,
w[p] = (C^p)* e_k(lambda_p), are one array expression.  Each residual is
carried as that coordinate vector, where inner products are plain dot
products and Gram-Schmidt runs on well-scaled point values, and as a row
of canonical coefficients (entry m belongs to e_{m+1}).  The row takes the
same multipliers as the coordinates, in the same order and with the
rounding of Python's complex arithmetic, so it equals what stepwise
``VectorPolynomial`` arithmetic would give.  The emitted rows share one
preallocated array; the ``VectorPolynomial`` objects of p~ and q~ are
built from the rows once, when the sweep is done.
"""

from dataclasses import dataclass

import numpy as np

from .errors import PivotViolation, SingularZerothMoment, StageError
from .matrices import (
    FiniteHermitian,
    MatrixSpec,
    analyze_structure,
    truncate,
    validate_class,
)
from .spectral import (
    BoundaryMatrix,
    CLUSTER_TOL,
    StepMeasure,
    canonical_coordinates,
    eigen_decompose,
    step_measure,
)
from .vectorpoly import from_coeff_vector

#: relative residual threshold declaring a Gram-Schmidt degeneration
ZERO_NORM_TOL = 1e-8

#: relative threshold for reading structure off a reconstructed dense matrix
RECOVER_STRUCT_TOL = 1e-8


@dataclass(frozen=True)
class OrthoResult:
    """Output of the orthonormalization sweep.

    ``p_tilde`` are the emitted orthonormal polynomials, ``q_tilde`` the
    zero-norm degenerations (unnormalized residuals), ``t_tilde`` the
    boundary matrix read off the first n constants.  ``skip_log`` lists
    the canonical indices suppressed by the height-lattice rule and
    ``q_heights`` the heights at which degenerations appeared.
    """

    p_tilde: tuple
    q_tilde: tuple
    t_tilde: BoundaryMatrix
    skip_log: tuple
    q_heights: tuple
    rank_exhausted: bool
    weights: np.ndarray  # emitted spectral coordinates, row per p~
    skip_residuals: tuple = ()


def orthonormalize(mu: StepMeasure, max_k: int, check_skips: bool = False,
                   zero_tol: float = ZERO_NORM_TOL) -> OrthoResult:
    """Gram-Schmidt over the canonical family with the height-lattice skip rule.

    Runs until min(``max_k``, N) orthonormal polynomials are emitted (an
    orthonormal system in L2 of N points has at most N members) or all
    residue classes mod n are closed by degenerations (then the measure's
    rank is exhausted and the result says so).  ``check_skips``
    additionally computes the raw residual at every skipped index, for
    verification.
    """
    n = mu.n
    s0 = mu.total_mass()
    eig = np.linalg.eigvalsh(s0)
    if eig[0] <= 1e-12 * max(eig[-1], 1.0):
        raise SingularZerothMoment(
            f"zeroth moment has eigenvalue {eig[0]:.3e}; cannot start"
        )
    lam, conj_c = mu.spectral_arrays()
    cap = max(min(max_k, mu.size), 0)
    # row j holds the canonical coefficients of the j-th emitted p~.  While
    # fewer than n degenerations are found, every block of n heights has an
    # unskipped one, so k stays below n * (emitted + n + 1).
    coeffs = np.zeros((cap, n * (cap + n + 1)), dtype=complex)
    emitted_w = []
    emitted_len = []
    q_rows = []
    q_heights = []
    skip_log = []
    skip_residuals = []
    k = 0
    while len(q_rows) < n:
        k += 1
        h = k - 1
        lattice_hit = any((h - hq) > 0 and (h - hq) % n == 0 for hq in q_heights)
        if lattice_hit:
            skip_log.append(k)
            if check_skips:
                w, _, e_norm = _residual(lam, conj_c, k, emitted_w, coeffs)
                skip_residuals.append(
                    float(np.linalg.norm(w)) / max(e_norm, 1e-300)
                )
            continue
        w, row, e_norm = _residual(lam, conj_c, k, emitted_w, coeffs)
        norm = float(np.linalg.norm(w))
        if norm <= zero_tol * max(e_norm, 1e-300):
            q_rows.append(row)
            q_heights.append(h)
        elif len(emitted_w) < cap:
            coeffs[len(emitted_w), :k] = row * (1.0 / norm)
            emitted_w.append(w / norm)
            emitted_len.append(k)
        else:
            # cap reached and the next direction is not degenerate: stop
            break
    rank_exhausted = len(emitted_w) < max_k
    if len(emitted_w) < n:
        raise SingularZerothMoment("fewer than n orthonormal constants emerged")
    p_tilde = tuple(
        from_coeff_vector(coeffs[j, :length], n, tol=0.0)
        for j, length in enumerate(emitted_len)
    )
    t_mat = np.zeros((n, n), dtype=complex)
    for j in range(n):
        const = p_tilde[j]
        for i in range(n):
            comp = const.comps[i]
            t_mat[i, j] = comp[0] if comp else 0.0
    weights = np.array(emitted_w) if emitted_w else np.zeros((0, mu.size))
    return OrthoResult(
        p_tilde=p_tilde,
        q_tilde=tuple(from_coeff_vector(row, n, tol=0.0) for row in q_rows),
        t_tilde=BoundaryMatrix(n, t_mat),
        skip_log=tuple(skip_log),
        q_heights=tuple(q_heights),
        rank_exhausted=rank_exhausted,
        weights=weights,
        skip_residuals=tuple(skip_residuals),
    )


def _residual(lam, conj_c, k, emitted_w, coeffs):
    """Twice-iterated Gram-Schmidt step for e_k against the emitted system.

    Returns the residual's spectral coordinates, its canonical coefficients
    (length k) and the norm of e_k's coordinates.
    """
    w = canonical_coordinates(lam, conj_c, k - 1)
    e_norm = float(np.linalg.norm(w))
    row = np.zeros(k, dtype=complex)
    row[k - 1] = 1.0
    emitted = coeffs[: len(emitted_w), :k]
    for _ in range(2):
        cs = np.zeros(len(emitted_w), dtype=complex)
        for j, wj in enumerate(emitted_w):
            c = complex(np.vdot(wj, w))
            if c != 0:
                w = w - c * wj
                cs[j] = c
        row = _subtract_in_order(row, cs, emitted)
    return w, row, e_norm


def _subtract_in_order(row, cs, rows):
    """row - cs[0] rows[0] - cs[1] rows[1] - ..., summed left to right.

    Each product is rounded as Python's complex product rounds it.  numpy's
    complex multiply may fuse a multiply-add; with a purely real or purely
    imaginary factor one term of each part is an exact zero and fusing
    changes nothing, hence the split of c into c.real and 1j*c.imag.
    """
    terms = np.empty((len(cs) + 1, row.size), dtype=complex)
    terms[0] = row
    np.multiply(-cs.real[:, None], rows, out=terms[1:])
    terms[1:] += (-1j * cs.imag)[:, None] * rows
    return np.cumsum(terms, axis=0)[-1]


def recover_matrix(res: OrthoResult, mu: StepMeasure) -> FiniteHermitian:
    """Matrix of multiplication by the variable in the orthonormal basis."""
    W = res.weights
    lam = mu.lambdas()
    mat = (W.conj() * lam) @ W.T
    mat = 0.5 * (mat + mat.conj().T)
    return FiniteHermitian(W.shape[0], mat)


def spec_from_dense(data: np.ndarray, n: int, rel_tol: float = RECOVER_STRUCT_TOL) -> MatrixSpec:
    """Read the structural description off a dense band-with-degenerations matrix.

    Pivots are identified as entries that are simultaneously the rightmost
    significant entry of their row and the topmost of their column; the
    trailing run of consecutive pivots determines the tail.
    """
    data = np.asarray(data, dtype=complex)
    N = data.shape[0]
    scale = float(np.max(np.abs(data))) or 1.0
    upper = np.triu(np.abs(data) > rel_tol * scale)
    entries = {(j + 1, k + 1): complex(data[j, k]) for j, k in np.argwhere(upper).tolist()}
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


def compare_measures(a: StepMeasure, b: StepMeasure, cluster_tol=CLUSTER_TOL):
    """(max jump-location gap, max entrywise jump-matrix gap) between measures."""
    ja = a.grouped_jumps(cluster_tol)
    jb = b.grouped_jumps(cluster_tol)
    if len(ja) != len(jb):
        return float("inf"), float("inf")
    loc = max(abs(x[0] - y[0]) for x, y in zip(ja, jb))
    mat = max(float(np.max(np.abs(x[1] - y[1]))) for x, y in zip(ja, jb))
    return loc, mat


def roundtrip(spec: MatrixSpec, t: BoundaryMatrix, N: int) -> RoundTripReport:
    """Truncate, decompose spectrally, reconstruct, and measure the agreement."""
    m = _stage("truncate", truncate, spec, N)
    _stage("structure", analyze_structure, spec, N)
    sd = _stage("eigen", eigen_decompose, m)
    sigma = _stage("measure", step_measure, sd, t)
    res = _stage("orthonormalize", orthonormalize, sigma, N)
    m_rec = _stage("recover", recover_matrix, res, sigma)

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
    mom_err = 0.0
    for a, b in zip(sigma.moments_upto(order), sigma_rec.moments_upto(order)):
        mom_err = max(mom_err, float(np.max(np.abs(a - b))))
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

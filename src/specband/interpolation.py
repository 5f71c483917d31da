"""Vector polynomial interpolation: annihilation data, decomposition, generators.

The interpolation problem asks for n-dimensional vector polynomials r with

    (C^k)* r(mu_k) = 0   for every data point (mu_k, C^k),

equivalently: r lies in the zero-norm class of L2(R, sigma) for the step
measure assembled from the same points.  The solution set is a module over
scalar polynomials with n generators; the degeneration polynomials q_j of a
band matrix are always solutions and, for the band-with-degenerations
subclass, they are exactly the generators.

The constraints are the canonical coordinates (C^k)* e_m(mu_k) that the
inverse sweep reads too, one table from ``spectral.canonical_coordinates``.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NoDecomposition
from .spectral import CLUSTER_TOL, StepMeasure, canonical_coordinates
from .vectorpoly import (
    MINUS_INF,
    VectorPolynomial,
    height,
    to_coeff_vector,
)

#: relative singular-value cutoff for least-squares / kernel computations
LSTSQ_RCOND = 1e-10


@dataclass(frozen=True)
class InterpolationData:
    """Annihilation data: real nodes with nonzero direction vectors."""

    n: int
    points: tuple  # ((mu, C-vector), ...)

    def __post_init__(self):
        pts = tuple(
            (float(mu), np.asarray(c, dtype=complex).reshape(self.n))
            for mu, c in self.points
        )
        object.__setattr__(self, "points", pts)
        for mu, c in pts:
            if np.linalg.norm(c) == 0.0:
                raise ValueError(f"zero direction vector at node {mu}")
        mus = sorted(mu for mu, _ in pts)
        run = 1
        for a, b in zip(mus, mus[1:]):
            run = run + 1 if abs(b - a) <= CLUSTER_TOL * (1.0 + abs(b)) else 1
            if run > self.n:
                raise ValueError(f"node {b} repeats more than n={self.n} times")

    @classmethod
    def from_measure(cls, mu: StepMeasure):
        return cls(mu.n, mu.points)

    def constraint_matrix(self, length):
        """Annihilation constraints on span{e_1..e_length}: entry (p, m) is
        (C^p)* e_{m+1}(mu_p), a row per node."""
        lam, conj_c = StepMeasure(self.n, self.points).spectral_arrays()
        return canonical_coordinates(lam, conj_c, np.arange(length))


def is_solution(r: VectorPolynomial, data: InterpolationData, tol: float = 1e-8) -> bool:
    """Whether r is annihilated by every data point, relatively to its size."""
    if r.n != data.n:
        raise DimensionMismatch("polynomial dimension does not match the data")
    for mu, c in data.points:
        val = r.evaluate(mu)
        resid = abs(np.vdot(c, val))
        scale = np.linalg.norm(c) * np.linalg.norm(val)
        if resid > tol * (1.0 + scale):
            return False
    return True


@dataclass(frozen=True)
class Decomposition:
    """Coefficients of r = sum a_k p_k + sum s_j(z) q_j, with the LS residual."""

    a: np.ndarray
    s: tuple  # ascending coefficient tuples, one per q_j
    residual: float
    scale: float

    @property
    def relative_residual(self):
        return self.residual / max(self.scale, 1e-300)


def _system_columns(r, p, q, min_s_degree):
    """Column polynomials (p's, then z^l q_j) and the s-degree bounds."""
    h_r = height(r)
    cols = list(p)
    meta = []  # (j, power) bookkeeping for the q-columns
    degs = []
    for j, qj in enumerate(q):
        h_q = height(qj)
        if h_q == MINUS_INF:
            degs.append(-1)
            continue
        d = -1
        if h_r != MINUS_INF and h_r >= h_q:
            d = int((h_r - h_q) // r.n)
        d = max(d, min_s_degree)
        degs.append(d)
        for l in range(d + 1):
            cols.append(qj.z_mul(l) if l else qj)
            meta.append((j, l))
    return cols, meta, degs


def decompose(r: VectorPolynomial, p, q, tol: float = 1e-8,
              min_s_degree: int = -1) -> Decomposition:
    """Least-squares decomposition of r over {p_k} and scalar multiples of {q_j}.

    The scalar-polynomial degrees are bounded by the height gap
    (h(r) - h(q_j)) / n, which suffices whenever no height cancellation can
    occur (always, for the band subclass).  When pieces of equal height may
    cancel, pass ``min_s_degree`` to guarantee each s_j at least that
    degree budget.  Raises :class:`NoDecomposition` when the
    coefficient-space residual exceeds ``tol`` relative to the size of r.
    """
    cols, meta, degs = _system_columns(r, p, q, min_s_degree)
    heights = [height(c) for c in cols] + [height(r)]
    finite = [h for h in heights if h != MINUS_INF]
    length = int(max(finite)) + 1 if finite else 1
    A = np.column_stack([to_coeff_vector(c, length) for c in cols])
    b = to_coeff_vector(r, length)
    # equilibrate columns: the canonical-coefficient basis is badly scaled
    col_norms = np.linalg.norm(A, axis=0)
    col_norms[col_norms == 0] = 1.0
    y, _, _, _ = np.linalg.lstsq(A / col_norms, b, rcond=LSTSQ_RCOND)
    x = y / col_norms
    residual = float(np.linalg.norm(A @ x - b))
    scale = float(np.linalg.norm(b))
    a = x[: len(p)]
    qcoeffs = x[len(p):].tolist()
    s = []
    for j, d in enumerate(degs):
        coeffs = [0j] * (d + 1)
        for (jj, l), val in zip(meta, qcoeffs):
            if jj == j:
                coeffs[l] = val
        s.append(tuple(coeffs))
    if residual > tol * max(scale, 1e-30):
        raise NoDecomposition(
            f"residual {residual:.3e} exceeds tolerance for scale {scale:.3e}",
            residual=residual,
        )
    return Decomposition(a=a, s=tuple(s), residual=residual, scale=scale)


def recompose(dec: Decomposition, p, q) -> VectorPolynomial:
    """Rebuild sum a_k p_k + sum s_j(z) q_j from a decomposition."""
    n = p[0].n
    acc = VectorPolynomial.zero(n)
    for ak, pk in zip(dec.a, p):
        if ak != 0:
            acc = acc + pk * ak
    for coeffs, qj in zip(dec.s, q):
        if any(c != 0 for c in coeffs):
            acc = acc + qj.scalar_poly_mul(coeffs)
    return acc


def kernel_dimension(data: InterpolationData, h: int) -> int:
    """Dimension of the annihilated subspace among polynomials of height <= h."""
    return _null_dimension(data.constraint_matrix(h + 1))  # h < 0: empty span


def _null_dimension(B) -> int:
    """Number of columns of B minus its numerical rank."""
    svals = np.linalg.svd(B, compute_uv=False)
    if svals.size == 0:
        return B.shape[1]
    cutoff = LSTSQ_RCOND * svals[0] if svals[0] > 0 else 0.0
    return B.shape[1] - int(np.sum(svals > cutoff))


def expected_kernel_dimension(heights, h, n):
    """Module dimension at height h for generators with the given heights."""
    total = 0
    for hj in heights:
        if hj != MINUS_INF and hj <= h:
            total += int((h - hj) // n) + 1
    return total


@dataclass
class GeneratorReport:
    """Findings about a claimed generator system for the interpolation module."""

    heights: list
    residues: list
    distinct_residues: bool
    solution_flags: list
    minimal: bool
    height_table: list = field(default_factory=list)  # (h, observed, expected)
    proportional_ties: bool = True

    def to_dict(self):
        return {
            "heights": self.heights,
            "residues": self.residues,
            "distinct_residues": self.distinct_residues,
            "solution_flags": self.solution_flags,
            "minimal": self.minimal,
            "height_table": self.height_table,
            "proportional_ties": self.proportional_ties,
        }


def verify_generators(q, data: InterpolationData, class_hint: str = "m") -> GeneratorReport:
    """Check whether the q_j generate the solution module minimally.

    Walks every height up to max h(q_j), comparing the observed kernel
    dimension of the annihilation constraints with the count the claimed
    generators would produce.  A surplus at some height means a solution of
    smaller height exists outside the span, i.e. the q's are not the
    generators (expected for the general class, never for the band
    subclass).  The constraint table is built once, for the top height; the
    constraints up to height h are its first h + 1 columns.
    """
    n = data.n
    heights = [height(qj) for qj in q]
    residues = [int(h) % n if h != MINUS_INF else None for h in heights]
    finite = [r for r in residues if r is not None]
    distinct = len(set(finite)) == len(finite) == n
    flags = [is_solution(qj, data) for qj in q]
    h_max = max((int(h) for h in heights if h != MINUS_INF), default=-1)
    B = data.constraint_matrix(h_max + 1)
    table = []
    minimal = all(flags)
    ties_ok = True
    prev = 0
    for h in range(0, h_max + 1):
        obs = _null_dimension(B[:, : h + 1])
        exp = expected_kernel_dimension(heights, h, n)
        table.append((h, obs, exp))
        if obs != exp:
            minimal = False
        if obs - prev > 1:
            ties_ok = False
        prev = obs
    return GeneratorReport(
        heights=heights,
        residues=residues,
        distinct_residues=distinct,
        solution_flags=flags,
        minimal=minimal,
        height_table=table,
        proportional_ties=ties_ok,
    )

"""Vector polynomial interpolation: annihilation data, decomposition, generators.

The interpolation problem asks for n-dimensional vector polynomials r with

    (C^k)* r(mu_k) = 0   for every data point (mu_k, C^k),

equivalently: r lies in the zero-norm class of L2(R, sigma) for the step
measure assembled from the same points.  The solution set is a module over
scalar polynomials with n generators; the degeneration polynomials q_j of a
band matrix are always solutions and, for the band-with-degenerations
subclass, they are exactly the generators.

The solutions of height <= h form a space of dimension (h + 1) minus the
rank of the constraints (C^k)* e_m(mu_k) on e_1..e_{h+1}.  That rank is read
off one Gram-Schmidt sweep over the data (``reconstruct._sweep``, the sweep
of the inverse problem): it is the number of rows the sweep emits at heights
<= h.  ``kernel_dimension`` and ``verify_generators`` both count this way.
"""

from bisect import bisect_right
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DimensionMismatch, NoDecomposition
from .reconstruct import ZERO_NORM_TOL, _sweep
from .spectral import StepMeasure, cluster_starts
from .vectorpoly import (
    MINUS_INF,
    VectorPolynomial,
    height,
    to_coeff_vector,
)

#: relative singular-value cutoff of ``decompose``'s least squares
LSTSQ_RCOND = 1e-10


@dataclass(frozen=True)
class InterpolationData(StepMeasure):
    """Annihilation data: a step measure whose directions, the rows of ``c``, are
    nonzero and whose nodes repeat at most n times (``cluster_starts`` clusters)."""

    def __post_init__(self):
        super().__post_init__()
        self._check()

    def _check(self):
        lam, n = self.lambdas, self.n
        zero = np.flatnonzero(~self.c.any(axis=1))
        if zero.size:
            raise ValueError(f"zero direction vector at node {float(lam[zero[0]])}")
        start = cluster_starts(lam)
        crowded = start[np.diff(start, append=lam.size) > n]
        if crowded.size:
            raise ValueError(f"node {float(lam[crowded[0] + n])} repeats more than n={n} times")

    @classmethod
    def from_measure(cls, mu: StepMeasure):
        """The data of the measure's points and C-vectors.

        The measure's arrays are read-only and already sorted, so the data
        takes them as they are, sharing their memory, and runs only its own
        two checks: no zero direction, no node repeated more than n times.
        """
        data = object.__new__(cls)
        for name in ("n", "lambdas", "c"):
            object.__setattr__(data, name, getattr(mu, name))
        data._check()
        return data


def is_solution(r: VectorPolynomial, data: InterpolationData, tol: float = 1e-8) -> bool:
    """Whether r is annihilated by every data point, relatively to its size:
    |(C^k)* r(mu_k)| <= tol (1 + |C^k| |r(mu_k)|) at every node.

    A value, residual or bound that is not finite decides nothing (an inf
    bound would pass any residual): ``FloatingPointError`` names the first
    node where one is, and which.  A value of about 1.3e154 already
    overflows the norm that the bound squares."""
    if r.n != data.n:
        raise DimensionMismatch("polynomial dimension does not match the data")
    vals = r.evaluate_at(data.lambdas)
    with np.errstate(over="ignore", invalid="ignore"):
        resid = np.abs(np.einsum("ki,ki->k", data.c.conj(), vals))
        bound = tol * (1.0 + np.linalg.norm(data.c, axis=1) * np.linalg.norm(vals, axis=1))
    finite = np.isfinite(resid) & np.isfinite(bound)
    if not finite.all():
        k = int(np.argmin(finite))
        what = ("r(lambda)" if not np.isfinite(vals[k]).all()
                else "the residual C* r(lambda)" if not np.isfinite(resid[k])
                else "the bound tol (1 + |C| |r(lambda)|)")
        lam = float(data.lambdas[k])
        raise FloatingPointError(f"{what} at node lambda = {lam!r} is not finite")
    return not np.any(resid > bound)


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
    """Column polynomials (the p's, then z^0..z^d q_j per q_j) and the s-degree bounds d."""
    h_r = height(r)
    cols = list(p)
    degs = []
    for qj in q:
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
    return cols, degs


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
    cols, degs = _system_columns(r, p, q, min_s_degree)
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
    s, start = [], len(p)
    for d in degs:
        s.append(tuple(x[start:start + d + 1].tolist()))
        start += d + 1
    if residual > tol * max(scale, 1e-300):
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


def _kernel_dimensions(data: InterpolationData, heights):
    """Dimension of the solutions of height <= h, for each h of ``heights``.

    It is (h + 1) minus the number of rows that one sweep over the data emits
    at heights <= h, and 0 for h < 0.
    """
    _, emitted, _, _, _ = _sweep(data, data.size, ZERO_NORM_TOL)
    return [max(0, h + 1 - bisect_right(emitted, h)) for h in heights]  # emitted heights ascend


def kernel_dimension(data: InterpolationData, h: int) -> int:
    """Dimension of the annihilated subspace among polynomials of height <= h."""
    return _kernel_dimensions(data, [h])[0]


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

    def to_dict(self):
        # proportional_ties holds by construction; it stays in the report's schema
        return {**asdict(self), "proportional_ties": True}


def verify_generators(q, data: InterpolationData) -> GeneratorReport:
    """Check whether the q_j generate the solution module minimally.

    For every height h up to max h(q_j), compares the observed dimension of
    the solutions of height <= h with the count the claimed generators would
    produce (``expected_kernel_dimension``).  The observed dimension is
    (h + 1) minus the number of rows that one Gram-Schmidt sweep over the
    data emits at heights <= h.  Under the height-lattice rule the rows
    emitted up to height h span the constraints of e_1..e_{h+1}, so this is
    the kernel dimension, decided residual by residual against
    ``ZERO_NORM_TOL`` as ``reconstruct.orthonormalize`` decides it.  The
    sweep needs no invertible S_0: a solution of height below n is counted
    like any other.  A surplus at some height means a solution of smaller
    height exists outside the span, i.e. the q's are not the generators
    (expected for the general class, never for the band subclass).
    ``minimal`` also asks every q_j to pass ``is_solution``.

    ``proportional_ties`` holds by construction: each height adds one
    canonical vector, which is either emitted or annihilated, so the observed
    dimension grows by at most one per height.
    """
    n = data.n
    heights = [height(qj) for qj in q]
    residues = [int(h) % n if h != MINUS_INF else None for h in heights]
    finite = [r for r in residues if r is not None]
    distinct = len(set(finite)) == len(finite) == n
    flags = [is_solution(qj, data) for qj in q]
    h_max = max((int(h) for h in heights if h != MINUS_INF), default=-1)
    observed = _kernel_dimensions(data, range(h_max + 1))
    table = [(h, obs, expected_kernel_dimension(heights, h, n)) for h, obs in enumerate(observed)]
    return GeneratorReport(
        heights=heights,
        residues=residues,
        distinct_residues=distinct,
        solution_flags=flags,
        minimal=all(flags) and all(obs == exp for _, obs, exp in table),
        height_table=table,
    )

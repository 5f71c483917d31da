"""Structural description of band Hermitian matrices with designated row edges.

The matrices handled here are Hermitian, conceptually infinite, and carry a
pivot map: beyond a boundary order ``n`` every column has exactly one
*row-edge entry* (a nonzero whose row holds only zeros to its right), and
from some position ``(j0, k0)`` on, the entries ``(j0+m, k0+m)`` are
simultaneously row-edge and *column-edge* entries (nonzero with only zeros
above them in their column), forming a regular banded tail.

Within a finite truncation the rightmost stored nonzero of a row that never
serves as a pivot is indistinguishable from a true row edge, so the pivot
designation is explicit input data rather than something inferred from the
stored entries.

Condition 1 (each column past n has its own pivot row, whose entry there is
a nonzero row edge) is stated once, in ``_pivot_faults``: ``analyze_structure``
raises the first breach of it that ``validate_class`` reports, in its words.

Every :class:`MatrixSpec` indexes its structural nonzeros once, when it is
built, so the structural queries behind validation cost O(1)
(``struct_tol``, ``column_topmost``) or O(log E) (``row_rightmost``) per
call instead of a scan over all E stored entries.
"""

import cmath
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import (
    DimensionMismatch,
    InconsistentProfile,
    MissingPivot,
    PivotViolation,
    TailUndefined,
)

#: relative threshold below which a stored entry counts as a structural zero
STRUCT_TOL = 1e-12


@dataclass(frozen=True)
class TailProfile:
    """Values used when extending the banded tail beyond the stored size.

    ``edge`` is the value placed on the simultaneous row/column-edge
    diagonal; ``interior`` maps the offset d >= 1 (columns to the left of
    the edge) to the value filled there.  Offsets absent from the map are
    filled with zero.
    """

    edge: complex = 1.0 + 0j
    interior: dict = field(default_factory=dict)


@dataclass(frozen=True)
class MatrixSpec:
    """Structural + numeric description of a truncatable matrix.

    Entries are stored for the upper triangle only (row <= col, 1-based);
    Hermitian symmetry supplies the rest.  ``pivot`` maps each represented
    column c > n to the row whose row-edge entry sits in that column.
    ``tail`` is the pair (j0, k0) where the regular banded tail starts, or
    None when the description is purely finite.

    The normalised ``entries`` are read-only.  The structural index (the
    scale behind ``struct_tol`` and, per index, the sorted partners of its
    structural nonzeros) is built once from them here and never goes stale;
    it is not a field, so equality and repr ignore it.
    """

    n: int
    n_max: int
    entries: dict
    pivot: dict
    tail: tuple = None
    tail_profile: TailProfile = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("boundary order n must be >= 1")
        if self.n_max < self.n:
            raise ValueError("declared size must be at least n")
        norm = {}
        for (j, k), v in self.entries.items():
            if j < 1 or k < 1:
                raise ValueError("entries use 1-based indices")
            if j > k:
                j, k, v = k, j, complex(v).conjugate()
            key = (j, k)
            v = complex(v)
            if not cmath.isfinite(v):
                raise ValueError(f"entry {key} must be finite, not {v}")
            if key in norm and abs(norm[key] - v) > 1e-9 * max(1.0, abs(v)):
                raise ValueError(f"conflicting Hermitian values for entry {key}")
            norm[key] = v
        object.__setattr__(self, "entries", MappingProxyType(norm))
        object.__setattr__(self, "pivot", {int(c): int(r) for c, r in self.pivot.items()})
        if self.tail is not None:
            j0, k0 = self.tail
            if not k0 > j0 >= 1:
                raise ValueError("tail must satisfy k0 > j0 >= 1")
            object.__setattr__(self, "tail", (int(j0), int(k0)))
        if self.tail_profile is not None:
            for v in map(complex, (self.tail_profile.edge, *self.tail_profile.interior.values())):
                if not cmath.isfinite(v):
                    raise ValueError(f"tail_profile value must be finite, not {v}")
        scale = max((abs(v) for v in norm.values()), default=0.0)
        tol = STRUCT_TOL * max(scale, 1.0)
        partners = {}
        for (j, k), v in norm.items():
            if abs(v) > tol:
                partners.setdefault(j, set()).add(k)
                partners.setdefault(k, set()).add(j)
        object.__setattr__(self, "_struct_tol", tol)
        object.__setattr__(self, "_partners", {i: tuple(sorted(p)) for i, p in partners.items()})

    def __reduce__(self):
        # a mappingproxy does not pickle; rebuild from a plain copy of the entries
        args = (self.n, self.n_max, dict(self.entries), self.pivot, self.tail, self.tail_profile)
        return type(self), args

    def entry(self, j, k):
        """Entry (j, k) with Hermitian symmetry; zero when not stored."""
        if j > k:
            return self.entries.get((k, j), 0j).conjugate()
        return self.entries.get((j, k), 0j)

    def struct_tol(self):
        return self._struct_tol

    def is_structural_nonzero(self, j, k):
        return abs(self.entry(j, k)) > self.struct_tol()

    def row_rightmost(self, j):
        """Largest column <= n_max holding a structural nonzero of row j (0 if none)."""
        row = self._partners.get(j, ())
        i = bisect_right(row, self.n_max)
        return row[i - 1] if i else 0

    def column_topmost(self, k):
        """Smallest row holding a structural nonzero of column k (0 if none)."""
        col = self._partners.get(k)
        return col[0] if col else 0


@dataclass(frozen=True)
class StructureInfo:
    """Structural data of one truncation: pivot duty and its complement.

    K collects the rows without a designated row edge inside the
    truncation; its cardinality always equals the boundary order.  gamma
    numbers the K rows in increasing order.
    """

    n: int
    N: int
    K: tuple
    K_perp: tuple
    gamma: dict
    pivot: dict

    @classmethod
    def from_pivot(cls, n, N, pivot):
        """K, K_perp and gamma of the N x N truncation with pivot map {column: row}."""
        rows = list(pivot.values())
        if len(set(rows)) != len(rows):
            raise PivotViolation("pivot map is not injective on the truncation")
        k_rows = tuple(sorted(set(range(1, N + 1)) - set(rows)))
        gamma = {k: i + 1 for i, k in enumerate(k_rows)}
        return cls(n, N, k_rows, tuple(sorted(rows)), gamma, pivot)


@dataclass(frozen=True)
class FiniteHermitian:
    """Dense N x N Hermitian matrix (an upper-left truncation).

    ``data`` is a read-only copy of the N x N array given, so a matrix never
    changes once made (``spectral.direct_pass`` relies on that).
    """

    N: int
    data: np.ndarray

    def __post_init__(self):
        data = np.array(self.data)
        if data.shape != (self.N, self.N):
            raise DimensionMismatch(f"matrix data must be {self.N}x{self.N}, not {data.shape}")
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

    def hermiticity_defect(self):
        return float(np.max(np.abs(self.data - self.data.conj().T)))


@dataclass(frozen=True)
class Violation:
    clause: str
    where: tuple
    message: str


@dataclass
class ValidationReport:
    """Outcome of a class-membership check; hard violations versus warnings."""

    target: str
    violations: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    @property
    def passed(self):
        return not self.violations

    def add(self, clause, where, message):
        self.violations.append(Violation(clause, tuple(where), message))

    def warn(self, clause, where, message):
        self.warnings.append(Violation(clause, tuple(where), message))

    def to_dict(self):
        return {
            "target": self.target,
            "passed": self.passed,
            "violations": [v.__dict__ for v in self.violations],
            "warnings": [v.__dict__ for v in self.warnings],
        }


def _tail_values(spec):
    """The values at offsets 0..k0-j0 left of each tail edge past N_max: the
    tail profile's or, without one, row j0's (edge 1 where its stored edge is 0)."""
    j0, k0 = spec.tail
    offsets = range(1, k0 - j0 + 1)
    if spec.tail_profile is None:
        return [spec.entry(j0, k0) or 1.0 + 0j] + [spec.entry(j0, k0 - d) for d in offsets]
    interior = {int(d): complex(v) for d, v in spec.tail_profile.interior.items()}
    return [complex(spec.tail_profile.edge)] + [interior.get(d, 0j) for d in offsets]


def extend_tail(spec: MatrixSpec, N: int) -> MatrixSpec:
    """Extend the stored entries out to size N following the banded tail.

    New rows j0+m get their edge at column k0+m and the ``_tail_values``
    left of it; the pivot map gains pivot(k0+m) = j0+m.  Stored entries are
    never overwritten, and a spec of size N or more is returned as it is.
    """
    if N <= spec.n_max:
        return spec
    if spec.tail is None:
        raise TailUndefined(f"cannot extend to N={N}: no tail declared")
    j0, k0 = spec.tail
    values = _tail_values(spec)
    entries = dict(spec.entries)
    pivot = dict(spec.pivot)
    for c_edge in range(max(k0, spec.n_max + 1), N + 1):
        r = j0 + c_edge - k0
        pivot.setdefault(c_edge, r)
        for c in range(max(r, spec.n_max + 1), c_edge + 1):
            val = values[c_edge - c]
            if (r, c) not in entries and val != 0:
                entries[(r, c)] = val
    return MatrixSpec(spec.n, N, entries, pivot, spec.tail, spec.tail_profile)


def analyze_structure(spec: MatrixSpec, N: int) -> StructureInfo:
    """Split the rows of the N x N truncation into pivot duty and its complement,
    raising the first breach of condition 1 in its columns n+1..N."""
    if N <= spec.n:
        raise ValueError(f"truncation size must exceed n={spec.n}")
    spec = extend_tail(spec, N)
    for error, _, message in _pivot_faults(spec, N):
        raise error(message)
    pivot = {c: spec.pivot[c] for c in range(spec.n + 1, N + 1)}
    return StructureInfo.from_pivot(spec.n, N, pivot)


def truncate(spec: MatrixSpec, N: int) -> FiniteHermitian:
    """Dense Hermitian N x N upper-left corner, extending the tail if needed."""
    if N < 1:
        raise ValueError("truncation size must be >= 1")
    spec = extend_tail(spec, N)
    data = np.zeros((N, N), dtype=complex)
    for (j, k), v in spec.entries.items():
        if k <= N:
            data[j - 1, k - 1] = v
            if j != k:
                data[k - 1, j - 1] = v.conjugate()
    return FiniteHermitian(N, data)


def _row_edge_candidates(spec, column):
    """Rows whose rightmost stored nonzero lies exactly in the given column."""
    return [j for j in spec._partners.get(column, ()) if spec.row_rightmost(j) == column]


def _pivot_faults(spec, upto):
    """Condition 1 in columns n+1..upto, column by column: an (error type, where,
    message) for a missing pivot, a row out of range, a zero pivot entry, a
    nonzero right of the edge and a row that pivots two columns."""
    seen_rows = {}
    for c in range(spec.n + 1, upto + 1):
        if c not in spec.pivot:
            yield MissingPivot, (c,), f"column {c} lacks a pivot row"
            continue
        r = spec.pivot[c]
        if not 1 <= r < c:
            yield PivotViolation, (r, c), f"pivot row {r} of column {c} out of range"
            continue
        if not spec.is_structural_nonzero(r, c):
            yield PivotViolation, (r, c), f"pivot entry ({r},{c}) is zero"
        rightmost = spec.row_rightmost(r)
        if rightmost > c:
            yield (PivotViolation, (r, c),
                   f"row {r} has a nonzero at column {rightmost}, right of its edge {c}")
        if r in seen_rows:
            yield PivotViolation, (r, c), f"row {r} pivots both columns {seen_rows[r]} and {c}"
        seen_rows[r] = c


def _check_condition1(spec, report):
    for _, where, message in _pivot_faults(spec, spec.n_max):
        report.add("1", where, message)


def _check_condition2(spec, report):
    if spec.tail is None:
        report.add("2", (), "no tail (j0,k0) declared")
        return
    j0, k0 = spec.tail
    if k0 - j0 > spec.n:
        report.add("2", (j0, k0), f"tail offset {k0 - j0} exceeds boundary order {spec.n}")
    for m in range(spec.n_max - k0 + 1):
        r, c = j0 + m, k0 + m
        if c > spec.n and spec.pivot.get(c) != r:
            report.add("2", (r, c), f"tail column {c} is not pivoted by row {r}")
        if not spec.is_structural_nonzero(r, c):
            report.add("2", (r, c), f"tail entry ({r},{c}) is zero")
        else:
            if spec.row_rightmost(r) != c:
                report.add("2", (r, c), f"tail entry ({r},{c}) is not a row edge")
            top = spec.column_topmost(c)
            if top != r:
                report.add(
                    "2",
                    (r, c),
                    f"tail entry ({r},{c}) is not a column edge (nonzero at row {top})",
                )


def _check_n_minimality(spec, report):
    pivot_rows = set(spec.pivot.values())
    for l in range(1, spec.n):
        # l is viable if each column l+1..n is the edge of exactly one unpivoted row above it
        if all(sum(j not in pivot_rows and j < c for j in _row_edge_candidates(spec, c)) == 1
               for c in range(l + 1, spec.n + 1)):
            report.warn(
                "minimality-n",
                (l,),
                f"boundary order may not be minimal: l={l} also admits a pivot reading",
            )
            return


def _diag_is_simultaneous_edge(spec, j, k):
    """Whether the stored diagonal (j+m, k+m) consists of row+column edges."""
    return k <= spec.n_max and all(
        spec.row_rightmost(j + m) == k + m and spec.column_topmost(k + m) == j + m
        for m in range(spec.n_max - k + 1)
    )


def _check_tail_minimality(spec, report):
    if spec.tail is None:
        return
    j0, k0 = spec.tail
    for j in range(1, j0 + 1):
        k_hi = k0 - 1 if j == j0 else min(j + spec.n, spec.n_max)
        for k in range(j + 1, k_hi + 1):
            if _diag_is_simultaneous_edge(spec, j, k):
                report.warn(
                    "minimality-tail",
                    (j, k),
                    f"tail may start earlier: diagonal from ({j},{k}) is simultaneous-edge",
                )
                return


def _check_mtilde(spec, report):
    cols = sorted(c for c in spec.pivot if spec.n < c <= spec.n_max)
    rows = [spec.pivot[c] for c in cols]
    for i in range(1, len(rows)):
        if rows[i] <= rows[i - 1]:
            report.add(
                "a",
                (cols[i - 1], cols[i]),
                f"pivot rows not strictly increasing: r({cols[i - 1]})={rows[i - 1]}, "
                f"r({cols[i]})={rows[i]}",
            )
    for c in cols:
        r = spec.pivot[c]
        top = spec.column_topmost(c)
        if top and top < r:
            report.add(
                "b",
                (r, c),
                f"row-edge entry ({r},{c}) is not a column edge: nonzero at row {top}",
            )


def _check_extension(spec, report):
    """What ``extend_tail`` reads past the corner: no entry or pivot beyond
    N_max, no tail-profile offset outside the 1..k0-j0 that it reads, a tail
    that starts by column N_max + 1, no stored pivot row that the tail pivots
    again, and an edge value that is a structural nonzero, beside which every
    stored structural nonzero stays one."""
    n_max, tol = spec.n_max, spec.struct_tol()
    beyond = [(f"entry ({j},{k})", (j, k)) for j, k in spec.entries if k > n_max]
    beyond += [(f"pivot of column {c}", (r, c)) for c, r in spec.pivot.items() if c > n_max]
    for what, where in beyond:
        report.add("size", where, f"{what} lies beyond N_max={n_max}")
    if spec.tail is None:
        return
    j0, k0 = spec.tail
    for d in map(int, spec.tail_profile.interior if spec.tail_profile else ()):
        if not 1 <= d <= k0 - j0:
            report.add("tail", (d,), f"tail profile offset {d} lies outside 1..{k0 - j0}")
    if k0 > n_max + 1:
        report.add("size", (j0, k0), f"tail ({j0},{k0}) starts beyond column {n_max + 1}")
        return
    for c, r in spec.pivot.items():
        if spec.n < c <= n_max and r > j0 + n_max - k0:
            report.add("tail", (r, c), f"row {r} pivots column {c} and tail column {k0 + r - j0}")
    values = _tail_values(spec)
    tail_tol = max(tol, STRUCT_TOL * max(map(abs, values)))
    # a stored edge (j0, k0) is condition 2's to read
    if (spec.tail_profile is not None or k0 > n_max) and abs(values[0]) <= tail_tol:
        report.add("tail", (j0, k0), f"the tail's edge value {values[0]} is zero")
    for (j, k), v in spec.entries.items():
        if tol < abs(v) <= tail_tol:
            report.add("tail", (j, k), f"entry ({j},{k}) is zero beside the tail's values")


def validate_class(spec: MatrixSpec, which: str = "m") -> ValidationReport:
    """Check membership conditions for the base class or its band subclass.

    ``which`` is "m" (designated row edges plus a banded tail) or "mtilde"
    (additionally: strictly increasing pivot rows, and every row edge is a
    column edge).  Violations are reported, never raised; failed minimality
    of n or of the tail start only downgrades the report via warnings.
    """
    if which not in ("m", "mtilde"):
        raise ValueError("class must be 'm' or 'mtilde'")
    report = ValidationReport(target=which)
    for (j, k), v in spec.entries.items():
        if j == k and abs(v.imag) > 1e-9 * max(1.0, abs(v)):
            report.add("hermitian", (j, k), f"diagonal entry ({j},{j}) is not real")
    _check_extension(spec, report)
    _check_condition1(spec, report)
    _check_condition2(spec, report)
    _check_n_minimality(spec, report)
    _check_tail_minimality(spec, report)
    if which == "mtilde":
        _check_mtilde(spec, report)
    return report


@dataclass(frozen=True)
class GenProfile:
    """Shape parameters for :func:`generate_random`: the tail (j0, k0) is drawn
    unless given, the pivot rows always are, and the interior density is 0.9.
    A given tail needs 1 <= k0 - j0 <= n and n + 1 <= k0 <= n_max + 1."""

    n: int
    n_max: int
    tail: tuple = None
    mtilde: bool = False
    complex_entries: bool = True


def _random_tail(profile, rng):
    """(j0, j0 + t), t uniform in 1..n, then j0 uniform so that n + 2 <= k0 <= n_max + 1
    (n + 1 <= k0 if t = n): for t < n the unpivoted rows anchor right of column n.
    As generate_random has refused n_max < n + 1, both ranges are non-empty."""
    n, n_max = profile.n, profile.n_max
    t = int(rng.integers(1, n + 1))
    j0 = int(rng.integers(n + 2 - t if t < n else 1, n_max + 2 - t))
    return j0, j0 + t


def _assign_pivots(profile, tail, rng):
    """Random injection columns (n, k0) -> rows [1, j0) with r(c) < c (both
    branches and the spare-row swap keep it), and the rows left over.  The
    k0 - 1 - n columns never outnumber the j0 - 1 rows, as k0 - j0 <= n."""
    n = profile.n
    j0, k0 = tail
    columns = list(range(n + 1, k0))
    rows_pool = list(range(1, j0))
    if profile.mtilde:
        rows = sorted(rng.choice(rows_pool, size=len(columns), replace=False).tolist())
        assignment = dict(zip(columns, rows))
    else:
        assignment = {}
        free = rows_pool.copy()
        for c in columns:
            # the unused rows below c are a prefix of the increasing free rows
            assignment[c] = free.pop(int(rng.integers(0, bisect_left(free, c))))
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


def generate_random(profile: GenProfile, seed: int) -> MatrixSpec:
    """Deterministic random instance passing the class validator.

    Edge entries are sampled with magnitude in [0.5, 1.5]; interior entries
    stay within the support allowed by the declared structure, so the
    result always validates (for "mtilde" when the profile forces it).  An
    allowed interior entry is stored when its density test draws <= 0.9.

    Draw order: the tail (unless given) and then the pivots take their
    integers first.  Every uniform after them comes, in order, from one
    ``rng.random`` block: a magnitude and then a phase (or, for real
    entries, a sign) per pivot edge, column by column; then, row by row and
    left to right, for every allowed pair (j, k), k >= j, that is no pivot
    edge, a density test and, if it passes, one diagonal value or a
    magnitude and a phase (sign); last, a magnitude and a phase (sign) per
    degeneration row's anchor, row by row.  No pair right of its row's last
    allowed column draws.  ``Generator.uniform(lo, hi)`` is
    ``lo + (hi - lo) * random()``, so the spec is the one that scalar
    ``rng.uniform`` calls in this order give.
    """
    rng = np.random.default_rng(seed)
    n, n_max = profile.n, profile.n_max
    if n < 1 or n_max < n + 1:
        raise InconsistentProfile("need n >= 1 and declared size > n")
    tail = tuple(profile.tail) if profile.tail is not None else _random_tail(profile, rng)
    j0, k0 = tail
    t = k0 - j0
    if not 1 <= t <= n:
        raise InconsistentProfile("tail offset must lie in 1..n")
    if k0 < n + 1:
        raise InconsistentProfile("tail must start beyond the boundary columns")
    if k0 > n_max + 1:
        raise InconsistentProfile("tail must start by column N_max + 1")
    assignment, degens = _assign_pivots(profile, tail, rng)
    pivot = dict(assignment)
    for c in range(max(k0, n + 1), n_max + 1):
        pivot[c] = c - t

    edge_col = {r: c for c, r in pivot.items()}

    def allowed(j, k):
        """For k <= last[j]: in mtilde, no column k < k0 holds an entry above its pivot row."""
        return k >= k0 or not (profile.mtilde and j < pivot.get(k, 0))

    # the only pairs that may hold an entry: j <= k <= last[j], so none right of
    # j's edge nor, from column k0 on, right of j + t
    last = [0] + [min(edge_col.get(j, n_max), max(k0 - 1, j + t), n_max)
                  for j in range(1, n_max + 1)]
    edges = [(r, c) for c, r in pivot.items() if c <= n_max]
    pairs = sum(last[j] - j + 1 for j in range(1, n_max + 1))
    # an upper bound on the uniforms drawn; the rest of the block goes unused
    draw = iter(rng.random(3 * pairs + 2 * (len(edges) + len(degens))).tolist()).__next__

    def value(lo, hi):
        mag = lo + (hi - lo) * draw()
        if profile.complex_entries:
            return mag * np.exp(2j * np.pi * draw())
        return mag * (1.0 if draw() < 0.5 else -1.0)

    entries = {}
    for r, c in edges:
        entries[(r, c)] = value(0.5, 1.5)
    for j in range(1, n_max + 1):
        for k in range(j, last[j] + 1):
            if (j, k) in entries or not allowed(j, k):
                continue
            if draw() > 0.9:
                continue
            if j == k:
                entries[(j, k)] = complex(-1.0 + 2.0 * draw())
            else:
                entries[(j, k)] = value(0.05, 1.0)
    for j in degens:
        anchor = next((k for k in range(last[j], j, -1) if allowed(j, k)), None)
        if anchor is not None:
            entries[(j, anchor)] = value(0.5, 1.5)
    return MatrixSpec(n, n_max, entries, pivot, tail, None)

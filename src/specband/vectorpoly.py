"""n-dimensional vector polynomials and their height grading.

A vector polynomial is an n-tuple of scalar polynomials with complex
coefficients.  The ordering used throughout the package is the *height*

    h(r) = max_j { n * deg(r_j) + j - 1 },    h(0) = -inf,

which interleaves the component degrees so that exactly one slot/degree
pair realizes each nonnegative integer.  The canonical family
``e_1, e_2, ...`` (``e_{n*k+i} = z^k * unit_i``) realizes height m-1 at
index m and is the working basis for coefficient-space computations.

Building one from coefficients drops the trailing ones equal to 0 (of
either sign) and no others: there is no trimming tolerance.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch

# Height (and degree) of the zero polynomial.  A genuine -inf so that
# comparisons and h + n*l arithmetic behave without special cases.
MINUS_INF = float("-inf")

#: absolute magnitude at or below which ``spectral.build_p`` sets an entry of
#: the boundary matrix to 0 in the rows of p_1..p_n
COEFF_TRIM_TOL = 1e-12


def _trim(coeffs):
    """Drop trailing zero coefficients; a tuple of Python complex."""
    return _trimmed_slots([coeffs], 1)[0][0]


def _trimmed_slots(rows, n):
    """Per row of the 2-D rows, its slots i = 0..n-1 (every n-th entry from i),
    each without trailing zero coefficients.

    One array pass finds the last kept coefficient of every slot of every row;
    a NaN is kept, as ``nan != 0`` holds.
    """
    rows = np.asarray(rows, dtype=complex)
    count, size = rows.shape
    depth = -(-size // n)
    keep = np.zeros((count, depth * n), dtype=bool)
    keep[:, :size] = rows != 0
    grid = keep.reshape(count, depth, n)  # [row, d, i]: z^d in slot i
    lengths = np.max(grid * np.arange(1, depth + 1)[:, None], axis=1, initial=0)
    return [
        tuple(tuple(values[i : n * k : n]) for i, k in enumerate(lens))
        for values, lens in zip(rows.tolist(), lengths.tolist())
    ]


@dataclass(frozen=True)
class VectorPolynomial:
    """Immutable n-dimensional vector of scalar polynomials.

    ``comps[j]`` holds the ascending-degree coefficients of component
    j+1; trailing zero coefficients are trimmed on construction, so an
    empty tuple is the zero component.
    """

    n: int
    comps: tuple

    @classmethod
    def from_components(cls, comps, n=None):
        comps = [list(c) for c in comps]
        if n is None:
            n = len(comps)
        if len(comps) != n:
            raise DimensionMismatch(f"expected {n} components, got {len(comps)}")
        return cls(n, tuple(_trim(c) for c in comps))

    @classmethod
    def zero(cls, n):
        return cls(n, tuple(() for _ in range(n)))

    @property
    def is_zero(self):
        return all(len(c) == 0 for c in self.comps)

    def degree(self, j):
        """Degree of component j (1-based); -inf for a zero component."""
        c = self.comps[j - 1]
        return len(c) - 1 if c else MINUS_INF

    def evaluate(self, t):
        """Componentwise Horner evaluation; returns a complex n-vector."""
        out = np.zeros(self.n, dtype=complex)
        for j, coeffs in enumerate(self.comps):
            acc = 0.0 + 0.0j
            for c in reversed(coeffs):
                acc = acc * t + c
            out[j] = acc
        return out

    def evaluate_at(self, ts):
        """``evaluate(t)`` for every real t in ts, as a (len(ts), n) array.

        One complex Horner step per degree runs over all points and
        components at once, on a (width, n) array of the coefficients from
        the top, shorter components padded with zeros.  Like Python's
        arithmetic in ``evaluate``, it overflows to inf without a warning.
        At an infinite or NaN t an empty component may read NaN, not 0.
        """
        ts = np.asarray(ts, dtype=float)[:, None]
        width = max(len(c) for c in self.comps)
        top = np.zeros((width, self.n), dtype=complex)
        for j, comp in enumerate(self.comps):
            top[width - len(comp):, j] = comp[::-1]
        acc = np.zeros((ts.size, self.n), dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            for c in top:
                acc = acc * ts + c
        return acc

    def conjugate_coeffs(self):
        """Formal adjoint companion: conjugate every coefficient."""
        return VectorPolynomial(
            self.n, tuple(tuple(c.conjugate() for c in comp) for comp in self.comps)
        )

    def __add__(self, other):
        if not isinstance(other, VectorPolynomial):
            return NotImplemented
        if other.n != self.n:
            raise DimensionMismatch("vector polynomial dimensions differ")
        comps = []
        for a, b in zip(self.comps, other.comps):
            length = max(len(a), len(b))
            comps.append(
                [
                    (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                    for i in range(length)
                ]
            )
        return VectorPolynomial.from_components(comps, self.n)

    def __sub__(self, other):
        return self + (other * (-1.0))

    def __mul__(self, scalar):
        scalar = complex(scalar)
        return VectorPolynomial(
            self.n, tuple(_trim([c * scalar for c in comp]) for comp in self.comps)
        )

    __rmul__ = __mul__

    def scalar_poly_mul(self, s_coeffs):
        """Multiply by a scalar polynomial given as ascending coefficients."""
        s = list(s_coeffs)
        comps = []
        for comp in self.comps:
            if not comp or not s:
                comps.append([])
                continue
            prod = [0j] * (len(comp) + len(s) - 1)
            for i, a in enumerate(comp):
                for j, b in enumerate(s):
                    prod[i + j] += a * b
            comps.append(prod)
        return VectorPolynomial.from_components(comps, self.n)

    def z_mul(self, power=1):
        """Multiply every component by z**power (shift coefficients)."""
        return VectorPolynomial(
            self.n,
            tuple((0j,) * power + comp if comp else () for comp in self.comps),
        )


def height(r: VectorPolynomial):
    """Height h(r) = max_j (n*deg(r_j) + j - 1); -inf for the zero polynomial."""
    best = MINUS_INF
    for j in range(1, r.n + 1):
        d = r.degree(j)
        if d != MINUS_INF:
            best = max(best, r.n * d + j - 1)
    return best


def leading_slot(h, n):
    """Slot index j and degree d with n*d + j - 1 == h, for h >= 0."""
    h = int(h)
    return h % n + 1, h // n


def canonical_e(index, n):
    """Canonical vector polynomial of height index-1: z^k times a unit vector.

    Writing index-1 = n*k + (i-1) with i in 1..n gives z^k in slot i.
    """
    if index < 1:
        raise ValueError("canonical index must be >= 1")
    i, k = leading_slot(index - 1, n)
    comps = [[] for _ in range(n)]
    comps[i - 1] = [0j] * k + [1.0 + 0j]
    return VectorPolynomial.from_components(comps, n)


def to_coeff_vector(r: VectorPolynomial, length):
    """Coordinates of r in the canonical basis e_1..e_length.

    Raises if r has coefficients beyond the requested height window.
    """
    out = np.zeros(length, dtype=complex)
    for j, comp in enumerate(r.comps):
        slot = out[j :: r.n]  # a view: e_{j+1}, e_{j+1+n}, ...
        if any(abs(c) > 0 for c in comp[len(slot):]):
            raise ValueError("polynomial exceeds coefficient window")
        slot[: len(comp)] = comp[: len(slot)]
    return out


def from_coeff_vector(coords, n):
    """Inverse of :func:`to_coeff_vector`: slot i holds every n-th coordinate."""
    return from_coeff_rows([coords], n)[0]


def from_coeff_rows(rows, n):
    """:func:`from_coeff_vector` of each row of a 2-D array, trimmed in one pass."""
    return [VectorPolynomial(n, comps) for comps in _trimmed_slots(rows, n)]


def poly_allclose(a: VectorPolynomial, b: VectorPolynomial, tol=1e-9):
    """Coefficientwise comparison of two vector polynomials."""
    if a.n != b.n:
        return False
    diff = a - b
    return all(abs(c) <= tol for comp in diff.comps for c in comp)

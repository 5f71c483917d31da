"""n-dimensional vector polynomials and their height grading.

A vector polynomial is an n-tuple of scalar polynomials with complex
coefficients.  The ordering used throughout the package is the *height*

    h(r) = max_j { n * deg(r_j) + j - 1 },    h(0) = -inf,

which interleaves the component degrees so that exactly one slot/degree
pair realizes each nonnegative integer.  The canonical family
``e_1, e_2, ...`` (``e_{n*k+i} = z^k * unit_i``) realizes height m-1 at
index m and is the working basis for coefficient-space computations.

A ``VectorPolynomial`` stores its coordinates in that basis as one
read-only complex array, ``coeffs``: entry k multiplies e_{k+1}, that is
slot k mod n at degree k div n.  The array ends at its last entry that is
not 0 (of either sign), so its length is h(r) + 1; a NaN counts as nonzero.
There is no trimming tolerance.  The per-component tuples ``comps`` are
derived from it when first read, each without its trailing zeros.  A zero
past the end of its own component is stored as it came, so it may be -0.0:
``to_coeff_vector`` and ``evaluate_at`` may read -0.0 where the components
padded with zeros would give +0.0, and agree with them in every other bit.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch

# Height (and degree) of the zero polynomial.  A genuine -inf so that
# comparisons and h + n*l arithmetic behave without special cases.
MINUS_INF = float("-inf")


def _read_only(a):
    a.flags.writeable = False
    return a


def _slots(coeffs, n):
    """Slots i = 0..n-1 of a canonical array (every n-th entry from i), each
    without trailing zero coefficients, as tuples of Python complex.  A NaN
    is kept, as ``nan == 0`` is false."""
    values = coeffs.tolist()
    slots = []
    for i in range(n):
        slot = values[i::n]
        while slot and slot[-1] == 0:
            slot.pop()
        slots.append(tuple(slot))
    return tuple(slots)


@dataclass(frozen=True, eq=False)
class VectorPolynomial:
    """Immutable n-dimensional vector of scalar polynomials.

    ``coeffs`` is the read-only canonical array of the module docstring:
    entry k is the coefficient of z^(k div n) in component k mod n + 1, and
    the array's length is the height + 1 (empty for the zero polynomial).
    The constructor takes such an array as it is; ``from_components``,
    ``from_coeff_vector`` and ``from_coeff_rows`` build one from any
    coefficients.  ``comps[j]``, derived on first read, holds the
    ascending-degree coefficients of component j+1 without trailing zeros,
    so an empty tuple is the zero component.  Equality and hashing go by n
    and ``comps``.
    """

    n: int
    coeffs: np.ndarray

    @functools.cached_property
    def comps(self):
        return _slots(self.coeffs, self.n)

    def __eq__(self, other):
        if not isinstance(other, VectorPolynomial):
            return NotImplemented
        return (self.n, self.comps) == (other.n, other.comps)

    def __hash__(self):
        return hash((self.n, self.comps))

    @classmethod
    def from_components(cls, comps, n=None):
        comps = [list(c) for c in comps]
        if n is None:
            n = len(comps)
        if len(comps) != n:
            raise DimensionMismatch(f"expected {n} components, got {len(comps)}")
        grid = np.zeros((max(map(len, comps), default=0), n), dtype=complex)
        for j, comp in enumerate(comps):
            grid[: len(comp), j] = comp
        return from_coeff_rows(grid.reshape(1, -1), n)[0]

    @classmethod
    def zero(cls, n):
        return cls(n, _read_only(np.zeros(0, dtype=complex)))

    @property
    def is_zero(self):
        return self.coeffs.size == 0

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
        components at once, on the stored array padded with zeros to whole
        degrees and read as a (width, n) grid from the top degree down, in
        place on one accumulator (``acc * ts + c``'s bytes).  Like
        Python's arithmetic in ``evaluate``, it overflows to inf without a
        warning.  At an infinite or NaN t an empty component may read NaN,
        not 0.
        """
        ts = np.asarray(ts, dtype=float)[:, None]
        size, n = self.coeffs.size, self.n
        grid = np.zeros(-(-size // n) * n, dtype=complex)
        grid[:size] = self.coeffs
        acc = np.zeros((ts.size, n), dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            for c in grid.reshape(-1, n)[::-1]:
                acc *= ts
                acc += c
        return acc

    def conjugate_coeffs(self):
        """Formal adjoint companion: conjugate every coefficient."""
        return VectorPolynomial(self.n, _read_only(self.coeffs.conj()))

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
        return VectorPolynomial.from_components(
            [[c * scalar for c in comp] for comp in self.comps], self.n
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
        """Multiply every component by z**power: n*power zeros before the stored array."""
        if self.is_zero:
            return self
        shifted = np.zeros(self.n * power + self.coeffs.size, dtype=complex)
        shifted[self.n * power :] = self.coeffs
        return VectorPolynomial(self.n, _read_only(shifted))


def height(r: VectorPolynomial):
    """Height h(r) = max_j (n*deg(r_j) + j - 1), the stored array's length - 1;
    -inf for the zero polynomial."""
    return r.coeffs.size - 1 if r.coeffs.size else MINUS_INF


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
    coeffs = np.zeros(index, dtype=complex)
    coeffs[-1] = 1.0
    return VectorPolynomial(n, _read_only(coeffs))


def to_coeff_vector(r: VectorPolynomial, length):
    """Coordinates of r in the canonical basis e_1..e_length.

    Raises if r stores more coefficients than the window holds, that is if
    its height is length or more.
    """
    if r.coeffs.size > length:
        raise ValueError("polynomial exceeds coefficient window")
    out = np.zeros(length, dtype=complex)
    out[: r.coeffs.size] = r.coeffs
    return out


def from_coeff_vector(coords, n):
    """Inverse of :func:`to_coeff_vector`: slot i holds every n-th coordinate."""
    return from_coeff_rows([coords], n)[0]


def from_coeff_rows(rows, n):
    """:func:`from_coeff_vector` of each row of a 2-D array, in one pass.

    The rows are copied once, into a read-only block; one scan finds each
    row's last nonzero entry, and each polynomial's array is its row up to
    there (a view of the block).
    """
    block = _read_only(np.array(rows, dtype=complex))
    count, size = block.shape
    lengths = np.max((block != 0) * np.arange(1, size + 1), axis=1, initial=0)
    return [VectorPolynomial(n, row[:k]) for row, k in zip(block, lengths.tolist())]


def poly_allclose(a: VectorPolynomial, b: VectorPolynomial, tol=1e-9):
    """Coefficientwise comparison of two vector polynomials."""
    if a.n != b.n:
        return False
    diff = a - b
    return all(abs(c) <= tol for comp in diff.comps for c in comp)

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specband.errors import DimensionMismatch
from specband.vectorpoly import (
    MINUS_INF,
    VectorPolynomial,
    canonical_e,
    from_coeff_rows,
    from_coeff_vector,
    height,
    leading_slot,
    poly_allclose,
    to_coeff_vector,
)

from conftest import _reference_trim, assert_within, horner_scale, reference_from_coeff_vector


def vp(comps, n=None):
    return VectorPolynomial.from_components(comps, n)


def _trim(coeffs):
    """One scalar polynomial's coefficients as stored: trailing zeros dropped."""
    return vp([coeffs], 1).comps[0]


class TestHeight:
    def test_constant_first_slot(self):
        assert height(vp([[1], [], []])) == 0

    def test_mixed_slots(self):
        # max(3*1+0, 3*0+2) = 3
        assert height(vp([[0, 1], [], [1]])) == 3

    def test_zero_polynomial(self):
        assert height(VectorPolynomial.zero(3)) == MINUS_INF

    def test_z_shift_adds_n(self):
        r = vp([[1, 2], [3], []])
        h = height(r)
        for l in (1, 2, 5):
            assert height(r.z_mul(l)) == h + 3 * l

    def test_subadditive(self):
        a = vp([[1], [2], []])
        b = vp([[0, 1], [], []])
        assert height(a + b) <= max(height(a), height(b))
        # unequal heights: equality
        assert height(a + b) == max(height(a), height(b))


class TestCanonical:
    def test_index2_n3(self):
        assert canonical_e(2, 3).comps == ((), (1.0 + 0j,), ())

    def test_index4_n3(self):
        assert canonical_e(4, 3).comps == ((0j, 1.0 + 0j), (), ())

    def test_index7_n3(self):
        e = canonical_e(7, 3)
        assert e.comps == ((0j, 0j, 1.0 + 0j), (), ())
        assert height(e) == 6

    @pytest.mark.parametrize("h", range(0, 31))
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_realizes_every_height(self, h, n):
        assert height(canonical_e(h + 1, n)) == h

    def test_leading_slot_inverts(self):
        for n in (1, 2, 4):
            for h in range(25):
                i, k = leading_slot(h, n)
                assert n * k + i - 1 == h
                assert 1 <= i <= n


class TestEvaluate:
    def test_linear(self):
        r = vp([[0, 1], [], [1]])
        assert np.allclose(r.evaluate(2.0), [2.0, 0.0, 1.0])

    def test_zero(self):
        assert np.allclose(VectorPolynomial.zero(2).evaluate(3.7), [0, 0])

    def test_flip2_q1_root(self):
        # 1 - z^2 vanishes at 1
        q1 = vp([[1, 0, -1]])
        assert q1.evaluate(1.0)[0] == pytest.approx(0.0)
        assert q1.evaluate(2.0)[0] == pytest.approx(-3.0)


class TestOps:
    def test_z_mul_shifts(self):
        r = vp([[1], [], []])
        assert r.z_mul().comps == ((0j, 1.0 + 0j), (), ())

    def test_additive_cancellation(self):
        a = vp([[1], []])
        b = vp([[-1], []])
        assert (a + b).is_zero

    def test_scalar_poly_mul_height(self):
        b = vp([[], [1]])
        out = b.scalar_poly_mul([0, 0, 1])  # times z^2
        assert out.comps == ((), (0j, 0j, 1.0 + 0j))
        assert height(out) == 5

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            vp([[1], []]) + vp([[1], [], []])

    def test_conjugate_coeffs(self):
        r = vp([[1 + 2j], [3 - 1j]])
        assert r.conjugate_coeffs().comps == (((1 - 2j),), ((3 + 1j),))


class TestCoeffVector:
    def test_round_trip(self):
        r = vp([[1, 2], [3], [0, 0, 4]])
        coords = to_coeff_vector(r, 12)
        back = from_coeff_vector(coords, 3)
        assert poly_allclose(r, back, tol=0)

    def test_window_too_small(self):
        r = vp([[0, 0, 1]])
        with pytest.raises(ValueError):
            to_coeff_vector(r, 2)

    def test_nan_past_the_window_raises(self):
        # a NaN is a stored coefficient: height 1 does not fit a window of 1
        r = vp([[1, float("nan")]], 1)
        assert height(r) == 1
        with pytest.raises(ValueError):
            to_coeff_vector(r, 1)
        assert np.isnan(to_coeff_vector(r, 2)[1])


coeff = st.complex_numbers(
    min_magnitude=0, max_magnitude=1e6, allow_nan=False, allow_infinity=False
)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.lists(coeff, max_size=6), min_size=n, max_size=n
            ),
        )
    ),
    st.integers(min_value=1, max_value=4),
)
def test_height_shift_law(n_comps, l):
    n, comps = n_comps
    r = VectorPolynomial.from_components(comps, n)
    h = height(r)
    shifted = height(r.z_mul(l))
    if h == MINUS_INF:
        assert shifted == MINUS_INF
    else:
        assert shifted == h + n * l


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=40))
def test_coeff_vector_round_trip(n, length):
    rng = np.random.default_rng(length * 7 + n)
    coords = rng.normal(size=length) + 1j * rng.normal(size=length)
    r = from_coeff_vector(coords, n)
    assert np.allclose(to_coeff_vector(r, length), coords)


def _same_poly(a, b):
    """Equal dimension and coefficients, bit for bit (repr tells -0.0 from 0.0)."""
    return repr((a.n, a.comps)) == repr((b.n, b.comps))


LISTED_COORDS = [
    [],
    [0.0],
    [1 + 2j, -0.0, 3.5, 0j, 0j, 0j, 0j],
    [0.0, -0.0j, 1e-13, 2e-13, -5e-13j, 0.0, 1e-12, 0.0],
    [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0],
    [float("nan"), 1.0, float("inf"), 0.0],
]


class TestFromCoeffVectorMatchesReference:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("coords", LISTED_COORDS)
    def test_listed(self, n, coords):
        for c in (coords, np.asarray(coords, dtype=complex)):
            assert _same_poly(from_coeff_vector(c, n), reference_from_coeff_vector(c, n))

    @pytest.mark.parametrize("scale", [1e-12, -0.5])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("coords", LISTED_COORDS)
    def test_listed_scaled(self, n, coords, scale):
        # only exact zeros are trimmed, so a nonzero scale keeps every component's length
        a = np.array([complex(c.real * scale, c.imag * scale) for c in map(complex, coords)])
        r = from_coeff_vector(a, n)
        assert _same_poly(r, reference_from_coeff_vector(a, n))
        assert [len(c) for c in r.comps] == [len(c) for c in from_coeff_vector(coords, n).comps]

    def test_tiny_coefficients_are_kept(self):
        coords = [1.0, 0.0, 5e-13, 2e-13]
        r = from_coeff_vector(coords, 2)
        assert r.comps == ((1 + 0j, 5e-13 + 0j), (0j, 2e-13 + 0j))
        assert _same_poly(r, reference_from_coeff_vector(coords, 2))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_real_and_integer_arrays(self, n):
        for coords in (np.array([1.0, -0.0, 0.0, 2.5, 0.0]), np.array([3, 0, 1, 0, 0, 0])):
            assert _same_poly(from_coeff_vector(coords, n), reference_from_coeff_vector(coords, n))

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=1, max_value=3),
        st.lists(st.one_of(coeff, st.sampled_from([0j, -0.0 + 0j, 1e-13, -2e-12j])), max_size=14),
    )
    def test_random(self, n, coords):
        a = np.asarray(coords, dtype=complex)
        assert _same_poly(from_coeff_vector(a, n), reference_from_coeff_vector(a, n))


special = st.sampled_from(
    [0j, complex(-0.0, 0.0), complex(0.0, -0.0), 1e-13, -2e-12j, 1e-12, float("nan"),
     complex(0.0, float("nan")), float("inf"), complex(-float("inf"), 1.0)]
)


class TestTrimMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.one_of(coeff, special), max_size=12),
        st.sampled_from([list, tuple, lambda c: np.asarray(c, dtype=complex)]),
    )
    def test_random(self, coeffs, kind):
        got, ref = _trim(kind(coeffs)), _reference_trim(kind(coeffs))
        assert repr(got) == repr(ref)
        assert all(type(c) is complex for c in got)

    def test_real_and_integer_entries(self):
        for coeffs in ([1, 0, 0], [2.5, -0.0, 0.0], np.array([3, 0, 1, 0])):
            assert repr(_trim(coeffs)) == repr(_reference_trim(coeffs))

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 3),
        st.integers(0, 4),
        st.lists(st.one_of(coeff, special), min_size=0, max_size=24),
    )
    def test_rows_match_single_vectors(self, n, count, flat):
        width = len(flat) // max(count, 1)
        rows = np.asarray(flat[: count * width], dtype=complex).reshape(count, width)
        got = from_coeff_rows(rows, n)
        assert len(got) == count
        for poly, row in zip(got, rows):
            assert _same_poly(poly, reference_from_coeff_vector(row, n))


edge_entries = st.sampled_from(
    [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), float("nan"),
     complex(-0.0, float("nan")), 1e-300, complex(-0.0, -1e-300), complex(5e-324, 0.0)]
)

edge_comps = st.integers(1, 3).flatmap(
    lambda n: st.lists(
        st.lists(st.one_of(edge_entries, edge_entries, coeff), max_size=7), min_size=n, max_size=n
    )
)


def reference_height(comps):
    """max (n deg(r_j) + j - 1) over the trimmed components; -inf if all are empty."""
    n = len(comps)
    return max((n * (len(c) - 1) + j for j, c in enumerate(comps) if c), default=MINUS_INF)


def reference_coeff_vector(comps, length):
    """The trimmed components written slot by slot into zeros."""
    out = np.zeros(length, dtype=complex)
    for j, comp in enumerate(comps):
        out[j :: len(comps)][: len(comp)] = comp
    return out


class TestArrayCore:
    """The stored array against the per-component trim, height and slot writes."""

    @settings(max_examples=300, deadline=None)
    @given(edge_comps)
    def test_comps_keep_their_repr(self, comps):
        r = vp(comps)
        assert repr(r.comps) == repr(tuple(_reference_trim(c) for c in comps))
        assert all(type(c) is complex for comp in r.comps for c in comp)
        assert not r.coeffs.flags.writeable and r.coeffs.dtype == complex

    @settings(max_examples=300, deadline=None)
    @given(edge_comps)
    def test_height_is_the_array_length_less_one(self, comps):
        r = vp(comps)
        assert height(r) == reference_height(r.comps)
        assert height(r) == (r.coeffs.size - 1 if r.coeffs.size else MINUS_INF)
        assert r.is_zero == (r.coeffs.size == 0)

    @settings(max_examples=300, deadline=None)
    @given(edge_comps, st.integers(0, 4))
    @example([[1.0, complex(-0.0, -0.0)], [1.0, 1.0]], 0)  # -0.0 past the end of slot 0
    def test_coeff_vector_and_rows_round_trip(self, comps, spare):
        r = vp(comps)
        n, length = r.n, r.coeffs.size + spare
        coords = to_coeff_vector(r, length)
        # the stored array, then +0.0; the slot writes' values, where a zero past
        # the end of its slot may keep its sign
        assert coords.tobytes() == r.coeffs.tobytes() + bytes(16 * spare)
        ref = reference_coeff_vector(r.comps, length)
        assert np.array_equal(coords, ref, equal_nan=True)
        rows = np.vstack([coords, np.zeros(length), coords[::-1]])
        back, zero, flipped = from_coeff_rows(rows, n)
        assert _same_poly(back, r) and back.coeffs.tobytes() == r.coeffs.tobytes()
        assert zero.is_zero and _same_poly(zero, VectorPolynomial.zero(n))
        assert _same_poly(flipped, reference_from_coeff_vector(coords[::-1], n))
        assert to_coeff_vector(flipped, length).tobytes() == (
            coords[::-1][: flipped.coeffs.size].tobytes() + bytes(16 * (length - flipped.coeffs.size)))


class TestEvaluateAt:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 3).flatmap(
            lambda n: st.lists(st.lists(st.one_of(coeff, special), max_size=7), min_size=n, max_size=n)
        ),
        st.lists(
            st.one_of(st.floats(-50.0, 50.0), st.sampled_from([0.0, -0.0, 1e-300, -1e200])),
            max_size=6,
        ),
    )
    def test_matches_evaluate_at_finite_points(self, comps, ts):
        # the scalar Horner loop of ``evaluate`` is the reference: NaN and inf in
        # the same real and imaginary parts, the finite values within the bound
        # of the Horner scale
        r = VectorPolynomial.from_components(comps, len(comps))
        got = r.evaluate_at(np.array(ts))
        assert got.shape == (len(ts), r.n)
        for row, t in zip(got, ts):
            ref = r.evaluate(t)
            assert np.isnan(row.view(float)).tolist() == np.isnan(ref.view(float)).tolist()
            assert np.isinf(row.view(float)).tolist() == np.isinf(ref.view(float)).tolist()
            finite = np.isfinite(ref)
            assert_within(row[finite], ref[finite], horner_scale(r, t)[finite])

    def test_overflow_gives_inf_without_a_warning(self):
        # 1 + z^2 overflows at the first two points; a NaN coefficient and an
        # empty component keep to their own slots
        r = VectorPolynomial.from_components([[1.0, 0.0, 1.0], [2.0], [float("nan"), 1.0], []], 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = r.evaluate_at(np.array([1e200, -1e300, 3.0]))
        assert np.isinf(got[:2, 0].real).all() and got[2, 0] == 10.0
        assert got[:, 1].tolist() == [2.0] * 3
        assert np.isnan(got[:, 2]).all()
        assert got[:, 3].tolist() == [0.0] * 3

    def test_zero_polynomial(self):
        got = VectorPolynomial.zero(2).evaluate_at(np.array([1.0, -3.0]))
        assert got.tobytes() == np.zeros((2, 2), dtype=complex).tobytes()

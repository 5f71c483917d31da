import copy
import json
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specband import BoundaryMatrix, MatrixSpec, TailProfile, truncate
from specband import serialize as ser
from specband.cli import EXIT_OK, run_cli
from specband.reconstruct import orthonormalize, recover_band
from specband.spectral import StepMeasure
from specband.vectorpoly import VectorPolynomial

from conftest import gue_measure, make_fix7, pairs_as_lists, reference_dumps


finite_float = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12
)


class TestSpecRoundTrip:
    def test_fix7(self):
        spec = make_fix7()
        d = ser.spec_to_dict(spec)
        back = ser.spec_from_dict(json.loads(json.dumps(d)))
        assert back.entries == spec.entries
        assert back.pivot == spec.pivot
        assert back.tail == spec.tail
        assert back.n == spec.n and back.n_max == spec.n_max

    def test_with_profile(self):
        spec = MatrixSpec(
            1, 2, {(1, 2): 0.5 - 0.25j}, {2: 1}, (1, 2),
            TailProfile(1.5 + 0j, {1: -0.125j}),
        )
        back = ser.spec_from_dict(json.loads(json.dumps(ser.spec_to_dict(spec))))
        assert back.tail_profile.edge == 1.5 + 0j
        assert back.tail_profile.interior == {1: -0.125j}
        assert back.entries == spec.entries

    @settings(max_examples=50, deadline=None)
    @given(finite_float, finite_float)
    def test_entry_values_exact(self, re, im):
        spec = MatrixSpec(1, 2, {(1, 2): complex(re, im) or 1.0}, {2: 1}, (1, 2))
        back = ser.spec_from_dict(json.loads(json.dumps(ser.spec_to_dict(spec))))
        assert back.entries == spec.entries


class TestOtherRoundTrips:
    def test_dense_matrix(self):
        m = truncate(make_fix7(), 7)
        back = ser.matrix_from_dict(json.loads(ser.dumps(ser.matrix_to_dict(m))))
        assert np.array_equal(back.data, m.data)

    def test_boundary(self):
        t = BoundaryMatrix(2, np.array([[1.0, 0.5 + 2j], [0, 0.75]]))
        back = ser.boundary_from_dict(json.loads(ser.dumps(ser.boundary_to_dict(t))))
        assert np.array_equal(back.t, t.t)

    def test_measure(self):
        mu = StepMeasure(2, [-1.5, 0.25], [[0.1 + 0.2j, 0.3], [0.7, -0.4j]])
        back = ser.measure_from_dict(json.loads(json.dumps(ser.measure_to_dict(mu))))
        assert back.n == 2
        assert back.lambdas.tobytes() == mu.lambdas.tobytes()
        assert back.c.tobytes() == mu.c.tobytes()

    def test_poly(self):
        r = VectorPolynomial.from_components([[1, 2.5 - 1j], [0.125]], 2)
        back = ser.poly_from_dict(json.loads(json.dumps(ser.poly_to_dict(r))))
        assert back.comps == r.comps

    def test_sniff(self):
        spec = make_fix7()
        obj, kind = ser.sniff_matrix_or_spec(ser.spec_to_dict(spec))
        assert kind == "spec"
        dense = json.loads(ser.dumps(ser.matrix_to_dict(truncate(spec, 7))))
        obj, kind = ser.sniff_matrix_or_spec(dense)
        assert kind == "matrix"
        with pytest.raises(ValueError):
            ser.sniff_matrix_or_spec({"bogus": 1})


# Malformed documents for the decoders: a well-formed document of each kind
# with one to three of its nodes, reached by a walk from the top, replaced by
# junk or removed.
WELL_FORMED = {
    "measure": {"n": 2, "points": [{"lambda": 0.5, "C": [[1, 0], [0, 1]]},
                                   {"lambda": -1, "C": [[0.5, 0], [0, 0]]}]},
    "matrix": {"N": 2, "data": [[[1, 0], [0.5, 1]], [[0.5, -1], [2, 0]]]},
    "boundary": {"n": 2, "t": [[[1, 0], [0.5, 0]], [[0, 0], [2, 0]]]},
    "spec": {"n": 1, "N_max": 2, "entries": [[1, 2, 0.5, 0], [1, 1, 1, 0]], "pivot": {"2": 1},
             "tail": [1, 2], "tail_profile": {"edge": [1, 0], "interior": {"1": [0, 0.5]}}},
    "poly": {"n": 2, "comps": [[[1, 0]], [[0, 1], [2, 0]]]},
}
DECODERS = {
    "measure": ser.measure_from_dict,
    "matrix": ser.matrix_from_dict,
    "boundary": ser.boundary_from_dict,
    "spec": ser.spec_from_dict,
    "poly": ser.poly_from_dict,
}
junk = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(-3, 3), st.integers(2**63, 2**1100),
        st.floats(), st.sampled_from(["", "1", "nan", "1e400", "abc", "2.5"]),
        st.lists(st.floats(-2, 2), min_size=1, max_size=3),
    ),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["n", "N", "lambda", "C", "edge", "1", "x"]), inner, max_size=2),
    max_leaves=6,
)


def _mutated(data, node, top=True):
    if top and not node:  # a document stays an object
        return node
    if isinstance(node, (dict, list)) and node and (top or data.draw(st.booleans())):
        out = copy.copy(node)
        key = data.draw(st.sampled_from(list(out) if isinstance(out, dict) else range(len(out))))
        if isinstance(out, dict) and data.draw(st.integers(0, 3)) == 0:
            del out[key]
        else:
            out[key] = _mutated(data, out[key], top=False)
        return out
    return data.draw(junk)


def _finite(a):
    return np.isfinite(np.asarray(a, dtype=complex).view(float)).all()


def _decoded_object_holds(kind, doc, obj):
    """Whether a decoded object has the document's n or N, its shape and finite values."""
    if kind == "measure":
        n = doc["n"]
        return (type(n) is int and obj.n == n and obj.c.shape == (len(doc["points"]), n)
                and _finite(obj.lambdas) and _finite(obj.c))
    if kind == "matrix":
        N = doc["N"]
        return type(N) is int and obj.N == N and obj.data.shape == (N, N) and _finite(obj.data)
    if kind == "boundary":
        n = doc["n"]
        return type(n) is int and obj.n == n and obj.t.shape == (n, n) and _finite(obj.t)
    if kind == "poly":
        n = doc["n"]
        return (type(n) is int and obj.n == n and len(obj.comps) == n
                and all(_finite(list(c)) for c in obj.comps))
    profile = obj.tail_profile
    return (
        obj.n == doc["n"] and type(obj.n) is int and obj.n_max >= obj.n >= 1
        and all(min(key) >= 1 for key in obj.entries) and _finite(list(obj.entries.values()))
        and (obj.tail is None or obj.tail[1] > obj.tail[0] >= 1)
        and (profile is None or _finite([profile.edge, *profile.interior.values()]))
    )


class TestDecodersRefuseMalformedDocuments:
    @settings(max_examples=600, deadline=None)
    @given(st.sampled_from(sorted(DECODERS)), st.integers(1, 3), st.data())
    def test_object_holds_or_error_names_a_field(self, kind, mutations, data):
        doc = WELL_FORMED[kind]
        for _ in range(mutations):
            doc = _mutated(data, doc)
        try:
            obj = DECODERS[kind](doc)
        except ValueError as exc:
            assert re.search(r"field '\w+'|^(point \d+|tail_profile): ", str(exc)), str(exc)
        else:
            assert _decoded_object_holds(kind, doc, obj), (doc, obj)

    def test_empty_measure_of_too_large_an_order_names_n(self):
        with pytest.raises(ValueError, match="^field 'n' cannot hold 9223372036854775808$"):
            ser.measure_from_dict({"n": 2**63, "points": []})

    @pytest.mark.parametrize("kind", sorted(DECODERS))
    def test_well_formed_documents_decode(self, kind):
        assert _decoded_object_holds(kind, WELL_FORMED[kind], DECODERS[kind](WELL_FORMED[kind]))


# JSON trees for the emitter: every scalar json writes (NaN, infinities,
# -0.0, ints beyond 64 bits, non-ASCII and escaped strings), np.float64
# leaves, dict keys of every kind json accepts, tuples, empty containers
# and lists of (ragged, mixed-type) scalar lists such as [re, im] pairs.
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200).map(lambda i: i * (-1) ** (i % 2)),
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 1e-300, 5e-324]),
    st.floats().map(np.float64),
    st.text(max_size=6),
    st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\u2028", "é", "😀", "],\n[", ",\n"]),
)
json_keys = st.one_of(
    st.text(max_size=4), st.integers(), st.floats(), st.booleans(), st.none()
)
scalar_rows = st.lists(st.lists(json_scalars, min_size=1, max_size=3), max_size=3)
pair_rows = st.lists(
    st.tuples(st.floats(), st.floats()) | st.lists(st.floats(), min_size=2, max_size=2),
    min_size=1,
    max_size=3,
)


def _nest(inner):
    return st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(json_keys, inner, max_size=3),
    )


json_leaves = st.one_of(json_scalars, scalar_rows, pair_rows)
json_trees = _nest(st.one_of(json_leaves, _nest(st.one_of(json_leaves, _nest(json_leaves)))))


class TestDumpsMatchesReference:
    @settings(max_examples=2000, deadline=None)
    @given(json_trees)
    def test_random_trees(self, obj):
        assert ser.dumps(obj) == reference_dumps(obj)

    @pytest.mark.parametrize(
        "obj",
        [
            0,
            "",
            float("nan"),
            [],
            {},
            [[]],
            [{}],
            {"": []},
            [[1.0, 2.0], []],
            [[1.0, 2.0], [3.0, [4.0]]],
            [(-0.0, float("inf")), [float("nan"), -float("inf")]],
            [[1, "a", None, True], [2**70], [False, 0.5]],
            {1: [1], 1.5: {"x": []}, None: [[0.0, 1.0]], True: (2,), "k": 3},
            [1, [2], 3, 4, [[5]], "s", {}],
            {"a": np.float64(0.1), "b": [np.float64("nan"), 1.0]},
        ],
    )
    def test_listed(self, obj):
        assert ser.dumps(obj) == reference_dumps(obj)

    def test_payloads(self):
        spec = make_fix7()
        for d in (
            ser.spec_to_dict(spec),
            ser.matrix_to_dict(truncate(spec, 7)),
            ser.boundary_to_dict(BoundaryMatrix(2, np.array([[1.0, 0.5 + 2j], [0, 0.75]]))),
        ):
            assert ser.dumps(d) == reference_dumps(pairs_as_lists(d))

    @pytest.mark.parametrize(
        "obj",
        [
            [1, 2j],
            {"a": [1, {(1, 2): 3}]},
            {"a": np.int64(3)},
            [[1.0, 2.0], [3.0, {1, 2}]],
            {"a": 1, "b": object(), "c": [1j]},
            {(1,): [1]},
            [np.array([1.0])],
        ],
    )
    def test_same_type_error(self, obj):
        with pytest.raises(TypeError) as expected:
            reference_dumps(obj)
        with pytest.raises(TypeError) as got:
            ser.dumps(obj)
        assert str(got.value) == str(expected.value)

    def test_circular_reference(self):
        a = [1.0]
        a.append({"a": a})
        with pytest.raises(ValueError, match="Circular reference detected"):
            reference_dumps(a)
        with pytest.raises(ValueError, match="Circular reference detected"):
            ser.dumps(a)

    def test_dump_writes_the_reference_text(self, tmp_path):
        d = ser.spec_to_dict(make_fix7())
        path = tmp_path / "spec.json"
        ser.dump(d, path)
        assert path.read_text(encoding="utf-8") == reference_dumps(d) + "\n"
        assert ser.dump(d) == reference_dumps(d)


def _large_block(rows=20, cols=10):
    """A rows x cols nesting of distinct finite floats."""
    return [[(-1) ** k * (j + 0.5 * k) / 7 for k in range(cols)] for j in range(rows)]


def _with(block, j, k, value):
    block = [list(row) for row in block]
    block[j][k] = value
    return block


class TestNestedListsAndPairs:
    @pytest.mark.parametrize(
        "block",
        [
            _with(_large_block(), 3, 4, float("nan")),
            _with(_large_block(), 0, 0, float("inf")),
            _with(_large_block(), 19, 9, -float("inf")),
            _with(_large_block(), 5, 5, np.float64(0.1)),
            _with(_large_block(), 5, 5, 7),
            _with(_large_block(), 5, 5, True),
            _with(_large_block(), 5, 5, None),
            _with(_large_block(), 5, 5, "x"),
            _with(_large_block(), 5, 5, 2**70),
            [[j, k] for j in range(100) for k in range(2)],
            [[True, False]] * 100,
            [[1e308, 1e308]] * 100,  # finite, near the largest float
            _large_block()[:-1] + [_large_block()[-1][:-1]],  # ragged
            _large_block()[:-1] + [_large_block()[-1] + [1.0]],
            _large_block()[:-1] + [[]],
            _large_block()[:-1] + [[[1.0]] * 10],
            [tuple(row) for row in _large_block()],
            tuple(_large_block()),
            [[[1.0, 2.0]] * 10, [[3.0, 4.0]] * 10] * 10,  # rows shared, not circular
            _with([[1.0, 2.0]] * 100, 50, 1, [2.0]),  # a leaf that is a list
        ],
    )
    def test_fallbacks(self, block):
        assert ser.dumps(block) == reference_dumps(block)
        assert ser.dumps({"a": [block]}) == reference_dumps({"a": [block]})

    def test_self_containing_lists(self):
        a = []
        a.append(a)
        b = [1.0]
        b.append(b)
        for obj in (a, [[1.0, 2.0], b], [a, a]):
            with pytest.raises(ValueError, match="Circular reference detected"):
                reference_dumps(obj)
            with pytest.raises(ValueError, match="Circular reference detected"):
                ser.dumps(obj)

    def test_reconstruct_output(self, tmp_path):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(80, 80)) + 1j * rng.normal(size=(80, 80))
        lam, phi = np.linalg.eigh(a + a.conj().T)
        sigma, out = tmp_path / "sigma.json", tmp_path / "out.json"
        ser.dump(ser.measure_to_dict(StepMeasure(3, lam, phi[:3].T)), sigma)
        with mock.patch.object(ser, "_deduped_reprs", wraps=ser._deduped_reprs) as dedupe:
            assert run_cli(["reconstruct", str(sigma), "--max-k", "80", "-o", str(out)]) == EXIT_OK
        text = out.read_text(encoding="utf-8")
        doc = json.loads(text)
        # the matrix's nonzero pairs; the 3 x 3 boundary's are too few
        matrix = np.array(doc["matrix"]["data"]).view(complex)[..., 0]
        assert dedupe.call_count == _dedupe_calls(matrix) == 1
        assert len(doc["matrix"]["data"]) == doc["emitted"] >= 60
        assert text == reference_dumps(doc) + "\n"
        assert sigma.read_text(encoding="utf-8") == reference_dumps(json.loads(sigma.read_text())) + "\n"


# Arrays for ``serialize.Pairs``: complex or real, of 0-3 dimensions of 0-9
# entries each (up to 1,458 floats, on both sides of DEDUPE_MIN_LEAVES) or
# of 63 and 64 entries (126 and 128 floats, at it), 4 x 4 x 4 or 40 x 40,
# C-ordered or transposed.  Their parts are signed zeros, subnormals,
# +-1.7e308 and ordinary values, and in half the arrays also NaN and
# infinities, which send the array to the fallback.  A drawn share of the
# entries, up to all of them, is then made exactly (+0.0, +0.0), the pair
# that the writer shares one text for; -0.0 in either part keeps its own
# text, so that some arrays with most pairs zero cross DEDUPE_MIN_LEAVES
# only by their nonzero pairs.  Each array is nested 0-3 deep.
FINITE_PARTS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1.7e308, -1.7e308,
                0.1, -1 / 3, 2.5, 1e22]
NON_FINITE_PARTS = [float("nan"), float("inf"), -float("inf")]
NESTINGS = [lambda o: [o], lambda o: {"x": o}, lambda o: [1.5, o, "s"],
            lambda o: {"n": 2, "data": o, "t": [[0.5, -0.0]]}]


@st.composite
def pairs_arrays(draw):
    shape = draw(st.lists(st.integers(0, 9), max_size=3)
                 | st.sampled_from([[63], [64], [4, 4, 4], [40, 40]]))
    pool = FINITE_PARTS + (NON_FINITE_PARTS if draw(st.booleans()) else [])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = np.array(rng.choice(pool, size=shape))
    if draw(st.booleans()):
        a = a.astype(complex)
        a.imag = rng.choice(pool, size=shape)
    zero_share = draw(st.sampled_from([0.0, 0.5, 0.9, 0.98, 1.0]))
    a[rng.random(size=shape) < zero_share] = 0.0
    return a.T if draw(st.booleans()) else a


def _dedupe_calls(a):
    """1 where ``dumps`` dedupes the reprs of a finite array: its pairs other than
    (+0.0, +0.0) by bits hold ``DEDUPE_MIN_LEAVES`` floats or more; else 0."""
    if a.ndim == 0 or not np.isfinite(a).all():
        return 0
    parts = np.asarray(a, dtype=complex).ravel()
    parts = np.stack([parts.real, parts.imag], axis=-1)
    nonzero = np.signbit(parts).any(axis=1) | (parts != 0.0).any(axis=1)
    return int(2 * nonzero.sum() >= ser.DEDUPE_MIN_LEAVES)


class TestPairs:
    @settings(max_examples=400, deadline=None)
    @given(pairs_arrays(), st.lists(st.sampled_from(NESTINGS), max_size=3))
    def test_text_is_json_text_of_complex_pairs(self, a, nestings):
        obj = ser.Pairs(a)
        for nest in nestings:
            obj = nest(obj)
        with mock.patch.object(ser, "_deduped_reprs", wraps=ser._deduped_reprs) as dedupe:
            assert ser.dumps(obj) == reference_dumps(pairs_as_lists(obj))
        assert dedupe.call_count == _dedupe_calls(a)

    @pytest.mark.parametrize("a", [
        np.zeros((40, 40)),
        np.full((40, 40), complex(0.0, -0.0)),
        np.full((4, 4, 4), complex(-0.0, 0.0)),
        np.diag(np.full(39, -0.0), 1) + np.eye(40),
    ])
    def test_zero_and_negative_zero_pairs(self, a):
        assert ser.dumps({"a": ser.Pairs(a)}) == reference_dumps({"a": ser.complex_pairs(a)})

    def test_reconstructed_band(self):
        # the band of gue_measure(0, 3, 160) that reconstruct writes, mostly zero pairs
        m, _ = recover_band(orthonormalize(gue_measure(0, 3, 160), 160))
        pairs = m.data.view(float).reshape(-1, 2)
        assert (pairs == 0.0).all(axis=1).mean() > 0.8
        d = ser.matrix_to_dict(m)
        with mock.patch.object(ser, "_deduped_reprs", wraps=ser._deduped_reprs) as dedupe:
            assert ser.dumps(d) == reference_dumps(pairs_as_lists(d))
        assert dedupe.call_count == _dedupe_calls(m.data) == 1

    def test_json_refuses_pairs(self):
        with pytest.raises(TypeError, match="^Object of type Pairs is not JSON serializable$"):
            json.dumps({"a": ser.Pairs(np.eye(2))})


complex_entries = st.complex_numbers(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [complex(-0.0, -0.0), complex(0.0, -0.0), complex(float("nan"), -0.0)]
)


@settings(max_examples=200, deadline=None)
@given(st.lists(complex_entries, max_size=12), st.integers(min_value=1, max_value=3))
def test_complex_pairs_are_the_floats_of_c(values, width):
    a = np.array(values[: len(values) // width * width], dtype=complex).reshape(-1, width)
    expected = [[[complex(v).real, complex(v).imag] for v in row] for row in a]
    assert repr(ser.complex_pairs(a)) == repr(expected)
    assert repr(ser.complex_pairs(a.real)) == repr([[[v, 0.0] for v in row] for row in a.real.tolist()])

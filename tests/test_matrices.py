import copy
import hashlib
import json
import pickle
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specband import (
    GenProfile,
    MatrixSpec,
    MissingPivot,
    PivotViolation,
    StructureInfo,
    TailProfile,
    TailUndefined,
    analyze_structure,
    extend_tail,
    generate_random,
    truncate,
    validate_class,
)
from specband import matrices, serialize
from specband.cli import run_cli
from specband.errors import InconsistentProfile, SpecbandError
from specband.matrices import STRUCT_TOL
from conftest import (
    make_fix7,
    outcome,
    random_instance,
    reference_generate_random,
    reference_outcome,
    scan_column_topmost,
    scan_row_rightmost,
)


def brute_force_k_rows(dense, pivot, n, N):
    """Oracle: rows of the truncation not designated as pivot of any column."""
    piv_rows = {pivot[c] for c in pivot if n < c <= N}
    return sorted(set(range(1, N + 1)) - piv_rows)


class TestAnalyzeStructure:
    def test_flip2(self, flip2):
        s = analyze_structure(flip2, 2)
        assert s.K == (2,)
        assert s.K_perp == (1,)
        assert s.gamma == {2: 1}

    def test_fix7(self, fix7):
        s = analyze_structure(fix7, 7)
        assert s.K == (3, 5, 7)
        assert s.K_perp == (1, 2, 4, 6)
        assert s.gamma == {3: 1, 5: 2, 7: 3}

    def test_jac5_matches_rightmost_oracle(self, jac5):
        # oracle: enumerate rightmost nonzeros of the tridiagonal directly
        m = truncate(jac5, 5).data
        rightmost = {}
        for r in range(5):
            cols = np.nonzero(np.abs(m[r]) > 0)[0]
            rightmost[r + 1] = int(cols[-1]) + 1
        piv = {c: r for r, c in rightmost.items() if c > r and c > 1}
        s = analyze_structure(jac5, 5)
        assert dict(s.pivot) == piv
        assert s.K == (5,)

    def test_partial_truncation(self, fix7):
        s = analyze_structure(fix7, 6)
        assert s.K == (3, 5, 6)

    def test_partition_property(self):
        for seed in range(12):
            spec, N = random_instance(seed)
            s = analyze_structure(spec, N)
            assert len(s.K) == spec.n
            assert sorted(s.K + s.K_perp) == list(range(1, N + 1))

    def test_structure_from_pivot_map_on_acceptance_set(self):
        # the shared 50-instance set: the truncation's pivot map alone gives K,
        # K_perp and gamma as the analysis does
        for seed in range(50):
            rng = np.random.default_rng(seed)
            n = seed % 3 + 1
            N = int(rng.integers(n + 2, 21))
            spec = generate_random(GenProfile(n=n, n_max=max(N, n + 2)), seed)
            pivot = {c: spec.pivot[c] for c in range(n + 1, N + 1)}
            s = StructureInfo.from_pivot(n, N, pivot)
            assert s == analyze_structure(spec, N)
            assert list(s.K) == brute_force_k_rows(None, pivot, n, N)

    def test_structure_from_pivot_map_refuses_a_shared_row(self):
        with pytest.raises(PivotViolation, match="not injective"):
            StructureInfo.from_pivot(1, 3, {2: 1, 3: 1})

    @staticmethod
    def assert_first_breach(spec, error, message):
        """analyze_structure raises condition 1's first breach, in validate_class's words."""
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            analyze_structure(spec, spec.n_max)
        first = next(v for v in validate_class(spec).violations if v.clause == "1")
        assert first.message == message

    def test_missing_pivot(self, flip2):
        broken = MatrixSpec(1, 3, dict(flip2.entries) | {(2, 3): 1.0}, {2: 1}, (1, 2))
        self.assert_first_breach(broken, MissingPivot, "column 3 lacks a pivot row")

    def test_zero_pivot_entry(self):
        spec = MatrixSpec(1, 2, {(1, 1): 1.0, (2, 2): 1.0}, {2: 1}, (1, 2))
        self.assert_first_breach(spec, PivotViolation, "pivot entry (1,2) is zero")

    def test_pivot_not_rightmost(self):
        spec = MatrixSpec(
            1, 3, {(1, 2): 1.0, (1, 3): 1.0, (2, 3): 1.0}, {2: 1, 3: 2}, (2, 3)
        )
        self.assert_first_breach(
            spec, PivotViolation, "row 1 has a nonzero at column 3, right of its edge 2")


@st.composite
def broken_pivot_specs(draw):
    """Generated specs with one pivot dropped, moved to another row or pointed at a zero."""
    n = draw(st.integers(1, 3))
    n_max = draw(st.integers(n + 1, n + 8))
    base = generate_random(GenProfile(n, n_max, mtilde=draw(st.booleans())),
                           draw(st.integers(0, 10_000)))
    entries, pivot = dict(base.entries), dict(base.pivot)
    c = draw(st.integers(n + 1, n_max))
    how = draw(st.sampled_from(["drop", "move", "zero"]))
    if how == "drop":
        del pivot[c]
    elif how == "move":
        pivot[c] = draw(st.integers(1, n_max).filter(lambda r: r != pivot[c]))
    else:
        entries[(pivot[c], c)] = 0.0
    return MatrixSpec(n, n_max, entries, pivot, base.tail)


@settings(max_examples=300, deadline=None)
@given(broken_pivot_specs())
def test_analyze_structure_raises_exactly_what_condition_1_reports_first(spec):
    breaches = [v for v in validate_class(spec).violations if v.clause == "1"]
    if not breaches:
        analyze_structure(spec, spec.n_max)
        return
    first = breaches[0]
    error = MissingPivot if len(first.where) == 1 else PivotViolation
    with pytest.raises(SpecbandError) as caught:
        analyze_structure(spec, spec.n_max)
    assert (type(caught.value), str(caught.value)) == (error, first.message)


class TestValidateClass:
    @pytest.mark.parametrize("which", ["MTILDE", "m_tilde", "M"])
    def test_only_the_exact_class_names(self, fix7, which):
        with pytest.raises(ValueError, match="^class must be 'm' or 'mtilde'$"):
            validate_class(fix7, which)

    def test_fix7_m_passes_mtilde_fails(self, fix7):
        assert validate_class(fix7, "m").passed
        rep = validate_class(fix7, "mtilde")
        assert not rep.passed
        assert any(v.clause == "a" for v in rep.violations)

    def test_jac5_passes_both(self, jac5):
        assert validate_class(jac5, "m").passed
        assert validate_class(jac5, "mtilde").passed

    def test_fix7_deleted_pivot_fails_condition1(self):
        spec = make_fix7()
        entries = {k: v for k, v in spec.entries.items() if k != (1, 4)}
        broken = MatrixSpec(3, 7, entries, spec.pivot, spec.tail)
        rep = validate_class(broken, "m")
        assert not rep.passed
        assert any(v.clause == "1" and 4 in v.where for v in rep.violations)

    def test_missing_tail_fails_condition2(self, flip2):
        no_tail = MatrixSpec(1, 2, flip2.entries, flip2.pivot, None)
        rep = validate_class(no_tail, "m")
        assert any(v.clause == "2" for v in rep.violations)

    def test_complex_diagonal_flagged(self):
        spec = MatrixSpec(1, 2, {(1, 1): 1j, (1, 2): 1.0}, {2: 1}, (1, 2))
        rep = validate_class(spec, "m")
        assert any(v.clause == "hermitian" for v in rep.violations)

    def test_nonminimal_tail_warns(self):
        # tridiagonal declared with tail starting one step late
        entries = {(i, i + 1): 1.0 for i in range(1, 5)}
        spec = MatrixSpec(1, 5, entries, {c: c - 1 for c in range(2, 6)}, (2, 3))
        rep = validate_class(spec, "m")
        assert rep.passed
        assert any(w.clause == "minimality-tail" for w in rep.warnings)


class TestTruncate:
    def test_flip2(self, flip2):
        m = truncate(flip2, 2)
        assert np.allclose(m.data, [[0, 1], [1, 0]])

    def test_jac5_small(self, jac5):
        m = truncate(jac5, 3)
        assert np.allclose(m.data, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])

    def test_fix7_assembly(self, fix7):
        m = truncate(fix7, 7)
        assert m.hermiticity_defect() == 0.0
        assert m.data[0, 3] == 3.0  # edge of row 1
        assert m.data[5, 1] == 2.0  # mirror of (2,6)
        assert m.data[6, 0] == 0.0
        assert m.data[3, 5] == 0.0

    def test_hermitian_with_complex_entries(self):
        spec, N = random_instance(3, n=2)
        m = truncate(spec, N)
        assert m.hermiticity_defect() == 0.0

    def test_n_max_gives_the_stored_corner(self, fix7):
        expected = np.zeros((fix7.n_max, fix7.n_max), dtype=complex)
        for (j, k), v in fix7.entries.items():
            expected[j - 1, k - 1], expected[k - 1, j - 1] = v, v.conjugate()
        assert np.array_equal(truncate(fix7, fix7.n_max).data, expected)


class TestExtendTail:
    def test_jac5_extends_to_free_jacobi(self, jac5):
        ext = extend_tail(jac5, 8)
        d = truncate(ext, 8).data.real
        expected = np.diag(np.ones(7), 1) + np.diag(np.ones(7), -1)
        assert np.allclose(d, expected)

    def test_fix7_extension_still_valid(self, fix7):
        ext = extend_tail(fix7, 12)
        assert validate_class(ext, "m").passed
        s = analyze_structure(fix7, 12)
        assert s.K == (3, 5, 12)

    def test_no_tail_raises(self, flip2):
        no_tail = MatrixSpec(1, 2, flip2.entries, flip2.pivot, None)
        with pytest.raises(TailUndefined):
            extend_tail(no_tail, 3)
        with pytest.raises(TailUndefined):
            truncate(no_tail, 3)

    def test_truncate_commutes_with_extension(self, jac5, fix7):
        for spec, small, big in [(jac5, 4, 9), (fix7, 7, 13)]:
            a = truncate(spec, small).data
            b = truncate(extend_tail(spec, big), big).data[:small, :small]
            assert np.array_equal(a, b)

    @staticmethod
    def band6(profile=None, edge=2.0):
        """n = 2, N_max = 6, tail (1, 3): diagonal 0.5, first superdiagonal 0.25 and
        the edge on the second; (6, 7), right of N_max, is stored too."""
        entries = {(j, j): 0.5 for j in range(1, 7)}
        entries.update({(j, j + 1): 0.25 for j in range(1, 6)})
        entries.update({(j, j + 2): edge for j in range(1, 5)})
        entries[(6, 7)] = 0.125
        return MatrixSpec(2, 6, entries, {c: c - 2 for c in range(3, 7)}, (1, 3), profile)

    @staticmethod
    def new_entries(spec):
        """Entries that truncate(spec, N_max + 5) adds: the stored ones stay as they are."""
        data = truncate(spec, spec.n_max + 5).data
        assert all(data[j - 1, k - 1] == v for (j, k), v in spec.entries.items())
        assert extend_tail(spec, 11).pivot == {**spec.pivot, 7: 5, 8: 6, 9: 7, 10: 8, 11: 9}
        return {(j + 1, k + 1): data[j, k] for j, k in zip(*np.triu(data).nonzero())
                if (j + 1, k + 1) not in spec.entries}

    @staticmethod
    def tail_rows(edge, d1, d2):
        """Rows j0+m = 5..9 with their edge at column k0+m = 7..11, and the values
        d1 and d2 columns to its left where those lie right of N_max; (6, 7) is stored."""
        return ({(r, r + 2): edge for r in range(5, 10)} | {(r, r + 1): d1 for r in range(7, 10)}
                | {(r, r): d2 for r in range(7, 10)})

    def test_profile_fills_the_rows_past_n_max(self):
        spec = self.band6(TailProfile(-1.5, {1: 0.75j, 2: 3}))
        assert self.new_entries(spec) == self.tail_rows(-1.5, 0.75j, 3)

    @pytest.mark.parametrize("edge, new_edge", [(2.0, 2.0), (0.0, 1.0)])
    def test_without_a_profile_rows_repeat_row_j0(self, edge, new_edge):
        assert self.new_entries(self.band6(edge=edge)) == self.tail_rows(new_edge, 0.25, 0.5)

    def test_truncate_command_writes_the_profile(self, tmp_path, capsys):
        spec = self.band6(TailProfile(-1.5, {1: 0.75j, 2: 3}))
        path = tmp_path / "spec.json"
        serialize.dump(serialize.spec_to_dict(spec), path)
        assert run_cli(["truncate", str(path), "--N", "11"]) == 0
        data = serialize.matrix_from_dict(json.loads(capsys.readouterr().out)).data
        assert np.array_equal(data, truncate(spec, 11).data)
        assert (data[4, 6], data[7, 8], data[8, 8], data[5, 6]) == (-1.5, 0.75j, 3, 0.125)


class TestGenerateRandom:
    def test_deterministic(self):
        p = GenProfile(n=2, n_max=8)
        assert generate_random(p, 7).entries == generate_random(p, 7).entries

    def test_validates_m(self):
        rep = validate_class(generate_random(GenProfile(n=2, n_max=8), 7), "m")
        assert rep.passed

    def test_validates_mtilde(self):
        spec = generate_random(GenProfile(n=1, n_max=6, mtilde=True), 1)
        assert validate_class(spec, "mtilde").passed

    @pytest.mark.parametrize("mtilde", [False, True])
    def test_fuzz_many_seeds(self, mtilde):
        which = "mtilde" if mtilde else "m"
        for seed in range(100):
            n = 1 + seed % 3
            spec = generate_random(GenProfile(n=n, n_max=6 + seed % 9, mtilde=mtilde), seed)
            rep = validate_class(spec, which)
            assert rep.passed, (seed, [v.message for v in rep.violations])

    def test_edge_entries_away_from_zero(self):
        spec = generate_random(GenProfile(n=3, n_max=12), 5)
        for c, r in spec.pivot.items():
            assert abs(spec.entry(r, c)) >= 0.5


class TestEntriesReadOnly:
    def test_item_assignment_raises(self, fix7):
        with pytest.raises(TypeError):
            fix7.entries[(1, 1)] = 5.0
        with pytest.raises(TypeError):
            del fix7.entries[(1, 1)]
        assert fix7.entry(1, 1) == 1.0

    def test_pickle_and_deepcopy_rebuild_the_index(self, fix7):
        for clone in (pickle.loads(pickle.dumps(fix7)), copy.deepcopy(fix7)):
            assert clone == fix7
            assert clone.row_rightmost(2) == 6 and clone.column_topmost(5) == 2
            with pytest.raises(TypeError):
                clone.entries[(1, 1)] = 5.0


# -- the block-draw generator against the scalar-draw reference -------------


def generated(profile, seed, generate=generate_random):
    """Entry bytes, pivot and tail of a generated spec, or what generation raised."""

    def summary():
        spec = generate(profile, seed)
        entries = sorted((key, np.complex128(v).tobytes()) for key, v in spec.entries.items())
        return entries, spec.pivot, spec.tail

    return outcome(summary)


def explicit_profiles(profile, seed):
    """The profile with the tail of its spec spelled out, and with inconsistent tails."""
    spec = generate_random(profile, seed)
    (j0, k0), n = spec.tail, profile.n
    return [
        replace(profile, tail=(j0, k0)),
        replace(profile, tail=(j0, k0 + n)),
        replace(profile, tail=(1, n + 1)),
        replace(profile, tail=(1, n)),
        replace(profile, tail=(k0, k0 + 1)),
    ]


#: sha256 of serialize.dumps(spec_to_dict(generate_random(profile, seed))) as the
#: scalar-draw generator wrote it; a drift in the draw order changes them
PINNED_DIGESTS = [
    (GenProfile(n=1, n_max=10), 0,
     "bbafa85f5ba2cd64142a1f100b7fafef872a970859e4719a7ca1aeedd69c4689"),
    (GenProfile(n=2, n_max=20, mtilde=True), 1,
     "421992657895196905425bce20c2104a5e2e743a2ae7ec6dd6ae842a03f7eeec"),
    (GenProfile(n=2, n_max=40), 2,
     "4d6a46232e5224d471cf498b4114e345a70517f847abcb182bf67721fd433ac7"),
    (GenProfile(n=3, n_max=80, mtilde=True), 3,
     "da00d8f4f8da10b6c8212ead43f060dcb381c6d0d9e46ad4ec153f28625f335f"),
    (GenProfile(n=3, n_max=160), 4,
     "ad9ba136ecec3db2ebd832429190adc7073a0d5ddb745aa8ca547c1e74332914"),
    (GenProfile(n=1, n_max=160, mtilde=True, complex_entries=False), 5,
     "882bb27ed10858f0386505be73e150482d8d72965459c8a6d07f602df4fa2251"),
]


class NoScalarUniform:
    """A generator that refuses ``uniform`` calls and passes the rest on."""

    def __init__(self, rng):
        self._rng = rng

    def uniform(self, *args, **kwargs):
        raise AssertionError("scalar uniform draw")

    def __getattr__(self, name):
        return getattr(self._rng, name)


class TestGenerateRandomMatchesReference:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("mtilde", [False, True])
    def test_every_size(self, n, mtilde):
        # every N from n+1 to 160, each with one entry kind
        for N in range(n + 1, 161):
            profile = GenProfile(n=n, n_max=N, mtilde=mtilde, complex_entries=N % 3 != 0)
            seed = 31 * N + n
            assert generated(profile, seed) == generated(
                profile, seed, reference_generate_random
            ), (N, seed)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("complex_entries", [False, True])
    @pytest.mark.parametrize("mtilde", [False, True])
    def test_explicit_tail(self, n, complex_entries, mtilde):
        for seed in range(6):
            base = GenProfile(n=n, n_max=n + 4 + 7 * seed, mtilde=mtilde,
                              complex_entries=complex_entries)
            for profile in explicit_profiles(base, seed):
                assert generated(profile, seed) == generated(
                    profile, seed, reference_generate_random
                ), profile

    @pytest.mark.parametrize("n, n_max", [(0, 4), (2, 2), (3, 1)])
    def test_same_refusal_of_a_bad_size(self, n, n_max):
        profile = GenProfile(n=n, n_max=n_max)
        got = generated(profile, 0)
        assert got[0] is InconsistentProfile
        assert got == generated(profile, 0, reference_generate_random)

    @pytest.mark.parametrize(
        "tail, message",
        [
            ((3, 3), "tail offset must lie in 1..n"),
            ((3, 6), "tail offset must lie in 1..n"),
            ((2, 1), "tail offset must lie in 1..n"),
            ((1, 2), "tail must start beyond the boundary columns"),
            ((0, 2), "tail must start beyond the boundary columns"),
            ((9, 10), "tail must start by column N_max + 1"),
            ((8, 10), "tail must start by column N_max + 1"),
            ((10, 12), "tail must start by column N_max + 1"),
        ],
    )
    def test_same_refusal_of_a_bad_tail(self, tail, message):
        profile = GenProfile(n=2, n_max=8, tail=tail)
        got = generated(profile, 0)
        assert got == (InconsistentProfile, message)
        assert got == generated(profile, 0, reference_generate_random)

    @pytest.mark.parametrize("profile, seed, digest", PINNED_DIGESTS)
    def test_pinned_digest(self, profile, seed, digest):
        text = serialize.dumps(serialize.spec_to_dict(generate_random(profile, seed)))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("mtilde", [False, True])
    def test_no_scalar_uniform_draw(self, mtilde, monkeypatch):
        profile = GenProfile(n=3, n_max=40, mtilde=mtilde)
        expected = generated(profile, 9)
        default_rng = np.random.default_rng
        monkeypatch.setattr(matrices.np.random, "default_rng",
                            lambda seed: NoScalarUniform(default_rng(seed)))
        assert generated(profile, 9) == expected


# -- the structural index against brute-force scans of every entry ----------


def assert_index_matches_scans(spec, N=None):
    """Every structural query, analysis and validation equals the full-scan reference."""
    tol = STRUCT_TOL * max(max((abs(v) for v in spec.entries.values()), default=0.0), 1.0)
    assert spec.struct_tol() == tol
    top = spec.n_max + 2
    for j in range(top):
        assert spec.row_rightmost(j) == scan_row_rightmost(spec, j), j
    for k in range(top):
        assert spec.column_topmost(k) == scan_column_topmost(spec, k), k
    for size in {N or spec.n_max, spec.n_max}:
        if size > spec.n:
            assert outcome(analyze_structure, spec, size) == reference_outcome(
                analyze_structure, spec, size
            )
    for which in ("m", "mtilde"):
        report = validate_class(spec, which).to_dict()
        assert report == reference_outcome(lambda s: validate_class(s, which).to_dict(), spec)


def acceptance_instance(seed, N_hi=20, mtilde=False):
    """The acceptance suite's seeded instance (n = seed % 3 + 1, N in n+2..N_hi)."""
    rng = np.random.default_rng(seed)
    n = seed % 3 + 1
    N = int(rng.integers(n + 2, N_hi + 1))
    return generate_random(GenProfile(n=n, n_max=max(N, n + 2), mtilde=mtilde), seed), N


class TestIndexMatchesScans:
    @pytest.mark.parametrize("mtilde", [False, True])
    def test_acceptance_set(self, mtilde):
        for seed in range(50):
            spec, N = acceptance_instance(seed, mtilde=mtilde)
            assert_index_matches_scans(spec, N)

    def test_extended_tails(self, fix7, jac5):
        for seed in range(0, 50, 5):
            spec, N = acceptance_instance(seed)
            assert_index_matches_scans(extend_tail(spec, N + 9), N + 9)
            # analyze_structure extends the tail itself when N exceeds n_max
            assert outcome(analyze_structure, spec, N + 9) == reference_outcome(
                analyze_structure, spec, N + 9
            )
        assert_index_matches_scans(extend_tail(fix7, 13))
        assert_index_matches_scans(extend_tail(jac5, 9))

    def test_fixtures_and_broken_specs(self, flip2, jac5, fix7):
        for spec in (flip2, jac5, fix7, make_fix7(m25=0.0), make_fix7(m35=0.0)):
            assert_index_matches_scans(spec)
        assert_index_matches_scans(MatrixSpec(1, 3, {(1, 2): 1.0, (2, 3): 1.0}, {2: 1}, (1, 2)))
        assert_index_matches_scans(MatrixSpec(2, 4, {}, {}, None))


#: magnitudes relative to the structural threshold STRUCT_TOL * max(max_abs, 1)
THRESHOLD_LEVELS = ("at", "below", "above", "far_below")


def _near_threshold(level, tol, phase):
    mag = {
        "at": tol,
        "below": np.nextafter(tol, 0.0),
        "above": np.nextafter(tol, np.inf),
        "far_below": 0.5 * tol,
    }[level]
    # a real or purely imaginary value keeps abs() exactly at the magnitude
    return complex(mag * phase) if phase in (1, -1) else complex(0.0, mag)


@st.composite
def threshold_specs(draw):
    """Generated specs rescaled (max_abs below or above 1), some entries at the threshold."""
    n = draw(st.integers(1, 3))
    n_max = draw(st.integers(n + 2, 14))
    seed = draw(st.integers(0, 10_000))
    mtilde = draw(st.booleans())
    base = generate_random(GenProfile(n=n, n_max=n_max, mtilde=mtilde), seed)
    factor = draw(st.sampled_from([1e-3, 0.4, 1.0, 6.0, 2e4]))
    entries = {key: v * factor for key, v in base.entries.items()}
    scale = max(abs(v) for v in entries.values())
    tol = STRUCT_TOL * max(scale, 1.0)
    # keep the largest entry, so the threshold stays where it was computed
    keys = [
        (j, k)
        for j in range(1, n_max + 1)
        for k in range(j, n_max + 1)
        if abs(entries.get((j, k), 0.0)) < scale
    ]
    picked = draw(st.lists(st.sampled_from(keys), max_size=6, unique=True))
    for key in picked:
        level = draw(st.sampled_from(THRESHOLD_LEVELS))
        entries[key] = _near_threshold(level, tol, draw(st.sampled_from([1, -1, 1j])))
    return MatrixSpec(n, n_max, entries, base.pivot, base.tail)


@st.composite
def sparse_specs(draw):
    """Arbitrary sparse specs with random pivots and tails, thresholds included."""
    n = draw(st.integers(1, 3))
    n_max = draw(st.integers(max(n, 2), 10))
    scale = draw(st.sampled_from([0.3, 1.0, 50.0]))
    tol = STRUCT_TOL * max(scale, 1.0)
    # entries may lie beyond the declared size; queries stop at n_max
    keys = [(j, k) for j in range(1, n_max + 2) for k in range(j, n_max + 2)]
    entries = {keys[0]: complex(scale)}
    for key in draw(st.lists(st.sampled_from(keys[1:]), max_size=20, unique=True)):
        kind = draw(st.sampled_from(("value",) + THRESHOLD_LEVELS))
        if kind == "value":
            half = scale / 2
            entries[key] = complex(draw(st.floats(-half, half)), draw(st.floats(-half, half)))
        else:
            entries[key] = _near_threshold(kind, tol, 1)
    tail = draw(st.none() | st.tuples(st.integers(1, n_max), st.integers(1, 3)))
    if tail is not None:
        tail = (tail[0], tail[0] + tail[1])
    if draw(st.booleans()):  # pivots read off the entries, so checks get past column n+1
        bare = MatrixSpec(n, n_max, entries, {}, tail)
        pivot = {c: scan_column_topmost(bare, c) for c in range(n + 1, n_max + 1)}
    else:
        pivot = draw(
            st.dictionaries(st.integers(n + 1, n_max + 1), st.integers(1, n_max + 1), max_size=8)
        )
    return MatrixSpec(n, n_max, entries, pivot, tail)


@settings(max_examples=150, deadline=None)
@given(threshold_specs())
def test_index_matches_scans_near_threshold(spec):
    assert_index_matches_scans(spec)


@settings(max_examples=150, deadline=None)
@given(sparse_specs())
def test_index_matches_scans_on_sparse_specs(spec):
    assert_index_matches_scans(spec)


def _band_spec(entries=(), pivot=(), tail=(1, 3), profile=None):
    """n=2, N_max=6, tail (1, 3): edges (j, j+2), a real diagonal, and what is given."""
    stored = {(j, j + 2): 1.0 for j in range(1, 5)} | {(j, j): 0.5 for j in range(1, 7)}
    return MatrixSpec(2, 6, stored | dict(entries), {c: c - 2 for c in range(3, 7)} | dict(pivot),
                      tail, profile)


class TestValidateWhatTruncationsUse:
    """validate_class reads what extend_tail reads past the corner."""

    def test_base_spec_validates_and_extends(self):
        spec = _band_spec()
        assert validate_class(spec, "m").passed and validate_class(spec, "mtilde").passed
        assert analyze_structure(spec, 9).K == (8, 9)

    @pytest.mark.parametrize("spec, clause, message", [
        (_band_spec({(1, 9): 1.0}), "size", "entry (1,9) lies beyond N_max=6"),
        (_band_spec(tail=(20, 21)), "size", "tail (20,21) starts beyond column 7"),
        (_band_spec(profile=TailProfile(0.0)), "tail", "the tail's edge value 0j is zero"),
        # extend_tail reads the profile's offsets 1..k0-j0 only
        (_band_spec(profile=TailProfile(1.0, {5: 7.0})), "tail",
         "tail profile offset 5 lies outside 1..2"),
        (_band_spec(profile=TailProfile(1.0, {0: 3.0})), "tail",
         "tail profile offset 0 lies outside 1..2"),
        (_band_spec({(7, 8): 1.0}, {8: 6}), "size", "pivot of column 8 lies beyond N_max=6"),
        # the tail's first row, 2, already pivots column 4
        (MatrixSpec(3, 4, {(2, 4): 1.0}, {4: 2}, (2, 5)), "tail",
         "row 2 pivots column 4 and tail column 5"),
        # beside an edge of 1e15 the stored edges of 1 read as zeros
        (_band_spec(profile=TailProfile(1e15)), "tail",
         "entry (1,3) is zero beside the tail's values"),
    ])
    @pytest.mark.parametrize("which", ["m", "mtilde"])
    def test_reports_what_the_extension_breaks(self, spec, clause, message, which):
        violations = validate_class(spec, which).violations
        assert (clause, message) in {(v.clause, v.message) for v in violations}

    def test_a_tail_at_column_n_max_plus_1_takes_edge_1(self):
        # without a profile the edge past N_max is 1, a structural zero beside 1e15
        spec = MatrixSpec(1, 2, {(1, 2): 1e15}, {2: 1}, (2, 3))
        assert [v.message for v in validate_class(spec).violations] == [
            "the tail's edge value (1+0j) is zero"]


@st.composite
def perturbed_specs(draw):
    """Generated specs with stray entries, pivots, tails and tail profiles up to N_max + 3."""
    n = draw(st.integers(1, 3))
    n_max = draw(st.integers(n + 1, n + 6))
    base = generate_random(GenProfile(n, n_max, mtilde=draw(st.booleans())),
                           draw(st.integers(0, 10_000)))
    entries, pivot, tail, profile = dict(base.entries), dict(base.pivot), base.tail, None
    hi = n_max + 3
    values = st.sampled_from([0.0, 1e-20, 0.3, 1.0, 1e15])
    for _ in range(draw(st.integers(0, 1))):
        j = draw(st.integers(1, hi))
        entries[(j, draw(st.integers(j, hi)))] = draw(values)
    if draw(st.booleans()):
        pivot[draw(st.integers(n + 1, hi))] = draw(st.integers(1, hi))
    if draw(st.booleans()):  # near column N_max + 1, with an offset in 1..n as condition 2 asks
        k0 = draw(st.integers(max(n + 1, n_max - 1), n_max + 2))
        tail = (max(k0 - draw(st.integers(1, n)), 1), k0)
    if draw(st.booleans()):
        offsets = draw(st.sets(st.integers(1, 4)))
        profile = TailProfile(draw(values), {d: draw(values) for d in offsets})
    return MatrixSpec(n, n_max, entries, pivot, tail, profile)


@settings(max_examples=600, deadline=None)
@given(perturbed_specs())
def test_a_spec_that_validates_truncates_and_analyzes(spec):
    if not validate_class(spec, "m").passed:
        return
    for N in range(spec.n_max, spec.n_max + 2 * spec.n + 3):
        assert truncate(spec, N).N == N
        analyze_structure(spec, N)

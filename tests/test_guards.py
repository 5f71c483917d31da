"""One assertion per input guard that the rest of the suite does not reach."""

import re

import numpy as np
import pytest

from specband import BoundaryMatrix, GenProfile, MatrixSpec, TailProfile, generate_random, spectral
from specband.errors import DimensionMismatch, NumericalFailure
from specband.interpolation import InterpolationData, decompose
from specband.matrices import FiniteHermitian, StructureInfo, analyze_structure, truncate
from specband.reconstruct import roundtrip
from specband.serialize import spec_from_dict, spec_to_dict
from specband.spectral import StepMeasure, build_q, eigen_decompose, jump_rank
from specband.vectorpoly import VectorPolynomial, canonical_e, poly_allclose


@pytest.mark.parametrize("n, n_max, entries, tail, message", [
    (0, 2, {}, None, "boundary order n must be >= 1"),
    (2, 1, {}, None, "declared size must be at least n"),
    (1, 2, {(0, 1): 1.0}, None, "entries use 1-based indices"),
    (1, 2, {}, (2, 2), "tail must satisfy k0 > j0 >= 1"),
])
def test_matrix_spec_refusals(n, n_max, entries, tail, message):
    with pytest.raises(ValueError, match=message):
        MatrixSpec(n, n_max, entries, {}, tail)


def with_nan_corner(spec):
    """``spec`` with its (1, 1) entry set to NaN."""
    return MatrixSpec(spec.n, spec.n_max, {**spec.entries, (1, 1): float("nan")}, spec.pivot,
                      spec.tail, spec.tail_profile)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("build, error, message", [
    (lambda: with_nan_corner(generate_random(GenProfile(2, 8), 1)), ValueError,
     "entry (1, 1) must be finite, not (nan+0j)"),
    (lambda: MatrixSpec(1, 2, {(2, 1): complex(1, INF)}, {2: 1}, None), ValueError,
     "entry (1, 2) must be finite, not (1-infj)"),
    (lambda: MatrixSpec(1, 2, {(1, 2): 1.0}, {2: 1}, (1, 2), TailProfile(edge=NAN)), ValueError,
     "tail_profile value must be finite, not (nan+0j)"),
    (lambda: MatrixSpec(1, 2, {(1, 2): 1.0}, {2: 1}, (1, 2), TailProfile(1.0, {1: INF})),
     ValueError, "tail_profile value must be finite, not (inf+0j)"),
    (lambda: BoundaryMatrix(1, [[NAN]]), ValueError, "boundary matrix t must be finite"),
    (lambda: BoundaryMatrix(2, [[1, INF], [0, 1]]), ValueError, "boundary matrix t must be finite"),
    (lambda: StepMeasure(1, [0, 1], [[1], [NAN]]), ValueError, "step measure c must be finite"),
    (lambda: StepMeasure(1, [0, NAN], [[1], [1]]), ValueError,
     "step measure lambdas must be finite"),
    (lambda: InterpolationData(1, [0, INF], [[1], [1]]), ValueError,
     "step measure lambdas must be finite"),
    (lambda: eigen_decompose(FiniteHermitian(2, [[NAN, 0], [0, 1]])), NumericalFailure,
     "matrix data holds a non-finite entry"),
    # inf above the diagonal and 0 below it: the scale is inf, so the defect passes
    (lambda: eigen_decompose(FiniteHermitian(2, [[0, INF], [0, 0]])), NumericalFailure,
     "matrix data holds a non-finite entry"),
])
def test_non_finite_input_is_refused(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()


def test_entry_below_the_diagonal_is_the_conjugate():
    spec = MatrixSpec(1, 2, {(1, 2): 1 + 2j}, {2: 1}, (1, 2))
    assert spec.entry(2, 1) == 1 - 2j


def test_analyze_structure_refuses_n_rows(flip2):
    with pytest.raises(ValueError, match="truncation size must exceed n=1"):
        analyze_structure(flip2, 1)


def test_truncate_refuses_size_zero(flip2):
    with pytest.raises(ValueError, match="truncation size must be >= 1"):
        truncate(flip2, 0)


def test_roundtrip_without_a_tail_has_moment_order_zero():
    spec = MatrixSpec(1, 2, {(1, 2): 1.0}, {2: 1}, None)
    assert roundtrip(spec, BoundaryMatrix(1, np.eye(1)), 2).moment_order == 0


def test_spec_file_refuses_a_tail_that_does_not_rise(flip2):
    d = spec_to_dict(flip2) | {"tail": [3, 2]}
    with pytest.raises(ValueError, match="field 'tail' cannot hold \\[3, 2\\]"):
        spec_from_dict(d)


def test_boundary_matrix_of_the_wrong_shape():
    with pytest.raises(DimensionMismatch, match="boundary matrix must be 2x2"):
        BoundaryMatrix(2, np.eye(3))


def test_boundary_matrix_with_an_entry_below_the_diagonal():
    with pytest.raises(ValueError, match="boundary matrix must be upper triangular"):
        BoundaryMatrix(2, [[1, 0], [1, 1]])


@pytest.mark.parametrize("N, data", [
    (3, np.eye(2)),
    (2, np.zeros((2, 3))),
    (2, np.zeros(4)),
    (2, np.zeros((2, 2, 1))),
])
def test_dense_matrix_of_the_wrong_shape(N, data):
    with pytest.raises(DimensionMismatch, match=re.escape(f"matrix data must be {N}x{N}, not {data.shape}")):
        FiniteHermitian(N, data)


def test_eigen_decompose_refuses_eigenvectors_that_are_not_unitary(monkeypatch):
    eigh = np.linalg.eigh
    monkeypatch.setattr(spectral.np.linalg, "eigh", lambda a: (eigh(a)[0], 1.01 * eigh(a)[1]))
    with pytest.raises(NumericalFailure, match="^eigenvector matrix lost unitarity$"):
        eigen_decompose(FiniteHermitian(2, np.array([[0, 1], [1, 0]], dtype=complex)))


def test_jump_rank_of_a_zero_jump():
    assert jump_rank(np.zeros((2, 2))) == 0


def test_eigen_decompose_refuses_a_non_hermitian_matrix():
    with pytest.raises(NumericalFailure, match="matrix is not Hermitian"):
        eigen_decompose(FiniteHermitian(2, np.array([[0, 1], [0, 0]], dtype=complex)))


def test_build_q_refuses_the_wrong_number_of_p():
    s = StructureInfo.from_pivot(1, 2, {2: 1})
    m = FiniteHermitian(2, np.array([[0, 1], [1, 0]], dtype=complex))
    with pytest.raises(DimensionMismatch, match="one p polynomial per truncation row"):
        build_q(m, s, BoundaryMatrix(1, np.eye(1)), [canonical_e(1, 1)])


def test_decompose_gives_a_zero_q_no_coefficients():
    one, zero = canonical_e(1, 1), VectorPolynomial.from_components([[]])
    assert decompose(one, [one], [zero]).s == ((),)


def test_from_components_refuses_the_wrong_count():
    with pytest.raises(DimensionMismatch, match="expected 2 components, got 1"):
        VectorPolynomial.from_components([[1]], 2)


def test_adding_a_number_to_a_vector_polynomial():
    with pytest.raises(TypeError):
        canonical_e(1, 1) + 3


def test_canonical_index_zero():
    with pytest.raises(ValueError, match="canonical index must be >= 1"):
        canonical_e(0, 2)


def test_poly_allclose_across_dimensions():
    assert not poly_allclose(canonical_e(1, 1), canonical_e(1, 2))

"""A family whose direct and inverse problems have closed-form answers.

n interleaved free-Jacobi chains: chain i lives on the rows j = i + 1 (mod n),
with diagonal b_i = 0.013 + 0.11 i and edge entries (j, j + n) = a_i / 2,
a_i = 1 + 0.37 i, so the pivot map is c -> c - n and the tail is (1, n + 1).
Truncated at N, chain i holds N_i rows.  Its eigenvalues are
b_i + a_i cos(k pi / (N_i + 1)), k = 1..N_i, and with T = I the C-vector of
each is e_i sqrt(2 / (N_i + 1)) |sin(k pi / (N_i + 1))|.  No two chains share
an eigenvalue, so the measure is that of the direct sum, and the inverse
problem's answer is the matrix itself, up to the phases of its entries: the
q heights are N..N+n-1 and T~ = I.
"""

import numpy as np
import pytest

from specband import (
    BoundaryMatrix,
    MatrixSpec,
    StepMeasure,
    eigen_decompose,
    orthonormalize,
    recover_matrix,
    step_measure,
    truncate,
    validate_class,
)
from conftest import assert_within

CELLS = [(n, N) for n in (1, 2, 3) for N in (10, 20, 40, 80, 160)]

#: the cells whose inverse the sweep recovers: beyond them it declares a
#: degeneration early and emits fewer than N rows
INVERSE_CELLS = [(1, 10), (1, 20), (2, 10), (2, 20), (2, 40), (3, 10), (3, 20), (3, 40), (3, 80)]


def chain(i):
    """(b_i, a_i) of chain i."""
    return 0.013 + 0.11 * i, 1.0 + 0.37 * i


def exact_spec(n, N):
    entries = {}
    for j in range(1, N + 1):
        b, a = chain((j - 1) % n)
        entries[(j, j)] = b
        if j + n <= N:
            entries[(j, j + n)] = a / 2
    return MatrixSpec(n, N, entries, {c: c - n for c in range(n + 1, N + 1)}, (1, n + 1))


def exact_measure(n, N):
    """The closed-form step measure of the truncation at N, with T = I."""
    lam, heads = [], []
    for i in range(n):
        b, a = chain(i)
        rows = len(range(i + 1, N + 1, n))
        angle = np.arange(1, rows + 1) * np.pi / (rows + 1)
        lam.append(b + a * np.cos(angle))
        head = np.zeros((rows, n))
        head[:, i] = np.sqrt(2.0 / (rows + 1)) * np.abs(np.sin(angle))
        heads.append(head)
    return StepMeasure(n, np.concatenate(lam), np.concatenate(heads))


@pytest.mark.parametrize("n, N", CELLS)
def test_direct_side_gives_the_exact_measure(n, N):
    spec = exact_spec(n, N)
    assert validate_class(spec, "mtilde").passed
    got = step_measure(eigen_decompose(truncate(spec, N)), BoundaryMatrix.identity(n))
    want = exact_measure(n, N)
    assert_within(got.lambdas, want.lambdas, np.max(np.abs(want.lambdas)))
    assert_within(got.outer, want.outer, 1.0)  # C C* per point; S_0 = I


@pytest.mark.parametrize("n, N", INVERSE_CELLS)
def test_inverse_side_gives_the_matrix_back(n, N):
    res = orthonormalize(exact_measure(n, N), N)
    assert res.q_heights == tuple(range(N, N + n))
    assert_within(res.t_tilde.t, np.eye(n), 1.0)
    m = truncate(exact_spec(n, N), N).data
    gap = np.max(np.abs(np.abs(recover_matrix(res).data) - np.abs(m)))
    assert gap <= 1e-7 * np.max(np.abs(m))

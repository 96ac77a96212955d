"""Linear algebra tests over GF(q), exhaustive at small sizes.

Random matrices come from a fixed seed; checks verify structural identities
(rref idempotence, rank as the size of the row span, enumerated by brute
force) rather than frozen entries, except for one hand-checked rref over
GF(5).
"""

import itertools
import random

import pytest

from hermitian_mds.fields import tower_for_q
from hermitian_mds.linalg import rank, rref


@pytest.fixture(scope="module")
def f5():
    return tower_for_q(5)


@pytest.fixture(scope="module")
def f4():
    return tower_for_q(4)


def random_matrix(F, m, n, rng):
    return [[rng.randrange(F.q) for _ in range(n)] for _ in range(m)]


def row_span(F, rows):
    """Every GF(q) combination of the rows, enumerated by brute force."""
    n = len(rows[0])
    span = set()
    for coeffs in itertools.product(range(F.q), repeat=len(rows)):
        v = [0] * n
        for c, row in zip(coeffs, rows):
            v = [F.q_add(x, F.q_mul(c, y)) for x, y in zip(v, row)]
        span.add(tuple(v))
    return span


def test_rref_hand_checked(f5):
    # [[2,4,1],[3,1,2]] over GF(5): R0 -> inv(2)=3 gives [1,2,3];
    # R1 - 3*R0 = [0,0,3] -> [0,0,1]; back-eliminate col 2 from R0.
    A = [[2, 4, 1], [3, 1, 2]]
    R, pivots = rref(f5, A)
    assert R == [[1, 2, 0], [0, 0, 1]]
    assert pivots == [0, 2]
    assert A == [[2, 4, 1], [3, 1, 2]]  # the input is left alone


def test_rref_idempotent_and_rank(f5, f4):
    rng = random.Random(11)
    for F in (f5, f4):
        for m, n in [(1, 1), (2, 3), (3, 3), (4, 2), (3, 6), (5, 5)]:
            for _ in range(20):
                A = random_matrix(F, m, n, rng)
                R, pivots = rref(F, A)
                R2, pivots2 = rref(F, R)
                assert R2 == R and pivots2 == pivots
                assert rank(F, A) == len(pivots) <= min(m, n)


def test_rank_is_log_of_row_span_size():
    rng = random.Random(7)
    for q in (2, 3, 4, 5, 8, 9):
        F = tower_for_q(q)
        shapes = [(1, 3), (2, 2), (2, 4), (3, 3), (3, 4)] + ([(4, 3)] if q <= 5 else [])
        for m, n in shapes:
            for trial in range(6):
                A = random_matrix(F, m, n, rng)
                if trial == 0:  # a dependent last row, so that rank < m occurs
                    c = rng.randrange(q)
                    A[-1] = [F.q_mul(c, x) for x in A[0]]
                span = row_span(F, A)
                r = rank(F, A)
                assert q ** r == len(span), (q, A)
                R, pivots = rref(F, A)
                assert row_span(F, R) == span
                # reduced echelon shape: unit pivot columns, zero rows last
                assert pivots == sorted(pivots)
                for i, c in enumerate(pivots):
                    assert [row[c] for row in R] == [int(k == i) for k in range(m)]
                assert all(not any(row) for row in R[r:])

"""Linear algebra tests over GF(q), exhaustive at small sizes.

Random matrices come from a fixed seed; checks verify structural identities
(rref idempotence, rank, A @ solution = b) rather than frozen entries,
except for one hand-checked rref over GF(5).
"""

import random

import pytest

from hermitian_mds.fields import tower_for_q
from hermitian_mds.linalg import MatrixFq


@pytest.fixture(scope="module")
def f5():
    return tower_for_q(5)


@pytest.fixture(scope="module")
def f4():
    return tower_for_q(4)


def mul_vec(A, v):
    """A @ v over GF(q), the product the solve checks rest on."""
    F = A.field
    out = []
    for r in A.rows:
        acc = 0
        for a, x in zip(r, v, strict=True):
            acc = F.q_add(acc, F.q_mul(a, x))
        out.append(acc)
    return out


def random_matrix(F, m, n, rng):
    return MatrixFq(F, [[rng.randrange(F.q) for _ in range(n)] for _ in range(m)])


def test_rref_hand_checked(f5):
    # [[2,4,1],[3,1,2]] over GF(5): R0 -> inv(2)=3 gives [1,2,3];
    # R1 - 3*R0 = [0,0,3] -> [0,0,1]; back-eliminate col 2 from R0.
    A = MatrixFq(f5, [[2, 4, 1], [3, 1, 2]])
    R, pivots = A.rref()
    assert R.rows == [[1, 2, 0], [0, 0, 1]]
    assert pivots == [0, 2]


def test_rref_idempotent_and_rank(f5, f4):
    rng = random.Random(11)
    for F in (f5, f4):
        for m, n in [(1, 1), (2, 3), (3, 3), (4, 2), (3, 6), (5, 5)]:
            for _ in range(20):
                A = random_matrix(F, m, n, rng)
                R, pivots = A.rref()
                R2, pivots2 = R.rref()
                assert R2.rows == R.rows and pivots2 == pivots
                assert A.rank() == len(pivots) <= min(m, n)


def test_solve(f5):
    A = MatrixFq(f5, [[1, 2], [3, 4]])
    x = A.solve([4, 1])
    assert x is not None
    assert mul_vec(A, x) == [4, 1]
    # inconsistent: second row is 2x first but targets are not
    B = MatrixFq(f5, [[1, 2], [2, 4]])
    assert B.solve([1, 3]) is None
    assert B.solve([1, 2]) is not None


def test_solve_random_consistency(f4):
    rng = random.Random(3)
    for _ in range(50):
        A = random_matrix(f4, 3, 4, rng)
        x_true = [rng.randrange(4) for _ in range(4)]
        b = mul_vec(A, x_true)
        x = A.solve(b)
        assert x is not None
        assert mul_vec(A, x) == b


def test_validation(f5):
    with pytest.raises(ValueError):
        MatrixFq(f5, [])
    with pytest.raises(ValueError):
        MatrixFq(f5, [[1, 2], [3]])
    with pytest.raises(ValueError):
        MatrixFq(f5, [[5, 0]])
    A = MatrixFq(f5, [[1, 2]])
    with pytest.raises(ValueError):
        A.solve([1, 2])


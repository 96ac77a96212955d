"""Linear algebra tests over GF(q), exhaustive at small sizes.

Random matrices come from a fixed seed; checks verify structural identities
(rref idempotence, rank-nullity, A @ kernel = 0) rather than frozen entries,
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
    """A @ v over GF(q), the product the kernel and solve checks rest on."""
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


def test_kernel_basis_annihilated(f5, f4):
    rng = random.Random(7)
    for F in (f5, f4):
        for m, n in [(2, 4), (3, 3), (1, 5), (4, 6)]:
            for _ in range(20):
                A = random_matrix(F, m, n, rng)
                basis = A.kernel_basis()
                assert len(basis) == n - A.rank()  # rank-nullity
                for v in basis:
                    assert mul_vec(A, v) == [0] * m
                # canonical: vector j has 1 in its own free column and 0 in
                # every other free column
                _, pivots = A.rref()
                free_cols = [c for c in range(n) if c not in pivots]
                for j, v in enumerate(basis):
                    for k, fc in enumerate(free_cols):
                        assert v[fc] == (1 if k == j else 0)


def test_kernel_spans_all_solutions(f5):
    # exhaustive check at a small size: every vector annihilated by A is a
    # combination of the basis
    A = MatrixFq(f5, [[1, 2, 3, 4], [0, 1, 1, 0]])
    basis = A.kernel_basis()
    F = f5
    span = set()
    for c0 in range(5):
        for c1 in range(5):
            span.add(tuple(F.q_add(F.q_mul(c0, a), F.q_mul(c1, b))
                           for a, b in zip(basis[0], basis[1])))
    brute = {
        (a, b, c, d)
        for a in range(5) for b in range(5) for c in range(5) for d in range(5)
        if mul_vec(A, [a, b, c, d]) == [0, 0]
    }
    assert span == brute


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


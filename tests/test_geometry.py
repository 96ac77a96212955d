"""Geometry tests: arc criteria, arc/transversal builders, and the PG(2,q)
point normalization the decoder uses.

The q=5 instance with modulus X^2 - X + 2 uses the known 6-element arc
(powers 3, 4, 8, 15, 16, 20 of eps); its integer encodings are frozen here
as an oracle.  arc_condition_holds is cross-checked against the paper's
power criterion written out literally here, exhaustively on small subsets
at q=3 and q=4 and on seeded subsets up to the size bound beyond.  The
hyperoval (unit circle plus 0) is checked for size q+2 at every even
q <= 128; the pinned Lunelli-Sce q=16 hyperoval is checked to be no conic
plus a point, against the default one, which is.  build_lambda validates
no arc, explicit elements included (CodeSpec is the gate), so every arc
these tests build is checked with arc_condition_holds.
"""

import itertools
import random

import pytest

from hermitian_mds import code as cc
from hermitian_mds.decoder import normalize_point
from hermitian_mds.fields import FieldError, FieldTower, factor_prime_power, tower_for_q
from hermitian_mds.geometry import (
    arc_condition_holds,
    arc_size_bound,
    build_lambda,
    build_transversal,
    validate_arc,
    validate_transversal,
)
from hermitian_mds.linalg import rank

REFERENCE_LAMBDA = [23, 12, 11, 7, 18, 19]  # eps^3, eps^4, eps^8, eps^15, eps^16, eps^20
# the first full-size arcs in depth-first integer order, given as explicit
# lists: a q=4 hyperoval and, at q=16, the Lunelli-Sce hyperoval (up to
# equivalence the one irregular hyperoval of PG(2,16), Hall 1975)
HYPEROVAL_Q4 = [0, 1, 4, 6, 9, 10]
LUNELLI_SCE_Q16 = [0, 1, 16, 17, 36, 37, 58, 60, 82, 83, 132, 138, 178, 183, 195, 199, 229, 236]


@pytest.fixture(scope="module")
def f5p():
    return FieldTower(5, gq2=[2, 4, 1])


@pytest.fixture(scope="module")
def f4():
    return tower_for_q(4)


def test_arc_condition_small_sets(f5p):
    assert arc_condition_holds(f5p, [])
    assert arc_condition_holds(f5p, [3])
    assert arc_condition_holds(f5p, [3, 17])  # no triples, vacuous
    with pytest.raises(ValueError):
        arc_condition_holds(f5p, [3, 3, 7])


def test_arc_condition_reference_instance(f5p):
    assert [f5p.pow(f5p.eps, k) for k in (3, 4, 8, 15, 16, 20)] == REFERENCE_LAMBDA
    assert arc_condition_holds(f5p, REFERENCE_LAMBDA)


def test_arc_condition_rejects_subfield_points(f5p):
    # 0, 1, 2 sit on the line y = 0 of AG(2,5)
    assert not arc_condition_holds(f5p, [0, 1, 2])


def power_criterion(F, subset):
    # the paper's condition, literally: no ordered triple of distinct
    # elements has ((alpha-beta)/(gamma-beta))^(q-1) = 1
    def sub(a, b):  # a - b in GF(q^2), component-wise
        return F.compose(*(F.q_sub(u, v) for u, v in zip(F.decompose(a), F.decompose(b))))

    for alpha, beta, gamma in itertools.permutations(subset, 3):
        ratio = F.mul(sub(alpha, beta), F.pow(sub(gamma, beta), F.q2 - 2))
        if F.pow(ratio, F.q - 1) == 1:
            return False
    return True


def test_arc_condition_matches_collinearity():
    # the slope test behind arc_condition_holds must agree with the power
    # criterion: every 3- and 4-subset at q=3 and q=4 ...
    for q in (3, 4):
        F = tower_for_q(q)
        for size in (3, 4):
            for subset in itertools.combinations(range(F.q2), size):
                assert arc_condition_holds(F, subset) == power_criterion(F, subset)
    # ... and seeded subsets of every size 3..q+2 beyond: random ones (rarely
    # arcs), subsets of the default arc (always arcs) and those with one
    # element swapped out (either)
    for q in (5, 7, 8, 9):
        F = tower_for_q(q)
        lam = cc.construct_code(q).lam
        rng = random.Random(q)
        for size in range(3, q + 3):
            for _ in range(10):
                subsets = [rng.sample(range(F.q2), size)]
                if size <= len(lam):
                    near = rng.sample(lam, size)
                    subsets.append(list(near))
                    outside = [g for g in range(F.q2) if g not in near]
                    near[rng.randrange(size)] = rng.choice(outside)
                    subsets.append(near)
                for subset in subsets:
                    assert arc_condition_holds(F, subset) == power_criterion(F, subset)


def test_build_lambda_explicit(f5p):
    lam = build_lambda(f5p, REFERENCE_LAMBDA)
    assert lam == REFERENCE_LAMBDA  # order preserved
    # not checked here: CodeSpec rejects a non-arc, as any arc it is given
    assert build_lambda(f5p, (0, 1, 2)) == [0, 1, 2]
    with pytest.raises(ValueError, match="arc condition fails"):
        cc.CodeSpec(f5p, [0, 1, 2], range(5))
    # a list is the arc itself; "explicit" is no strategy
    with pytest.raises(ValueError, match="unknown arc strategy 'explicit'"):
        build_lambda(f5p, "explicit")


def test_build_lambda_norm_circle(f5p):
    lam = build_lambda(f5p, "norm_circle")
    assert lam == [1, 4, 11, 12, 18, 19]  # ascending by construction
    assert all(f5p.norm(u) == 1 for u in lam)
    assert len(lam) == 6


def odd_prime_powers():
    for q in range(3, 257, 2):
        try:
            factor_prime_power(q)
        except FieldError:
            continue
        yield q


def test_build_lambda_norm_circle_sizes():
    # build_lambda does not validate what it builds, so the arc condition
    # is checked here: the unit circle at q = 4, 8 and at every odd q <= 256
    for q in (4, 8, *odd_prime_powers()):
        F = tower_for_q(q)
        lam = build_lambda(F, "norm_circle")
        assert len(lam) == q + 1
        assert len(lam) <= arc_size_bound(F)
        assert arc_condition_holds(F, lam), q


def test_pinned_arcs_pass_at_the_size_bound():
    for q, values in ((4, HYPEROVAL_Q4), (16, LUNELLI_SCE_Q16)):
        F = tower_for_q(q)
        assert len(values) == arc_size_bound(F) and arc_condition_holds(F, values), q
        assert build_lambda(F, values) == values


def test_build_lambda_hyperoval():
    # the unit circle plus its nucleus 0 reaches the size bound q+2 at every
    # even q, in ascending order
    for q in (2, 4, 8, 16, 32, 64, 128):
        F = tower_for_q(q)
        lam = build_lambda(F, "hyperoval")
        assert len(lam) == q + 2 == arc_size_bound(F)
        assert arc_condition_holds(F, lam)
        assert lam == sorted(lam) and lam[0] == 0
        assert all(F.norm(u) == 1 for u in lam[1:])


def test_build_lambda_hyperoval_needs_even_q(f5p):
    for F in (f5p, tower_for_q(3), tower_for_q(9)):
        with pytest.raises(ValueError, match="even q"):
            build_lambda(F, "hyperoval")


def conic_rank(F, pts):
    """Rank over GF(q) of the conic monomials (x0^2, x0*x1, x1^2, x0, x1, 1)
    at the (x0, x1) points: 6 exactly when no conic passes through them."""
    mul = F.q_mul
    return rank(F, [(mul(a, a), mul(a, b), mul(b, b), a, b, 1) for a, b in pts])


def test_greedy_q16_arc_is_not_a_conic_plus_a_point():
    # Dropping any one of the 18 points of LUNELLI_SCE_Q16 leaves 17 on no
    # conic, so the arc is a hyperoval but not a conic plus its nucleus (the
    # Lunelli-Sce hyperoval, up to equivalence the one irregular hyperoval
    # of PG(2,16)).  The control: the default hyperoval less its nucleus 0
    # is the unit circle, a conic, and with 0 kept no conic holds the
    # other 17.
    F = tower_for_q(16)
    irregular = [F.decompose(u) for u in build_lambda(F, LUNELLI_SCE_Q16)]
    assert [conic_rank(F, irregular[:i] + irregular[i + 1:]) for i in range(18)] == [6] * 18
    regular = [F.decompose(u) for u in build_lambda(F, "hyperoval")]
    assert regular[0] == (0, 0)
    assert [conic_rank(F, regular[:i] + regular[i + 1:]) for i in range(18)] == [5] + [6] * 17


def test_build_lambda_unknown_strategy(f5p):
    with pytest.raises(ValueError):
        build_lambda(f5p, "random")


def test_validate_arc_bounds(f5p):
    with pytest.raises(ValueError, match="at least 3"):
        validate_arc(f5p, [1, 2])
    with pytest.raises(ValueError, match="canonical"):
        validate_arc(f5p, [0, 1, 30])  # out of range element
    with pytest.raises(ValueError, match="arc condition fails"):
        validate_arc(f5p, [0, 1, 2])


def test_build_transversal_subfield(f5p):
    s = build_transversal(f5p, "subfield")
    assert s == [0, 1, 2, 3, 4]
    assert [f5p.trace(x) for x in s] == [0, 2, 4, 1, 3]  # trace(c) = 2c


def test_build_transversal_subfield_even_rejected(f4):
    with pytest.raises(ValueError):
        build_transversal(f4, "subfield")


def test_build_transversal_unit_trace(f4):
    s = build_transversal(f4, "unit_trace")
    assert len(s) == 4
    assert sorted(f4.trace(x) for x in s) == [0, 1, 2, 3]
    assert s[0] == 0  # c=0 representative is always 0
    for q in (3, 5, 7, 9):
        F = tower_for_q(q)
        s = build_transversal(F, "unit_trace")
        assert sorted(F.trace(x) for x in s) == list(range(q))


def test_validate_transversal_rejects(f5p):
    with pytest.raises(ValueError):
        validate_transversal(f5p, [0, 1, 2, 3])  # wrong size
    with pytest.raises(ValueError):
        # trace(1 + eps) = 2 + 1 = 3 = trace(3*eps): a collision
        validate_transversal(f5p, [0, 5, 10, 15, 6])
    for bad in (25, -1):  # outside GF(25): rejected before any trace is taken
        with pytest.raises(ValueError, match="canonical"):
            validate_transversal(f5p, [bad, 1, 2, 3, 4])


def test_normalize_point_and_form(f5p):
    assert normalize_point(f5p, (2, 4, 0)) == (3, 1, 0)
    assert normalize_point(f5p, (0, 0, 2)) == (0, 0, 1)
    with pytest.raises(ValueError):
        normalize_point(f5p, (0, 0, 0))

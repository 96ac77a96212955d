"""Field tower tests.

Oracles: powers of eps for the q=5 instance with modulus X^2 - X + 2 were
computed by hand from eps^2 = eps + 3 and are frozen below.  Structural
facts (fiber sizes, axioms, Frobenius properties) are checked exhaustively
at desk scale, with the generic power map pow(u, q) serving as the
independent oracle for the Frobenius, trace and norm forms, which are also
checked on seeded elements up to q=256.  At every supported q the
default gq2 is checked against a plain root scan, the default gq against
trial division by every monic polynomial of at most half its degree, and
the norm circle (built from the norm's quadratic form) against a scan of
norm().
"""

import random

import pytest

from hermitian_mds.fields import (
    FieldError,
    FieldTower,
    factor_prime_power,
    is_prime,
    tower_for_q,
)

SMALL_Q = [2, 3, 4, 5, 7, 8, 9]


def is_prime_power(q):
    try:
        factor_prime_power(q)
    except FieldError:
        return False
    return True


PRIME_POWERS = [q for q in range(2, 257) if is_prime_power(q)]  # every supported q


@pytest.fixture(scope="module")
def towers():
    return {q: tower_for_q(q) for q in SMALL_Q}


@pytest.fixture(scope="module")
def f5():
    # q=5 with eps a root of X^2 - X + 2, i.e. gq2 = [2, 4, 1]
    return FieldTower(5, gq2=[2, 4, 1])


def test_prime_power_factoring():
    assert factor_prime_power(5) == (5, 1)
    assert factor_prime_power(8) == (2, 3)
    assert factor_prime_power(9) == (3, 2)
    assert factor_prime_power(256) == (2, 8)
    for bad in (0, 1, 6, 10, 12, 15):
        with pytest.raises(FieldError):
            factor_prime_power(bad)


def test_is_prime():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_eps_powers_frozen_q5(f5):
    # hand-derived from eps^2 = eps + 3 (encoding u0 + 5*u1)
    assert f5.eps == 5
    expected = {2: 8, 3: 23, 4: 12, 5: 21, 6: 2, 8: 11, 12: 4, 15: 7, 16: 18, 20: 19, 24: 1}
    for k, v in expected.items():
        assert f5.pow(f5.eps, k) == v
    order = next(k for k in range(1, f5.q2) if f5.pow(f5.eps, k) == 1)
    assert order == 24  # eps is primitive in GF(25)


def test_trace_norm_frozen_q5(f5):
    assert f5.trace(f5.eps) == 1
    assert f5.norm(f5.eps) == 2
    assert f5.frobenius(f5.eps) == 21  # eps^5 = 1 + 4*eps


def test_default_moduli_frozen():
    # smallest irreducible by ascending integer encoding of the coefficients
    expected = {
        2: (None, [1, 1, 1]),
        3: (None, [1, 0, 1]),
        4: ([1, 1, 1], [2, 1, 1]),
        5: (None, [2, 0, 1]),
        7: (None, [1, 0, 1]),
        8: ([1, 1, 0, 1], [1, 1, 1]),
        9: ([1, 0, 1], [4, 0, 1]),
        13: (None, [2, 0, 1]),
        16: ([1, 1, 0, 0, 1], [8, 1, 1]),
    }
    for q, (gq, gq2) in expected.items():
        F = tower_for_q(q)
        assert F.gq == gq
        assert F.gq2 == gq2
    # at every supported q, gq2 is the first rootless monic quadratic,
    # found here by a plain root scan
    for q in PRIME_POWERS:
        F = tower_for_q(q)
        assert F.gq2 == first_rootless_quadratic(F), q


def first_rootless_quadratic(F):
    # X^2 + c1*X + c0 in encoding order c0 + q*c1, each tested at every x
    for enc in range(F.q2):
        c0, c1 = enc % F.q, enc // F.q
        if all(F.q_add(F.q_add(F.q_mul(x, x), F.q_mul(c1, x)), c0) for x in range(F.q)):
            return [c0, c1, 1]


def monic(low, p, h):
    """The monic degree-h polynomial over GF(p) whose lower coefficients,
    ascending, are the base-p digits of low."""
    return [low // p ** i % p for i in range(h)] + [1]


def poly_rem(a, m, p):
    """Remainder of a modulo the monic m over GF(p), by long division."""
    a = list(a)
    for k in range(len(a) - 1, len(m) - 2, -1):
        lead = a[k]
        for i in range(len(m)):
            a[k - len(m) + 1 + i] = (a[k - len(m) + 1 + i] - lead * m[i]) % p
    return a[:len(m) - 1]


def is_irreducible(m, p):
    """Trial division by every monic polynomial of degree 1..deg(m)//2."""
    h = len(m) - 1
    return all(any(poly_rem(m, monic(low, p, d), p))
               for d in range(1, h // 2 + 1) for low in range(p ** d))


def test_default_gq_is_first_irreducible():
    # at every supported extension field, gq is irreducible by trial
    # division, and every monic candidate of smaller encoding is reducible
    for q in PRIME_POWERS:
        p, h = factor_prime_power(q)
        if h == 1:
            continue
        gq = tower_for_q(q).gq
        low = sum(c * p ** i for i, c in enumerate(gq[:-1]))
        assert gq == monic(low, p, h) and is_irreducible(gq, p), q
        assert not any(is_irreducible(monic(smaller, p, h), p) for smaller in range(low)), q


def test_supplied_gq_accepted_exactly_when_irreducible():
    # every monic gq at small (p, h): the zero-divisor test of the product
    # table must agree with trial division, and a reducible gq is refused
    # with the same text whatever its factors
    for p, h in [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (5, 2), (7, 2)]:
        for low in range(p ** h):
            gq = monic(low, p, h)
            if is_irreducible(gq, p):
                F = FieldTower(p, h, gq=gq)
                assert F.gq == gq
                for a in range(1, F.q):
                    assert F.q_mul(a, F.q_inv(a)) == 1
            else:
                with pytest.raises(FieldError) as exc:
                    FieldTower(p, h, gq=gq)
                assert str(exc.value) == f"gq={gq} is reducible over GF({p})"


def poly_product(a, b, p, h, gq):
    """a*b in GF(p^h) by schoolbook multiplication of the base-p digit
    polynomials, reduced modulo the monic gq."""
    da = [a // p ** i % p for i in range(h)]
    db = [b // p ** i % p for i in range(h)]
    prod = [0] * (2 * h - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] = (prod[i + j] + x * y) % p
    for k in range(2 * h - 2, h - 1, -1):
        lead = prod[k]
        for i in range(h + 1):
            prod[k - h + i] = (prod[k - h + i] - lead * gq[i]) % p
    return sum(c * p ** i for i, c in enumerate(prod[:h]))


def digit_sum(a, b, p):
    """a+b in GF(p^h): base-p digits added mod p, no carries."""
    out, place = 0, 1
    while a or b:
        out += (a + b) % p * place
        a, b, place = a // p, b // p, place * p
    return out


def test_q_tables_against_polynomial_products():
    # the GF(q) sum table is widened digit by digit from GF(p); every
    # prime power q <= 256 is checked pair by pair, and so are negatives
    for q in PRIME_POWERS:
        p, h = factor_prime_power(q)
        F = tower_for_q(q)
        for a in range(q):
            row = F.q_add_table[a]
            assert row == [digit_sum(a, b, p) for b in range(q)], (q, a)
            neg = sum(-(a // p ** i) % p * p ** i for i in range(h))
            assert F.q_neg(a) == neg and row[neg] == 0
    # the GF(q) product table is built digit by digit too, by one
    # recurrence for every q; primes and extension fields up to q = 64 are
    # checked pair by pair, q = 81 to 256 on every 7th row
    for q in (2, 3, 13, 251, 4, 8, 9, 16, 25, 27, 32, 49, 64, 81, 125, 128, 243, 256):
        F = tower_for_q(q)
        for a in range(0, q, 1 if q <= 64 else 7):
            for b in range(q):
                assert F.q_mul(a, b) == poly_product(a, b, F.p, F.h, F.gq), (q, a, b)
            if a:
                assert F.q_mul(a, F.q_inv(a)) == 1


def test_field_axioms_exhaustive(towers):
    for q in (2, 3, 4, 5):
        F = towers[q]
        els = list(F.elements())
        for a in els:
            for b in els:
                assert F.add(a, b) == F.add(b, a)
                assert F.mul(a, b) == F.mul(b, a)
                for c in els:
                    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
                    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                    assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))


def test_field_axioms_sampled(towers):
    # larger fields: all pairs, strided triples
    for q in (7, 8, 9):
        F = towers[q]
        els = list(F.elements())
        for a in els:
            assert F.add(a, 0) == a
            assert F.mul(a, 1) == a
            assert F.add(a, F.mul(F.q_neg(1), a)) == 0  # (-1)*a is the additive inverse
            for b in els:
                assert F.add(a, b) == F.add(b, a)
                assert F.mul(a, b) == F.mul(b, a)
        for a in els[::5]:
            for b in els[::7]:
                for c in els[::3]:
                    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
                    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))


def test_inverses_exhaustive(towers):
    for q, F in towers.items():
        for a in range(1, F.q2):
            assert F.mul(a, F.pow(a, F.q2 - 2)) == 1
        for a in range(1, F.q):
            assert F.q_mul(a, F.q_inv(a)) == 1
        with pytest.raises(FieldError):
            F.q_inv(0)


def test_subfield_embedding_consistency(towers):
    # integers < q are GF(q) inside GF(q^2); both arithmetic suites must agree
    for q, F in towers.items():
        for a in range(F.q):
            for b in range(F.q):
                assert F.add(a, b) == F.q_add(a, b)
                assert F.mul(a, b) == F.q_mul(a, b)
            if a:
                assert F.pow(a, F.q2 - 2) == F.q_inv(a)


def test_frobenius_against_generic_pow(towers):
    # the linearized Frobenius must equal the defining power map
    for q, F in towers.items():
        for u in F.elements():
            assert F.frobenius(u) == F.pow(u, F.q)


def test_frobenius_is_involution_fixing_subfield(towers):
    for q, F in towers.items():
        fixed = [u for u in F.elements() if F.frobenius(u) == u]
        assert fixed == list(range(F.q))
        for u in F.elements():
            assert F.frobenius(F.frobenius(u)) == u


def test_frobenius_is_homomorphism(towers):
    for q in (3, 4, 5):
        F = towers[q]
        for a in F.elements():
            for b in F.elements():
                assert F.frobenius(F.add(a, b)) == F.add(F.frobenius(a), F.frobenius(b))
                assert F.frobenius(F.mul(a, b)) == F.mul(F.frobenius(a), F.frobenius(b))


def test_trace_fibers(towers):
    # T(u) = u^q + u is GF(q)-linear onto GF(q); every fiber has size q
    for q, F in towers.items():
        fibers = {}
        for u in F.elements():
            fibers.setdefault(F.trace(u), 0)
            fibers[F.trace(u)] += 1
        assert set(fibers) == set(range(F.q))
        assert all(n == F.q for n in fibers.values())


def test_norm_fibers(towers):
    # N(u) = u^(q+1) maps onto GF(q); fiber of 0 is {0}, others have q+1 points
    for q, F in towers.items():
        fibers = {}
        for u in F.elements():
            fibers.setdefault(F.norm(u), 0)
            fibers[F.norm(u)] += 1
        assert fibers[0] == 1
        assert set(fibers) == set(range(F.q))
        assert all(fibers[t] == F.q + 1 for t in range(1, F.q))


def norm_scan(F, c):
    return [u for u in F.elements() if F.norm(u) == c]


def test_norm_circle_is_the_norm_fiber():
    # the quadratic-form circle against a scan of F.norm: the unit circle
    # at every supported q, every fiber at q <= 16 ...
    for q in PRIME_POWERS:
        F = tower_for_q(q)
        assert F.norm_circle(1) == norm_scan(F, 1), q
        if q <= 16:
            for c in range(q):
                assert F.norm_circle(c) == norm_scan(F, c), (q, c)
    # ... and every fiber under every irreducible gq2 at q = 4 and 5
    for q in (4, 5):
        p, h = factor_prime_power(q)
        for c0 in range(q):
            for c1 in range(q):
                try:
                    F = FieldTower(p, h, gq2=[c0, c1, 1])
                except FieldError:
                    continue
                for c in range(q):
                    assert F.norm_circle(c) == norm_scan(F, c), (F, c)


def test_trace_definition(towers):
    # Frobenius, trace and norm are GF(q) forms in the components, and
    # u^(q^2-2) inverts u; the definitions u^q, u^q + u and u^(q+1) are
    # computed here by the generic power map: every u up to q=16, seeded u
    # on the odd and characteristic-2 extension towers at the top of the range
    cases = [(F, F.elements()) for F in towers.values()]
    cases += [(tower_for_q(q), range(q * q)) for q in (11, 13, 16)]
    for q in (49, 128, 243, 251, 256):
        rng = random.Random(f"trace:{q}")
        cases.append((tower_for_q(q), [rng.randrange(q * q) for _ in range(2000)]))
    for F, us in cases:
        for u in us:
            u_q = F.pow(u, F.q)
            assert F.frobenius(u) == u_q
            assert F.trace(u) == F.add(u_q, u)
            assert F.norm(u) == F.pow(u, F.q + 1)
            assert u == 0 or F.mul(u, F.pow(u, F.q2 - 2)) == 1


def test_decompose_compose_roundtrip(towers):
    F = towers[7]
    for u in F.elements():
        u0, u1 = F.decompose(u)
        assert 0 <= u0 < F.q and 0 <= u1 < F.q
        assert F.compose(u0, u1) == u
        assert F.add(u0, F.mul(F.eps, u1)) == u


def test_pow_edge_cases(towers):
    F = towers[4]
    for a in F.elements():
        assert F.pow(a, 0) == 1
        assert F.pow(a, 1) == a
    assert F.pow(0, 5) == 0
    for a in range(1, F.q2):
        assert F.pow(a, F.q2 - 1) == 1
    # no negative powers: without the check, n >>= 1 never ends for n < 0
    for a in (0, 1, F.eps):
        for n in (-1, -5, -F.q2):
            with pytest.raises(FieldError, match="negative exponent"):
                F.pow(a, n)


def test_construction_rejects():
    with pytest.raises(FieldError):
        FieldTower(4)  # not prime
    with pytest.raises(FieldError):
        FieldTower(5, h=0)
    with pytest.raises(FieldError):
        FieldTower(2, h=9)  # q^2 = 2^18 over the cap
    with pytest.raises(FieldError):
        FieldTower(5, gq=[2, 4, 1])  # gq forbidden when h=1
    with pytest.raises(FieldError):
        FieldTower(2, h=2, gq=[1, 0, 1])  # X^2+1 = (X+1)^2 over GF(2)
    with pytest.raises(FieldError):
        FieldTower(5, gq2=[4, 0, 1])  # X^2+4 has root 1
    with pytest.raises(FieldError):
        FieldTower(5, gq2=[2, 4])  # wrong degree
    with pytest.raises(FieldError):
        tower_for_q(6)


def test_max_size_boundary():
    F = tower_for_q(256)  # q^2 = 2^16 exactly, still allowed
    assert F.q2 == 1 << 16
    assert F.mul(F.eps, F.pow(F.eps, F.q2 - 2)) == 1
    with pytest.raises(FieldError):
        tower_for_q(512)
    # oversized parameters are rejected before primality testing, factoring
    # or computing p^h, each of which would take minutes at these sizes
    with pytest.raises(FieldError, match=r"q=1000000007 unsupported: q\^2 exceeds 65536"):
        tower_for_q(10**9 + 7)
    with pytest.raises(FieldError, match=r"q=1000000000000000003 unsupported"):
        FieldTower(10**18 + 3)
    with pytest.raises(FieldError, match=r"q=2\^100000000000 unsupported"):
        FieldTower(2, h=10**11)


def test_tower_equality_and_repr(towers):
    A = tower_for_q(5)
    B = FieldTower(5, gq2=[2, 0, 1])
    C = FieldTower(5, gq2=[2, 4, 1])
    assert A == B
    assert A != C
    assert "gq2=[2, 0, 1]" in repr(A)
    assert hash(A) == hash(B)

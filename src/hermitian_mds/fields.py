"""Exact arithmetic in the tower GF(p) <= GF(q) <= GF(q^2).

Elements of GF(q), q = p^h, are canonical integers in [0, q): the value
sum(a_i * p^i) encodes the polynomial sum(a_i * theta^i) over GF(p), where
theta is a root of the degree-h modulus ``gq``.  Elements of GF(q^2) are
integers in [0, q^2): the value u0 + q*u1 encodes u0 + eps*u1 with respect
to the basis {1, eps}, where eps is a root of the degree-2 modulus ``gq2``
over GF(q).  The integer encoding doubles as the wire format used by the
file formats and the CLI.

GF(q) arithmetic is memoized in full tables, built once per tower and
public for callers that bind them in their inner loops: q_add_table and
q_mul_table (q x q), q_neg_table and q_inv_table (length q, q_inv_table[0]
unused).  They are read-only.  Both are built digit by digit from GF(p), one
recurrence for every q: a = a0 + theta*a' adds as a0 + b0 plus theta
times a' + b', and b = b0 + theta*b' multiplies as b*a = b0*a +
theta*(b'*a), where theta*x shifts the digits of x up one place and
reduces theta^h by gq (Lidl and Niederreiter, Finite Fields, ch. 1-2).
The recurrence holds in GF(p)[theta]/(gq) for any monic gq, and that
finite ring is a field (gq is irreducible) exactly when it has no zero
divisors, that is, when every product row b != 0 holds a 1.  So the same
build decides irreducibility, stopping at the first row without a 1.  A
supplied gq is accepted or rejected by it, and the default gq is the
first monic degree-h candidate in encoding order whose build succeeds.
Inverses are read off the product rows.  GF(q^2) operations reduce to
component formulas in GF(q).  With eps^2 = r0 + r1*eps, the conjugate
eps^q is the other root of gq2, r1 - eps (checked at construction), so
Frobenius, trace and norm are GF(q) forms in the components:
u^q = u0 + r1*u1 - eps*u1, T(u0 + eps*u1) = T(1)*u0 + r1*u1 and
N(u0 + eps*u1) = u0*(u0 + r1*u1) - r0*u1^2 (Lidl and Niederreiter, ch. 2).

One formula serves every quadratic question: the list of x*(x + c1) over
x in GF(q).  X^2 + c1*X + c0 has a root iff -c0 is in it, so the default
gq2 (the first rootless monic quadratic in encoding order c0 + q*c1) costs
one list per c1; and since the norm is x0*(x0 + r1*x1) - r0*x1^2,
norm_circle and norm_bytes (the norm of every element, as bytes) read
each of their rows x1 off one such list instead of evaluating the norm per
element.
"""

import math
from operator import getitem


class FieldError(ValueError):
    """Invalid field construction or a domain error (e.g. inverting zero)."""


MAX_Q2 = 1 << 16  # all verification is exhaustive, so sizes stay desk-scale


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, int(math.isqrt(n)) + 1):
        if n % d == 0:
            return False
    return True


def factor_prime_power(q: int):
    """Return (p, h) with q = p^h, or raise FieldError."""
    if q < 2:
        raise FieldError(f"q={q} is not a prime power")
    p = next(d for d in range(2, q + 1) if q % d == 0)  # the least divisor is prime
    h, m = 0, q
    while m % p == 0:
        m //= p
        h += 1
    if m != 1:
        raise FieldError(f"q={q} is not a prime power")
    return p, h


class FieldTower:
    """The chain GF(p) <= GF(q = p^h) <= GF(q^2) with basis {1, eps}.

    ``gq`` is the degree-h modulus over GF(p) (ascending coefficients,
    None when h == 1) and ``gq2`` the degree-2 modulus over GF(q)
    (ascending, entries canonical GF(q) integers).  Both default to the
    monic irreducible polynomial of the required degree with the smallest
    integer encoding of its lower coefficients.  A supplied gq is irreducible
    when the product table built with it has no zero divisor, and a
    supplied gq2 when X^2 + c1*X + c0 has no root in GF(q).
    """

    def __init__(self, p: int, h: int = 1, gq=None, gq2=None):
        # size checks first: is_prime(p) and p ** h grow with p and h
        if h < 1:
            raise FieldError(f"h={h} must be >= 1")
        if p < 2:
            raise FieldError(f"p={p} is not prime")
        if h >= MAX_Q2.bit_length():  # q >= 2^h > MAX_Q2
            raise FieldError(f"q={p}^{h} unsupported: q^2 exceeds {MAX_Q2}")
        q = p ** h
        if q * q > MAX_Q2:
            raise FieldError(f"q={q} unsupported: q^2 exceeds {MAX_Q2}")
        if not is_prime(p):
            raise FieldError(f"p={p} is not prime")
        self.p = p
        self.h = h
        self.q = q
        self.q2 = q * q

        self._build_add_tables()
        if h == 1:
            if gq is not None:
                raise FieldError("gq must be absent when h=1")
            mul = self._field_products(0)
        elif gq is None:
            # the first monic theta^h + low, in encoding order of low, whose
            # quotient ring is a field; one exists for every h
            for low in range(q):
                mul = self._field_products(low)
                if mul is not None:
                    break
            gq = [low // p ** i % p for i in range(h)] + [1]
        else:
            gq = list(gq)
            if len(gq) != h + 1 or gq[-1] != 1 or any(not 0 <= c < p for c in gq):
                raise FieldError(f"gq={gq} is not a monic degree-{h} polynomial over GF({p})")
            mul = self._field_products(sum(c * p ** i for i, c in enumerate(gq[:-1])))
            if mul is None:
                raise FieldError(f"gq={gq} is reducible over GF({p})")
        self.gq = gq
        self.q_mul_table = mul
        self.q_inv_table = [0] + [row.index(1) for row in mul[1:]]

        if gq2 is None:
            gq2 = self._smallest_irreducible_quadratic()
        gq2 = list(gq2)
        if len(gq2) != 3 or gq2[2] != 1 or any(not 0 <= c < q for c in gq2):
            raise FieldError(f"gq2={gq2} is not a monic quadratic over GF({q})")
        if self._quadratic_has_root(gq2):
            raise FieldError(f"gq2={gq2} is reducible over GF({q})")
        self.gq2 = gq2

        # eps^2 = r0 + r1*eps
        self._r0 = self.q_neg(gq2[0])
        self._r1 = self.q_neg(gq2[1])
        self._t1 = self.q_add(1, 1)  # trace(1)
        self.eps = q  # integer encoding of (0, 1)
        # eps plus its Frobenius image eps^q is trace(eps); frobenius, trace, norm rest on it
        if self.add(self.pow(self.eps, q), self.eps) != self._r1:
            raise FieldError("trace(eps) not in GF(q); broken modulus")

    # -- construction helpers ------------------------------------------------

    def _build_add_tables(self):
        p, h = self.p, self.h
        # sums digit by digit: a = a0 + p*a' adds as (a0 + b0) % p + p*(a' + b');
        # row a of GF(p) is 0..p-1 rotated left by a.  In encoding order a'
        # runs outer and a0 inner (and so do b' and b0), so row a0 + p*a' is
        # the GF(p) row of a0 widened by p times the row of a'
        digits = list(range(p))
        base = add = [digits[a:] + digits[:a] for a in range(p)]
        for _ in range(h - 1):
            add = [[x + y for y in shifted for x in lo]
                   for shifted in [[p * v for v in hi] for hi in add] for lo in base]
        self.q_add_table = add
        self.q_neg_table = [row.index(0) for row in add]

    def _field_products(self, low):
        """The product table of GF(p)[theta]/(gq) with gq = theta^h + low,
        low the encoding of gq's lower coefficients; None when that ring
        has a zero divisor, i.e. when gq is reducible.

        Products go digit by digit: b = b0 + theta*b' multiplies as
        b0*a + theta*(b'*a), and rows b < p are repeated sums.  theta*x
        shifts the digits of x up one place; the digit shifted out of the
        top returns times theta^h = -low.  When h == 1 no row b >= p
        reads theta.  In a finite ring a nonzero b is a zero divisor
        exactly when it has no inverse, i.e. when row b holds no 1; rows
        b < p are nonzero scalars, so the ring is a field exactly when each
        row b >= p holds a 1.
        """
        p, q, add = self.p, self.q, self.q_add_table
        mul = [[0] * q]
        for _ in range(1, p):
            mul.append([add[x][a] for a, x in enumerate(mul[-1])])
        top = q // p
        over = self.q_neg_table[low]
        theta = [add[x % top * p][mul[x // top][over]] for x in range(q)]
        for b in range(p, q):
            row = [add[x][theta[y]] for x, y in zip(mul[b % p], mul[b // p])]
            if 1 not in row:  # b is a zero divisor
                return None
            mul.append(row)
        return mul

    def _quadratic_values(self, c1):
        """x*(x + c1) = x^2 + c1*x for every x in GF(q), indexed by x."""
        # x + c1 over x is the sum row of c1
        return list(map(getitem, self.q_mul_table, self.q_add_table[c1]))

    def _quadratic_has_root(self, g) -> bool:
        c0, c1, _ = g
        return self.q_neg_table[c0] in self._quadratic_values(c1)

    def _smallest_irreducible_quadratic(self):
        # encoding order c0 + q*c1: one value set per c1, then every c0
        for c1 in range(self.q):
            values = set(self._quadratic_values(c1))
            for c0 in range(self.q):
                if self.q_neg_table[c0] not in values:
                    return [c0, c1, 1]
        raise FieldError("no irreducible quadratic found")  # unreachable

    # -- GF(q) arithmetic on integers in [0, q) ------------------------------

    def q_add(self, a: int, b: int) -> int:
        return self.q_add_table[a][b]

    def q_neg(self, a: int) -> int:
        return self.q_neg_table[a]

    def q_sub(self, a: int, b: int) -> int:
        return self.q_add_table[a][self.q_neg_table[b]]

    def q_mul(self, a: int, b: int) -> int:
        return self.q_mul_table[a][b]

    def q_inv(self, a: int) -> int:
        if a == 0:
            raise FieldError("inverse of zero in GF(q)")
        return self.q_inv_table[a]

    # -- GF(q^2) arithmetic on integers in [0, q^2) ---------------------------

    def decompose(self, u: int):
        """Components (u0, u1) of u = u0 + eps*u1 with u0, u1 in GF(q)."""
        return u % self.q, u // self.q

    def compose(self, u0: int, u1: int) -> int:
        return u0 + self.q * u1

    def add(self, a: int, b: int) -> int:
        q = self.q
        return self.q_add_table[a % q][b % q] + q * self.q_add_table[a // q][b // q]

    def mul(self, a: int, b: int) -> int:
        q = self.q
        a0, a1 = a % q, a // q
        b0, b1 = b % q, b // q
        mul = self.q_mul_table
        add = self.q_add_table
        cross = mul[a1][b1]
        lo = add[mul[a0][b0]][mul[cross][self._r0]]
        hi = add[add[mul[a0][b1]][mul[a1][b0]]][mul[cross][self._r1]]
        return lo + q * hi

    def pow(self, a: int, n: int) -> int:
        if n < 0:
            raise FieldError(f"negative exponent {n}")
        result = 1
        base = a
        while n:
            if n & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            n >>= 1
        return result

    def elements(self):
        return range(self.q2)

    # -- Frobenius, trace, norm ----------------------------------------------

    def frobenius(self, u: int) -> int:
        """u^q = u0 + r1*u1 - eps*u1, since eps^q = r1 - eps."""
        q = self.q
        u0, u1 = u % q, u // q
        return self.q_add_table[u0][self.q_mul_table[self._r1][u1]] + q * self.q_neg_table[u1]

    def trace(self, u: int) -> int:
        """u^q + u by the linear form T(u0 + eps*u1) = T(1)*u0 + r1*u1,
        since T(eps) = eps^q + eps = r1."""
        q, mul = self.q, self.q_mul_table
        return self.q_add_table[mul[self._t1][u % q]][mul[self._r1][u // q]]

    def norm(self, u: int) -> int:
        """u^(q+1) by the quadratic form N(u0 + eps*u1) = u0*(u0 + r1*u1) -
        r0*u1^2, since eps^(q+1) = eps*(r1 - eps) = -r0."""
        q, add, mul, neg = self.q, self.q_add_table, self.q_mul_table, self.q_neg_table
        u0, u1 = u % q, u // q
        return add[mul[u0][add[u0][mul[self._r1][u1]]]][neg[mul[self._r0][mul[u1][u1]]]]

    def _norm_rows(self):
        """For each x1 in GF(q), in order: the list of x0*(x0 + r1*x1) over
        x0, and r0*x1^2.  norm(x0 + eps*x1) is the first less the second."""
        mul = self.q_mul_table
        for x1 in range(self.q):
            yield self._quadratic_values(mul[self._r1][x1]), mul[self._r0][mul[x1][x1]]

    def norm_circle(self, c: int):
        """All u with norm(u) = c, ascending: by norm's quadratic form, for
        each x1 the circle's x0 are the roots of x0*(x0 + r1*x1) = c + r0*x1^2.
        """
        q, add = self.q, self.q_add_table
        out = []
        for x1, (values, r0x1x1) in enumerate(self._norm_rows()):
            target = add[c][r0x1x1]
            out.extend(x0 + q * x1 for x0 in range(q) if values[x0] == target)
        return out

    def norm_bytes(self) -> bytes:
        """norm(u) for every u in GF(q^2), as bytes indexed by u (a symbol is
        a byte, as q <= 256): row x1 is x0*(x0 + r1*x1) less r0*x1^2, one
        translate by the sum row of -r0*x1^2."""
        add, neg, pad = self.q_add_table, self.q_neg_table, bytes(256 - self.q)
        return b"".join(bytes(values).translate(bytes(add[neg[r0x1x1]]) + pad)
                        for values, r0x1x1 in self._norm_rows())

    # -- misc ------------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, FieldTower):
            return NotImplemented
        return (self.p, self.h, self.gq, self.gq2) == (other.p, other.h, other.gq, other.gq2)

    def __hash__(self):
        return hash((self.p, self.h, tuple(self.gq or ()), tuple(self.gq2)))

    def __repr__(self):
        return f"FieldTower(p={self.p}, h={self.h}, gq={self.gq}, gq2={self.gq2})"


def tower_for_q(q: int) -> FieldTower:
    """Build the tower for a prime power q with the default moduli."""
    if q * q > MAX_Q2:  # before factoring, whose cost grows with q
        raise FieldError(f"q={q} unsupported: q^2 exceeds {MAX_Q2}")
    p, h = factor_prime_power(q)
    return FieldTower(p, h)

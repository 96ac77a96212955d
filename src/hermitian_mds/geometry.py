"""Arcs and transversals in GF(q^2), viewed as AG(2,q).

GF(q^2) is identified with AG(2,q) through the basis {1, eps}; a subset of
GF(q^2) is usable as an evaluation support iff it is an arc there.  The
paper's power condition for that is tested as distinct slopes from a new
point to the points already chosen (_extends_arc, behind
arc_condition_holds), on decomposed (x0, x1) coordinates.  The norm_circle
strategy is the unit circle {u : norm(u) = 1}, read off the norm's
quadratic form (FieldTower.norm_circle); for even q the unit circle plus 0
is a (q+2)-arc, the hyperoval strategy.  Any other arc is given as an
explicit list.  The norm onto GF(q)* is surjective, so every norm circle
{norm(u) = c} is a*{norm(u) = 1} for any a of norm c; multiplying by a is
GF(q)-linear on AG(2,q), so that circle gives the unit circle's code with
its coordinates reordered.  A transversal S holds one representative per
coset of the trace-zero subgroup, so trace restricted to S is a bijection
onto GF(q).

build_lambda and build_transversal validate nothing they return: their
strategies are arcs and transversals by construction, explicit arc
elements are passed through as given, and code.CodeSpec validates both
once for every instance it is given.
All enumeration orders are fixed so construction output is reproducible
byte for byte.
"""


def _extends_arc(F, pts, new):
    """Whether no two points of pts are collinear with new in AG(2,q), all
    given as (x0, x1) coordinates.

    This is the paper's power criterion with new as the apex beta: for
    alpha, gamma != beta, ((alpha-beta)/(gamma-beta))^(q-1) = 1 iff the
    ratio lies in GF(q)*, iff alpha-beta and gamma-beta are GF(q)-multiples
    of each other, i.e. have the same slope in AG(2,q): (x1 - a1)/(x0 - a0)
    from new = (a0, a1), or q when x0 = a0.
    """
    q, neg, mul, inv = F.q, F.q_neg_table, F.q_mul_table, F.q_inv_table
    # from0[x0] = x0 - a0 and from1[x1] = x1 - a1
    from0, from1 = F.q_add_table[neg[new[0]]], F.q_add_table[neg[new[1]]]
    slopes = [mul[from1[x1]][inv[d0]] if (d0 := from0[x0]) else q for x0, x1 in pts]
    return len(set(slopes)) == len(slopes)


def arc_condition_holds(F, lam):
    """Power criterion over all ordered triples of distinct elements.

    True iff ((alpha-beta)/(gamma-beta))^(q-1) != 1 for every ordered triple
    of pairwise-distinct alpha, beta, gamma in lam.  Lists with fewer than
    three elements pass vacuously; duplicates are rejected.  Each element is
    checked as the apex against the ones before it, so the cost is O(N^2).
    """
    lam = list(lam)
    if len(set(lam)) != len(lam):
        raise ValueError("duplicate elements in arc candidate")
    pts = [F.decompose(u) for u in lam]
    return all(_extends_arc(F, pts[:i], pts[i]) for i in range(len(pts)))


def arc_size_bound(F):
    # q+1 for odd q, q+2 for even q
    return F.q + 2 if F.q % 2 == 0 else F.q + 1


def validate_arc(F, lam):
    """Raise unless lam is a valid ordered arc of size within bounds."""
    lam = list(lam)
    if any(not 0 <= u < F.q2 for u in lam):
        raise ValueError("arc elements must be canonical GF(q^2) integers")
    if len(lam) < 3:
        raise ValueError("arc needs at least 3 elements")
    if len(lam) > arc_size_bound(F):
        raise ValueError(f"arc of size {len(lam)} exceeds the bound {arc_size_bound(F)}")
    if not arc_condition_holds(F, lam):
        raise ValueError("arc condition fails")
    return lam


def build_lambda(F, arc):
    """Construct an ordered arc in GF(q^2) from a strategy name or its
    elements.

    Elements (any non-string iterable): returned as a list, order preserved.
    'norm_circle': all u with norm(u) = 1, ascending.
    'hyperoval' (even q only): 0 and all u with norm(u) = 1, ascending.  In
    characteristic 2 the unit circle is a conic of AG(2,q) whose tangents
    all meet at its nucleus 0, so the two together are a (q+2)-arc, the
    size bound (Hirschfeld, Projective Geometries over Finite Fields, ch. 8).
    No arc is validated here; CodeSpec is the gate that validates every
    arc it is given, explicit elements included.
    """
    if not isinstance(arc, str):
        return list(arc)
    if arc == "norm_circle":
        return F.norm_circle(1)
    if arc == "hyperoval":
        if F.q % 2:
            raise ValueError("a hyperoval needs even q")
        return [0] + F.norm_circle(1)
    raise ValueError(f"unknown arc strategy {arc!r}")


def validate_transversal(F, s):
    """Raise unless trace restricted to s is a bijection onto GF(q); return
    its inverse, the map trace -> element of s."""
    s = list(s)
    if any(not 0 <= u < F.q2 for u in s):
        raise ValueError("transversal elements must be canonical GF(q^2) integers")
    if len(s) != F.q:
        raise ValueError(f"transversal must have exactly q={F.q} elements")
    traces = [F.trace(x) for x in s]
    if sorted(traces) != list(range(F.q)):
        raise ValueError("trace values do not enumerate GF(q)")
    return dict(zip(traces, s))


def build_transversal(F, strategy):
    """One representative per coset of the trace-zero subgroup.

    strategy 'subfield': S = GF(q) itself (odd q only; trace(c) = 2c).
    strategy 'unit_trace': S = {c*mu : c in GF(q)} for the first mu in
    integer order with trace(mu) = 1.
    Both are transversals by construction; CodeSpec validates them.
    """
    if strategy == "subfield":
        if F.q % 2 == 0:
            raise ValueError("GF(q) lies in the trace kernel for even q")
        return list(range(F.q))
    if strategy == "unit_trace":
        mu = next(u for u in F.elements() if F.trace(u) == 1)
        return [F.mul(c, mu) for c in range(F.q)]
    raise ValueError(f"unknown transversal strategy {strategy!r}")

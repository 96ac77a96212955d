"""Geometric and nearest-codeword decoding in PG(3,q).

A received word r lifts to N points (lam_i^1, lam_i^2, r_i, 1), one per
coordinate, all on the cone with vertex Z_inf = (0,0,1,0) over the base
arc Xi = {(lam_i^1, lam_i^2, 0, 1)} in the plane z = 0.  Codewords are
exactly the sections of that cone's generators by planes missing Z_inf,
i.e. planes z = c1*x + c2*y + c0*t.  Decoding searches for the codeword
plane: project the lifted points from a center P into the plane t = 0,
fit a curve of minimum degree through the projections, and look for a
linear component containing at least ceil((N+3)/2) of them; the span of P
and that line is the plane of the corrected codeword.  That count is what
"more than half" must mean for the distance guarantee to hold: with
n >= (N+3)/2 positions on the line, the returned word differs from r in
at most N - ceil((N+3)/2) = floor((N-3)/2) places, and a word within the
guaranteed radius floor((N-3)/2) of the code meets it exactly.  (For odd
N this is the same as n > (N+1)/2; for even N the weaker reading would
admit returns at distance floor((N-1)/2), breaking the guarantee that a
returned word is always within floor((N-3)/2) of what was received.)

Centers are the q affine points (u, v, w, 1) of the cone generator over
the first point (u, v) of the plane z = 0, in integer order, that is off
the base arc; each spec builds them once (CodeSpec._centers).  Every
codeword plane z = c1*x + c2*y + c0*t meets that generator in exactly one
affine point, (u, v, c1*u + c2*v + c0, 1), because the generator's
infinite point is the cone vertex, which codeword planes avoid.  So one
center lies in each codeword plane, and projecting from it sends the
codeword's positions onto one line of t = 0: scanning the q centers
reaches every codeword within the guaranteed radius.  As (u, v) is off
the arc, no lifted point shares a generator with a center, so no
projection lands on the vertex direction (0, 0, 1).  The soundness
argument (any returned word is within (N-3)/2 of the received word) only
uses the threshold count, so it is unaffected by where the center sits.

No heavy line passes through the vertex direction.  A line a*x + b*y = 0
of t = 0 holds the projection of (l1, l2, r, 1) exactly when
a*(l1 - u) + b*(l2 - v) = 0, that is when (l1, l2) lies on one line of
AG(2,q) through the center's (u, v); that line meets the arc at most
twice, so the line of t = 0 holds at most 2 projections, counted with
multiplicity, and ceil((N+3)/2) >= 3.  So every heavy line has c != 0,
and its plane misses the vertex.

At most one line of t = 0 is heavy at a center.  Two lifted points
project to the same point only if their arc points are collinear with
(u, v) in AG(2,q), and a line meets the arc at most twice, so each
projection has multiplicity at most 2.  Two lines share one point, so
together they hold at most N + 2 projections, fewer than the N + 3 two
heavy lines need.  So the filter returns the heavy line itself.

The heavy line L is a component of some curve of minimum degree e
through the projections, whatever basis the curves of degree e are
given.  Let need = ceil((N+3)/2), let m and k be the numbers of distinct
projections on and off L, and let e_off be the least degree of a curve
through the k off-line ones.  L times such a curve passes through every
projection, so e <= 1 + e_off.  If e <= e_off, no curve of degree e
through the projections contains L, since the other factor would be a
curve of degree e - 1 through the off-line projections.  Each such curve
then meets L in at most e points (Bezout), so m <= e.  With multiplicity
at most 2, m >= ceil(need/2); and k <= N - need gives
e_off <= e'(N - need), the least e' with (e'+1)(e'+2)/2 > N - need.  So
ceil(need/2) <= m <= e <= e'(N - need), which fails for every N from 3
to 258.  Hence e = 1 + e_off, and L times a curve of degree e_off is a
curve of degree e through the projections.  As e <= 1 + e'(N - need)
<= N - 2 <= q, Bezout also says a curve of degree e contains L exactly
when it passes through e + 1 of its points.  So the factor step is one
rank test: some degree-e curve passes through the projections and
e + 1 points of L.

Center and lifted points are both affine, so projecting Q from P onto
t = 0 gives the direction Q - P, normalized with its last nonzero entry 1.
Lines of t = 0 are coefficient triples normalized with their first nonzero
entry 1.  A heavy line a*x + b*y + c*z = 0 (c != 0) and the center
P = (u, v, w, 1) span the plane
z = -(a/c)*x - (b/c)*y + (a*u + b*v + c*w)/c, so the codeword plane is
read off in closed form.
"""

from collections import Counter
from dataclasses import dataclass
from operator import getitem

from .code import (
    CodeSpec,
    plane_to_codeword,
    plane_to_message,
    validate_word,
)
from .linalg import rank


# ---------------------------------------------------------------------------
# lifting and projecting
# ---------------------------------------------------------------------------

def lift(spec: CodeSpec, r):
    """The N cone points (lam_i^1, lam_i^2, r_i, 1) encoding the word."""
    r = validate_word(spec, r)
    return [(l1, l2, c, 1) for (l1, l2), c in zip(spec.coords, r)]


def normalize_point(F, v):
    """Scale a homogeneous coordinate tuple so its last nonzero entry is 1."""
    v = list(v)
    piv = None
    for j in range(len(v) - 1, -1, -1):
        if v[j]:
            piv = j
            break
    if piv is None:
        raise ValueError("zero vector is not a projective point")
    s = F.q_inv(v[piv])
    return tuple(F.q_mul(s, x) for x in v)


# ---------------------------------------------------------------------------
# curves of t = 0 through given points
# ---------------------------------------------------------------------------

def monomials(e: int):
    """Degree-e exponent triples (i,j,k), lexicographically descending."""
    return [(i, j, e - i - j) for i in range(e, -1, -1) for j in range(e - i, -1, -1)]


def _curve_through(F, pts, e):
    """Whether a curve of degree e passes through the points: the
    evaluation matrix (rows: points; columns: degree-e monomials) has a
    nontrivial kernel."""
    MUL = F.q_mul_table

    def powers(v):  # v^0, ..., v^e
        out = [1]
        for _ in range(e):
            out.append(MUL[out[-1]][v])
        return out

    mons = monomials(e)
    rows = []
    for pt in pts:
        px, py, pz = map(powers, pt)
        rows.append([MUL[px[i]][MUL[py[j]][pz[k]]] for i, j, k in mons])
    return rank(F, rows) < len(mons)


def fit_min_degree_curve(F, points):
    """The least degree of a curve of t=0 through the given points.

    The degree never exceeds q+1 at desk scale.
    """
    pts = list(dict.fromkeys(points))
    if not pts:
        raise ValueError("need at least one point")
    e = 1
    while not _curve_through(F, pts, e):
        e += 1
        if e > F.q + 1:  # raised, not asserted, so that -O keeps the guard
            raise AssertionError("fitting degree exceeded q+1")
    return e


def _line_points(F, L):
    """The q+1 points of the line L (first nonzero coefficient 1) of t = 0,
    normalized like projections."""
    piv = next(i for i, c in enumerate(L) if c)
    f1, f2 = (i for i in range(3) if i != piv)
    pts = []
    for s, t in [(1, t) for t in range(F.q)] + [(0, 1)]:
        p = [0, 0, 0]
        p[f1], p[f2] = s, t
        p[piv] = F.q_neg(F.q_add(F.q_mul(L[f1], s), F.q_mul(L[f2], t)))
        pts.append(normalize_point(F, p))
    return pts


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class DecodeResult:
    codeword: tuple
    message: tuple
    corrected_positions: tuple
    center: tuple  # the projection center (u, v, w, 1), from spec._centers
    factor: tuple  # the heavy line of t = 0, first nonzero coefficient 1


def _cross(F, a, b):
    return (
        F.q_sub(F.q_mul(a[1], b[2]), F.q_mul(a[2], b[1])),
        F.q_sub(F.q_mul(a[2], b[0]), F.q_mul(a[0], b[2])),
        F.q_sub(F.q_mul(a[0], b[1]), F.q_mul(a[1], b[0])),
    )


def _heavy_line(F, pts, need):
    """The first line through two distinct entries of pts that holds at
    least `need` entries (with repetition), normalized with its first
    nonzero coefficient 1; None if no line is that heavy.

    A candidate line is left as soon as the entries off it, counted with
    repetition, exceed slack = len(pts) - need, since it can then no longer
    hold `need`.  A heavy line never exceeds it, so the first heavy line
    in pair order is the one returned."""
    mult = Counter(pts)
    distinct = list(mult)
    slack = len(pts) - need
    for i in range(len(distinct)):
        for j in range(i + 1, len(distinct)):
            a, b, c = L = _cross(F, distinct[i], distinct[j])
            off = 0
            for p in distinct:
                acc = F.q_add(F.q_add(F.q_mul(a, p[0]), F.q_mul(b, p[1])), F.q_mul(c, p[2]))
                if acc:
                    off += mult[p]
                    if off > slack:
                        break
            else:
                s = F.q_inv(next(x for x in L if x))
                return tuple(F.q_mul(s, x) for x in L)
    return None


def geometric_decode(spec: CodeSpec, r):
    """Decode by plane recovery; returns a DecodeResult or None on failure.

    Within (N-3)/2 errors the transmitted codeword is always returned; any
    returned word, even beyond that radius, is within (N-3)/2 of r.
    """
    F = spec.tower
    N = spec.N
    lifted = lift(spec, r)
    need = (N + 4) // 2  # ceil((N+3)/2)

    for P in spec._centers:
        u, v, w, _ = P
        projs = [normalize_point(F, (F.q_sub(a, u), F.q_sub(b, v), F.q_sub(c, w)))
                 for (a, b, c, _) in lifted]
        L = _heavy_line(F, projs, need)
        if L is None:
            continue
        e = fit_min_degree_curve(F, projs)
        # the paper's factor test, raised rather than asserted so -O keeps it
        if not _curve_through(F, {*projs, *_line_points(F, L)[:e + 1]}, e):
            raise AssertionError("the heavy line is not a component of a minimum-degree curve")
        a, b, c = L
        s = F.q_inv(c)
        d = F.q_add(F.q_add(F.q_mul(a, u), F.q_mul(b, v)), F.q_mul(c, w))
        plane = (F.q_neg(F.q_mul(s, a)), F.q_neg(F.q_mul(s, b)), F.q_mul(s, d))
        word = plane_to_codeword(spec, plane)
        return DecodeResult(
            codeword=word,
            message=plane_to_message(spec, plane),
            corrected_positions=tuple(i for i, (cw, Q) in enumerate(zip(word, lifted))
                                      if cw != Q[2]),
            center=P, factor=L,
        )
    return None


def ml_decode(spec: CodeSpec, r):
    """Nearest codeword: the section by a plane z = c1*x + c2*y + c0 through
    the most lifted points, whose c0 for each of the q^2 pairs (c1, c2) is
    the most common value of r_i - c1*lam_i^1 - c2*lam_i^2, one Counter per
    pair: the library's only loop over q^2 planes.  Ties break toward the
    lexicographically smallest codeword and set the tie flag."""
    F = spec.tower
    neg, plus_r = F.q_neg_table, [F.q_add_table[c] for c in validate_word(spec, r)]
    best, planes = 0, []
    for c1 in range(F.q):
        for c2 in range(F.q):
            # r_i plus symbol i of the section by (-c1, -c2, 0)
            section = plane_to_codeword(spec, (neg[c1], neg[c2], 0))
            counts = Counter(map(getitem, plus_r, section))
            n = max(counts.values())
            if n > best:
                best, planes = n, []
            if n == best:
                planes += [(c1, c2, c0) for c0, k in counts.items() if k == n]
    words = [plane_to_codeword(spec, plane) for plane in planes]
    return min(words), len(words) > 1

"""Construction and analysis of the evaluation code.

A code instance is determined by a field tower, an ordered arc Lambda in
GF(q^2) (one coordinate per element) and a transversal S of the trace-zero
subgroup.  The codeword for a message (x, y) in Omega = GF(q^2) x S has
symbols

    norm(x) + trace(y) + trace(lambda_i * x)        (one per lambda_i)

which is the Z=1 evaluation of the Hermitian form
X^{q+1} + Y^q Z + Y Z^q + lambda^q X^q Z + lambda X Z^q, the paper's
coordinate form (form_eval).  With lambda_i = lam_i^1 + eps*lam_i^2 the
trace term is c1*lam_i^1 + c2*lam_i^2 for c1 = T(x), c2 = T(eps*x), so the
codeword is the section of the cone over the arc by the plane
z = c1*x + c2*y + c0, c0 = norm(x) + T(y).  Every section is a scale and
a shift of one of q + 1 direction rows, one per point (c1 : c2) of
PG(1, q); with q <= 256 a symbol is a byte, so each is a bytes.translate.
encode reads it off a per-spec table built on its first call: for each x
the direction row and scale table of (T(x), T(eps*x)) and norm(x), and
for each y in S the shift tables of norm + T(y), a map that is also the
domain check of y.  So an encode is two translates; construct, the
decoders and the counts never build that table.  message_to_plane
computes the same plane from the definitions, as plane_to_message
inverts it.  The resulting code is q-ary, has q^3 words, dimension 3 and
minimum distance N-2; none of that is assumed.  The weights, and with them |C| = q^3, the
distance and the common zeros, are counted from the q + 1 direction
sections (_direction_counts): a nonzero codeword is a nonzero constant or
s*row + c0, s != 0 and row the section of (c1, c2, 0) for one (c1 : c2),
with zeros where row = -c0/s.  `verify` checks
every symbol of every codeword against the five-term form, each term
evaluated once per x, per y or per lam (literal_form_holds), and counts
the pairwise zeros over every message with form_eval: the two scans
ENUMERATION_BUDGET bounds.

Messages are planes: (c1, c2) is the trace pairing of {1, eps} applied to
x's components, and plane_to_codeword is GF(q)-linear, so sums and
multiples of codewords are those of their planes (msg_add, msg_scale).
"""

import functools
import math
from collections import Counter
from operator import getitem

from .fields import FieldTower, tower_for_q
from .geometry import (
    build_lambda,
    build_transversal,
    validate_arc,
    validate_transversal,
)
from .linalg import rref

ENUMERATION_BUDGET = 1 << 20  # max q^3 for scans over every message

# Known reference instance over GF(25), eps a root of X^2 - X + 2:
# the arc is eps^{3,4,8,15,16,20} and S is the prime field.  Its generator
# matrix and weight counts serve as frozen cross-checks.
REFERENCE_Q5_GQ2 = [2, 4, 1]
REFERENCE_Q5_LAMBDA = [23, 12, 11, 7, 18, 19]
REFERENCE_Q5_G_ROWS = [
    [1, 1, 1, 1, 1, 1],
    [0, 1, 0, 2, 1, 2],
    [0, 0, 1, 2, 2, 1],
]
REFERENCE_Q5_WEIGHTS = {4: 60, 5: 24, 6: 40}


class CodeSpec:
    """Immutable description of one code instance.

    Validates the arc and the transversal, the one gate for both:
    build_lambda and build_transversal validate nothing they return.

    Holds the plane basis of the code: coords[i] = (lam_i^1, lam_i^2), the
    components of lam_i, so the codeword of the plane z = c1*x + c2*y + c0
    has symbols c1*lam_i^1 + c2*lam_i^2 + c0.  gram is the trace pairing
    G = ((T(1), T(eps)), (T(eps), T(eps^2))), which takes the components
    of x to (c1, c2) = (T(x), T(eps*x)), and gram_inv its inverse.  With
    eps^2 = r0 + r1*eps, det G = r1^2 + 4*r0, the discriminant of gq2, which
    is nonzero for every irreducible gq2 (in characteristic 2 that needs
    r1 != 0); were it ever zero, q_inv would raise here.

    Three tables are built on first use.  _directions, the direction row
    and the scale of each (c1 : c2), serves every plane section.
    _encode_table serves encode alone: per x the row and scale of its plane
    and norm(x), per y in S the shift tables of norm + T(y); about 1.5 MB at
    q=256, so construct and the decoders never build it.  _centers, the
    geometric decoder's q projection centers, serves every decode of the
    spec, and each DecodeResult holds one of its tuples.
    """

    def __init__(self, tower: FieldTower, lam, s):
        self.tower = tower
        self.lam = validate_arc(tower, lam)
        self.s = list(s)
        self.s_by_trace = validate_transversal(tower, self.s)
        self.N = len(self.lam)
        self.coords = [tower.decompose(l) for l in self.lam]
        self.s0 = self.s_by_trace[0]
        g11 = tower.trace(1)
        g12 = tower.trace(tower.eps)
        g22 = tower.trace(tower.mul(tower.eps, tower.eps))
        self.gram = ((g11, g12), (g12, g22))
        d = tower.q_inv(tower.q_sub(tower.q_mul(g11, g22), tower.q_mul(g12, g12)))
        off = tower.q_neg(tower.q_mul(d, g12))
        self.gram_inv = ((tower.q_mul(d, g22), off), (off, tower.q_mul(d, g11)))

    @functools.cached_property
    def _directions(self):
        """row[c1][c2] and scale[c2]: the section of z = c1*x + c2*y + c0 is
        row[c1][c2].translate(scale[c2]).translate(shift[c0]).  With c2 != 0
        the plane is c2 times z = t*x + y, t = c1/c2, so the row is that
        section and scale[c2] the GF(q) product row of c2; with c2 = 0 the
        row is the section of z = c1*x itself and scale[0] the identity.
        scale and shift (the GF(q) sum rows) are 256-byte translate tables,
        zero past q."""
        F, pad = self.tower, bytes(256 - self.tower.q)
        add, mul = F.q_add_table, F.q_mul_table
        prod = [bytes(r) + pad for r in mul]
        rows = [bytes(add[mul[t][l1]][l2] for l1, l2 in self.coords) for t in range(F.q)]
        x_row, inv = bytes(l1 for l1, _ in self.coords), bytes(F.q_inv_table[1:])
        # row[c1][c2] for c2 = 1..q-1 is rows[c1 * inv(c2)]
        row = [[x_row.translate(p), *map(rows.__getitem__, inv.translate(p))] for p in prod]
        return row, [bytes(range(256)), *prod[1:]], [bytes(r) + pad for r in add]

    @functools.cached_property
    def _encode_table(self):
        """For every x = x0 + q*x1 in GF(q^2), indexed by x: the direction
        row and the scale table of (c1 : c2) = (T(x), T(eps*x)) = gram (x0, x1),
        and norm(x) as bytes.  For every y in S: the shift tables of n + T(y),
        indexed by n = norm(x); this map is also the domain of y."""
        F = self.tower
        row, scale, shift = self._directions
        mul = F.q_mul_table
        # row x1 of a*x0 + b*x1: the product row of a shifted by b*x1
        c1, c2 = (b"".join(map(bytes(mul[a]).translate, [shift[k] for k in mul[b]]))
                  for a, b in self.gram)
        return (list(map(getitem, map(row.__getitem__, c1), c2)),
                list(map(scale.__getitem__, c2)),
                F.norm_bytes(),
                {y: list(map(shift.__getitem__, F.q_add_table[t]))
                 for t, y in self.s_by_trace.items()})

    @functools.cached_property
    def _centers(self):
        """The geometric decoder's projection centers: the q affine points
        (u, v, w, 1), w ascending, of the cone generator over the first
        element (u, v) of GF(q^2), in integer order, that is off the arc."""
        F = self.tower
        in_arc = set(self.lam)
        g = next((u for u in F.elements() if u not in in_arc), None)
        if g is None:
            raise ValueError("no projection center: the arc covers GF(q^2)")
        u, v = F.decompose(g)
        return tuple((u, v, w, 1) for w in range(F.q))

    def __eq__(self, other):
        if not isinstance(other, CodeSpec):
            return NotImplemented
        return (self.tower, self.lam, self.s) == (other.tower, other.lam, other.s)

    def __repr__(self):
        return f"CodeSpec(q={self.tower.q}, N={self.N})"


def validate_word(spec: CodeSpec, r):
    r = tuple(r)
    if len(r) != spec.N:
        raise ValueError(f"word length {len(r)} != N = {spec.N}")
    if any(not 0 <= c < spec.tower.q for c in r):
        raise ValueError("symbols must be canonical GF(q) integers")
    return r


# ---------------------------------------------------------------------------
# planes <-> messages <-> codewords
# ---------------------------------------------------------------------------

def _pair(F, matrix, u, v):
    """matrix times the column (u, v) over GF(q): gram for message_to_plane,
    gram_inv for plane_to_message."""
    add, mul = F.q_add_table, F.q_mul_table
    (a, b), (c, d) = matrix
    return add[mul[a][u]][mul[b][v]], add[mul[c][u]][mul[d][v]]


def _outside_domain(m):
    return ValueError(f"message {m} outside the domain GF(q^2) x S")


def message_to_plane(spec: CodeSpec, m):
    """(c1, c2, c0) of the plane z = c1*x + c2*y + c0*t carrying encode(m):
    (c1, c2) = (T(x), T(eps*x)) = gram (x0, x1), c0 = norm(x) + T(y)."""
    x, y = m
    F = spec.tower
    if not 0 <= x < F.q2 or y not in spec.s:
        raise _outside_domain(m)
    return (*_pair(F, spec.gram, *F.decompose(x)), F.q_add(F.norm(x), F.trace(y)))


def plane_to_message(spec: CodeSpec, plane):
    """Invert message_to_plane: x from the inverse trace pairing, then the
    transversal representative for y."""
    F = spec.tower
    c1, c2, c0 = plane
    x = F.compose(*_pair(F, spec.gram_inv, c1, c2))
    y = spec.s_by_trace[F.q_sub(c0, F.norm(x))]
    return (x, y)


def plane_to_codeword(spec: CodeSpec, plane):
    """Symbols c1*lam_i^1 + c2*lam_i^2 + c0, the plane's cone section: the
    direction row of (c1 : c2), scaled and shifted by c0."""
    c1, c2, c0 = plane
    row, scale, shift = spec._directions
    return tuple(row[c1][c2].translate(scale[c2]).translate(shift[c0]))


def codeword_to_plane(spec: CodeSpec, w):
    """Recover (c1, c2, c0) from a codeword; raises if w is not in the code."""
    w = validate_word(spec, w)
    R, pivots = rref(spec.tower, [(l1, l2, 1, c) for (l1, l2), c in zip(spec.coords, w)])
    if 3 in pivots:
        raise ValueError("word is not a codeword")
    # an arc has three non-collinear points, so columns 0..2 are the pivots
    return tuple(row[3] for row in R[:3])


def _direction_counts(spec: CodeSpec):
    """For each (c1 : c2) of PG(1, q), (1 : 0) first and then (t : 1) for t
    in GF(q): c1, c2 and the Counter of the section of (c1, c2, 0), which
    maps v to the number of i with c1*lam_i^1 + c2*lam_i^2 = v."""
    for c1, c2 in [(1, 0), *((t, 1) for t in range(spec.tower.q))]:
        yield c1, c2, Counter(plane_to_codeword(spec, (c1, c2, 0)))


# ---------------------------------------------------------------------------
# encoding and weights
# ---------------------------------------------------------------------------

def form_eval(spec: CodeSpec, lam_val: int, x: int, y: int) -> int:
    """Evaluate one coordinate form at (x, y): the paper's definition of a
    symbol, the literal five-term X^{q+1} + Y^q + Y + lam^q X^q + lam X at
    (x, y, 1), used by pairwise_intersection_count; literal_form_holds
    evaluates the same terms once each."""
    F = spec.tower
    return F.add(
        F.add(F.add(F.pow(x, F.q + 1), F.pow(y, F.q)), y),
        F.add(F.mul(F.pow(lam_val, F.q), F.pow(x, F.q)), F.mul(lam_val, x)),
    )


def encode(spec: CodeSpec, m) -> tuple:
    """Codeword of m = (x, y): the section of the cone over the arc by the
    plane of m, one symbol per arc element, read off the spec's encode
    table.  Symbol i equals form_eval(spec, lam_i, x, y), the Hermitian
    form at (x, y, 1)."""
    x, y = m
    rows, scales, norm, shifts = spec._encode_table
    if not 0 <= x < len(norm) or y not in shifts:
        raise _outside_domain(m)
    return tuple(rows[x].translate(scales[x]).translate(shifts[y][norm[x]]))


def iter_messages(spec: CodeSpec):
    """All of Omega in deterministic order: x ascending, y in S order.
    Raises before the first message past ENUMERATION_BUDGET."""
    q = spec.tower.q
    if q ** 3 > ENUMERATION_BUDGET:
        raise ValueError(f"enumeration budget exceeded for q={q}")
    for x in spec.tower.elements():
        for y in spec.s:
            yield (x, y)


def literal_form_holds(spec: CodeSpec) -> bool:
    """Whether every symbol of every codeword is the five-term form of
    form_eval at (x, y, 1), evaluated term by term with its pow, mul and add:
    lam^q once per arc element, y^q + y once per y in S, and x^{q+1} and
    lam^q x^q + lam x once per x.  It walks iter_messages, so the budget
    stops it before any term of x is evaluated."""
    F, q = spec.tower, spec.tower.q
    lam_q = [(lam, F.pow(lam, q)) for lam in spec.lam]
    trace_y = {y: F.add(F.pow(y, q), y) for y in spec.s}
    last_x = None
    for x, y in iter_messages(spec):
        if x != last_x:
            last_x, xq, norm_x = x, F.pow(x, q), F.pow(x, q + 1)
            linear = [F.add(F.mul(lq, xq), F.mul(lam, x)) for lam, lq in lam_q]
        head = F.add(norm_x, trace_y[y])
        if encode(spec, (x, y)) != tuple(F.add(head, t) for t in linear):
            return False
    return True


def generator_matrix(spec: CodeSpec) -> list:
    """Canonical 3xN generator, as a list of rows: the rref of the codewords
    [lam_i^1], [lam_i^2] and [1] of the planes (1,0,0), (0,1,0), (0,0,1)."""
    l1, l2 = zip(*spec.coords)
    return rref(spec.tower, [l1, l2, [1] * spec.N])[0]


def min_distance(spec: CodeSpec) -> int:
    """The least nonzero weight of the counted weight distribution."""
    return min(i for i, a in weight_distribution(spec, "enumerate").items() if i and a)


def is_mds(spec: CodeSpec) -> bool:
    """Whether every 3-column minor of the generator matrix is nonsingular.

    That is the MDS property of a dimension-3 code.  It reads the
    generator matrix, not the plane sections that min_distance counts
    zeros on, so it is an independent check of min_distance(spec) == N-2.
    The minor of columns i < j < k is c . col_k for the cross product
    c = col_i x col_j, so one cross product per pair serves every later k.
    """
    F = spec.tower
    add, mul, neg = F.q_add_table, F.q_mul_table, F.q_neg_table
    cols = list(zip(*generator_matrix(spec)))
    for j, (b0, b1, b2) in enumerate(cols):
        later = cols[j + 1:]
        for a0, a1, a2 in cols[:j]:
            # the product rows of the cross product's three entries
            c0 = mul[add[mul[a1][b2]][neg[mul[a2][b1]]]]
            c1 = mul[add[mul[a2][b0]][neg[mul[a0][b2]]]]
            c2 = mul[add[mul[a0][b1]][neg[mul[a1][b0]]]]
            if not all(add[add[c0[k0]][c1[k1]]][c2[k2]] for k0, k1, k2 in later):
                return False
    return True


def weight_distribution(spec: CodeSpec, method: str = "enumerate"):
    """Map i -> number of codewords of weight i, for i in 0..N.

    "enumerate" covers all q^3 codewords by their zero counts, without
    building a word: the zero word, the q - 1 nonzero constants (weight N)
    and, for each s != 0, s times the section of (c1 : c2) plus c0, whose
    weight is N - k for each value its _direction_counts Counter maps to k
    and N for each of the q - len(Counter) values that Counter lacks.
    "formula" is the MDS weight distribution (MacWilliams-Sloane ch. 11).
    """
    N, q = spec.N, spec.tower.q
    if method == "enumerate":
        counts = {i: 0 for i in range(N + 1)}
        counts[0], counts[N] = 1, q - 1
        for _c1, _c2, values in _direction_counts(spec):
            for k in values.values():
                counts[N - k] += q - 1
            counts[N] += (q - len(values)) * (q - 1)
        return counts
    if method == "formula":
        counts = {i: 0 for i in range(N + 1)}
        counts[0] = 1
        for i in range(N - 2, N + 1):
            counts[i] = math.comb(N, i) * (q - 1) * sum(
                (-1) ** j * math.comb(i - 1, j) * q ** (i - j - N + 2)
                for j in range(i - N + 3)
            )
        return counts
    raise ValueError(f"unknown method {method!r}")


def expanded_closed_forms(spec: CodeSpec):
    """The three expanded closed-form weight counts (A_{N-2}, A_{N-1}, A_N).

    They sum to exactly q^3 at every N and q, while the true three sum to
    q^3 - 1, because A_0 = 1.  So wherever the first two are right (for an
    MDS code they are), A_N is one too many, at every q: callers treat
    enumeration as ground truth and report the difference, never adopt it.
    """
    N, q = spec.N, spec.tower.q
    a_nm2 = (N * N - N) * (q - 1) // 2
    a_nm1 = N * q * q - (N * N - N) * q + N * N - 2 * N
    a_n = q ** 3 - N * q * q + ((N * N - N) * q - N * N + 3 * N) // 2
    return a_nm2, a_nm1, a_n


# ---------------------------------------------------------------------------
# closure structure on messages
# ---------------------------------------------------------------------------
# messages are planes: a sum or multiple of codewords is that of the planes

def msg_add(spec: CodeSpec, m1, m2):
    """The message whose codeword is the symbol-wise sum: that of the sum of
    the two planes."""
    add = spec.tower.q_add_table
    planes = zip(message_to_plane(spec, m1), message_to_plane(spec, m2))
    return plane_to_message(spec, [add[a][b] for a, b in planes])


def msg_scale(spec: CodeSpec, kappa: int, m):
    """The message whose codeword is the kappa-multiple (kappa in GF(q)):
    that of kappa times the plane."""
    F = spec.tower
    if not 0 <= kappa < F.q:
        raise ValueError(f"scalar {kappa} outside GF(q)")
    row = F.q_mul_table[kappa]
    return plane_to_message(spec, [row[c] for c in message_to_plane(spec, m)])


# ---------------------------------------------------------------------------
# pairwise and common zeros over the message domain
# ---------------------------------------------------------------------------

def pairwise_intersection_count(spec: CodeSpec, lam1: int, lam2: int) -> int:
    """Number of common zeros in Omega of the forms at two arc elements."""
    if lam1 == lam2:
        raise ValueError("need two distinct arc elements")
    if lam1 not in spec.lam or lam2 not in spec.lam:
        raise ValueError("both elements must belong to the arc")
    count = 0
    for x, y in iter_messages(spec):
        if form_eval(spec, lam1, x, y) == 0 and form_eval(spec, lam2, x, y) == 0:
            count += 1
    return count


def common_zero_set(spec: CodeSpec):
    """Messages at which every coordinate form vanishes: those of the zero
    plane and of s*(c1, c2, -v) for s != 0, wherever the section of
    direction (c1 : c2) is the constant v."""
    mul, neg = spec.tower.q_mul_table, spec.tower.q_neg_table
    return {plane_to_message(spec, (0, 0, 0)), *(
        plane_to_message(spec, (row[c1], row[c2], row[neg[v]]))
        for c1, c2, values in _direction_counts(spec) if len(values) == 1
        for v in values for row in mul[1:])}


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

FORMAT_HEADER = "hermitian-mds v1"


def to_text(spec: CodeSpec) -> str:
    """Canonical line-oriented serialization (UTF-8, one key=value per line)."""
    t = spec.tower
    lines = [FORMAT_HEADER, f"p={t.p}", f"h={t.h}"]
    if t.h > 1:
        lines.append("gq=" + ",".join(str(c) for c in t.gq))
    lines.append("gq2=" + ",".join(str(c) for c in t.gq2))
    lines.append("lambda=" + ",".join(str(u) for u in spec.lam))
    lines.append("s=" + ",".join(str(u) for u in spec.s))
    return "\n".join(lines) + "\n"


def parse_text(text: str) -> dict:
    """Syntax pass of the text format: header, key set, integer values.

    '#' starts a comment, blank lines are skipped.  Returns the parsed
    fields without any mathematical validation, so callers can report
    "file is malformed" and "file makes false claims" separately.
    """
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines or lines[0] != FORMAT_HEADER:
        raise ValueError(f"missing header line {FORMAT_HEADER!r}")
    fields = {}
    for line in lines[1:]:
        if "=" not in line:
            raise ValueError(f"malformed line {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in fields:
            raise ValueError(f"duplicate key {key!r}")
        fields[key] = value.strip()
    required = {"p", "h", "gq2", "lambda", "s"}
    allowed = required | {"gq"}
    if not required <= set(fields) or not set(fields) <= allowed:
        raise ValueError(f"keys must be {sorted(allowed)} (gq only when h>1)")

    def ints(key):
        try:
            return [int(tok) for tok in fields[key].split(",")]
        except ValueError:
            raise ValueError(f"non-integer value in {key!r}") from None

    try:
        p, h = int(fields["p"]), int(fields["h"])
    except ValueError:
        raise ValueError("p and h must be integers") from None
    if h == 1 and "gq" in fields:
        raise ValueError("gq present but h=1")
    if h > 1 and "gq" not in fields:
        raise ValueError("gq required when h>1")
    return {
        "p": p,
        "h": h,
        "gq": ints("gq") if h > 1 else None,
        "gq2": ints("gq2"),
        "lambda": ints("lambda"),
        "s": ints("s"),
    }


def spec_from_fields(fields: dict) -> CodeSpec:
    """Semantic pass: build the field tower and validate the instance."""
    tower = FieldTower(fields["p"], fields["h"], gq=fields["gq"], gq2=fields["gq2"])
    return CodeSpec(tower, fields["lambda"], fields["s"])


def from_text(text: str) -> CodeSpec:
    """Parse and validate the text format in one step."""
    return spec_from_fields(parse_text(text))


# ---------------------------------------------------------------------------
# convenience constructors
# ---------------------------------------------------------------------------

def reference_instance() -> CodeSpec:
    """The worked GF(25) example: modulus X^2 - X + 2, the 6-element arc of
    eps-powers, S = GF(5)."""
    tower = FieldTower(5, gq2=REFERENCE_Q5_GQ2)
    return CodeSpec(tower, REFERENCE_Q5_LAMBDA, list(range(5)))


def construct_code(q: int, arc=None, s_strategy: str = None) -> CodeSpec:
    """Build an instance for a prime power q with sensible defaults.

    arc is a build_lambda strategy name or the arc's elements.
    Odd q: arc = norm_circle (q+1 points), S = the subfield.
    Even q: arc = hyperoval (q+2 points), S = unit_trace multiples.
    """
    tower = tower_for_q(q)
    if arc is None:
        arc = "norm_circle" if q % 2 else "hyperoval"
    if s_strategy is None:
        s_strategy = "subfield" if q % 2 else "unit_trace"
    return CodeSpec(tower, build_lambda(tower, arc), build_transversal(tower, s_strategy))

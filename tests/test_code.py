"""Code-core tests.

The GF(25) reference instance (modulus X^2 - X + 2, arc of eps-powers
3,4,8,15,16,20, S = GF(5)) provides frozen oracles: its generator row
space, weight counts and intersection counts are pinned here.  Structural
claims (injectivity, MDS, closure homomorphisms) are verified by
exhaustion on small q, the closure homomorphisms also on seeded pairs up
to q=256, and the trace pairing against its inverse and gq2's
discriminant at every q <= 256.  Every norm circle is checked to be the
unit circle scaled, with the same code up to coordinate order, at every
prime power q <= 16.  The plane section and encode are checked
against their literal forms on seeded planes and messages up to q=256.
The weights, distance and common zeros, counted from the plane sections,
are checked against a local enumeration that encodes every message, at
every prime power q <= 16.
"""

import collections
import functools
import itertools
import random
import types

import pytest

from hermitian_mds import code as cc
from hermitian_mds import geometry
from hermitian_mds.fields import FieldError, FieldTower, factor_prime_power, tower_for_q
from hermitian_mds.linalg import rank, rref
from test_geometry import HYPEROVAL_Q4, LUNELLI_SCE_Q16


def enumerate_codewords(spec):
    """All q^3 codewords, one encode per message in iter_messages order: the
    reference for the counts that code.py reads off the plane sections."""
    return [cc.encode(spec, m) for m in cc.iter_messages(spec)]


@pytest.fixture(scope="module")
def ref():
    return cc.reference_instance()


@pytest.fixture(scope="module")
def specs():
    return {q: cc.construct_code(q) for q in (3, 4, 5, 7, 8, 9)}


def test_reference_instance_shape(ref):
    assert ref.tower.q == 5
    assert ref.N == 6
    assert ref.lam == cc.REFERENCE_Q5_LAMBDA
    assert ref.s == [0, 1, 2, 3, 4]
    assert ref.s0 == 0
    assert ref == cc.reference_instance()
    assert cc.construct_code(5) != cc.reference_instance()


def test_form_eval_trivial(ref):
    for lam in ref.tower.elements():
        assert cc.form_eval(ref, lam, 0, 0) == 0
    # norm(0) = 0, trace(3) = 6 = 1, so every coordinate is 1
    for lam in ref.tower.elements():
        assert cc.form_eval(ref, lam, 0, 3) == 1


def test_form_eval_literal_agreement_exhaustive_q4():
    # the five-term form equals norm(x) + trace(y) + trace(lam*x), the
    # identity behind the plane encoder, at every (lam, x, y) triple
    spec = cc.construct_code(4)
    F = spec.tower
    for lam in F.elements():
        for x in F.elements():
            for y in F.elements():
                expected = F.q_add(F.q_add(F.norm(x), F.trace(y)), F.trace(F.mul(lam, x)))
                assert cc.form_eval(spec, lam, x, y) == expected, (lam, x, y)


def test_encode_is_the_hermitian_form(specs, ref):
    # encode goes through the plane section; every symbol must be the
    # literal form X^{q+1} + Y^q + Y + lam^q X^q + lam X at (x, y)
    for spec in (*specs.values(), ref):
        F, q = spec.tower, spec.tower.q
        lam_q = [F.pow(lam, q) for lam in spec.lam]
        for x, y in cc.iter_messages(spec):
            head = F.add(F.add(F.pow(x, q + 1), F.pow(y, q)), y)
            xq = F.pow(x, q)
            literal = tuple(F.add(head, F.add(F.mul(lq, xq), F.mul(lam, x)))
                            for lam, lq in zip(spec.lam, lam_q))
            assert cc.encode(spec, (x, y)) == literal


@pytest.mark.parametrize("q", (2, 16, 49, 128, 243, 251, 256))
def test_plane_to_codeword_is_the_plane_section(q):
    # the direction row, scale and shift against the literal section
    # c1*lam_i^1 + c2*lam_i^2 + c0: every plane (0, 0, c0), seeded planes
    # (c1, 0, c0) with c1 != 0, and seeded planes with c2 != 0
    spec = cc.construct_code(q)
    F = spec.tower
    rng = random.Random(f"sections:{q}")
    planes = [(0, 0, c0) for c0 in range(q)]
    planes += [(rng.randrange(1, q), 0, rng.randrange(q)) for _ in range(100)]
    planes += [(rng.randrange(q), rng.randrange(1, q), rng.randrange(q)) for _ in range(300)]
    for c1, c2, c0 in planes:
        literal = tuple(F.q_add(F.q_add(F.q_mul(c1, l1), F.q_mul(c2, l2)), c0)
                        for l1, l2 in spec.coords)
        assert cc.plane_to_codeword(spec, (c1, c2, c0)) == literal, (q, c1, c2, c0)


@pytest.mark.parametrize("q", (49, 128, 256))
def test_encode_is_the_hermitian_form_seeded(q):
    # the exhaustive check above stops at q = 9
    spec = cc.construct_code(q)
    rng = random.Random(f"literal:{q}")
    for _ in range(200):
        x, y = rng.randrange(q * q), spec.s[rng.randrange(q)]
        literal = tuple(cc.form_eval(spec, lam, x, y) for lam in spec.lam)
        assert cc.encode(spec, (x, y)) == literal, (q, x, y)


def literal_form_reference(spec):
    """The literal-form scan as verify ran it before literal_form_holds: one
    form_eval per symbol of every codeword."""
    return all(cc.encode(spec, m) == tuple(cc.form_eval(spec, lam, *m) for lam in spec.lam)
               for m in cc.iter_messages(spec))


LITERAL_FORM_SPECS = {
    **{f"q{q}": functools.partial(cc.construct_code, q) for q in (2, 3, 4, 5, 7, 8, 9)},
    "paper": cc.reference_instance,
    "q16-lunelli-sce": functools.partial(cc.construct_code, 16, LUNELLI_SCE_Q16),
}


@pytest.mark.parametrize("name", LITERAL_FORM_SPECS)
def test_literal_form_holds_matches_the_reference(name):
    spec = LITERAL_FORM_SPECS[name]()
    assert cc.literal_form_holds(spec) is literal_form_reference(spec) is True


@pytest.mark.parametrize("name", ("q4", "paper", "q7", "q8"))
def test_literal_form_holds_sees_one_wrong_symbol(name, monkeypatch):
    # one symbol of one codeword is moved off the form: a seeded message with
    # x != 0, y != s0 at a seeded position >= 1, then the last symbol of the
    # last message in iter_messages order.  Both scans must say False
    spec = LITERAL_FORM_SPECS[name]()
    F, encode = spec.tower, cc.encode
    rng = random.Random(f"literal-mutant:{name}")
    middle = (rng.randrange(1, F.q2), rng.choice([y for y in spec.s if y != spec.s0]))
    for bad, pos in ((middle, rng.randrange(1, spec.N)), ((F.q2 - 1, spec.s[-1]), spec.N - 1)):
        def corrupted(spec, m, bad=bad, pos=pos):
            w = encode(spec, m)
            return w if m != bad else w[:pos] + (F.q_add(w[pos], 1),) + w[pos + 1:]

        monkeypatch.setattr(cc, "encode", corrupted)
        assert cc.literal_form_holds(spec) is literal_form_reference(spec) is False, bad


def test_encode_reference_values(ref):
    assert cc.encode(ref, (0, 0)) == (0,) * 6
    assert cc.encode(ref, (0, 3)) == (1,) * 6


def test_encode_rejects_bad_messages(ref):
    with pytest.raises(ValueError):
        cc.encode(ref, (0, 5))  # y outside S
    with pytest.raises(ValueError):
        cc.encode(ref, (25, 0))  # x outside GF(25)


def test_message_tables_are_the_field_forms():
    # at every supported q: for every x the encode table holds the direction
    # row and scale of (T(x), T(eps*x)) and the norm F.norm(x); for y in S
    # the shift tables of n + T(y); encode agrees with the plane that
    # message_to_plane computes from the definitions; and the tables bound
    # the domain as the error text says
    for q in range(2, 257):
        try:
            factor_prime_power(q)
        except FieldError:
            continue
        spec = cc.construct_code(q)
        F = spec.tower
        rows, scales, norm, shifts = spec._encode_table
        row, scale, shift = spec._directions
        planes = [(F.trace(x), F.trace(F.mul(F.eps, x))) for x in range(F.q2)]
        assert rows == [row[c1][c2] for c1, c2 in planes], q
        assert scales == [scale[c2] for _c1, c2 in planes], q
        assert list(norm) == [F.norm(x) for x in range(F.q2)], q
        assert shifts == {y: [shift[F.q_add(n, F.trace(y))] for n in range(q)]
                          for y in spec.s}, q
        rng = random.Random(f"tables:{q}")
        for m in [(0, spec.s0), (F.q2 - 1, spec.s[-1])] + [
                (rng.randrange(F.q2), rng.choice(spec.s)) for _ in range(10)]:
            assert cc.encode(spec, m) == cc.plane_to_codeword(spec, cc.message_to_plane(spec, m)), (q, m)
        bad_y = next(y for y in range(F.q2) if y not in spec.s)
        for m in ((-1, spec.s0), (F.q2, spec.s0), (1, bad_y)):
            for f in (cc.encode, cc.message_to_plane):
                with pytest.raises(ValueError) as err:
                    f(spec, m)
                assert str(err.value) == f"message {m} outside the domain GF(q^2) x S", (q, m)


def test_codeword_counts(specs):
    for q, expected in [(3, 27), (4, 64), (5, 125)]:
        words = enumerate_codewords(specs[q])
        assert len(words) == expected
        assert len(set(words)) == expected


def test_encode_injective(specs, ref):
    for spec in (specs[4], specs[7], ref):
        words = enumerate_codewords(spec)
        assert len(set(words)) == spec.tower.q ** 3


def test_enumeration_budget(monkeypatch):
    # one check in iter_messages guards every scan over all of Omega,
    # pairwise_intersection_count's and literal_form_holds' among them,
    # before its first message
    monkeypatch.setattr(cc, "ENUMERATION_BUDGET", 100)
    spec = cc.construct_code(5)
    with pytest.raises(ValueError, match="enumeration budget exceeded for q=5"):
        next(cc.iter_messages(spec))
    with pytest.raises(ValueError, match="enumeration budget exceeded for q=5"):
        cc.pairwise_intersection_count(spec, spec.lam[0], spec.lam[1])
    with pytest.raises(ValueError, match="enumeration budget exceeded for q=5"):
        cc.literal_form_holds(spec)


def short_arc_q7():
    # an arc shorter than the bound: the first 5 points of the norm circle
    spec = cc.construct_code(7)
    return cc.CodeSpec(spec.tower, spec.lam[:5], spec.s)


COUNTED_INSTANCES = {
    "paper": cc.reference_instance,
    **{f"q{q}": functools.partial(cc.construct_code, q)
       for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)},
    **{f"q{q}-unit-trace": functools.partial(cc.construct_code, q, s_strategy="unit_trace")
       for q in (3, 5, 7, 9, 11, 13)},
    # the Lunelli-Sce hyperoval, the first full-size arc in depth-first order
    "q16-greedy": functools.partial(cc.construct_code, 16, LUNELLI_SCE_Q16),
    "q7-first-5": short_arc_q7,
}


@pytest.mark.parametrize("name", COUNTED_INSTANCES)
def test_plane_counts_match_the_enumeration(name):
    # weights, distance and zero set are counted from the q + 1 direction
    # sections; each must equal what encoding every message gives
    spec = COUNTED_INSTANCES[name]()
    words = enumerate_codewords(spec)
    weights = collections.Counter(sum(map(bool, w)) for w in words)
    assert cc.weight_distribution(spec, "enumerate") == {i: weights[i] for i in range(spec.N + 1)}
    assert cc.min_distance(spec) == min(i for i in weights if i)
    assert cc.common_zero_set(spec) == {
        m for m, w in zip(cc.iter_messages(spec), words) if not any(w)}


def is_mds_reference(spec):
    """is_mds by definition: every 3-column minor of the generator matrix
    has rank 3."""
    cols = list(zip(*cc.generator_matrix(spec)))
    return all(rank(spec.tower, minor) == 3 for minor in itertools.combinations(cols, 3))


@pytest.mark.parametrize("name", COUNTED_INSTANCES)
def test_is_mds_matches_the_minor_ranks(name):
    spec = COUNTED_INSTANCES[name]()
    assert cc.is_mds(spec) is is_mds_reference(spec) is True


def test_is_mds_sees_a_singular_minor():
    # five q=7 circle points and X = P1 + 2*(P3 - P1): the minor of P1, P3
    # and X is the only one that vanishes; each rotation of the order puts
    # its columns somewhere else, first and last column included
    spec = cc.construct_code(7)
    F, c = spec.tower, spec.coords
    X = tuple(F.q_add(a, F.q_mul(2, F.q_sub(b, a))) for a, b in zip(c[1], c[3]))
    points = [c[0], c[1], X, c[2], c[3], c[4]]
    for k in range(len(points)):
        coords = points[k:] + points[:k]
        shape = types.SimpleNamespace(tower=F, coords=coords, N=len(coords))
        cols = list(zip(*cc.generator_matrix(shape)))
        singular = [ijk for ijk in itertools.combinations(range(len(cols)), 3)
                    if rank(F, [cols[i] for i in ijk]) < 3]
        assert [{coords[i] for i in ijk} for ijk in singular] == [{c[1], c[3], X}]
        assert cc.is_mds(shape) is is_mds_reference(shape) is False


@pytest.mark.parametrize("q", [128, 243, 256])
def test_direction_counts_at_the_top_of_the_range(q):
    # past the q^3 reference: the counted weights are the MDS formula's,
    # the distance is N - 2 and only the zero message kills every form
    spec = cc.construct_code(q)
    assert cc.weight_distribution(spec, "enumerate") == cc.weight_distribution(spec, "formula")
    assert cc.min_distance(spec) == spec.N - 2
    assert cc.common_zero_set(spec) == {(0, spec.s0)}


def test_generator_matrix_reference_row_space(ref):
    G = cc.generator_matrix(ref)
    R = rref(ref.tower, cc.REFERENCE_Q5_G_ROWS)[0]
    assert G == R  # identical canonical rref = identical row spaces


def test_generator_matrix_rank_and_span(specs):
    for q, spec in specs.items():
        G = cc.generator_matrix(spec)
        assert len(G) == 3 and all(len(row) == spec.N for row in G)
        assert rank(spec.tower, G) == 3
    # every codeword is a row combination (q=4)
    spec = specs[4]
    G = cc.generator_matrix(spec)
    for w in enumerate_codewords(spec):
        assert rank(spec.tower, G + [w]) == 3


def test_min_distance(specs, ref):
    assert cc.min_distance(ref) == 4
    assert cc.min_distance(specs[3]) == 2  # N=4
    assert cc.min_distance(specs[7]) == 6  # N=8


def test_mds_all_instances(specs, ref):
    assert cc.is_mds(ref)
    for q, spec in specs.items():
        assert cc.is_mds(spec)
        assert cc.min_distance(spec) == spec.N - 2  # Singleton met with k=3


def test_zero_pattern_structure(specs):
    # no nonzero codeword has 3 zero symbols; some has exactly 2
    for q in (4, 5):
        spec = specs[q]
        zero_counts = [
            sum(1 for c in w if c == 0)
            for w in enumerate_codewords(spec) if any(w)
        ]
        assert max(zero_counts) == 2


def test_weight_distribution_reference(ref):
    we = cc.weight_distribution(ref, "enumerate")
    wf = cc.weight_distribution(ref, "formula")
    assert we == wf
    assert we[0] == 1 and we[4] == 60 and we[5] == 24 and we[6] == 40
    assert all(we[i] == 0 for i in (1, 2, 3))
    assert sum(we.values()) == 125
    for i, a_i in cc.REFERENCE_Q5_WEIGHTS.items():
        assert we[i] == a_i


def test_weight_distribution_methods_agree(specs):
    for q in (3, 4, 5, 7):
        spec = specs[q]
        we = cc.weight_distribution(spec, "enumerate")
        wf = cc.weight_distribution(spec, "formula")
        assert we == wf
        assert sum(we.values()) == q ** 3
        assert we[0] == 1
        assert all(we[i] == 0 for i in range(1, spec.N - 2))
    with pytest.raises(ValueError):
        cc.weight_distribution(spec, "exact")


def test_expanded_closed_forms(specs, ref):
    # the first two expanded forms match enumeration; the last exceeds the
    # true count by exactly 1 (why: the sum test below)
    for spec in [ref, specs[3], specs[4], specs[5], specs[7]]:
        we = cc.weight_distribution(spec, "enumerate")
        a_nm2, a_nm1, a_n = cc.expanded_closed_forms(spec)
        assert a_nm2 == we[spec.N - 2]
        assert a_nm1 == we[spec.N - 1]
        assert a_n == we[spec.N] + 1
    assert cc.expanded_closed_forms(ref) == (60, 24, 41)


def test_expanded_closed_forms_sum_to_q_cubed():
    # the three forms sum to q^3 at every N, while the true counts sum to
    # q^3 - 1 (A_0 = 1): A_N is one too many wherever the first two are right
    for q in range(2, 257):
        try:
            factor_prime_power(q)
        except FieldError:
            continue
        for N in range(3, q + 3):
            shape = types.SimpleNamespace(N=N, tower=types.SimpleNamespace(q=q))
            assert sum(cc.expanded_closed_forms(shape)) == q ** 3, (q, N)
        spec = cc.construct_code(q)
        N = spec.N
        wf = cc.weight_distribution(spec, "formula")
        a_nm2, a_nm1, a_n = cc.expanded_closed_forms(spec)
        assert (a_nm2, a_nm1, a_n - 1) == (wf[N - 2], wf[N - 1], wf[N]), q


def test_msg_add_identity_and_scale_identity(ref):
    zero = (0, ref.s0)
    for m in cc.iter_messages(ref):
        assert cc.msg_add(ref, m, zero) == m
        assert cc.msg_scale(ref, 1, m) == m
        assert cc.msg_scale(ref, 0, m) == zero


def test_closure_homomorphisms_exhaustive():
    # encode(msg_add) = sum of codewords, encode(msg_scale) = scalar
    # multiple: every pair at q = 4 and 5, seeded pairs at larger q
    for q in (4, 5):
        spec = cc.construct_code(q)
        F = spec.tower
        table = {m: cc.encode(spec, m) for m in cc.iter_messages(spec)}
        msgs = list(table)
        for m1 in msgs:
            w1 = table[m1]
            for m2 in msgs:
                w2 = table[m2]
                expect = tuple(F.q_add(a, b) for a, b in zip(w1, w2))
                assert table[cc.msg_add(spec, m1, m2)] == expect
            for kappa in range(F.q):
                expect = tuple(F.q_mul(kappa, a) for a in w1)
                assert table[cc.msg_scale(spec, kappa, m1)] == expect
    for q in (16, 49, 256):
        spec = cc.construct_code(q)
        F = spec.tower
        rng = random.Random(f"closure:{q}")
        for _ in range(300):
            m1, m2 = ((rng.randrange(F.q2), spec.s[rng.randrange(q)]) for _ in range(2))
            kappa = rng.randrange(q)
            w1, w2 = cc.encode(spec, m1), cc.encode(spec, m2)
            expect = tuple(F.q_add(a, b) for a, b in zip(w1, w2))
            assert cc.encode(spec, cc.msg_add(spec, m1, m2)) == expect, (q, m1, m2)
            expect = tuple(F.q_mul(kappa, a) for a in w1)
            assert cc.encode(spec, cc.msg_scale(spec, kappa, m1)) == expect, (q, kappa, m1)


def gram_towers():
    """The default tower at every prime power q <= 256, and at q <= 16 the
    tower of every irreducible gq2."""
    for q in range(2, 257):
        try:
            p, h = factor_prime_power(q)
        except FieldError:
            continue
        if q > 16:
            yield tower_for_q(q)
            continue
        for c0, c1 in itertools.product(range(q), repeat=2):
            try:
                yield FieldTower(p, h, gq2=[c0, c1, 1])
            except FieldError:  # reducible
                pass


def test_trace_pairing_inverse_and_discriminant():
    # gram_inv inverts gram, and det gram is the discriminant r1^2 + 4*r0
    # of gq2 (eps^2 = r0 + r1*eps), nonzero because gq2 is irreducible
    count = 0
    for F in gram_towers():
        q = F.q
        lam = geometry.build_lambda(F, "norm_circle" if q % 2 else "hyperoval")
        s = geometry.build_transversal(F, "subfield" if q % 2 else "unit_trace")
        spec = cc.CodeSpec(F, lam, s)
        G, H = spec.gram, spec.gram_inv
        product = [[F.q_add(F.q_mul(H[i][0], G[0][j]), F.q_mul(H[i][1], G[1][j]))
                    for j in range(2)] for i in range(2)]
        assert product == [[1, 0], [0, 1]], F
        r0, r1 = F.q_neg(F.gq2[0]), F.q_neg(F.gq2[1])
        four = F.q_add(F.q_add(1, 1), F.q_add(1, 1))
        det = F.q_sub(F.q_mul(G[0][0], G[1][1]), F.q_mul(G[0][1], G[1][0]))
        assert det == F.q_add(F.q_mul(r1, r1), F.q_mul(four, r0)) != 0, F
        count += 1
    assert count == 418


def test_msg_scale_rejects_bad_scalar(ref):
    with pytest.raises(ValueError):
        cc.msg_scale(ref, 5, (0, 0))  # 5 is not in GF(5)'s range


def test_pairwise_intersection_counts(ref, specs):
    for i, a in enumerate(ref.lam):
        for b in ref.lam[i + 1:]:
            assert cc.pairwise_intersection_count(ref, a, b) == 5
    spec4 = specs[4]
    for i, a in enumerate(spec4.lam):
        for b in spec4.lam[i + 1:]:
            assert cc.pairwise_intersection_count(spec4, a, b) == 4
    with pytest.raises(ValueError):
        cc.pairwise_intersection_count(ref, ref.lam[0], ref.lam[0])
    with pytest.raises(ValueError):
        cc.pairwise_intersection_count(ref, ref.lam[0], 999 % 25)


def test_common_zero_set(ref, specs):
    assert cc.common_zero_set(ref) == {(0, 0)}
    for q in (4, 7):
        spec = specs[q]
        assert cc.common_zero_set(spec) == {(0, spec.s0)}


def test_to_text_frozen(ref):
    assert cc.to_text(ref) == (
        "hermitian-mds v1\n"
        "p=5\n"
        "h=1\n"
        "gq2=2,4,1\n"
        "lambda=23,12,11,7,18,19\n"
        "s=0,1,2,3,4\n"
    )


def test_text_roundtrip_byte_exact(ref, specs):
    for spec in [ref, specs[4], specs[8], specs[9]]:
        text = cc.to_text(spec)
        parsed = cc.from_text(text)
        assert parsed == spec
        assert cc.to_text(parsed) == text


def test_from_text_comments_and_blanks(ref):
    text = (
        "# instance file\n"
        "hermitian-mds v1\n"
        "\n"
        "p=5  # prime\n"
        "h=1\n"
        "gq2=2,4,1\n"
        "lambda=23,12,11,7,18,19\n"
        "s=0,1,2,3,4\n"
    )
    assert cc.from_text(text) == ref


def test_from_text_rejects():
    base = {
        "p": "5", "h": "1", "gq2": "2,4,1",
        "lambda": "23,12,11,7,18,19", "s": "0,1,2,3,4",
    }

    def render(header="hermitian-mds v1", **overrides):
        fields = dict(base)
        fields.update(overrides)
        lines = [header]
        for k, v in fields.items():
            if v is not None:
                lines.append(f"{k}={v}")
        return "\n".join(lines) + "\n"

    cases = [
        render(header="hermitian-mds v2"),       # bad header
        render(p=None),                          # missing key
        render(extra="1"),                       # unknown key
        render(gq="1,1"),                        # gq with h=1
        render(s="0,1,2,3,x"),                   # non-integer
        render(s="0,1,2,3"),                     # bad transversal size
        render(**{"lambda": "0,1,2"}),           # not an arc
        "hermitian-mds v1\np=5\nh\n",            # malformed line
        "p=5\n",                                 # no header at all
        render() + "p=5\n",                      # duplicate key
    ]
    for text in cases:
        with pytest.raises(ValueError):
            cc.from_text(text)


def test_from_text_extension_field():
    spec = cc.construct_code(4)
    text = cc.to_text(spec)
    assert "gq=1,1,1\n" in text
    assert cc.from_text(text) == spec
    with pytest.raises(ValueError):
        cc.from_text(text.replace("gq=1,1,1\n", ""))  # gq required when h>1


def test_construct_code_validates_once(monkeypatch):
    # build_lambda and build_transversal validate nothing they return,
    # explicit arcs included; CodeSpec is the one gate, so each instance runs one arc
    # check and one transversal check, and takes the trace of each element
    # of S once
    calls = []
    traced = []
    trace = FieldTower.trace

    def counting_trace(F, u):
        traced.append(u)
        return trace(F, u)

    monkeypatch.setattr(FieldTower, "trace", counting_trace)

    def counting(name, fn):
        def wrapped(*args):
            calls.append(name)
            return fn(*args)
        return wrapped

    monkeypatch.setattr(geometry, "arc_condition_holds",
                        counting("arc", geometry.arc_condition_holds))
    transversal = counting("transversal", geometry.validate_transversal)
    monkeypatch.setattr(geometry, "validate_transversal", transversal)
    monkeypatch.setattr(cc, "validate_transversal", transversal)  # imported by name
    for q, arc, s in ((5, None, None), (7, "norm_circle", "unit_trace"),
                      (4, None, None), (8, "hyperoval", "unit_trace"),
                      (9, None, "subfield"), (16, LUNELLI_SCE_Q16, None)):
        calls.clear()
        spec = cc.construct_code(q, arc, s_strategy=s)
        assert sorted(calls) == ["arc", "transversal"], (q, arc, s)
        # q traces for S, three for the trace pairing on {1, eps}
        traced.clear()
        cc.CodeSpec(spec.tower, spec.lam, spec.s)
        assert len(traced) == q + 3, (q, arc, s)


def test_every_norm_circle_is_the_unit_circle_scaled():
    # the norm onto GF(q)* is surjective, so {norm(u) = c} = a*{norm(u) = 1}
    # for any a of norm c; multiplying by a is GF(q)-linear on AG(2,q), so
    # the two arcs give one code, its coordinates reordered
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        unit = cc.construct_code(q, "norm_circle")
        F = unit.tower
        for c in range(1, q):
            a = next(a for a in F.elements() if F.norm(a) == c)
            scaled = [F.mul(a, u) for u in unit.lam]
            circle = F.norm_circle(c)
            assert sorted(scaled) == circle, (q, c)
            G = cc.generator_matrix(cc.construct_code(q, circle))
            columns = [circle.index(u) for u in scaled]
            permuted = [[row[j] for j in columns] for row in G]
            assert rref(F, permuted)[0] == cc.generator_matrix(unit), (q, c)


def test_construct_code_takes_the_arc_it_is_given():
    # the arc is one argument, a strategy name or the elements; elements, a
    # list or a tuple, come back as the arc in their order
    for q, arc in ((4, HYPEROVAL_Q4), (16, LUNELLI_SCE_Q16), (5, (1, 7, 8, 22, 23)),
                   (4, tuple(reversed(HYPEROVAL_Q4)))):
        assert cc.construct_code(q, arc).lam == list(arc), (q, arc)
    with pytest.raises(ValueError, match="unknown arc strategy 'explicit'"):
        cc.construct_code(5, "explicit")


def test_construct_code_defaults(specs):
    assert specs[5].N == 6 and specs[5].s == [0, 1, 2, 3, 4]
    assert specs[4].N == 6  # the hyperoval reaches q+2
    assert specs[9].N == 10
    assert specs[8].N == 10
    explicit = cc.construct_code(5, [1, 4, 11, 12, 18, 19])
    assert explicit.lam == [1, 4, 11, 12, 18, 19]
    custom = cc.CodeSpec(FieldTower(5, gq2=[2, 4, 1]), cc.REFERENCE_Q5_LAMBDA, range(5))
    assert custom == cc.reference_instance()

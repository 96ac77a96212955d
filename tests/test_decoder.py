"""Decoder tests.

Centers come from one family, the affine points of the cone generator
over the first point of z = 0 off the base arc; every codeword plane
contains exactly one of them.  ml_decode, which counts the lifted points
on planes, is the independent oracle for every guarantee claim, and
reference_ml_decode, a scan of the enumerated codewords, is its own
reference at q <= 16; sampled runs use fixed seeds.  The q=4 sweep and
the N=5 sweeps here are exhaustive, as are the q=5 sweeps of the
acceptance suite; at q = 7, 8 and 9 every word within the radius is
covered up to the decoder's symmetry.
"""

import collections
import itertools
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from hermitian_mds import code as cc
from hermitian_mds import decoder as dec
from hermitian_mds.fields import tower_for_q
from hermitian_mds.geometry import build_lambda
from test_geometry import LUNELLI_SCE_Q16


def hamming_distance(a, b) -> int:
    if len(a) != len(b):
        raise ValueError("length mismatch")
    return sum(1 for x, y in zip(a, b) if x != y)


def form_value(F, form, pt):
    """Value of a sparse form {(i, j, k): coefficient} at a point (x, y, z)."""
    x, y, z = pt
    acc = 0
    for (i, j, k), coef in form.items():
        term = F.q_mul(coef, F.q_mul(F.pow(x, i), F.q_mul(F.pow(y, j), F.pow(z, k))))
        acc = F.q_add(acc, term)
    return acc


def form_mul(F, f, g):
    """Product of two sparse forms {(i, j, k): coefficient}."""
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            key = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
            val = F.q_add(out.get(key, 0), F.q_mul(c1, c2))
            if val:
                out[key] = val
            else:
                out.pop(key, None)
    return out


def linear_form(L):
    """The linear form a*x + b*y + c*z of a line (a, b, c)."""
    return {m: c for m, c in zip(dec.monomials(1), L) if c}


def pg2_points(F):
    """All points of PG(2,q), normalized with their last nonzero entry 1."""
    q = F.q
    return ([(a, b, 1) for a in range(q) for b in range(q)]
            + [(a, 1, 0) for a in range(q)] + [(1, 0, 0)])


def pg2_lines(F):
    """All lines of PG(2,q), normalized with their first nonzero
    coefficient 1 as the decoder's lines are."""
    q = F.q
    return ([(1, b, c) for b in range(q) for c in range(q)]
            + [(0, 1, c) for c in range(q)] + [(0, 0, 1)])


@pytest.fixture(scope="module")
def ref():
    return cc.reference_instance()


@pytest.fixture(scope="module")
def spec7():
    return cc.construct_code(7)


def test_hamming_distance():
    assert hamming_distance((1, 1, 1), (1, 1, 1)) == 0
    assert hamming_distance((1, 1, 1, 1, 1, 1), (1, 1, 1, 1, 1, 0)) == 1
    with pytest.raises(ValueError):
        hamming_distance((1, 2), (1, 2, 3))
    rng = random.Random(5)
    for _ in range(100):
        a, b, c = (tuple(rng.randrange(5) for _ in range(6)) for _ in range(3))
        assert hamming_distance(a, c) <= (
            hamming_distance(a, b) + hamming_distance(b, c)
        )


def test_lift(ref, spec7):
    rng = random.Random(1)
    for spec in (ref, spec7):
        F = spec.tower
        words = [(0,) * spec.N, (1,) * spec.N]
        words += [tuple(rng.randrange(F.q) for _ in range(spec.N)) for _ in range(20)]
        for r in words:
            expected = [(*F.decompose(l), c, 1) for l, c in zip(spec.lam, r)]
            assert dec.lift(spec, r) == expected
    with pytest.raises(ValueError):
        dec.lift(ref, (0,) * 5)
    with pytest.raises(ValueError):
        dec.lift(ref, (0, 0, 0, 0, 0, 5))


def test_project_from_external_center_never_hits_vertex_direction(ref, spec7, monkeypatch):
    # every center sits over a point (u, v) off the base arc, so the first
    # two coordinates of a projected cone point cannot both vanish
    formed = []
    normalize_point = dec.normalize_point

    def recording(F, v):
        formed.append(v)
        return normalize_point(F, v)

    monkeypatch.setattr(dec, "normalize_point", recording)
    rng = random.Random(4)
    for spec in (ref, spec7):
        F = spec.tower
        for P in spec._centers:
            assert (P[0], P[1]) not in spec.coords
        for _ in range(10):
            r = tuple(rng.randrange(F.q) for _ in range(spec.N))
            formed.clear()
            dec.geometric_decode(spec, r)
            assert formed
            for x, y, _ in formed:
                assert (x, y) != (0, 0)


def test_pg2_counts():
    # q^2+q+1 distinct points and lines, each line through q+1 points
    for q in (3, 4, 5):
        F = tower_for_q(q)
        pts = pg2_points(F)
        lines = pg2_lines(F)
        assert len(set(pts)) == len(pts) == q * q + q + 1
        assert len(set(lines)) == len(lines) == q * q + q + 1
        for L in lines:
            on = [p for p in pts if form_value(F, linear_form(L), p) == 0]
            assert len(on) == q + 1


def test_one_heavy_line_per_center(ref):
    # at every center at most one line of t = 0 holds ceil((N+3)/2) of the
    # N projections, counted with multiplicity, and _heavy_line returns it
    def check(spec, words):
        F, N = spec.tower, spec.N
        need = (N + 4) // 2
        lines = pg2_lines(F)
        incident = {L: [p for p in pg2_points(F) if form_value(F, linear_form(L), p) == 0]
                    for L in lines}
        coords = [F.decompose(l) for l in spec.lam]
        found = 0
        for r in words:
            for u, v, w, _ in spec._centers:
                projs = [dec.normalize_point(F, (F.q_sub(a, u), F.q_sub(b, v), F.q_sub(c, w)))
                         for (a, b), c in zip(coords, r)]
                mult = collections.Counter(projs)
                heavy = [L for L in lines
                         if 2 * sum(mult[p] for p in incident[L]) >= N + 3]
                assert len(heavy) <= 1
                assert dec._heavy_line(F, projs, need) == (heavy[0] if heavy else None)
                found += len(heavy)
        assert found

    spec4 = cc.construct_code(4)
    check(spec4, itertools.product(range(4), repeat=spec4.N))
    rng = random.Random(2)
    for spec in (ref, cc.construct_code(7), cc.construct_code(8)):
        q, N = spec.tower.q, spec.N
        words = []
        for i in range(60):
            if i % 2:
                words.append(tuple(rng.randrange(q) for _ in range(N)))
            else:
                r = list(cc.encode(spec, (rng.randrange(q * q), spec.s[rng.randrange(q)])))
                for pos in rng.sample(range(N), rng.randrange((N - 3) // 2 + 3)):
                    r[pos] = spec.tower.q_add(r[pos], rng.randrange(1, q))
                words.append(tuple(r))
        check(spec, words)


def test_heavy_line_at_the_threshold():
    # the line x = 0 holds 6 of 9 entries, counted with repetition (4
    # distinct points, two of them twice); the other 3 lie off it, exactly
    # the slack at need = 6, so the filter must keep it there and drop it
    # at need = 7
    F = tower_for_q(7)
    on = [(0, 0, 1), (0, 0, 1), (0, 1, 1), (0, 1, 1), (0, 2, 1), (0, 3, 1)]
    pts = on + [(1, 0, 1), (1, 0, 1), (1, 1, 1)]
    mult = collections.Counter(pts)
    held = {L: sum(k for p, k in mult.items() if form_value(F, linear_form(L), p) == 0)
            for L in pg2_lines(F)}
    assert held.pop((1, 0, 0)) == 6 and max(held.values()) < 6
    assert dec._heavy_line(F, pts, 6) == (1, 0, 0)
    assert dec._heavy_line(F, pts, 7) is None


def test_vertex_lines_hold_at_most_two_projections():
    # a line a*x + b*y = 0 of t = 0 passes through the vertex direction
    # (0, 0, 1) and pulls back to the line of AG(2,q) through the center's
    # (u, v) with direction (-b, a); that line holds at most 2 arc points,
    # and need = ceil((N+3)/2) >= 3, so no such line is ever heavy
    rng = random.Random(6)
    for q in (4, 5, 7, 8, 9, 13, 16):
        spec = cc.construct_code(q)
        F, N = spec.tower, spec.N
        assert (N + 4) // 2 >= 3
        vertex_lines = [(1, b, 0) for b in range(q)] + [(0, 1, 0)]
        r = tuple(rng.randrange(q) for _ in range(N))
        counts = []
        for u, v, w, _ in spec._centers:
            projs = [dec.normalize_point(F, (F.q_sub(l1, u), F.q_sub(l2, v), F.q_sub(c, w)))
                     for (l1, l2), c in zip(spec.coords, r)]
            for L in vertex_lines:
                a, b, _ = L
                on_line = sum(1 for p in projs if form_value(F, linear_form(L), p) == 0)
                on_arc = sum(1 for l1, l2 in spec.coords
                             if F.q_add(F.q_mul(a, F.q_sub(l1, u)), F.q_mul(b, F.q_sub(l2, v))) == 0)
                assert on_line == on_arc <= 2
                counts.append(on_line)
        assert len(counts) == q * (q + 1)
        assert max(counts) == 2


def test_monomials():
    assert dec.monomials(1) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert len(dec.monomials(2)) == 6
    assert len(dec.monomials(3)) == 10
    assert all(sum(m) == 4 for m in dec.monomials(4))


def e_prime(k):
    """The least degree e with more degree-e monomials than k points, so
    that a curve of degree e passes through any k points."""
    e = 0
    while (e + 1) * (e + 2) // 2 <= k:
        e += 1
    return e


def test_bezout_lemma_inequality():
    # the decoder docstring's lemma: a fitted degree e <= e_off would give
    # ceil(need/2) <= e <= e'(N - need), which no supported N allows; and
    # e <= 1 + e'(N - need) <= N - 2 <= q, so e + 1 points of L exist
    for N in range(3, 259):
        need = (N + 4) // 2
        assert (need + 1) // 2 > e_prime(N - need)
        assert 1 + e_prime(N - need) <= N - 2


def test_fit_min_degree_curve_line(ref):
    F = ref.tower
    pts = [(0, 0, 1), (1, 1, 1), (2, 2, 1)]  # on x = y
    assert dec.fit_min_degree_curve(F, pts) == 1
    assert dec._curve_through(F, pts, 1)
    assert not dec._curve_through(F, pts, 0)
    assert dec._curve_through(F, pts + [(4, 4, 1), (1, 1, 0)], 1)
    assert not dec._curve_through(F, pts + [(1, 0, 1)], 1)
    with pytest.raises(ValueError):
        dec.fit_min_degree_curve(F, [])


def test_fit_min_degree_curve_general_position(ref):
    F = ref.tower
    pts = [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]  # no 3 collinear
    assert dec.fit_min_degree_curve(F, pts) == 2
    assert dec._curve_through(F, pts, 2)
    assert not dec._curve_through(F, pts, 1)


def test_fit_vanishes_on_inputs(ref):
    F = ref.tower
    rng = random.Random(31)
    for _ in range(20):
        pts = [(rng.randrange(5), rng.randrange(5), 1) for _ in range(rng.randint(1, 8))]
        e = dec.fit_min_degree_curve(F, pts)
        assert 1 <= e <= F.q + 1
        assert dec._curve_through(F, pts, e)
        assert not dec._curve_through(F, pts, e - 1)


def test_line_points():
    # q+1 distinct normalized points on every line of PG(2,q)
    for q in (2, 3, 4, 5, 7, 8, 9):
        F = tower_for_q(q)
        points = pg2_points(F)
        for L in pg2_lines(F):
            on = dec._line_points(F, L)
            assert len(on) == len(set(on)) == q + 1
            assert set(on) == {p for p in points if form_value(F, linear_form(L), p) == 0}


def test_factorization_product_identity():
    # the factor step's assertion: a form of degree e <= q that vanishes at
    # e+1 points of a line vanishes at all q+1 of them (so the line divides
    # it), while e points are not enough
    for q in (4, 5):
        F = tower_for_q(q)
        lines = pg2_lines(F)
        rng = random.Random(q * 11)
        for i in range(60):
            e = rng.randint(1, q)
            L = rng.choice(lines)
            on = dec._line_points(F, L)
            if i % 3 == 0:
                # a multiple of L
                form = {m: c for m in dec.monomials(e - 1) if (c := rng.randrange(q))}
                form = form_mul(F, form or {(0, 0, 0): 1}, linear_form(L))
            elif i % 3 == 1:
                # e lines, each meeting L in one of its first e points only
                form = {(0, 0, 0): 1}
                for p in on[:e]:
                    M = next(M for M in lines if M != L
                             and form_value(F, linear_form(M), p) == 0)
                    form = form_mul(F, form, linear_form(M))
            else:
                form = {m: c for m in dec.monomials(e) if (c := rng.randrange(q))}
            vanish = [form_value(F, form, p) == 0 for p in on]
            if i % 3 == 0:
                assert all(vanish)
            elif i % 3 == 1:
                assert vanish == [True] * e + [False] * (q + 1 - e)
            for M in lines:
                vanish = [form_value(F, form, p) == 0 for p in dec._line_points(F, M)]
                assert all(vanish[:e + 1]) == all(vanish)


def test_plane_message_codeword_trivial(ref):
    assert cc.plane_to_codeword(ref, (0, 0, 0)) == (0,) * 6
    assert cc.plane_to_message(ref, (0, 0, 0)) == (0, ref.s0)
    assert cc.message_to_plane(ref, (0, 3)) == (0, 0, 1)
    assert cc.plane_to_codeword(ref, (0, 0, 1)) == (1,) * 6


def test_plane_roundtrips_exhaustive():
    # q = 7, 8, 9 take the inverse trace pairing through the GF(7), GF(2^3)
    # and GF(3^2) towers as well
    for q in (4, 5, 7, 8, 9):
        spec = cc.construct_code(q)
        # message -> plane -> message, and plane codeword = the paper's forms
        for m in cc.iter_messages(spec):
            plane = cc.message_to_plane(spec, m)
            assert cc.plane_to_message(spec, plane) == m
            assert cc.plane_to_codeword(spec, plane) == tuple(
                cc.form_eval(spec, lam, *m) for lam in spec.lam)
        # plane -> message -> plane over all q^3 coefficient triples
        for c1 in range(q):
            for c2 in range(q):
                for c0 in range(q):
                    plane = (c1, c2, c0)
                    m = cc.plane_to_message(spec, plane)
                    assert cc.message_to_plane(spec, m) == plane


def test_codeword_to_plane(ref):
    for m in [(0, 0), (0, 3), (5, 2), (24, 4)]:
        w = cc.encode(ref, m)
        plane = cc.codeword_to_plane(ref, w)
        assert cc.plane_to_codeword(ref, plane) == w
        assert cc.plane_to_message(ref, plane) == m
    with pytest.raises(ValueError):
        cc.codeword_to_plane(ref, (1, 0, 0, 0, 0, 0))  # weight 1 < d


def test_geometric_decode_zero_errors(ref):
    for m in cc.iter_messages(ref):
        w = cc.encode(ref, m)
        res = dec.geometric_decode(ref, w)
        assert res is not None
        assert res.codeword == w
        assert res.message == m
        assert res.corrected_positions == ()


def test_geometric_decode_constant_words_use_generator_centers(ref):
    # the all-ones plane z = t meets the cone generator over (0, 0), the
    # first point off the arc, in its affine point (0, 0, 1, 1)
    res = dec.geometric_decode(ref, (1,) * 6)
    assert res.codeword == (1,) * 6
    assert res.center == (0, 0, 1, 1)
    assert res.factor == (0, 0, 1)


def test_decodes_on_one_spec_share_the_center_tuple(ref):
    # the centers are built once per spec, and each result holds its tuple
    a = dec.geometric_decode(ref, (1,) * 6)
    b = dec.geometric_decode(ref, (1,) * 5 + (3,))
    assert a.codeword == b.codeword == (1,) * 6
    assert a.center is b.center
    assert a.center is ref._centers[1]


def test_geometric_decode_weight_one_sampled(ref):
    F = ref.tower
    rng = random.Random(77)
    for _ in range(150):
        m = (rng.randrange(25), rng.randrange(5))
        w = cc.encode(ref, m)
        i = rng.randrange(6)
        r = list(w)
        r[i] = F.q_add(r[i], rng.randrange(1, 5))
        res = dec.geometric_decode(ref, tuple(r))
        assert res is not None
        assert res.codeword == w and res.message == m
        assert res.corrected_positions == (i,)


def test_geometric_decode_soundness_beyond_radius(ref):
    # whatever comes back is within floor((N-3)/2) of the received word;
    # within-radius words always come back
    rng = random.Random(13)
    radius = (ref.N - 3) // 2
    for _ in range(150):
        r = tuple(rng.randrange(5) for _ in range(6))
        ml_word, _ = dec.ml_decode(ref, r)
        res = dec.geometric_decode(ref, r)
        if hamming_distance(ml_word, r) <= radius:
            assert res is not None and res.codeword == ml_word
        elif res is not None:
            assert hamming_distance(res.codeword, r) <= radius


def test_geometric_decode_exhaustive_q4():
    # every word of GF(4)^6 on the hyperoval (q+2 points): the ML codeword, its
    # message and its corrected positions within radius, None beyond it
    spec = cc.construct_code(4)
    assert spec.N == 6
    radius = (spec.N - 3) // 2
    message_of = {cc.encode(spec, m): m for m in cc.iter_messages(spec)}
    within = 0
    for r in itertools.product(range(4), repeat=6):
        best, _tie = dec.ml_decode(spec, r)
        res = dec.geometric_decode(spec, r)
        if hamming_distance(best, r) <= radius:
            within += 1
            assert res is not None
            assert res.codeword == best
            assert res.message == message_of[best]
            assert res.corrected_positions == tuple(
                i for i in range(spec.N) if best[i] != r[i]
            )
        else:
            assert res is None
    # 64 codewords, each with 1 + 6*3 words at distance <= 1
    assert within == 64 * 19


def check_exhaustive_against_ml(spec):
    # every word: the ML codeword within radius; beyond it FAIL, or a word
    # within the radius
    q, N = spec.tower.q, spec.N
    t = (N - 3) // 2
    for r in itertools.product(range(q), repeat=N):
        best, _tie = dec.ml_decode(spec, r)
        res = dec.geometric_decode(spec, r)
        if hamming_distance(best, r) <= t:
            assert res is not None and res.codeword == best, r
        elif res is not None:
            assert hamming_distance(res.codeword, r) <= t, r


def test_geometric_decode_exhaustive_n5():
    # N = 5 (and 9) is where a heavy line's multiple can sit in the span of
    # the degree-e curves without being a basis vector; every 5-subset of
    # the q=4 hyperoval, and a q=5 arc
    hyperoval = cc.construct_code(4).lam
    for lam in itertools.combinations(hyperoval, 5):
        check_exhaustive_against_ml(cc.construct_code(4, lam))
    check_exhaustive_against_ml(cc.construct_code(5, [1, 7, 8, 22, 23]))


def test_geometric_decode_pinned_n9():
    spec = cc.construct_code(9, [1, 2, 13, 17, 26, 41, 43, 77, 79])
    r = (3, 8, 7, 5, 4, 2, 1, 1, 6)
    best, tie = dec.ml_decode(spec, r)
    assert hamming_distance(best, r) == 3 == (spec.N - 3) // 2 and not tie
    res = dec.geometric_decode(spec, r)
    assert res is not None and res.codeword == best
    assert res.corrected_positions == (3, 5, 8)


def test_geometric_decode_needs_a_point_off_the_arc():
    # the default q=2 arc is all of GF(4): no cone generator to center on
    spec = cc.construct_code(2)
    assert sorted(spec.lam) == [0, 1, 2, 3]
    with pytest.raises(ValueError, match="no projection center"):
        dec.geometric_decode(spec, (0, 0, 0, 1))


def test_factor_test_raises_under_optimize():
    # the factor test is a raised check, not an assert, so python -O keeps
    # it: with the fit one degree short no curve of that degree passes
    # through the projections, and the decode raises instead of returning
    script = textwrap.dedent("""
        from hermitian_mds import code as cc
        from hermitian_mds import decoder as dec
        fit = dec.fit_min_degree_curve
        dec.fit_min_degree_curve = lambda F, pts: fit(F, pts) - 1
        try:
            dec.geometric_decode(cc.reference_instance(), (1,) * 6)
        except AssertionError:
            print("raised", __debug__)
        else:
            print("returned", __debug__)
    """)
    env = {**os.environ, "PYTHONPATH": str(Path(dec.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "raised False\n", "")


def test_geometric_decode_result_invariants(ref, spec7):
    F7 = spec7.tower
    rng = random.Random(3)
    for spec in (ref, spec7):
        F = spec.tower
        for _ in range(40):
            m = (rng.randrange(F.q2), spec.s[rng.randrange(F.q)])
            w = cc.encode(spec, m)
            r = list(w)
            i = rng.randrange(spec.N)
            r[i] = F.q_add(r[i], rng.randrange(1, F.q))
            res = dec.geometric_decode(spec, tuple(r))
            assert res is not None
            assert len(res.corrected_positions) == hamming_distance(res.codeword, r)
            assert res.codeword == cc.encode(spec, res.message)
            assert res.factor[2] != 0  # never through the vertex direction


def test_geometric_decode_rejects_malformed(ref):
    with pytest.raises(ValueError):
        dec.geometric_decode(ref, (0, 0, 0))
    with pytest.raises(ValueError):
        dec.geometric_decode(ref, (0, 0, 0, 0, 0, 7))


def test_geometric_decode_two_errors_q7(spec7):
    F = spec7.tower
    rng = random.Random(21)
    for _ in range(100):
        m = (rng.randrange(49), rng.randrange(7))
        w = cc.encode(spec7, m)
        i, j = rng.sample(range(8), 2)
        r = list(w)
        r[i] = F.q_add(r[i], rng.randrange(1, 7))
        r[j] = F.q_add(r[j], rng.randrange(1, 7))
        res = dec.geometric_decode(spec7, tuple(r))
        assert res is not None and res.codeword == w
        assert sorted(res.corrected_positions) == sorted((i, j))


def test_geometric_decode_symmetry():
    # for a codeword c = encode(m') and kappa != 0, decoding kappa*r + c
    # gives kappa*decode(r) + c, with the message msg_add(msg_scale(kappa,
    # m), m') and the same corrected positions, and FAIL maps to FAIL; the
    # center and factor may change.  Words: half a codeword plus 0..t+2
    # errors, half uniform
    for q in (4, 5, 7, 8, 9):
        spec = cc.construct_code(q)
        F = spec.tower
        t = (spec.N - 3) // 2
        rng = random.Random(f"symmetry:{q}")
        outcomes = collections.Counter()
        for i in range(100):
            if i % 2:
                r = tuple(rng.randrange(q) for _ in range(spec.N))
            else:
                r = list(cc.encode(spec, (rng.randrange(F.q2), spec.s[rng.randrange(q)])))
                for pos in rng.sample(range(spec.N), rng.randrange(t + 3)):
                    r[pos] = F.q_add(r[pos], rng.randrange(1, q))
                r = tuple(r)
            kappa = rng.randrange(1, q)
            m2 = (rng.randrange(F.q2), spec.s[rng.randrange(q)])
            c = cc.encode(spec, m2)

            def moved(word):
                return tuple(F.q_add(F.q_mul(kappa, a), b) for a, b in zip(word, c))

            res = dec.geometric_decode(spec, r)
            image = dec.geometric_decode(spec, moved(r))
            outcomes[res is None] += 1
            if res is None:
                assert image is None, (q, r, kappa, m2)
                continue
            assert image is not None, (q, r, kappa, m2)
            assert image.codeword == moved(res.codeword)
            assert image.message == cc.msg_add(spec, cc.msg_scale(spec, kappa, res.message), m2)
            assert image.corrected_positions == res.corrected_positions
        assert outcomes[True] and outcomes[False], q  # both FAIL and decoded words


def test_geometric_decode_within_radius_exhaustive_by_symmetry():
    # every word within t of a codeword c is c + kappa*e, with e of weight
    # <= t whose first nonzero entry is 1, and by the symmetry above it
    # decodes as e does; so decoding each such e to the zero codeword, the
    # message (0, s0) and the support of e covers every word within the
    # radius at q = 7, 8 and 9
    for q, count in ((7, 177), (8, 6206), (9, 8051)):
        spec = cc.construct_code(q)
        N, t = spec.N, (spec.N - 3) // 2
        seen = 0
        for weight in range(t + 1):
            for support in itertools.combinations(range(N), weight):
                for rest in itertools.product(range(1, q), repeat=max(weight - 1, 0)):
                    e = [0] * N
                    for pos, value in zip(support, (1,) + rest):
                        e[pos] = value
                    res = dec.geometric_decode(spec, tuple(e))
                    assert res is not None, (q, e)
                    assert res.codeword == (0,) * N and res.message == (0, spec.s0), (q, e)
                    assert res.corrected_positions == support, (q, e)
                    seen += 1
        assert seen == count, q


def enumerate_codewords(spec):
    """All q^3 codewords, one encode per message in iter_messages order."""
    return [cc.encode(spec, m) for m in cc.iter_messages(spec)]


def check_sampled_decodes(spec, per_weight, steered, rng):
    # up to t errors the sent codeword, its message and the error positions
    # come back; at t+1 and t+2 errors the result is the ML codeword if one
    # lies within t of the word, and FAIL otherwise
    F = spec.tower
    t = (spec.N - 3) // 2
    msgs = list(cc.iter_messages(spec))
    for weight in range(t + 3):
        for _ in range(per_weight):
            m = msgs[rng.randrange(len(msgs))]
            w = cc.encode(spec, m)
            r = list(w)
            errors = tuple(sorted(rng.sample(range(spec.N), weight)))
            for pos in errors:
                r[pos] = F.q_add(r[pos], rng.randrange(1, F.q))
            res = dec.geometric_decode(spec, tuple(r))
            if weight <= t:
                assert res is not None
                assert (res.codeword, res.message, res.corrected_positions) == (w, m, errors)
                continue
            best, _tie = dec.ml_decode(spec, r)
            if hamming_distance(best, r) <= t:
                assert res is not None and res.codeword == best
                assert cc.encode(spec, res.message) == best
            else:
                assert res is None
    # t+1 errors never land within t of another codeword (d = N-2 = 2t+2)
    # and random t+2 errors rarely do, so steer t+2 errors onto a codeword
    # at distance N-2
    lowest = [c for c in enumerate_codewords(spec) if sum(map(bool, c)) == spec.N - 2]
    for _ in range(steered):
        w = cc.encode(spec, msgs[rng.randrange(len(msgs))])
        near = tuple(F.q_add(a, b) for a, b in zip(w, lowest[rng.randrange(len(lowest))]))
        support = [i for i in range(spec.N) if near[i] != w[i]]
        r = list(w)
        for pos in rng.sample(support, t + 2):
            r[pos] = near[pos]
        assert dec.ml_decode(spec, r)[0] == near
        res = dec.geometric_decode(spec, tuple(r))
        assert res is not None and res.codeword == near
        assert res.corrected_positions == tuple(i for i in range(spec.N) if near[i] != r[i])


def test_geometric_decode_sampled_q8():
    # even q: the 10-point hyperoval at q=8, radius t = 3
    spec = cc.construct_code(8)
    assert (spec.N, (spec.N - 3) // 2) == (10, 3)
    check_sampled_decodes(spec, per_weight=60, steered=30, rng=random.Random(8))


def test_geometric_decode_sampled_q16():
    # even q over the GF(2^4) tower: the 18-point hyperoval, radius t = 7
    spec = cc.construct_code(16)
    assert spec.lam == build_lambda(spec.tower, "hyperoval")
    assert (spec.N, (spec.N - 3) // 2) == (18, 7)
    check_sampled_decodes(spec, per_weight=20, steered=10, rng=random.Random(16))


def test_geometric_decode_on_the_non_conic_q16_arc():
    # the Lunelli-Sce q=16 arc is a hyperoval but not a conic plus a point
    # (tests/test_geometry.py), so its code is no extended Reed-Solomon
    # code; the paper's decoder needs only an arc.  On 100 seeded words,
    # odd ones uniform and even ones a codeword plus 0..t+2 errors, it
    # returns ML's codeword when that lies within t of the word, and FAIL
    # otherwise
    spec = cc.construct_code(16, LUNELLI_SCE_Q16)
    F, N, t = spec.tower, spec.N, (spec.N - 3) // 2
    assert (N, t) == (18, 7)
    rng = random.Random("non-conic:16")
    decoded = 0
    for i in range(100):
        if i % 2:
            r = tuple(rng.randrange(16) for _ in range(N))
        else:
            r = list(cc.encode(spec, (rng.randrange(256), rng.choice(spec.s))))
            for pos in rng.sample(range(N), rng.randrange(t + 3)):
                r[pos] = F.q_add(r[pos], rng.randrange(1, 16))
            r = tuple(r)
        best, _tie = dec.ml_decode(spec, r)
        res = dec.geometric_decode(spec, r)
        if hamming_distance(best, r) <= t:
            assert res is not None and res.codeword == best, r
            decoded += 1
        else:
            assert res is None, r
    assert decoded == 40  # the other 60 words FAIL


def test_ml_decode(ref):
    for m in [(0, 0), (3, 1), (17, 4)]:
        w = cc.encode(ref, m)
        assert dec.ml_decode(ref, w) == (w, False)
    word, tie = dec.ml_decode(ref, cc.encode(ref, (17, 4)))
    msg = cc.plane_to_message(ref, cc.codeword_to_plane(ref, word))
    assert msg == (17, 4) and not tie


def reference_ml_decode(words, r):
    """Nearest codeword by a scan of words, the enumerated codewords; ties
    break toward the lexicographically smallest codeword and set the flag."""
    r = tuple(r)
    best_word, best_dist, tie = None, len(r) + 1, False
    for w in words:
        d = hamming_distance(w, r)
        if d < best_dist:
            best_word, best_dist, tie = w, d, False
        elif d == best_dist:
            tie = True
            if w < best_word:
                best_word = w
    return best_word, tie


def test_ml_decode_tie(ref):
    # mix two symbols of two codewords at distance 4: the result is
    # equidistant from both, so the flag is set and the smaller word wins;
    # every such mix with words[1], against the scan
    words = enumerate_codewords(ref)
    w1 = words[1]
    for w2 in (w for w in words if hamming_distance(w, w1) == 4):
        diff = [i for i in range(6) if w1[i] != w2[i]]
        for mixed in itertools.combinations(diff, 2):
            r = tuple(w2[i] if i in mixed else c for i, c in enumerate(w1))
            assert hamming_distance(r, w1) == hamming_distance(r, w2) == 2
            best, tie = dec.ml_decode(ref, r)
            assert tie
            assert (best, tie) == reference_ml_decode(words, r)


def test_ml_decode_matches_the_scan():
    # every word at q = 3 and 4; at q = 5 to 16, 100 seeded words, odd ones
    # uniform and even ones a codeword plus errors at up to N positions
    for q in (3, 4):
        spec = cc.construct_code(q)
        words = enumerate_codewords(spec)
        for r in itertools.product(range(q), repeat=spec.N):
            assert dec.ml_decode(spec, r) == reference_ml_decode(words, r), r
    for q in (5, 7, 8, 9, 13, 16):
        spec = cc.construct_code(q)
        words = enumerate_codewords(spec)
        F, N = spec.tower, spec.N
        rng = random.Random(f"ml:{q}")
        for i in range(100):
            if i % 2:
                r = tuple(rng.randrange(q) for _ in range(N))
            else:
                r = list(cc.encode(spec, (rng.randrange(q * q), spec.s[rng.randrange(q)])))
                for pos in rng.sample(range(N), rng.randrange(N + 1)):
                    r[pos] = F.q_add(r[pos], rng.randrange(1, q))
            assert dec.ml_decode(spec, r) == reference_ml_decode(words, r), (q, r)


@pytest.mark.parametrize("q", [31, 32])
def test_geometric_decode_agrees_with_ml_at_large_q(q):
    # ML from the planes is the oracle past the scan's range, at odd q (norm
    # circle) and even q (hyperoval).  On 12 seeded words, three each with
    # t, t+1 and t+2 random errors and three with t+2 errors steered onto a
    # codeword at distance N-2 (row 2 of the generator's rref is 0 at
    # positions 0 and 1), geometric_decode returns ML's codeword when it
    # lies within t of the word, and FAIL otherwise
    spec = cc.construct_code(q)
    F, N, t = spec.tower, spec.N, (spec.N - 3) // 2
    low = cc.generator_matrix(spec)[2]
    rng = random.Random(f"oracle:{q}")
    within = 0
    for i in range(12):
        sent = cc.encode(spec, (rng.randrange(q * q), spec.s[rng.randrange(q)]))
        kappa = rng.randrange(1, q)
        near = tuple(F.q_add(a, F.q_mul(kappa, b)) for a, b in zip(sent, low))
        r = list(sent)
        if i % 4 == 3:
            for pos in rng.sample(range(2, N), t + 2):
                r[pos] = near[pos]
        else:
            for pos in rng.sample(range(N), t + min(i % 4, 2)):
                r[pos] = F.q_add(r[pos], rng.randrange(1, q))
        best, _tie = dec.ml_decode(spec, r)
        if i % 4 != 2:
            assert best == (near if i % 4 == 3 else sent)
        res = dec.geometric_decode(spec, r)
        if hamming_distance(best, r) <= t:
            within += 1
            assert res is not None and res.codeword == best
        else:
            assert res is None
    assert within == 6

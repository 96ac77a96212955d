"""Acceptance suite: one test per criterion, exact integer equality
throughout, each with a wall-clock budget.

Every test prints a single "criterion N PASS/FAIL" line (visible with
pytest -s, or in the failure report); pytest -v additionally shows one
PASSED/FAILED line per criterion through the test names.  Nothing here is
sampled where exhaustion is feasible: small q makes every claim checkable
by brute force.
"""

import itertools
import time
from collections import Counter

from hermitian_mds import code as cc
from hermitian_mds import decoder as dec
from hermitian_mds.cli import main, run_simulation
from hermitian_mds.fields import tower_for_q


def hamming_distance(a, b) -> int:
    if len(a) != len(b):
        raise ValueError("length mismatch")
    return sum(1 for x, y in zip(a, b) if x != y)


def _finish(number: int, budget_s: float, t0: float, detail: str):
    elapsed = time.perf_counter() - t0
    if elapsed >= budget_s:
        print(f"criterion {number} FAIL budget {budget_s}s exceeded ({elapsed:.1f}s)")
        raise AssertionError(f"criterion {number}: {elapsed:.1f}s >= {budget_s}s")
    print(f"criterion {number} PASS {detail} ({elapsed:.2f}s)")


def test_criterion_1_paper_example_reproduction(tmp_path, capsys):
    t0 = time.perf_counter()
    path = tmp_path / "q5.code"
    try:
        assert main(["construct", "--paper-example", "--out", str(path)]) == 0
        assert main(["verify", "--code", str(path)]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[-1].split() == ["verdict", "PASS"]
        # the itemized claims, each present and passing
        for prefix, fragment in [
            ("arc-condition", "PASS"),
            ("codeword-count", "125"),
            ("parameters", "[6,3,4]"),
            ("reference-row-space", "PASS"),
        ]:
            line = next(l for l in lines if l.startswith(prefix))
            assert fragment in line
    except BaseException:
        print("criterion 1 FAIL")
        raise
    _finish(1, 1.0, t0, "--paper-example instance constructs and verifies")


def test_criterion_2_weight_distribution(tmp_path, capsys):
    t0 = time.perf_counter()
    try:
        spec = cc.reference_instance()
        we = cc.weight_distribution(spec, "enumerate")
        wf = cc.weight_distribution(spec, "formula")
        assert (we[4], we[5], we[6]) == (60, 24, 40)
        assert we == wf  # general sum formula, every i
        a4, a5, a6 = cc.expanded_closed_forms(spec)
        assert (a4, a5) == (we[4], we[5])
        assert a6 == 41  # expanded top form overcounts by one
        path = str(tmp_path / "acc2.code")
        main(["construct", "--paper-example", "--out", path])
        assert main(["weights", "--code", path]) == 0
        out = capsys.readouterr().out
        assert "closed-form A_6=41 enumeration=40 INFO" in out
    except BaseException:
        print("criterion 2 FAIL")
        raise
    _finish(2, 1.0, t0, "(A4,A5,A6)=(60,24,40), formula exact, A_N INFO=41")


def test_criterion_3_mds_across_instances():
    t0 = time.perf_counter()
    try:
        checked = 0
        for q in (3, 4, 5, 7, 8, 9):
            strategies = ("subfield", "unit_trace") if q % 2 else ("unit_trace",)
            for s_strategy in strategies:
                spec = cc.construct_code(q, s_strategy=s_strategy)
                want_n = q + 1 if q % 2 else q + 2  # the hyperoval attains q+2
                assert spec.N == want_n
                d = cc.min_distance(spec)           # full enumeration
                dist_ok = d == spec.N - 2
                minors_ok = cc.is_mds(spec)         # every 3-column minor
                assert dist_ok and minors_ok and dist_ok == minors_ok
                checked += 1
        assert checked == 10
    except BaseException:
        print("criterion 3 FAIL")
        raise
    _finish(3, 60.0, t0, "10 instances over q in {3,4,5,7,8,9} all MDS")


def test_criterion_4_pairwise_and_common_zeros():
    t0 = time.perf_counter()
    try:
        for q in (4, 5, 7):
            spec = cc.construct_code(q)
            for lam, mu in itertools.combinations(spec.lam, 2):
                assert cc.pairwise_intersection_count(spec, lam, mu) == q
            assert cc.common_zero_set(spec) == {(0, spec.s0)}
    except BaseException:
        print("criterion 4 FAIL")
        raise
    _finish(4, 30.0, t0, "all pairs share q zeros; total intersection {(0,s0)}")


def test_criterion_5_decoder_exhaustive_q5():
    t0 = time.perf_counter()
    try:
        spec = cc.reference_instance()
        F = spec.tower
        msgs = list(cc.iter_messages(spec))
        # part 1: every codeword x every weight-1 pattern, 3000 decodes
        hits = 0
        for m in msgs:
            w = cc.encode(spec, m)
            for pos in range(6):
                for delta in range(1, 5):
                    r = list(w)
                    r[pos] = F.q_add(r[pos], delta)
                    res = dec.geometric_decode(spec, tuple(r))
                    assert res is not None
                    assert res.codeword == w and res.message == m
                    hits += 1
        assert hits == 3000
        # part 2: all of GF(5)^6; inside radius 1 the two decoders agree
        for r in itertools.product(range(5), repeat=6):
            best, _tie = dec.ml_decode(spec, r)
            res = dec.geometric_decode(spec, r)
            if hamming_distance(best, r) <= 1:
                assert res is not None and res.codeword == best
            else:
                # sound: never emits a codeword when none is within radius
                assert res is None
    except BaseException:
        print("criterion 5 FAIL")
        raise
    _finish(5, 300.0, t0, "3000/3000 weight-1; 15625-word ml agreement")


def test_criterion_6_decoder_sampled_q7_q9():
    t0 = time.perf_counter()
    try:
        for q in (7, 9):
            spec = cc.construct_code(q)
            radius = (spec.N - 3) // 2  # 2 at q=7, 3 at q=9
            per_weight = 10_000 // radius
            total = 0
            for w in range(1, radius + 1):
                n = per_weight + (10_000 - per_weight * radius if w == 1 else 0)
                report = run_simulation(spec, errors=w, trials=n, seed=1906 + w)
                assert report.successes == report.trials
                assert report.failures == 0 and report.miscorrections == 0
                total += report.trials
            assert total >= 10_000
            # seed reproducibility: same seed, same counts, twice
            again = [run_simulation(spec, radius, 200, seed=42) for _ in range(2)]
            assert again[0] == again[1]
            assert again[0].successes == 200
    except BaseException:
        print("criterion 6 FAIL")
        raise
    _finish(6, 600.0, t0, ">=10^4 trials each at q=7, q=9, 100% recovery")


def test_criterion_7_algebraic_structure():
    t0 = time.perf_counter()
    try:
        # closure homomorphisms, exhaustive at q=4 and q=5
        for q in (4, 5):
            spec = cc.construct_code(q)
            F = spec.tower
            msgs = list(cc.iter_messages(spec))
            words = {m: cc.encode(spec, m) for m in msgs}
            for m1 in msgs:
                w1 = words[m1]
                for m2 in msgs:
                    w2 = words[m2]
                    s = tuple(F.q_add(a, b) for a, b in zip(w1, w2))
                    assert words[cc.msg_add(spec, m1, m2)] == s
            for k in range(F.q):
                for m in msgs:
                    scaled = tuple(F.q_mul(k, c) for c in words[m])
                    assert words[cc.msg_scale(spec, k, m)] == scaled
        # field invariants, exhaustive for every supported q <= 9
        for q in (2, 3, 4, 5, 7, 8, 9):
            F = tower_for_q(q)
            elems = list(F.elements())
            for u in elems:
                assert F.frobenius(u) == F.pow(u, q)
                assert F.frobenius(F.frobenius(u)) == u
            for u in elems:
                fu = F.frobenius(u)
                for v in elems:
                    assert F.frobenius(F.add(u, v)) == F.add(fu, F.frobenius(v))
                    assert F.frobenius(F.mul(u, v)) == F.mul(fu, F.frobenius(v))
            trace_fibers = Counter(F.trace(u) for u in elems)
            assert trace_fibers == {t: q for t in range(q)}
            norm_fibers = Counter(F.norm(u) for u in elems)
            assert norm_fibers[0] == 1
            assert all(norm_fibers[c] == q + 1 for c in range(1, q))
    except BaseException:
        print("criterion 7 FAIL")
        raise
    _finish(7, 30.0, t0, "closure exhaustive q=4,5; field suite q<=9")


def test_criterion_8_round_trips():
    t0 = time.perf_counter()
    try:
        for q in (2, 3, 4, 5):
            spec = cc.construct_code(q)
            for m in cc.iter_messages(spec):
                plane = cc.message_to_plane(spec, m)
                assert cc.plane_to_message(spec, plane) == m
                w = cc.encode(spec, m)
                assert cc.plane_to_codeword(spec, plane) == w
                assert cc.codeword_to_plane(spec, w) == plane
        for spec in [cc.reference_instance()] + [
                cc.construct_code(q) for q in (2, 3, 4, 5, 7, 8, 9)]:
            text = cc.to_text(spec)
            assert cc.to_text(cc.from_text(text)) == text  # byte-exact
    except BaseException:
        print("criterion 8 FAIL")
        raise
    _finish(8, 10.0, t0, "plane/message/codeword bijections; file round-trip")

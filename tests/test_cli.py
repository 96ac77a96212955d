"""CLI tests: subcommand output formats, exit codes, determinism.

Exit code contract: 0 success/verified, 1 usage or input error,
2 verification failure, 3 decode failure.  Output for a fixed invocation
is byte-identical across runs, so the short tables are frozen here.
"""

import random
import subprocess
import sys
import time

import pytest

from hermitian_mds import code as cc
from hermitian_mds import decoder as dec
from hermitian_mds.cli import SimulationReport, build_parser, main, run_simulation
from test_geometry import HYPEROVAL_Q4, LUNELLI_SCE_Q16

REFERENCE_TEXT = (
    "hermitian-mds v1\n"
    "p=5\n"
    "h=1\n"
    "gq2=2,4,1\n"
    "lambda=23,12,11,7,18,19\n"
    "s=0,1,2,3,4\n"
)


@pytest.fixture()
def ref_path(tmp_path):
    path = tmp_path / "q5.code"
    assert main(["construct", "--paper-example", "--out", str(path)]) == 0
    return str(path)


def test_construct_paper_example_stdout(capsys):
    assert main(["construct", "--paper-example"]) == 0
    assert capsys.readouterr().out == REFERENCE_TEXT


def test_construct_paper_example_file_roundtrip(ref_path):
    with open(ref_path, encoding="utf-8") as fh:
        text = fh.read()
    assert text == REFERENCE_TEXT
    assert cc.from_text(text) == cc.reference_instance()


def test_construct_paper_example_q_mismatch(capsys):
    # --q 5 is redundant but allowed; any other q contradicts the instance
    assert main(["construct", "--paper-example", "--q", "5"]) == 0
    capsys.readouterr()
    assert main(["construct", "--paper-example", "--q", "4"]) == 1


def test_construct_paper_example_rejects_other_flags(capsys):
    # the worked example fixes its arc and transversal
    for flags in (["--lambda", "hyperoval"], ["--s", "subfield"]):
        assert main(["construct", "--paper-example", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --paper-example takes no --lambda or --s\n"


def test_construct_norm_c_is_an_unrecognized_argument(capsys):
    # every norm circle is the unit circle scaled, so no option picks one;
    # another circle is an explicit list, here the norm-2 circle at q=5
    for argv in (["--q", "5", "--norm-c", "2"], ["--paper-example", "--norm-c", "1"]):
        assert main(["construct", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: unrecognized arguments: --norm-c" in captured.err
    assert main(["construct", "--q", "5", "--lambda", "5,12,13,17,18,20"]) == 0
    spec = cc.from_text(capsys.readouterr().out)
    assert spec.lam == spec.tower.norm_circle(2)


def test_construct_empty_option_values_fail(tmp_path, capsys):
    # an empty --s is an unknown strategy, as an empty --lambda is, and an
    # empty --out a path that cannot be written; neither falls back to the
    # default
    for flags, err in ((["--lambda", ""], "error: unknown arc strategy ''\n"),
                       (["--s", ""], "error: unknown transversal strategy ''\n"),
                       (["--out", ""], "error: cannot write : ")):
        assert main(["construct", "--q", "5", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(err) and captured.err.count("\n") == 1


def test_construct_not_prime_power(capsys):
    assert main(["construct", "--q", "6"]) == 1
    assert "prime power" in capsys.readouterr().err


def test_construct_requires_q(capsys):
    assert main(["construct"]) == 1


def test_construct_explicit_arc_unit_trace(capsys):
    assert main(["construct", "--q", "4", "--lambda", ",".join(map(str, HYPEROVAL_Q4)),
                 "--s", "unit-trace"]) == 0
    out = capsys.readouterr().out
    spec = cc.from_text(out)
    assert spec.tower.q == 4
    assert spec.N == 6  # q + 2 at even q


def test_construct_greedy_is_an_unknown_strategy(capsys):
    # an arc other than the built-in ones is an explicit list; "greedy" is
    # no strategy name, so it is refused at once at every q.  Nor is
    # "explicit": the list itself is the arc
    for name, q in (("greedy", 4), ("greedy", 16), ("greedy", 256), ("explicit", 5)):
        t0 = time.perf_counter()
        assert main(["construct", "--q", str(q), "--lambda", name]) == 1
        assert time.perf_counter() - t0 < 1.0, q
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: unknown arc strategy '{name}'\n"


def test_construct_lambda_list_takes_the_integer_list_rule(capsys):
    # --lambda parses its list as --word and --message do, spaces included
    assert main(["construct", "--q", "16", "--lambda", ",".join(map(str, LUNELLI_SCE_Q16))]) == 0
    packed = capsys.readouterr().out
    assert main(["construct", "--q", "16", "--lambda", ", ".join(map(str, LUNELLI_SCE_Q16))]) == 0
    assert capsys.readouterr().out == packed
    # a negative element is an integer list, so the arc range check names it
    assert main(["construct", "--q", "4", "--lambda=-1,4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: arc elements must be canonical GF(q^2) integers\n"


def test_list_values_may_start_with_a_minus(ref_path, capsys):
    # argparse reads "-1,4" as an unknown option, so "--lambda -1,4" used to
    # exit with "expected one argument"; it is a value, as "--lambda=-1,4" is,
    # and reaches the list parser, which names what is wrong with it
    for argv, err in (
        (["construct", "--q", "4", "--lambda", "-1,4"],
         "arc elements must be canonical GF(q^2) integers"),
        (["encode", "--code", ref_path, "--message", "-1,0"],
         "message (-1, 0) outside the domain GF(q^2) x S"),
        (["decode", "--code", ref_path, "--word", "-1,0,0,0,0,0"],
         "symbols must be canonical GF(q) integers"),
    ):
        joined = argv[:-2] + [f"{argv[-2]}={argv[-1]}"]
        for form in (argv, joined):
            assert main(form) == 1, form
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", f"error: {err}\n"), form


def test_construct_even_q_hyperoval_default(capsys):
    # the default even-q arc is the hyperoval, q+2 points; at q=2 and q=8 it
    # is the first full-size arc in depth-first integer order
    for q, arc in ((2, "0,1,2,3"), (8, "0,1,8,9,20,22,34,38,50,52")):
        assert main(["construct", "--q", str(q)]) == 0
        default = capsys.readouterr().out
        assert main(["construct", "--q", str(q), "--lambda", arc]) == 0
        assert capsys.readouterr().out == default
    # closed form, so the top of the supported range builds in about a
    # second (measured 0.1 s at q=32 and 1.0 s at q=256 on a 2-core box)
    for q, budget_s in ((32, 1.0), (256, 5.0)):
        t0 = time.perf_counter()
        assert main(["construct", "--q", str(q)]) == 0
        elapsed = time.perf_counter() - t0
        spec = cc.from_text(capsys.readouterr().out)
        assert spec.N == q + 2
        assert elapsed < budget_s, f"construct --q {q} took {elapsed:.2f} s"


def test_construct_norm_circle_q5(capsys):
    assert main(["construct", "--q", "5", "--lambda", "norm_circle",
                 "--s", "subfield"]) == 0
    out = capsys.readouterr().out
    assert "lambda=1,4,7,8,22,23\n" in out  # norm-1 circle, default modulus
    assert "s=0,1,2,3,4\n" in out


def test_construct_explicit_lambda_keeps_order(capsys):
    assert main(["construct", "--q", "5", "--lambda", "1,4,11,12,18,19"]) == 0
    assert "lambda=1,4,11,12,18,19\n" in capsys.readouterr().out


def test_construct_explicit_lambda_rejected(capsys):
    # explicit values are checked where every arc is, in CodeSpec, so a
    # bad transversal strategy is reported first
    for flags, err in ((["--q", "5"], "arc condition fails"),
                       (["--q", "4", "--s", "subfield"],
                        "GF(q) lies in the trace kernel for even q")):
        assert main(["construct", *flags, "--lambda", "0,1,2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {err}\n"


def test_construct_out_unwritable_path(tmp_path, capsys):
    # a directory that does not exist: one error line, no traceback
    path = tmp_path / "missing" / "x.code"
    assert main(["construct", "--q", "5", "--out", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {path}: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert not path.parent.exists()


def test_parser_is_built_once_and_reused(ref_path, capsys):
    # main reuses one parser per process; no call may see another's options
    assert build_parser() is build_parser()
    word = ["decode", "--code", ref_path, "--word", "1,1,1,1,1,2"]
    assert main([*word, "--method", "ml"]) == 0
    assert capsys.readouterr().out == (
        "codeword=1,1,1,1,1,1\nmessage=0,3\ncorrected=5\ntie=no\n")
    assert main(word) == 0  # the geometric default again, so no tie= line
    assert capsys.readouterr().out == (
        "codeword=1,1,1,1,1,1\nmessage=0,3\ncorrected=5\n")
    assert main(["decode", "--word", "1,1,1,1,1,2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: hermitian-mds decode ")
    assert captured.err.endswith(
        "hermitian-mds decode: error: the following arguments are required: --code\n")
    assert main(["construct", "--paper-example"]) == 0
    assert capsys.readouterr().out == REFERENCE_TEXT


def test_encode_reference_example(ref_path, capsys):
    assert main(["encode", "--code", ref_path, "--message", "0,3"]) == 0
    assert capsys.readouterr().out == "1,1,1,1,1,1\n"


def test_encode_malformed_message(ref_path, capsys):
    assert main(["encode", "--code", ref_path, "--message", "0"]) == 1
    assert main(["encode", "--code", ref_path, "--message", "a,b"]) == 1


def test_decode_single_error(ref_path, capsys):
    assert main(["decode", "--code", ref_path, "--word", "1,1,1,1,1,2"]) == 0
    assert capsys.readouterr().out == (
        "codeword=1,1,1,1,1,1\nmessage=0,3\ncorrected=5\n")


def test_decode_ml_method(ref_path, capsys):
    assert main(["decode", "--code", ref_path, "--word", "1,1,1,1,1,2",
                 "--method", "ml"]) == 0
    assert capsys.readouterr().out == (
        "codeword=1,1,1,1,1,1\nmessage=0,3\ncorrected=5\ntie=no\n")


def test_decode_prints_one_way_for_both_methods(tmp_path, capsys):
    # both methods print the codeword, its message and the positions where
    # it differs from the word through one path; ML adds its tie flag
    path = tmp_path / "q5.code"
    assert main(["construct", "--q", "5", "--out", str(path)]) == 0
    assert main(["decode", "--code", str(path), "--word", "1,2,3,4,0,1",
                 "--method", "ml"]) == 0
    assert capsys.readouterr().out == (
        "codeword=1,2,2,4,4,1\nmessage=21,3\ncorrected=2,4\ntie=yes\n")
    # a word within the radius: the same three lines by either method
    spec = cc.construct_code(8)
    path.write_text(cc.to_text(spec))
    rng = random.Random("cli-decode:8")
    m = (rng.randrange(64), rng.choice(spec.s))
    w = cc.encode(spec, m)
    r = list(w)
    errors = sorted(rng.sample(range(spec.N), (spec.N - 3) // 2))
    for pos in errors:
        r[pos] = spec.tower.q_add(r[pos], rng.randrange(1, 8))
    lines = (f"codeword={','.join(map(str, w))}\nmessage={m[0]},{m[1]}\n"
             f"corrected={','.join(map(str, errors))}\n")
    word = ["decode", "--code", str(path), "--word", ",".join(map(str, r))]
    assert main(word) == 0
    assert capsys.readouterr().out == lines
    assert main([*word, "--method", "ml"]) == 0
    assert capsys.readouterr().out == lines + "tie=no\n"


def test_decode_ml_past_the_enumeration_budget(tmp_path, capsys):
    # ML decoding counts the q^2 planes and the weights the q + 1 direction
    # sections instead of scanning the q^3 codewords, so both run past
    # q=101, where verify still stops at the enumeration budget of its scans
    # over every message.  Measured on a 2-core box: decode 0.06 s at q=103
    # and 0.8 s at q=256, weights about 0.02 s at q=256
    for q, budget_s in ((103, 1.0), (256, 5.0)):
        spec = cc.construct_code(q)
        path = tmp_path / f"q{q}.code"
        path.write_text(cc.to_text(spec))
        rng = random.Random(f"ml-cli:{q}")
        m = (rng.randrange(q * q), spec.s[rng.randrange(q)])
        w = cc.encode(spec, m)
        r = list(w)
        errors = sorted(rng.sample(range(spec.N), (spec.N - 3) // 2))
        for pos in errors:
            r[pos] = spec.tower.q_add(r[pos], rng.randrange(1, q))
        t0 = time.perf_counter()
        assert main(["decode", "--code", str(path), "--word", ",".join(map(str, r)),
                     "--method", "ml"]) == 0
        elapsed = time.perf_counter() - t0
        assert capsys.readouterr().out == (
            f"codeword={','.join(map(str, w))}\nmessage={m[0]},{m[1]}\n"
            f"corrected={','.join(map(str, errors))}\ntie=no\n")
        assert elapsed < budget_s, f"decode --method ml at q={q} took {elapsed:.2f} s"
        t0 = time.perf_counter()
        assert main(["weights", "--code", str(path)]) == 0
        elapsed = time.perf_counter() - t0
        table = capsys.readouterr().out.splitlines()[1:spec.N + 2]
        assert [row.split()[0] for row in table] == [str(i) for i in range(spec.N + 1)]
        assert all(row.split()[1] == row.split()[2] for row in table), q
        assert elapsed < budget_s, f"weights at q={q} took {elapsed:.2f} s"
    # the rows before the first scan are cheap (the weights read q + 1
    # sections) and no scan evaluates a term of x before its budget check,
    # so verify stops at once: 0.17 s at q=103 and 0.03 s at q=256 on a
    # 2-core box, where the literal-form terms of every x would take 1.1 s
    # at q=103 and counting the weights over q^2 planes 1.9 s at q=256
    for q in (103, 256):
        t0 = time.perf_counter()
        assert main(["verify", "--code", str(tmp_path / f"q{q}.code")]) == 1
        elapsed = time.perf_counter() - t0
        assert capsys.readouterr().err == f"error: enumeration budget exceeded for q={q}\n"
        assert elapsed < 1.0, f"verify at q={q} took {elapsed:.2f} s to stop"


def test_decode_failure_exit_code(ref_path, capsys):
    # weight-2 pattern the curve-fitting pass rejects: detected, not corrected
    assert main(["decode", "--code", ref_path, "--word", "0,0,0,0,1,1"]) == 3
    assert capsys.readouterr().out == "FAIL\n"


def test_decode_within_radius_n5(tmp_path, capsys):
    # one error on a 5-point q=4 arc (t = 1): the heavy line's multiple lies
    # among the minimum-degree curves without being a basis vector of them
    path = str(tmp_path / "n5.code")
    assert main(["construct", "--q", "4", "--lambda", "0,1,8,10,14", "--out", path]) == 0
    assert main(["decode", "--code", path, "--word", "3,3,3,2,1"]) == 0
    assert capsys.readouterr().out == "codeword=3,3,2,2,1\nmessage=3,4\ncorrected=2\n"


def test_decode_malformed_word(ref_path, capsys):
    assert main(["decode", "--code", ref_path, "--word", "1,1,1"]) == 1
    assert main(["decode", "--code", ref_path, "--word", "1,1,1,1,1,9"]) == 1


def test_q2_default_arc_leaves_no_center(tmp_path, capsys):
    # the default q=2 arc is all of GF(4), so the geometric decoder has no
    # projection center: a clean input error, while ML decoding still works
    path = str(tmp_path / "q2.code")
    assert main(["construct", "--q", "2", "--out", path]) == 0
    assert main(["decode", "--code", path, "--word", "0,0,0,1"]) == 1
    assert capsys.readouterr().err.startswith("error: no projection center")
    assert main(["simulate", "--code", path, "--errors", "1",
                 "--trials", "3", "--seed", "1"]) == 1
    assert capsys.readouterr().err.startswith("error: no projection center")
    assert main(["decode", "--code", path, "--word", "0,0,0,1",
                 "--method", "ml"]) == 0


def test_weights_table_frozen(ref_path, capsys):
    assert main(["weights", "--code", ref_path]) == 0
    assert capsys.readouterr().out == (
        "i enumerate formula\n"
        "0 1 1\n"
        "1 0 0\n"
        "2 0 0\n"
        "3 0 0\n"
        "4 60 60\n"
        "5 24 24\n"
        "6 40 40\n"
        "closed-form A_4=60 enumeration=60\n"
        "closed-form A_5=24 enumeration=24\n"
        "closed-form A_6=41 enumeration=40"
        " INFO: expanded form exceeds enumeration by 1\n")


def test_verify_reference_passes(ref_path, capsys):
    assert main(["verify", "--code", ref_path]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[-1].split() == ["verdict", "PASS"]
    statuses = [line.split()[1] for line in lines[:-1]]
    assert statuses.count("FAIL") == 0
    assert statuses.count("INFO") == 1  # the A_N expanded form only
    assert any(line.startswith("parameters") and "[6,3,4]" in line
               for line in lines)
    assert any(line.startswith("reference-row-space") for line in lines)
    assert any(line.startswith("reference-weights") for line in lines)


def test_verify_byte_identical(ref_path, capsys):
    main(["verify", "--code", ref_path])
    first = capsys.readouterr().out
    main(["verify", "--code", ref_path])
    assert capsys.readouterr().out == first


def test_verify_false_claims_exit_2(tmp_path, capsys):
    # parses fine, but lambda is not an arc: claim failure, not usage error
    path = tmp_path / "bad.code"
    path.write_text("hermitian-mds v1\np=5\nh=1\ngq2=2,4,1\n"
                    "lambda=0,5,10,15\ns=0,1,2,3,4\n")
    assert main(["verify", "--code", str(path)]) == 2
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("instance-valid")
    assert out.splitlines()[-1].split() == ["verdict", "FAIL"]


def test_verify_literal_form_failure_exit_2(ref_path, capsys, monkeypatch):
    # one nonzero symbol of one enumerated codeword is swapped for another
    # nonzero value of GF(5): weights, distance and zero sets are unchanged, and the
    # word stays 3 or more away from every other codeword, so only the
    # literal-form claim can see it
    encode = cc.encode
    spec = cc.reference_instance()
    bad = next(m for m in cc.iter_messages(spec) if encode(spec, m)[0])

    def corrupted(spec, m):
        w = encode(spec, m)
        return (w[0] % 4 + 1,) + w[1:] if m == bad else w

    monkeypatch.setattr(cc, "encode", corrupted)
    assert main(["verify", "--code", ref_path]) == 2
    lines = capsys.readouterr().out.splitlines()
    names = [line.split()[0] for line in lines]
    assert names.index("literal-form") == names.index("codeword-count") + 1
    assert [line.split()[:2] for line in lines if line.split()[1] == "FAIL"] == [
        ["literal-form", "FAIL"], ["verdict", "FAIL"]]


def test_verify_distance_failure_exit_2(ref_path, capsys, monkeypatch):
    # the weights are counted on the sections (-c1, -c2, 0): one of them
    # holds some b twice, and a third symbol set to b gives the codeword
    # (c1, c2, b) three zeros.  The counted distance drops to 3 while the
    # generator's minors stay nonsingular, so the two MDS checks disagree.
    # verify reports it in its table, not a traceback
    section = cc.plane_to_codeword
    spec = cc.reference_instance()
    bad = (1, 0, 0)
    w = section(spec, bad)
    b = next(c for c in w if w.count(c) == 2)
    i = next(i for i, c in enumerate(w) if c != b)

    def corrupted(spec, plane):
        w = section(spec, plane)
        return w[:i] + (b,) + w[i + 1:] if plane == bad else w

    monkeypatch.setattr(cc, "plane_to_codeword", corrupted)
    assert main(["verify", "--code", ref_path]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = {line.split()[0]: line.split(maxsplit=2)[1:] for line in captured.out.splitlines()}
    assert rows["parameters"] == ["FAIL", "[6,3,3]"]
    assert rows["singleton-equality"][0] == "FAIL"
    assert rows["mds-minors"][0] == "PASS"
    assert rows["verdict"] == ["FAIL"]


def test_verify_constant_direction_section_exit_2(ref_path, capsys, monkeypatch):
    # the weights and the common zeros are counted on the direction
    # sections: with the section of (1, 0, 0) all zeros, each of its q - 1
    # nonzero multiples counts as one more zero word.  The rows that read
    # those counts fail; literal-form (encode) and mds-minors (the generator
    # matrix) read no section and pass.  verify reports it in its table
    section = cc.plane_to_codeword
    bad = (1, 0, 0)

    def corrupted(spec, plane):
        return (0,) * spec.N if plane == bad else section(spec, plane)

    monkeypatch.setattr(cc, "plane_to_codeword", corrupted)
    assert main(["verify", "--code", ref_path]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = {line.split()[0]: line.split()[1] for line in captured.out.splitlines()}
    for name in ("codeword-count", "common-zero-set", "weights-methods-agree"):
        assert rows[name] == "FAIL", name
    assert rows["literal-form"] == "PASS"
    assert rows["mds-minors"] == "PASS"
    assert rows["verdict"] == "FAIL"


@pytest.mark.parametrize("params", ["p=1000000000000000003\nh=1\n",
                                    "p=2\nh=100000000000\ngq=1,1\n"])
def test_oversized_field_fails_fast(tmp_path, capsys, params):
    # the size cap is checked before primality or p^h, so these return at once
    path = tmp_path / "big.code"
    path.write_text("hermitian-mds v1\n" + params + "gq2=2,4,1\nlambda=0,1,5\ns=0\n")
    assert main(["verify", "--code", str(path)]) == 2
    out = capsys.readouterr().out
    assert out.splitlines()[0].split()[:2] == ["instance-valid", "FAIL"]
    assert "unsupported: q^2 exceeds 65536" in out
    assert main(["encode", "--code", str(path), "--message", "0,0"]) == 1


def test_verify_malformed_file_exit_1(tmp_path, capsys):
    path = tmp_path / "junk.code"
    path.write_text("not a header\n")
    assert main(["verify", "--code", str(path)]) == 1


def test_missing_file_exit_1(capsys):
    assert main(["encode", "--code", "/nonexistent.code",
                 "--message", "0,0"]) == 1


def test_non_utf8_file_exit_1(tmp_path, capsys):
    # an undecodable file is a read error that names its path, as a missing one is
    path = tmp_path / "latin1.code"
    path.write_bytes(b"hermitian-mds v1\np=5\xff\n")
    assert main(["verify", "--code", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xff")
    assert captured.err.count("\n") == 1


def test_simulate_deterministic(ref_path, capsys):
    args = ["simulate", "--code", ref_path, "--errors", "1",
            "--trials", "20", "--seed", "7"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert first == ("trials=20\nerror_weight=1\nsuccesses=20\n"
                     "failures=0\nmiscorrections=0\nseed=7\n")
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_simulate_report_invariants(ref_path):
    spec = cc.reference_instance()
    # weight 2 exceeds the guaranteed radius 1; counts still partition trials
    report = run_simulation(spec, errors=2, trials=30, seed=3)
    assert report.successes + report.failures + report.miscorrections == 30
    within = run_simulation(spec, errors=1, trials=30, seed=3)
    assert (within.successes, within.failures, within.miscorrections) == (30, 0, 0)
    zero = run_simulation(spec, errors=0, trials=5, seed=0)
    assert zero.successes == 5


def test_simulate_draws_from_the_message_list(monkeypatch):
    # reference: each trial draws its message from the full list
    # iter_messages, then its positions and offsets, from one seeded stream;
    # even q uses the unit-trace transversal
    sent = []
    encode = cc.encode

    def recording(spec, m):
        sent.append(m)
        return encode(spec, m)

    for q in (4, 7, 8):
        spec = cc.construct_code(q)
        F, N = spec.tower, spec.N
        msgs = list(cc.iter_messages(spec))
        for errors in ((N - 3) // 2, (N - 3) // 2 + 2):
            expected_msgs = []
            counts = [0, 0, 0]
            for i in range(12):
                rng = random.Random(f"5:{i}")
                m = msgs[rng.randrange(len(msgs))]
                w = cc.encode(spec, m)
                r = list(w)
                for pos in rng.sample(range(N), errors):
                    r[pos] = F.q_add(r[pos], rng.randrange(1, F.q))
                res = dec.geometric_decode(spec, tuple(r))
                counts[0 if res is not None and res.codeword == w else
                       1 if res is None else 2] += 1
                expected_msgs.append(m)
            sent.clear()
            with monkeypatch.context() as mp:
                mp.setattr(cc, "encode", recording)
                report = run_simulation(spec, errors, 12, seed=5)
            assert sent == expected_msgs
            assert report == SimulationReport(12, errors, *counts, 5)


def test_simulate_bad_parameters(ref_path, capsys):
    assert main(["simulate", "--code", ref_path, "--errors", "7",
                 "--trials", "5", "--seed", "1"]) == 1
    assert main(["simulate", "--code", ref_path, "--errors", "1",
                 "--trials", "0", "--seed", "1"]) == 1


def test_usage_errors_exit_1(capsys):
    assert main([]) == 1
    assert main(["bogus"]) == 1
    assert main(["decode", "--code"]) == 1


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert main(["construct", "--help"]) == 0


def test_console_script_installed(tmp_path):
    # entry point wiring, one subprocess round trip
    out = tmp_path / "q5.code"
    proc = subprocess.run(
        [sys.executable, "-m", "hermitian_mds.cli", "construct",
         "--paper-example", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert out.read_text() == REFERENCE_TEXT

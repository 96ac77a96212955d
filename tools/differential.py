"""Differential run: compare library and CLI outputs of two checkouts.

Usage:
    python3 tools/differential.py PARENT_DIR [CHANGE_DIR]

CHANGE_DIR defaults to the checkout holding this script.  For each
checkout, one child process runs this file with `--emit` and
PYTHONPATH=<dir>/src; it prints one `case<TAB>result` line per case, in a
fixed order.  The two line lists are compared, the first mismatches are
printed, and the exit code is 0 when every line agrees, 1 when some differ
and 2 when a child fails or imports the package from the wrong place.  A
case that raises records the exception's type and text as its result, so
one raising case shows up as a mismatch and the run goes on.

Cases (all deterministic; seeded words use random.Random("<q>:<i>")):
  - geometric_decode (codeword, message, corrected positions, center,
    factor) on every word at q=4 and q=5, and on 200 seeded words each at
    q = 7, 8, 9, 13, 16: half a codeword plus 0..t+2 errors, half uniform;
    also on every word of the N=5 arcs N5_ARCS and on 400 seeded words of
    the N=9 arc N9_ARC (seeds "<q>:<lambda>:<i>"), each built as a
    CodeSpec with the default transversal;
  - ml_decode (codeword, tie flag) on every word at q=4 and q=5 and on the
    same seeded words at q = 7, 8, 9, 13, 16;
  - both decoders on every coset representative at q=7, the 16 807 words
    with r0 = r1 = r2 = 0 (three positions of an MDS code of dimension 3
    are an information set, so each coset holds exactly one);
  - plane_to_message and codeword_to_plane on all q^3 planes for q <= 9;
  - plane_to_codeword on all q^3 planes at q = 11, 13 and 16, and on 2 000
    planes each at q = 49, 128, 243, 251 and 256 drawn from
    random.Random("sections:<q>"); at those five q also on every plane
    (c1, 0, c0), one line per c1 holding a SHA-256 digest of its q words;
  - encode on every message at each prime power q <= 9 and on the
    reference instance, and on 500 messages each at q = 49, 128, 243, 251
    and 256 drawn from random.Random("encode:<q>"); on the same seeded
    messages also message_to_plane and plane_to_message of that plane;
    at q = 49, 128 and 256 encode and message_to_plane for x = 0 and for
    every x with T(eps*x) = 0 (the planes with c2 = 0), each with y = s0
    and with the last element of S;
    at q = 4, 49 and 256 the exception type and text of encode for
    x = -1, x = q^2, a y outside S and a 3-tuple;
  - msg_add on every message pair and msg_scale on every (kappa, message)
    at q = 4 and 5, and on 500 pairs and 500 (kappa, message) each at
    q = 7, 8, 9, 13, 16, 49, 128, 243, 251, 256 drawn from
    random.Random("messages:<q>"); at the same q, the exception type and
    text for an x outside GF(q^2), a y outside S and kappa = q;
  - CodeSpec.gram_inv of construct_code(q) at every prime power q <= 256;
  - generator_matrix and is_mds at every prime power q = 2..16;
  - weight_distribution(spec, "enumerate"), min_distance and
    common_zero_set (sorted) at every prime power q <= 64 and at q = 128
    and 256 with the default instances, at odd q <= 13 with the unit-trace
    transversal, on the reference instance, on the Lunelli-Sce hyperoval
    LUNELLI_SCE_Q16 and on the first 5 points of the q=7 norm circle;
  - the moduli gq and gq2 of tower_for_q and a SHA-256 digest of each of
    its GF(q) tables (add, neg, mul, inv) at every prime power q <= 256;
  - FieldTower(p, h, gq=gq) for every monic gq at (p, h) in SUPPLIED_MODULI
    (q = 4 to 169) and for the malformed gq of MALFORMED_MODULI: the same
    moduli and digests when it builds, else the exception type and text;
  - run_simulation at q = 4, 5, 7, 8, with the messages it encodes;
  - stdout, stderr and exit code of a fixed list of CLI invocations:
    `weights` at every prime power q <= 49 and on the reference instance,
    `verify` at q = 4, 7, 8, 9, 11, 13 and 16, on the reference instance
    (the --paper-example file), on the Lunelli-Sce hyperoval LUNELLI_SCE_Q16
    and on the q=7 norm-2 circle of NORM_2_CIRCLES, those two files written
    by `construct --lambda <list> --out`;
    `decode` by both methods on a few fixed words and on those of
    cli_decode_cases: the q=5 ML tie `1,2,3,4,0,1`, 10 seeded words each
    at q = 8, 13 and 16, half within the radius and half beyond, and a
    word of the wrong length;
    `construct` with the explicit full-size arcs `--lambda 0,1,4,6,9,10`
    at q=4 and the Lunelli-Sce hyperoval LUNELLI_SCE_Q16 at q=16, so that
    explicit arcs stay compared where they are no default; also
    `construct` with the default strategies at every q = 2..16 (exit 1 at
    the five that are no prime power) and every prime power q <= 256, with
    the explicit norm-2 circles NORM_2_CIRCLES at q = 7 and 16, and with
    the explicit non-arc `--lambda 0,1,2` at q = 5.
The two children run side by side; the whole run takes 20-80 s on a
2-core box under Python 3.11, depending on the host's CPU speed state.

Stdlib only.
"""

import contextlib
import hashlib
import io
import itertools
import os
import random
import subprocess
import sys
import tempfile

MAX_SHOWN = 10
PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)
# every supported q: the prime powers up to 256, i.e. the q with one prime divisor
SUPPORTED_QS = tuple(q for q in range(2, 257)
                     if sum(q % d == 0 and all(d % e for e in range(2, d))
                            for d in range(2, q + 1)) == 1)
N5_ARCS = ((4, (0, 1, 8, 10, 14)), (5, (1, 7, 8, 22, 23)))
N9_ARC = (9, (1, 2, 13, 17, 26, 41, 43, 77, 79))


def explicit_arc_spec(cc, q, lam):
    # CodeSpec takes an arc the same way in every checkout; construct_code does not
    F = cc.tower_for_q(q)
    return cc.CodeSpec(F, lam, cc.build_transversal(F, "subfield" if q % 2 else "unit_trace"))


def emit_decoder(cc, dec, out):
    def show(spec, r):
        res = dec.geometric_decode(spec, r)
        if res is None:
            return "FAIL"
        return res.codeword, res.message, res.corrected_positions, res.center, res.factor

    def seeded(spec, tag, n):
        q, N, t = spec.tower.q, spec.N, (spec.N - 3) // 2
        for i in range(n):
            rng = random.Random(f"{tag}:{i}")
            if i % 2:
                r = tuple(rng.randrange(q) for _ in range(N))
            else:
                k = rng.randrange(q ** 3)
                r = list(cc.encode(spec, (k // q, spec.s[k % q])))
                for pos in rng.sample(range(N), rng.randrange(t + 3)):
                    r[pos] = spec.tower.q_add(r[pos], rng.randrange(1, q))
                r = tuple(r)
            yield r

    for q in (4, 5):
        spec = cc.construct_code(q)
        for r in itertools.product(range(q), repeat=spec.N):
            out(f"decode q={q} r={r}", show, spec, r)
            out(f"ml q={q} r={r}", dec.ml_decode, spec, r)
    for q in (7, 8, 9, 13, 16):
        spec = cc.construct_code(q)
        for r in seeded(spec, q, 200):
            out(f"decode q={q} r={r}", show, spec, r)
            out(f"ml q={q} r={r}", dec.ml_decode, spec, r)
    spec = cc.construct_code(7)
    for tail in itertools.product(range(7), repeat=spec.N - 3):
        r = (0, 0, 0, *tail)
        out(f"coset decode q=7 r={r}", show, spec, r)
        out(f"coset ml q=7 r={r}", dec.ml_decode, spec, r)
    # N = 5 and N = 9 arcs, where a basis-dependent factor test could miss
    # words within the radius
    for q, lam in N5_ARCS:
        spec = explicit_arc_spec(cc, q, lam)
        for r in itertools.product(range(q), repeat=spec.N):
            out(f"decode q={q} lambda={lam} r={r}", show, spec, r)
    q, lam = N9_ARC
    spec = explicit_arc_spec(cc, q, lam)
    for r in seeded(spec, f"{q}:{lam}", 400):
        out(f"decode q={q} lambda={lam} r={r}", show, spec, r)


def emit_planes(cc, dec, out):
    for q in (2, 3, 4, 5, 7, 8, 9):
        spec = cc.construct_code(q)
        for plane in itertools.product(range(q), repeat=3):
            out(f"planes q={q} plane={plane}", lambda: (
                cc.plane_to_message(spec, plane),
                cc.codeword_to_plane(spec, cc.plane_to_codeword(spec, plane))))


def emit_plane_sections(cc, dec, out):
    for q in (11, 13, 16):
        spec = cc.construct_code(q)
        for plane in itertools.product(range(q), repeat=3):
            out(f"section q={q} plane={plane}", cc.plane_to_codeword, spec, plane)
    for q in (49, 128, 243, 251, 256):
        spec = cc.construct_code(q)
        rng = random.Random(f"sections:{q}")
        for _ in range(2000):
            plane = tuple(rng.randrange(q) for _ in range(3))
            out(f"section q={q} plane={plane}", cc.plane_to_codeword, spec, plane)
        for c1 in range(q):  # c2 = 0: every c0, digested to keep the output small
            out(f"section q={q} plane=({c1}, 0, *)", lambda: hashlib.sha256(repr(
                [cc.plane_to_codeword(spec, (c1, 0, c0)) for c0 in range(q)]).encode()).hexdigest())


def emit_encodes(cc, dec, out):
    for q in (2, 3, 4, 5, 7, 8, 9):
        spec = cc.construct_code(q)
        for m in cc.iter_messages(spec):
            out(f"encode q={q} m={m}", cc.encode, spec, m)
    spec = cc.reference_instance()
    for m in cc.iter_messages(spec):
        out(f"encode reference m={m}", cc.encode, spec, m)
    for q in (49, 128, 243, 251, 256):
        spec = cc.construct_code(q)
        rng = random.Random(f"encode:{q}")
        for _ in range(500):
            m = (rng.randrange(q * q), spec.s[rng.randrange(q)])
            out(f"encode q={q} m={m}", cc.encode, spec, m)
            out(f"message plane q={q} m={m}", lambda: (
                cc.message_to_plane(spec, m),
                cc.plane_to_message(spec, cc.message_to_plane(spec, m))))
    for q in (49, 128, 256):
        # x = 0 and every x with T(eps*x) = 0, whose plane has c2 = 0
        spec = cc.construct_code(q)
        F = spec.tower
        for x in (x for x in range(q * q) if F.trace(F.mul(F.eps, x)) == 0):
            for m in ((x, spec.s0), (x, spec.s[-1])):
                out(f"encode c2=0 q={q} m={m}", cc.encode, spec, m)
                out(f"message plane c2=0 q={q} m={m}", cc.message_to_plane, spec, m)
    for q in (4, 49, 256):
        spec = cc.construct_code(q)
        bad_y = next(y for y in range(q * q) if y not in spec.s)
        for m in ((-1, spec.s0), (q * q, spec.s0), (1, bad_y), (1, spec.s0, 0)):
            out(f"encode q={q} bad m={m}", cc.encode, spec, m)


def emit_message_algebra(cc, dec, out):
    for q in (4, 5):
        spec = cc.construct_code(q)
        msgs = list(cc.iter_messages(spec))
        for m1 in msgs:
            for m2 in msgs:
                out(f"msg_add q={q} m1={m1} m2={m2}", cc.msg_add, spec, m1, m2)
            for kappa in range(q):
                out(f"msg_scale q={q} kappa={kappa} m={m1}", cc.msg_scale, spec, kappa, m1)
    for q in (7, 8, 9, 13, 16, 49, 128, 243, 251, 256):
        spec = cc.construct_code(q)
        rng = random.Random(f"messages:{q}")
        for _ in range(500):
            m1, m2 = ((rng.randrange(q * q), spec.s[rng.randrange(q)]) for _ in range(2))
            kappa = rng.randrange(q)
            out(f"msg_add q={q} m1={m1} m2={m2}", cc.msg_add, spec, m1, m2)
            out(f"msg_scale q={q} kappa={kappa} m={m1}", cc.msg_scale, spec, kappa, m1)
        good, bad_x = (1, spec.s0), (q * q, spec.s0)
        bad_y = (1, next(y for y in range(q * q) if y not in spec.s))
        for f, args in ((cc.msg_add, (bad_x, good)), (cc.msg_add, (good, bad_y)),
                        (cc.msg_scale, (1, bad_x)), (cc.msg_scale, (1, bad_y)),
                        (cc.msg_scale, (q, good)), (cc.msg_scale, (q, bad_x))):
            out(f"{f.__name__} q={q} args={args}", f, spec, *args)
    for q in SUPPORTED_QS:
        out(f"gram_inv q={q}", lambda: cc.construct_code(q).gram_inv)


def emit_generators(cc, dec, out):
    for q in PRIME_POWERS:
        spec = cc.construct_code(q)
        G = cc.generator_matrix(spec)
        out(f"generator q={q}", getattr, G, "rows", G)  # older checkouts: a MatrixFq
        out(f"is_mds q={q}", cc.is_mds, spec)


def emit_counts(cc, dec, out):
    norm_circle_q7 = cc.construct_code(7)
    specs = [(f"q={q}", cc.construct_code(q))
             for q in SUPPORTED_QS if q <= 64 or q in (128, 256)]
    specs += [(f"q={q} unit_trace", cc.construct_code(q, s_strategy="unit_trace"))
              for q in (3, 5, 7, 9, 11, 13)]
    specs += [("reference", cc.reference_instance()),
              ("q=16 lunelli-sce", explicit_arc_spec(cc, 16, LUNELLI_SCE_Q16)),
              ("q=7 first-5", cc.CodeSpec(norm_circle_q7.tower, norm_circle_q7.lam[:5],
                                          norm_circle_q7.s))]
    for name, spec in specs:
        out(f"weights {name}", cc.weight_distribution, spec, "enumerate")
        out(f"min_distance {name}", cc.min_distance, spec)
        out(f"common_zero_set {name}", lambda s: sorted(cc.common_zero_set(s)), spec)


def tower_digest(F):
    """gq, gq2 and a SHA-256 digest of each GF(q) table (add, neg, mul, inv)."""
    digests = [hashlib.sha256(repr(table).encode()).hexdigest()
               for table in (F.q_add_table, F.q_neg_table, F.q_mul_table, F.q_inv_table)]
    return repr((F.gq, F.gq2, digests))


def emit_towers(cc, dec, out):
    from hermitian_mds.fields import tower_for_q

    for q in SUPPORTED_QS:
        out(f"tower q={q}", lambda: tower_digest(tower_for_q(q)))


SUPPLIED_MODULI = ((2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (3, 4),
                   (5, 2), (5, 3), (7, 2), (11, 2), (13, 2))
MALFORMED_MODULI = (
    (2, 2, [1, 1]),        # wrong degree
    (2, 2, [1, 1, 0]),     # not monic
    (3, 2, [3, 0, 1]),     # coefficient outside GF(3)
    (2, 2, [1, -1, 1]),    # negative coefficient
    (5, 1, [1, 1]),        # gq given when h = 1
    (4, 2, [1, 1, 1]),     # p not prime
)


def emit_supplied_moduli(cc, dec, out):
    from hermitian_mds.fields import FieldTower

    def build(p, h, gq):
        return tower_digest(FieldTower(p, h, gq=gq))

    for p, h in SUPPLIED_MODULI:
        for low in range(p ** h):
            gq = [low // p ** i % p for i in range(h)] + [1]
            out(f"modulus p={p} h={h} gq={gq}", build, p, h, gq)
    for p, h, gq in MALFORMED_MODULI:
        out(f"modulus p={p} h={h} gq={gq}", build, p, h, gq)


def emit_simulations(cc, dec, out):
    from hermitian_mds.cli import run_simulation

    # the report's counts do not show which messages were drawn, so the
    # encoded messages are recorded too
    sent = []
    encode = cc.encode

    def recording(spec, m):
        sent.append(m)
        return encode(spec, m)

    def simulate(spec, errors, seed):
        sent.clear()
        return run_simulation(spec, errors, 40, seed=seed), sent

    cc.encode = recording
    try:
        for q in (4, 5, 7, 8):
            spec = cc.construct_code(q)
            t = (spec.N - 3) // 2
            for errors in (t, t + 1, t + 2):
                out(f"simulate q={q} errors={errors}", simulate, spec, errors, q)
    finally:
        cc.encode = encode


WEIGHTS_QS = tuple(q for q in SUPPORTED_QS if q <= 49)
# the irregular hyperoval of PG(2,16), the first 18-arc in integer order
LUNELLI_SCE_Q16 = (0, 1, 16, 17, 36, 37, 58, 60, 82, 83, 132, 138, 178, 183, 195, 199, 229, 236)
# the norm-2 circles at q = 7 and 16: the unit circle scaled, so explicit
# lists whose files are the unit circle's code with its coordinates reordered
NORM_2_CIRCLES = {
    7: (3, 4, 8, 13, 21, 28, 43, 48),
    16: (5, 44, 46, 67, 71, 99, 101, 121, 126, 144, 153, 166, 172, 230, 232, 247, 248),
}

CLI_FILES = [["construct", "--paper-example", "--out", "ref.code"]] + [
    ["construct", "--q", str(q), "--out", f"q{q}.code"] for q in WEIGHTS_QS] + [
    ["construct", "--q", "16", "--lambda", ",".join(map(str, LUNELLI_SCE_Q16)),
     "--out", "q16-lunelli-sce.code"],
    ["construct", "--q", "7", "--lambda", ",".join(map(str, NORM_2_CIRCLES[7])),
     "--out", "q7-norm2.code"]]

CLI_CASES = (
    [["construct", "--q", str(q)] for q in range(2, 17)]  # 6, 10, 12, 14, 15: exit 1
    + [["construct", "--q", str(q)] for q in SUPPORTED_QS if q > 16]
    + [["construct", "--q", "4", "--lambda", "0,1,4,6,9,10"],
       ["construct", "--q", "16", "--lambda", ",".join(map(str, LUNELLI_SCE_Q16))]]
    + [["construct", "--q", str(q), "--lambda", ",".join(map(str, circle))]
       for q, circle in NORM_2_CIRCLES.items()]
    + [["construct", "--q", "5", "--lambda", "0,1,2"]]  # not an arc: exit 1
    + [
        ["construct", "--paper-example"],
        ["encode", "--code", "ref.code", "--message", "7,2"],
        ["encode", "--code", "q8.code", "--message", "100,3"],
        ["encode", "--code", "ref.code", "--message", "7,9"],
    ]
    + [
        ["decode", "--code", path, "--word", word, "--method", method]
        for method in ("geometric", "ml")
        for path, word in (
            ("ref.code", "3,0,3,1,4,4"),        # one error, corrected
            ("ref.code", "0,1,2,3,4,0"),        # geometric FAIL
            ("q7.code", "1,0,0,0,0,0,0,2"),     # two errors, corrected
            ("q7.code", "0,1,2,3,4,5,6,0"),     # geometric FAIL
            ("q2.code", "0,1,1,0"),             # the arc covers GF(4)
        )
    ]
    + [["weights", "--code", "ref.code"]]
    + [["weights", "--code", f"q{q}.code"] for q in WEIGHTS_QS]
    + [["verify", "--code", f"{name}.code"]
       for name in ("ref", "q4", "q7", "q8", "q9", "q11", "q13", "q16",
                    "q16-lunelli-sce", "q7-norm2")]
    + [
        ["simulate", "--code", "ref.code", "--errors", "1", "--trials", "30", "--seed", "3"],
        ["simulate", "--code", "ref.code", "--errors", "2", "--trials", "30", "--seed", "3"],
        ["simulate", "--code", "q7.code", "--errors", "3", "--trials", "30", "--seed", "1"],
        ["simulate", "--code", "q8.code", "--errors", "4", "--trials", "30", "--seed", "2"],
    ]
)


def cli_decode_cases(cc):
    """decode by both methods: the q=5 ML tie, 10 seeded words each at
    q = 8, 13 and 16 (even i a codeword plus 0..t errors, odd i plus t+1 or
    t+2; seeds "cli-decode:<q>:<i>") and a word of the wrong length."""
    words = [("q5.code", "1,2,3,4,0,1")]
    for q in (8, 13, 16):
        spec = cc.construct_code(q)
        t = (spec.N - 3) // 2
        for i in range(10):
            rng = random.Random(f"cli-decode:{q}:{i}")
            r = list(cc.encode(spec, (rng.randrange(q * q), spec.s[rng.randrange(q)])))
            errors = rng.randrange(t + 1) if i % 2 == 0 else t + 1 + rng.randrange(2)
            for pos in rng.sample(range(spec.N), errors):
                r[pos] = spec.tower.q_add(r[pos], rng.randrange(1, q))
            words.append((f"q{q}.code", ",".join(map(str, r))))
    words.append(("ref.code", "1,1,1"))
    return [["decode", "--code", path, "--word", word, "--method", method]
            for method in ("geometric", "ml") for path, word in words]


def emit_cli(cc, dec, out):
    from hermitian_mds.cli import main

    def run(argv):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        return code, stdout.getvalue(), stderr.getvalue()

    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)  # instance files are named relative to it
        try:
            for argv in CLI_FILES + CLI_CASES + cli_decode_cases(cc):
                out("cli " + " ".join(argv), run, argv)
        finally:
            os.chdir(cwd)


def emit(expected_src):
    import hermitian_mds
    from hermitian_mds import code as cc
    from hermitian_mds import decoder as dec

    here = os.path.realpath(os.path.dirname(hermitian_mds.__file__))
    if os.path.dirname(here) != os.path.realpath(expected_src):
        print(f"imported hermitian_mds from {here}, not {expected_src}", file=sys.stderr)
        return 2

    def out(case, f, *args):
        """Print case<TAB>f(*args): a str as it is, any other value by its
        repr; if it raises, the exception's type and text."""
        try:
            result = f(*args)
        except Exception as exc:
            result = repr((type(exc).__name__, str(exc)))
        print(f"{case}\t{result if isinstance(result, str) else repr(result)}")

    for part in (emit_decoder, emit_planes, emit_plane_sections, emit_encodes,
                 emit_message_algebra, emit_generators, emit_counts, emit_towers,
                 emit_supplied_moduli, emit_simulations, emit_cli):
        part(cc, dec, out)
    return 0


def run_children(dirs):
    with contextlib.ExitStack() as stack:
        runs = []
        for d in dirs:
            src = os.path.join(d, "src")
            fh = stack.enter_context(tempfile.TemporaryFile(mode="w+", encoding="utf-8"))
            proc = stack.enter_context(subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), "--emit", src],
                stdout=fh, env=dict(os.environ, PYTHONPATH=src), cwd=d))
            runs.append((d, fh, proc))
        outputs = []
        for d, fh, proc in runs:
            if proc.wait() != 0:
                print(f"child for {d} exited {proc.returncode}", file=sys.stderr)
                return None
            fh.seek(0)
            outputs.append(fh.read().splitlines())
        return outputs


def compare(old, new):
    mismatches = [(a, b) for a, b in itertools.zip_longest(old, new, fillvalue="<missing>")
                  if a != b]
    for a, b in mismatches[:MAX_SHOWN]:
        print(f"- {a}\n+ {b}")
    # a decoder change may turn FAIL into a codeword on purpose; count those
    # apart so that they are not mistaken for changed codewords
    recovered = sum(1 for a, b in mismatches
                    if a.endswith("\tFAIL") and b.split("\t")[0] == a.split("\t")[0])
    print(f"{max(len(old), len(new))} cases, {len(mismatches)} mismatched"
          f" ({recovered} of them FAIL on the first checkout only)")
    return 1 if mismatches else 0


def main(argv):
    if len(argv) == 2 and argv[0] == "--emit":
        return emit(argv[1])
    if len(argv) not in (1, 2) or argv[0].startswith("-"):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    change = argv[1] if len(argv) == 2 else os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    dirs = [os.path.abspath(argv[0]), os.path.abspath(change)]
    outputs = run_children(dirs)
    if outputs is None:
        return 2
    return compare(*outputs)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

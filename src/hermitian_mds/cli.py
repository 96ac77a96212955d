"""Command-line surface.

Subcommands: construct (build an instance file), encode, decode, weights,
verify (re-check every quantitative claim about an instance), simulate
(seeded random-error trials).  Exit codes: 0 success / all claims verified,
1 usage or input error, 2 verification failure, 3 decode failure.

Identical invocations produce byte-identical output.  Simulation trials
draw from Python's Mersenne Twister, reseeded per trial with the string
"<seed>:<trial-index>", so reports are reproducible and trials are
independent of execution order.

The argument parser is built once per process (``build_parser`` is
cached).  Its six-subparser tree takes about 0.3 ms to build, a third of
an in-process ``construct --q 49``, and in-process callers such as tests
and benchmarks call ``main`` many times.  Reuse carries no state from one
call to the next: every ``parse_args`` fills a fresh Namespace from the
parser's defaults.
"""

import argparse
import functools
import random
import sys
from dataclasses import dataclass

from . import code as cc
from . import decoder as dec
from .geometry import arc_condition_holds
from .linalg import rank, rref


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract reserves 2 for
    # verification failures, so remap to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")

    # argparse takes "-1" for a value but "-1,4" for an unknown option; no
    # option starts with a digit, so both are values (an arc, a word, a message)
    def _parse_optional(self, arg_string):
        if arg_string[:1] == "-" and arg_string[1:2].isdigit():
            return None
        return super()._parse_optional(arg_string)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="hermitian-mds",
                description="MDS codes from Hermitian forms over GF(q^2)")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    c = sub.add_parser("construct", help="build an instance and write its file")
    c.add_argument("--q", type=int, default=None, help="field size (prime power)")
    c.add_argument("--paper-example", action="store_true",
                   help="use the worked q=5 example instance (modulus X^2-X+2)")
    c.add_argument("--lambda", dest="lam", default=None, metavar="ARC",
                   help="arc strategy (norm_circle: the unit circle; hyperoval: "
                        "it plus 0, even q) or an explicit comma-separated "
                        "element list, e.g. another norm circle")
    c.add_argument("--s", default=None, metavar="TRANSVERSAL",
                   help="transversal strategy: subfield or unit-trace")
    c.add_argument("--out", default=None, help="output path (default: stdout)")
    c.set_defaults(func=cmd_construct)

    e = sub.add_parser("encode", help="encode a message")
    e.add_argument("--code", required=True, help="instance file")
    e.add_argument("--message", required=True, help="message as x,y")
    e.set_defaults(func=cmd_encode)

    d = sub.add_parser("decode", help="decode a received word")
    d.add_argument("--code", required=True)
    d.add_argument("--word", required=True, help="received word, comma-separated")
    d.add_argument("--method", choices=("geometric", "ml"), default="geometric")
    d.set_defaults(func=cmd_decode)

    w = sub.add_parser("weights", help="print the weight distribution")
    w.add_argument("--code", required=True)
    w.set_defaults(func=cmd_weights)

    v = sub.add_parser("verify", help="re-check all instance claims")
    v.add_argument("--code", required=True)
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("simulate", help="seeded random-error decoding trials")
    s.add_argument("--code", required=True)
    s.add_argument("--errors", type=int, default=1, help="injected error weight")
    s.add_argument("--trials", type=int, default=1000)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=cmd_simulate)
    return p


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None


def _load_spec(path: str) -> cc.CodeSpec:
    return cc.from_text(_read_text(path))


def _parse_ints(text: str, what: str):
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise ValueError(f"{what} must be comma-separated integers") from None


def cmd_construct(args) -> int:
    if args.paper_example:
        if args.q not in (None, 5):
            raise ValueError("the worked example instance has q=5")
        if (args.lam, args.s) != (None, None):
            raise ValueError("--paper-example takes no --lambda or --s")
        spec = cc.reference_instance()
    else:
        if args.q is None:
            raise ValueError("--q is required without --paper-example")
        arc = args.lam
        if arc is not None:
            try:
                arc = _parse_ints(arc, "--lambda")
            except ValueError:  # not an integer list, so a strategy name
                arc = arc.replace("-", "_")
        s_strategy = args.s.replace("-", "_") if args.s is not None else None
        spec = cc.construct_code(args.q, arc, s_strategy)
    text = cc.to_text(spec)
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {args.out}: {exc}") from None
    else:
        print(text, end="")
    return 0


def cmd_encode(args) -> int:
    spec = _load_spec(args.code)
    parts = _parse_ints(args.message, "--message")
    if len(parts) != 2:
        raise ValueError("--message must be x,y")
    word = cc.encode(spec, tuple(parts))
    print(",".join(str(c) for c in word))
    return 0


def cmd_decode(args) -> int:
    spec = _load_spec(args.code)
    r = tuple(_parse_ints(args.word, "--word"))
    if args.method == "ml":
        word, tie = dec.ml_decode(spec, r)
    else:
        res = dec.geometric_decode(spec, r)
        if res is None:
            print("FAIL")
            return 3
        word = res.codeword
    message = cc.plane_to_message(spec, cc.codeword_to_plane(spec, word))
    print("codeword=" + ",".join(str(c) for c in word))
    print("message=" + ",".join(str(c) for c in message))
    print("corrected=" + ",".join(str(i) for i, c in enumerate(word) if c != r[i]))
    if args.method == "ml":
        print("tie=" + ("yes" if tie else "no"))
    return 0


def cmd_weights(args) -> int:
    spec = _load_spec(args.code)
    N = spec.N
    we = cc.weight_distribution(spec, "enumerate")
    wf = cc.weight_distribution(spec, "formula")
    print("i enumerate formula")
    for i in range(N + 1):
        print(f"{i} {we[i]} {wf[i]}")
    a_nm2, a_nm1, a_n = cc.expanded_closed_forms(spec)
    print(f"closed-form A_{N - 2}={a_nm2} enumeration={we[N - 2]}")
    print(f"closed-form A_{N - 1}={a_nm1} enumeration={we[N - 1]}")
    tail = "" if a_n == we[N] else f" INFO: expanded form exceeds enumeration by {a_n - we[N]}"
    print(f"closed-form A_{N}={a_n} enumeration={we[N]}{tail}")
    return 0


def cmd_verify(args) -> int:
    fields = cc.parse_text(_read_text(args.code))
    rows = []

    def claim(name, ok, detail):
        rows.append((name, "PASS" if ok else "FAIL", detail))

    spec = None
    try:
        spec = cc.spec_from_fields(fields)
    except ValueError as exc:
        claim("instance-valid", False, str(exc))

    if spec is not None:
        F = spec.tower
        q, N = F.q, spec.N
        claim("arc-condition", arc_condition_holds(F, spec.lam),
              f"{N} elements, all triples pass")
        claim("transversal-bijective",
              sorted(F.trace(y) for y in spec.s) == list(range(q)),
              "trace restricted to S covers GF(q)")
        we = cc.weight_distribution(spec, "enumerate")
        # plane_to_codeword is GF(q)-linear and messages map onto planes one
        # to one (gram is invertible, S a transversal), so the q^3 codewords
        # are distinct exactly when only the zero plane has an all-zero section
        claim("codeword-count", we[0] == 1, f"{sum(we.values())} = q^3")
        claim("literal-form", cc.literal_form_holds(spec),
              "every symbol is the five-term Hermitian form")
        d = cc.min_distance(spec)
        G = cc.generator_matrix(spec)
        claim("parameters", rank(F, G) == 3 and d == N - 2, f"[{N},3,{d}]")
        claim("mds-minors", cc.is_mds(spec), "all 3-column minors nonsingular")
        claim("singleton-equality", d == N - 3 + 1, "d = N-k+1 with k=3")
        pair_counts = {
            cc.pairwise_intersection_count(spec, a, b)
            for i, a in enumerate(spec.lam) for b in spec.lam[i + 1:]
        }
        claim("pairwise-intersections", pair_counts == {q},
              f"{N * (N - 1) // 2} pairs, each {q} common zeros")
        claim("common-zero-set", cc.common_zero_set(spec) == {(0, spec.s0)},
              "only the zero message kills every form")
        wf = cc.weight_distribution(spec, "formula")
        claim("weights-methods-agree", we == wf, "enumeration = sum formula")
        a_nm2, a_nm1, a_n = cc.expanded_closed_forms(spec)
        claim("weights-closed-forms",
              a_nm2 == we[N - 2] and a_nm1 == we[N - 1],
              f"A_{N - 2}={a_nm2}, A_{N - 1}={a_nm1}")
        rows.append(("weights-a_n-expanded", "INFO",
                     f"expanded form {a_n} vs enumeration {we[N]}"))
        if spec == cc.reference_instance():
            claim("reference-row-space", G == rref(F, cc.REFERENCE_Q5_G_ROWS)[0],
                  "generator row space matches the known q=5 matrix")
            claim("reference-weights",
                  {i: we[i] for i in (4, 5, 6)} == cc.REFERENCE_Q5_WEIGHTS,
                  "A_4=60, A_5=24, A_6=40")

    failed = any(status == "FAIL" for _, status, _ in rows)
    for name, status, detail in rows:
        print(f"{name:<24} {status:<4} {detail}")
    print(f"{'verdict':<24} {'FAIL' if failed else 'PASS'}")
    return 2 if failed else 0


@dataclass(frozen=True)
class SimulationReport:
    trials: int
    error_weight: int
    successes: int
    failures: int
    miscorrections: int
    seed: int


def run_simulation(spec: cc.CodeSpec, errors: int, trials: int, seed: int) -> SimulationReport:
    """Random (message, error pattern) trials with exact injected weight.

    Trial i draws from random.Random(f"{seed}:{i}"): a uniform message,
    `errors` distinct positions, and a nonzero symbol offset per position.
    """
    F = spec.tower
    N = spec.N
    if not 0 <= errors <= N:
        raise ValueError(f"error weight must be in 0..{N}")
    if trials < 1:
        raise ValueError("need at least one trial")
    q = F.q
    successes = failures = miscorrections = 0
    for i in range(trials):
        rng = random.Random(f"{seed}:{i}")
        k = rng.randrange(q ** 3)  # index into iter_messages order
        m = (k // q, spec.s[k % q])
        w = cc.encode(spec, m)
        r = list(w)
        for pos in rng.sample(range(N), errors):
            r[pos] = F.q_add(r[pos], rng.randrange(1, F.q))
        res = dec.geometric_decode(spec, tuple(r))
        if res is None:
            failures += 1
        elif res.codeword == w:
            successes += 1
        else:
            miscorrections += 1
    return SimulationReport(trials, errors, successes, failures, miscorrections, seed)


def cmd_simulate(args) -> int:
    spec = _load_spec(args.code)
    report = run_simulation(spec, args.errors, args.trials, args.seed)
    print(f"trials={report.trials}")
    print(f"error_weight={report.error_weight}")
    print(f"successes={report.successes}")
    print(f"failures={report.failures}")
    print(f"miscorrections={report.miscorrections}")
    print(f"seed={report.seed}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""The three workloads: inputs made from the seed, the timed operation,
the oracle that checks each output, and the end-to-end metrics.

decode-within    q=13 (odd, prime field, norm-circle arc, N=14, t=5): a
                 seeded message plus an error of weight uniform in 0..t.
                 The decoder's main job; it runs every stage up to the
                 first center whose curve has a heavy linear factor.
decode-beyond    q=16 (even, GF(2^4) tower, greedy arc, N=18, t=7): each
                 word carries t+1 or t+2 errors, so nearly every decode
                 scans all centers and ends in FAIL.  Shifts time towards
                 projection and the collinearity filter, and its setup is
                 dominated by the greedy arc search.
construct-verify the CLI in process: construct q=49 and q=13 files, then
                 rounds of one `verify` at q=13 plus a batch of library
                 encodes at q=49.  The decoder does nothing here; code,
                 linalg and geometry are used for encoding, 3-column
                 minors and arc validation instead.

The program receives only the generated words and messages.  Expected
outputs come from the benchmark's own evaluation of the Hermitian form,
written with public FieldTower operations, never from the code under test.
"""

import contextlib
import io
import statistics
import time
from dataclasses import dataclass, field

from hermitian_mds import cli
from hermitian_mds import code as cc
from hermitian_mds import decoder as dec

from spans import percentile

clock = time.perf_counter


def literal_encode(F, lam, m):
    """Codeword of message (x, y): the Hermitian form
    X^{q+1} + Y^q Z + Y Z^q + lam^q X^q Z + lam X Z^q at (x, y, 1), one
    symbol per arc element lam."""
    x, y = m
    q = F.q
    head = F.add(F.add(F.pow(x, q + 1), F.pow(y, q)), y)
    xq = F.pow(x, q)
    return tuple(F.add(head, F.add(F.mul(F.pow(l, q), xq), F.mul(l, x))) for l in lam)


def run_cli(argv):
    """cli.main in process with stdout and stderr captured: (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


@dataclass(frozen=True)
class Raised:
    """An operation that raised instead of returning."""
    error: str


def attempt(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # a failed operation is counted, not fatal
        return Raised(f"{type(exc).__name__}: {exc}")


def closed_loop(op, cases, seconds, min_ops, rec=None, kind=None, first=0):
    """Run op on cases[first], cases[first + 1], ... (cycling), one at a
    time, until `seconds` have passed and at least min_ops ran:
    [(case index, output, s)], wall s."""
    results = []
    i = 0
    start = clock()
    while True:
        k = (first + i) % len(cases)
        t0 = clock()
        if rec is None:
            out = attempt(op, cases[k])
        else:
            with rec.operation(kind):
                out = attempt(op, cases[k])
        t1 = clock()
        results.append((k, out, t1 - t0))
        i += 1
        if t1 - start >= seconds and i >= min_ops:
            return results, t1 - start


def replay(op, cases, indices):
    start = clock()
    outs = [attempt(op, cases[k]) for k in indices]
    return outs, clock() - start


def random_message(rng, spec):
    F = spec.tower
    return rng.randrange(F.q2), spec.s[rng.randrange(F.q)]


@dataclass(frozen=True)
class DecodeCase:
    message: tuple
    codeword: tuple
    positions: tuple
    word: tuple


class DecodeWorkload:
    """Closed-loop geometric_decode calls on seeded words, then a few CLI
    `decode` commands on the first of them."""

    op_name = "decode"
    min_ops = 100  # p90 needs ten samples above it
    n_cases = 400
    counted_ops = 10

    segments = 15
    commands_per_segment = 1

    def __init__(self, name, q, arc_size, setups, extra_errors):
        self.name = name
        self.q = q
        self.arc_size = arc_size
        self.setups = setups
        self.extra_errors = extra_errors  # None: weight uniform in 0..t

    def setup(self, workdir):
        return cc.construct_code(self.q)

    def check_setup(self, outs):
        bad = sum(isinstance(o, Raised) or o.N != self.arc_size or o != outs[-1] for o in outs)
        return len(outs), bad

    def prepare(self, spec, workdir, rng):
        st = DecodeState(spec, workdir / f"q{self.q}.txt", self.extra_errors is not None)
        if isinstance(spec, Raised):
            return st
        st.path.write_text(cc.to_text(spec), encoding="utf-8")
        F, N, t = spec.tower, spec.N, st.t
        for _ in range(self.n_cases):
            m = random_message(rng, spec)
            c = literal_encode(F, spec.lam, m)
            if self.extra_errors is None:
                weight = rng.randint(0, t)
            else:
                weight = t + rng.choice(self.extra_errors)
            pos = tuple(sorted(rng.sample(range(N), weight)))
            r = list(c)
            for p in pos:
                r[p] = F.q_add(r[p], rng.randrange(1, F.q))
            st.cases.append(DecodeCase(m, c, pos, tuple(r)))
        return st

    def describe(self, st):
        if self.extra_errors is None:
            weights = f"error weight uniform in 0..{st.t}"
        else:
            weights = "error weight " + " or ".join(str(st.t + e) for e in self.extra_errors)
        return f"q={self.q} N={st.code_length} t={st.t}, {weights}"

    def warm_up(self, st):
        attempt(self.op, st, st.cases[0])

    def op(self, st, case):
        return dec.geometric_decode(st.spec, case.word)

    def check(self, st, case, out):
        """(operations checked, operations failed)."""
        want = st.expected(case)
        if isinstance(out, Raised):
            return 1, 1
        if want is None:
            return 1, int(out is not None)
        ok = (out is not None and out.codeword == want[0] and out.message == want[1]
              and tuple(out.corrected_positions) == want[2])
        return 1, int(not ok)

    def run_commands(self, st, first):
        """CLI decode commands on the cases from `first` on:
        [(case, (rc, stdout) | Raised, s)]."""
        runs = []
        for case in st.cases[first:first + self.commands_per_segment]:
            argv = ["decode", "--code", str(st.path), "--word", ",".join(map(str, case.word))]
            t0 = clock()
            out = attempt(run_cli, argv)
            runs.append((case, out, clock() - t0))
        return runs

    def check_command(self, st, case, out):
        want = st.expected(case)
        if want is None:
            expected = (3, "FAIL\n")
        else:
            expected = (0, "".join(f"{k}={','.join(map(str, v))}\n"
                                   for k, v in zip(("codeword", "message", "corrected"), want)))
        return 1, int(out != expected)

    def end_to_end(self, results, wall, command_runs):
        lat = [s for _, _, s in results]
        n = len(lat)
        cmd = [s for _, _, s in command_runs]
        return {
            "ops_per_s": (n / wall, f"= decode_per_s: {n} decodes in {wall:.3f} s, one closed-loop client"),
            "op_p50_ms": (1e3 * statistics.median(lat), f"= decode_p50_ms, n={n}"),
            "op_p90_ms": (1e3 * percentile(lat, 90), f"= decode_p90_ms, nearest rank, n={n}"),
            "command_s": (statistics.median(cmd), f"CLI decode command, median of {len(cmd)}"),
        }


class DecodeState:
    def __init__(self, spec, path, bounded_oracle):
        self.spec = spec
        self.path = path
        self.cases = []
        self.code_length = 0 if isinstance(spec, Raised) else spec.N
        self.t = (self.code_length - 3) // 2
        self.prepare_tally = (0, 0)
        self._bounded = bounded_oracle
        self._codebook = None
        self._expected = {}

    def expected(self, case):
        """(codeword, message, corrected positions), or None for FAIL.

        Within radius the transmitted codeword is the answer.  Beyond it,
        the bounded ML oracle: the codeword within t of the word if one
        exists (two codewords are N-2 > 2t apart, so it is unique), else
        FAIL.
        """
        if not self._bounded:
            return case.codeword, case.message, case.positions
        if case not in self._expected:
            self._expected[case] = self._nearest_within_t(case.word)
        return self._expected[case]

    def _nearest_within_t(self, r):
        if self._codebook is None:
            F, lam = self.spec.tower, self.spec.lam
            self._codebook = [((x, y), literal_encode(F, lam, (x, y)))
                              for x in F.elements() for y in self.spec.s]
        for m, w in self._codebook:
            if sum(a != b for a, b in zip(w, r)) <= self.t:
                return w, m, tuple(i for i, (a, b) in enumerate(zip(w, r)) if a != b)
        return None


class ConstructVerifyWorkload:
    """CLI construct as setup; each timed round is one `verify` at q=13 and
    a batch of library encodes at q=49."""

    name = "construct-verify"
    op_name = "round"
    min_ops = 3  # verify_s is a median of at least three commands
    n_cases = 12
    segments = setups = 3
    batch = 1000
    counted_ops = 1

    def setup(self, workdir):
        return [attempt(run_cli, ["construct", "--q", str(q), "--out", str(workdir / f"q{q}.txt")])
                for q in (49, 13)]

    def check_setup(self, outs):
        runs = [r for out in outs for r in out]
        return len(runs), sum(isinstance(r, Raised) or r[0] != 0 for r in runs)

    def prepare(self, setup_out, workdir, rng):
        """Load both constructed files and check that each round-trips
        through from_text/to_text; make the encode batches."""
        st = ConstructVerifyState(workdir / "q49.txt", workdir / "q13.txt")
        failed = 0
        specs = []
        for path in (st.p49, st.p13):
            text = path.read_text(encoding="utf-8") if path.exists() else ""
            spec = attempt(cc.from_text, text)
            if isinstance(spec, Raised) or cc.to_text(spec) != text:
                failed += 1
                spec = None
            specs.append(spec)
        st.prepare_tally = (2, failed)
        st.spec49 = specs[0]
        if st.spec49 is not None:
            st.cases = [[random_message(rng, st.spec49) for _ in range(self.batch)]
                        for _ in range(self.n_cases)]
        return st

    def describe(self, st):
        n = st.spec49.N if st.spec49 else "?"
        return f"construct q=49 (N={n}) and q=13; round = verify q=13 + {self.batch} encodes at q=49"

    def warm_up(self, st):
        """Encodes only: a verify takes seconds, so it needs no warming."""
        for m in st.cases[0][:20]:
            attempt(cc.encode, st.spec49, m)

    def op(self, st, batch):
        t0 = clock()
        verify = run_cli(["verify", "--code", str(st.p13)])
        verify_s = clock() - t0
        words, lat = [], []
        b0 = clock()
        for m in batch:
            t = clock()
            words.append(cc.encode(st.spec49, m))
            lat.append(clock() - t)
        return RoundOut(verify, verify_s, words, lat, clock() - b0)

    def check(self, st, batch, out):
        if isinstance(out, Raised):
            return 1 + len(batch), 1 + len(batch)
        rc, text = out.verify
        lines = text.splitlines()
        failed = int(rc != 0 or not lines or lines[-1].split() != ["verdict", "PASS"])
        F, lam = st.spec49.tower, st.spec49.lam
        failed += sum(w != literal_encode(F, lam, m) for m, w in zip(batch, out.words))
        return 1 + len(batch), failed

    def run_commands(self, st, first):
        return []

    def end_to_end(self, results, wall, command_runs):
        rounds = [out for _, out, _ in results]
        lat = [s for r in rounds for s in r.lat]
        n = len(lat)
        enc_s = sum(r.batch_s for r in rounds)
        verify = [r.verify_s for r in rounds]
        return {
            "ops_per_s": (n / enc_s, f"= encode_per_s at q=49: {n} encodes in {enc_s:.3f} s"),
            "op_p50_ms": (1e3 * statistics.median(lat), f"encode latency, n={n}"),
            "op_p90_ms": (1e3 * percentile(lat, 90), f"encode latency, nearest rank, n={n}"),
            "command_s": (statistics.median(verify), f"= verify_s at q=13, median of {len(verify)}"),
        }


@dataclass(frozen=True)
class RoundOut:
    verify: tuple
    verify_s: float
    words: list
    lat: list
    batch_s: float


@dataclass
class ConstructVerifyState:
    p49: object
    p13: object
    spec49: object = None
    cases: list = field(default_factory=list)
    prepare_tally: tuple = (0, 0)
    code_length: int = 0


def workloads():
    return {
        "decode-within": DecodeWorkload("decode-within", 13, 14, setups=15, extra_errors=None),
        "decode-beyond": DecodeWorkload("decode-beyond", 16, 18, setups=3, extra_errors=(1, 2)),
        "construct-verify": ConstructVerifyWorkload(),
    }

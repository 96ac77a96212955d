"""Benchmark of the hermitian_mds library and CLI, standard library only.

    python3 perfbench/run.py --workload decode-within --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One process, one closed-loop client, no threads.  --trace 0 measures the
end-to-end metrics; --trace 1 installs span hooks around the library's
public functions from outside, replays the same operations untraced to
measure the tracing overhead, counts field-arithmetic calls in a third
pass, and reports per-layer metrics.  Every output is checked against an
oracle outside the timed region.  The last line of standard output is one
JSON object: correct, attempted, failed, metrics.  The exit code is
nonzero when any check fails.  `all` runs each workload in its own child
process, one after another, because peak resident memory is per process.
"""

import argparse
import gc
import gzip
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import layers
from spans import Hooks, Recorder, count_wrapper, self_times, span_wrapper, totals

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "command_s": "s",
    "peak_rss_mb": "MB",
}


def load_library():
    """Import hermitian_mds from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "hermitian_mds" / "__init__.py").is_file():
        sys.exit(f"perfbench: no library at {src / 'hermitian_mds'}")
    sys.path.insert(0, str(src))
    import hermitian_mds
    if Path(hermitian_mds.__file__).resolve().parent != (src / "hermitian_mds").resolve():
        sys.exit(f"perfbench: imported hermitian_mds from {hermitian_mds.__file__}")


def machine():
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform()}


class Tally:
    """Operations checked and failed, with a line per kind for the report."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.lines = []

    def add(self, what, checked, failed):
        if not checked:
            return
        self.attempted += checked
        self.failed += failed
        self.lines.append(f"check {what}: {failed} failed of {checked}")


def run_workload(w, seed, seconds, trace):
    """Set up, run the timed phase, check every output: (tally, metrics,
    trace summary or None, phase wall times)."""
    from workloads import Raised, attempt, closed_loop, replay

    rng = random.Random(f"{w.name}:{seed}")
    tally = Tally()
    phases = {}
    mark = time.perf_counter()

    def phase(name):
        nonlocal mark
        now = time.perf_counter()
        phases[name] = now - mark
        mark = now

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        workdir = Path(tmp)
        rec = Recorder()
        span_hooks = Hooks(layers.PACKAGE, layers.SPAN_TARGETS,
                           lambda target, fn: span_wrapper(rec, target, fn))

        setup_times, setup_outs = [], []

        def timed_setup():
            t0 = time.perf_counter()
            if trace:
                with span_hooks, rec.operation("setup"):
                    out = attempt(w.setup, workdir)
            else:
                out = attempt(w.setup, workdir)
            setup_times.append(time.perf_counter() - t0)
            setup_outs.append(out)

        timed_setup()
        st = w.prepare(setup_outs[0], workdir, rng)
        tally.add("instance files", *st.prepare_tally)
        if not st.cases:
            raise RuntimeError(f"setup failed: {setup_outs[0]}")
        print(f"instance {w.describe(st)}")
        w.warm_up(st)
        op = lambda case: w.op(st, case)  # noqa: E731
        gc.collect()
        phase("setup")

        if not trace:
            # The machine's speed drifts over seconds, so the run is cut into
            # segments of a share of the closed loop and a few CLI commands,
            # with the setups spread evenly between them: every metric then
            # samples the whole run.
            results, wall, command_runs = [], 0.0, []
            for s in range(w.segments):
                if s and s * w.setups // w.segments > (s - 1) * w.setups // w.segments:
                    timed_setup()
                res, dt = closed_loop(op, st.cases, seconds * (s + 1) / w.segments - wall,
                                      math.ceil(w.min_ops * (s + 1) / w.segments) - len(results),
                                      first=len(results))
                results += res
                wall += dt
                command_runs += w.run_commands(st, len(command_runs))
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            phase("timed")
            outputs = [(k, out) for k, out, _ in results]
        else:
            # half of the run traced, the other half replaying it untraced
            with span_hooks:
                results, traced_s = closed_loop(op, st.cases, seconds / 2, w.min_ops, rec, w.op_name)
            phase("traced")
            indices = [k for k, _, _ in results]
            replayed, untraced_s = replay(op, st.cases, indices)
            phase("untraced replay")
            counts = {}
            n_counted = min(w.counted_ops, len(indices))
            count_hooks = Hooks(layers.PACKAGE, layers.COUNT_TARGETS.values(),
                                lambda target, fn: count_wrapper(counts, target, fn))
            with count_hooks:
                counted, _ = replay(op, st.cases, indices[:n_counted])
            phase("counting")
            command_runs = []
            outputs = ([(k, out) for k, out, _ in results] + list(zip(indices, replayed))
                       + list(zip(indices, counted)))

        tally.add("setup", *w.check_setup(setup_outs))
        pairs = [w.check(st, st.cases[k], out) for k, out in outputs]
        tally.add(f"{w.op_name} outputs", sum(c for c, _ in pairs), sum(f for _, f in pairs))
        pairs = [w.check_command(st, case, out) for case, out, _ in command_runs]
        tally.add("CLI commands", sum(c for c, _ in pairs), sum(f for _, f in pairs))
        phase("checks")

        if not trace:
            metrics = {"setup_s": (statistics.median(setup_times),
                                   f"median of {len(setup_times)} setups")}
            metrics.update(w.end_to_end(results, wall, command_runs))
            metrics["peak_rss_mb"] = (peak_rss_mb, "ru_maxrss after the timed phases, before the checks")
            return tally, metrics, None, phases

        dur, own = self_times(rec)
        timed, n_ops = totals(rec, {w.op_name}, dur, own)
        setup, n_setups = totals(rec, {"setup"}, dur, own)
        in_build, _ = totals(rec, {"setup"}, dur, own, under="geometry.build_lambda")
        in_cli, _ = totals(rec, {w.op_name}, dur, own, under="cli.main")
        decodes = [out for _, out, _ in results] if w.op_name == "decode" else []
        returned = sum(1 for o in decodes if o is not None and not isinstance(o, Raised))
        metrics = layers.per_layer(
            timed=timed, n_ops=n_ops, setup=setup, n_setups=n_setups,
            arc_in_build_s=in_build.get("geometry.arc_condition_holds", (0, 0.0))[1],
            counts=counts, n_counted=n_counted,
            absent=span_hooks.absent() + count_hooks.absent(), code_length=st.code_length,
            decodes_returned=returned, decodes_failed=sum(1 for o in decodes if o is None),
            traced_s=traced_s, untraced_s=untraced_s)
        trace_file = write_trace(rec, w.name, seed, span_hooks.status | count_hooks.status,
                                 counts, n_counted)
        phase("trace file")
        return tally, metrics, (timed, in_cli, n_ops, trace_file), phases


def write_trace(rec, workload, seed, status, counts, n_counted):
    """All spans, written once the run is over, as gzipped JSON lines."""
    path = OUT_DIR / f"trace-{workload}-seed{seed}.jsonl.gz"
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        fh.write(json.dumps({"workload": workload, "seed": seed, "machine": machine(),
                             "hooks": status, "field_counts": counts,
                             "field_counts_ops": n_counted, "names": rec.names,
                             "op_kinds": rec.op_kinds,
                             "span_fields": ["name", "op", "parent", "start_s", "end_s"]}) + "\n")
        t0 = rec.start[0] if len(rec.start) else 0.0
        for i in range(len(rec.name)):
            fh.write(f"[{rec.name[i]},{rec.op[i]},{rec.parent[i]},"
                     f"{rec.start[i] - t0:.7f},{rec.end[i] - t0:.7f}]\n")
    return path


def report(w, seed, seconds, trace, tally, metrics, extra, phases):
    print(f"workload {w.name} seed={seed} seconds={seconds} trace={trace}")
    print("machine " + " ".join(f"{k}={v}" for k, v in machine().items()))
    print("phases " + " ".join(f"{k.replace(' ', '_')}={v:.2f}s" for k, v in phases.items()))
    for line in tally.lines:
        print(line)
    units = END_TO_END if not trace else layers.metric_units()
    for name, (value, note) in metrics.items():
        print(f"{name:<32} {value:>14.6g} {units[name]:<6} {note}")
    rate = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"{'fail_rate':<32} {rate:>14.6g} {'ratio':<6} "
          f"{tally.failed} failed of {tally.attempted} operations checked")
    if extra:
        timed, in_cli, n_ops, trace_file = extra
        print(f"spans per {w.op_name}, largest self time first "
              f"(all spans in {trace_file.relative_to(ROOT)}):")
        print_spans(timed, n_ops, 12)
        if in_cli:
            print(f"of which inside cli.main, per {w.op_name}:")
            print_spans(in_cli, n_ops, 6)


def print_spans(table, n_ops, limit):
    rows = sorted(table.items(), key=lambda kv: -kv[1][2])
    for name, (calls, incl, self_s) in rows[:limit]:
        print(f"  {name:<36} calls {calls / n_ops:>10.1f}  incl {1e3 * incl / n_ops:>9.3f} ms"
              f"  self {1e3 * self_s / n_ops:>9.3f} ms")


def result_line(tally, metrics, trace):
    units = END_TO_END if not trace else layers.metric_units()
    return json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit} for name, unit in units.items()},
    })


def run_all(args):
    """Each workload in its own child process, one after another."""
    import workloads
    failed = False
    for name in workloads.workloads():
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        failed |= subprocess.run(argv, check=False).returncode != 0
    return 1 if failed else 0


def main(argv=None):
    load_library()
    import workloads
    names = list(workloads.workloads())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=names + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    w = workloads.workloads()[args.workload]
    tally, metrics, extra, phases = run_workload(w, args.seed, args.seconds, args.trace)
    report(w, args.seed, args.seconds, args.trace, tally, metrics, extra, phases)
    print(result_line(tally, metrics, args.trace))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

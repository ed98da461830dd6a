"""Runs one workload for a fixed time in its own process.

Started by run.py, which fixes the thread environment first.  A round is
one set-up followed by the workload's operations, on the same inputs in
every round.  Rounds repeat until the round boundary nearest to `--seconds`
(at least MIN_ROUNDS of them).  The first round's outputs are checked; the
others must reproduce them bit for bit.  With `--trace 1` untraced and
traced rounds alternate: the traced ones give the per-layer metrics, the
untraced ones the overhead reference.  The last line of standard output is
the JSON result.

The time metrics are medians over the run's rounds (and set-ups).  Every
round does the same work, so they differ only by the host's speed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2
# set-up takes milliseconds on the 1D configs and there are few rounds, so
# after each untraced round extra set-ups run for SETUP_SHARE of that
# round's time, at least one and at most SETUP_MAX_EXTRA, spreading the
# set-up samples over the run.
SETUP_SHARE = 0.05
SETUP_MAX_EXTRA = 100


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def import_gradcap():
    """Import the library from this checkout's source tree only."""
    src = ROOT / "src"
    t0 = time.perf_counter()
    import gradcap
    elapsed = time.perf_counter() - t0
    origin = Path(gradcap.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"gradcap imported from {origin}, not from {src}")
    return elapsed


def peak_rss_mb():
    """High-water resident set of this process, in MiB."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Round:
    __slots__ = ("traced", "setup_s", "run_s", "attempted", "failed",
                 "items", "out", "fingerprint", "errors")


def run_round(workload, recorder=None):
    """One set-up and one pass over the workload's operations."""
    from gradcap.errors import GradcapError
    r = Round()
    r.traced = recorder is not None
    r.out = {}
    r.errors = []
    with recorder.round() if r.traced else nullcontext():
        t0 = time.perf_counter()
        r.items = workload.setup()
        t1 = time.perf_counter()
        ops = workload.ops(r.items, r.out)
        done = 0
        try:
            for _, op in ops:
                op()
                done += 1
        except GradcapError as exc:
            r.errors.append(f"{ops[done][0]}: {type(exc).__name__}: {exc}")
        t2 = time.perf_counter()
    r.setup_s, r.run_s = t1 - t0, t2 - t1
    r.attempted, r.failed = len(ops), len(ops) - done
    r.fingerprint = workload.fingerprint(r.out) if not r.failed else None
    return r


class Measurement:
    """The rounds of one run.  The first complete round keeps its outputs
    for the checks; later rounds must reproduce them bit for bit and are
    then dropped, so memory stays flat however many rounds run."""

    def __init__(self):
        self.rounds = []
        self.ref = None
        self.mismatches = []
        self.setup_samples = []
        self.peak_rss_mb = None

    def add(self, r):
        self.rounds.append(r)
        if not r.traced:
            self.setup_samples.append(r.setup_s)
        if r.failed:
            r.items = r.out = None
        elif self.ref is None:
            self.ref = r
        else:
            if r.fingerprint != self.ref.fingerprint:
                kind = "traced" if r.traced else "repeated"
                self.mismatches.append(
                    f"{kind} round {len(self.rounds) - 1} computed "
                    "different outputs")
            r.items = r.out = None

    def verify(self, workload):
        """Check the reference round."""
        if self.ref is None:
            return ["no round completed"]
        return self.mismatches + workload.check(self.ref.items, self.ref.out)


def extra_setups(workload, m, budget_s):
    """Time set-ups for `budget_s` into the set-up samples, at least one
    and at most SETUP_MAX_EXTRA."""
    spent = 0.0
    for _ in range(SETUP_MAX_EXTRA):
        t0 = time.perf_counter()
        workload.setup()
        elapsed = time.perf_counter() - t0
        m.setup_samples.append(elapsed)
        spent += elapsed
        if spent >= budget_s:
            return


def measure(workload, seconds, recorder=None):
    """Rounds until `seconds` have passed.  Traced runs alternate untraced
    and traced rounds, so the two can be compared bit for bit."""
    m = Measurement()
    start = time.perf_counter()
    while True:
        # a round stands for CLI commands in a fresh process: collect what
        # the previous round left in reference cycles (solve_hjb leaves its
        # problem in one) so that memory does not carry over between rounds
        gc.collect()
        n = len(m.rounds)
        r = run_round(workload, recorder if n % 2 else None)
        m.add(r)
        if n == 0:
            # a CLI command is one set-up and one pass in a fresh process.
            # Later rounds run on the heap earlier rounds left behind, and
            # whether that heap keeps a freed 16 MB Monte Carlo array
            # resident differs from seed to seed (mc_penalized: 112 or
            # 126 MB after three rounds), so the peak is read here
            m.peak_rss_mb = peak_rss_mb()
        if recorder is None:
            extra_setups(workload, m, SETUP_SHARE * (r.setup_s + r.run_s))
        n_traced = sum(r.traced for r in m.rounds)
        enough = len(m.rounds) >= MIN_ROUNDS and (
            recorder is None
            or (n_traced >= MIN_TRACED_ROUNDS and not len(m.rounds) % 2))
        # stop at the round boundary nearest to `seconds`
        elapsed = time.perf_counter() - start
        if enough and elapsed + 0.5 * elapsed / len(m.rounds) >= seconds:
            return m


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end_metrics(rounds, setup_samples, rss):
    plain = [r for r in rounds if not r.traced]
    return {
        "setup_s": metric(statistics.median(setup_samples), "s"),
        "run_s": metric(statistics.median(r.run_s for r in plain), "s"),
        "peak_rss_mb": metric(rss, "MB"),
    }


def per_layer_metrics(rounds, recorder):
    import spans
    traced = recorder.rounds
    plain = [r.setup_s + r.run_s for r in rounds if not r.traced]
    wall_traced = statistics.median(t["trace.round_s"] for t in traced)
    out = {}
    for name in spans.TIME_METRICS:
        out[name] = metric(statistics.median(t[name] for t in traced), "s")
    for name in spans.COUNT_METRICS:
        out[name] = metric(statistics.median_low(t[name] for t in traced),
                           "count")
    out["control.path_steps_per_s"] = metric(statistics.median(
        t["control.path_steps_per_s"] for t in traced), "1/s")
    out["trace.unattributed_s"] = metric(statistics.median(
        t["trace.unattributed_s"] for t in traced), "s")
    out["trace.overhead_pct"] = metric(
        100.0 * (wall_traced / statistics.median(plain) - 1.0), "%")
    return out


def main(argv=None):
    args = parse_args(argv)
    import_s = import_gradcap()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from "
                         f"{', '.join(workloads.WORKLOADS)}")
    csv_dir = OUT / f"csv-{args.workload}-{os.getpid()}"
    csv_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](
            ROOT / "configs", csv_dir, args.seed)
        recorder = None
        if args.trace:
            import spans
            recorder = spans.Recorder()
        m = measure(workload, args.seconds, recorder)
        rounds = m.rounds
        setup_samples = [] if args.trace else m.setup_samples
        rss = m.peak_rss_mb
        fails = m.verify(workload)
    finally:
        shutil.rmtree(csv_dir, ignore_errors=True)

    if args.trace:
        metrics = per_layer_metrics(rounds, recorder)
    else:
        metrics = end_to_end_metrics(rounds, setup_samples, rss)
    errors = [e for r in rounds for e in r.errors]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    meta = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "rounds": len(rounds),
        "traced_rounds": sum(r.traced for r in rounds),
        "gradcap_import_s": import_s,
        "setup_samples_s": setup_samples,
        "run_samples_s": [r.run_s for r in rounds if not r.traced],
        "check_failures": fails, "operation_errors": errors,
    }
    if recorder is not None:
        recorder.write(OUT / f"trace-{tag}.json", meta)

    print(f"# {args.workload} seed={args.seed} rounds={meta['rounds']} "
          f"(traced {meta['traced_rounds']}), gradcap import "
          f"{import_s:.3f} s")
    for e in errors:
        print(f"# failed operation: {e}")
    for f in fails:
        print(f"# check failed: {f}")
    for name, val in metrics.items():
        print(f"# {name} = {val['value']:.6g} {val['unit']}")
    result = {
        "correct": not fails,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the wh command on generated instances.

    python3 bench/run.py --workload pair-q --seed 1 --seconds 40 --trace 0

Writes the workload's instances, then repeats whole rounds until the
next round would end after --seconds: every instance goes through
`wh verify --claim all --json OUT`, `wh validate` and `wh hopf-check`,
each called as `weakhopf.cli.main(argv)` in this one process.  Every
output is checked (see verdicts.py).  On broken-gfp each round also
replays the verify reports in a child process under another
PYTHONHASHSEED and compares them byte for byte.

The last line of stdout is one JSON object: correct, attempted, failed,
and the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1).  See README.md for what each metric means.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

import spans
import verdicts
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
SRC = os.path.join(CHECKOUT, "src")
OUT_DIR = os.path.join(CHECKOUT, ".bench_out")

COMMANDS = ("verify", "validate", "hopf-check")
SETUP_REPEATS = 15
# the reference loop's time on an idle core of the 2-vCPU Xeon (Python
# 3.11.7) the benchmark was tuned on; calibrated times are in its seconds
REF_ITERATIONS = 8000
REF_SECONDS = 0.035
# the run itself and the determinism replay use fixed, different hash seeds
HASH_SEED, REPLAY_HASH_SEED = "1", "2"


def command_argv(cmd, target, report):
    if cmd == "verify":
        return ["verify", target, "--claim", "all", "--json", report]
    return [cmd, target]


def reference_loop(n=REF_ITERATIONS):
    """Seconds taken by a fixed mix of Fraction arithmetic and dict
    updates, the two things the engine spends its time on."""
    t0 = time.perf_counter()
    acc, table = Fraction(0), {}
    for i in range(1, n):
        acc += Fraction(i % 7, i % 5 + 1) * Fraction(1, i % 3 + 1)
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - t0


class Clock:
    """Times work against the reference loop run just before and after it.

    Where a core is shared with other tenants, as on the 2-vCPU KVM guest
    the benchmark was tuned on, its speed drifts by 20-40 % over tens of
    seconds.  A command's wall time divided by the mean of the two
    reference samples around it, times REF_SECONDS, is its time at
    reference speed; the drift cancels in the ratio.  Raw wall times are
    kept as well.
    """

    def __init__(self):
        self.last_ref = None

    def time(self, fn, *args):
        """(result, calibrated seconds, wall seconds) of fn(*args)."""
        gc.collect()
        before = self.last_ref if self.last_ref is not None else reference_loop()
        t0 = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - t0
        self.last_ref = reference_loop()
        return result, wall * 2 * REF_SECONDS / (before + self.last_ref), wall


def run_command(main, argv):
    """(exit code or 'raised <Error>', stdout) of one wh call."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            rc = main(argv)
    except Exception as exc:  # the program's own fault: counted as failed
        rc = f"raised {type(exc).__name__}: {exc}"
    return rc, out.getvalue()


def read_report(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


class Target:
    """One generated instance and where its files live."""

    def __init__(self, spec, workdir):
        self.spec = spec
        self.path = spec.builtin or os.path.join(workdir, f"{spec.name}.json")
        self.report = os.path.join(workdir, f"{spec.name}.report.json")
        self.expected = workloads.expected_dims(spec) if spec.valid else None

    def write(self):
        if not self.spec.builtin:
            with open(self.path, "w", encoding="utf-8") as fh:
                json.dump(workloads.to_doc(self.spec), fh, indent=1)

    def check(self, cmd, rc, stdout):
        """Problems with one command's output, or None when it raised."""
        if isinstance(rc, str):
            return None
        report = None
        try:
            if cmd == "verify":
                text = read_report(self.report)
                if text is None:
                    return ["no report written"]
                report = json.loads(text)
            if self.spec.valid:
                return verdicts.check_valid(cmd, rc, stdout, report, self.expected)
            return verdicts.check_broken(cmd, rc, stdout, report, self.spec.fault,
                                         self.spec.groupoid_ok)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"report not in the documented shape: {exc!r}"]


class Run:
    """Counts, timings and problems gathered over the rounds of one run."""

    def __init__(self, targets, log):
        self.targets = targets
        self.log = log
        self.clock = Clock()
        self.attempted = 0
        self.failed = 0
        self.problems = []
        # (mode, cmd) -> per target, per round: calibrated and wall seconds
        self.seconds = {}
        self.wall = {}
        self.reports = {}       # target name -> (outcome, report text)

    def do_pass(self, main, mode):
        """Every command on every target once; returns per-op failure."""
        failed = []
        for i, t in enumerate(self.targets):
            for cmd in COMMANDS:
                if cmd == "verify":
                    with contextlib.suppress(FileNotFoundError):
                        os.remove(t.report)
                (rc, stdout), cal, wall = self.clock.time(
                    run_command, main, command_argv(cmd, t.path, t.report))
                for store, value in ((self.seconds, cal), (self.wall, wall)):
                    store.setdefault((mode, cmd), [[] for _ in self.targets])[i].append(value)
                problems = t.check(cmd, rc, stdout)
                if cmd == "verify":
                    self.reports[t.spec.name] = (str(rc), read_report(t.report)
                                                 if problems is not None else None)
                if problems is None:
                    self.log(f"{t.spec.name} {cmd}: {rc}")
                elif problems:
                    self.problems += [f"{t.spec.name} {cmd}: {p}" for p in problems]
                failed.append(bool(problems) or problems is None)
        return failed

    def round(self, main, tracer=None):
        """One round: each op runs untraced, and traced too when tracing."""
        failed = self.do_pass(main, "plain")
        if tracer is not None:
            tracer.install()
            try:
                traced = self.do_pass(tracer.root(main), "traced")
            finally:
                tracer.uninstall()
            failed = [a or b for a, b in zip(failed, traced)]
        if any(not t.spec.valid for t in self.targets):
            failed.append(not self.deterministic())
        self.attempted += len(failed)
        self.failed += sum(failed)

    def deterministic(self):
        """Replays every verify in a child under another hash seed."""
        workdir = os.path.dirname(self.targets[0].report)
        plan = [[t.spec.name, t.path] for t in self.targets]
        plan_path = os.path.join(workdir, "replay-plan.json")
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump(plan, fh)
        env = dict(os.environ, PYTHONHASHSEED=REPLAY_HASH_SEED)
        child = subprocess.run([sys.executable, os.path.abspath(__file__),
                                "--replay", plan_path],
                               env=env, capture_output=True, text=True,
                               timeout=150, check=True)
        replayed = {name: tuple(v) for name, v in
                    json.loads(child.stdout.splitlines()[-1]).items()}
        differ = [n for n, v in self.reports.items() if replayed.get(n) != v]
        if differ:
            self.log(f"reports differ between hash seeds {HASH_SEED} and "
                     f"{REPLAY_HASH_SEED}: {', '.join(sorted(differ))}")
        return not differ

    def rounds(self):
        return len(self.seconds[("plain", "verify")][0])

    def total(self, mode, cmd, store=None):
        """Sum over targets of the per-target median over rounds."""
        store = self.seconds if store is None else store
        return sum(statistics.median(s) for s in store[(mode, cmd)])

    def pass_scale(self, mode, r):
        """Calibrated over wall seconds, for all ops of round r."""
        cal = sum(s[r] for (m, _), per in self.seconds.items() if m == mode for s in per)
        wall = sum(s[r] for (m, _), per in self.wall.items() if m == mode for s in per)
        return cal / wall


def replay(plan_path):
    """Child side of the determinism check: verify each target once."""
    from weakhopf.cli import main
    workdir = os.path.dirname(plan_path)
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    out = {}
    for name, path in plan:
        report = os.path.join(workdir, f"{name}.replay.json")
        rc, _ = run_command(main, command_argv("verify", path, report))
        out[name] = [str(rc), read_report(report) if isinstance(rc, int) else None]
    print(json.dumps(out))
    return 0


def setup(workload, seed, smoke, workdir):
    """Imports weakhopf afresh, then generates, writes and loads every
    instance once."""
    for name in [m for m in sys.modules if m.split(".")[0] == "weakhopf"]:
        del sys.modules[name]
    import weakhopf.cli
    from weakhopf.instances import builtin_instance, load_instance
    targets = [Target(s, workdir) for s in workloads.workload(workload, seed, smoke)]
    for t in targets:
        t.write()
        if t.spec.builtin:
            builtin_instance(t.spec.builtin)
        else:
            load_instance(t.path)
    return targets, weakhopf.cli.main


def end_to_end(run, setup_s):
    return {
        "verify_s": (run.total("plain", "verify"), "s"),
        "validate_s": (run.total("plain", "validate"), "s"),
        "hopf_check_s": (run.total("plain", "hopf-check"), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(run, tracer, passes):
    """Median over traced passes of each span's self time (calibrated
    with the pass's own reference samples) and self field ops."""
    times, counts = {}, {}
    unattributed = []
    for r, (first, last) in enumerate(passes):
        scale = run.pass_scale("traced", r)
        t, c = tracer.self_totals(first, last)
        for name in spans.SPAN_NAMES:
            times.setdefault(name, []).append(t.get(name, 0.0) * scale)
            counts.setdefault(name, []).append(c.get(name, 0))
        wall = sum(s[r] for per in (run.wall[("traced", cmd)] for cmd in COMMANDS)
                   for s in per)
        unattributed.append((wall - sum(t.values())) * scale)
    metrics = {}
    for name in spans.SPAN_NAMES:
        metrics[spans.time_metric(name)] = (statistics.median(times[name]), "s")
        metrics[f"{name}.field_ops"] = (statistics.median_low(counts[name]), "count")
    metrics["exactmath.field_ops"] = (
        statistics.median_low(sum(v[r] for v in counts.values())
                              for r in range(len(passes))), "count")
    metrics["trace.overhead"] = (
        run.total("traced", "verify") / run.total("plain", "verify"), "ratio")
    metrics["trace.unattributed_s"] = (statistics.median(unattributed), "s")
    return metrics


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny instances of the same workload")
    p.add_argument("--replay", metavar="PLAN", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.replay and not args.workload:
        p.error("--workload is required")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "weakhopf")):
        print(f"error: no weakhopf sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ["WH_COLOR"] = "0"
    if args.replay:
        return replay(args.replay)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)]
                  + sys.argv[1:], env)

    def log(msg):
        print(msg, file=sys.stderr, flush=True)

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        clock = Clock()
        setups = []
        for _ in range(1 if args.smoke else SETUP_REPEATS):
            (targets, wh_main), cal, _ = clock.time(
                setup, args.workload, args.seed, args.smoke, workdir)
            setups.append(cal)

        run = Run(targets, log)
        tracer = spans.Tracer() if args.trace else None
        passes = []
        start = time.perf_counter()
        while True:
            r0 = time.perf_counter()
            first = len(tracer.spans) if tracer else 0
            run.round(wh_main, tracer)
            if tracer:
                passes.append((first, len(tracer.spans)))
            now = time.perf_counter()
            if now - start + (now - r0) > args.seconds:
                break
        log(f"{args.workload} seed {args.seed}: {run.rounds()} round(s), "
            f"{run.failed}/{run.attempted} failed; wall seconds "
            + ", ".join(f"{cmd} {run.total('plain', cmd, run.wall):.3f}"
                        for cmd in COMMANDS))
        for p in run.problems:
            log(f"WRONG {p}")
        if tracer:
            metrics = per_layer(run, tracer, passes)
            trace_path = os.path.join(
                OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
            tracer.write(trace_path)
            log(f"spans written to {trace_path}")
        else:
            metrics = end_to_end(run, statistics.median(setups))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

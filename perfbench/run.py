"""Benchmark for crystpres: end-to-end and per-layer timings.

    python3 perfbench/run.py --workload present|walks|rings --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout.  A closed loop with one caller
runs the workload's fixed job list through the public entry points, one
job at a time: each job is an in-process crystpres.cli.main(argv) call
whose JSON output is captured and checked, except the regular-action
jobs, which call netgraph.regular_action_check directly.  Inputs are
generated from --seed (see workloads.py).

One pass runs the whole job list.  The number of passes is the run
length divided by the workload's nominal pass time, rounded, and at
least one, so the sample count (and with it the tail percentile) does
not depend on how fast the host is.  With --trace 1 passes alternate
untraced and traced (at least one of each), and the per-layer metrics
come from the traced passes.

Times are reported at a reference host speed.  The shared host's
speed drifts by up to 2x within seconds to minutes, so a fixed loop
that does not touch crystpres (host_kernel) runs before every job,
after the last, and every KERNEL_PERIOD_S during a job (from a timer
signal; its time is taken out of the job's).  A job's wall and CPU
times are multiplied by KERNEL_REF_S over the median of the loop's
times while it ran (see speed_factor), and each set-up time by the
loop's time in the fresh interpreter right after it.  Raw times are
kept in the run record.

The last line of stdout is one JSON object: correct, attempted, failed
and the metrics.  A run record with one row per job, the host's load
average and the trace spans is written under perfbench/out/.
"""

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

# one pass of each job list at reference speed
NOMINAL_PASS_S = {"present": 11.5, "walks": 12.5, "rings": 15.0}
SETUP_REPEATS = 9
TAIL_BEYOND = 10
# host_kernel() on an idle 2-core Xeon VM at 2.0 GHz, Python 3.11
KERNEL_REF_S = 0.010
# the kernel also runs every KERNEL_PERIOD_S while a job runs
KERNEL_PERIOD_S = 0.25
KERNEL_WINDOW_S = 1.0

E2E_UNITS = {
    "sweep_s": "s",
    "job_s.p50": "s",
    "job_s.tail": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=13.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program():
    """Import crystpres from this checkout's src/ and nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import crystpres.cli

    if not os.path.abspath(crystpres.cli.__file__).startswith(src + os.sep):
        raise ImportError(f"crystpres imported from {crystpres.cli.__file__}")
    return crystpres.cli


def prepare(args, workdir):
    """Import the program, write the seeded inputs and load the ones that
    bypass the command line: everything a fresh process needs before its
    first timed job."""
    cli = import_program()
    from workloads import Inputs

    inputs = Inputs(ROOT, args.workload, args.seed, workdir)
    inputs.write()
    os.environ["CRYSTPRES_CATALOG"] = inputs.catalog
    inputs.load()
    return cli, inputs


# ---------------------------------------------------------------------------
# host speed


_STEPS = ((Fraction(1, 2), 0, 0), (0, Fraction(1, 3), 0), (0, 0, 1),
          (Fraction(-1, 2), 0, 0), (0, Fraction(-1, 3), 0), (0, 0, -1))


def host_kernel(samples):
    """Time a fixed breadth-first walk over Fraction triples, the
    program's kind of work without its code, with the garbage collector
    off; append (midpoint, seconds) to samples."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        seen, frontier = set(), [(Fraction(0),) * 3]
        for _ in range(6):
            nxt = []
            for p in frontier:
                for s in _STEPS:
                    q = (p[0] + s[0], p[1] + s[1], p[2] + s[2])
                    if q not in seen:
                        seen.add(q)
                        nxt.append(q)
            frontier = nxt
        end = time.perf_counter()
        samples.append(((start + end) / 2, end - start))
    finally:
        if collecting:
            gc.enable()


class KernelTimer:
    """While entered, a SIGALRM interval timer runs host_kernel every
    KERNEL_PERIOD_S, so that a long job has samples from while it ran.
    `spent` adds up the time those samples took; run_job takes it out
    of the job's times."""

    def __init__(self, samples):
        self.samples = samples
        self.spent = 0.0

    def _tick(self, signum, frame):
        start = time.perf_counter()
        host_kernel(self.samples)
        self.spent += time.perf_counter() - start

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, KERNEL_PERIOD_S, KERNEL_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def speed_factor(samples, start, end):
    """KERNEL_REF_S over the median kernel time of the samples taken while
    the job ran or, for a job shorter than KERNEL_PERIOD_S, of those taken
    within KERNEL_WINDOW_S of it (which include the one just before and
    the one just after it)."""
    near = ([k for t, k in samples if start <= t <= end]
            or [k for t, k in samples
                if start - KERNEL_WINDOW_S <= t <= end + KERNEL_WINDOW_S])
    return KERNEL_REF_S / statistics.median(near)


# ---------------------------------------------------------------------------
# set-up


def setup_probe(args):
    workdir = tempfile.mkdtemp(prefix="probe-", dir=OUT)
    try:
        prepare(args, workdir)
        ready = time.monotonic()
        kernel = []
        for _ in range(3):
            host_kernel(kernel)
        print(json.dumps({"ready": ready,
                          "kernel": statistics.median(k for _, k in kernel)}),
              flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def measure_setup(args):
    """Times from spawning a fresh interpreter to its being ready for the
    first job, SETUP_REPEATS of them: (raw, at reference speed by the
    kernel run in that interpreter right after)."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise RuntimeError("setup probe failed:\n" + proc.stderr)
        probe = json.loads(proc.stdout.splitlines()[-1])
        raw.append(probe["ready"] - start)
        scaled.append(raw[-1] * KERNEL_REF_S / probe["kernel"])
    return raw, scaled


# ---------------------------------------------------------------------------
# the timed loop


def cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_job(cli, job, row, timer):
    """Fill row with exit code, output, wall and CPU seconds."""
    out = io.StringIO()
    spent = timer.spent
    cpu, start = cpu_seconds(), time.perf_counter()
    row["start"] = start
    try:
        if job.call is not None:
            row["rc"], row["out"] = 0, job.call()
        else:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                row["rc"] = cli.main(job.argv)
    finally:
        row["end"] = time.perf_counter()
        spent = timer.spent - spent
        row["wall_s"] = row["end"] - start - spent
        row["cpu_s"] = cpu_seconds() - cpu - spent
    if job.call is None:
        row["out"] = json.loads(out.getvalue())


def run_pass(cli, jobs, index, traced, tracer, timer):
    rows = []
    for job in jobs:
        if tracer is not None:
            tracer.job = f"{index}:{job.name}"
        row = {"pass": index, "traced": traced, "job": job.name}
        host_kernel(timer.samples)
        try:
            with timer:
                run_job(cli, job, row, timer)
        except (Exception, SystemExit):
            row["error"] = traceback.format_exc(limit=-3)
        rows.append(row)
    return rows


def check_rows(rows, jobs):
    """Check every row against its job's reference after the timed loop,
    so reference computations neither run nor allocate inside it."""
    by_name = {job.name: job for job in jobs}
    results = {}
    for row in rows:
        if "error" not in row:
            results.setdefault(row["pass"], {})[row["job"]] = row["out"]
    for row in rows:
        reason = row.get("error")
        if reason is None:
            try:
                reason = by_name[row["job"]].check(
                    row["rc"], row["out"], results[row["pass"]])
            except Exception:
                reason = "check raised:\n" + traceback.format_exc(limit=-2)
        row["ok"] = reason is None
        if reason is not None:
            row["reason"] = reason
            print(f"FAILED {row['job']} (pass {row['pass']}): {reason}",
                  file=sys.stderr)


# ---------------------------------------------------------------------------
# statistics


def percentile(samples, p):
    """Harrell-Davis estimate of the p-th percentile: a Beta-weighted
    mean of all order statistics.  The job mix has gaps between job
    types, and a single order statistic there jumps from one type to the
    next with noise; the weighted mean moves smoothly."""
    xs = sorted(samples)
    n = len(xs)
    a, b = p / 100 * (n + 1), (1 - p / 100) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = 64
    weights = []
    for i in range(n):
        # integral of the Beta(a, b) density over [i/n, (i+1)/n]
        weights.append(sum(
            math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x)
                     - log_beta)
            for x in ((i + (k + 0.5) / steps) / n for k in range(steps))))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def tail(samples):
    """(percentile, value): the highest multiple of 5 that leaves at
    least TAIL_BEYOND samples beyond it, 50 when none does."""
    n = len(samples)
    p = 50
    while p + 5 < 100 and n * (100 - (p + 5)) / 100 >= TAIL_BEYOND:
        p += 5
    return p, percentile(samples, p)


def per_pass(rows, key, traced=False):
    sums = {}
    for r in rows:
        if r["traced"] == traced:
            sums[r["pass"]] = sums.get(r["pass"], 0.0) + r[key]
    return list(sums.values())


# ---------------------------------------------------------------------------
# run record


def read_loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().strip()
    except OSError:
        return None


def git_commit():
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return None


def write_record(args, record, spans):
    stamp = time.strftime("%Y%m%dT%H%M%S")
    stem = os.path.join(
        OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}"
             f"-{os.getpid()}")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    if spans:
        with open(stem + "-spans.jsonl", "w") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------


def measure(args):
    load_before = read_loadavg()
    setup_raw, setup = measure_setup(args)
    workdir = tempfile.mkdtemp(prefix="inputs-", dir=OUT)
    tracer = None
    try:
        cli, inputs = prepare(args, workdir)
        jobs = inputs.jobs()
        passes = max(1, round(args.seconds / NOMINAL_PASS_S[args.workload]))
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            passes = max(2, passes)
        rows, kernel, traced_passes = [], [], []
        for index in range(passes):
            traced = bool(args.trace) and index % 2 == 1
            if traced:
                tracer.reset()
                tracer.install()
            try:
                rows += run_pass(cli, jobs, index, traced, tracer,
                                 KernelTimer(kernel))
            finally:
                if traced:
                    tracer.uninstall()
                    traced_passes.append((tracer.counts, tracer.spans))
        host_kernel(kernel)
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        check_rows(rows, jobs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    scale = {}
    for row in rows:
        f = speed_factor(kernel, row["start"], row["end"])
        row["speed_factor"] = f
        row["job_s"] = row["wall_s"] * f
        row["job_cpu_s"] = row["cpu_s"] * f
        scale[f"{row['pass']}:{row['job']}"] = f
    samples = [r["job_s"] for r in rows if not r["traced"]]
    tail_p, tail_s = tail(samples)
    sweeps = per_pass(rows, "job_s")
    e2e = {
        "sweep_s": statistics.median(sweeps),
        "job_s.p50": percentile(samples, 50),
        "job_s.tail": tail_s,
        "cpu_s": statistics.median(per_pass(rows, "job_cpu_s")),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup),
    }
    failed = sum(not r["ok"] for r in rows)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_before": load_before,
        "loadavg_after": read_loadavg(),
        "git_commit": git_commit(),
        "passes": passes,
        "samples": {"sweep_s": len(sweeps), "job_s": len(samples),
                    "cpu_s": len(sweeps), "setup_s": len(setup)},
        "tail_percentile": tail_p,
        "fail_ratio": failed / len(rows),
        "end_to_end": e2e,
        "raw": {"setup_s": setup_raw, "sweep_s": per_pass(rows, "wall_s"),
                "kernel_s": kernel},
        "jobs": [{k: v for k, v in r.items() if k != "out"} for r in rows],
    }
    metrics, units = e2e, E2E_UNITS
    spans = []
    if args.trace:
        from tracing import UNITS, layer_metrics

        runs = []
        for counts, pass_spans in traced_passes:
            runs.append(layer_metrics(counts, pass_spans, scale))
            spans += pass_spans
        metrics = {m: statistics.median(run[m] for run in runs)
                   for m in UNITS if m != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (
            statistics.median(per_pass(rows, "job_s", traced=True))
            - e2e["sweep_s"])
        record["per_layer"] = metrics
        units = UNITS
    write_record(args, record, spans)
    return {
        "correct": failed == 0,
        "attempted": len(rows),
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]}
                    for m, v in metrics.items()},
    }


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "crystpres", "cli.py")):
        print(f"error: no crystpres sources under {ROOT}/src; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    if args.setup_probe:
        return setup_probe(args)
    result = measure(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

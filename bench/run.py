"""Benchmark of the ``pdef`` command line, run in-process.

    python3 bench/run.py --workload search --seed 1 --seconds 25 --trace 0

Builds the workload's job list from the seed, measures set-up time in fresh
interpreters, runs one untimed warm-up round of the jobs, then whole timed
rounds until ``--seconds`` have passed and at least ``MIN_OPS`` commands
have run: one job at a time, each ``pdef`` command through
``pdeficiency.cli.main([..., "--json"])`` with its output captured and
checked against ``oracle``.

Every time reported is scaled to a machine on which ``reference_loop`` takes
``REF_MS``: multiplied by ``to_reference(ref)``, where ``ref`` is the median
reference-loop time of the jobs around an operation, or for a set-up time
the mean of the loops its interpreter ran just before and after it.
``machine.ref_ms`` in the traced run gives the run's median ``ref``, from
which the raw times can be recovered.

The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.  A
summary with the raw figures goes to standard error.
"""

import argparse
import contextlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

import tracer as tracing
import workloads
from machine import reference_loop

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 11
# reference_loop's time on the reference machine when nothing else runs
REF_MS = 3.0
# When this machine slows down, command times grow as about the 1.2th power
# of the reference loop's time (a least-squares fit of log command time on
# log reference time, over 20 runs per workload, gave 1.16 to 1.31), so a
# linear scale would leave part of the drift in.
REF_EXPONENT = 1.2
# jobs either side of an operation whose reference times scale it
WINDOW = 2
# job_ms.p90 (nearest rank) needs at least ten timed operations above it
MIN_OPS = 105
SETUP_CODE = """
import sys, time
from machine import reference_loop
before = reference_loop()
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import pdeficiency.cli
from pdeficiency.quotient import default_catalog
default_catalog()
elapsed = time.perf_counter() - start
print(elapsed, before, reference_loop())
"""


class OpFailed(Exception):
    pass


def to_reference(ref: float) -> float:
    """Factor that takes a time measured while the reference loop took
    ``ref`` seconds to the reference machine."""
    return (REF_MS / 1e3 / ref) ** REF_EXPONENT


def measure_setup() -> tuple:
    """Set-up seconds on the reference machine: the median over fresh
    interpreters, each scaled by the reference loops it ran just before and
    after; the first, untimed start compiles the sources.  Also returns the
    raw samples."""
    samples = []
    for i in range(SETUP_REPEATS + 1):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE, SRC], check=True, cwd=HERE,
                             capture_output=True, text=True, timeout=60).stdout
        if i:
            samples.append([float(x) for x in out.split()])
    scaled = [t * to_reference((a + b) / 2) for t, a, b in samples]
    return statistics.median(scaled), samples


class Runner:
    """Closed loop with one client: the next command starts when the last
    one has returned and its report has been checked.  A reference loop runs
    after every job."""

    def __init__(self, cli, tracer=None):
        self.cli = cli
        self.tracer = tracer
        self.latencies = []   # raw seconds per timed command
        self.op_job = []      # per timed command: its job's place in the run
        self.ref = [reference_loop()]  # ref[i] runs before job i, ref[i + 1] after
        self.attempted = 0
        self.failed = 0

    def execute(self, args) -> dict:
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.begin_op()
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = self.cli.main(args + ["--json"])
        except Exception as exc:  # a crash in the program is a failed operation
            code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if code != 0:
            self.failed += 1
            raise OpFailed(f"{args[0]} exited with {code}")
        self.latencies.append(elapsed)
        self.op_job.append(len(self.ref) - 1)
        return json.loads(buf.getvalue())

    def round(self, jobs) -> None:
        for job in jobs:
            before = self.attempted
            try:
                job.run(self.execute)
            except OpFailed as exc:
                # the job's remaining commands count as attempted and failed
                missing = job.ops - (self.attempted - before)
                self.attempted += missing
                self.failed += missing
                print(f"failed: {job.name}: {exc}", file=sys.stderr)
            self.ref.append(reference_loop())

    def reset(self) -> None:
        self.latencies.clear()
        self.op_job.clear()
        del self.ref[:-1]
        self.attempted = self.failed = 0

    def local_ref(self, job: int) -> float:
        return statistics.median(self.ref[max(0, job - WINDOW):job + WINDOW + 2])

    def scaled(self) -> list:
        """Command times in seconds on the reference machine."""
        return [t * to_reference(self.local_ref(j)) for t, j in zip(self.latencies, self.op_job)]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    if not os.path.isfile(os.path.join(SRC, "pdeficiency", "cli.py")):
        print(f"error: no pdeficiency sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from pdeficiency import cli

    rng = random.Random(f"{args.workload}:{args.seed}")
    jobs = workloads.WORKLOADS[args.workload](rng)
    setup_s, setup_samples = measure_setup()

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    runner = Runner(cli, tracer)
    rounds = []
    correct = True
    try:
        runner.round(jobs)  # warm-up: caches, lazy set-up, the oracle's answers
        runner.reset()
        deadline = time.perf_counter() + args.seconds
        while time.perf_counter() < deadline or runner.attempted < MIN_OPS:
            before = mark(tracer, runner)
            runner.round(jobs)
            rounds.append((before, mark(tracer, runner)))
    except workloads.CheckError as exc:
        print(f"wrong output: {exc}", file=sys.stderr)
        correct = False
    finally:
        if tracer is not None:
            tracer.uninstall()
    if not correct:
        return finish(runner, False, {})

    lat = runner.scaled()
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-{args.seed}-{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({"latency_s": runner.latencies, "op_job": runner.op_job, "ref_s": runner.ref,
                   "setup_s_ref_before_after": setup_samples}, fh)
    if args.trace:
        metrics = layer_metrics(tracer, runner, rounds)
        tracer.write(stem + ".trace.tsv")
    else:
        metrics = {
            "jobs_per_s": (len(lat) / sum(lat), "1/s"),
            "job_ms.p50": (percentile(lat, 50) * 1e3, "ms"),
            "job_ms.p90": (percentile(lat, 90) * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (setup_s, "s"),
        }
    raw = runner.latencies
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds of {len(jobs)} jobs, "
          f"{len(raw)} timed commands; raw {len(raw) / sum(raw):.3f} jobs/s, "
          f"p50 {percentile(raw, 50) * 1e3:.1f} ms, p90 {percentile(raw, 90) * 1e3:.1f} ms, "
          f"setup {statistics.median(t for t, _, _ in setup_samples):.4f} s; machine.ref_ms "
          f"{statistics.median(runner.ref) * 1e3:.3f}", file=sys.stderr)
    return finish(runner, correct, metrics)


def mark(tracer, runner) -> tuple:
    """Where a round starts or ends: spans, counters, timed commands, jobs."""
    counts = None if tracer is None else dict(tracer.counts, prime_s=tracer.prime_s,
                                                gc_s=tracer.gc_s)
    return (len(tracer.spans) if tracer else 0, counts, len(runner.latencies),
            len(runner.ref))


def layer_metrics(tracer, runner, rounds) -> dict:
    """Per-round values, median over the timed rounds, of every layer
    metric; times are scaled by the round's median reference time."""
    per_round = []
    for (first_span, before, first_op, first_job), (last_span, after, last_op, last_job) \
            in rounds:
        scale = to_reference(statistics.median(runner.ref[first_job - 1:last_job]))
        row = {k: after[k] - before[k] for k in before}
        row["prime_s"] *= scale
        row["gc_s"] *= scale
        selfs = tracer.self_seconds(first_span, last_span)
        op_s = sum(runner.latencies[first_op:last_op])
        row.update({f"{k}.self_ms": v * scale * 1e3 for k, v in selfs.items()})
        row["trace.gap_ms"] = (op_s - sum(selfs.values())) * scale * 1e3
        row["traced.jobs_per_s"] = (last_op - first_op) / (op_s * scale)
        per_round.append(row)
    med = {k: statistics.median(r[k] for r in per_round) for k in per_round[0]}
    metrics = {f"{layer}.self_ms": (med[f"{layer}.self_ms"], "ms")
               for layer in tracing.LAYERS}
    for name in tracing.COUNTERS:
        metrics[name] = (med[name], "count")
    kernels, assignments = med["quotient.kernels"], med["quotient.assignments"]
    metrics["quotient.kernel_yield"] = (1000 * kernels / assignments if assignments else 0.0,
                                        "per_1000")
    metrics["words.prime_ms"] = (med["prime_s"] * 1e3, "ms")
    metrics["runtime.gc_ms"] = (med["gc_s"] * 1e3, "ms")
    metrics["machine.ref_ms"] = (statistics.median(runner.ref) * 1e3, "ms")
    metrics["trace.gap_ms"] = (med["trace.gap_ms"], "ms")
    metrics["traced.jobs_per_s"] = (med["traced.jobs_per_s"], "1/s")
    return metrics


def finish(runner, correct, metrics) -> int:
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

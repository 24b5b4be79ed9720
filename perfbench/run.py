"""Run one ncaudit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper-audit --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout; it imports ncaudit from src/.
Inputs come from --seed alone.  The timed phase repeats whole rounds of the
workload's operations until --seconds have passed.  Every operation's
output is checked; a failed check counts the operation as failed.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  Lines before it give, for reference, the
median, p90 and sample count of every operation kind.

Outputs go to perfbench/out/: result-*.json, trace-*.jsonl (traced runs)
and a temporary directory for CLI stores that is removed when the run ends.
"""

import os
import sys

# Production PRF only, one thread: set before numpy or ncaudit is imported,
# and inherited by every child process.
os.environ.pop("NCAUDIT_TEST_PRF", None)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
CHILD_TIMEOUT_S = 120


class HostSpeed:
    """A fixed reference kernel, timed around and during every operation.

    The host's speed drifts by a third within seconds, alike for Python and
    numpy work.  The kernel runs before and after each operation and, from
    a timer signal, every SAMPLE_EVERY_S during it; the operation's time,
    less the time those samples took, is scaled by REF_NOMINAL_S over the
    mean kernel time: the time it would take when the kernel takes
    REF_NOMINAL_S, about its time on a quiet host."""

    REF_NOMINAL_S = 0.45e-3
    SAMPLE_EVERY_S = 0.5

    def __init__(self):
        rng = np.random.default_rng(0)
        self._table = rng.integers(0, 256, (256, 256), dtype=np.uint8)
        self._rows = rng.integers(0, 256, (64, 1024), dtype=np.uint8)
        self._coeffs = rng.integers(0, 256, 64, dtype=np.uint8)
        self._during, self._stolen = [], 0.0
        signal.signal(signal.SIGALRM, self._sample)
        self.last = self.measure()

    def measure(self) -> float:
        """Median of three timings, so that one interrupted timing does not
        set the scale of a whole operation."""
        times = []
        for _ in range(3):
            start = time.perf_counter()
            acc = 0
            for i in range(3000):
                acc += i * i
            np.bitwise_xor.reduce(self._table[self._coeffs[:, None], self._rows], axis=0)
            times.append(time.perf_counter() - start)
        return sorted(times)[1]

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self._during.append(self.measure())
        self._stolen += time.perf_counter() - start

    def start(self) -> float:
        """Start timing an operation; returns its start time."""
        self._before, self._during, self._stolen = self.last, [], 0.0
        signal.setitimer(signal.ITIMER_REAL, self.SAMPLE_EVERY_S, self.SAMPLE_EVERY_S)
        return time.perf_counter()

    def stop(self, start) -> tuple:
        """(wall seconds, scaled seconds) of the operation begun at start."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - start - self._stolen
        self.last = self.measure()
        refs = [self._before, *self._during, self.last]
        return elapsed, elapsed * self.REF_NOMINAL_S * len(refs) / sum(refs)


class Op:
    """One benchmark operation: counted, timed until stop(), checked."""

    def __init__(self, run, kind):
        self.run, self.kind = run, kind
        self.ok = True
        self.elapsed = None
        self.span = run.tracer.span("op:" + kind) if run.tracer else None
        self.counts = self.span.counts if self.span else {}

    def __enter__(self):
        self.run.attempted += 1
        if self.span:
            self.span.__enter__()
        self.start = self.run.speed.start()
        return self

    def stop(self):
        if self.elapsed is None:
            self.elapsed, self.scaled = self.run.speed.stop(self.start)
            spans = self.run.child_spans
            if spans is not None and spans.exists():
                self.run.tracer.adopt(spans)
                spans.unlink()

    def check(self, condition, message):
        if not condition and self.ok:
            self.ok = False
            print(f"check failed: {self.kind}: {message}", file=sys.stderr)

    def __exit__(self, etype, exc, tb):
        self.stop()
        if etype is not None and issubclass(etype, Exception):
            self.check(False, f"{etype.__name__}: {exc}")
        if self.span:
            self.span.__exit__(etype, exc, tb)
        self.run.round_s += self.scaled
        self.run.round_wall_s += self.elapsed
        if self.ok:
            self.run.samples[self.kind].append(self.scaled)
            self.run.raw[self.kind].append(self.elapsed)
        else:
            self.run.failed += 1
        return etype is not None and issubclass(etype, Exception)


class Run:
    """State shared by the operations of one benchmark run."""

    def __init__(self, seconds, tracer, tmp):
        self.seconds = seconds
        self.tracer = tracer
        self.tmp = tmp
        self.child_spans = tmp / "child-spans.jsonl" if tracer else None
        self.speed = HostSpeed()
        self.samples = defaultdict(list)     # operation kind -> scaled seconds
        self.raw = defaultdict(list)         # operation kind -> wall seconds
        self.attempted = self.failed = 0
        self.round_s = self.round_wall_s = 0.0
        self.peak_rss_kb = 0
        self.notes = []

    def op(self, kind) -> Op:
        return Op(self, kind)

    def rounds(self, body) -> None:
        """Call body(r) for r = 0, 1, ... until --seconds have passed; a
        round's time is the sum of its operations' scaled times."""
        deadline = time.perf_counter() + self.seconds
        r = 0
        while True:
            self.round_s = self.round_wall_s = 0.0
            body(r)
            self.samples["round"].append(self.round_s)
            self.raw["round"].append(self.round_wall_s)
            r += 1
            if time.perf_counter() >= deadline:
                return

    def child(self, args):
        """Run `python3 ARGS` to its end; returns (exit code, stderr)."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, *map(str, args)], env=env, cwd=ROOT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
        return proc.returncode, proc.stderr.strip()

    def cli(self, args):
        """Run one `ncaudit` command.  Traced runs run it under the launcher;
        the operation adds its spans to the trace once its timing stops."""
        if not self.tracer:
            return self.child(["-m", "ncaudit.cli", *args])
        return self.child([BENCH / "cli_launcher.py", self.child_spans,
                           self.tracer.run_id, *args])


def summary(values):
    ordered = sorted(values)
    p90 = ordered[min(len(ordered) - 1, int(0.9 * len(ordered)))]
    return statistics.median(ordered), p90


def end_to_end(run) -> dict:
    def median(kind, scale):
        values = run.samples.get(kind)
        return statistics.median(values) * scale if values else 0.0
    return {
        "setup_s": {"value": median("setup", 1), "unit": "s"},
        "audit_ms": {"value": median("audit", 1e3), "unit": "ms"},
        "round_ms": {"value": median("round", 1e3), "unit": "ms"},
        "peak_rss_mb": {"value": run.peak_rss_kb / 1024, "unit": "MB"},
    }


def probe_startup(run, times=3) -> None:
    """Traced runs time a child that only imports ncaudit.cli."""
    for _ in range(times):
        with run.op("startup") as op:
            code, err = run.child(["-c", "import ncaudit.cli"])
            op.stop()
            op.check(code == 0, f"import failed: {err}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="toy sizes that run in seconds (self-test only)")
    args = parser.parse_args(argv)

    # One CPU for this process and its children, so that the reference
    # kernel runs where the operations run.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (SRC / "ncaudit" / "__init__.py").is_file():
        print(f"error: no ncaudit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    tmp = OUT / f"tmp-{tag}-{os.getpid()}"
    tmp.mkdir()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer(f"{tag}-{os.getpid()}")
        tracer.install()
    run = Run(args.seconds, tracer, tmp)
    try:
        workloads.WORKLOADS[args.workload](run, np.random.default_rng(args.seed),
                                           args.toy)
        if tracer:
            probe_startup(run)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    # the largest resident set of this process or any child it waited for
    run.peak_rss_kb = max(resource.getrusage(who).ru_maxrss for who in
                          (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))

    for kind in sorted(run.samples):
        med, p90 = summary(run.samples[kind])
        wall, wall_p90 = summary(run.raw[kind])
        print(f"# {kind}: median {med * 1e3:.3f} ms, p90 {p90 * 1e3:.3f} ms, "
              f"n={len(run.samples[kind])}; wall clock median {wall * 1e3:.3f} ms, "
              f"p90 {wall_p90 * 1e3:.3f} ms")
    print(f"# reference kernel: {run.speed.last * 1e3:.3f} ms at the end, "
          f"nominal {HostSpeed.REF_NOMINAL_S * 1e3:.3f} ms")
    for note in run.notes:
        print(f"# {note}")
    e2e = end_to_end(run)
    if tracer:
        tracer.dump(OUT / f"trace-{tag}.jsonl")
        listed, reference = tracing.summarize(tracer.spans, run.raw["startup"])
        print("# layers " + json.dumps(reference, sort_keys=True))
        if tracer.missing:
            print("# missing trace targets: " + ", ".join(tracer.missing))
        untraced = OUT / f"result-{tag}-trace0.json"
        if untraced.exists():
            base = json.loads(untraced.read_text())["metrics"]
            overhead = {k: round(e2e[k]["value"] / base[k]["value"] - 1, 4)
                        for k in e2e if base.get(k, {}).get("value")}
            print("# tracing overhead vs the untraced run of this seed "
                  + json.dumps(overhead))
        metrics = listed
    else:
        metrics = e2e
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    (OUT / f"result-{tag}-trace{args.trace}.json").write_text(json.dumps(result))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark.

    python3 perfbench/selftest/run_selftest.py

Run from the root of a source checkout.  It checks that:

* a toy-size run of every workload, untraced and traced, exits 0 and ends
  with the result line BENCHMARK.json describes, with no failed operation;
* the benchmark reports failed operations against two broken copies of
  ncaudit: one whose verifier accepts every proof, one whose decoder
  returns wrong bytes;
* without the ncaudit sources the benchmark exits non-zero and prints no
  result.

Scratch copies go under perfbench/out/ and are removed.  Exits 0 when every
check holds, 1 otherwise.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TIMEOUT_S = 180

# (name, file under src/ncaudit, text, replacement, workloads that must fail)
MUTANTS = [
    ("verifier-accepts-all", "audit.py", "    return ok, stats\n",
     "    return True, stats\n", ("cluster-churn", "cli-store")),
    ("decoder-wrong-bytes", "blocks.py", "    return bytes(out)\n",
     "    return bytes(b ^ 1 for b in out)\n", ("cluster-churn",)),
]

failures = []


def expect(condition, message):
    print(("ok    " if condition else "FAIL  ") + message, flush=True)
    if not condition:
        failures.append(message)


def bench(checkout, workload, trace=0):
    """Run the benchmark of `checkout` for one toy-size second; returns
    (exit code, parsed last line or None)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=checkout, capture_output=True, text=True, timeout=TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
    return proc.returncode, result


def copy_checkout(dest, with_sources=True):
    dest.mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(BENCH, dest / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    if with_sources:
        shutil.copytree(ROOT / "src", dest / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))


def check_result(workload, trace, code, result):
    label = f"{workload} trace={trace}"
    expect(code == 0, f"{label}: exit code 0 (got {code})")
    if result is None:
        expect(False, f"{label}: last line is a JSON result")
        return
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{label}: result keys")
    expect(result["correct"] is True and result["failed"] == 0
           and result["attempted"] >= 1,
           f"{label}: correct, {result['failed']} failed of {result['attempted']}")
    declared = SPEC["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    expect(set(metrics) == {m["name"] for m in declared},
           f"{label}: metrics are exactly the declared ones")
    for m in declared:
        got = metrics.get(m["name"], {})
        expect(got.get("unit") == m["unit"] and isinstance(got.get("value"), (int, float)),
               f"{label}: {m['name']} = {got.get('value')} {got.get('unit')}")
        if not trace:
            expect(got.get("value", 0) > 0, f"{label}: {m['name']} is not 0")


def main() -> int:
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            check_result(w["name"], trace, *bench(ROOT, w["name"], trace))

    scratch = BENCH / "out" / "selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        for name, filename, text, replacement, workloads in MUTANTS:
            checkout = scratch / name
            copy_checkout(checkout)
            path = checkout / "src" / "ncaudit" / filename
            source = path.read_text()
            expect(source.count(text) == 1, f"{name}: mutation applies to {filename}")
            path.write_text(source.replace(text, replacement))
            for workload in workloads:
                code, result = bench(checkout, workload)
                failed = result["failed"] if result else None
                expect(code == 0 and failed is not None and failed > 0
                       and result["correct"] is False,
                       f"{name}: {workload} reports failed operations ({failed})")

        bare = scratch / "bare"
        copy_checkout(bare, with_sources=False)
        code, result = bench(bare, SPEC["workloads"][0]["name"])
        expect(code != 0 and result is None,
               f"without sources: exit code {code}, no result line")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

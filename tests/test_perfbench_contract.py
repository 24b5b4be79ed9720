"""The benchmark under perfbench/ drives ncaudit through names and shapes of
its own choosing; these checks keep that contract in the tier-1 suite.

Each toy-run case copies BENCHMARK.json, perfbench/ and src/ into a
temporary checkout, as perfbench/selftest/run_selftest.py does, so nothing
is written under perfbench/out, then makes a short traced toy run of one
workload.  The self-test's mutants must also still apply to src/.
"""

import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Trace targets that name functions ncaudit no longer has; a target the
# matrix node store touches must not join them.
KNOWN_MISSING = {"ncaudit.field.dot", "ncaudit.field.scale_rows",
                 "ncaudit.dynamics.verify_proof",
                 "ncaudit.dynamics.verify_with_deltas"}


def _checkout(dest: Path) -> Path:
    dest.mkdir()
    shutil.copy2(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(ROOT / "perfbench", dest / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copytree(ROOT / "src", dest / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return dest


@pytest.mark.parametrize("workload", ["cluster-churn", "paper-audit"])
def test_traced_toy_run_keeps_the_contract(tmp_path, workload):
    checkout = _checkout(tmp_path / "checkout")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0.5", "--trace", "1", "--toy"],
        cwd=checkout, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["failed"] == 0 and result["attempted"] >= 1
    prefix = "# missing trace targets: "
    missing = [line[len(prefix):] for line in lines if line.startswith(prefix)]
    assert len(missing) == 1
    assert set(missing[0].split(", ")) == KNOWN_MISSING


def test_every_trace_target_resolves_but_the_known_missing():
    # the CLI targets are resolved only in the CLI's child processes, where
    # a miss goes unreported; here every target is installed, as a traced
    # run installs it, in an interpreter of its own so no test sees wrappers
    code = ("import sys; sys.path[:0] = ['src', 'perfbench']; import tracing; "
            "t = tracing.Tracer('check'); "
            "t.install(tracing.TARGETS + tracing.CLI_TARGETS); print(*t.missing)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert set(proc.stdout.split()) == KNOWN_MISSING


def test_selftest_mutants_each_apply_once():
    # a refactor that moves a mutant's line silently disarms the self-test;
    # MUTANTS is read from the script's source, so its main() never runs
    tree = ast.parse((ROOT / "perfbench" / "selftest" / "run_selftest.py").read_text())
    mutants = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and [getattr(t, "id", None) for t in node.targets] == ["MUTANTS"])
    assert mutants
    for name, filename, text, _, _ in mutants:
        source = (ROOT / "src" / "ncaudit" / filename).read_text()
        assert source.count(text) == 1, f"{name}: {text!r} in {filename}"

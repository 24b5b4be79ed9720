import json
import multiprocessing
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from ncaudit import audit
from ncaudit.cluster import Cluster, Node, Tpa
from ncaudit.cli import _load_store, _save_store, main


@pytest.fixture
def store(tmp_path, monkeypatch):
    monkeypatch.setenv("NCAUDIT_SEED", "42")
    src = tmp_path / "input.bin"
    src.write_bytes(bytes(range(200)))
    out = tmp_path / "store"
    rc = main(["setup", "--file", str(src), "--out", str(out),
               "--n", "64", "--ell", "2"])
    assert rc == 0
    return out


def test_setup_writes_layout(store):
    assert sorted(p.name for p in store.iterdir()) == [
        "keys.json", "manifest.json", "nodes", "tpa.json", "vouchers.json"]
    assert json.loads((store / "vouchers.json").read_text()) == {
        "0": 1, "1": 1, "2": 1, "3": 1}
    assert json.loads((store / "tpa.json").read_text()) == {
        "0": 0, "1": 0, "2": 0, "3": 0}
    for node in range(4):
        ndir = store / "nodes" / f"node{node}"
        assert sorted(p.name for p in ndir.iterdir()) == ["rows.bin"]
        # evenodd4: two rows of n = 64 data symbols and ell = 2 tag symbols;
        # the blocks' m = 4 coefficients are in the manifest only
        assert (ndir / "rows.bin").stat().st_size == 2 * (64 + 2)
    coeffs = json.loads((store / "manifest.json").read_text())["node_coeffs"]
    assert {node: np.array(rows).shape for node, rows in coeffs.items()} == {
        str(node): (2, 4) for node in range(4)}


def test_setup_deterministic(store, tmp_path, monkeypatch):
    out2 = tmp_path / "store2"
    rc = main(["setup", "--file", str(tmp_path / "input.bin"),
               "--out", str(out2), "--n", "64", "--ell", "2"])
    assert rc == 0
    for rel in ["manifest.json", "keys.json", "nodes/node2/rows.bin"]:
        assert (store / rel).read_bytes() == (out2 / rel).read_bytes()


def test_setup_missing_file(tmp_path):
    rc = main(["setup", "--file", str(tmp_path / "absent"),
               "--out", str(tmp_path / "o")])
    assert rc == 2


def test_setup_out_is_an_existing_file(tmp_path, capsys):
    src = tmp_path / "input.bin"
    src.write_bytes(bytes(range(200)))
    out = tmp_path / "o"
    out.write_bytes(b"not a directory")
    assert main(["setup", "--file", str(src), "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert out.read_bytes() == b"not a directory"


def test_setup_file_is_a_directory(tmp_path, capsys):
    assert main(["setup", "--file", str(tmp_path), "--out", str(tmp_path / "o")]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_bad_usage_exit_code():
    assert main(["no-such-command"]) == 2


def test_audit_accepts_healthy(store, capsys):
    rc = main(["audit", "--dir", str(store), "--node", "1",
               "--count", "2", "--rounds", "3"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert "3/3 accepted" in lines[-1]
    rec = json.loads(lines[0])
    assert rec["accepted"] is True


def test_corrupt_then_audit_rejects(store):
    rc = main(["corrupt", "--dir", str(store), "--node", "1",
               "--block", "0", "--position", "4", "--delta", "3"])
    assert rc == 0
    assert main(["audit", "--dir", str(store), "--node", "1",
                 "--count", "2", "--rounds", "5"]) == 1


def test_repair_restores(store):
    main(["corrupt", "--dir", str(store), "--node", "2", "--delta", "255"])
    assert main(["repair", "--dir", str(store), "--node", "2",
                 "--mode", "exact"]) == 0
    assert main(["audit", "--dir", str(store), "--node", "2",
                 "--count", "2", "--rounds", "5"]) == 0


SRC = Path(__file__).resolve().parents[1] / "src"


def _audit_process(store, *argv):
    """One `ncaudit audit` in a process of its own; its exit code."""
    return subprocess.run(
        [sys.executable, "-m", "ncaudit.cli", "audit", "--dir", str(store), *argv],
        env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, timeout=60).returncode


def test_seeded_audit_processes_do_not_repeat_their_challenge(store, tmp_path):
    # each process reseeds its generators from --seed, so a challenge drawn
    # from them was the same in every process: a node that saw one knew
    # which block the next reads.  Find the block that the first seeded
    # one-block audit of node 1 skips, on a copy of the store, corrupt that
    # block, and audit again in separate seeded processes: audit k's
    # challenge comes from k, so a later one reads the corrupted block
    seeded = ["--node", "1", "--count", "1", "--seed", "7"]
    copy = tmp_path / "copy"
    shutil.copytree(store, copy)
    assert main(["corrupt", "--dir", str(copy), "--node", "1", "--block", "0"]) == 0
    skipped = 0 if _audit_process(copy, *seeded) == 0 else 1
    assert main(["corrupt", "--dir", str(store), "--node", "1", "--block",
                 str(skipped)]) == 0
    codes = []
    while len(codes) < 8 and 1 not in codes:
        codes.append(_audit_process(store, *seeded))
    # the store is seeded, so its keys and so every challenge are fixed: audit
    # k = 1 reads block 0, as on the copy, and audit k = 2 reads block 1
    assert (skipped, codes) == (1, [0, 1])


def test_extract_command(store):
    rc = main(["extract", "--dir", str(store), "--node", "0",
               "--epsilon", "0.2", "--seed", "7"])
    assert rc == 0


def test_scenario_command(store, tmp_path):
    scenario = {
        "params": {"n": 16, "m": 4, "N": 4, "M": 2, "P": 3, "Q": 1,
                   "ell": 2, "lambda_bits": 80},
        "layout": "evenodd4",
        "file_text": "hello",
        "seed": 2,
        "steps": [{"op": "audit", "node": 0, "count": 2}],
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    assert main(["scenario", "--file", str(path)]) == 0


_SCENARIO = {"params": {"n": 16, "m": 4, "N": 4, "M": 2, "P": 3, "Q": 1,
                        "ell": 2, "lambda_bits": 80}, "file_text": "hello"}


@pytest.mark.parametrize("doc, reason", [
    ({"steps": []}, "params"),
    ({**_SCENARIO, "steps": [{"op": "audit", "count": 1}]}, "step 0"),
    ({**_SCENARIO, "steps": [{"op": "fault", "node": 1, "fault": {
        "kind": "corrupt_symbol", "colour": 1}}]}, "step 0"),
    ({**_SCENARIO, "steps": [{"op": "audit", "node": 0}, {"op": "audit", "node": 9}]},
     "step 1"),
    ([_SCENARIO], "JSON object"),
    ({**_SCENARIO, "steps": [{"op": "audit", "node": 0}, "audit"]}, "step 1"),
    ({**_SCENARIO, "steps": [{"op": "erase", "node": 0}]}, "step 0"),
    ({**_SCENARIO, "steps": [{"op": "audit", "node": 0, "count": "2"}]}, "step 0"),
    ({**_SCENARIO, "steps": [{"op": "repair", "node": 0, "helpers": [1, 9]}]},
     "helper 9"),
    ({**_SCENARIO, "steps": [{"op": "repair", "node": 0, "helpers": "12"}]}, "'12'"),
    ({**_SCENARIO, "steps": [{"op": "repair", "node": 0, "helpers": [1, 1, 1]}]},
     "helper 1"),
    ({**_SCENARIO, "steps": [{"op": "repair", "node": 0, "helpers": [0, 1, 2]}]},
     "helper 0"),
    ({**_SCENARIO, "steps": [{"op": "fault", "node": 1, "fault": {
        "kind": "corrupt_symbol", "block": True, "position": 1, "delta": 5}},
        {"op": "audit", "node": 1, "count": 2}]}, "integers"),
    ({**_SCENARIO, "steps": [{"op": "fault", "node": 1, "fault": {
        "kind": "lie_probability", "epsilon": True}},
        {"op": "audit", "node": 1, "count": 2}]}, "real number"),
    ({**_SCENARIO, "steps": [{"op": "fault", "node": 1, "fault": {
        "kind": "lie_probability", "epsilon": "0.5"}}]}, "real number"),
    ({**_SCENARIO, "steps": [{"op": "fault", "node": 1, "fault": {
        "kind": "lie_probability", "epsilon": None}}]}, "real number"),
    ({**_SCENARIO, "seed": "2"}, "seed"),
    ({**_SCENARIO, "seed": 2.5}, "seed"),
    ({**_SCENARIO, "file_text": 5}, "file_text"),
    ({**_SCENARIO, "file_hex": ["00"]}, "file_hex"),
], ids=["no-params", "no-node", "unknown-fault-field", "absent-node", "array",
        "non-object-step", "unknown-op", "string-count", "absent-helper",
        "string-helpers", "repeated-helper", "failed-node-as-helper",
        "boolean-fault-block", "boolean-fault-epsilon", "string-fault-epsilon",
        "null-fault-epsilon", "string-seed", "float-seed", "non-string-file-text",
        "non-string-file-hex"])
def test_malformed_scenario_is_usage_error(tmp_path, capsys, doc, reason):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["scenario", "--file", str(path)]) == 2
    captured = capsys.readouterr()
    assert reason in captured.err
    assert captured.out == ""  # the records of the steps before it are not printed


def test_unseeded_setups_use_fresh_keys(tmp_path, monkeypatch):
    monkeypatch.delenv("NCAUDIT_SEED", raising=False)
    keys = []
    for name, body in [("a.bin", b"first file"), ("b.bin", b"second file")]:
        src = tmp_path / name
        src.write_bytes(body)
        out = tmp_path / f"store-{name}"
        assert main(["setup", "--file", str(src), "--out", str(out), "--n", "16"]) == 0
        keys.append((out / "keys.json").read_bytes())
    assert keys[0] != keys[1]


def test_random_layout_store_audits(tmp_path):
    src = tmp_path / "input.bin"
    src.write_bytes(bytes(range(200)))
    out = tmp_path / "store"
    assert main(["setup", "--file", str(src), "--out", str(out), "--layout", "random",
                 "--n", "40", "--m", "6", "--nodes", "3", "--seed", "5"]) == 0
    assert main(["audit", "--dir", str(out), "--node", "2", "--count", "3",
                 "--rounds", "3", "--seed", "6"]) == 0
    assert main(["repair", "--dir", str(out), "--node", "1", "--mode", "functional",
                 "--seed", "7"]) == 0
    assert main(["audit", "--dir", str(out), "--node", "1", "--count", "3",
                 "--rounds", "3", "--seed", "8"]) == 0


def test_random_layout_exact_repair_rebuilds_every_node(tmp_path):
    # Q rows from each helper can span the sources, so exact repair has a plan
    src = tmp_path / "input.bin"
    src.write_bytes(bytes(range(200)) * 2)
    out = tmp_path / "store"
    assert main(["setup", "--file", str(src), "--out", str(out), "--layout", "random",
                 "--n", "128", "--m", "6", "--nodes", "4", "--seed", "2a"]) == 0
    files = sorted((out / "nodes").rglob("*.bin"))
    before = [f.read_bytes() for f in files]
    for node in range(4):
        assert main(["repair", "--dir", str(out), "--node", str(node),
                     "--seed", "1"]) == 0
    assert [f.read_bytes() for f in files] == before
    assert main(["audit", "--dir", str(out), "--node", "0", "--count", "2",
                 "--rounds", "3", "--seed", "3"]) == 0


@pytest.mark.parametrize("argv", [
    ["audit", "--node", "9"],
    ["corrupt", "--node", "9"],
    ["repair", "--node", "9"],
    ["extract", "--node", "9"],
    ["corrupt", "--node", "1", "--block", "5"],
    ["corrupt", "--node", "1", "--position", "99999"],
    ["corrupt", "--node", "1", "--position", "-1"],
    ["corrupt", "--node", "1", "--delta", "256"],
    ["audit", "--rounds", "0"],
    ["audit", "--rounds", "-3"],
    # extract has no --rounds: an unknown option
    ["extract", "--rounds", "0"],
    # n = 64: position 64 would be the first coefficient, which no node stores
    ["corrupt", "--node", "1", "--position", "64"],
    # evenodd4 nodes hold 2 rows; refused before a voucher counter is issued
    ["audit", "--node", "1", "--count", "3"],
    ["audit", "--node", "1", "--count", "0"],
])
def test_out_of_range_ids_are_usage_errors(store, argv, capsys):
    before = {p: p.read_bytes() for p in store.rglob("*") if p.is_file()}
    assert main([argv[0], "--dir", str(store), *argv[1:]]) == 2
    assert "error:" in capsys.readouterr().err
    assert {p: p.read_bytes() for p in store.rglob("*") if p.is_file()} == before


@pytest.mark.parametrize("argv", [
    ["--layout", "random", "--nodes", "0"],
    ["--layout", "random", "--m", "0"],
    # evenodd4 is m=4 over 4 nodes; it must not drop other values silently
    ["--m", "10", "--nodes", "6"],
    ["--m", "10"],
    ["--nodes", "6"],
])
def test_setup_with_no_nodes_or_blocks_is_usage_error(tmp_path, argv, capsys):
    src = tmp_path / "input.bin"
    src.write_bytes(bytes(range(200)))
    assert main(["setup", "--file", str(src), "--out", str(tmp_path / "store"),
                 *argv]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "store").exists()


# runs `ncaudit` with a store writer that ends the process, as a crash
# would, just before it writes a node's rows.bin
KILLED_AT_ROWS = """
import os, sys
from ncaudit import cli
write = cli._write
def _write(path, data):
    if path.name == "rows.bin":
        os._exit(9)
    write(path, data)
cli._write = _write
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 9")
def test_a_functional_repair_killed_before_its_rows_leaves_the_node_auditable(tmp_path):
    # the repair writes manifest.json, with the node's new coefficient rows,
    # before the node's rows.bin: killed between the two, it leaves the old
    # rows under the new coefficients, and the healthy node's audits reject
    src = tmp_path / "input.bin"
    src.write_bytes(bytes(range(200)))
    out = tmp_path / "store"
    assert main(["setup", "--file", str(src), "--out", str(out), "--layout", "random",
                 "--m", "6", "--nodes", "4", "--n", "256", "--ell", "2", "--seed", "2a"]) == 0
    audit = ["audit", "--dir", str(out), "--node", "1", "--count", "2", "--rounds", "3"]
    if main(audit) != 0:
        pytest.fail("the node's audits reject before the repair")
    killed = subprocess.run(
        [sys.executable, "-c", KILLED_AT_ROWS, "repair", "--dir", str(out), "--node", "1",
         "--mode", "functional"],
        env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1",
             "NCAUDIT_SEED": "2a"},
        capture_output=True, timeout=60)
    if killed.returncode != 9:  # not the defect: the kill point was never reached
        pytest.fail(f"the repair exited {killed.returncode}, not at its rows.bin write")
    assert main(audit) == 0


def test_repair_with_no_plan_is_usage_error(tmp_path, capsys):
    # two surviving nodes hold 2 x 11 rows, fewer than m = 30
    src = tmp_path / "input.bin"
    src.write_bytes(bytes(range(200)))
    out = tmp_path / "store"
    assert main(["setup", "--file", str(src), "--out", str(out), "--layout", "random",
                 "--m", "30", "--nodes", "3", "--n", "64", "--seed", "2a"]) == 0
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    assert main(["repair", "--dir", str(out), "--node", "0"]) == 2
    assert "do not span" in capsys.readouterr().err
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before


def test_extract_from_a_node_that_always_lies_fails(store, capsys):
    assert main(["extract", "--dir", str(store), "--node", "0",
                 "--epsilon", "1.0", "--seed", "7"]) == 1
    assert "extraction failed" in capsys.readouterr().out


@pytest.mark.parametrize("doc", [
    {}, [], "k_v", None, {"k_v": "00" * 32}, {"k_e": "00" * 32},
    {"k_v": 7, "k_e": "00" * 32}, {"k_v": "00" * 32, "k_e": None},
    {"k_v": ["00"], "k_e": "00" * 32},
    {"k_v": "", "k_e": ""}, {"k_v": "00" * 8, "k_e": "00" * 16},
])
def test_malformed_keys_file_is_usage_error(store, doc, capsys):
    (store / "keys.json").write_text(json.dumps(doc))
    assert main(["audit", "--dir", str(store), "--node", "0"]) == 2
    assert "keys.json" in capsys.readouterr().err


def test_keys_past_512_bits_are_usage_errors(store, tmp_path, capsys):
    # the PRF takes at most 64 key bytes; a 1024-bit key was once cut to
    # its first 512 bits and the store audited as usual
    assert main(["setup", "--file", str(tmp_path / "input.bin"),
                 "--out", str(tmp_path / "wide"), "--lam", "1024"]) == 2
    assert not (tmp_path / "wide").exists()
    path = store / "manifest.json"
    doc = json.loads(path.read_text())
    doc["params"]["lambda_bits"] = 1024
    path.write_text(json.dumps(doc))
    (store / "keys.json").write_text(json.dumps({"k_v": "a5" * 128, "k_e": "5a" * 128}))
    assert main(["audit", "--dir", str(store), "--node", "0"]) == 2
    assert "lambda_bits" in capsys.readouterr().err


def test_node_files_roundtrip(store, tmp_path):
    manifest, keys, payloads = _load_store(store)
    assert payloads[3].rows.shape == (2, 64 + 2)  # n data and ell tag symbols
    copy = tmp_path / "copy"
    _save_store(copy, payloads, manifest, keys)
    for rel in ["nodes/node3/rows.bin", "manifest.json", "keys.json"]:
        assert (copy / rel).read_bytes() == (store / rel).read_bytes()


def test_corrupt_rewrites_one_symbol(store):
    path = store / "nodes" / "node1" / "rows.bin"
    before = np.frombuffer(path.read_bytes(), dtype=np.uint8).reshape(2, 64 + 2)
    assert main(["corrupt", "--dir", str(store), "--node", "1", "--block", "1",
                 "--position", "63", "--delta", "9"]) == 0
    after = np.frombuffer(path.read_bytes(), dtype=np.uint8).reshape(2, 64 + 2)
    assert [tuple(ix) for ix in np.argwhere(before != after)] == [(1, 63)]
    assert after[1, 63] == before[1, 63] ^ 9


def test_each_command_writes_only_the_files_it_changes(tmp_path, monkeypatch):
    # every store file is written as <name>.tmp and renamed; a command that
    # rewrote a file it did not change would widen the window a kill can hit
    written = []

    def recording(write):
        def wrapper(self, data, *args, **kwargs):
            written.append(self)
            return write(self, data, *args, **kwargs)
        return wrapper

    for name in ("write_text", "write_bytes"):
        monkeypatch.setattr(Path, name, recording(getattr(Path, name)))
    src, store = tmp_path / "input.bin", tmp_path / "store"
    src.write_bytes(bytes(range(200)))

    def run(*argv):
        written.clear()
        assert main([str(a) for a in argv]) == 0
        return sorted(p.relative_to(store).as_posix() for p in written)

    node1 = ["nodes/node1/rows.bin.tmp"]
    assert run("setup", "--file", src, "--out", store, "--n", 64, "--ell", 2,
               "--seed", "42") == sorted(
        ["keys.json.tmp", "manifest.json.tmp", "tpa.json.tmp", "vouchers.json.tmp"]
        + [f"nodes/node{i}/rows.bin.tmp" for i in range(4)])
    assert run("audit", "--dir", store, "--node", 1, "--seed", "5") \
        == ["tpa.json.tmp", "vouchers.json.tmp"]
    assert run("corrupt", "--dir", store, "--node", 1, "--delta", 9) == node1
    # an exact repair restores the node's coefficient rows, so it leaves
    # the manifest alone; a functional one gives the node new ones
    manifest = (store / "manifest.json").read_bytes()
    assert run("repair", "--dir", store, "--node", 1, "--mode", "exact",
               "--seed", "6") == node1
    assert (store / "manifest.json").read_bytes() == manifest
    assert run("repair", "--dir", store, "--node", 1, "--mode", "functional",
               "--seed", "6") == ["manifest.json.tmp"] + node1
    assert not list(store.rglob("*.tmp"))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(0, 300))
def test_node_file_of_wrong_length_is_rejected(store, length):
    path = store / "nodes" / "node0" / "rows.bin"
    good = path.read_bytes()
    path.write_bytes(bytes(length))
    try:
        if length == len(good):
            _load_store(store)
        else:
            with pytest.raises(ValueError, match="the manifest implies"):
                _load_store(store)
            assert main(["audit", "--dir", str(store), "--node", "0"]) == 2
    finally:
        path.write_bytes(good)


def test_audits_advance_the_voucher_counter_and_leave_node_files(store, capsys):
    nodes = {p: p.read_bytes() for p in (store / "nodes").rglob("*") if p.is_file()}
    assert main(["audit", "--dir", str(store), "--node", "1", "--rounds", "3"]) == 0
    assert main(["audit", "--dir", str(store), "--node", "1", "--rounds", "2"]) == 0
    assert main(["extract", "--dir", str(store), "--node", "2", "--seed", "7"]) == 0
    counters = json.loads((store / "vouchers.json").read_text())
    assert counters["1"] == 6 and counters["0"] == 1
    assert counters["2"] > 2  # one voucher per extraction query
    # the TPA spent every voucher it was answered under
    spent = json.loads((store / "tpa.json").read_text())
    assert spent == {"0": 0, "1": 5, "2": counters["2"] - 1, "3": 0}
    assert {p: p.read_bytes() for p in (store / "nodes").rglob("*")
            if p.is_file()} == nodes


@pytest.mark.parametrize("name", ["vouchers.json", "tpa.json", "manifest.json",
                                  "keys.json", "nodes/node1/rows.bin"])
def test_a_counter_write_cut_short_leaves_the_old_file(store, name, monkeypatch):
    # the write of the named file stops halfway and raises, as on a full
    # disk, in a command that writes it: only setup writes keys.json, and
    # of the commands on a store only a functional repair the manifest
    argv = {"keys.json": ["setup", "--file", store.parent / "input.bin", "--out", store,
                          "--n", 64, "--ell", 2, "--seed", "43"],
            "manifest.json": ["repair", "--dir", store, "--node", 1,
                              "--mode", "functional"],
            "nodes/node1/rows.bin": ["corrupt", "--dir", store, "--node", 1, "--delta", 9],
            }.get(name, ["audit", "--dir", store, "--node", 1])
    path = store / name
    before = path.read_bytes()
    write_bytes = Path.write_bytes

    def cut_short(target, data):
        if target != path.with_name(path.name + ".tmp"):
            return write_bytes(target, data)
        write_bytes(target, data[: len(data) // 2])
        raise OSError("no space left on device")

    monkeypatch.setattr(Path, "write_bytes", cut_short)
    assert main([str(a) for a in argv]) == 2
    monkeypatch.undo()
    assert path.read_bytes() == before
    _load_store(store)
    assert main(["audit", "--dir", str(store), "--node", "1"]) == 0


def test_a_store_with_split_node_files_is_usage_error(store, capsys):
    # a store written before a node had one file: blocks.bin held each
    # row's n data symbols and tags.bin its ell tags
    for ndir in (store / "nodes").iterdir():
        rows = np.fromfile(ndir / "rows.bin", dtype=np.uint8).reshape(2, 64 + 2)
        (ndir / "blocks.bin").write_bytes(rows[:, :64].tobytes())
        (ndir / "tags.bin").write_bytes(rows[:, 64:].tobytes())
        (ndir / "rows.bin").unlink()
    assert main(["audit", "--dir", str(store), "--node", "0"]) == 2
    assert "rows.bin" in capsys.readouterr().err


@pytest.mark.parametrize("edit", [
    lambda d: d.update(logical_order=[0, 0, 0, 0]),
    lambda d: d["node_coeffs"].update({"03": d["node_coeffs"]["3"]}),
    lambda d: d.update(deltas={"1": [1, 2], "01": [3, 4]}),
])
def test_manifest_naming_an_entry_twice_is_usage_error(store, edit, capsys):
    path = store / "manifest.json"
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    raw = path.read_bytes()
    assert main(["audit", "--dir", str(store), "--node", "1"]) == 2
    assert "error:" in capsys.readouterr().err
    assert path.read_bytes() == raw


@pytest.mark.parametrize("node", ["-1", "4294967296"])
def test_node_ids_past_32_bits_are_usage_errors(store, node, capsys):
    # node 3 renamed everywhere: the PRF nonce packs a node id as 32 bits,
    # and such an id exited 3 from inside the nonce's struct.pack
    for name in ("manifest.json", "vouchers.json", "tpa.json"):
        doc = json.loads((store / name).read_text())
        entries = doc["node_coeffs"] if name == "manifest.json" else doc
        entries[node] = entries.pop("3")
        (store / name).write_text(json.dumps(doc))
    (store / "nodes" / "node3").rename(store / "nodes" / f"node{node}")
    assert main(["audit", "--dir", str(store), f"--node={node}"]) == 2
    assert "node ids" in capsys.readouterr().err


def test_a_manifest_with_q_zero_is_usage_error(tmp_path, capsys):
    # a functional repair with Q = 0 exited 0 and wrote all-zero
    # coefficient rows that audits then accepted
    src = tmp_path / "input.bin"
    src.write_bytes(bytes(range(200)))
    out = tmp_path / "store"
    assert main(["setup", "--file", str(src), "--out", str(out), "--layout", "random",
                 "--m", "6", "--nodes", "4", "--n", "64", "--ell", "2",
                 "--seed", "2a"]) == 0
    path = out / "manifest.json"
    doc = json.loads(path.read_text())
    doc["params"]["Q"] = 0
    path.write_text(json.dumps(doc))
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    assert main(["repair", "--dir", str(out), "--node", "1", "--mode", "functional"]) == 2
    assert "Q must be >= 1" in capsys.readouterr().err
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before


@pytest.mark.parametrize("doc", [
    [], {"0": 0}, {"0": "1"}, {"x": 1}, {"0": 1.5},
    # a node left out would restart at k=1 and be issued used masks again
    {"1": 1, "2": 1, "3": 1},
    {"0": 1, "1": 1, "2": 1, "3": 1, "4": 1},
])
def test_malformed_voucher_counters_are_usage_errors(store, doc, capsys):
    (store / "vouchers.json").write_text(json.dumps(doc))
    assert main(["audit", "--dir", str(store), "--node", "0", "--rounds", "2"]) == 2
    assert "error:" in capsys.readouterr().err
    assert json.loads((store / "vouchers.json").read_text()) == doc


@pytest.mark.parametrize("doc", [
    # a node left out would have its spent counters accepted again
    None, {"1": 0, "2": 0, "3": 0}, {"0": -1, "1": 0, "2": 0, "3": 0},
])
@pytest.mark.parametrize("command", ["audit", "extract"])
def test_missing_or_malformed_tpa_counters_are_usage_errors(store, doc, command, capsys):
    path = store / "tpa.json"
    if doc is None:  # a store written before the TPA kept a file
        path.unlink()
    else:
        path.write_text(json.dumps(doc))
    assert main([command, "--dir", str(store), "--node", "0"]) == 2
    assert "tpa.json" in capsys.readouterr().err
    assert path.exists() == (doc is not None)
    assert doc is None or json.loads(path.read_text()) == doc


_SCALAR = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
_JSON = st.recursive(
    _SCALAR,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=4),
    max_leaves=8)
# the least counter each counter file takes; a key is 32 hex digits, longer
# than any text _JSON draws
_LEAST = {"vouchers.json": 1, "tpa.json": 0}


@st.composite
def _bad_document(draw, name, valid):
    """Arbitrary JSON, or the file's valid document with one value replaced
    by one it cannot take."""
    if draw(st.booleans()):
        doc = draw(_JSON)
        assume(not (isinstance(doc, dict) and set(doc) == set(valid)))
        return doc
    least = _LEAST.get(name)
    bad = _JSON.filter(lambda v: least is None or type(v) is not int or v < least)
    return {**valid, draw(st.sampled_from(sorted(valid))): draw(bad)}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.fixed_dictionaries(
    {"kind": st.sampled_from(["corrupt_symbol", "delete_block", "replay_old",
                              "lie_probability"]) | _SCALAR},
    optional={**dict.fromkeys(["block", "position", "delta", "epsilon"],
                              st.integers(-2, 260) | _SCALAR),
              "snapshot": _SCALAR, "colour": _SCALAR}))
def test_fuzzed_scenario_faults_never_exit_3(tmp_path_factory, fault):
    path = tmp_path_factory.getbasetemp() / "fuzzed-fault.json"
    path.write_text(json.dumps({**_SCENARIO, "steps": [
        {"op": "fault", "node": 1, "fault": fault}, {"op": "audit", "node": 1, "count": 2}]}))
    assert main(["scenario", "--file", str(path)]) in (0, 1, 2)


@pytest.fixture(scope="module")
def shared_store(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "input.bin").write_bytes(bytes(range(200)))
    assert main(["setup", "--file", str(root / "input.bin"), "--out", str(root / "store"),
                 "--n", "64", "--ell", "2", "--seed", "42"]) == 0
    return root / "store"


@pytest.mark.parametrize("command", ["audit", "extract"])
@pytest.mark.parametrize("name", ["vouchers.json", "keys.json", "tpa.json"])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzzed_store_documents_are_usage_errors(shared_store, name, command, data):
    path = shared_store / name
    good = path.read_bytes()
    raw = json.dumps(data.draw(_bad_document(name, json.loads(good)))).encode()
    path.write_bytes(raw)
    try:
        assert main([command, "--dir", str(shared_store), "--node", "1", "--seed", "5"]) == 2
        assert path.read_bytes() == raw
    finally:
        path.write_bytes(good)


def test_rolled_back_voucher_counters_reuse_no_mask(tmp_path, monkeypatch, capsys):
    src = tmp_path / "input.bin"
    src.write_bytes(bytes(range(200)))
    store = tmp_path / "st"
    assert main(["setup", "--file", str(src), "--out", str(store), "--n", "1024",
                 "--ell", "2", "--seed", "2a"]) == 0
    saved = (store / "vouchers.json").read_bytes()
    assert main(["audit", "--dir", str(store), "--node", "2", "--seed", "1"]) == 0
    spent = (store / "tpa.json").read_bytes()
    # the user's file rolled back: k = 1 would reach the node again, and
    # two answers would share its mask; the TPA refuses it first
    (store / "vouchers.json").write_bytes(saved)
    answer, seen = Node.answer, []
    monkeypatch.setattr(Node, "answer",
                        lambda self, chal, voucher: seen.append(voucher.k)
                        or answer(self, chal, voucher))
    capsys.readouterr()
    for command in ("audit", "extract"):
        assert main([command, "--dir", str(store), "--node", "2", "--seed", "2"]) == 1
        assert "counter 1 was spent" in capsys.readouterr().out
        (store / "vouchers.json").write_bytes(saved)
    assert seen == [] and (store / "tpa.json").read_bytes() == spent
    # each refusal burns the counter it issued; once the user's counter
    # passes the TPA's, audits are accepted again
    assert main(["audit", "--dir", str(store), "--node", "2", "--seed", "3"]) == 1
    assert main(["audit", "--dir", str(store), "--node", "2", "--seed", "3"]) == 0
    assert seen == [2]


@pytest.mark.parametrize("argv", [
    ["audit", "--node", "1", "--count", "2", "--rounds", "3"],
    ["extract", "--node", "2", "--epsilon", "0.2", "--seed", "7"],
])
def test_every_spent_counter_is_on_disk_before_the_verdict(store, argv, monkeypatch):
    # a command killed after a verdict must not leave that counter to be
    # accepted again under a rolled-back vouchers.json
    verify, spent = Tpa.verify, []

    def checked(self, chal, proof):
        if spent:
            counters = json.loads((store / "tpa.json").read_text())
            assert counters[str(chal.node)] == spent[-1]
        spent.append(proof.k)
        return verify(self, chal, proof)

    monkeypatch.setattr(Tpa, "verify", checked)
    assert main([argv[0], "--dir", str(store), *argv[1:]]) == 0
    assert spent and json.loads((store / "tpa.json").read_text())[argv[2]] == spent[-1]


@pytest.mark.parametrize("argv", [
    ["audit", "--node", "1", "--count", "2", "--rounds", "3"],
    ["extract", "--node", "2", "--epsilon", "0.2", "--seed", "7"],
])
def test_every_voucher_is_on_disk_before_the_node_answers(store, argv, monkeypatch):
    # a command killed while a node answers must not leave that voucher's
    # counter to be issued again
    answer, seen = Node.answer, []

    def checked(self, chal, voucher):
        counters = json.loads((store / "vouchers.json").read_text())
        assert counters[str(voucher.node)] > voucher.k
        seen.append(voucher.k)
        return answer(self, chal, voucher)

    monkeypatch.setattr(Node, "answer", checked)
    assert main([argv[0], "--dir", str(store), *argv[1:]]) == 0
    assert seen and seen == list(range(1, len(seen) + 1))


def test_seed_flag_and_variable_are_both_hex(tmp_path, monkeypatch):
    src = tmp_path / "input.bin"
    src.write_bytes(bytes(range(200)))
    stores = []
    for env, flag in [(None, ["--seed", "42"]), ("42", []), ("0x42", [])]:
        if env is None:
            monkeypatch.delenv("NCAUDIT_SEED", raising=False)
        else:
            monkeypatch.setenv("NCAUDIT_SEED", env)
        out = tmp_path / f"store{len(stores)}"
        assert main(["setup", "--file", str(src), "--out", str(out), "--n", "64",
                     *flag]) == 0
        stores.append({p.relative_to(out): p.read_bytes()
                       for p in (out / "nodes").rglob("*") if p.is_file()})
    assert stores[0] == stores[1] == stores[2]


@pytest.mark.parametrize("seed", [None, "2a"])
def test_only_seeded_setup_draws_keys_from_numpy(tmp_path, monkeypatch, seed):
    # unseeded keys come from the OS CSPRNG: setup's generator then draws
    # only the two padding symbols per source block, never a key
    monkeypatch.delenv("NCAUDIT_SEED", raising=False)
    monkeypatch.setattr(audit.secrets, "token_bytes", lambda n: bytes([0xA5]) * n)
    drawn, default_rng = [], np.random.default_rng

    class Spy:
        def __init__(self, s):
            self._rng = default_rng(s)

        def bytes(self, n):
            drawn.append(n)
            return self._rng.bytes(n)

        def __getattr__(self, name):
            return getattr(self._rng, name)

    monkeypatch.setattr(np.random, "default_rng", Spy)
    src = tmp_path / "input.bin"
    src.write_bytes(b"some file")
    argv = ["setup", "--file", str(src), "--out", str(tmp_path / "s"), "--n", "16"]
    assert main(argv + (["--seed", seed] if seed else [])) == 0
    keys = json.loads((tmp_path / "s" / "keys.json").read_text())
    if seed is None:
        assert keys == {"k_v": "a5" * 16, "k_e": "a5" * 16}
        assert drawn == [2] * 4
    else:
        assert keys["k_v"] != "a5" * 16
        assert drawn == [16, 16] + [2] * 4


@pytest.mark.parametrize("mode", ["exact", "functional"])
def test_one_node_store_repair_names_missing_helpers(tmp_path, mode, capsys):
    src = tmp_path / "input.bin"
    src.write_bytes(bytes(range(200)))
    out = tmp_path / "store"
    assert main(["setup", "--file", str(src), "--out", str(out), "--layout", "random",
                 "--nodes", "1", "--n", "64", "--seed", "3"]) == 0
    assert main(["repair", "--dir", str(out), "--node", "0", "--mode", mode]) == 2
    assert "no helper nodes to rebuild node 0" in capsys.readouterr().err


def _racing_audit(store, barrier, results):
    """One `audit` command, started with the other at the barrier; puts its
    exit code and the counter k of every answer its TPA accepted."""
    accepted, exchange = [], Cluster.exchange

    def logged(self, *args):
        verdict = exchange(self, *args)
        if verdict[0]:
            accepted.append(verdict[2].k)
        return verdict

    Cluster.exchange = logged
    barrier.wait(timeout=60)
    code = main(["audit", "--dir", str(store), "--node", "0", "--count", "3",
                 "--rounds", "30"])
    results.put((code, accepted))


def test_two_commands_on_one_store_never_spend_one_counter_twice(tmp_path, monkeypatch):
    # two audits of one node in two processes: each voucher counter must be
    # spent once, or one mask would hide two aggregates from the TPA
    src = tmp_path / "input.bin"
    src.write_bytes(bytes(range(256)) * 12)
    store = tmp_path / "store"
    assert main(["setup", "--file", str(src), "--out", str(store), "--layout", "random",
                 "--m", "6", "--nodes", "4", "--n", "1024", "--ell", "2",
                 "--seed", "5"]) == 0
    monkeypatch.delenv("NCAUDIT_SEED", raising=False)
    ctx = multiprocessing.get_context("spawn")
    barrier, results = ctx.Barrier(2), ctx.Queue()
    procs = [ctx.Process(target=_racing_audit, args=(store, barrier, results))
             for _ in range(2)]
    for proc in procs:
        proc.start()
    try:
        outcomes = [results.get(timeout=120) for _ in procs]
    finally:
        for proc in procs:
            proc.join(timeout=10)
            if proc.is_alive():
                proc.kill()
    assert [code for code, _ in outcomes] == [0, 0]
    spent = [k for _, ks in outcomes for k in ks]
    assert len(spent) == 60 and sorted(spent) == sorted(set(spent))
    assert json.loads((store / "tpa.json").read_text())["0"] == 60

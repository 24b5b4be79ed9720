"""Command-line front end: setup / audit / corrupt / repair / extract /
scenario.

`setup` builds a file's `cluster.Cluster` with `spawn_cluster`, as the
simulator does, and saves it as a store; every other command on a store
opens a Cluster over it (the user, its nodes and the TPA) and calls the
methods the simulator calls, then writes back what changed.  Each step
returns its record, which `audit` and `scenario` print as JSON lines; the
Cluster keeps none.  Every store file is written beside itself and renamed
over the old one (`_write`).
A command on a store holds an exclusive `flock` on its keys.json, which
only `setup` writes, from before its first read until it exits, so
commands on one store run one at a time.

On-disk layout written by `setup`:
    <dir>/manifest.json
    <dir>/keys.json               (hex keys; a real deployment would split these)
    <dir>/vouchers.json           (node id -> the counter k of its next voucher)
    <dir>/tpa.json                (node id -> the last counter the TPA spent)
    <dir>/nodes/node<i>/rows.bin  (the node's M rows as held in memory: n data
                                   symbols then ell tags each, row-major; their
                                   coefficients are in the manifest only)

Exit codes: 0 success / all audits accepted, 1 at least one audit rejected,
a failed extraction or a voucher counter the TPA has spent (vouchers.json
rolled back behind tpa.json), 2 usage error (a repair with no plan
included), 3 internal failure.
"""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import repair
from .audit import KeyMaterial, NodePayload
from .blocks import FileManifest, SystemParams
from .cluster import Cluster, Fault, SpentCounterError, Tpa, User, spawn_cluster


class UsageError(ValueError):
    pass


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not >= 1")
    return value


def _seed(args) -> int | None:
    """--seed, else NCAUDIT_SEED, both hex (a 0x prefix is allowed); else
    None: OS entropy."""
    text = getattr(args, "seed", None)
    if text is None:
        text = os.environ.get("NCAUDIT_SEED") or None
    return None if text is None else int(text, 16)


# ---------------------------------------------------------------- store I/O

def _write(path: Path, data: bytes) -> None:
    """The store's one writer: write beside path, then rename, so a write
    cut short leaves the old file."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def _save_store(out: Path, payloads, manifest: FileManifest | None = None,
                keys: KeyMaterial | None = None) -> None:
    """Write the given nodes' row matrices, and the manifest and the keys
    if given: a command rewrites only what it changed."""
    out.mkdir(parents=True, exist_ok=True)
    if manifest is not None:
        _write(out / "manifest.json", manifest.to_json().encode())
    if keys is not None:
        _write(out / "keys.json", json.dumps(
            {"k_v": keys.k_v.hex(), "k_e": keys.k_e.hex()}, indent=1).encode())
    for node, payload in payloads.items():
        ndir = out / "nodes" / f"node{node}"
        ndir.mkdir(parents=True, exist_ok=True)
        _write(ndir / "rows.bin", payload.rows.tobytes())


def _load_matrix(path: Path, rows: int, width: int) -> np.ndarray:
    """A writable (rows, width) symbol matrix stored row-major; ValueError
    unless the file has exactly that many bytes."""
    raw = np.fromfile(path, dtype=np.uint8)
    if raw.size != rows * width:
        raise ValueError(f"{path} holds {raw.size} bytes, the manifest implies "
                         f"{rows} x {width}")
    return raw.reshape(rows, width)


def _load_store(root: Path):
    manifest = FileManifest.from_json((root / "manifest.json").read_text())
    kj = json.loads((root / "keys.json").read_text())
    if not (isinstance(kj, dict) and all(isinstance(kj.get(k), str) for k in ("k_v", "k_e"))):
        raise ValueError("keys.json must be an object with hex strings k_v and k_e")
    keys = KeyMaterial(bytes.fromhex(kj["k_v"]), bytes.fromhex(kj["k_e"]))
    params = manifest.params
    if {len(keys.k_v), len(keys.k_e)} != {params.lambda_bits // 8}:
        raise ValueError(f"keys.json keys must be {params.lambda_bits // 8} bytes each")
    payloads = {node: NodePayload(_load_matrix(root / "nodes" / f"node{node}" / "rows.bin",
                                               len(rows), params.n + params.ell), keys.k_e)
                for node, rows in manifest.node_coeffs.items()}
    return manifest, keys, payloads


def _save_counters(path: Path, counters) -> None:
    _write(path, json.dumps({str(node): k for node, k in sorted(counters.items())}).encode())


def _load_counters(path: Path, manifest: FileManifest, least: int):
    """Node id -> counter from a JSON object that maps each of the store's
    node ids, and no other, to an integer >= least; ValueError otherwise."""
    counters = json.loads(path.read_text())
    if not (isinstance(counters, dict)
            and set(counters) == {str(node) for node in manifest.node_coeffs}
            and all(type(k) is int and k >= least for k in counters.values())):
        raise ValueError(f"{path.name} must map each of the store's node ids, "
                         f"and no other, to a counter >= {least}")
    return {int(node): k for node, k in counters.items()}


class _StoreUser(User):
    """The user of a store: each voucher's counter is on disk before the
    node that is to spend it sees the voucher."""

    def __init__(self, keys: KeyMaterial, root: Path):
        super().__init__(keys)
        self.root = root

    def issue(self, manifest: FileManifest, node: int):
        voucher = super().issue(manifest, node)
        _save_counters(self.root / "vouchers.json", self.next_k)
        return voucher


class _StoreTpa(Tpa):
    """The TPA of a store: each counter it spends is on disk before its
    verdict is out."""

    def __init__(self, k_v: bytes, manifest: FileManifest, rng, root: Path):
        super().__init__(k_v, manifest, rng)
        self.root = root
        self.last_spent = _load_counters(root / "tpa.json", manifest, 0)

    def verify(self, chal, proof):
        verdict = super().verify(chal, proof)
        _save_counters(self.root / "tpa.json", self.last_spent)
        return verdict


def _open_cluster(args) -> Cluster:
    """The store under --dir as a Cluster, after checking --node; its
    generator is seeded by _seed.  Locks the store first (module doc)."""
    root = Path(args.dir)
    fcntl.flock(args.held.enter_context(open(root / "keys.json", "rb")), fcntl.LOCK_EX)
    manifest, keys, payloads = _load_store(root)
    if args.node not in manifest.node_coeffs:
        raise UsageError(f"no node {args.node} in this store "
                         f"(nodes {sorted(manifest.node_coeffs)})")
    rng = np.random.default_rng(_seed(args))
    user = _StoreUser(keys, root)
    user.next_k = _load_counters(root / "vouchers.json", manifest, 1)
    cluster = Cluster(manifest, user, payloads, rng)
    cluster.tpa = _StoreTpa(keys.k_v, manifest, cluster.tpa.rng, root)
    return cluster


# --------------------------------------------------------------- commands

def cmd_setup(args) -> int:
    src = Path(args.file)
    if not src.exists():
        raise UsageError(f"no such file: {src}")
    if args.layout == "evenodd4":
        if (args.m, args.nodes) != (4, 4):
            raise UsageError("the evenodd4 layout has m=4 and 4 nodes; "
                             "--m and --nodes need --layout random")
        params = SystemParams(n=args.n, m=4, N=4, M=2, P=3, Q=1, ell=args.ell,
                              lambda_bits=args.lam)
    else:
        # Q rows from each of the P helpers can span the file's m sources
        M, P = -(-args.m // args.nodes) + 1, args.nodes - 1
        params = SystemParams(n=args.n, m=args.m, N=args.nodes, M=M, P=P,
                              Q=min(M, -(-args.m // max(P, 1))), ell=args.ell,
                              lambda_bits=args.lam)
    cluster = spawn_cluster(params, "evenodd4" if args.layout == "evenodd4"
                            else "random_functional", src.read_bytes(), _seed(args),
                            file_id=src.name)
    out = Path(args.out)
    _save_store(out, {i: node.payload for i, node in cluster.nodes.items()},
                cluster.manifest, cluster.user.keys)
    _save_counters(out / "vouchers.json", dict.fromkeys(cluster.nodes, 1))
    _save_counters(out / "tpa.json", dict.fromkeys(cluster.nodes, 0))
    print(f"wrote {args.out}: {params.N} nodes, {params.m} source blocks, "
          f"n={params.n}, ell={params.ell}")
    return 0


def cmd_audit(args) -> int:
    cluster = _open_cluster(args)
    accepted = 0
    for _ in range(args.rounds):
        ok, record = cluster.run_audit_round(args.node, args.count)
        accepted += ok
        print(json.dumps(record))
    print(f"{accepted}/{args.rounds} accepted")
    return 0 if accepted == args.rounds else 1


def cmd_corrupt(args) -> int:
    cluster = _open_cluster(args)
    cluster.inject_fault(args.node, Fault("corrupt_symbol", block=args.block,
                                          position=args.position,
                                          delta=args.delta % 256))
    _save_store(Path(args.dir), {args.node: cluster.nodes[args.node].payload})
    print(f"flipped node {args.node} block {args.block} "
          f"position {args.position} by {args.delta % 256:#04x}")
    return 0


def cmd_repair(args) -> int:
    cluster = _open_cluster(args)
    record = cluster.fail_and_repair(args.node, args.mode)
    # an exact repair restores the node's coefficient rows: the manifest stays
    _save_store(Path(args.dir), {args.node: cluster.nodes[args.node].payload},
                cluster.manifest if args.mode == "functional" else None)
    print(f"rebuilt node {args.node} ({args.mode}) from helpers {record['helpers']}")
    return 0


def cmd_extract(args) -> int:
    from . import extractor
    cluster = _open_cluster(args)
    cluster.inject_fault(args.node, Fault("lie_probability", epsilon=args.epsilon))
    try:
        report = extractor.extract_node(cluster, args.node, cluster.rng)
    except extractor.ExtractionError as e:
        print(f"extraction failed: {e}")
        return 1
    match = np.array_equal(report.rows, cluster.nodes[args.node].payload.rows)
    print(f"extracted {len(report.rows)} blocks in {report.queries} queries "
          f"({report.discarded} discarded); store match: {match}")
    return 0 if match else 1


# the fields a scenario fault may set; Node.apply_fault checks their values
FAULT_FIELDS = {"kind", "block", "position", "delta", "epsilon"}


def cmd_scenario(args) -> int:
    """Run a declarative scenario and print each step's record as a JSON
    line after the last step, so a malformed step (a ValueError naming it)
    prints none; 1 if an audit was rejected."""
    scenario = json.loads(Path(args.file).read_text())
    if not (isinstance(scenario, dict) and isinstance(scenario.get("steps", []), list)):
        raise ValueError("a scenario must be a JSON object with a list of steps")
    params = SystemParams.from_dict(scenario.get("params"))
    if type(scenario.get("seed", 0)) is not int:
        raise ValueError("scenario seed must be an integer")
    for key in ("file_hex", "file_text"):
        if not isinstance(scenario.get(key, ""), str):
            raise ValueError(f"scenario {key} must be a string")
    cluster = spawn_cluster(params, scenario.get("layout", "evenodd4"),
                            bytes.fromhex(scenario.get("file_hex", ""))
                            or scenario.get("file_text", "").encode(),
                            scenario.get("seed", 0))
    records, rejects = [], 0
    for i, step in enumerate(scenario.get("steps", [])):
        if not (isinstance(step, dict) and type(step.get("node")) is int
                and step["node"] in cluster.nodes):
            raise ValueError(f"scenario step {i} must be an object naming a node "
                             f"among {sorted(cluster.nodes)}")
        op, fault = step.get("op"), step.get("fault")
        if op == "audit":
            if type(step.get("count", 1)) is not int:
                raise ValueError(f"scenario step {i}: count must be an integer")
            ok, record = cluster.run_audit_round(step["node"], step.get("count", 1))
            rejects += not ok
        elif (op == "fault" and isinstance(fault, dict) and "kind" in fault
              and fault.keys() <= FAULT_FIELDS):
            record = cluster.inject_fault(step["node"], Fault(**fault))
        elif op == "fault":
            raise ValueError(f"scenario step {i}: a fault needs a kind and no field "
                             f"outside {sorted(FAULT_FIELDS)}")
        elif op == "repair":
            record = cluster.fail_and_repair(step["node"], step.get("mode", "exact"),
                                             step.get("helpers"))
        else:
            raise ValueError(f"scenario step {i}: unknown op {op!r}")
        records.append(record)
    for record in records:
        print(json.dumps(record))
    return 0 if rejects == 0 else 1


# ------------------------------------------------------------------ main

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ncaudit",
                                description="network-coded storage auditing")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("setup", help="encode a file across nodes")
    s.add_argument("--file", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--layout", choices=["evenodd4", "random"], default="evenodd4")
    s.add_argument("--n", type=int, default=1024)
    s.add_argument("--m", type=int, default=4)
    s.add_argument("--nodes", type=_positive_int, default=4)
    s.add_argument("--ell", type=int, default=1)
    s.add_argument("--lam", type=int, default=128)
    s.add_argument("--seed")
    s.set_defaults(func=cmd_setup)

    s = sub.add_parser("audit", help="run audit rounds against one node")
    s.add_argument("--dir", required=True)
    s.add_argument("--node", type=int, default=0)
    s.add_argument("--count", type=int, default=1)
    s.add_argument("--rounds", type=_positive_int, default=1)
    s.add_argument("--seed")
    s.set_defaults(func=cmd_audit)

    s = sub.add_parser("corrupt", help="flip one stored symbol")
    s.add_argument("--dir", required=True)
    s.add_argument("--node", type=int, required=True)
    s.add_argument("--block", type=int, default=0)
    s.add_argument("--position", type=int, default=0)
    s.add_argument("--delta", type=int, default=1)
    s.set_defaults(func=cmd_corrupt)

    s = sub.add_parser("repair", help="rebuild a node from the others")
    s.add_argument("--dir", required=True)
    s.add_argument("--node", type=int, required=True)
    s.add_argument("--mode", choices=["exact", "functional"], default="exact")
    s.add_argument("--seed")
    s.set_defaults(func=cmd_repair)

    s = sub.add_parser("extract", help="recover a node's blocks from audits")
    s.add_argument("--dir", required=True)
    s.add_argument("--node", type=int, default=0)
    s.add_argument("--epsilon", type=float, default=0.0)
    s.add_argument("--seed")
    s.set_defaults(func=cmd_extract)

    s = sub.add_parser("scenario", help="run a declarative fault scenario")
    s.add_argument("--file", required=True)
    s.set_defaults(func=cmd_scenario)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        with contextlib.ExitStack() as args.held:  # what the command holds until it exits
            return args.func(args)
    except SpentCounterError as e:  # no voucher reached the node
        print(f"rejected: {e}; vouchers.json is behind tpa.json")
        return 1
    except (UsageError, OSError, ValueError, repair.PlanningError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # pragma: no cover - defensive
        print(f"internal failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

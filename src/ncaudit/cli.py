"""Command-line front end: setup / audit / corrupt / repair / extract /
bench / scenario.

On-disk layout written by `setup`:
    <dir>/manifest.json
    <dir>/keys.json                 (hex keys; a real deployment would split these)
    <dir>/vouchers.json             (node id -> the counter k of its next voucher)
    <dir>/nodes/node<i>/blocks.bin  (the node's M blocks, n+m symbols each, row-major)
    <dir>/nodes/node<i>/tags.bin    (their M tag rows, ell symbols each)

Exit codes: 0 success / all audits accepted, 1 at least one audit rejected
or a failed extraction, 2 usage error (a repair with no plan included),
3 internal failure.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from . import audit, field, ncrypt, repair, spacemac
from .audit import KeyMaterial, NodePayload
from .blocks import FileManifest, SystemParams
from .cluster import Fault, Node, Tpa, User, make_layout, run_scenario


class UsageError(ValueError):
    pass


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not >= 1")
    return value


def _seed(args) -> int | None:
    """--seed (hex), else NCAUDIT_SEED, else None: OS entropy."""
    if getattr(args, "seed", None) is not None:
        return int(args.seed, 16) if isinstance(args.seed, str) else args.seed
    env = os.environ.get("NCAUDIT_SEED")
    return int(env, 0) if env else None


# ---------------------------------------------------------------- store I/O

def _save_store(out: Path, manifest: FileManifest, keys: KeyMaterial,
                payloads) -> None:
    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest.json").write_text(manifest.to_json())
    (out / "keys.json").write_text(json.dumps(
        {"k_v": keys.k_v.hex(), "k_e": keys.k_e.hex()}, indent=1))
    for node, payload in payloads.items():
        _save_node(out, node, payload)


def _save_node(root: Path, node: int, payload: NodePayload) -> None:
    ndir = root / "nodes" / f"node{node}"
    ndir.mkdir(parents=True, exist_ok=True)
    (ndir / "blocks.bin").write_bytes(payload.blocks.tobytes())
    (ndir / "tags.bin").write_bytes(payload.tags.tobytes())


def _load_matrix(path: Path, rows: int, width: int) -> np.ndarray:
    """A (rows, width) symbol matrix stored row-major; ValueError unless the
    file has exactly that many bytes."""
    raw = path.read_bytes()
    if len(raw) != rows * width:
        raise ValueError(f"{path} holds {len(raw)} bytes, the manifest implies "
                         f"{rows} x {width}")
    return np.frombuffer(raw, dtype=np.uint8).reshape(rows, width).copy()


def _load_store(root: Path):
    manifest = FileManifest.from_json((root / "manifest.json").read_text())
    kj = json.loads((root / "keys.json").read_text())
    if not (isinstance(kj, dict) and all(isinstance(kj.get(k), str) for k in ("k_v", "k_e"))):
        raise ValueError("keys.json must be an object with hex strings k_v and k_e")
    keys = KeyMaterial(bytes.fromhex(kj["k_v"]), bytes.fromhex(kj["k_e"]))
    params = manifest.params
    payloads = {}
    for node, rows in manifest.node_coeffs.items():
        ndir = root / "nodes" / f"node{node}"
        M = rows.shape[0]
        payloads[node] = NodePayload(
            _load_matrix(ndir / "blocks.bin", M, params.n + params.m),
            _load_matrix(ndir / "tags.bin", M, params.ell), keys.k_e)
    return manifest, keys, payloads


def _load_user(root: Path, keys: KeyMaterial, rng) -> User:
    """The user, with the voucher counters of vouchers.json."""
    doc = json.loads((root / "vouchers.json").read_text())
    if not (isinstance(doc, dict) and all(type(k) is int and k >= 1 for k in doc.values())):
        raise ValueError("vouchers.json must map node ids to counters >= 1")
    user = User(keys, rng)
    user.next_k = {int(node): k for node, k in doc.items()}
    return user


def _save_counters(root: Path, next_k) -> None:
    (root / "vouchers.json").write_text(json.dumps(
        {str(node): k for node, k in sorted(next_k.items())}))


def _check_node(manifest: FileManifest, node: int) -> int:
    if node not in manifest.node_coeffs:
        raise UsageError(f"no node {node} in this store "
                         f"(nodes {sorted(manifest.node_coeffs)})")
    return node


# --------------------------------------------------------------- commands

def cmd_setup(args) -> int:
    src = Path(args.file)
    if not src.exists():
        raise UsageError(f"no such file: {src}")
    seed = _seed(args)
    rng = np.random.default_rng(seed)
    if args.layout == "evenodd4":
        params = SystemParams(n=args.n, m=4, N=4, M=2, P=3, Q=1, ell=args.ell,
                              lambda_bits=args.lam)
        code = make_layout("evenodd4", params, rng)
    else:
        params = SystemParams(n=args.n, m=args.m, N=args.nodes,
                              M=-(-args.m // args.nodes) + 1,
                              P=args.nodes - 1, Q=1, ell=args.ell,
                              lambda_bits=args.lam)
        code = make_layout("random_functional", params, rng)
    keys = audit.keygen(params, None if seed is None else rng)
    manifest, payloads = audit.setup_file(src.read_bytes(), params, keys,
                                          code, rng, file_id=src.name)
    _save_store(Path(args.out), manifest, keys, payloads)
    _save_counters(Path(args.out), dict.fromkeys(payloads, 1))
    print(f"wrote {args.out}: {params.N} nodes, {params.m} source blocks, "
          f"n={params.n}, ell={params.ell}")
    return 0


def cmd_audit(args) -> int:
    root = Path(args.dir)
    manifest, keys, payloads = _load_store(root)
    rng = np.random.default_rng(_seed(args))
    p = payloads[_check_node(manifest, args.node)]
    node = Node(args.node, p, manifest.params, rng)
    user, tpa = _load_user(root, keys, rng), Tpa(keys.k_v, manifest, rng)
    accepted = 0
    for _ in range(args.rounds):
        chal = tpa.challenge(args.node, args.count)
        voucher = user.issue(manifest, args.node)
        _save_counters(root, user.next_k)  # before k is used
        tpa.expect(args.node, voucher.k)
        t0 = time.perf_counter()
        proof, _ = node.answer(chal, voucher)
        t1 = time.perf_counter()
        ok, _ = tpa.verify(chal, proof)
        t2 = time.perf_counter()
        accepted += ok
        print(json.dumps({"event": "audit", "node": args.node,
                          "accepted": bool(ok),
                          "gen_ms": round((t1 - t0) * 1e3, 3),
                          "verify_ms": round((t2 - t1) * 1e3, 3)}))
    print(f"{accepted}/{args.rounds} accepted")
    return 0 if accepted == args.rounds else 1


def cmd_corrupt(args) -> int:
    root = Path(args.dir)
    manifest, _, payloads = _load_store(root)
    p = payloads[_check_node(manifest, args.node)]
    node = Node(args.node, p, manifest.params, np.random.default_rng())
    node.apply_fault(Fault("corrupt_symbol", block=args.block,
                           position=args.position, delta=args.delta % 256))
    _save_node(root, args.node, node.payload)
    print(f"flipped node {args.node} block {args.block} "
          f"position {args.position} by {args.delta % 256:#04x}")
    return 0


def cmd_repair(args) -> int:
    root = Path(args.dir)
    manifest, keys, payloads = _load_store(root)
    rng = np.random.default_rng(_seed(args))
    plan, _ = repair.repair_node(manifest, payloads, _check_node(manifest, args.node),
                                 args.mode, None, rng)
    _save_store(root, manifest, keys, payloads)
    print(f"rebuilt node {args.node} ({args.mode}) from helpers {plan.helpers}")
    return 0


def cmd_extract(args) -> int:
    from . import extractor
    root = Path(args.dir)
    manifest, keys, payloads = _load_store(root)
    rng = np.random.default_rng(_seed(args))
    p = payloads[_check_node(manifest, args.node)]
    node = Node(args.node, p, manifest.params,
                np.random.default_rng(rng.integers(2**63)))
    node.apply_fault(Fault("lie_probability", epsilon=args.epsilon))
    user = _load_user(root, keys, rng)
    try:
        report = extractor.extract_node(lambda chal, v: node.answer(chal, v)[0],
                                        manifest, args.node, user, rng,
                                        rounds=args.rounds)
    except extractor.ExtractionError as e:
        print(f"extraction failed: {e}")
        return 1
    finally:
        _save_counters(root, user.next_k)
    match = np.array_equal(report.blocks, p.blocks)
    print(f"extracted {len(report.blocks)} blocks in {report.queries} queries "
          f"({report.discarded} discarded); store match: {match}")
    return 0 if match else 1


def bench_store(n: int, m: int, C: int, ell: int, lam: int, rng):
    """A one-node store of C blocks for timing gen/verify at table scale.

    Block j is a random nonzero multiple of source block j mod m, so the
    store is cheap to build but proofs still verify honestly.  Returns
    (params, keys, manifest, blocks, tags)."""
    params = SystemParams(n=n, m=m, N=1, M=C, P=1, Q=1, ell=ell,
                          lambda_bits=lam)
    keys = audit.keygen(params, rng)
    fid = b"bench"
    sources = np.zeros((m, n + m), dtype=np.uint8)
    sources[:, :n] = rng.integers(0, 256, size=(m, n), dtype=np.uint8)
    sources[:, n:] = np.eye(m, dtype=np.uint8)
    src_tags = spacemac.mac(keys.k_v, fid, sources, ell)
    picks = np.arange(C) % m
    scales = rng.integers(1, 256, size=C, dtype=np.uint8)
    rows = np.zeros((C, m), dtype=np.uint8)
    rows[np.arange(C), picks] = scales
    blocks = field.MUL[scales[:, None], sources[picks]]
    tags = field.MUL[scales[:, None], src_tags[picks]]
    manifest = FileManifest(file_id="bench", params=params, residual_len=0,
                            block_lengths=[n - 2] * m,
                            node_coeffs={0: rows},
                            logical_order=list(range(m)))
    return params, keys, manifest, blocks, tags


def cmd_bench(args) -> int:
    n = args.block_kb * 1024
    m, C, ell = args.m, args.challenge, args.ell
    lam = args.lam
    rng = np.random.default_rng(_seed(args))
    params, keys, manifest, blocks, tags = bench_store(n, m, C, ell, lam, rng)

    gen_times, ver_times = [], []
    gen_mults = ver_mults = 0
    for t in range(args.trials):
        chal = audit.gen_challenge(manifest, 0, C, rng)
        voucher = ncrypt.setup(keys.k_e, keys.k_v, b"bench", 0, t + 1, params)
        with field.counter:
            t0 = time.perf_counter()
            proof, gstats = audit.gen_proof(blocks, tags, chal, keys.k_e, voucher,
                                            params)
            t1 = time.perf_counter()
            ok, vstats = audit.verify_proof(keys.k_v, manifest, chal, proof)
            t2 = time.perf_counter()
        if not ok:
            raise RuntimeError("benchmark proof rejected")
        gen_times.append((t1 - t0) * 1e3)
        ver_times.append((t2 - t1) * 1e3)
        gen_mults, ver_mults = gstats.block_mults, vstats.mults

    overhead = (lam // 8 + ell + 2) / n
    report = {
        "params": {"n": n, "m": m, "C": C, "ell": ell, "lambda_bits": lam},
        "gen_ms_median": round(statistics.median(gen_times), 3),
        "gen_ms_mean": round(statistics.fmean(gen_times), 3),
        "verify_ms_median": round(statistics.median(ver_times), 3),
        "verify_ms_mean": round(statistics.fmean(ver_times), 3),
        "gen_proof_mults": gen_mults,
        "gen_proof_mults_expected": C * n,
        "verify_proof_mults": ver_mults,
        "verify_proof_mults_expected": C * m + ell * (n + m),
        "proof_bytes": len(proof.to_bytes()),
        "overhead_ratio": round(overhead, 6),
    }
    print(json.dumps(report, indent=1))
    print(f"gen_proof median {report['gen_ms_median']} ms, "
          f"verify_proof median {report['verify_ms_median']} ms, "
          f"mults {gen_mults} / {ver_mults}")
    return 0


def cmd_scenario(args) -> int:
    scenario = json.loads(Path(args.file).read_text())
    rejects = run_scenario(scenario, sys.stdout)
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
    s.add_argument("--rounds", type=_positive_int, default=15)
    s.add_argument("--epsilon", type=float, default=0.0)
    s.add_argument("--seed")
    s.set_defaults(func=cmd_extract)

    s = sub.add_parser("bench", help="time gen/verify and count multiplications")
    s.add_argument("--block-kb", type=int, default=4)
    s.add_argument("--m", type=int, default=500)
    s.add_argument("--challenge", type=int, default=300)
    s.add_argument("--ell", type=int, default=10)
    s.add_argument("--lam", type=int, default=80)
    s.add_argument("--trials", type=int, default=100)
    s.add_argument("--seed")
    s.set_defaults(func=cmd_bench)

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
        return args.func(args)
    except (UsageError, FileNotFoundError, ValueError, repair.PlanningError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # pragma: no cover - defensive
        print(f"internal failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

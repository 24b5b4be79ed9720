"""The benchmark's three workloads.

Each takes the Run (operation bookkeeping), a numpy Generator seeded from
--seed (every input comes from it) and the toy flag, and drives ncaudit
through spawn_cluster and the Cluster methods, the dynamics functions, or
the ncaudit CLI in child processes.
"""

import shutil

import numpy as np

from ncaudit import Fault, SystemParams, dynamics, field, spawn_cluster


def _seed(rng) -> int:
    return int(rng.integers(2**32))


def _same_node(before, after) -> bool:
    """Snapshots from Cluster.snapshot_node: equal blocks and tags, bit for bit."""
    (blocks_a, tags_a), (blocks_b, tags_b) = before, after
    return (len(blocks_a) == len(blocks_b) and len(tags_a) == len(tags_b)
            and all(np.array_equal(a.vec, b.vec) for a, b in zip(blocks_a, blocks_b))
            and all(np.array_equal(a, b) for a, b in zip(tags_a, tags_b)))


def _spawn(run, params, data, rng):
    with run.op("setup") as op:
        cluster = spawn_cluster(params, "random_functional", data, seed=_seed(rng))
    return cluster if op.ok else None


def _audit(run, cluster, node, count) -> None:
    """One honest audit round; it must be accepted."""
    ledger = cluster.nodes[node].ledger
    proof0, control0 = ledger.sent["proof_bytes"], ledger.received["control_bytes"]
    with run.op("audit") as op:
        if run.tracer:
            with field.counter:
                accepted, _ = cluster.run_audit_round(node, count)
                op.counts["mults"] = field.counter.value
        else:
            accepted, _ = cluster.run_audit_round(node, count)
        op.stop()
        op.check(accepted, f"honest audit of node {node} rejected")
        op.counts["proof_bytes"] = ledger.sent["proof_bytes"] - proof0
        op.counts["control_bytes"] = ledger.received["control_bytes"] - control0


def paper_audit(run, rng, toy) -> None:
    """The paper's setting: 4 KB blocks, m=500, ell=10, lambda=80, and
    audits that challenge all C=300 blocks of one node, alternating nodes."""
    n, m, M = (256, 20, 12) if toy else (4096, 500, 300)
    params = SystemParams(n=n, m=m, N=2, M=M, P=1, Q=1, ell=10, lambda_bits=80)
    cluster = _spawn(run, params, rng.bytes(m * (n - 2)), rng)
    if cluster is None:
        return

    def round_(r):
        for node in (0, 1):
            _audit(run, cluster, node, M)

    run.rounds(round_)


CHURN_SETUPS = 3


def cluster_churn(run, rng, toy) -> None:
    """The simulator at small scale, with writes beside reads: per round one
    source update, an exact and a functional repair, a one-symbol corruption
    with detection and repair, an audit of every node and a full decode."""
    n, m, N, M, P, Q = (64, 8, 6, 2, 5, 2) if toy else (1024, 16, 6, 4, 5, 4)
    params = SystemParams(n=n, m=m, N=N, M=M, P=P, Q=Q, ell=2, lambda_bits=80)
    width = n - 2
    data = rng.bytes(m * width - int(rng.integers(width)))
    for _ in range(CHURN_SETUPS):
        cluster = _spawn(run, params, data, rng)
        if cluster is None:
            return
    # the benchmark's own model of the file: one chunk per source block
    chunks = [data[i * width:(i + 1) * width] for i in range(m)]
    accepted_after_fault = [0, 0]      # accepted, challenged

    def exact_repair(node, before):
        with run.op("repair_exact") as op:
            cluster.fail_and_repair(node, "exact")
            op.stop()
            op.check(_same_node(before, cluster.snapshot_node(node)),
                     f"exact repair of node {node} changed its blocks or tags")

    def round_(r):
        index = r % m
        new = rng.bytes(int(rng.integers(width // 2, width + 1)))
        with run.op("update") as op:
            payloads = {i: node.payload for i, node in cluster.nodes.items()}
            dynamics.update_block(cluster.manifest, payloads, cluster.user.keys,
                                  index, new, rng)
        if op.ok:
            chunks[index] = new

        node = r % N
        exact_repair(node, cluster.snapshot_node(node))

        # checked by this round's audits of every node and its decode
        with run.op("repair_functional"):
            cluster.fail_and_repair((r + 1) % N, "functional")

        node = (r + 2) % N
        before = cluster.snapshot_node(node)
        fault = Fault("corrupt_symbol", block=int(rng.integers(M)),
                      position=int(rng.integers(n)), delta=int(rng.integers(1, 256)))
        with run.op("detect") as op:
            cluster.inject_fault(node, fault)
            verdicts = [cluster.run_audit_round(node, M)[0] for _ in range(3)]
            op.stop()
            accepted_after_fault[0] += sum(verdicts)
            accepted_after_fault[1] += len(verdicts)
            op.check(not all(verdicts),
                     f"corrupted node {node} passed three full-node audits")
        exact_repair(node, before)

        for node in range(N):
            _audit(run, cluster, node, M)
        with run.op("decode") as op:
            decoded = cluster.decode_current_file()
            op.stop()
            op.check(decoded == b"".join(chunks), "decoded file differs from the model")

    run.rounds(round_)
    run.notes.append(f"full-node audits accepted after a one-symbol corruption: "
                     f"{accepted_after_fault[0]} of {accepted_after_fault[1]}")


CLI_NODES = 4       # evenodd4 layout: 4 nodes of 2 blocks each


def cli_store(run, rng, toy) -> None:
    """The ncaudit CLI, one process per command, on a fresh store per round:
    setup, one audit of every node, corrupt / audit / repair / audit, and
    an extraction from a node that lies 20% of the time."""
    n = 64 if toy else 1024          # 1024 is the CLI default
    source = run.tmp / "input.bin"
    source.write_bytes(rng.bytes(int(rng.integers(2 * (n - 2), 4 * (n - 2) + 1))))

    def cli(kind, args, expect, check=None):
        with run.op(kind) as op:
            code, err = run.cli(args)
            op.stop()
            op.check(code == expect, f"ncaudit {' '.join(map(str, args))} exited "
                                     f"{code}, documented {expect}: {err[-300:]}")
            if check is not None:
                check(op)
        return op.ok

    def node_files(store, node):
        ndir = store / "nodes" / f"node{node}"
        return {p.name: p.read_bytes() for p in sorted(ndir.iterdir())}

    def round_(r):
        store = run.tmp / f"store{r}"
        setup = ["setup", "--file", source, "--out", store, "--ell", "2",
                 "--seed", f"{_seed(rng):x}"]
        if toy:
            setup += ["--n", str(n)]

        def store_bytes(op):
            op.counts["store_bytes"] = sum(p.stat().st_size for p in store.rglob("*")
                                           if p.is_file())

        if not cli("setup", setup, 0, store_bytes):
            return
        for node in range(CLI_NODES):
            cli("audit", ["audit", "--dir", store, "--node", node, "--rounds", "1",
                          "--seed", f"{_seed(rng):x}"], 0)

        node = r % CLI_NODES
        before = node_files(store, node)
        full_audit = ["audit", "--dir", store, "--node", node, "--count", "2",
                      "--rounds", "3", "--seed", f"{_seed(rng):x}"]
        cli("corrupt", ["corrupt", "--dir", store, "--node", node,
                        "--block", int(rng.integers(2)), "--position", int(rng.integers(n)),
                        "--delta", int(rng.integers(1, 256))], 0)
        cli("detect", full_audit, 1)
        cli("repair_exact", ["repair", "--dir", store, "--node", node, "--mode", "exact",
                             "--seed", f"{_seed(rng):x}"], 0,
            lambda op: op.check(node_files(store, node) == before,
                                f"node {node} files differ after exact repair"))
        cli("reaudit", full_audit, 0)
        cli("extract", ["extract", "--dir", store, "--node", (r + 1) % CLI_NODES,
                        "--epsilon", "0.2", "--seed", f"{_seed(rng):x}"], 0)
        shutil.rmtree(store)

    run.rounds(round_)


WORKLOADS = {
    "paper-audit": paper_audit,
    "cluster-churn": cluster_churn,
    "cli-store": cli_store,
}

"""Pinned digests of seeded sessions, one per path.

Two simulator sessions (evenodd4 at n=16, and random_functional at the
benchmark's cluster-churn shape) and one CLI store run every path with
fixed seeds.  Each path feeds what it produced into its own SHA-256:

- setup: the manifest, the keys and every node's stored rows;
- audit: challenge, voucher and proof bytes, verdicts, bytes sent and
  multiplication counts, then the records of the audit rounds and the
  fault, and the ledgers;
- extract: the node, count and seed of each challenge the extractor
  asked, the extracted rows and the query counts;
- repair: the plans' helpers, the rebuilt rows, the new coefficients and
  the ledgers;
- dynamics: an update's tag delta, an append's index, the manifest and the
  stores after them, and the decoded file;
- cli: each command's exit code and output, and every store file after it;
- scenario: the exit code and output of `ncaudit scenario` on a file whose
  steps run every op, every fault kind a scenario can set and both repair
  modes.

The sessions run the paths in that order, so a change to one path also
moves the digests of the paths after it in the same session.  A change that
alters outputs on purpose re-pins the digests it moves and says why.
"""

import contextlib
import hashlib
import io
import json
from unittest import mock

import numpy as np

from ncaudit import dynamics, extractor, field
from ncaudit.blocks import SystemParams
from ncaudit.cli import main
from ncaudit.cluster import Fault, spawn_cluster

EVENODD = SystemParams(n=16, m=4, N=4, M=2, P=3, Q=1, ell=2, lambda_bits=80)
CHURN = SystemParams(n=1024, m=16, N=6, M=4, P=5, Q=4, ell=2, lambda_bits=80)

PINNED = {
    "setup": "2fff06b1734736d86b2f42486696f35d9861877c775e49c6c893c3ad5b03745b",
    "audit": "34a95c045efbe76deeb511bf6db9b8ca15f49897c5574fc41d5de0eb6a1fbab7",
    "extract": "8f1d328496a70b1ca63a47fca9d6f698e3c616de88ce4dde5f53bb75a4f7a927",
    "repair": "93c45c275b1ed12a145233c7534def7dc0235934add50e51cc43445bba2b3539",
    "dynamics": "798afd6d7174deef121460c1aef59563a63a58357ec77bab6804a38be0529377",
    "cli": "6d51201f2f67a5b823abbed12a920f0ba395d147bd264e579c97a99b11df7ae8",
    "scenario": "7a29ce662da524a4200a9173534cbad2eaccaad09cc6a8ab889531bad14e8bc2",
}


class _Digests:
    def __init__(self):
        self.hashes = {path: hashlib.sha256() for path in PINNED}

    def add(self, path, *items):
        h = self.hashes[path]
        for item in items:
            if isinstance(item, np.ndarray):
                h.update(f"{item.dtype}{item.shape}".encode())
                h.update(np.ascontiguousarray(item).tobytes())
            elif isinstance(item, bytes):
                h.update(len(item).to_bytes(8, "big") + item)
            else:
                h.update(json.dumps(item, sort_keys=True, default=int).encode())
            h.update(b"|")

    def hexdigests(self):
        return {path: h.hexdigest() for path, h in self.hashes.items()}


def _ledgers(cluster):
    roles = [cluster.user, cluster.tpa, *(cluster.nodes[i] for i in sorted(cluster.nodes))]
    return [[role.ledger.sent, role.ledger.received] for role in roles]


def _session(d, params, layout, seed):
    rng = np.random.default_rng(seed)
    width = params.n - 2
    data = rng.bytes(params.m * width - 5)
    cluster = spawn_cluster(params, layout, data, seed)
    nodes = sorted(cluster.nodes)
    d.add("setup", cluster.manifest.to_json(), cluster.user.keys.k_v,
          cluster.user.keys.k_e, *(cluster.nodes[i].payload.rows for i in nodes))

    def exchange(node, count):
        with field.counter:
            accepted, proof, voucher, sent = cluster.exchange(node, count)
        chal = cluster.tpa.challenge(node, count, voucher.k)  # the one the node answered
        d.add("audit", chal.to_bytes(), voucher.k, voucher.value, proof.to_bytes(),
              accepted, sent, field.counter.value)
        return accepted

    records = []
    for node in nodes:
        assert exchange(node, 1) and exchange(node, params.M)
        accepted, record = cluster.run_audit_round(node, params.M)
        assert accepted
        records.append(record)
    clean = cluster.nodes[1].payload.rows.copy()
    records.append(cluster.inject_fault(1, Fault("corrupt_symbol", block=0, position=3,
                                                 delta=7)))
    assert not exchange(1, params.M)
    cluster.nodes[1].payload.rows = clean
    d.add("audit", records, _ledgers(cluster))

    asked, exchange_ = [], cluster.exchange
    cluster.exchange = (lambda node, count, seed=None:
                        asked.append((node, count, seed)) or exchange_(node, count, seed))
    cluster.inject_fault(2, Fault("lie_probability", epsilon=0.25))
    report = extractor.extract_node(cluster, 2, rng)
    cluster.inject_fault(2, Fault("lie_probability", epsilon=0.0))
    del cluster.exchange
    assert np.array_equal(report.rows, cluster.nodes[2].payload.rows)
    d.add("extract", *(x for node, count, seed in asked for x in (node, count, seed)),
          report.rows, report.queries, report.discarded)

    for node, mode in ((0, "exact"), (nodes[-1], "functional")):
        before = cluster.nodes[node].payload.rows.copy()
        record = cluster.fail_and_repair(node, mode)
        after = cluster.nodes[node].payload.rows
        assert mode == "functional" or np.array_equal(after, before)
        d.add("repair", record, after, cluster.manifest.node_coeffs[node])
    d.add("repair", _ledgers(cluster))
    assert all(cluster.run_audit_round(node, params.M)[0] for node in nodes)

    payloads = {i: node.payload for i, node in cluster.nodes.items()}
    delta = dynamics.update_block(cluster.manifest, payloads, cluster.user.keys, 1,
                                  b"updated block", rng)
    index = dynamics.append_block(cluster.manifest, payloads, cluster.user.keys,
                                  b"appended block", rng)
    decoded = cluster.decode_current_file()
    chunks = [data[i * width:(i + 1) * width] for i in range(params.m)]
    assert decoded == b"".join(chunks[:1] + [b"updated block"] + chunks[2:]
                               + [b"appended block"])
    d.add("dynamics", delta, index, cluster.manifest.to_json(), decoded,
          *(cluster.nodes[i].payload.rows for i in nodes))
    assert all(cluster.run_audit_round(node, params.M + 1)[0] for node in nodes)


def _cli_session(d, tmp_path, monkeypatch):
    monkeypatch.setenv("NCAUDIT_SEED", "c0")  # corrupt takes no --seed
    src = tmp_path / "input.bin"
    src.write_bytes(np.random.default_rng(7).bytes(500))
    store = tmp_path / "store"
    commands = [
        (["setup", "--file", src, "--out", store, "--layout", "random", "--m", "6",
          "--nodes", "4", "--n", "128", "--ell", "2", "--seed", "2a"], 0),
        *((["audit", "--dir", store, "--node", node, "--count", "2", "--seed", "b"], 0)
          for node in range(4)),
        (["corrupt", "--dir", store, "--node", 1, "--block", 1, "--position", 9,
          "--delta", 77], 0),
        (["audit", "--dir", store, "--node", 1, "--count", 3, "--rounds", 3,
          "--seed", "c"], 1),
        (["repair", "--dir", store, "--node", 1, "--mode", "exact", "--seed", "d"], 0),
        (["audit", "--dir", store, "--node", 1, "--count", 3, "--seed", "e"], 0),
        (["repair", "--dir", store, "--node", 2, "--mode", "functional", "--seed", "f"], 0),
        (["audit", "--dir", store, "--node", 2, "--count", 3, "--seed", "10"], 0),
        (["extract", "--dir", store, "--node", 3, "--epsilon", "0.2", "--seed", "11"], 0),
    ]
    for argv, expect in commands:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([str(a) for a in argv])
        assert code == expect, (argv, out.getvalue())
        files = sorted(p for p in store.rglob("*") if p.is_file())
        d.add("cli", code, out.getvalue().replace(str(store), "STORE"),
              *(x for p in files for x in (p.relative_to(store).as_posix(), p.read_bytes())))


def _scenario_session(d, tmp_path):
    def fault(node, kind, **fields):
        return {"op": "fault", "node": node, "fault": {"kind": kind, **fields}}

    def audit(node, count=EVENODD.M):
        return {"op": "audit", "node": node, "count": count}

    steps = [
        audit(0, 1), audit(1),
        fault(1, "corrupt_symbol", block=0, position=3, delta=7), audit(1),
        {"op": "repair", "node": 1, "mode": "exact", "helpers": [3, 0, 2]}, audit(1),
        fault(2, "delete_block", block=1), audit(2),
        {"op": "repair", "node": 2, "mode": "functional"}, audit(2),
        fault(3, "lie_probability", epsilon=1.0), audit(3),
        fault(3, "lie_probability", epsilon=0.0), audit(3),
    ]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "params": EVENODD.to_dict(), "layout": "evenodd4", "seed": 21,
        "file_hex": np.random.default_rng(21).bytes(50).hex(), "steps": steps}))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["scenario", "--file", str(path)])
    assert code == 1, out.getvalue()
    d.add("scenario", code, out.getvalue())


def _sessions(tmp_path, monkeypatch):
    d = _Digests()
    _session(d, EVENODD, "evenodd4", 16)
    _session(d, CHURN, "random_functional", 1024)
    _cli_session(d, tmp_path, monkeypatch)
    _scenario_session(d, tmp_path)
    return d.hexdigests()


def test_seeded_sessions_match_their_pinned_digests(tmp_path, monkeypatch):
    # no elimination here has the rows to take the table of a pivot's
    # multiples: the churn shape's and the CLI's stay on single products
    with mock.patch.object(field, "_multiples", wraps=field._multiples) as table:
        assert _sessions(tmp_path, monkeypatch) == PINNED
    assert table.call_count == 0


def test_sessions_with_every_pivot_through_a_table_match_their_pinned_digests(
        tmp_path, monkeypatch):
    with mock.patch.multiple(field, TABLE_ROWS=0, TABLE_MIN=1), \
            mock.patch.object(field, "_multiples", wraps=field._multiples) as table:
        assert _sessions(tmp_path, monkeypatch) == PINNED
    assert table.call_count > 100

import gc
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncaudit import cluster as cl, dynamics, extractor
from ncaudit.audit import Proof
from ncaudit.blocks import SystemParams
from ncaudit.cli import main
from ncaudit.cluster import Fault, spawn_cluster

PARAMS = SystemParams(n=16, m=4, N=4, M=2, P=3, Q=1, ell=2, lambda_bits=80)
DATA = bytes(range(56))


@pytest.fixture
def cluster():
    return spawn_cluster(PARAMS, "evenodd4", DATA, seed=1234)


def test_evenodd_layout_contents(cluster):
    # stored blocks are exactly the parity combinations of the four sources
    n = PARAMS.n
    sources = {}
    for j in range(2):  # nodes 0,1 hold the plain source blocks
        sources[j] = cluster.nodes[0].payload.rows[j, :n]
        sources[j + 2] = cluster.nodes[1].payload.rows[j, :n]
    n2 = cluster.nodes[2].payload.rows[:, :n]
    assert np.array_equal(n2[0], sources[0] ^ sources[2])
    assert np.array_equal(n2[1], sources[1] ^ sources[3])
    n3 = cluster.nodes[3].payload.rows[:, :n]
    assert np.array_equal(n3[0], sources[1] ^ sources[2])
    assert np.array_equal(n3[1], sources[0] ^ sources[1] ^ sources[3])


def test_same_seed_same_state():
    a = spawn_cluster(PARAMS, "evenodd4", DATA, seed=7)
    b = spawn_cluster(PARAMS, "evenodd4", DATA, seed=7)
    assert a.manifest.to_json() == b.manifest.to_json()
    for node in a.nodes:
        assert np.array_equal(a.nodes[node].payload.rows,
                              b.nodes[node].payload.rows)
    ra = [a.run_audit_round(n, 2) for n in range(4)]
    rb = [b.run_audit_round(n, 2) for n in range(4)]
    assert ra == rb


def test_unseeded_clusters_share_no_key():
    a, b = (spawn_cluster(PARAMS, "random_functional", DATA, seed=None, file_id="f")
            for _ in range(2))
    keys = [k for c in (a, b) for k in (c.user.keys.k_v, c.user.keys.k_e)]
    assert len(set(keys)) == 4 and a.manifest.file_id == "f"
    assert all(a.run_audit_round(node, 2)[0] for node in a.nodes)
    assert a.decode_current_file() == DATA
    # a seed names the file; without one the caller must
    with pytest.raises(ValueError, match="file_id"):
        spawn_cluster(PARAMS, "evenodd4", DATA, seed=None)


def test_evenodd_requires_matching_params():
    bad = SystemParams(n=16, m=5, N=4, M=2, P=3, Q=1)
    with pytest.raises(ValueError):
        spawn_cluster(bad, "evenodd4", DATA, seed=1)


def test_ledger_conservation(cluster):
    cluster.run_audit_round(0, 2)
    node, tpa = cluster.nodes[0].ledger, cluster.tpa.ledger
    assert tpa.sent["control_bytes"] == node.received["control_bytes"] > 0
    assert node.sent["proof_bytes"] == tpa.received["proof_bytes"] > 0


def test_proof_bytes_per_round(cluster):
    _, record = cluster.run_audit_round(1, 2)
    n, lam, ell = PARAMS.n, PARAMS.lambda_bits, PARAMS.ell
    assert record["proof_bytes"] == (n - 2) + lam // 8 + 2 + ell


def _refusing(answer):
    def refuse(chal, voucher):
        raise ValueError("no such row")
    return refuse


def _one_symbol_short(answer):
    def short(chal, voucher):
        proof = answer(chal, voucher)
        return Proof(proof.c_bar[:-1], proof.nonce, proof.pad, proof.tag)
    return short


@pytest.mark.parametrize("fake, sent", [(_refusing, 0), (_one_symbol_short, -1)])
def test_unreadable_answer_is_a_rejected_record(cluster, fake, sent):
    # the record keeps the bytes the node sent: none, or one fewer than a proof
    full = cluster.run_audit_round(1, 2)[1]["proof_bytes"]
    node = cluster.nodes[1]
    node.answer = fake(node.answer)
    accepted, record = cluster.run_audit_round(1, 2)
    assert not accepted and record["accepted"] is False
    assert record["proof_bytes"] == (full + sent if sent else 0)
    del node.answer
    assert cluster.run_audit_round(1, 2)[0]


def test_extraction_is_charged_to_the_ledgers(cluster):
    report = extractor.extract_node(cluster, 3, np.random.default_rng(4))
    ledgers = [cluster.user.ledger, cluster.tpa.ledger,
               *(node.ledger for node in cluster.nodes.values())]
    for category in cl.LEDGER_CATEGORIES:
        assert (sum(ledger.sent[category] for ledger in ledgers)
                == sum(ledger.received[category] for ledger in ledgers))
    node, tpa, q = cluster.nodes[3].ledger, cluster.tpa.ledger, report.queries
    n, k_bytes, ell = PARAMS.n, PARAMS.lambda_bits // 8, PARAMS.ell
    assert node.sent["proof_bytes"] == tpa.received["proof_bytes"] == q * (
        (n - 2) + k_bytes + 2 + ell)
    assert node.received["voucher_bytes"] == q * (k_bytes + ell)
    assert tpa.received["voucher_bytes"] == q * k_bytes
    # a challenge of one or two entries: file id, entry count, 5 bytes an entry
    head = 8 + len(cluster.manifest.file_id)
    assert q * (head + 5) <= node.received["control_bytes"] <= q * (head + 10)


def test_fault_validation(cluster):
    with pytest.raises(ValueError):
        cluster.inject_fault(0, Fault("corrupt_symbol", block=0, delta=0))
    with pytest.raises(ValueError):
        cluster.inject_fault(0, Fault("corrupt_symbol", block=0, position=20, delta=1))
    with pytest.raises(ValueError):  # the first coefficient: not in the store
        cluster.inject_fault(0, Fault("corrupt_symbol", block=0, position=PARAMS.n,
                                      delta=1))
    with pytest.raises(ValueError):
        cluster.inject_fault(0, Fault("corrupt_symbol", block=2, delta=1))
    with pytest.raises(ValueError):
        cluster.inject_fault(0, Fault("corrupt_symbol", block=0, delta=256))
    with pytest.raises(ValueError):
        cluster.inject_fault(0, Fault("delete_block", block=9))
    with pytest.raises(ValueError):
        cluster.inject_fault(0, Fault("nonsense"))


@pytest.mark.parametrize("kind, field", [("corrupt_symbol", "block"),
                                         ("corrupt_symbol", "position"),
                                         ("corrupt_symbol", "delta"),
                                         ("delete_block", "block"),
                                         ("lie_probability", "epsilon")])
def test_boolean_fault_fields_are_rejected(cluster, kind, field):
    # a bool is an int, and rows[True, position] is the whole row at position;
    # epsilon=True would be taken as 1, a node that always lies
    before = cluster.nodes[1].payload.rows.copy()
    fault = Fault(kind, **{"block": 1, "position": 1, "delta": 5, field: True})
    with pytest.raises(ValueError, match="real number" if field == "epsilon" else "integers"):
        cluster.inject_fault(1, fault)
    assert np.array_equal(cluster.nodes[1].payload.rows, before)
    assert cluster.nodes[1].lie_epsilon == 0.0


@pytest.fixture(scope="module")
def fuzzed_cluster():
    cluster = spawn_cluster(PARAMS, "evenodd4", DATA, seed=1234)
    return cluster, cluster.nodes[2].payload.rows.copy()


_SCALAR = (st.none() | st.booleans() | st.integers(-2, 260) | st.integers()
           | st.floats() | st.text(max_size=4))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.fixed_dictionaries({}, optional=dict.fromkeys(("block", "position", "delta"),
                                                        _SCALAR)))
def test_fuzzed_corruption_changes_one_symbol_or_is_refused(fuzzed_cluster, fields):
    cluster, clean = fuzzed_cluster
    node = cluster.nodes[2]
    node.payload.rows = clean.copy()
    try:
        cluster.inject_fault(2, Fault("corrupt_symbol", **fields))
    except ValueError:
        assert np.array_equal(node.payload.rows, clean)
    else:
        assert np.count_nonzero(node.payload.rows != clean) == 1


def test_delete_block_fault_detected(cluster):
    cluster.inject_fault(2, Fault("delete_block", block=0))
    rejected = sum(not cluster.run_audit_round(2, 2)[0] for _ in range(20))
    assert rejected == 20


def test_replay_fault_after_functional_repair(cluster):
    snap = cluster.nodes[1].payload.rows.copy()
    cluster.fail_and_repair(1, "functional")
    assert cluster.run_audit_round(1, 2)[0]
    cluster.inject_fault(1, Fault("replay_old", snapshot=snap))
    rejected = sum(not cluster.run_audit_round(1, 2)[0] for _ in range(20))
    assert rejected == 20


def test_repair_moves_no_user_data(cluster):
    cluster.fail_and_repair(3, "exact")
    assert cluster.user.ledger.sent["data_block_bytes"] == 0
    assert cluster.user.ledger.received["data_block_bytes"] == 0
    assert cluster.user.ledger.sent["coefficient_bytes"] > 0
    # an exact repair leaves the coefficients the TPA holds as they were;
    # a functional one tells it the node's M new rows of m
    assert cluster.tpa.ledger.received["coefficient_bytes"] == 0
    cluster.fail_and_repair(2, "functional")
    assert cluster.tpa.ledger.received["coefficient_bytes"] == PARAMS.M * PARAMS.m


CHURN_SHAPE = SystemParams(n=64, m=16, N=6, M=4, P=5, Q=4, ell=2, lambda_bits=80)


def _cells(cluster):
    """Every ledger cell: (role, direction, category) -> bytes."""
    roles = {"user": cluster.user, "tpa": cluster.tpa, **cluster.nodes}
    return {(role, direction, category): getattr(r.ledger, direction)[category]
            for role, r in roles.items() for direction in ("sent", "received")
            for category in cl.LEDGER_CATEGORIES}


@pytest.mark.parametrize("mode", ["exact", "functional"])
@pytest.mark.parametrize("params, layout", [(PARAMS, "evenodd4"),
                                            (CHURN_SHAPE, "random_functional")],
                         ids=["evenodd4", "churn"])
def test_repair_moves_exactly_its_shipments_bytes(params, layout, mode):
    # every plan at these shapes sends Q rows from each of the P helpers:
    # user -> helper h its Q x M_h gamma, helper h -> new node Q rows of n
    # data and ell tag symbols, and user -> TPA the M x m new coefficients
    # of a functional repair; every other cell stays
    for node in range(params.N):
        c = spawn_cluster(params, layout, DATA, seed=40 + node)
        before = _cells(c)
        helpers = c.fail_and_repair(node, mode)["helpers"]
        assert helpers == [h for h in range(params.N) if h != node][:params.P]
        want = dict.fromkeys(before, 0)

        def move(src, dst, category, nbytes):
            want[src, "sent", category] += nbytes
            want[dst, "received", category] += nbytes

        for h in helpers:
            move("user", h, "coefficient_bytes", params.Q * len(c.manifest.node_coeffs[h]))
            move(h, node, "data_block_bytes", params.Q * params.n)
            move(h, node, "tag_bytes", params.Q * params.ell)
        if mode == "functional":
            move("user", "tpa", "coefficient_bytes", params.M * params.m)
        after = _cells(c)
        assert {cell: after[cell] - before[cell] for cell in before} == want


def test_cluster_keeps_no_per_step_state():
    # a file is audited for as long as it is stored: 1,000 rounds and 10
    # repairs must leave no record behind (a kept record is about 200 B)
    c = spawn_cluster(PARAMS, "evenodd4", DATA, seed=8)

    def steps(rounds, repairs):
        for r in range(rounds):
            assert c.run_audit_round(r % 4, 2)[0]
        for r in range(repairs):
            c.fail_and_repair(r % 4, "exact")

    tracemalloc.start()
    try:
        steps(100, 4)  # warm-up: caches, counters and ledger entries settle
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        steps(1000, 10)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 32 * 1024, grown


def test_random_functional_decodes_from_subsets():
    from ncaudit import field
    from ncaudit.blocks import decode_file
    c = spawn_cluster(PARAMS, "random_functional", DATA, seed=55)
    decoded = 0
    for drop in range(4):
        keep = [n for n in range(4) if n != drop]
        rows = np.concatenate([np.hstack([c.nodes[n].payload.rows[:, :PARAMS.n],
                                          c.manifest.node_coeffs[n]]) for n in keep])
        if field.matrix_rank(rows[:, PARAMS.n:]) == PARAMS.m:
            assert decode_file(rows, c.manifest) == DATA
            decoded += 1
    assert decoded == 4  # this seed's layout spans the file without any one node


def test_scenario_runner(tmp_path, capsys):
    scenario = {
        "params": {"n": 16, "m": 4, "N": 4, "M": 2, "P": 3, "Q": 1,
                   "ell": 2, "lambda_bits": 80},
        "layout": "evenodd4",
        "file_text": "scenario payload text here!",
        "seed": 3,
        "steps": [
            {"op": "audit", "node": 0, "count": 2},
            {"op": "fault", "node": 1,
             "fault": {"kind": "corrupt_symbol", "block": 0,
                       "position": 2, "delta": 9}},
            {"op": "audit", "node": 1, "count": 2},
            {"op": "repair", "node": 1, "mode": "exact"},
            {"op": "audit", "node": 1, "count": 2},
        ],
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    assert main(["scenario", "--file", str(path)]) == 1  # one rejected audit
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["event"] for r in records] == ["audit", "fault", "audit", "repair", "audit"]
    assert [r["accepted"] for r in records if r["event"] == "audit"] == [True, False, True]


def test_decode_skips_corrupted_block(cluster):
    cluster.inject_fault(3, Fault("corrupt_symbol", block=1, position=2, delta=5))
    assert cluster.decode_current_file() == DATA


def test_decode_after_update_uses_stale_tags(cluster):
    payloads = {i: node.payload for i, node in cluster.nodes.items()}
    dynamics.update_block(cluster.manifest, payloads, cluster.user.keys, 2,
                          b"fresh", np.random.default_rng(1))
    cluster.inject_fault(0, Fault("corrupt_symbol", block=0, position=0, delta=1))
    assert cluster.decode_current_file() == DATA[:28] + b"fresh" + DATA[42:]


def test_all_exports_resolve():
    import ncaudit
    for name in ncaudit.__all__:
        assert getattr(ncaudit, name) is not None, name


def test_audit_repair_and_decode_leave_numpy_ma_unimported():
    # numpy.ma costs tens of milliseconds to import, and a plain np.unique
    # imports it lazily: every CLI command would pay that
    code = """
import sys
from ncaudit import SystemParams, spawn_cluster
params = SystemParams(n=16, m=4, N=4, M=2, P=3, Q=1, ell=2, lambda_bits=80)
c = spawn_cluster(params, "evenodd4", bytes(range(56)), seed=1)
assert all(c.run_audit_round(node, 2)[0] for node in range(4))
c.fail_and_repair(0, "exact")
c.fail_and_repair(1, "functional")
assert c.decode_current_file() == bytes(range(56))
print("numpy.ma" in sys.modules)
"""
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={"PYTHONPATH": str(root / "src")}, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["False"]

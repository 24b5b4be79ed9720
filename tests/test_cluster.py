import gc
import json
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncaudit import cluster as cl, dynamics, extractor, field, prf, repair
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


@pytest.mark.parametrize("count", [0, 3])
def test_an_audit_of_a_count_outside_the_rows_is_refused_before_its_voucher(cluster, count):
    # the exchange checks the count first, so a refused audit issues,
    # announces and charges nothing
    before, issued = _cells(cluster), dict(cluster.user.next_k)
    with pytest.raises(ValueError, match=r"count must be in \[1, 2\]"):
        cluster.run_audit_round(1, count)
    assert _cells(cluster) == before and cluster.user.next_k == issued
    assert cluster.tpa.issued_upto == {}


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
    # a challenge: file id, count and a lambda/8-byte seed
    assert node.received["control_bytes"] == q * (8 + len(cluster.manifest.file_id) + k_bytes)


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


@pytest.mark.parametrize("params, layout, epsilon", [
    (PARAMS, "evenodd4", 0.0),
    (PARAMS, "evenodd4", 0.5),
    (SystemParams(n=32, m=8, N=4, M=8, P=3, Q=1, ell=2, lambda_bits=80), "random_functional",
     0.3),
], ids=["evenodd4", "evenodd4-lying", "random"])
def test_extraction_moves_exactly_its_exchanges_bytes(params, layout, epsilon):
    # each query is one exchange: TPA -> node its challenge of 8 + |file id|
    # + k bytes, user -> node k and the voucher, user -> TPA k, node -> TPA
    # one proof of n + k + ell symbols, lie or not; no data, tag or
    # coefficient byte moves
    c = spawn_cluster(params, layout, DATA, seed=21)
    c.inject_fault(1, Fault("lie_probability", epsilon=epsilon))
    before = _cells(c)
    queries = extractor.extract_node(c, 1, np.random.default_rng(3)).queries
    after = _cells(c)
    k = params.lambda_bits // 8
    assert len(c.manifest.file_id) == 21
    want = dict.fromkeys(before, 0)
    for src, dst, category, nbytes in [
            ("tpa", 1, "control_bytes", queries * (8 + 21 + k)),
            ("user", 1, "voucher_bytes", queries * (k + params.ell)),
            ("user", "tpa", "voucher_bytes", queries * k),
            (1, "tpa", "proof_bytes", queries * (params.n + k + params.ell))]:
        want[src, "sent", category] += nbytes
        want[dst, "received", category] += nbytes
    assert {cell: after[cell] - before[cell] for cell in before} == want


@pytest.mark.parametrize("params, layout, count, control", [
    (PARAMS, "evenodd4", 1, 39), (PARAMS, "evenodd4", 2, 39),
    (SystemParams(n=64, m=6, N=3, M=4, P=2, Q=2, ell=3, lambda_bits=128),
     "random_functional", 3, 45),
], ids=["evenodd4-1", "evenodd4-2", "random-lambda128"])
def test_an_audit_moves_exactly_its_exchanges_bytes(params, layout, count, control):
    # one exchange: TPA -> node a challenge of 8 + |file id| + k bytes
    # whatever its count, 39 at a seeded cluster's 21-byte file id and
    # lambda = 80, as at paper scale; user -> node k and the voucher, user
    # -> TPA k, node -> TPA one proof of n + k + ell symbols
    c = spawn_cluster(params, layout, DATA, seed=22)
    before = _cells(c)
    assert c.run_audit_round(1, count)[0]
    after = _cells(c)
    k = params.lambda_bits // 8
    assert control == 8 + len(c.manifest.file_id) + k
    want = dict.fromkeys(before, 0)
    for src, dst, category, nbytes in [
            ("tpa", 1, "control_bytes", control),
            ("user", 1, "voucher_bytes", k + params.ell),
            ("user", "tpa", "voucher_bytes", k),
            (1, "tpa", "proof_bytes", params.n + k + params.ell)]:
        want[src, "sent", category] += nbytes
        want[dst, "received", category] += nbytes
    assert {cell: after[cell] - before[cell] for cell in before} == want


@pytest.mark.parametrize("params, layout, count", [
    (PARAMS, "evenodd4", 2), (PARAMS, "evenodd4", 1),
    (SystemParams(n=64, m=6, N=3, M=4, P=2, Q=2, ell=3, lambda_bits=128),
     "random_functional", 4),
    (SystemParams(n=64, m=6, N=3, M=4, P=2, Q=2, ell=3, lambda_bits=128),
     "random_functional", 3),
], ids=["evenodd4-full", "evenodd4-partial", "random-full", "random-partial"])
def test_an_audit_derives_exactly_its_keystreams(params, layout, count):
    # once the MAC vectors are cached, one exchange reads 7 keystreams for
    # a full challenge: the voucher's mask (F3) and pad (F4), the
    # challenge's seed (F2), the node's alphas (F2) and mask (F3), and the
    # TPA's alphas (F2) and pad (F4).  A partial one adds the rows' ranks
    # (F2) at each end, 9 in all
    c = spawn_cluster(params, layout, DATA, seed=22)
    assert c.run_audit_round(1, count)[0]  # caches the MAC vectors
    with mock.patch.object(prf, "eval_range", wraps=prf.eval_range) as derive:
        assert c.run_audit_round(1, count)[0]
    full = count == len(c.manifest.node_coeffs[1])
    assert Counter(call.args[1] for call in derive.call_args_list) \
        == {prf.F2: 3 if full else 5, prf.F3: 2, prf.F4: 2}


# every kernel form a product can take, forced: the forms as measured,
# every 2-D product by Four Russians, or by one combination per output row
KERNEL_FORMS = {"measured": {"GATHER_MAX": field.GATHER_MAX},
                "four_russians": {"GATHER_MAX": 1, "FOUR_RUSSIANS_MIN": 1},
                "per_row": {"GATHER_MAX": 1, "FOUR_RUSSIANS_MIN": 1 << 30}}


@pytest.mark.parametrize("mode", ["exact", "functional"])
@pytest.mark.parametrize("params, layout", [(PARAMS, "evenodd4"),
                                            (CHURN_SHAPE, "random_functional")],
                         ids=["evenodd4", "churn"])
def test_repair_counts_exactly_its_products(params, layout, mode):
    # a gamma_h whose rows are unit vectors selects stored rows, which are
    # copied: the identity of a helper storing at most Q rows, direct
    # copies, or {0,1} rows like evenodd4's.  Any other gamma_h is
    # multiplied: the planner takes gamma_h · C_h, rows(gamma_h)·M_h·m, for
    # each helper of each gamma it tries (repair._sent_rows), and the helper
    # ships gamma_h · its rows, Q·M_h·(n+ell).  A functional planner also
    # takes theta · the sent rows' coefficients, M·P·Q·m; elimination is
    # uncounted.  The new node combines theta · the P·Q shipped rows,
    # M·P·Q·(n+ell).  Every kernel form counts that and builds the same rows
    width, sent_rows = params.n + params.ell, params.P * params.Q
    for node in range(params.N):
        built = []
        for form, limits in KERNEL_FORMS.items():
            c = spawn_cluster(params, layout, DATA, seed=40 + node)
            with mock.patch.object(repair, "_sent_rows", wraps=repair._sent_rows) as sent, \
                    mock.patch.multiple(field, **limits), field.counter:
                c.fail_and_repair(node, mode)
                count = field.counter.value
            gammas = [call.args[1] for call in sent.call_args_list]
            stored = {h: len(c.manifest.node_coeffs[h]) for h in gammas[-1]}
            assert [len(g) for g in gammas[-1].values()] == [params.Q] * params.P
            planner = sum(len(g) * stored[h] * params.m for gamma in gammas
                          for h, g in gamma.items() if not _selects(g))
            if mode == "functional":
                planner += params.M * sent_rows * params.m
            shipments = sum(params.Q * stored[h] * width for h, g in gammas[-1].items()
                            if not _selects(g))
            theta = params.M * sent_rows * width
            assert count == planner + shipments + theta, form
            if layout == "random_functional":
                # every helper ships its Q = M_h rows unmixed: theta's
                # products alone, M·P·Q·(n+ell), and a functional repair's
                # M·(sum M_h)·m
                assert len(gammas) == 1
                assert count == theta + (mode == "functional") * params.M * sent_rows * params.m
            built.append(c.nodes[node].payload.rows)
        assert all(np.array_equal(rows, built[0]) for rows in built)


def _selects(gamma_rows):
    """Whether each row holds one 1 and zeros elsewhere."""
    return bool(np.isin(gamma_rows, (0, 1)).all() and (gamma_rows.sum(axis=1) == 1).all())


@pytest.mark.parametrize("epsilon", [0.0, 0.5], ids=["honest", "lying"])
def test_extraction_counts_exactly_its_products(epsilon):
    # each query is one exchange: the user's voucher, the MAC of its
    # n-2 mask symbols, (n-2)·ell; the node's proof, C·(n+ell) for the C
    # blocks its challenge names, lie or not; and the TPA's verify, ell·n
    # for the data MAC and C·ell for the coefficient tags, after one table
    # build of M·m·ell on the node's first verify.  The settled answers are
    # solved uncounted and checked once, M·(n+m)·ell
    n, m, M, ell = PARAMS.n, PARAMS.m, PARAMS.M, PARAMS.ell
    c = spawn_cluster(PARAMS, "evenodd4", DATA, seed=21)
    c.inject_fault(1, Fault("lie_probability", epsilon=epsilon))
    exchange, challenged = c.exchange, []

    def recorded(node, count, seed=None):
        challenged.append(count)
        return exchange(node, count, seed)

    c.exchange = recorded
    with field.counter:
        queries = extractor.extract_node(c, 1, np.random.default_rng(3)).queries
        count = field.counter.value
    C = sum(challenged)
    assert len(challenged) == queries and (epsilon == 0) == (queries == 2 * M)
    assert count == (queries * (n - 2) * ell + C * (n + ell) + queries * ell * n + C * ell
                     + M * m * ell + M * (n + m) * ell)


@pytest.mark.parametrize("params, layout", [(PARAMS, "evenodd4"),
                                            (CHURN_SHAPE, "random_functional")],
                         ids=["evenodd4", "churn"])
def test_update_and_decode_count_exactly_their_products(params, layout):
    # verify_block over the K stored rows MACs each under the MAC vectors
    # with the deltas folded in, K·(n+m)·ell, which the fold's XORs leave
    # unchanged.  An update then combines the K verified rows into the old
    # source, K·(n+m), MACs the difference, ell·(n+m), and patches each
    # node's M_i rows, M_i·n; a decode's solve is uncounted
    n, m, ell = params.n, params.m, params.ell
    c = spawn_cluster(params, layout, DATA, seed=17)
    payloads = {i: node.payload for i, node in c.nodes.items()}
    K = sum(len(rows) for rows in c.manifest.node_coeffs.values())
    width = n - 2
    chunks = [DATA[i * width:(i + 1) * width] for i in range(m)]
    rng = np.random.default_rng(17)
    for index in (1, 3):
        with field.counter:
            dynamics.update_block(c.manifest, payloads, c.user.keys, index, b"new", rng)
            count = field.counter.value
        # every node is patched, so the patches' Σ M_i·n is K·n
        assert count == K * (n + m) * ell + K * (n + m) + ell * (n + m) + K * n
        chunks[index] = b"new"
    with field.counter:
        assert c.decode_current_file() == b"".join(chunks)
        count = field.counter.value
    assert count == K * (n + m) * ell


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
                          env={"PYTHONPATH": str(root / "src"),
                               "PYTHONDONTWRITEBYTECODE": "1"}, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["False"]

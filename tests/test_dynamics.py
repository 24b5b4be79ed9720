import numpy as np
import pytest

from ncaudit import dynamics
from ncaudit.audit import NodePayload, verified_rows
from ncaudit.blocks import FileManifest, SystemParams
from ncaudit.cluster import Fault, spawn_cluster

PARAMS = SystemParams(n=16, m=4, N=4, M=2, P=3, Q=1, ell=2, lambda_bits=80)
DATA = bytes(range(56))  # 4 blocks of 14


@pytest.fixture
def cluster():
    return spawn_cluster(PARAMS, "evenodd4", DATA, seed=42)


def _payloads(cluster):
    return {i: cluster.nodes[i].payload for i in cluster.nodes}


def _file_state(cluster):
    """The manifest's JSON and every node's store, shape and bytes."""
    return cluster.manifest.to_json(), {i: (p.rows.shape, p.rows.tobytes())
                                        for i, p in _payloads(cluster).items()}


def _audit_all(cluster):
    return all(cluster.run_audit_round(node, 2)[0] for node in range(4))


def test_append_leaves_old_tags_alone(cluster, rng):
    payloads = _payloads(cluster)
    before = {i: payloads[i].rows.copy() for i in payloads}
    dynamics.append_block(cluster.manifest, {i: payloads[i] for i in (1, 2)},
                          cluster.user.keys, b"appended", rng)
    for i in (0, 3):  # nodes not given the block: stores bit-identical
        assert np.array_equal(before[i], payloads[i].rows)
    for i in (1, 2):  # given it: old rows and tags bit-identical, one copy added
        assert np.array_equal(before[i], payloads[i].rows[:-1])
    assert np.array_equal(payloads[1].rows[-1], payloads[2].rows[-1])
    assert _audit_all(cluster)
    assert cluster.decode_current_file() == DATA + b"appended"


def test_functional_repair_after_append_rebuilds_every_row(cluster, rng):
    # a default append gives every node a third row; the rebuilt node must
    # hold three as well, not params.M
    dynamics.append_block(cluster.manifest, _payloads(cluster), cluster.user.keys,
                          b"appended", rng)
    cluster.fail_and_repair(1, "functional")
    assert cluster.manifest.node_coeffs[1].shape == (3, PARAMS.m + 1)
    assert cluster.nodes[1].payload.rows.shape == (3, PARAMS.n + PARAMS.ell)
    assert cluster.nodes[1].params.m == cluster.manifest.params.m == PARAMS.m + 1
    assert all(cluster.run_audit_round(node, 3)[0] for node in range(4))
    assert cluster.decode_current_file() == DATA + b"appended"


def test_manifest_reloads_after_appends_outgrow_m_times_n(rng):
    # from the fifth append on, m = 9 sources exceed M*N = 8; each node then
    # holds 8 rows, and the file still decodes and audits
    cluster = spawn_cluster(PARAMS, "evenodd4", DATA, seed=3)
    for i in range(6):
        dynamics.append_block(cluster.manifest, _payloads(cluster), cluster.user.keys,
                              bytes([i]) * 3, rng)
        text = cluster.manifest.to_json()
        assert FileManifest.from_json(text).to_json() == text
    assert cluster.decode_current_file() == DATA + b"".join(bytes([i]) * 3 for i in range(6))
    assert all(cluster.run_audit_round(node, 8)[0] for node in range(4))


@pytest.mark.parametrize("data, nodes, error", [
    (bytes(15), [0, 1, 2, 3], "exceeds 14 bytes"),
    (b"new", [], "at least one node"),
    (b"new", [0, 4], r"nodes \[4\] are not in this file"),
], ids=["data-too-long", "new-block-placed-nowhere", "unknown-node"])
def test_refused_append_leaves_the_file_unchanged(cluster, rng, data, nodes, error):
    # the data and the nodes are checked before the manifest or a store changes
    before = _file_state(cluster)
    payloads = {i: p for i, p in _payloads(cluster).items() if i in nodes}
    if 4 in nodes:  # a node the manifest lacks, holding a copy of node 0's store
        payloads[4] = NodePayload(payloads[0].rows.copy(), payloads[0].k_e)
    with pytest.raises(ValueError, match=error):
        dynamics.append_block(cluster.manifest, payloads, cluster.user.keys,
                              data, rng)
    assert _file_state(cluster) == before
    assert cluster.decode_current_file() == DATA
    assert _audit_all(cluster)


@pytest.mark.parametrize("position", ["1", True, -1, 5])
def test_refused_insert_leaves_the_file_unchanged(cluster, rng, position):
    # positions 0..4 exist in a file of 4 blocks; any other is refused
    # before the append
    before = _file_state(cluster)
    with pytest.raises(ValueError):
        dynamics.insert_block(cluster.manifest, _payloads(cluster), cluster.user.keys,
                              position, b"new", rng)
    assert _file_state(cluster) == before
    assert cluster.decode_current_file() == DATA


@pytest.mark.parametrize("update", [dynamics.update_block, dynamics.delete_block])
@pytest.mark.parametrize("index", [-2, -1, 4, 1.0, True, "1", None,
                                   pytest.param("deleted", id="deleted-1")])
def test_refused_update_index_leaves_the_file_unchanged(cluster, rng, update, index):
    # source indices 0..3 exist in a file of 4 blocks; -2 once patched
    # every node and read a padding symbol as its coefficient.  A deleted
    # index once patched every node with data no decode showed, and a
    # second delete rewrote the file before it failed
    expect = DATA
    if index == "deleted":
        index, expect = 1, DATA[:14] + DATA[28:]
        dynamics.delete_block(cluster.manifest, _payloads(cluster), cluster.user.keys,
                              index, rng)
    before = _file_state(cluster)
    deltas = cluster.manifest.deltas.copy()
    args = (index, b"new") if update is dynamics.update_block else (index,)
    with pytest.raises(ValueError, match=f"index {index!r} "):
        update(cluster.manifest, _payloads(cluster), cluster.user.keys, *args, rng)
    assert _file_state(cluster) == before
    assert np.array_equal(cluster.manifest.deltas, deltas)
    assert _audit_all(cluster) and cluster.decode_current_file() == expect


def test_update_patches_and_verifies(cluster, rng):
    payloads = _payloads(cluster)
    dynamics.update_block(cluster.manifest, payloads, cluster.user.keys,
                          1, b"fresh-content!", rng)
    # the manifest holds a running adjustment for source 1 alone
    assert cluster.manifest.deltas.any(axis=1).tolist() == [False, True, False, False]
    assert _audit_all(cluster)
    expect = DATA[:14] + b"fresh-content!" + DATA[28:]
    assert cluster.decode_current_file() == expect


def test_stale_node_rejected_after_update(cluster, rng):
    payloads = _payloads(cluster)
    stale = 2
    live = {i: p for i, p in payloads.items() if i != stale}
    dynamics.update_block(cluster.manifest, live, cluster.user.keys,
                          0, b"new-v2", rng)
    for node in live:
        assert cluster.run_audit_round(node, 2)[0]
    rejected = sum(not cluster.run_audit_round(stale, 2)[0] for _ in range(20))
    assert rejected == 20


def test_double_update_same_block(cluster, rng):
    payloads = _payloads(cluster)
    dynamics.update_block(cluster.manifest, payloads, cluster.user.keys,
                          3, b"v2", rng)
    dynamics.update_block(cluster.manifest, payloads, cluster.user.keys,
                          3, b"v3-final", rng)
    assert _audit_all(cluster)
    assert cluster.decode_current_file() == DATA[:42] + b"v3-final"


def test_insert_reorders_logically(cluster, rng):
    payloads = _payloads(cluster)
    dynamics.insert_block(cluster.manifest, payloads, cluster.user.keys,
                          0, b"head", rng)
    assert cluster.decode_current_file() == b"head" + DATA
    assert _audit_all(cluster)


def test_delete_tombstones(cluster, rng):
    payloads = _payloads(cluster)
    dynamics.delete_block(cluster.manifest, payloads, cluster.user.keys,
                          0, rng)
    assert cluster.decode_current_file() == DATA[14:]
    assert _audit_all(cluster)


def test_insert_delete_roundtrip(cluster, rng):
    payloads = _payloads(cluster)
    index = dynamics.insert_block(cluster.manifest, payloads, cluster.user.keys,
                                  2, b"tmp", rng)
    assert index == PARAMS.m
    dynamics.delete_block(cluster.manifest, payloads, cluster.user.keys,
                          index, rng)
    assert cluster.decode_current_file() == DATA
    assert _audit_all(cluster)


def test_update_does_not_spread_corruption(cluster, rng):
    # the old block is rebuilt only from rows whose tags verify, so a
    # corrupted copy cannot leak into the patch of every other node
    cluster.inject_fault(0, Fault("corrupt_symbol", block=0, position=1, delta=3))
    dynamics.update_block(cluster.manifest, _payloads(cluster), cluster.user.keys,
                          0, b"new-data", rng)
    cluster.fail_and_repair(0, "exact")
    assert _audit_all(cluster)
    assert cluster.decode_current_file() == b"new-data" + DATA[14:]


def test_store_stays_two_matrices(cluster, rng):
    # setup, repair, append, update and a replay fault all keep each node's
    # store as one (M_i, n+ell) uint8 matrix, data symbols then tags, and
    # the blocks' (M_i, m) coefficients in the manifest only
    def check():
        m = cluster.manifest.params.m
        for i, node in cluster.nodes.items():
            M = cluster.manifest.node_coeffs[i].shape[0]
            assert cluster.manifest.node_coeffs[i].shape == (M, m)
            assert node.payload.rows.shape == (M, PARAMS.n + PARAMS.ell)
            assert node.payload.rows.dtype == np.uint8

    check()
    cluster.fail_and_repair(1, "exact")
    check()
    payloads = _payloads(cluster)
    dynamics.append_block(cluster.manifest, {i: payloads[i] for i in (2, 3)},
                          cluster.user.keys, b"more", rng)
    check()
    dynamics.update_block(cluster.manifest, _payloads(cluster), cluster.user.keys,
                          4, b"again", rng)
    check()
    snap = cluster.nodes[1].payload.rows.copy()
    cluster.fail_and_repair(1, "functional")
    cluster.inject_fault(1, Fault("replay_old", snapshot=snap))
    check()
    assert cluster.decode_current_file() == DATA + b"again"


def test_node_missing_a_challenged_row_fails_its_audit(rng):
    # a node that replays a store from before an append lacks the appended
    # row; an audit that challenges it is rejected, not an error
    cluster = spawn_cluster(PARAMS, "evenodd4", DATA, seed=1)
    snap = cluster.nodes[1].payload.rows.copy()
    dynamics.append_block(cluster.manifest, _payloads(cluster), cluster.user.keys,
                          b"appended", rng)
    cluster.inject_fault(1, Fault("replay_old", snapshot=snap))
    records = [cluster.run_audit_round(1, 3)[1] for _ in range(10)]
    assert [r["accepted"] for r in records] == [False] * 10
    assert all(r["proof_bytes"] == 0 for r in records)
    assert all(cluster.run_audit_round(node, 3)[0] for node in (0, 2, 3))


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_interleaved_writes_and_repairs_keep_every_row_verified(seed):
    # exact and functional repairs, appends to a seeded subset of the nodes
    # and updates, in a seeded order: after every step each stored row's
    # tags verify and the file decodes
    params = SystemParams(n=32, m=4, N=4, M=3, P=3, Q=3, ell=2, lambda_bits=80)
    rng = np.random.default_rng(seed)
    chunks = [rng.bytes(30) for _ in range(params.m)]
    cluster = spawn_cluster(params, "random_functional", b"".join(chunks), seed=seed)
    keys = cluster.user.keys

    def append():
        payloads = _payloads(cluster)
        given = rng.choice(4, size=int(rng.integers(1, 5)), replace=False)
        chunks.append(rng.bytes(int(rng.integers(1, 31))))
        dynamics.append_block(cluster.manifest, {int(i): payloads[int(i)] for i in given},
                              keys, chunks[-1], rng)

    def update():
        index = int(rng.integers(len(chunks)))
        chunks[index] = rng.bytes(int(rng.integers(0, 31)))
        dynamics.update_block(cluster.manifest, _payloads(cluster), keys, index,
                              chunks[index], rng)

    steps = {"exact": lambda: cluster.fail_and_repair(int(rng.integers(4)), "exact"),
             "functional": lambda: cluster.fail_and_repair(int(rng.integers(4)),
                                                            "functional"),
             "append": append, "update": update}
    order = list(steps) * 3
    rng.shuffle(order)
    for step in order:
        steps[step]()
        payloads = _payloads(cluster)
        stored = sum(p.rows.shape[0] for p in payloads.values())
        assert len(verified_rows(keys.k_v, cluster.manifest, payloads)) == stored, step
        assert cluster.decode_current_file() == b"".join(chunks), step
        assert all(cluster.run_audit_round(i, len(cluster.manifest.node_coeffs[i]))[0]
                   for i in cluster.nodes), step

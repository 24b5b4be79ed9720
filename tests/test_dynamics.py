import numpy as np
import pytest

from ncaudit import dynamics
from ncaudit.blocks import SystemParams
from ncaudit.cluster import Fault, spawn_cluster

PARAMS = SystemParams(n=16, m=4, N=4, M=2, P=3, Q=1, ell=2, lambda_bits=80)
DATA = bytes(range(56))  # 4 blocks of 14


@pytest.fixture
def cluster():
    return spawn_cluster(PARAMS, "evenodd4", DATA, seed=42)


def _payloads(cluster):
    return {i: cluster.nodes[i].payload for i in cluster.nodes}


def _audit_all(cluster):
    return all(cluster.run_audit_round(node, 2)[0] for node in range(4))


def test_append_leaves_old_tags_alone(cluster, rng):
    payloads = _payloads(cluster)
    before = {i: payloads[i].tags.copy() for i in payloads}
    dynamics.append_block(cluster.manifest, payloads, cluster.user.keys,
                          b"appended", rng, placements={1: None, 2: None})
    for i in (0, 3):  # untouched nodes: tags bit-identical
        assert np.array_equal(before[i], payloads[i].tags)
    assert _audit_all(cluster)
    assert cluster.decode_current_file() == DATA + b"appended"


def test_append_mixed_placement(cluster, rng):
    payloads = _payloads(cluster)
    # node 3 stores old-block-0 + 5*new instead of a plain copy
    mix = np.zeros(3, dtype=np.uint8)
    mix[0], mix[2] = 1, 5
    dynamics.append_block(cluster.manifest, payloads, cluster.user.keys,
                          b"mix", rng, placements={3: mix})
    assert _audit_all(cluster)
    assert cluster.decode_current_file() == DATA + b"mix"


def test_append_with_donation(cluster, rng):
    payloads = _payloads(cluster)
    dynamics.append_block(cluster.manifest, payloads, cluster.user.keys,
                          b"dn", rng, placements={0: None},
                          donations=[(1, 0, 3)])
    # node 3 now also holds node 1's first block, with its original tag
    assert np.array_equal(payloads[3].blocks[-1], payloads[1].blocks[0])
    assert _audit_all(cluster)


def test_functional_repair_after_append_rebuilds_every_row(cluster, rng):
    # a default append gives every node a third row; the rebuilt node must
    # hold three as well, not params.M
    dynamics.append_block(cluster.manifest, _payloads(cluster), cluster.user.keys,
                          b"appended", rng)
    cluster.fail_and_repair(1, "functional")
    assert cluster.manifest.node_coeffs[1].shape == (3, PARAMS.m + 1)
    assert cluster.nodes[1].payload.blocks.shape == (3, PARAMS.n)
    assert all(cluster.run_audit_round(node, 3)[0] for node in range(4))
    assert cluster.decode_current_file() == DATA + b"appended"


def test_update_patches_and_verifies(cluster, rng):
    payloads = _payloads(cluster)
    dynamics.update_block(cluster.manifest, payloads, cluster.user.keys,
                          1, b"fresh-content!", rng)
    assert cluster.manifest.deltas  # auditor holds a running adjustment
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
    res = dynamics.insert_block(cluster.manifest, payloads, cluster.user.keys,
                                2, b"tmp", rng)
    dynamics.delete_block(cluster.manifest, payloads, cluster.user.keys,
                          res.index, rng)
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
    # store as (M_i, n) blocks and (M_i, ell) tags in uint8, the blocks'
    # (M_i, m) coefficients being in the manifest only
    def check():
        m = cluster.manifest.params.m
        for i, node in cluster.nodes.items():
            M = cluster.manifest.node_coeffs[i].shape[0]
            assert cluster.manifest.node_coeffs[i].shape == (M, m)
            assert node.payload.blocks.shape == (M, PARAMS.n)
            assert node.payload.tags.shape == (M, PARAMS.ell)
            assert node.payload.blocks.dtype == node.payload.tags.dtype == np.uint8

    check()
    cluster.fail_and_repair(1, "exact")
    check()
    mix = np.ones(3, dtype=np.uint8)
    dynamics.append_block(cluster.manifest, _payloads(cluster), cluster.user.keys,
                          b"more", rng, placements={2: None, 3: mix},
                          donations=[(0, 1, 2)], retire={2: [0]})
    check()
    dynamics.update_block(cluster.manifest, _payloads(cluster), cluster.user.keys,
                          4, b"again", rng)
    check()
    snap = cluster.snapshot_node(1)
    cluster.fail_and_repair(1, "functional")
    cluster.inject_fault(1, Fault("replay_old", snapshot=snap))
    check()
    assert cluster.decode_current_file() == DATA + b"again"

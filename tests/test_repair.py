from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncaudit import audit, field, ncrypt, repair, spacemac
from ncaudit.blocks import SystemParams, decode_source_data
from ncaudit.cluster import EVENODD4, Cluster, User, spawn_cluster

PARAMS = SystemParams(n=16, m=4, N=4, M=2, P=3, Q=1, ell=2, lambda_bits=80)


@pytest.fixture
def system(rng):
    keys = audit.keygen(PARAMS, rng)
    manifest, payloads = audit.setup_file(bytes(range(56)), PARAMS, keys,
                                          EVENODD4, rng)
    return keys, manifest, payloads


def _run_repair(manifest, payloads, plan):
    shipments = [repair.make_repair_blocks(payloads[h], gamma, manifest.params.n)
                 for h, gamma in plan.gamma.items()]
    return repair.reconstruct_node(plan, shipments)


def _state(cluster):
    """Copies of everything a repair may change: every node's rows, the
    manifest, every ledger cell, and the node objects themselves."""
    roles = {"user": cluster.user, "tpa": cluster.tpa, **cluster.nodes}
    return ({i: node.payload.rows.copy() for i, node in cluster.nodes.items()},
            cluster.manifest.to_json(),
            {role: (dict(r.ledger.sent), dict(r.ledger.received)) for role, r in roles.items()},
            dict(cluster.nodes))


def _assert_refused(cluster, error, match, *args, **kwargs):
    """fail_and_repair(*args, **kwargs) raises error matching match and
    leaves the cluster's state as it was."""
    rows, doc, ledgers, nodes = _state(cluster)
    with pytest.raises(error, match=match):
        cluster.fail_and_repair(*args, **kwargs)
    after = _state(cluster)
    assert after[0].keys() == rows.keys()
    assert all(np.array_equal(after[0][i], rows[i]) for i in rows)
    assert after[1] == doc
    assert after[2] == ledgers
    assert all(after[3][i] is nodes[i] for i in nodes) and after[3].keys() == nodes.keys()


def _cluster(params, layout, size, rng):
    """A Cluster over a hand-made layout, as spawn_cluster would set one up."""
    keys = audit.keygen(params, rng)
    manifest, payloads = audit.setup_file(bytes(range(size)), params, keys, layout, rng)
    return Cluster(manifest, User(keys), payloads, rng)


@pytest.mark.parametrize("failed", [0, 1, 2, 3])
def test_exact_repair_bit_for_bit(system, rng, failed):
    keys, manifest, payloads = system
    helpers = [h for h in range(4) if h != failed]
    plan = repair.plan_exact_repair(manifest, failed, helpers, rng)
    assert np.array_equal(_run_repair(manifest, payloads, plan), payloads[failed].rows)


def test_repaired_tags_verify(system, rng):
    keys, manifest, payloads = system
    plan = repair.plan_exact_repair(manifest, 3, [0, 1, 2], rng)
    rows = _run_repair(manifest, payloads, plan)
    blocks, tags = rows[:, :PARAMS.n], rows[:, PARAMS.n:]
    fid = manifest.file_id.encode()
    full = np.hstack([blocks, manifest.node_coeffs[3]])
    assert np.array_equal(spacemac.mac(keys.k_v, fid, full, PARAMS.ell), tags)


def test_exact_plan_respects_helper_budget(system, rng):
    keys, manifest, payloads = system
    plan = repair.plan_exact_repair(manifest, 3, [0, 1, 2], rng)
    for gamma in plan.gamma.values():
        assert gamma.shape[0] <= PARAMS.Q


def test_exact_repair_impossible_without_span(system, rng):
    keys, manifest, payloads = system
    # nodes 0 and 2 span the file, but one row from each cannot rebuild
    # node 3's two rows
    with pytest.raises(repair.PlanningError, match="no exact repair plan found"):
        repair.plan_exact_repair(manifest, 3, [0, 2], rng)


def test_helpers_that_cannot_span_are_named_after_a_failed_draw(rng):
    # Q*|helpers| = 4 reaches min(sum M_h, m) = 4, so the planner tries a
    # candidate before it solves for the helpers' span; nodes 1 and 2 span
    # only e1..e3, and node 0 also stores e4
    params = SystemParams(n=16, m=4, N=3, M=2, P=2, Q=2, ell=2, lambda_bits=80)
    layout = {0: np.array([[1, 0, 0, 0], [0, 0, 0, 1]], dtype=np.uint8),
              1: np.array([[1, 0, 0, 0], [0, 1, 0, 0]], dtype=np.uint8),
              2: np.array([[0, 0, 1, 0], [1, 1, 0, 0]], dtype=np.uint8)}
    cluster = _cluster(params, layout, 56, rng)
    with mock.patch.object(field, "_eliminate", wraps=field._eliminate) as elim:
        _assert_refused(cluster, repair.PlanningError,
                        "helpers do not span the failed node's rows", 0, "exact", [1, 2])
    # one random draw's solve, then the span's
    assert elim.call_count == 2


def test_exact_repair_at_churn_shape_runs_one_elimination():
    # m=16, N=6, M=4, P=5, Q=4: Q*|helpers| = 20 reaches min(20, 16), so the
    # first random draw's solve is the only elimination
    params = SystemParams(n=64, m=16, N=6, M=4, P=5, Q=4, ell=2, lambda_bits=80)
    c = spawn_cluster(params, "random_functional", bytes(range(200)), seed=29)
    for node in range(params.N):
        before = c.nodes[node].payload.rows.copy()
        with mock.patch.object(field, "_eliminate", wraps=field._eliminate) as elim:
            c.fail_and_repair(node, "exact")
        assert elim.call_count == 1
        assert np.array_equal(c.nodes[node].payload.rows, before)


def test_evenodd4_exact_repair_solves_the_span_first(system, rng):
    # Q*|helpers| = 3 < min(sum M_h, m) = 4: the helpers' rank decides
    # whether random draws can reach it, so their (m, sum M_h) span is the
    # first elimination
    keys, manifest, payloads = system
    with mock.patch.object(field, "_eliminate", wraps=field._eliminate) as elim:
        repair.plan_exact_repair(manifest, 3, [0, 1, 2], rng)
    assert elim.call_args_list[0].args[0].shape == (PARAMS.m, 3 * PARAMS.M)


def _direct_copies_row_by_row(stored, target, helpers, Q):
    # the per-row greedy search: each target row takes the first helper, in
    # order, with fewer than Q picks and a stored row equal to it and not
    # yet picked
    picks = []
    for row in target:
        hit = next(((h, j) for h in helpers if sum(p[0] == h for p in picks) < Q
                    for j, s in enumerate(stored[h])
                    if (h, j) not in picks and np.array_equal(s, row)), None)
        if hit is None:
            return None
        picks.append(hit)
    used = [h for h in helpers if any(p[0] == h for p in picks)]
    return used, {h: [j for g, j in picks if g == h] for h in used}


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_direct_copies_pick_as_the_row_by_row_search(Q, m, seed):
    # five helpers of 1-3 rows over a two-symbol alphabet, so rows repeat
    # within and across helpers; five helpers turn the {0,1} search off
    r = np.random.default_rng(seed)
    stored = {h: r.integers(0, 2, (r.integers(1, 4), m), dtype=np.uint8)
              for h in range(1, 6)}
    helpers = [int(h) for h in r.permutation(5) + 1]
    stacked = np.concatenate([stored[h] for h in helpers])
    target = stacked[r.integers(0, len(stacked), r.integers(1, 4))]
    target[r.random(len(target)) < 0.2] ^= 1
    got = repair._direct_copies(stored, target, helpers, Q)
    want = _direct_copies_row_by_row(stored, target, helpers, Q)
    if want is None:
        assert got is None
        return
    assert list(got) == want[0]
    for h in want[0]:
        assert np.array_equal(got[h], np.eye(len(stored[h]), dtype=np.uint8)[want[1][h]])
    # the planner's equality test lets the copies through as its first
    # candidate, before any draw (rng None) or span solve
    manifest = SimpleNamespace(params=SimpleNamespace(Q=Q), node_coeffs=stored)
    with mock.patch.object(field, "_eliminate") as elim:
        first = next(repair._candidates(manifest, target, helpers, stacked, None))
    assert elim.call_count == 0
    assert list(first) == want[0]
    assert all(np.array_equal(first[h], got[h]) for h in got)


# seed-11 random_functional layouts (n=64, m=4, N=6, M=2, P=5) store no
# helper row twice, so rebuilding node 0 draws gamma at random; the planner's
# generator is seeded with 5
@pytest.mark.parametrize("Q, gamma, theta", [
    (1, [[[168, 229]], [[238, 171]], [[245, 153]], [[37, 53]], [[192, 173]]],
     [[36, 144, 1, 196, 0], [220, 214, 133, 222, 0]]),
    (2, [[[168, 229], [184, 171]], [[238, 171], [20, 206]], [[245, 153], [204, 5]],
         [[37, 53], [213, 206]], [[192, 173], [6, 120]]],
     [[79, 191, 190, 22, 0, 0, 0, 0, 0, 0], [69, 141, 178, 43, 0, 0, 0, 0, 0, 0]]),
], ids=["Q<M", "Q=M"])
def test_random_gamma_exact_repair_bit_for_bit(Q, gamma, theta):
    params = SystemParams(n=64, m=4, N=6, M=2, P=5, Q=Q, ell=2, lambda_bits=80)
    cluster = spawn_cluster(params, "random_functional", bytes(range(200)), seed=11)
    payloads = {i: node.payload for i, node in cluster.nodes.items()}
    before = payloads[0].rows.copy()
    plan = repair.plan_exact_repair(cluster.manifest, 0, [1, 2, 3, 4, 5],
                                    np.random.default_rng(5))
    assert list(plan.gamma) == [1, 2, 3, 4, 5]
    assert [g.tolist() for g in plan.gamma.values()] == gamma
    assert plan.theta.tolist() == theta
    assert np.array_equal(_run_repair(cluster.manifest, payloads, plan), before)
    # the cluster's own repair draws its plan from its generator
    assert cluster.fail_and_repair(0, "exact")["helpers"] == [1, 2, 3, 4, 5]
    assert np.array_equal(cluster.nodes[0].payload.rows, before)


def test_functional_repair_needs_helpers_spanning_the_file(system, rng):
    keys, manifest, payloads = system
    # node 0 holds b1 and b2 only
    with pytest.raises(repair.PlanningError, match="keeps the file decodable"):
        repair.plan_functional_repair(manifest, 3, [0], rng)


def test_functional_repair_keeps_decodability(system, rng):
    keys, manifest, payloads = system
    cluster = Cluster(manifest, User(keys), payloads, rng)
    old = manifest.node_coeffs[1].copy()
    cluster.fail_and_repair(1, "functional", [0, 2, 3])
    rows = cluster.nodes[1].payload.rows
    blocks, tags = rows[:, :PARAMS.n], rows[:, PARAMS.n:]
    # the rebuilt data symbols are the manifest's new rows times the sources
    assert not np.array_equal(manifest.node_coeffs[1], old)
    helper_rows = audit.verified_rows(keys.k_v, manifest, {h: payloads[h] for h in (0, 2)})
    sources = decode_source_data(helper_rows, PARAMS.m)
    assert np.array_equal(blocks, field.combine_rows(manifest.node_coeffs[1], sources))
    stacked = np.concatenate(list(manifest.node_coeffs.values()), axis=0)
    assert field.matrix_rank(stacked) == PARAMS.m
    fid = manifest.file_id.encode()
    full = np.hstack([blocks, manifest.node_coeffs[1]])
    assert np.array_equal(spacemac.mac(keys.k_v, fid, full, PARAMS.ell), tags)


def test_replay_detected_after_functional_repair(system, rng):
    keys, manifest, payloads = system
    old_rows = payloads[1].rows.copy()
    Cluster(manifest, User(keys), payloads, rng).fail_and_repair(1, "functional", [0, 2, 3])
    # the node serves its pre-repair store against refreshed records
    rejected = 0
    for k in range(1, 51):
        chal = audit.gen_challenge(manifest, 1, 2, rng)
        voucher = ncrypt.setup(keys.k_e, keys.k_v, manifest.file_id.encode(), 1, k,
                               PARAMS)
        proof = audit.gen_proof(old_rows, chal, keys.k_e, voucher, PARAMS)
        ok, _ = audit.verify_proof(keys.k_v, manifest, chal, proof)
        rejected += not ok
    assert rejected == 50


def test_plan_sent_rows_consistent(system, rng):
    keys, manifest, payloads = system
    plan = repair.plan_exact_repair(manifest, 2, [0, 1, 3], rng)
    sent = np.concatenate([field.combine_rows(gamma, manifest.node_coeffs[h])
                           for h, gamma in plan.gamma.items()])
    # theta applied to the sent rows reproduces the target rows
    rebuilt = np.stack([field.combine_rows(plan.theta[j], sent)
                        for j in range(plan.theta.shape[0])])
    assert np.array_equal(rebuilt, plan.target_rows)


def test_exact_repair_copies_replicated_rows(rng):
    # node 1 replicates node 0, so the plan is direct copies from node 1
    params = SystemParams(n=16, m=2, N=3, M=2, P=2, Q=2, ell=2, lambda_bits=80)
    layout = {0: np.eye(2, dtype=np.uint8), 1: np.array([[0, 1], [1, 0]], dtype=np.uint8),
              2: np.array([[1, 1], [1, 2]], dtype=np.uint8)}
    cluster = _cluster(params, layout, 28, rng)
    before = cluster.nodes[0].payload.rows.copy()
    plan = repair.plan_exact_repair(cluster.manifest, 0, [2, 1], rng)
    assert list(plan.gamma) == [1]
    assert np.array_equal(plan.gamma[1], np.eye(2, dtype=np.uint8)[[1, 0]])
    assert np.array_equal(plan.theta, np.eye(2, dtype=np.uint8))
    assert cluster.fail_and_repair(0, "exact", [2, 1])["helpers"] == [1]
    assert np.array_equal(cluster.nodes[0].payload.rows, before)


def test_replicated_rows_plan_from_copies_in_one_elimination(rng):
    # Q*|helpers| = 2 < min(sum M_h, m) = 4, yet each of node 0's rows is
    # stored on one helper: the copies' solve is the only elimination, and
    # the helpers' span is never solved for
    params = SystemParams(n=16, m=4, N=3, M=2, P=2, Q=1, ell=2, lambda_bits=80)
    eye = np.eye(4, dtype=np.uint8)
    layout = {0: eye[[0, 1]], 1: eye[[2, 0]], 2: eye[[1, 3]]}
    cluster = _cluster(params, layout, 56, rng)
    before = cluster.nodes[0].payload.rows.copy()
    with mock.patch.object(field, "_eliminate", wraps=field._eliminate) as elim:
        record = cluster.fail_and_repair(0, "exact", [1, 2])
    assert elim.call_count == 1
    assert record["helpers"] == [1, 2]
    assert np.array_equal(cluster.nodes[0].payload.rows, before)
    plan = repair.plan_exact_repair(cluster.manifest, 0, [1, 2], rng)
    assert np.array_equal(plan.gamma[1], np.eye(2, dtype=np.uint8)[[1]])
    assert np.array_equal(plan.gamma[2], np.eye(2, dtype=np.uint8)[[0]])


@pytest.mark.parametrize("mode", ["exact", "functional"])
def test_one_node_store_names_missing_helpers(rng, mode):
    params = SystemParams(n=16, m=2, N=1, M=3, P=0, Q=1, ell=2, lambda_bits=80)
    layout = {0: np.array([[1, 0], [0, 1], [1, 1]], dtype=np.uint8)}
    _assert_refused(_cluster(params, layout, 28, rng), repair.PlanningError,
                    "no helper nodes to rebuild node 0", 0, mode)


@pytest.mark.parametrize("node, mode, helpers, error, match", [
    (0, "exact", 3, repair.PlanningError, "helpers must be a list of node ids, not 3"),
    (0, "exact", "123", repair.PlanningError, "helpers must be a list of node ids"),
    (0, "exact", [1, 1, 2], repair.PlanningError, r"helper 1 of node 0 is not a distinct"),
    (0, "exact", [1, 9], repair.PlanningError, r"helper 9 of node 0 .* nodes \[1, 2, 3\]"),
    (0, "exact", [1, True], repair.PlanningError, "helper True of node 0"),
    (0, "exactly", None, ValueError, "unknown repair mode 'exactly'"),
    # node 0 holds b1 and b2 only, and node 3's rows need b3
    (3, "exact", [0], repair.PlanningError, "helpers do not span the failed node's rows"),
    # nodes 0 and 2 span the file, but one row from each cannot rebuild two
    (3, "exact", [0, 2], repair.PlanningError, "no exact repair plan found"),
    # node 0 holds b1 and b2 only
    (3, "functional", [0], repair.PlanningError,
     "no functional repair keeps the file decodable"),
], ids=["int", "str", "repeated", "absent", "bool", "mode", "exact-span", "exact-no-plan",
        "functional-span"])
def test_refused_repair_changes_nothing(node, mode, helpers, error, match):
    cluster = spawn_cluster(PARAMS, "evenodd4", bytes(range(56)), seed=3)
    _assert_refused(cluster, error, match, node, mode, helpers)
    # the refusal left a cluster that still repairs the node
    assert cluster.fail_and_repair(node, "exact")["helpers"] == [h for h in range(4)
                                                                 if h != node]


def test_repair_rejects_the_failed_node_as_its_own_helper():
    # its lost rows are no helper; nor is an id the store lacks or repeats
    c = spawn_cluster(PARAMS, "evenodd4", bytes(range(56)), seed=3)
    _assert_refused(c, repair.PlanningError, "helper 0 of node 0", 0, helpers=[0, 1, 2])

from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncaudit import audit, field, ncrypt, repair, spacemac
from ncaudit.blocks import SystemParams, decode_source_data
from ncaudit.cluster import EVENODD4, spawn_cluster

PARAMS = SystemParams(n=16, m=4, N=4, M=2, P=3, Q=1, ell=2, lambda_bits=80)


@pytest.fixture
def system(rng):
    keys = audit.keygen(PARAMS, rng)
    manifest, payloads = audit.setup_file(bytes(range(56)), PARAMS, keys,
                                          EVENODD4, rng)
    return keys, manifest, payloads


def _run_repair(manifest, payloads, plan):
    shipments = [repair.make_repair_blocks(payloads[h], plan.gamma[h], h, PARAMS.n)
                 for h in plan.helpers]
    return repair.reconstruct_node(plan, shipments)


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
    for h in plan.helpers:
        assert plan.gamma[h].shape[0] <= PARAMS.Q


def test_exact_repair_impossible_without_span(system, rng):
    keys, manifest, payloads = system
    # nodes 0 and 2 alone cannot express node 3's second row (needs b4)
    with pytest.raises(repair.PlanningError):
        repair.plan_exact_repair(manifest, 3, [0, 2], rng)


def test_helpers_that_cannot_span_are_named_after_a_failed_draw(rng):
    # Q*|helpers| = 4 reaches min(sum M_h, m) = 4, so the planner tries a
    # candidate before it solves for the helpers' span; nodes 1 and 2 span
    # only e1..e3, and node 0 also stores e4
    params = SystemParams(n=16, m=4, N=3, M=2, P=2, Q=2, ell=2, lambda_bits=80)
    layout = {0: np.array([[1, 0, 0, 0], [0, 0, 0, 1]], dtype=np.uint8),
              1: np.array([[1, 0, 0, 0], [0, 1, 0, 0]], dtype=np.uint8),
              2: np.array([[0, 0, 1, 0], [1, 1, 0, 0]], dtype=np.uint8)}
    keys = audit.keygen(params, rng)
    manifest, payloads = audit.setup_file(bytes(range(56)), params, keys, layout, rng)
    rows, doc = {i: p.rows.copy() for i, p in payloads.items()}, manifest.to_json()
    with mock.patch.object(field, "_eliminate", wraps=field._eliminate) as elim, \
            pytest.raises(repair.PlanningError, match="do not span"):
        repair.repair_node(manifest, payloads, 0, "exact", [1, 2], rng)
    # one random draw's solve, then the span's
    assert elim.call_count == 2
    assert all(np.array_equal(payloads[i].rows, rows[i]) for i in rows)
    assert manifest.to_json() == doc


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
    plan, _ = repair.repair_node(cluster.manifest, payloads, 0, "exact", None,
                                 np.random.default_rng(5))
    assert plan.helpers == [1, 2, 3, 4, 5]
    assert [plan.gamma[h].tolist() for h in plan.helpers] == gamma
    assert plan.theta.tolist() == theta
    assert np.array_equal(payloads[0].rows, before)


def test_functional_repair_needs_helpers_spanning_the_file(system, rng):
    keys, manifest, payloads = system
    # node 0 holds b1 and b2 only
    with pytest.raises(repair.PlanningError, match="keeps the file decodable"):
        repair.plan_functional_repair(manifest, 3, [0], rng)


def test_functional_repair_keeps_decodability(system, rng):
    keys, manifest, payloads = system
    plan, _ = repair.repair_node(manifest, payloads, 1, "functional", [0, 2, 3], rng)
    rows = payloads[1].rows
    blocks, tags = rows[:, :PARAMS.n], rows[:, PARAMS.n:]
    # the rebuilt data symbols are the manifest's new rows times the sources
    assert np.array_equal(manifest.node_coeffs[1], plan.target_rows)
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
    repair.repair_node(manifest, payloads, 1, "functional", [0, 2, 3], rng)
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
    sent = np.concatenate([field.combine_rows(plan.gamma[h], manifest.node_coeffs[h])
                           for h in plan.helpers])
    # theta applied to the sent rows reproduces the target rows
    rebuilt = np.stack([field.combine_rows(plan.theta[j], sent)
                        for j in range(plan.theta.shape[0])])
    assert np.array_equal(rebuilt, plan.target_rows)


def test_exact_repair_copies_replicated_rows(rng):
    # node 1 replicates node 0, so the plan is direct copies from node 1
    params = SystemParams(n=16, m=2, N=3, M=2, P=2, Q=2, ell=2, lambda_bits=80)
    layout = {0: np.eye(2, dtype=np.uint8), 1: np.array([[0, 1], [1, 0]], dtype=np.uint8),
              2: np.array([[1, 1], [1, 2]], dtype=np.uint8)}
    keys = audit.keygen(params, rng)
    manifest, payloads = audit.setup_file(bytes(range(28)), params, keys, layout, rng)
    before = payloads[0].rows.copy()
    plan, _ = repair.repair_node(manifest, payloads, 0, "exact", [2, 1], rng)
    assert plan.helpers == [1]
    assert np.array_equal(plan.gamma[1], np.eye(2, dtype=np.uint8)[[1, 0]])
    assert np.array_equal(plan.theta, np.eye(2, dtype=np.uint8))
    assert np.array_equal(payloads[0].rows, before)


def test_replicated_rows_plan_from_copies_in_one_elimination(rng):
    # Q*|helpers| = 2 < min(sum M_h, m) = 4, yet each of node 0's rows is
    # stored on one helper: the copies' solve is the only elimination, and
    # the helpers' span is never solved for
    params = SystemParams(n=16, m=4, N=3, M=2, P=2, Q=1, ell=2, lambda_bits=80)
    eye = np.eye(4, dtype=np.uint8)
    layout = {0: eye[[0, 1]], 1: eye[[2, 0]], 2: eye[[1, 3]]}
    keys = audit.keygen(params, rng)
    manifest, payloads = audit.setup_file(bytes(range(56)), params, keys, layout, rng)
    before = payloads[0].rows.copy()
    with mock.patch.object(field, "_eliminate", wraps=field._eliminate) as elim:
        plan, _ = repair.repair_node(manifest, payloads, 0, "exact", [1, 2], rng)
    assert elim.call_count == 1
    assert plan.helpers == [1, 2]
    assert np.array_equal(plan.gamma[1], np.eye(2, dtype=np.uint8)[[1]])
    assert np.array_equal(plan.gamma[2], np.eye(2, dtype=np.uint8)[[0]])
    assert np.array_equal(payloads[0].rows, before)


@pytest.mark.parametrize("mode", ["exact", "functional"])
def test_one_node_store_names_missing_helpers(rng, mode):
    params = SystemParams(n=16, m=2, N=1, M=3, P=0, Q=1, ell=2, lambda_bits=80)
    layout = {0: np.array([[1, 0], [0, 1], [1, 1]], dtype=np.uint8)}
    keys = audit.keygen(params, rng)
    manifest, payloads = audit.setup_file(bytes(range(28)), params, keys, layout, rng)
    with pytest.raises(repair.PlanningError, match="no helper nodes to rebuild node 0"):
        repair.repair_node(manifest, payloads, 0, mode, None, rng)


def test_repair_rejects_the_failed_node_as_its_own_helper():
    # its lost rows are no helper; CLI scenarios cover absent and repeated ids
    c = spawn_cluster(PARAMS, "evenodd4", bytes(range(56)), seed=3)
    before = c.nodes[0].payload.rows.copy()
    with pytest.raises(repair.PlanningError, match="helper 0 of node 0"):
        c.fail_and_repair(0, helpers=[0, 1, 2])
    assert np.array_equal(c.nodes[0].payload.rows, before)

import numpy as np
import pytest

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

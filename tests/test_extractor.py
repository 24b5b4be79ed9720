import itertools

import numpy as np
import pytest

from ncaudit import dynamics, extractor
from ncaudit.audit import Proof
from ncaudit.blocks import SystemParams, decode_file
from ncaudit.cluster import Fault, spawn_cluster

PARAMS = SystemParams(n=32, m=8, N=4, M=8, P=3, Q=1, ell=2, lambda_bits=80)
DATA = bytes(range(240))


@pytest.fixture
def cluster():
    return spawn_cluster(PARAMS, "random_functional", DATA, seed=99)


def _extract(cluster, node, seed, rounds=15):
    return extractor.extract_node(
        cluster.nodes[node].answer, cluster.manifest, node, cluster.user,
        np.random.default_rng(seed), rounds=rounds)


def test_extract_honest_node(cluster):
    report = _extract(cluster, 0, seed=1)
    p = cluster.nodes[0].payload
    assert np.array_equal(report.rows, p.rows)
    assert report.discarded == 0


def test_extract_lying_node(cluster):
    cluster.inject_fault(2, Fault("lie_probability", epsilon=0.2))
    report = _extract(cluster, 2, seed=2)
    p = cluster.nodes[2].payload
    assert np.array_equal(report.rows, p.rows)
    assert report.discarded > 0  # lies were seen and filtered


def test_extract_refusing_node(cluster):
    # a prover that refuses every challenge yields no equations
    with pytest.raises(extractor.ExtractionError):
        extractor.extract_node(
            lambda chal, voucher: None, cluster.manifest, 1, cluster.user,
            np.random.default_rng(3))


def test_extract_always_lying_node(cluster):
    cluster.inject_fault(3, Fault("lie_probability", epsilon=1.0))
    with pytest.raises(extractor.ExtractionError):
        _extract(cluster, 3, seed=4)


def _stale_oracle(cluster, node, every):
    """An honest node that answers every `every`-th query under the first
    voucher it ever received instead of the one it was given."""
    first, queries = [], itertools.count()

    def oracle(chal, voucher):
        if not first:
            first.append(voucher)
        stale = next(queries) % every == 0
        return cluster.nodes[node].answer(chal, first[0] if stale else voucher)
    return oracle


def test_extract_node_that_keeps_its_first_voucher(cluster):
    # only the first answer is under the voucher it was asked with
    with pytest.raises(extractor.ExtractionError):
        extractor.extract_node(_stale_oracle(cluster, 1, every=1), cluster.manifest, 1,
                               cluster.user, np.random.default_rng(8))


def test_extract_node_that_replays_its_first_voucher_half_the_time(cluster):
    # answers under another voucher are skipped, not counted as rejected
    report = extractor.extract_node(_stale_oracle(cluster, 1, every=2),
                                    cluster.manifest, 1, cluster.user,
                                    np.random.default_rng(9))
    p = cluster.nodes[1].payload
    assert np.array_equal(report.rows, p.rows)
    assert report.discarded == 0


def test_query_accounting(cluster):
    report = _extract(cluster, 1, seed=5)
    assert report.queries <= 15 * PARAMS.M * 4  # within the retry budget
    assert report.queries >= PARAMS.M  # at least one per equation


def test_extract_after_update():
    # the extractor compensates stale stored tags with the manifest's deltas
    params = SystemParams(n=64, m=4, N=4, M=2, P=3, Q=1, ell=2, lambda_bits=80)
    data = bytes(range(200)) + bytes(48)
    c = spawn_cluster(params, "evenodd4", data, seed=5)
    payloads = {i: node.payload for i, node in c.nodes.items()}
    dynamics.update_block(c.manifest, payloads, c.user.keys, 0, b"new first block",
                          np.random.default_rng(6))
    report = _extract(c, 0, seed=7)
    p = c.nodes[0].payload
    assert np.array_equal(report.rows, p.rows)
    rows = np.vstack([np.hstack([report.rows[:, :params.n], c.manifest.node_coeffs[0]]),
                      np.hstack([c.nodes[1].payload.rows[:, :params.n],
                                 c.manifest.node_coeffs[1]])])
    assert decode_file(rows, c.manifest) == b"new first block" + data[62:]


def test_extract_node_whose_answers_are_sometimes_malformed(cluster):
    # every third answer drops the last symbol of c_bar: it counts as
    # discarded, and the store is still recovered exactly
    queries = itertools.count()

    def oracle(chal, voucher):
        proof = cluster.nodes[2].answer(chal, voucher)
        if next(queries) % 3 == 0:
            proof = Proof(proof.c_bar[:-1], proof.nonce, proof.pad, proof.tag)
        return proof

    report = extractor.extract_node(oracle, cluster.manifest, 2, cluster.user,
                                    np.random.default_rng(10))
    p = cluster.nodes[2].payload
    assert np.array_equal(report.rows, p.rows)
    assert report.discarded == -(-report.queries // 3)

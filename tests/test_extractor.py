import itertools
from unittest import mock

import numpy as np
import pytest

from ncaudit import dynamics, extractor, field
from ncaudit.audit import Proof
from ncaudit.blocks import SystemParams, decode_file
from ncaudit.cluster import Fault, spawn_cluster

PARAMS = SystemParams(n=32, m=8, N=4, M=8, P=3, Q=1, ell=2, lambda_bits=80)
DATA = bytes(range(240))


@pytest.fixture
def cluster():
    return spawn_cluster(PARAMS, "random_functional", DATA, seed=99)


def _extract(cluster, node, seed):
    return extractor.extract_node(cluster, node, np.random.default_rng(seed))


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
    def refuse(chal, voucher):
        raise ValueError("refused")

    cluster.nodes[1].answer = refuse
    with pytest.raises(extractor.ExtractionError):
        _extract(cluster, 1, seed=3)


def test_extract_always_lying_node(cluster):
    cluster.inject_fault(3, Fault("lie_probability", epsilon=1.0))
    with pytest.raises(extractor.ExtractionError):
        _extract(cluster, 3, seed=4)


def _answer_stale(cluster, node, every):
    """Make an honest node answer every `every`-th query under the first
    voucher it ever received instead of the one it was given."""
    first, queries, answer = [], itertools.count(), cluster.nodes[node].answer

    def stale_answer(chal, voucher):
        if not first:
            first.append(voucher)
        stale = next(queries) % every == 0
        return answer(chal, first[0] if stale else voucher)
    cluster.nodes[node].answer = stale_answer


def test_extract_node_that_keeps_its_first_voucher(cluster):
    # only the first answer is under the voucher it was asked with
    _answer_stale(cluster, 1, every=1)
    with pytest.raises(extractor.ExtractionError):
        _extract(cluster, 1, seed=8)


def test_extract_node_that_replays_its_first_voucher_half_the_time(cluster):
    # the TPA rejects an answer under a spent voucher, so it is discarded:
    # every other answer but the first, whose voucher was the first one; the
    # first equation takes two queries and each later one four
    _answer_stale(cluster, 1, every=2)
    report = _extract(cluster, 1, seed=9)
    p = cluster.nodes[1].payload
    assert np.array_equal(report.rows, p.rows)
    assert report.discarded == report.queries // 2 - 1 == 14


def test_query_accounting(cluster):
    # two answers settle each equation; the rest are within the budget
    report = _extract(cluster, 1, seed=5)
    M = PARAMS.M
    assert 2 * M <= report.queries <= 2 * M + extractor.EXTRA_BUDGET * 2 * M


def test_extract_after_update():
    # the extractor checks stale stored tags under the MAC vectors with the
    # manifest's deltas folded in
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
    queries, answer = itertools.count(), cluster.nodes[2].answer

    def malformed_answer(chal, voucher):
        proof = answer(chal, voucher)
        if next(queries) % 3 == 0:
            proof = Proof(proof.c_bar[:-1], proof.nonce, proof.pad, proof.tag)
        return proof

    cluster.nodes[2].answer = malformed_answer
    report = _extract(cluster, 2, seed=10)
    p = cluster.nodes[2].payload
    assert np.array_equal(report.rows, p.rows)
    assert report.discarded == -(-report.queries // 3)


def test_extract_node_that_answers_under_the_voucher_it_refused(cluster):
    # every third query is refused, which spends no counter, and the next
    # one is answered under the refused query's voucher: the TPA would take
    # it, but it is not the query's own voucher, so it is discarded too
    queries, kept, answer = itertools.count(), [], cluster.nodes[2].answer

    def skipping_answer(chal, voucher):
        q = next(queries) % 3
        if q == 0:
            kept[:] = [voucher]
            raise ValueError("refused")
        return answer(chal, kept[0] if q == 1 else voucher)

    cluster.nodes[2].answer = skipping_answer
    report = _extract(cluster, 2, seed=11)
    assert np.array_equal(report.rows, cluster.nodes[2].payload.rows)
    assert report.discarded == sum(q % 3 != 2 for q in range(report.queries))


def test_extraction_tests_each_draw_without_eliminating_its_basis():
    # M=64: each draw is reduced against the accepted ones; the one
    # elimination is the final solve, not one of the whole basis per draw
    params = SystemParams(n=8, m=64, N=2, M=64, P=1, Q=1, ell=2, lambda_bits=80)
    cluster = spawn_cluster(params, "random_functional", bytes(range(256)) + bytes(range(120)), seed=3)
    with mock.patch.object(field, "_eliminate", wraps=field._eliminate) as elim:
        report = _extract(cluster, 1, seed=5)
    assert np.array_equal(report.rows, cluster.nodes[1].payload.rows)
    assert [call.args[0].shape for call in elim.call_args_list] == [(64, 64)]


def _rank_deficient_rng(M, seed):
    """A generator whose first M bytes() draws, the equations' seeds, span
    M-1 dimensions (the last repeats the first), and which draws on its own
    after them."""
    real = np.random.default_rng(seed)
    draws = [real.bytes(PARAMS.lambda_bits // 8) for _ in range(M - 1)]
    draws.append(draws[0])

    class Scripted:
        def bytes(self, length):
            return draws.pop(0) if draws else real.bytes(length)
    return Scripted()


def test_rank_deficient_draws_settle_one_more_equation(cluster):
    # the solve of the first M settled equations reports them rank
    # deficient, so one more is settled and the M+1 are solved
    M = PARAMS.M
    with mock.patch.object(field, "gaussian_solve", wraps=field.gaussian_solve) as solve:
        report = extractor.extract_node(cluster, 0, _rank_deficient_rng(M, 13))
    assert np.array_equal(report.rows, cluster.nodes[0].payload.rows)
    assert report.queries == 2 * (M + 1) and report.discarded == 0
    assert [call.args[0].shape for call in solve.call_args_list] == [(M, M), (M + 1, M)]


def test_settled_answers_that_contradict_one_another_raise(cluster):
    # an accepted lie settled twice in a row (one whose error has a zero
    # MAC) on the repeated draw: its equation contradicts the first one's
    M, exchange, queries = PARAMS.M, cluster.exchange, itertools.count()

    def lying_exchange(node, count, seed=None):
        accepted, proof, voucher, sent = exchange(node, count, seed)
        if next(queries) >= 2 * (M - 1):
            proof = Proof(proof.c_bar ^ 1, proof.nonce, proof.pad, proof.tag)
        return accepted, proof, voucher, sent

    cluster.exchange = lying_exchange
    with pytest.raises(extractor.ExtractionError, match="contradict"):
        extractor.extract_node(cluster, 0, _rank_deficient_rng(M, 13))


def test_each_equation_asks_a_seed_of_its_own(cluster):
    # an equation is one full challenge under one seed, asked until two
    # answers agree; the next asks a fresh seed, so M equations span the M
    # rows.  The guard stops an extraction that would never span them
    M, exchange, asked = PARAMS.M, cluster.exchange, []

    def recorded(node, count, seed=None):
        if len(asked) == 4 * M:
            raise RuntimeError("the equations do not span the rows")
        asked.append((count, seed))
        return exchange(node, count, seed)

    cluster.exchange = recorded
    report = _extract(cluster, 0, seed=13)
    assert np.array_equal(report.rows, cluster.nodes[0].payload.rows)
    assert report.queries == len(asked) == 2 * M
    assert {count for count, _ in asked} == {M}
    seeds = [seed for _, seed in asked]
    assert seeds[::2] == seeds[1::2] and len(set(seeds)) == M
    assert {len(seed) for seed in seeds} == {PARAMS.lambda_bits // 8}

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ncaudit import audit, dynamics, field, ncrypt, spacemac
from ncaudit.audit import Challenge, Proof
from ncaudit.blocks import SystemParams
from ncaudit.cluster import EVENODD4, Fault, Node, spawn_cluster

PARAMS = SystemParams(n=32, m=4, N=4, M=2, P=3, Q=1, ell=2, lambda_bits=80)
_COUNTER = itertools.count(1)


def _voucher(keys, manifest, chal):
    """A fresh voucher for the challenged node, as the user issues it."""
    return ncrypt.setup(keys.k_e, keys.k_v, manifest.file_id.encode(), chal.node,
                        next(_COUNTER), manifest.params)


@pytest.fixture
def system(rng):
    keys = audit.keygen(PARAMS, rng)
    data = bytes(range(100))
    manifest, payloads = audit.setup_file(data, PARAMS, keys, EVENODD4, rng)
    return keys, manifest, payloads


def test_setup_refuses_a_layout_that_cannot_be_decoded(rng):
    # two nodes that both store b1 and b2: M*N = m = 4, but rank 2
    params = SystemParams(n=16, m=4, N=2, M=2, P=1, Q=1, ell=2, lambda_bits=80)
    both = np.array([[1, 0, 0, 0], [0, 1, 0, 0]], dtype=np.uint8)
    with pytest.raises(ValueError, match="span rank 2 < m = 4"):
        audit.setup_file(bytes(range(56)), params, audit.keygen(params, rng),
                         {0: both, 1: both}, rng)


def test_honest_round_accepts(system, rng):
    keys, manifest, payloads = system
    tags = {}
    for node in range(4):
        chal = audit.gen_challenge(manifest, node, 2, rng)
        p = payloads[node]
        proof = audit.gen_proof(p.rows, chal, keys.k_e,
                                _voucher(keys, manifest, chal), PARAMS)
        ok, _ = audit.verify_proof(keys.k_v, manifest, chal, proof, tags)
        assert ok


def test_corrupted_block_rejected(system, rng):
    keys, manifest, payloads = system
    p = payloads[1]
    p.rows[0, 3] ^= 0x40
    rejections, tags = 0, {}
    for _ in range(50):
        chal = Challenge(manifest.file_id, [0, 1], [int(rng.integers(1, 256)),
                                                    int(rng.integers(1, 256))], 1)
        proof = audit.gen_proof(p.rows, chal, keys.k_e,
                                _voucher(keys, manifest, chal), PARAMS)
        ok, _ = audit.verify_proof(keys.k_v, manifest, chal, proof, tags)
        rejections += not ok
    assert rejections == 50  # no MAC key symbol is 0, so the tags always change


def test_wrong_coefficients_rejected(system, rng):
    # proof is honest but the auditor's records disagree -> reject
    keys, manifest, payloads = system
    chal = audit.gen_challenge(manifest, 2, 2, rng)
    p = payloads[2]
    proof = audit.gen_proof(p.rows, chal, keys.k_e,
                            _voucher(keys, manifest, chal), PARAMS)
    manifest.node_coeffs[2] = manifest.node_coeffs[2].copy()
    manifest.node_coeffs[2][0, 0] ^= 1
    ok, _ = audit.verify_proof(keys.k_v, manifest, chal, proof, {})
    assert not ok


def test_gen_proof_deleted_block_rejected(system, rng):
    # a lost block is answered with the uniform junk the fault leaves behind
    keys, manifest, payloads = system
    node = Node(payloads[0], PARAMS, rng)
    node.apply_fault(Fault("delete_block", block=1))
    rejected, tags = 0, {}
    for _ in range(20):
        chal = Challenge(manifest.file_id, [0, 1], [5, int(rng.integers(1, 256))], 0)
        proof = node.answer(chal, _voucher(keys, manifest, chal))
        rejected += not audit.verify_proof(keys.k_v, manifest, chal, proof, tags)[0]
    assert rejected == 20


@pytest.mark.parametrize("index", [2, 99, 2**32 - 1])
def test_gen_proof_rejects_index_outside_store(system, rng, index):
    keys, manifest, payloads = system
    p = payloads[0]
    chal = Challenge(manifest.file_id, [0, index], [5, 7], 0)
    with pytest.raises(ValueError, match="index outside the 2 rows"):
        audit.gen_proof(p.rows, chal, keys.k_e,
                        _voucher(keys, manifest, chal), PARAMS)


def _same_challenge(a, b):
    return (a.file_id == b.file_id and np.array_equal(a.indices, b.indices)
            and np.array_equal(a.alphas, b.alphas))


def test_challenge_wire_roundtrip():
    chal = Challenge("some-file", [3, 0, 7], [200, 1, 255], node=2)
    back = Challenge.from_bytes(chal.to_bytes(), node=2)
    assert _same_challenge(back, chal) and back.node == 2


def test_challenge_wire_golden():
    # the bytes the struct-packed (>I, >IB records) encoding gave
    chal = Challenge("some-file", [3, 0, 7, 2**32 - 1, 65536], [200, 1, 255, 0, 17])
    assert chal.to_bytes().hex() == (
        "00000009736f6d652d66696c6500000005"
        "00000003c8" "0000000001" "00000007ff" "ffffffff00" "0001000011")


def test_challenge_rejects_duplicates():
    with pytest.raises(ValueError, match="distinct"):
        Challenge("f", [1, 1], [2, 3])
    with pytest.raises(ValueError, match="distinct"):
        Challenge("f", [5, 0, 9, 0], [1, 1, 1, 1])
    with pytest.raises(ValueError, match="at least one"):
        Challenge("f", [], [])


@pytest.mark.parametrize("indices, alphas", [
    pytest.param([2**32], [1], id="index-2^32"),
    pytest.param([-1], [3], id="negative-index"),
    pytest.param([2**64], [1], id="index-2^64"),
    pytest.param([1.0], [1], id="float-index"),
    pytest.param([1], [256], id="alpha-256"),
    pytest.param([0, 1], [1, -1], id="negative-alpha"),
    pytest.param([1], [True], id="bool-alpha"),
])
def test_challenge_rejects_entries_outside_the_wire_range(indices, alphas):
    # each used to construct and then fail in to_bytes with struct.error
    with pytest.raises(ValueError, match="must be integers"):
        Challenge("f", indices, alphas)


@pytest.mark.parametrize("indices, alphas", [
    ([1, 2], [1]), ([1], [1, 2]), ([[1, 2]], [[1, 2]]), (3, 4),
])
def test_challenge_rejects_mismatched_or_non_1d_arrays(indices, alphas):
    with pytest.raises(ValueError, match="1-D and of one length"):
        Challenge("f", np.array(indices), np.array(alphas))


def test_proof_wire_roundtrip(system, rng):
    keys, manifest, payloads = system
    chal = audit.gen_challenge(manifest, 3, 2, rng)
    p = payloads[3]
    proof = audit.gen_proof(p.rows, chal, keys.k_e,
                            _voucher(keys, manifest, chal), PARAMS)
    raw = proof.to_bytes()
    # data, counter k, two padding symbols, tag symbols
    assert len(raw) == (32 - 2) + 10 + 2 + 2
    back = Proof.from_bytes(raw, PARAMS)
    ok, _ = audit.verify_proof(keys.k_v, manifest, chal, back, {})
    assert ok


def test_multiplication_counts(system, rng):
    keys, manifest, payloads = system
    n, m, ell, C = PARAMS.n, PARAMS.m, PARAMS.ell, 2
    chal = audit.gen_challenge(manifest, 0, C, rng)
    p = payloads[0]
    voucher = _voucher(keys, manifest, chal)
    with field.counter:
        proof = audit.gen_proof(p.rows, chal, keys.k_e, voucher, PARAMS)
        total = field.counter.value
    # one product over C rows of n data and ell tag symbols; the direct mask
    # and the voucher cost none
    assert total == C * (n + ell)
    # the node's first verify builds its M*m*ell coefficient tags; a later
    # one MACs the n data symbols and combines C of those tags
    tags = {}
    for table in (PARAMS.M * m * ell, 0):
        with field.counter:
            ok, vstats = audit.verify_proof(keys.k_v, manifest, chal, proof, tags)
        assert ok
        assert vstats.mults == table + ell * (n + C)


def test_proof_privacy(system, rng):
    # the data symbols are masked, and what the TPA can strip from the tag
    # (its pad s_k) leaves exactly the MAC of the masked row: a function of
    # c_bar and public values, not the plain aggregate's tag
    keys, manifest, payloads = system
    p = payloads[0]
    chal = Challenge(manifest.file_id, [0], [9], 0)
    plain = field.vec_scale(9, np.concatenate([p.rows[0, :PARAMS.n],
                                            manifest.node_coeffs[0][0]]))
    voucher = _voucher(keys, manifest, chal)
    proof = audit.gen_proof(p.rows, chal, keys.k_e, voucher, PARAMS)
    fid = manifest.file_id.encode()
    assert not np.array_equal(proof.c_bar, plain[: PARAMS.n - 2])
    seen = proof.tag ^ ncrypt.voucher_pad(keys.k_v, fid, 0, voucher.k, PARAMS)
    masked = np.concatenate([proof.c_bar, plain[PARAMS.n - 2:]])
    assert np.array_equal(seen, spacemac.mac(keys.k_v, fid, masked, PARAMS.ell))
    assert not np.array_equal(seen, spacemac.mac(keys.k_v, fid, plain, PARAMS.ell))


def test_unseeded_keygen_leaves_generator_untouched(rng):
    # without a generator the keys come from the secrets module; a seeded
    # generator gives the same keys as its first two lambda-bit draws
    state = rng.bit_generator.state
    a, b = audit.keygen(PARAMS), audit.keygen(PARAMS, None)
    assert rng.bit_generator.state == state
    assert len(a.k_v) == len(a.k_e) == PARAMS.lambda_bits // 8
    assert len({a.k_v, a.k_e, b.k_v, b.k_e}) == 4
    seeded = audit.keygen(PARAMS, np.random.default_rng(9))
    twin = np.random.default_rng(9)
    assert (seeded.k_v, seeded.k_e) == (twin.bytes(10), twin.bytes(10))


def test_challenge_coefficients_nonzero(system, rng):
    keys, manifest, payloads = system
    alphas = np.concatenate([audit.gen_challenge(manifest, 0, 2, rng).alphas
                             for _ in range(2000)])
    assert alphas.min() >= 1


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_full_challenge_takes_every_row_and_draws_only_its_alphas(seed):
    # the aggregate is a sum, so a full challenge takes rows 0..M-1 in order
    # and draws no permutation of them; a partial one draws distinct rows
    params = SystemParams(n=16, m=8, N=2, M=5, P=1, Q=5, ell=2, lambda_bits=80)
    manifest = spawn_cluster(params, "random_functional", bytes(range(80)), seed).manifest
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    chal = audit.gen_challenge(manifest, 1, params.M, rng)
    assert chal.indices.tolist() == list(range(params.M))
    assert chal.alphas.min() >= 1
    assert np.array_equal(chal.alphas, twin.integers(1, 256, params.M, dtype=np.uint8))
    assert rng.bit_generator.state == twin.bit_generator.state
    for count in range(1, params.M):
        chal = audit.gen_challenge(manifest, 1, count, rng)
        assert len(set(chal.indices.tolist())) == count
        assert np.array_equal(chal.indices, twin.choice(params.M, count, replace=False))
        assert np.array_equal(chal.alphas, twin.integers(1, 256, count, dtype=np.uint8))


def test_full_node_audit_catches_every_corruption(rng):
    # a zero coefficient would leave the corrupted block out of the aggregate;
    # the coefficient part is never sent, so only data symbols are corrupted
    params = SystemParams(n=16, m=4, N=4, M=2, P=3, Q=1, ell=10, lambda_bits=80)
    keys = audit.keygen(params, rng)
    manifest, payloads = audit.setup_file(bytes(range(56)), params, keys,
                                          EVENODD4, rng)
    p, tags = payloads[2], {}
    for _ in range(2000):
        block, pos = int(rng.integers(2)), int(rng.integers(params.n))
        delta = int(rng.integers(1, 256))
        p.rows[block, pos] ^= delta
        chal = audit.gen_challenge(manifest, 2, 2, rng)
        proof = audit.gen_proof(p.rows, chal, keys.k_e,
                                _voucher(keys, manifest, chal), params)
        p.rows[block, pos] ^= delta
        assert not audit.verify_proof(keys.k_v, manifest, chal, proof, tags)[0]


def test_wire_parsers_reject_truncated_and_trailing(system, rng):
    keys, manifest, payloads = system
    chal = audit.gen_challenge(manifest, 3, 2, rng)
    p = payloads[3]
    proof = audit.gen_proof(p.rows, chal, keys.k_e,
                            _voucher(keys, manifest, chal), PARAMS)
    for raw, parse in [(chal.to_bytes(), Challenge.from_bytes),
                       (proof.to_bytes(), lambda b: Proof.from_bytes(b, PARAMS))]:
        for bad in (raw[:-1], raw[:3], b"", raw + b"\x00"):
            with pytest.raises(ValueError):
                parse(bad)


@settings(max_examples=300)
@given(st.one_of(st.binary(max_size=80), st.binary(min_size=44, max_size=44)))
def test_wire_parsers_raise_only_value_error(raw):
    # 44 bytes is a proof's length at PARAMS
    for parse in (Challenge.from_bytes, lambda b: Proof.from_bytes(b, PARAMS)):
        try:
            parsed = parse(raw)
        except ValueError:
            continue
        if isinstance(parsed, Proof):
            assert parsed.to_bytes() == raw  # any accepted proof round-trips


@given(st.text(max_size=12),
       st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=8, unique=True),
       st.data())
def test_challenge_roundtrip_any(file_id, indices, data):
    alphas = data.draw(st.lists(st.integers(0, 255), min_size=len(indices),
                                max_size=len(indices)))
    chal = Challenge(file_id, indices, alphas)
    back = Challenge.from_bytes(chal.to_bytes())
    assert _same_challenge(back, chal)
    assert back.indices.tolist() == indices and back.alphas.tolist() == alphas


# ------------------------------------------- cached coefficient tags

def _reference_verdict(k_v, manifest, chal, proof):
    """verify_proof's equation as one full-row check, with no shared code:
    spacemac.mac of [c_bar, pad, alpha·C[indices]] against tau stripped of
    its pad and brought up to date by hand, ⊕ c_i·δ_i over the sources i
    with a nonzero delta."""
    params = manifest.params
    coeffs = field.combine_rows(chal.alphas, manifest.node_coeffs[chal.node], chal.indices)
    fid = manifest.file_id.encode()
    tag = proof.tag ^ ncrypt.voucher_pad(k_v, fid, chal.node, proof.k, params)
    for i in np.flatnonzero(manifest.deltas.any(axis=1)):
        tag = tag ^ field.vec_scale(int(coeffs[i]), manifest.deltas[i])
    row = np.concatenate([proof.c_bar, proof.pad, coeffs])
    return bool((spacemac.mac(k_v, fid, row, params.ell) == tag).all())


def _round(cluster, node, count):
    """A challenge of count blocks of the node, and the node's honest proof
    under a voucher the TPA expects."""
    chal = cluster.tpa.challenge(node, count)
    voucher = cluster.user.issue(cluster.manifest, node)
    cluster.tpa.expect(node, voucher.k)
    return chal, cluster.nodes[node].answer(chal, voucher)


def _verify_mults(cluster, node, count):
    chal, proof = _round(cluster, node, count)
    with field.counter:
        ok, stats = cluster.tpa.verify(chal, proof)
    assert ok
    return stats.mults


TAMPERS = ("none", "data", "pad", "tag", "coefficient row")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_verdict_equals_the_full_row_check(data):
    ell = data.draw(st.sampled_from([1, 2, 10]), "ell")
    n = data.draw(st.integers(8, 40), "n")
    m, N, M = data.draw(st.sampled_from([(2, 2, 1), (3, 2, 2), (4, 3, 2), (5, 2, 4)]), "shape")
    params = SystemParams(n=n, m=m, N=N, M=M, P=N - 1, Q=1, ell=ell, lambda_bits=80)
    seed = data.draw(st.integers(0, 2**16), "seed")
    try:
        c = spawn_cluster(params, "random_functional", bytes(m * (n - 2)), seed)
    except ValueError:  # a random layout of rank below m
        assume(False)
    rng = np.random.default_rng(seed)
    payloads = {i: node.payload for i, node in c.nodes.items()}
    for index in data.draw(st.sets(st.integers(0, m - 1), max_size=m), "updated"):
        dynamics.update_block(c.manifest, payloads, c.user.keys, index, rng.bytes(3), rng)
    node = data.draw(st.integers(0, N - 1), "node")
    k_v = c.user.keys.k_v
    # warm the node's table with an honest proof, which both checks accept
    chal, proof = _round(c, node, M)
    assert audit.verify_proof(k_v, c.manifest, chal, proof, c.tpa.coeff_tags)[0]
    assert _reference_verdict(k_v, c.manifest, chal, proof)

    chal, proof = _round(c, node, data.draw(st.integers(1, M), "count"))
    tamper = data.draw(st.sampled_from(TAMPERS), "tamper")
    delta = data.draw(st.integers(1, 255), "delta")
    if tamper == "coefficient row":
        row = c.manifest.node_coeffs[node][chal.indices[0]]
        row[data.draw(st.integers(0, m - 1), "column")] ^= delta
    elif tamper != "none":
        symbols = {"data": proof.c_bar, "pad": proof.pad, "tag": proof.tag}[tamper]
        symbols[data.draw(st.integers(0, symbols.size - 1), "position")] ^= delta
    ok = audit.verify_proof(k_v, c.manifest, chal, proof, c.tpa.coeff_tags)[0]
    assert ok == _reference_verdict(k_v, c.manifest, chal, proof)
    # an edited coefficient escapes both checks when its source's tag
    # delta happens to cancel its MAC vector entries
    assert ok == (tamper == "none") or tamper == "coefficient row"


@pytest.mark.parametrize("field_name, values", [("ell", (1, 10)), ("n", (64, 96))])
def test_same_seed_clusters_of_other_shapes_share_no_coefficient_tags(field_name, values):
    # one seed and file id give the same keys and layout rows at every n
    # and ell; only the MAC vectors' columns n..n+m and their count differ
    clusters = []
    for value in values:
        params = SystemParams(**{**dict(n=64, m=6, N=3, M=4, P=2, Q=2, ell=2,
                                        lambda_bits=80), field_name: value})
        clusters.append(spawn_cluster(params, "random_functional",
                                      bytes(6 * (params.n - 2)), 33, file_id="twin"))
    assert np.array_equal(clusters[0].manifest.node_coeffs[0],
                          clusters[1].manifest.node_coeffs[0])
    for _ in range(2):
        for c in clusters:
            assert c.run_audit_round(0, 4)[0]


def test_a_coefficient_edited_in_place_is_not_served_a_stale_table():
    params = SystemParams(n=64, m=6, N=3, M=4, P=2, Q=4, ell=2, lambda_bits=80)
    c = spawn_cluster(params, "random_functional", bytes(range(200)), 41)
    coeffs = c.manifest.node_coeffs[0]
    assert c.run_audit_round(0, 4)[0]  # builds node 0's table
    coeffs[2, 3] ^= 1  # the same array object, other content
    assert not c.run_audit_round(0, 4)[0]
    coeffs[2, 3] ^= 1
    assert c.run_audit_round(0, 4)[0]
    # so is a tag delta: the table holds the deltas folded in
    column = np.flatnonzero(coeffs.any(axis=0))[0]
    c.manifest.deltas[column] ^= 1
    assert not c.run_audit_round(0, 4)[0]
    c.manifest.deltas[column] ^= 1
    assert c.run_audit_round(0, 4)[0]


def test_verify_costs_after_updates_appends_and_repairs():
    params = SystemParams(n=64, m=6, N=3, M=4, P=2, Q=4, ell=2, lambda_bits=80)
    c = spawn_cluster(params, "random_functional", bytes(range(200)), 41)
    n, ell, C = params.n, params.ell, 3
    payloads = {i: node.payload for i, node in c.nodes.items()}

    def table(node):
        M, m = c.manifest.node_coeffs[node].shape
        return M * m * ell

    assert _verify_mults(c, 0, C) == table(0) + ell * (n + C)
    assert _verify_mults(c, 0, C) == ell * (n + C)
    rng = np.random.default_rng(41)
    warm = ell * (n + C)
    # an update changes the deltas that every node's table folds in, so
    # each node's first verify after it rebuilds the table; the warm cost
    # stays ell·(n+C)
    for index in (1, 4):
        dynamics.update_block(c.manifest, payloads, c.user.keys, index, b"new", rng)
        assert _verify_mults(c, 0, C) == table(0) + warm
        assert _verify_mults(c, 0, C) == warm
    # an append widens every node's rows and lengthens those it is given:
    # each node's table is rebuilt once, at its new M and m
    dynamics.append_block(c.manifest, {1: payloads[1]}, c.user.keys, b"tail", rng)
    for node in (0, 1):
        assert table(node) == (4 + node) * 7 * ell
        assert _verify_mults(c, node, C) == table(node) + warm
        assert _verify_mults(c, node, C) == warm
    c.fail_and_repair(0, "exact")
    assert _verify_mults(c, 0, C) == warm
    c.fail_and_repair(0, "functional")
    assert _verify_mults(c, 0, C) == table(0) + warm
    assert _verify_mults(c, 0, C) == warm
    assert _verify_mults(c, 1, C) == warm


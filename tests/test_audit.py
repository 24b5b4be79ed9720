import contextlib
import hashlib
import itertools
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ncaudit import audit, dynamics, field, ncrypt, prf, repair, spacemac
from ncaudit.audit import Challenge, Proof
from ncaudit.blocks import SystemParams
from ncaudit.cluster import EVENODD4, Fault, Node, spawn_cluster

PARAMS = SystemParams(n=32, m=4, N=4, M=2, P=3, Q=1, ell=2, lambda_bits=80)
_COUNTER = itertools.count(1)


def _voucher(keys, manifest, chal):
    """A fresh voucher for the challenged node, as the user issues it."""
    return ncrypt.setup(keys.k_e, keys.k_v, manifest.file_id.encode(), chal.node,
                        next(_COUNTER), manifest.params)


def _audit(keys, manifest, node, count):
    """Audit k's challenge of count rows of a node, as the TPA derives it,
    and voucher k, as the user issues it, for a fresh k."""
    k = next(_COUNTER)
    return (audit.gen_challenge(keys.k_v, manifest, node, count, k),
            ncrypt.setup(keys.k_e, keys.k_v, manifest.file_id.encode(), node, k,
                         manifest.params))


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


def test_honest_round_accepts(system):
    keys, manifest, payloads = system
    tags = {}
    for node in range(4):
        for count in (1, 2):
            chal, voucher = _audit(keys, manifest, node, count)
            proof = audit.gen_proof(payloads[node].rows, chal, keys.k_e, voucher, PARAMS)
            ok, _ = audit.verify_proof(keys.k_v, manifest, chal, proof, tags)
            assert ok


def test_corrupted_block_rejected(system, rng):
    keys, manifest, payloads = system
    p = payloads[1]
    p.rows[0, 3] ^= 0x40
    rejections, tags = 0, {}
    for _ in range(50):
        chal = Challenge(manifest.file_id, 2, rng.bytes(10), 1)
        proof = audit.gen_proof(p.rows, chal, keys.k_e,
                                _voucher(keys, manifest, chal), PARAMS)
        ok, _ = audit.verify_proof(keys.k_v, manifest, chal, proof, tags)
        rejections += not ok
    assert rejections == 50  # no MAC key symbol is 0, so the tags always change


def test_wrong_coefficients_rejected(system):
    # proof is honest but the auditor's records disagree -> reject
    keys, manifest, payloads = system
    chal, voucher = _audit(keys, manifest, 2, 2)
    proof = audit.gen_proof(payloads[2].rows, chal, keys.k_e, voucher, PARAMS)
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
        chal = Challenge(manifest.file_id, 2, rng.bytes(10), 0)
        proof = node.answer(chal, _voucher(keys, manifest, chal))
        rejected += not audit.verify_proof(keys.k_v, manifest, chal, proof, tags)[0]
    assert rejected == 20


@pytest.mark.parametrize("index", [2, 99, 2**32 - 1])
def test_gen_proof_rejects_index_outside_store(system, rng, index):
    # a full challenge of index + 1 rows would take row index, outside the
    # node's 2; a node that holds fewer rows than the manifest refuses a
    # full challenge of the manifest's rows the same way
    keys, manifest, payloads = system
    p = payloads[0]
    chal = Challenge(manifest.file_id, index + 1, rng.bytes(10), 0)
    with pytest.raises(ValueError, match=rf"count {index + 1} outside \[1, 2\]"):
        audit.gen_proof(p.rows, chal, keys.k_e,
                        _voucher(keys, manifest, chal), PARAMS)
    chal = Challenge(manifest.file_id, 2, rng.bytes(10), 0)
    with pytest.raises(ValueError, match=r"count 2 outside \[1, 1\]"):
        audit.gen_proof(p.rows[:1], chal, keys.k_e,
                        _voucher(keys, manifest, chal), PARAMS)


def _same_challenge(a, b):
    return (a.file_id, a.count, a.seed) == (b.file_id, b.count, b.seed)


def test_challenge_wire_roundtrip():
    chal = Challenge("some-file", 3, bytes(range(10)), node=2)
    back = Challenge.from_bytes(chal.to_bytes(), PARAMS, node=2)
    assert _same_challenge(back, chal) and back.node == 2


def test_challenge_wire_golden():
    # u32 BE file id length, file id, u32 BE count, the lambda/8-byte seed:
    # 8 + |file id| + lambda/8 bytes whatever the count
    chal = Challenge("some-file", 300, bytes.fromhex("00112233445566778899"))
    assert chal.to_bytes().hex() == (
        "00000009" "736f6d652d66696c65" "0000012c" "00112233445566778899")
    assert len(Challenge("some-file", 2**32 - 1, bytes(10)).to_bytes()) == 8 + 9 + 10


def test_proof_wire_roundtrip(system):
    keys, manifest, payloads = system
    chal, voucher = _audit(keys, manifest, 3, 2)
    proof = audit.gen_proof(payloads[3].rows, chal, keys.k_e, voucher, PARAMS)
    raw = proof.to_bytes()
    # data, counter k, two padding symbols, tag symbols
    assert len(raw) == (32 - 2) + 10 + 2 + 2
    back = Proof.from_bytes(raw, PARAMS)
    ok, _ = audit.verify_proof(keys.k_v, manifest, chal, back, {})
    assert ok


def test_multiplication_counts(system):
    keys, manifest, payloads = system
    n, m, ell, C = PARAMS.n, PARAMS.m, PARAMS.ell, 2
    chal, voucher = _audit(keys, manifest, 0, C)
    p = payloads[0]
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
    chal = Challenge(manifest.file_id, 1, rng.bytes(10), 0)
    (index,), (alpha,) = chal.expand(2)
    plain = field.vec_scale(int(alpha), np.concatenate([p.rows[index, :PARAMS.n],
                                                     manifest.node_coeffs[0][index]]))
    voucher = _voucher(keys, manifest, chal)
    proof = audit.gen_proof(p.rows, chal, keys.k_e, voucher, PARAMS)
    fid = manifest.file_id.encode()
    assert not np.array_equal(proof.c_bar, plain[: PARAMS.n - 2])
    seen = proof.tag ^ ncrypt.voucher_pad(keys.k_v, fid, 0, voucher.k, PARAMS)
    masked = np.concatenate([proof.c_bar, plain[PARAMS.n - 2:]])
    assert np.array_equal(seen, spacemac.mac(keys.k_v, fid, masked, PARAMS.ell))
    assert not np.array_equal(seen, spacemac.mac(keys.k_v, fid, plain, PARAMS.ell))


def test_unseeded_keygen_leaves_generator_untouched(rng):
    # without a generator the keys come from os.urandom; a seeded
    # generator gives the same keys as its first two lambda-bit draws
    state = rng.bit_generator.state
    a, b = audit.keygen(PARAMS), audit.keygen(PARAMS, None)
    assert rng.bit_generator.state == state
    assert len(a.k_v) == len(a.k_e) == PARAMS.lambda_bits // 8
    assert len({a.k_v, a.k_e, b.k_v, b.k_e}) == 4
    seeded = audit.keygen(PARAMS, np.random.default_rng(9))
    twin = np.random.default_rng(9)
    assert (seeded.k_v, seeded.k_e) == (twin.bytes(10), twin.bytes(10))


def test_challenge_coefficients_nonzero(system):
    keys, manifest, payloads = system
    alphas = np.concatenate([audit.gen_challenge(keys.k_v, manifest, 0, count, k).expand(2)[1]
                             for k in range(1, 2001) for count in (1, 2)])
    assert alphas.size == 6000 and alphas.min() >= 1


def test_audit_k_seed_is_f2_under_k_v_at_the_node_and_k(system):
    # SHAKE256 over u8 len(k_v) || k_v || the F2 domain at the audit's nonce,
    # u32 BE node id || k as lambda/8 bytes BE, built by hand: the user, who
    # holds k_v and issues voucher k, derives each audit's challenge too
    keys, manifest, payloads = system
    fid = manifest.file_id.encode()
    seeds = set()
    for node, k in itertools.product(range(4), (1, 2, 2**80 - 1)):
        nonce = struct.pack(">I", node) + k.to_bytes(10, "big")
        want = hashlib.shake_256(bytes([len(keys.k_v)]) + keys.k_v + bytes([2])
                                 + struct.pack(">I", len(fid)) + fid
                                 + struct.pack(">I", len(nonce)) + nonce).digest(10)
        chal = audit.gen_challenge(keys.k_v, manifest, node, 1, k)
        assert (chal.file_id, chal.count, chal.seed, chal.node) == (manifest.file_id, 1,
                                                                    want, node)
        seeds.add(chal.seed)
    assert len(seeds) == 12


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_full_challenge_takes_every_row_and_draws_only_its_alphas(seed):
    # the aggregate is a sum, so a full challenge names no index, taking
    # rows 0..M-1 in order, and reads only its coefficients' range, no
    # ranks; a partial one under
    # the same seed takes distinct rows and a prefix of those coefficients
    params = SystemParams(n=16, m=8, N=2, M=5, P=1, Q=5, ell=2, lambda_bits=80)
    c = spawn_cluster(params, "random_functional", bytes(range(80)), seed)
    chal = audit.gen_challenge(c.user.keys.k_v, c.manifest, 1, params.M, 1)
    with mock.patch.object(prf, "eval_range", wraps=prf.eval_range) as read:
        indices, alphas = chal.expand(params.M)
    assert indices is None
    assert alphas.min() >= 1
    assert [call.args[3] for call in read.call_args_list] == [(2,)]
    for count in range(1, params.M):
        rows, head = Challenge(chal.file_id, count, chal.seed, 1).expand(params.M)
        assert len(set(rows.tolist())) == count and rows.max() < params.M
        assert np.array_equal(head, alphas[:count])


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
        chal, voucher = _audit(keys, manifest, 2, 2)
        proof = audit.gen_proof(p.rows, chal, keys.k_e, voucher, params)
        p.rows[block, pos] ^= delta
        assert not audit.verify_proof(keys.k_v, manifest, chal, proof, tags)[0]


def test_wire_parsers_reject_truncated_and_trailing(system):
    keys, manifest, payloads = system
    chal, voucher = _audit(keys, manifest, 3, 1)
    proof = audit.gen_proof(payloads[3].rows, chal, keys.k_e, voucher, PARAMS)
    for raw, parse in [(chal.to_bytes(), lambda b: Challenge.from_bytes(b, PARAMS)),
                       (proof.to_bytes(), lambda b: Proof.from_bytes(b, PARAMS))]:
        for bad in (raw[:-1], raw[:3], b"", raw + b"\x00"):
            with pytest.raises(ValueError):
                parse(bad)


@settings(max_examples=300)
@given(st.one_of(st.binary(max_size=80), st.binary(min_size=44, max_size=44),
                 st.builds(lambda fid, rest: struct.pack(">I", len(fid)) + fid + rest,
                           st.binary(max_size=8), st.binary(max_size=16))))
def test_wire_parsers_raise_only_value_error(raw):
    # 44 bytes is a proof's length at PARAMS; the third strategy frames a
    # file id, so the challenge parser meets its length check
    for parse in (lambda b: Challenge.from_bytes(b, PARAMS),
                  lambda b: Proof.from_bytes(b, PARAMS)):
        try:
            parsed = parse(raw)
        except ValueError:
            continue
        assert parsed.to_bytes() == raw  # anything accepted round-trips


@given(st.text(max_size=12), st.integers(0, 2**32 - 1), st.binary(min_size=10, max_size=10),
       st.integers(0, 2**32 - 1))
def test_challenge_roundtrip_any(file_id, count, seed, node):
    chal = Challenge(file_id, count, seed, node)
    raw = chal.to_bytes()
    assert len(raw) == 8 + len(file_id.encode()) + 10
    back = Challenge.from_bytes(raw, PARAMS, node)
    assert _same_challenge(back, chal) and back.node == node


# ------------------------------------------------- challenge expansion

def _expand_by_hand(file_id, count, seed, node, M):
    """Challenge.expand in plain Python over hashlib, sharing no code with
    ncaudit: SHAKE256 over u8 len(seed) || seed || the F2 domain at the
    node's u32 BE id, head index 1 for the rows' u32 BE ranks and 2 for the
    coefficients, the first count nonzero bytes."""
    fid = file_id.encode()

    def stream(index, length):
        domain = (bytes([2]) + struct.pack(">I", len(fid)) + fid + struct.pack(">I", 4)
                  + struct.pack(">I", node) + struct.pack(">I", index))
        return hashlib.shake_256(bytes([len(seed)]) + seed + domain).digest(length)

    if count == M:
        rows = list(range(M))
    else:
        ranks = stream(1, 4 * M)
        rows = sorted(range(M), key=lambda j: (ranks[4 * j: 4 * j + 4], j))[:count]
    alphas = [b for b in stream(2, 2 * count + 64) if b][:count]
    assert len(alphas) == count
    return rows, alphas


def _rows(indices, M):
    """Challenge.expand's rows as a list: None names all M in order."""
    return list(range(M)) if indices is None else indices.tolist()


# frozen outputs of _expand_by_hand (computed once, pinned): the rows and
# coefficients of challenges under SEED at node 3 of "golden-file"
SEED = bytes(range(0xa0, 0xaa))
EXPANDED = {
    (3, 8): ([7, 4, 0], [235, 174, 84]),
    (8, 8): (list(range(8)), [235, 174, 84, 31, 74, 177, 80, 220]),
}
# C = 100 of M = 300: SHA-256 of the rows as u16 BE, then the coefficients
EXPANDED_100_300_SHA256 = "c16d20a4300b84a4af09c6ce1be640061dbebb413de1973a1a552a58da5383b8"


def test_expansion_known_answers():
    for (count, M), want in EXPANDED.items():
        rows, alphas = Challenge("golden-file", count, SEED, node=3).expand(M)
        assert (_rows(rows, M), alphas.tolist()) == want
    rows, alphas = Challenge("golden-file", 100, SEED, node=3).expand(300)
    digest = hashlib.sha256(struct.pack(">100H", *rows) + alphas.tobytes()).hexdigest()
    assert digest == EXPANDED_100_300_SHA256


@settings(max_examples=150, deadline=None)
@example("f", 1, bytes(10), 0, 1)
@example("f", 299, bytes(10), 2**32 - 1, 300)
@given(st.text(max_size=8), st.integers(1, 64), st.binary(min_size=1, max_size=64),
       st.integers(0, 2**32 - 1), st.integers(0, 64))
def test_expansion_equals_the_hand_built_one(file_id, count, seed, node, extra):
    M = count + extra
    rows, alphas = Challenge(file_id, count, seed, node).expand(M)
    assert (rows is None) == (extra == 0)
    assert rows is None or rows.dtype.kind in "iu"
    assert alphas.dtype == np.uint8
    assert (_rows(rows, M), alphas.tolist()) == _expand_by_hand(file_id, count, seed, node, M)


def test_expansion_refuses_a_count_outside_the_rows():
    for count, M in ((0, 3), (4, 3), (1, 0)):
        with pytest.raises(ValueError, match=rf"count {count} outside \[1, {M}\]"):
            Challenge("f", count, bytes(10)).expand(M)


# ------------------------------------------- cached coefficient tags

def _reference_verdict(k_v, manifest, chal, proof):
    """verify_proof's equation as one full-row check, with no shared code:
    spacemac.mac of [c_bar, pad, alpha·C[indices]], the challenge expanded
    by hand, against tau stripped of its pad and brought up to date by
    hand, ⊕ c_i·δ_i over the sources i with a nonzero delta."""
    params, rows = manifest.params, manifest.node_coeffs[chal.node]
    indices, alphas = _expand_by_hand(chal.file_id, chal.count, chal.seed, chal.node,
                                      rows.shape[0])
    coeffs = field.combine_rows(np.array(alphas, dtype=np.uint8), rows, np.array(indices))
    fid = manifest.file_id.encode()
    tag = proof.tag ^ ncrypt.voucher_pad(k_v, fid, chal.node, proof.k, params)
    for i in np.flatnonzero(manifest.deltas.any(axis=1)):
        tag = tag ^ field.vec_scale(int(coeffs[i]), manifest.deltas[i])
    row = np.concatenate([proof.c_bar, proof.pad, coeffs])
    return bool((spacemac.mac(k_v, fid, row, params.ell) == tag).all())


def _round(cluster, node, count):
    """A challenge of count blocks of the node, and the node's honest proof
    under a voucher the TPA expects."""
    voucher = cluster.user.issue(cluster.manifest, node)
    cluster.tpa.expect(node, voucher.k)
    chal = cluster.tpa.challenge(node, count, voucher.k)
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
    m, N, M = data.draw(st.sampled_from([(2, 2, 1), (3, 2, 2), (4, 3, 2), (5, 2, 4),
                                         (3, 3, 2)]), "shape")
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
    # an append lengthens the rows of the nodes given the block, and a
    # functional repair redraws a node's rows; both change the table
    given = data.draw(st.sets(st.integers(0, N - 1), max_size=N), "appended to")
    if given:
        dynamics.append_block(c.manifest, {i: payloads[i] for i in given}, c.user.keys,
                              rng.bytes(3), rng)
    repaired = data.draw(st.sampled_from([None, *range(N)]), "repaired")
    if repaired is not None:
        with contextlib.suppress(repair.PlanningError):  # helpers that span too little
            c.fail_and_repair(repaired, "functional")
    node = data.draw(st.integers(0, N - 1), "node")
    M = len(c.manifest.node_coeffs[node])
    k_v = c.user.keys.k_v
    # warm the node's table with an honest proof, which both checks accept
    chal, proof = _round(c, node, M)
    assert audit.verify_proof(k_v, c.manifest, chal, proof, c.tpa.coeff_tags)[0]
    assert _reference_verdict(k_v, c.manifest, chal, proof)

    chal, proof = _round(c, node, data.draw(st.integers(1, M), "count"))
    tamper = data.draw(st.sampled_from(TAMPERS), "tamper")
    delta = data.draw(st.integers(1, 255), "delta")
    if tamper == "coefficient row":
        row = c.manifest.node_coeffs[node][_rows(chal.expand(M)[0], M)[0]]
        row[data.draw(st.integers(0, row.size - 1), "column")] ^= delta
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


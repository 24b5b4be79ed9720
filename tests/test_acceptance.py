"""End-to-end acceptance checks.  Each test prints one PASS line with its
measured numbers once its assertions hold (shown under pytest -s / on the
captured-output report)."""

import time
from fractions import Fraction

import numpy as np
import pytest

from ncaudit import (audit, dynamics, extractor, field, ncrypt, prf, repair,
                     spacemac)
from ncaudit.blocks import SystemParams, decode_file
from ncaudit.cluster import EVENODD4, Fault, spawn_cluster


def _report(name, detail):
    print(f"\n[acceptance] {name}: PASS — {detail}")


# ------------------------------------------------------------------ 1

def test_criterion_01_homomorphic_correctness():
    params = SystemParams(n=64, m=8, N=4, M=8, P=3, Q=1, ell=2)
    rng = np.random.default_rng(101)
    k_v = rng.bytes(16)
    fid = b"c1"
    t0 = time.perf_counter()
    for trial in range(1000):
        k = int(rng.integers(2, 6))
        rows = rng.integers(0, 256, (k, 72), dtype=np.uint8)
        tags = spacemac.mac(k_v, fid, rows, ell=2)
        alphas = rng.integers(0, 256, k, dtype=np.uint8)
        combined = field.combine_rows(alphas, rows)
        t = field.combine_rows(alphas, tags)
        assert np.array_equal(spacemac.mac(k_v, fid, combined, ell=2), t)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5
    _report("1 homomorphic correctness",
            f"1000/1000 combine-then-verify accepted in {elapsed:.2f}s")


# ------------------------------------------------------------------ 2

def test_criterion_02_audit_correctness():
    t0 = time.perf_counter()
    results = {}
    for layout, params in [
        ("evenodd4", SystemParams(n=64, m=4, N=4, M=2, P=3, Q=1, ell=2,
                                  lambda_bits=80)),
        ("random_functional", SystemParams(n=64, m=6, N=4, M=2, P=3, Q=1,
                                           ell=2, lambda_bits=80)),
    ]:
        c = spawn_cluster(params, layout, bytes(range(200)), seed=202)
        accepted = sum(
            c.run_audit_round(int(node), 2)[0]
            for node, _ in zip(np.tile(np.arange(4), 250), range(1000)))
        results[layout] = accepted
        assert accepted == 1000
    elapsed = time.perf_counter() - t0
    assert elapsed < 10
    _report("2 audit correctness",
            f"1000/1000 accepted on both layouts in {elapsed:.2f}s")


# ------------------------------------------------------------------ 3

def _detection_trials(ell, trials, seed, keys_to_try=100):
    # fresh keys per batch: a corrupted symbol slipped through wherever a
    # key's F1 keystream was 0 at its position, before the MAC vectors
    # skipped zero symbols, so the check runs over many keys
    params = SystemParams(n=16, m=4, N=4, M=2, P=3, Q=1, ell=ell,
                          lambda_bits=80)
    rng = np.random.default_rng(seed)
    accepts = 0
    per_key = trials // keys_to_try
    for _ in range(keys_to_try):
        keys = audit.keygen(params, rng)
        manifest, payloads = audit.setup_file(bytes(range(56)), params, keys,
                                              EVENODD4, rng,
                                              file_id=f"c3-{rng.integers(2**32)}")
        accepts += _detection_batch(params, keys, manifest, payloads,
                                    per_key, rng)
    return accepts


def _detection_batch(params, keys, manifest, payloads, trials, rng):
    accepts, tags = 0, {}
    fid = manifest.file_id.encode()
    for k in range(1, trials + 1):
        node = int(rng.integers(4))
        # a full challenge: the corrupted block enters the aggregate with a
        # nonzero coefficient, so an acceptance is a miss
        chal = audit.gen_challenge(keys.k_v, manifest, node, 2, k)
        p = payloads[node]
        target = int(rng.integers(2))
        pos = int(rng.integers(params.n))
        delta = int(rng.integers(1, 256))
        p.rows[target, pos] ^= delta             # corrupt one data symbol
        voucher = ncrypt.setup(keys.k_e, keys.k_v, fid, node, k, params)
        proof = audit.gen_proof(p.rows, chal, keys.k_e, voucher, params)
        p.rows[target, pos] ^= delta             # restore
        ok, _ = audit.verify_proof(keys.k_v, manifest, chal, proof, tags)
        accepts += ok
    return accepts


def test_criterion_03_detection_rate():
    t0 = time.perf_counter()
    # a single corrupted symbol in a challenged block changes every tag by
    # alpha * delta * r_j[pos], none of them 0, so no trial is accepted
    accepts_1 = _detection_trials(ell=1, trials=10_000, seed=303)
    assert accepts_1 == 0
    accepts_10 = _detection_trials(ell=10, trials=10_000, seed=304)
    assert accepts_10 == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    _report("3 detection rate",
            f"single-tag acceptances {accepts_1}/10000; "
            f"ten-tag acceptances {accepts_10}/10000 in {elapsed:.1f}s")


# ------------------------------------------------------------------ 4

def test_criterion_04_mask_tag_identity():
    # the voucher identity: v_k = <m_k, r_j[:n-2]> + s_{k,j} for every k, j
    params = SystemParams(n=16, m=4, N=4, M=2, P=3, Q=1, ell=2,
                          lambda_bits=80)
    rng = np.random.default_rng(404)
    k_e, k_v, fid = rng.bytes(16), rng.bytes(16), b"c4"
    rs = np.stack([spacemac.r_vector(k_v, fid, params.n - 2, j) for j in (1, 2)])
    t0 = time.perf_counter()
    for k in range(1, 10_001):
        node = k % 4
        voucher = ncrypt.setup(k_e, k_v, fid, node, k, params)
        mask = ncrypt.mask_for_nonce(k_e, fid, node, k, params)
        pad = ncrypt.voucher_pad(k_v, fid, node, k, params)
        assert np.array_equal(voucher.value ^ pad, field.combine_rows(mask, rs.T))
    elapsed = time.perf_counter() - t0
    assert elapsed < 10
    _report("4 voucher identity",
            f"10000 vouchers, exact equality for both key indices in {elapsed:.1f}s")


# ------------------------------------------------------------------ 5

def test_criterion_05_masking_structure():
    # the direct mask: roundtrip per k, and a fresh mask for every k and node
    rng = np.random.default_rng(505)
    small = SystemParams(n=16, m=4, N=4, M=2, P=3, Q=1, ell=1, lambda_bits=80)
    k_e, fid = rng.bytes(16), b"c5"
    for k in range(1, 10_001):
        e_bar = rng.integers(0, 256, 14, dtype=np.uint8)
        c_bar = ncrypt.enc(k_e, fid, k % 4, k, e_bar, small)
        assert np.array_equal(ncrypt.dec(k_e, fid, k % 4, k, c_bar, small), e_bar)
    # freshness: one plaintext under 250 counters at each of 4 nodes
    e_bar = rng.integers(0, 256, 14, dtype=np.uint8)
    masks = {ncrypt.enc(k_e, fid, node, k, e_bar, small).tobytes()
             for node in range(4) for k in range(1, 251)}
    assert len(masks) == 1000
    # the mask is the F3 keystream, whose symbols spread over the field
    big = SystemParams(n=4096, m=4, N=4, M=2, P=3, Q=1, ell=1, lambda_bits=80)
    counts = np.bincount(ncrypt.mask_for_nonce(k_e, fid, 0, 1, big), minlength=256)
    assert counts.min() > 0 and counts.max() < 4 * 4094 // 256
    assert prf.derive_mask(k_e, fid, b"\x00" * 4 + (1).to_bytes(10, "big"),
                           4094).tobytes() == \
        ncrypt.mask_for_nonce(k_e, fid, 0, 1, big).tobytes()
    _report("5 masking structure",
            "10000 roundtrips, 1000/1000 fresh masks over (node, k)")


# ------------------------------------------------------------------ 6

def test_criterion_06_repair():
    params = SystemParams(n=64, m=4, N=4, M=2, P=3, Q=1, ell=10,
                          lambda_bits=80)
    c = spawn_cluster(params, "evenodd4", bytes(range(248)), seed=606)
    before_blocks, before_tags = c.snapshot_node(3)
    c.fail_and_repair(3, "exact")
    after = c.nodes[3].payload
    assert np.array_equal(np.hstack([np.stack([b.vec for b in before_blocks]),
                                     np.stack(before_tags)]), after.rows)
    assert c.user.ledger.sent["data_block_bytes"] == 0
    assert c.user.ledger.received["data_block_bytes"] == 0
    assert all(c.run_audit_round(node, 2)[0]
               for node in range(4) for _ in range(25))
    # replay of pre-repair blocks after a functional repair
    snap = c.nodes[1].payload.rows.copy()
    c.fail_and_repair(1, "functional")
    c.inject_fault(1, Fault("replay_old", snapshot=snap))
    rejected = sum(not c.run_audit_round(1, 2)[0] for _ in range(1000))
    assert rejected == 1000
    _report("6 repair",
            "exact repair bit-for-bit, 0 user data bytes, "
            f"replay rejected {rejected}/1000 at ten tags")


# ---------------------------------------------------------- 7 and 8

@pytest.fixture(scope="module")
def paper_cluster():
    # perfbench's paper-audit store: 4 KB blocks, m=500, two nodes of
    # C=300 blocks each, ell=10, lambda=80
    n, m = 4096, 500
    params = SystemParams(n=n, m=m, N=2, M=300, P=1, Q=1, ell=10, lambda_bits=80)
    data = np.random.default_rng(707).bytes(m * (n - 2))
    return spawn_cluster(params, "random_functional", data, seed=707)


def _full_node_challenge(c, node=0, count=None):
    # the round's first half, up to the node: a challenge of all C blocks,
    # or of count of them, and a voucher the TPA expects
    voucher = c.user.issue(c.manifest, node)
    c.tpa.expect(node, voucher.k)
    return c.tpa.challenge(node, count or c.manifest.params.M, voucher.k), voucher


def test_criterion_07_cost_formulas(paper_cluster):
    c = paper_cluster
    params = c.manifest.params
    n, m, C, ell = params.n, params.m, params.M, params.ell
    chal, voucher = _full_node_challenge(c)
    with field.counter:
        proof = c.nodes[0].answer(chal, voucher)
        gen_total = field.counter.value
    # C*n data and C*ell tag symbols in one product; masking costs none
    assert gen_total == C * (n + ell) == 1_231_800
    assert len(proof.to_bytes()) == (n - 2) + 80 // 8 + 2 + ell
    # the first verify of a node builds its table of M*m*ell coefficient
    # tags; later ones take one product of the n data symbols and the C
    # alphas with the MAC vectors' data columns joined to those tags
    with field.counter:
        ok, cold = c.tpa.verify(chal, proof)
    assert ok and cold.mults == params.M * m * ell + ell * (n + C) == 1_543_960
    chal, voucher = _full_node_challenge(c)
    proof = c.nodes[0].answer(chal, voucher)
    with field.counter:
        ok, vstats = c.tpa.verify(chal, proof)
    assert ok
    assert vstats.mults == ell * n + C * ell == 43_960
    _report("7 cost formulas",
            f"gen {gen_total} == C*(n+ell); verify {vstats.mults} == "
            "ell*(n+C), exact, after one table build of M*m*ell "
            f"({cold.mults - vstats.mults})")


def test_criterion_07_partial_challenge_costs(paper_cluster):
    # C = 200 of M = 300 stored blocks, still in the digit loop: the counts follow
    # the challenged rows, not every row the store and the manifest hold
    c = paper_cluster
    params = c.manifest.params
    n, ell, C = params.n, params.ell, 200
    warm, voucher = _full_node_challenge(c, count=1)  # builds node 0's coefficient tags
    assert c.tpa.verify(warm, c.nodes[0].answer(warm, voucher))[0]
    chal, voucher = _full_node_challenge(c, count=C)
    with field.counter:
        proof = c.nodes[0].answer(chal, voucher)
        assert field.counter.value == C * (n + ell) == 821_200
    with field.counter:
        ok, vstats = c.tpa.verify(chal, proof)
    assert ok and vstats.mults == ell * n + C * ell == 42_960


def test_criterion_08_timing(paper_cluster):
    # gen_proof now includes deriving the mask; the voucher is issued
    # beforehand at the user
    c = paper_cluster
    gen_ms, ver_ms = [], []
    for _ in range(20):
        chal, voucher = _full_node_challenge(c)
        t0 = time.perf_counter()
        proof = c.nodes[0].answer(chal, voucher)
        t1 = time.perf_counter()
        ok, _ = c.tpa.verify(chal, proof)
        t2 = time.perf_counter()
        assert ok
        gen_ms.append((t1 - t0) * 1e3)
        ver_ms.append((t2 - t1) * 1e3)
    gen_med = sorted(gen_ms)[len(gen_ms) // 2]
    ver_med = sorted(ver_ms)[len(ver_ms) // 2]
    assert gen_med <= 50
    assert ver_med <= 10
    _report("8 timing",
            f"median gen {gen_med:.2f} ms <= 50, verify {ver_med:.2f} ms <= 10")


# ------------------------------------------------------------------ 9

def test_criterion_09_bandwidth_overhead():
    n, ell, lam = 4096, 1, 80
    overhead = Fraction(lam // 8 + ell + 2, n)
    assert overhead == Fraction(13, 4096)
    assert overhead < Fraction(1, 100)
    # the serialized proof carries exactly that many bytes beyond n - 2:
    # the counter k, the two padding symbols and the ell symbols of tau
    params = SystemParams(n=n, m=4, N=4, M=2, P=3, Q=1, ell=ell,
                          lambda_bits=lam)
    c = spawn_cluster(params, "evenodd4", bytes(range(200)), seed=909)
    accepted, record = c.run_audit_round(0, 2)
    assert accepted
    proof_bytes = record["proof_bytes"]
    assert proof_bytes - (n - 2) == 12 + ell == 13
    _report("9 bandwidth overhead",
            f"13/4096 = {float(overhead):.4%} < 1%")


# ----------------------------------------------------------------- 10

def test_criterion_10_retrievability():
    params = SystemParams(n=32, m=8, N=4, M=8, P=3, Q=1, ell=2,
                          lambda_bits=80)
    data = bytes(range(240))
    c = spawn_cluster(params, "random_functional", data, seed=1010)
    node = 1
    c.inject_fault(node, Fault("lie_probability", epsilon=0.2))
    p = c.nodes[node].payload
    t0 = time.perf_counter()
    successes = 0
    for trial in range(100):
        try:
            report = extractor.extract_node(c, node, np.random.default_rng(10_000 + trial))
        except extractor.ExtractionError:
            continue
        if not np.array_equal(report.rows, p.rows):
            continue
        # the extracted data symbols joined to the manifest's coefficients
        full = np.hstack([report.rows[:, :params.n], c.manifest.node_coeffs[node]])
        if decode_file(full, c.manifest) != data:
            continue
        successes += 1
    elapsed = time.perf_counter() - t0
    assert successes >= 99
    assert elapsed < 120
    _report("10 retrievability",
            f"{successes}/100 extractions recovered the file in {elapsed:.1f}s")


# ----------------------------------------------------------------- 11

def test_criterion_11_dynamics():
    # append to a subset of nodes: nodes 1 and 2 each store a plain copy of
    # the new block, nodes 0 and 3 keep their stores bit-identical, and
    # every node's old coefficient rows gain a zero column
    params = SystemParams(n=16, m=4, N=4, M=2, P=3, Q=1, ell=2,
                          lambda_bits=80)
    c = spawn_cluster(params, "evenodd4", bytes(range(56)), seed=1111)
    payloads = {i: c.nodes[i].payload for i in c.nodes}
    before = {i: (p.rows.copy(), c.manifest.node_coeffs[i].copy())
              for i, p in payloads.items()}
    rng = np.random.default_rng(1)
    index = dynamics.append_block(c.manifest, {i: payloads[i] for i in (1, 2)},
                                  c.user.keys, b"fifth", rng)
    assert index == 4
    for i, (rows, coeffs) in before.items():
        given = i in (1, 2)
        assert np.array_equal(payloads[i].rows[:2], rows)  # old tags bit-identical
        assert np.array_equal(c.manifest.node_coeffs[i][:2, :4], coeffs)
        assert not c.manifest.node_coeffs[i][:2, 4].any()
        assert payloads[i].rows.shape[0] == c.manifest.node_coeffs[i].shape[0] == 2 + given
    b5 = payloads[1].rows[-1]
    assert np.array_equal(payloads[2].rows[-1], b5)
    assert bytes(b5[:5]) == b"fifth" and not b5[5:14].any()
    assert all(np.array_equal(c.manifest.node_coeffs[i][-1], np.eye(5, dtype=np.uint8)[4])
               for i in (1, 2))
    assert all(c.run_audit_round(node, 2)[0] for node in range(4))
    assert c.decode_current_file() == bytes(range(56)) + b"fifth"

    # delta-compensated verification at ten tags: updated nodes accept,
    # a stale node is rejected, 1000 rounds each
    params10 = SystemParams(n=16, m=4, N=4, M=2, P=3, Q=1, ell=10,
                            lambda_bits=80)
    c2 = spawn_cluster(params10, "evenodd4", bytes(range(56)), seed=1112)
    payloads2 = {i: c2.nodes[i].payload for i in c2.nodes}
    stale = 3
    live = {i: p for i, p in payloads2.items() if i != stale}
    dynamics.update_block(c2.manifest, live, c2.user.keys, 1, b"updated", rng)
    accepted = sum(c2.run_audit_round(int(node), 2)[0]
                   for node in np.tile(np.arange(3), 334)[:1000])
    # a challenge whose aggregate excludes the updated source block cannot
    # distinguish stale from fresh; audit until 1000 rounds sample it
    rejected = rounds = 0
    while rounds < 1000:
        accepted_k, _, voucher, _ = c2.exchange(stale, 2)
        indices, alphas = c2.tpa.challenge(stale, 2, voucher.k).expand(2)
        aug = field.combine_rows(alphas, c2.manifest.node_coeffs[stale], indices)
        if not aug[1]:
            continue
        rounds += 1
        rejected += not accepted_k
    assert accepted == 1000
    assert rejected == 1000

    # insert/delete round-trip through decode
    index = dynamics.insert_block(c2.manifest, payloads2, c2.user.keys, 1,
                                  b"mid", rng)
    dynamics.delete_block(c2.manifest, payloads2, c2.user.keys, index, rng)
    expect = bytes(range(14)) + b"updated" + bytes(range(28, 56))
    fresh = np.concatenate([np.hstack([payloads2[i].rows[:, :16], c2.manifest.node_coeffs[i]])
                            for i in live])  # skip stale node
    assert decode_file(fresh, c2.manifest) == expect
    _report("11 dynamics",
            "append to 2 of 4 nodes with old tags bit-identical; update "
            f"accepts {accepted}/1000, rejects stale {rejected}/1000; "
            "insert/delete round-trips")


# ----------------------------------------------------------------- 12

def test_criterion_12_two_node_fault_tolerance():
    import itertools
    params = SystemParams(n=16, m=4, N=4, M=2, P=3, Q=1, ell=1,
                          lambda_bits=80)
    data = bytes(range(56))
    c = spawn_cluster(params, "evenodd4", data, seed=1212)
    patterns = list(itertools.combinations(range(4), 2))
    for dead in patterns:
        keep = [n for n in range(4) if n not in dead]
        rows = np.concatenate([np.hstack([c.nodes[n].payload.rows[:, :params.n],
                                          c.manifest.node_coeffs[n]]) for n in keep])
        assert field.matrix_rank(rows[:, params.n:]) == 4
        assert decode_file(rows, c.manifest) == data
    _report("12 two-node fault tolerance",
            f"all {len(patterns)} failure patterns decodable")

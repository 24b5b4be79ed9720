"""Security games for the README's claims, each adversary built only from
what its role holds.

* A node holds its payload (blocks, tags, k_e), its blocks' coefficient
  rows (the manifest's record of them), the vouchers the user issued to
  it, and the challenges it answered, each a count and a seed.
* A TPA holds k_v, the manifest, and every proof it received.

Counts are checked against binomial tolerances: a bound is the smallest
count that an adversary with the stated success probability exceeds with
probability below 1e-6, so a deterministic seed that passes is not luck.
"""

import functools
import types
from math import comb

import numpy as np
import pytest

from ncaudit import audit, dynamics, extractor, field, ncrypt, repair, spacemac
from ncaudit.audit import Proof
from ncaudit.blocks import SystemParams
from ncaudit.cluster import Fault, spawn_cluster

TRIALS = 200
ALPHA = 1e-6


def _upper(trials: int, p: float) -> int:
    """The smallest c with P(Binomial(trials, p) > c) < ALPHA."""
    tail = 1.0
    for c in range(trials + 1):
        tail -= comb(trials, c) * p ** c * (1 - p) ** (trials - c)
        if tail < ALPHA:
            return c
    return trials


def _lower(trials: int, p: float) -> int:
    """The largest c with P(Binomial(trials, p) < c) < ALPHA."""
    below = 0.0
    for c in range(trials + 1):
        below += comb(trials, c) * p ** c * (1 - p) ** (trials - c)
        if below >= ALPHA:
            return c
    return trials


def _params(ell: int) -> SystemParams:
    return SystemParams(n=32, m=4, N=4, M=2, P=3, Q=1, ell=ell, lambda_bits=80)


# ------------------------------------------------------------ node forgery

VOUCHERS = 40  # vouchers the node holds: more equations than r has symbols


def _solve_r(blocks, tags, masks, vouchers, width):
    """The node's best algebraic guess at every r_j: solve its stored rows
    against their tags together with its masks against their vouchers,
    read as <m_k, r_j>.  When those equations are inconsistent it keeps the
    stored rows and the first masks that leave the system square."""
    mask_rows = np.zeros((len(masks), width), dtype=np.uint8)
    mask_rows[:, : masks.shape[1]] = masks
    a = np.concatenate([blocks, mask_rows])
    b = np.concatenate([tags, vouchers])
    res = field.gaussian_solve(a, b)
    if res.solution is None:
        keep = blocks.shape[0] + masks.shape[1]
        res = field.gaussian_solve(a[:keep], b[:keep])
    if res.solution is None:
        return np.zeros((width, tags.shape[1]), dtype=np.uint8)
    return res.solution


def _forge(ell: int, seed: int, strategy: str) -> bool:
    """A node edits one stored data symbol, patches its tag, and is
    audited on every block, the edited one among them; True when the TPA
    accepts."""
    params = _params(ell)
    c = spawn_cluster(params, "evenodd4", bytes(range(120)), seed=seed)
    node, fid = 1, c.manifest.file_id.encode()
    payload = c.nodes[node].payload
    rng = np.random.default_rng(seed)
    # the node's view: its payload and VOUCHERS vouchers with their masks;
    # answering audits with them would add nothing about r
    issued = [c.user.issue(c.manifest, node) for _ in range(VOUCHERS)]
    vouchers = [v.value for v in issued]
    masks = [ncrypt.mask_for_nonce(payload.k_e, fid, node, v.k, params) for v in issued]

    block, pos = int(rng.integers(2)), int(rng.integers(params.n - 2))
    delta = int(rng.integers(1, 256))
    if strategy == "algebra":
        # the node knows its coefficient rows, so it solves over full rows
        rows = np.hstack([payload.rows[:, :params.n], c.manifest.node_coeffs[node]])
        r_hat = _solve_r(rows, payload.rows[:, params.n:], np.stack(masks),
                         np.stack(vouchers), rows.shape[1])
        patch = field.vec_scale(delta, r_hat[pos])
    else:
        patch = rng.integers(0, 256, ell, dtype=np.uint8)
    payload.rows[block, pos] ^= delta
    payload.rows[block, params.n:] ^= patch
    return c.exchange(node, params.M)[0]  # under k = VOUCHERS + 1, the first announced


@pytest.mark.parametrize("strategy", ["algebra", "random"])
@pytest.mark.parametrize("ell", [1, 10])
def test_node_cannot_forge_a_tag(ell, strategy):
    accepted = sum(_forge(ell, 7_000 + t, strategy) for t in range(TRIALS))
    assert accepted <= _upper(TRIALS, 256.0 ** -ell)


def test_forger_recovers_r_once_pads_are_known():
    # the forger's equations, read with the user's pads removed, pin r
    # exactly: the pads, not a weak solver, keep the node from r
    params = _params(2)
    c = spawn_cluster(params, "evenodd4", bytes(range(120)), seed=11)
    fid = c.manifest.file_id.encode()
    k_e, k_v = c.user.keys.k_e, c.user.keys.k_v
    vouchers = [c.user.issue(c.manifest, 1) for _ in range(VOUCHERS)]
    masks = np.stack([ncrypt.mask_for_nonce(k_e, fid, 1, v.k, params) for v in vouchers])
    pads = np.stack([ncrypt.voucher_pad(k_v, fid, 1, v.k, params) for v in vouchers])
    values = np.stack([v.value for v in vouchers])
    r = np.stack([spacemac.r_vector(k_v, fid, params.n - 2, j) for j in (1, 2)], axis=1)
    width = params.n - 2
    no_blocks = np.zeros((0, width), dtype=np.uint8)
    no_tags = np.zeros((0, 2), dtype=np.uint8)
    assert np.array_equal(_solve_r(no_blocks, no_tags, masks, values ^ pads, width), r)
    assert not np.array_equal(_solve_r(no_blocks, no_tags, masks, values, width), r)


# ------------------------------------------------------ TPA left-or-right

def _guess(k_v: bytes, manifest, seen, candidates):
    """The TPA's guess at which candidate row a tag it sees belongs to: the
    one candidate whose MAC matches, else None."""
    params, fid = manifest.params, manifest.file_id.encode()
    hits = [b for b, data in enumerate(candidates)
            if np.array_equal(spacemac.mac(k_v, fid, data, params.ell), seen)]
    return hits[0] if len(hits) == 1 else None


def _left_or_right(ell: int, seed: int) -> bool:
    """Two files that differ in one byte of source block 0; the TPA sees a
    full challenge of node 0, which stores source blocks 0 and 1 in the
    clear layout, and guesses which file it audits.  True when the guess
    is right."""
    params = _params(ell)
    rng = np.random.default_rng(seed)
    width = params.n - 2
    files = [bytearray(rng.bytes(params.m * width))]
    files.append(bytearray(files[0]))
    files[1][int(rng.integers(width))] ^= int(rng.integers(1, 256))
    secret = int(rng.integers(2))
    c = spawn_cluster(params, "evenodd4", bytes(files[secret]), seed=seed)
    manifest, k_v = c.manifest, c.user.keys.k_v  # the TPA's view
    accepted, proof, voucher, _ = c.exchange(0, params.M)
    assert accepted
    indices, alphas = c.tpa.challenge(0, params.M, voucher.k).expand(params.M)
    coeffs = field.combine_rows(alphas, manifest.node_coeffs[0], indices)
    candidates = [np.concatenate([field.combine_rows(alphas, np.frombuffer(
        bytes(f[:2 * width]), dtype=np.uint8).reshape(2, width), indices), proof.pad, coeffs])
        for f in files]
    seen = proof.tag ^ ncrypt.voucher_pad(k_v, manifest.file_id.encode(), 0, proof.k,
                                          params)
    guess = _guess(k_v, manifest, seen, candidates)
    return (guess if guess is not None else int(rng.integers(2))) == secret


# a coin flip's count, two-sided
SLACK = _upper(TRIALS, 0.5) - TRIALS // 2


@pytest.mark.parametrize("ell", [1, 10])
def test_tpa_cannot_tell_files_apart(ell):
    correct = sum(_left_or_right(ell, 9_000 + t) for t in range(TRIALS))
    assert abs(correct - TRIALS // 2) <= SLACK


def _update_left_or_right(ell: int, seed: int) -> bool:
    """The TPA knows the file, as in _left_or_right; the user updates
    source block 0 to one of two contents one bit apart, and the TPA
    guesses which from the manifest's tag delta for block 0, against the
    MAC of each candidate's difference from the old block (pads and
    coefficients unchanged).  True when the guess is right."""
    params = _params(ell)
    rng = np.random.default_rng(seed)
    width = params.n - 2
    file = rng.bytes(params.m * width)
    contents = [rng.bytes(width)]
    flipped = bytearray(contents[0])
    flipped[int(rng.integers(width))] ^= 1 << int(rng.integers(8))
    contents.append(bytes(flipped))
    secret = int(rng.integers(2))
    c = spawn_cluster(params, "evenodd4", file, seed=seed)
    payloads = {i: node.payload for i, node in c.nodes.items()}
    dynamics.update_block(c.manifest, payloads, c.user.keys, 0, contents[secret], rng)
    manifest, k_v = c.manifest, c.user.keys.k_v  # the TPA's view
    old = np.frombuffer(file[:width], dtype=np.uint8)
    tail = np.zeros(2 + params.m, dtype=np.uint8)
    candidates = [np.concatenate([old ^ np.frombuffer(new, dtype=np.uint8), tail])
                  for new in contents]
    guess = _guess(k_v, manifest, manifest.deltas[0], candidates)
    return (guess if guess is not None else int(rng.integers(2))) == secret


@pytest.mark.xfail(strict=True, reason="ROADMAP item 19")
@pytest.mark.parametrize("ell", [1, 10])
def test_tpa_cannot_tell_updates_apart(ell):
    correct = sum(_update_left_or_right(ell, 9_500 + t) for t in range(TRIALS))
    assert abs(correct - TRIALS // 2) <= SLACK


# --------------------------------------------------------------- detection

# (M, C, corrupted rows): an audit of C of a node's M rows accepts a node
# with x one-symbol corruptions, in distinct rows and positions, exactly
# when it skips them all, h = C(M-x, C)/C(M, C), or when two challenged
# errors cancel: each row's error is alpha times a nonzero vector, so given
# the others one alpha value at most cancels them, 1/255.  The corrupted
# rows sit at both ends of the store
DETECTION = [(4, 1, (3,)), (4, 2, (0,)), (6, 3, (4, 5)), (6, 2, (0, 2, 5)),
             (8, 4, (7,)), (8, 7, (1, 6))]
DETECTION_TRIALS = 1000
FULL_TRIALS = 3000  # alphas drawn with zeros would accept one in 256


def _corrupted_cluster(M: int, rows, seed: int):
    params = SystemParams(n=16, m=M, N=2, M=M, P=1, Q=M, ell=2, lambda_bits=80)
    c = spawn_cluster(params, "random_functional", bytes(range(14 * M)), seed=seed)
    for row in rows:
        c.inject_fault(0, Fault("corrupt_symbol", block=row, position=row, delta=row + 1))
    return c


@pytest.mark.parametrize("M, C, rows", DETECTION)
def test_partial_audits_accept_at_the_hypergeometric_rate(M, C, rows):
    c = _corrupted_cluster(M, rows, seed=500 + M * 10 + C)
    h = comb(M - len(rows), C) / comb(M, C)
    cancel = 0 if len(rows) == 1 else (1 - h) / 255
    accepted = sum(c.run_audit_round(0, C)[0] for _ in range(DETECTION_TRIALS))
    assert _lower(DETECTION_TRIALS, h) <= accepted <= _upper(DETECTION_TRIALS, h + cancel)


@pytest.mark.parametrize("M", [2, 5])
def test_a_full_audit_misses_no_one_symbol_corruption(M):
    c = _corrupted_cluster(M, (M - 1,), seed=600 + M)
    assert not any(c.run_audit_round(0, M)[0] for _ in range(FULL_TRIALS))


# ------------------------------------------------------------------ replay

@pytest.fixture
def cluster():
    return spawn_cluster(_params(2), "evenodd4", bytes(range(120)), seed=33)


def _announced(cluster, node):
    """The user's next voucher for a node, announced to the TPA."""
    voucher = cluster.user.issue(cluster.manifest, node)
    cluster.tpa.expect(node, voucher.k)
    return voucher


def test_reused_k_is_rejected(cluster):
    accepted, proof, voucher, _ = cluster.exchange(0, 2)
    assert accepted
    chal = cluster.tpa.challenge(0, 2, voucher.k)
    assert not cluster.tpa.verify(chal, proof)[0]  # the same proof again
    # an old voucher for a new challenge
    voucher = _announced(cluster, 0)
    chal = cluster.tpa.challenge(0, 2, voucher.k)
    assert cluster.tpa.verify(chal, cluster.nodes[0].answer(chal, voucher))[0]
    chal = cluster.tpa.challenge(0, 2, voucher.k + 1)
    assert not cluster.tpa.verify(chal, cluster.nodes[0].answer(chal, voucher))[0]


def test_never_issued_k_is_rejected(cluster):
    voucher = cluster.user.issue(cluster.manifest, 0)  # never announced
    chal = cluster.tpa.challenge(0, 2, voucher.k)
    assert not cluster.tpa.verify(chal, cluster.nodes[0].answer(chal, voucher))[0]
    honest = cluster.nodes[0].answer(chal, voucher)
    forged = Proof(honest.c_bar, (999).to_bytes(10, "big"), honest.pad, honest.tag)
    assert not cluster.tpa.verify(chal, forged)[0]


def test_another_nodes_k_is_rejected(cluster):
    for _ in range(3):
        assert cluster.run_audit_round(1, 2)[0]
    stolen = _announced(cluster, 1)  # k = 4, issued to node 1
    chal = cluster.tpa.challenge(0, 2, stolen.k)
    assert not cluster.tpa.verify(chal, cluster.nodes[0].answer(chal, stolen))[0]
    # the voucher still serves the node it was issued to
    chal = cluster.tpa.challenge(1, 2, stolen.k)
    assert cluster.tpa.verify(chal, cluster.nodes[1].answer(chal, stolen))[0]


def test_a_skipped_k_is_harmless_and_then_stale(cluster):
    first, second = _announced(cluster, 0), _announced(cluster, 0)
    # the node answers under k = 2 first: accepted, and k = 1 is then spent
    chal = cluster.tpa.challenge(0, 2, second.k)
    assert cluster.tpa.verify(chal, cluster.nodes[0].answer(chal, second))[0]
    chal = cluster.tpa.challenge(0, 2, first.k)
    assert not cluster.tpa.verify(chal, cluster.nodes[0].answer(chal, first))[0]
    assert cluster.run_audit_round(0, 2)[0]


def test_a_k_above_the_announced_ones_burns_no_counter(cluster, monkeypatch):
    # a node answers under a k the user has not reached; were it spent, the
    # node rebuilt in its place would be locked out until the user caught up
    params = cluster.manifest.params
    assert cluster.run_audit_round(2, 2)[0]
    junk = Proof(np.zeros(params.n - 2, dtype=np.uint8),
                 (2 ** params.lambda_bits - 1).to_bytes(params.lambda_bits // 8, "big"),
                 np.zeros(2, dtype=np.uint8), np.zeros(params.ell, dtype=np.uint8))
    checked, verify_proof = [], audit.verify_proof
    monkeypatch.setattr(audit, "verify_proof",
                        lambda *args: checked.append(args) or verify_proof(*args))
    assert not cluster.tpa.verify(cluster.tpa.challenge(2, 2, 2), junk)[0]
    assert checked == []  # rejected unverified
    cluster.fail_and_repair(2, "exact")
    assert cluster.run_audit_round(2, 2)[0]
    assert len(checked) == 1


# ---------------------------------------------------- replay after update

REPLAY_SEEDS = range(700, 750)


def test_rows_replayed_from_before_an_update_are_rejected():
    # the node holds a copy of its store from before the user updates
    # source i, and serves it.  The TPA folds i's tag delta into every
    # check, weighted by alpha · C[:, i]; the stale rows lack that change,
    # so a full-node audit rejects unless alpha · C[:, i] or the delta is
    # zero.  A column with one nonzero entry never gives zero; evenodd4's
    # node 3 holds source 1 in both rows, which alpha cancels with
    # probability 1/255, so that count is held to the binomial bound
    params = SystemParams(n=16, m=4, N=4, M=2, P=3, Q=1, ell=2, lambda_bits=80)
    one_entry, two_entries = [], []
    for seed in REPLAY_SEEDS:
        rng = np.random.default_rng(seed)
        c = spawn_cluster(params, "evenodd4", rng.bytes(50), seed=seed)
        index = int(rng.integers(params.m))
        before = {i: node.payload.rows.copy() for i, node in c.nodes.items()}
        payloads = {i: node.payload for i, node in c.nodes.items()}
        dynamics.update_block(c.manifest, payloads, c.user.keys, index, rng.bytes(14), rng)
        for node, coeffs in c.manifest.node_coeffs.items():
            entries = np.count_nonzero(coeffs[:, index])
            if entries == 0:
                continue
            assert c.run_audit_round(node, params.M)[0]  # the updated store passes
            c.inject_fault(node, Fault("replay_old", snapshot=before[node]))
            tally = one_entry if entries == 1 else two_entries
            tally += [c.run_audit_round(node, params.M)[0] for _ in range(2)]
    assert len(one_entry) >= TRIALS and not any(one_entry)
    assert sum(two_entries) <= _upper(len(two_entries), 1 / 255)


# -------------------------------------------------------------- extraction

def _extraction_cluster():
    params = SystemParams(n=32, m=8, N=4, M=8, P=3, Q=1, ell=2, lambda_bits=80)
    return spawn_cluster(params, "random_functional", bytes(range(240)), seed=99)


def test_an_accepted_lie_settles_no_equation():
    # the node's first answer is the truth plus an error delta on c_bar's
    # first ell+1 symbols whose MAC is zero: the lucky lie, accepted with
    # probability q^-ell, here built with k_v as an oracle.  Tags are
    # linear, so a block solved from it would pass every tag check too
    c = _extraction_cluster()
    params, fid = c.manifest.params, c.manifest.file_id.encode()
    units = np.eye(params.ell + 1, params.n + params.m, dtype=np.uint8)
    macs = spacemac.mac(c.user.keys.k_v, fid, units, params.ell)
    error = np.zeros(params.n + params.m, dtype=np.uint8)
    error[0], error[1: params.ell + 1] = 1, field.solve_any(macs[1:].T, macs[0])
    assert not spacemac.mac(c.user.keys.k_v, fid, error, params.ell).any()
    delta = error[: params.n - 2]

    answer, lied = c.nodes[2].answer, []

    def lucky_lie(chal, voucher):
        proof = answer(chal, voucher)
        if not lied:
            lied.append(True)
            proof = Proof(proof.c_bar ^ delta, proof.nonce, proof.pad, proof.tag)
        return proof

    c.nodes[2].answer = lucky_lie
    report = extractor.extract_node(c, 2, np.random.default_rng(1))
    assert np.array_equal(report.rows, c.nodes[2].payload.rows)
    # the lie was accepted, and cost one more answer than 2 per equation
    assert report.discarded == 0
    assert report.queries == 2 * params.M + 1


def test_a_tpa_that_accepts_one_junk_answer_yields_no_wrong_rows():
    # the TPA takes the first answer it should reject; the extraction ends
    # in the node's rows or in ExtractionError, never in other rows
    outcomes = []
    for seed in range(40):
        c = _extraction_cluster()
        c.nodes[1].lie_epsilon = 0.5
        verify, junk = c.tpa.verify, []

        def verify_but_take_one_junk(chal, proof):
            ok, stats = verify(chal, proof)
            if not ok and not junk:
                junk.append(proof)
                return True, stats
            return ok, stats

        c.tpa.verify = verify_but_take_one_junk
        try:
            report = extractor.extract_node(c, 1, np.random.default_rng(seed))
        except extractor.ExtractionError:
            outcomes.append("error")
            continue
        assert junk
        outcomes.append("rows" if np.array_equal(report.rows, c.nodes[1].payload.rows)
                        else "wrong rows")
    assert "wrong rows" not in outcomes, outcomes


# ------------------------------------------------------------------ repair

HELPER_SHAPE = SystemParams(n=64, m=6, N=3, M=4, P=2, Q=2, ell=2)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1")
def test_a_corrupted_helper_row_does_not_poison_a_repair():
    # a helper with one corrupted row ships it into a functional repair of
    # node 0; the repair must refuse with a typed error, or leave node 0
    # rows that a full audit accepts.  Shipments are combined unchecked, so
    # today every seed rebuilds a node whose audit rejects
    for seed in range(20):
        c = spawn_cluster(HELPER_SHAPE, "random_functional", bytes(range(200)), seed=seed)
        c.inject_fault(1, Fault("corrupt_symbol", block=0, delta=1))
        try:
            c.fail_and_repair(0, "functional")
        except repair.PlanningError:
            continue
        assert c.run_audit_round(0, HELPER_SHAPE.M)[0], seed


# ---------------------------------------------------------- key visibility

def _reaches(root, key: bytes) -> bool:
    """Whether key's bytes lie in an object reachable from root through
    instance attributes, containers and arrays.  Classes, modules,
    functions and functools caches are not followed: what every role can
    call is not what a role holds."""
    seen, stack = set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType,
                                               types.MethodType, types.BuiltinFunctionType,
                                               functools.partial)) \
                or hasattr(obj, "cache_info"):
            continue
        seen.add(id(obj))
        if isinstance(obj, (bytes, bytearray, memoryview)):
            if key in bytes(obj):
                return True
        elif isinstance(obj, np.ndarray):
            if obj.dtype == object:
                stack.extend(obj.ravel())
            elif key in obj.tobytes():
                return True
            stack.append(obj.base)
        elif isinstance(obj, dict):
            stack.extend(obj)
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
    return False


@pytest.mark.parametrize("params, layout", [(_params(2), "evenodd4"),
                                            (HELPER_SHAPE, "random_functional")],
                         ids=["evenodd4", "random_functional"])
def test_a_node_reaches_only_k_e_and_the_tpa_only_k_v(params, layout):
    # after an audit, which builds the TPA's table of the node, and a
    # functional repair, which installs a new node and new coefficient rows
    c = spawn_cluster(params, layout, bytes(range(120)), seed=41)
    assert c.run_audit_round(0, params.M)[0]
    c.fail_and_repair(1, "functional")
    assert c.run_audit_round(1, params.M)[0]
    keys = c.user.keys
    for i, node in c.nodes.items():
        assert _reaches(node, keys.k_e) and not _reaches(node, keys.k_v), i
    assert _reaches(c.tpa, keys.k_v) and not _reaches(c.tpa, keys.k_e)

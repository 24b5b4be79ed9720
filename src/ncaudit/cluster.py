"""In-process three-party simulation: user, storage nodes, auditor.

`Cluster` holds the three roles over one stored file.  `spawn_cluster`
sets a file up in memory for the simulator and for `ncaudit setup`, whose
store the other CLI commands open as a Cluster.  So the simulator and the
CLI run one set-up, one audit round, one fault injection and one repair.

No sockets; messages are method calls, but every payload that would cross
the wire is serialized and the byte ledgers are charged from the serialized
length.  Key visibility is role-scoped: nodes never see the verification
key, the auditor never sees the encryption key.  Audit rounds and
extraction queries run one exchange, in which the auditor spends each
node's voucher counters once and in order.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import audit, ncrypt
from .audit import Challenge, KeyMaterial, NodePayload, Proof, VerifyStats
from .blocks import CodedBlock, FileManifest, PlanningError, SystemParams, decode_file

# Fig.-style 4-node parity layout over m=4 source blocks (rows are nodes,
# entries are source coefficients of each stored block).
EVENODD4 = {
    0: np.array([[1, 0, 0, 0], [0, 1, 0, 0]], dtype=np.uint8),   # b1, b2
    1: np.array([[0, 0, 1, 0], [0, 0, 0, 1]], dtype=np.uint8),   # b3, b4
    2: np.array([[1, 0, 1, 0], [0, 1, 0, 1]], dtype=np.uint8),   # b1+b3, b2+b4
    3: np.array([[0, 1, 1, 0], [1, 1, 0, 1]], dtype=np.uint8),   # b2+b3, b1+b2+b4
}

LEDGER_CATEGORIES = ("data_block_bytes", "tag_bytes", "coefficient_bytes",
                     "proof_bytes", "control_bytes", "voucher_bytes")


def make_layout(layout: str, params: SystemParams, rng) -> Dict[int, np.ndarray]:
    """Node -> (M, m) coefficient rows for a named layout.

    "evenodd4" is the fixed parity layout above.  "random_functional" draws
    each node's rows uniformly, redrawing a node with an all-zero row.
    """
    params.validate()
    if layout == "evenodd4":
        if (params.m, params.N, params.M, params.P, params.Q) != (4, 4, 2, 3, 1):
            raise ValueError("evenodd4 requires m=4, N=4, M=2, P=3, Q=1")
        return {k: v.copy() for k, v in EVENODD4.items()}
    if layout != "random_functional":
        raise ValueError(f"unknown layout {layout!r}")
    code = {}
    for node in range(params.N):
        while True:
            rows = rng.integers(0, 256, size=(params.M, params.m), dtype=np.uint8)
            if all(rows[j].any() for j in range(params.M)):
                code[node] = rows
                break
    return code


@dataclass
class ByteLedger:
    sent: Dict[str, int] = dc_field(default_factory=lambda: dict.fromkeys(LEDGER_CATEGORIES, 0))
    received: Dict[str, int] = dc_field(default_factory=lambda: dict.fromkeys(LEDGER_CATEGORIES, 0))

    def charge(self, other: "ByteLedger", category: str, nbytes: int) -> None:
        if category not in self.sent:
            raise ValueError(f"unknown ledger category {category!r}")
        if nbytes < 0:
            raise ValueError("ledger counters are monotone")
        self.sent[category] += nbytes
        other.received[category] += nbytes


@dataclass
class Fault:
    kind: str  # corrupt_symbol | delete_block | replay_old | lie_probability
    block: int = 0
    position: int = 0
    delta: int = 0
    epsilon: float = 0.0
    snapshot: Optional[np.ndarray] = None  # replay_old: the (M, n+ell) rows to serve


class Node:
    """One storage node.  Holds k_e and its payload; never k_v."""

    def __init__(self, payload: NodePayload, params: SystemParams, rng):
        self.payload = payload
        self.params = params
        self.rng = rng
        self.ledger = ByteLedger()
        self.lie_epsilon = 0.0

    def apply_fault(self, fault: Fault) -> None:
        """Check a fault against the store and apply it; ValueError if it
        does not fit.  delete_block overwrites the block and its tag once
        with uniform symbols, which is what a node that lost the block can
        answer with."""
        p = self.payload
        if any(type(v) is not int for v in (fault.block, fault.position, fault.delta)):
            raise ValueError("fault block, position and delta must be integers")
        if type(fault.epsilon) not in (int, float):
            raise ValueError("fault epsilon must be a real number")
        if fault.kind == "corrupt_symbol":
            if not 1 <= fault.delta <= 255:
                raise ValueError("corruption delta must be a nonzero symbol")
            if not 0 <= fault.block < p.rows.shape[0]:
                raise ValueError("corrupt_symbol block out of range")
            if not 0 <= fault.position < self.params.n:
                raise ValueError("corrupt_symbol position out of range")
            p.rows[fault.block, fault.position] ^= fault.delta
        elif fault.kind == "delete_block":
            if not 0 <= fault.block < p.rows.shape[0]:
                raise ValueError("delete_block index out of range")
            p.rows[fault.block] = self.rng.integers(0, 256, size=p.rows.shape[1],
                                                    dtype=np.uint8)
        elif fault.kind == "replay_old":
            if not (isinstance(fault.snapshot, np.ndarray) and fault.snapshot.ndim == 2):
                raise ValueError("replay_old needs a snapshot of the node's row matrix")
            p.rows = fault.snapshot.copy()
        elif fault.kind == "lie_probability":
            if not 0 <= fault.epsilon <= 1:
                raise ValueError("epsilon outside [0, 1]")
            self.lie_epsilon = fault.epsilon
        else:
            raise ValueError(f"unknown fault kind {fault.kind!r}")

    def answer(self, chal: Challenge, voucher) -> Proof:
        lying = self.lie_epsilon and self.rng.random() < self.lie_epsilon
        proof = audit.gen_proof(self.payload.rows, chal, self.payload.k_e, voucher,
                                self.params)
        if lying:
            junk = self.rng.integers(0, 256, size=proof.c_bar.shape, dtype=np.uint8)
            proof = Proof(junk, proof.nonce, proof.pad, proof.tag)
        return proof


class SpentCounterError(RuntimeError):
    """The user issued a node a counter the TPA has spent (the user's
    counters were rolled back); two answers would share its mask."""


class Tpa:
    """Auditor.  Holds k_v and the manifest; never k_e.  Per node it keeps
    the last k it spent, the last k the user announced and the table that
    verifies its proofs (audit.verify_proof)."""

    def __init__(self, k_v: bytes, manifest: FileManifest):
        self._k_v = k_v
        self.manifest = manifest
        self.ledger = ByteLedger()
        self.last_spent: Dict[int, int] = {}
        self.issued_upto: Dict[int, int] = {}
        self.coeff_tags: Dict[int, tuple] = {}

    def challenge(self, node: int, count: int, k: int) -> Challenge:
        """Audit k's challenge of count rows of the node."""
        return audit.gen_challenge(self._k_v, self.manifest, node, count, k)

    def expect(self, node: int, k: int) -> None:
        """The user's notice that vouchers up to k were issued to node;
        SpentCounterError if k was spent."""
        if k <= self.last_spent.get(node, 0):
            raise SpentCounterError(f"node {node}'s voucher counter {k} was spent")
        self.issued_upto[node] = k

    def verify(self, chal: Challenge, proof: Proof) -> Tuple[bool, VerifyStats]:
        """Spend the proof's k and verify; a k at or below the node's last
        spent one, or above its last announced one, is rejected unverified."""
        if not self.last_spent.get(chal.node, 0) < proof.k <= self.issued_upto.get(chal.node, 0):
            return False, VerifyStats()
        self.last_spent[chal.node] = proof.k
        return audit.verify_proof(self._k_v, self.manifest, chal, proof, self.coeff_tags)


class User:
    """Data owner: the only role holding both keys, so the voucher issuer."""

    def __init__(self, keys: KeyMaterial):
        self.keys = keys
        self.ledger = ByteLedger()
        self.next_k: Dict[int, int] = {}  # node -> counter of its next voucher

    def issue(self, manifest: FileManifest, node: int) -> ncrypt.Voucher:
        """The node's next voucher: each k is issued once per file and node."""
        k = self.next_k.get(node, 1)
        self.next_k[node] = k + 1
        return ncrypt.setup(self.keys.k_e, self.keys.k_v, manifest.file_id.encode(),
                            node, k, manifest.params)


class Cluster:
    """The three roles over one stored file: the user, a node per payload
    and the TPA.  Each protocol step returns its record and keeps none.
    With rng=None no role gets a generator; audits and corruptions need none."""

    def __init__(self, manifest: FileManifest, user: User,
                 payloads: Dict[int, NodePayload], rng):
        self.manifest = manifest
        self.user = user
        self.nodes: Dict[int, Node] = {
            node_id: Node(payload, manifest.params,
                          None if rng is None else np.random.default_rng(rng.integers(2**63)))
            for node_id, payload in payloads.items()}
        self.tpa = Tpa(user.keys.k_v, manifest)
        self.rng = rng

    # -- protocol steps ------------------------------------------------
    def exchange(self, node: int, count: int, seed: Optional[bytes] = None
                 ) -> Tuple[bool, Optional[Proof], ncrypt.Voucher, int]:
        """The user's next voucher for a node (k announced to the TPA), the
        TPA's challenge of count of its rows, under seed if given, else
        audit k's own, the node's answer on the wire and the TPA's verdict:
        (accepted, proof, voucher, bytes the node sent).  An answer the node
        cannot give, the TPA cannot parse, or under another voucher is
        rejected; proof is None for the first two.  ValueError, before any
        voucher, unless 1 <= count <= the node's rows in the manifest."""
        target, M = self.nodes[node], len(self.manifest.node_coeffs[node])
        if not 1 <= count <= M:
            raise ValueError(f"challenge count must be in [1, {M}]")
        voucher = self.user.issue(self.manifest, node)
        self.tpa.expect(node, voucher.k)
        k_bytes = self.manifest.params.lambda_bits // 8
        self.user.ledger.charge(target.ledger, "voucher_bytes", k_bytes + voucher.value.size)
        self.user.ledger.charge(self.tpa.ledger, "voucher_bytes", k_bytes)
        chal = (self.tpa.challenge(node, count, voucher.k) if seed is None
                else Challenge(self.manifest.file_id, count, seed, node))
        self.tpa.ledger.charge(target.ledger, "control_bytes", len(chal.to_bytes()))
        raw, proof = b"", None
        try:
            raw = target.answer(chal, voucher).to_bytes()
            proof = Proof.from_bytes(raw, self.manifest.params)
        except ValueError:  # more rows than it stores, or a wrong length
            pass
        target.ledger.charge(self.tpa.ledger, "proof_bytes", len(raw))
        accepted = (proof is not None and proof.k == voucher.k
                    and self.tpa.verify(chal, proof)[0])
        return accepted, proof, voucher, len(raw)

    def run_audit_round(self, node: int, count: int) -> Tuple[bool, dict]:
        accepted, _, _, sent = self.exchange(node, count)
        return accepted, {"event": "audit", "node": node, "count": count,
                          "accepted": accepted, "proof_bytes": sent}

    def inject_fault(self, node: int, fault: Fault) -> dict:
        self.nodes[node].apply_fault(fault)
        return {"event": "fault", "node": node, "kind": fault.kind}

    def snapshot_node(self, node: int) -> Tuple[List[CodedBlock], List[np.ndarray]]:
        """Copies of a node's stored blocks' data symbols one by one and of
        their tag rows."""
        rows, n = self.nodes[node].payload.rows.copy(), self.manifest.params.n
        return [CodedBlock(row) for row in rows[:, :n]], list(rows[:, n:])

    def fail_and_repair(self, node: int, mode: str = "exact",
                        helpers: Optional[List[int]] = None) -> dict:
        """Drop a node and rebuild it from helper shipments; returns the
        repair's record, naming the helpers used.  helpers=None takes the
        first P other nodes; mode is "exact" or "functional".  A refused
        repair changes no store, manifest row, ledger or generator state;
        PlanningError names a helper that is not a distinct id of another
        node."""
        from . import repair  # only a repair loads the planner
        manifest, params = self.manifest, self.manifest.params
        others = sorted(set(manifest.node_coeffs) - {node})
        if helpers is None:
            helpers = others[:params.P]
        if not isinstance(helpers, (list, tuple)):
            raise PlanningError(f"helpers must be a list of node ids, not {helpers!r}")
        for i, h in enumerate(helpers):
            if type(h) is not int or h not in others or h in helpers[:i]:
                raise PlanningError(f"helper {h!r} of node {node} is not a distinct "
                                    f"id among the other nodes {others}")
        planner = {"exact": repair.plan_exact_repair,
                   "functional": repair.plan_functional_repair}.get(mode)
        if planner is None:
            raise ValueError(f"unknown repair mode {mode!r}")
        state = self.rng.bit_generator.state
        try:
            plan = planner(manifest, node, helpers,
                           np.random.default_rng(self.rng.integers(2**63)))
        except PlanningError:
            self.rng.bit_generator.state = state
            raise
        lost, shipments = self.nodes[node], []
        for h, gamma in plan.gamma.items():
            helper = self.nodes[h]
            ship = repair.make_repair_blocks(helper.payload, gamma, params.n)
            # user ships gamma to the helper (coefficient traffic, no data),
            # the identity too, so a helper knows to ship its rows unmixed
            self.user.ledger.charge(helper.ledger, "coefficient_bytes", int(gamma.size))
            helper.ledger.charge(lost.ledger, "data_block_bytes",
                                 int(ship.rows[:, :params.n].size))
            helper.ledger.charge(lost.ledger, "tag_bytes", int(ship.tags.size))
            shipments.append(ship)
        if mode == "functional":
            # user tells the TPA the new coefficients; the auditor aggregates
            # them from the manifest, so proofs from the pre-repair store are
            # rejected (replay)
            self.user.ledger.charge(self.tpa.ledger, "coefficient_bytes",
                                    int(plan.target_rows.size))
            manifest.node_coeffs[node] = plan.target_rows.copy()
        fresh = Node(NodePayload(repair.reconstruct_node(plan, shipments), lost.payload.k_e),
                     params, np.random.default_rng(self.rng.integers(2**63)))
        fresh.ledger = lost.ledger
        self.nodes[node] = fresh
        return {"event": "repair", "node": node, "mode": mode, "helpers": list(plan.gamma)}

    def decode_current_file(self) -> bytes:
        """Decode from the stored blocks whose tags verify under the user's
        k_v, so a corrupted block is left out rather than poisoning the
        system."""
        payloads = {i: node.payload for i, node in self.nodes.items()}
        rows = audit.verified_rows(self.user.keys.k_v, self.manifest, payloads)
        return decode_file(rows, self.manifest)


def spawn_cluster(params: SystemParams, layout: str, file_bytes: bytes,
                  seed: Optional[int], file_id: Optional[str] = None) -> Cluster:
    """Set up a file under a named layout.  A seed draws the keys, the
    padding and every role's generator from one generator, and names the
    file unless file_id does; seed=None takes the keys from the OS CSPRNG
    and the rest from OS entropy, and needs a file_id."""
    if seed is None and not file_id:
        raise ValueError("an unseeded cluster needs a file_id")
    rng = np.random.default_rng(seed)
    user = User(audit.keygen(params, None if seed is None else rng))
    rng.integers(2**63)  # a draw no role reads, kept so that seeded set-ups keep their bytes
    code = make_layout(layout, params, rng)
    manifest, payloads = audit.setup_file(file_bytes, params, user.keys, code, rng,
                                          file_id=file_id or f"file-{seed:016x}")
    return Cluster(manifest, user, payloads, rng)

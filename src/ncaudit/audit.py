"""The four-algorithm audit protocol tying blocks, MAC, and masking together.

KeyGen / TagGen run at the user, GenProof at a storage node, VerifyProof at
the auditor.  The auditor holds only the verification key and the coding
coefficients; response data reaches it masked, and the tag reaches it
offset by a one-time voucher (see ncrypt).  Tags are linear, so the
auditor checks a proof in one product with a per-node table of the MAC
vectors' data columns and the stored rows' coefficient tags, which the
caller holds (verify_proof).
A challenge is a row count and a seed, which the auditor derives for audit
k under k_v (gen_challenge) and both ends expand (Challenge.expand).
"""

from __future__ import annotations

import secrets
import struct
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from . import field, ncrypt, prf, spacemac
from .blocks import FileManifest, SystemParams, make_source_blocks
# setup_file's encoding, under the name the benchmark traces as blocks.encode
from .field import combine_rows as combine_blocks
from .ncrypt import Voucher


@dataclass
class KeyMaterial:
    k_v: bytes  # verification key: user and TPA only
    k_e: bytes  # encryption key: user and nodes only


def keygen(params: SystemParams, rng=None) -> KeyMaterial:
    """Two lambda-bit keys from the OS CSPRNG (secrets), or from rng when a
    caller passes a generator it seeded on purpose, for reproducible runs."""
    draw = secrets.token_bytes if rng is None else rng.bytes
    nbytes = params.lambda_bits // 8
    return KeyMaterial(k_v=draw(nbytes), k_e=draw(nbytes))


@dataclass
class Challenge:
    """count rows of a node to aggregate, and the seed that both ends
    expand into them and their coefficients (expand).  The wire form is
    u32 BE length of file id || file id || u32 BE count || seed, lambda/8
    bytes."""
    file_id: str
    count: int
    seed: bytes
    node: int = 0  # addressing; not part of the wire format

    def expand(self, M: int) -> Tuple[Optional[np.ndarray], np.ndarray]:
        """The challenged rows of a node of M rows and their coefficients,
        from F2 keyed by the seed (prf): None when count == M, meaning all
        rows in order, as the aggregate is a sum, else the count rows of
        least u32 rank; the first count nonzero symbols, as a zero would
        leave its row unchecked.  ValueError unless 1 <= count <= M."""
        if not 1 <= self.count <= M:
            raise ValueError(f"challenge count {self.count} outside [1, {M}]")
        fid, nonce = self.file_id.encode(), struct.pack(">I", self.node)
        indices = None if self.count == M else np.argsort(
            prf.eval_range(self.seed, prf.F2, fid, (1,), 4 * M, nonce).view(">u4"),
            kind="stable")[:self.count]
        return indices, prf.nonzero_symbols(
            lambda length: prf.eval_range(self.seed, prf.F2, fid, (2,), length, nonce),
            self.count)

    def to_bytes(self) -> bytes:
        fid = self.file_id.encode()
        return struct.pack(">I", len(fid)) + fid + struct.pack(">I", self.count) + self.seed

    @classmethod
    def from_bytes(cls, raw: bytes, params: SystemParams, node: int = 0) -> "Challenge":
        """Parse the wire format; ValueError unless raw has exactly the
        length its file id and params imply."""
        if len(raw) < 4:
            raise ValueError("truncated challenge")
        (flen,) = struct.unpack_from(">I", raw)
        if len(raw) != 8 + flen + params.lambda_bits // 8:
            raise ValueError(f"challenge needs {8 + flen + params.lambda_bits // 8} bytes, "
                             f"got {len(raw)}")
        (count,) = struct.unpack_from(">I", raw, 4 + flen)
        return cls(raw[4:4 + flen].decode(), count, raw[8 + flen:], node)


@dataclass
class Proof:
    """The wire form is c_bar || nonce || pad || tag."""
    c_bar: np.ndarray  # the aggregate's first n-2 symbols, masked (ncrypt.enc)
    nonce: bytes       # the audit counter k, lambda/8 bytes big-endian
    pad: np.ndarray    # the two clear padding symbols e^(n-1), e^(n)
    tag: np.ndarray    # tau: the ell aggregated tag symbols plus the voucher

    @property
    def k(self) -> int:
        return int.from_bytes(self.nonce, "big")

    def to_bytes(self) -> bytes:
        return self.c_bar.tobytes() + self.nonce + self.pad.tobytes() + self.tag.tobytes()

    @classmethod
    def from_bytes(cls, raw: bytes, params: SystemParams) -> "Proof":
        """Parse the wire format; ValueError unless raw has exactly the
        length params imply."""
        width, end = params.n - 2, params.n - 2 + params.lambda_bits // 8
        if len(raw) != end + 2 + params.ell:
            raise ValueError(f"proof needs {end + 2 + params.ell} bytes, got {len(raw)}")
        symbols = np.frombuffer(raw, dtype=np.uint8)
        return cls(symbols[:width].copy(), raw[width:end], symbols[end:end + 2].copy(),
                   symbols[end + 2:].copy())


@dataclass
class NodePayload:
    """What the user hands a storage node at setup: row j of `rows` is
    stored block j's n data symbols followed by its ell tag symbols.  Tags
    are linear in blocks, so one combination of rows combines both; the
    block's coefficient part is kept only in the manifest."""
    rows: np.ndarray  # (M, n+ell)
    k_e: bytes


def setup_file(file_bytes: bytes, params: SystemParams, keys: KeyMaterial,
               code_layout: Dict[int, np.ndarray], rng, file_id: str = "file",
               ) -> Tuple[FileManifest, Dict[int, NodePayload]]:
    """Build source blocks, tag them, encode per-node payloads.

    code_layout maps node id -> (M, m) coefficient rows, which together
    must span the m sources (ValueError otherwise), so that the file can be
    decoded.  A node's rows are its coefficient rows times the sources'
    data symbols joined to their tags: its tags come by the Combine route,
    never a fresh Mac.
    """
    params.validate()
    node_coeffs: Dict[int, np.ndarray] = {}
    for node, rows in code_layout.items():
        node_coeffs[node] = np.array(rows, dtype=np.uint8)
        if node_coeffs[node].shape != (params.M, params.m):
            raise ValueError(f"layout rows for node {node} must be (M, m)")
    rank = field.matrix_rank(np.concatenate([np.zeros((0, params.m), np.uint8),
                                             *node_coeffs.values()]))
    if rank < params.m:
        raise ValueError(f"layout rows span rank {rank} < m = {params.m}: undecodable")
    fid = file_id.encode()
    sources, lengths = make_source_blocks(file_bytes, params, rng)
    # each source row becomes its data symbols, then its tags; rebinding
    # frees the full rows before the per-node products
    sources = np.hstack([sources[:, :params.n],
                         spacemac.mac(keys.k_v, fid, sources, params.ell)])
    payloads = {node: NodePayload(combine_blocks(rows, sources), keys.k_e)
                for node, rows in node_coeffs.items()}

    manifest = FileManifest(file_id=file_id, params=params, block_lengths=lengths,
                            node_coeffs=node_coeffs, logical_order=list(range(params.m)),
                            deltas=np.zeros((params.m, params.ell), dtype=np.uint8))
    return manifest, payloads


def gen_challenge(k_v: bytes, manifest: FileManifest, node: int, count: int,
                  k: int) -> Challenge:
    """Audit k's challenge of count rows of a node.  Its seed is F2 under
    k_v at the audit's nonce (node, k), so the user, who issues voucher k,
    can derive it too; the count is checked where it is expanded."""
    params = manifest.params
    seed = prf.eval_range(k_v, prf.F2, manifest.file_id.encode(), (), params.lambda_bits // 8,
                          nonce=ncrypt.nonce(node, k, params))
    return Challenge(manifest.file_id, count, seed.tobytes(), node)


def gen_proof(rows: np.ndarray, chal: Challenge, k_e: bytes, voucher: Voucher,
              params: SystemParams) -> Proof:
    """Aggregate the challenged rows of the node's (M, n+ell) store, giving
    the n data symbols and ell tag symbols of the combination at once; a
    partial challenge's rows are read from the store by index, once per
    coefficient digit, with no copy of them first, and a full one combines
    the store as it is.  Mask the first n-2 with the voucher's mask and
    offset the tag by the voucher, which costs no multiplication.

    The coefficient part is neither stored nor transmitted: the auditor
    knows it from its own records.  The challenge is expanded at the
    store's own row count; ValueError if it counts more rows.
    """
    n, M = params.n, rows.shape[0]
    indices, alphas = chal.expand(M)
    agg = field.combine_rows(alphas, rows, indices)
    c_bar = ncrypt.enc(k_e, chal.file_id.encode(), voucher.node, voucher.k,
                       agg[: n - 2], params)
    return Proof(c_bar, voucher.k.to_bytes(params.lambda_bits // 8, "big"),
                 agg[n - 2: n].copy(), agg[n:] ^ voucher.value)


def tag_table(k_v: bytes, manifest: FileManifest,
              coeffs: Optional[np.ndarray] = None) -> np.ndarray:
    """The table a tag is checked against (tags_match): row t is the MAC
    vector r_t's n data columns, then with no coeffs its m coefficient
    columns, else the coefficient tags of the (K, m) coeffs, for K·m·ell
    multiplications.  Each source's running tag delta is XORed into
    coefficient column n+i first: an update leaves a stored row's tag the
    MAC of its row before the update, while its data gained
    c_i·(new_i ⊕ old_i), whose MAC is c_i·δ_i; moving c_i·δ_i onto the
    coefficient part keeps the tag the MAC of the current row."""
    params = manifest.params
    r = spacemac.r_matrix(k_v, manifest.file_id.encode(), params.ell, params.n + params.m)
    columns = r[:, params.n:] ^ manifest.deltas.T
    if coeffs is not None:
        columns = field.combine_rows(columns, coeffs.T)
    return np.concatenate([r[:, :params.n], columns], axis=1)


def tags_match(table: np.ndarray, symbols: np.ndarray, tags: np.ndarray):
    """Whether symbols over the table's columns (tag_table) have the given
    tags, in one product: one bool for a row and its (ell,) tag, one per
    row for (k, ·) rows and (k, ell) tags."""
    return (field.combine_rows(symbols, table.T) == tags).all(axis=-1)


def verified_rows(k_v: bytes, manifest: FileManifest,
                  payloads: Dict[int, NodePayload]) -> np.ndarray:
    """The full (n+m)-symbol rows of every node's stored blocks, in node
    order, each joined to its coefficients from the manifest, whose tags
    match: a corrupted row is left out rather than poisoning a solve over
    the stored rows."""
    n, nodes = manifest.params.n, sorted(payloads)
    stored = np.concatenate([payloads[i].rows for i in nodes])
    rows = np.hstack([stored[:, :n], np.concatenate([manifest.node_coeffs[i]
                                                     for i in nodes])])
    return rows[tags_match(tag_table(k_v, manifest), rows, stored[:, n:])]


@dataclass
class VerifyStats:
    mults: int = 0  # ell*(n+C): data MAC and coefficient tags (+ M*m*ell table rebuild)


def verify_proof(k_v: bytes, manifest: FileManifest, chal: Challenge,
                 proof: Proof, tags: Dict[int, tuple]) -> Tuple[bool, VerifyStats]:
    """Strip the voucher pad of the proof's k and check tags_match's
    equation for the row [c_bar, pad, alpha·C[indices]], the challenge
    expanded at the node's rows in the manifest, as one product: [c_bar,
    pad, alpha] over the n data columns and the challenged columns of the
    node's tag_table.  The caller's tags (node -> content of the
    coefficient rows and deltas a table was built from, the table) hold it
    across verifies while both equal that content.  Whether k was issued
    to the node and is unused is the caller's check (cluster.Tpa)."""
    params = manifest.params
    n, ell = params.n, params.ell
    if proof.c_bar.shape[0] != n - 2 or proof.tag.shape[0] != ell \
            or proof.pad.shape[0] != 2:
        raise ValueError("malformed proof dimensions")
    stats = VerifyStats()
    before = field.counter.value  # stays put while the counter is off

    coeffs = manifest.node_coeffs[chal.node]
    state = (coeffs.shape, coeffs.tobytes(), manifest.deltas.tobytes())
    held = tags.get(chal.node)
    if held is None or held[0] != state:
        held = tags[chal.node] = (state, tag_table(k_v, manifest, coeffs))
    table = held[1]
    indices, alphas = chal.expand(len(coeffs))
    if indices is not None:
        # a copy of the columns read: on rows ell symbols wide it costs
        # less than combining through an index
        table = np.concatenate([table[:, :n], table[:, n + indices]], axis=1)
    s_k = ncrypt.voucher_pad(k_v, manifest.file_id.encode(), chal.node, proof.k, params)
    ok = bool(tags_match(table, np.concatenate([proof.c_bar, proof.pad, alphas]),
                         proof.tag ^ s_k))
    stats.mults = field.counter.value - before
    return ok, stats

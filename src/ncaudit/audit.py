"""The four-algorithm audit protocol tying blocks, MAC, and masking together.

KeyGen / TagGen run at the user, GenProof at a storage node, VerifyProof at
the auditor.  The auditor holds only the verification key and the coding
coefficients; response data reaches it masked, and the tag reaches it
offset by a one-time voucher (see ncrypt).  Tags are linear, so the
auditor takes the MAC of a proof's coefficient part from a per-node table
of its stored rows' coefficient tags, which the caller holds (verify_proof).
"""

from __future__ import annotations

import secrets
import struct
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from . import field, ncrypt, spacemac
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


# one challenge entry on the wire: u32 BE block index, then alpha
_ENTRY = np.dtype([("index", ">u4"), ("alpha", "u1")])


@dataclass
class Challenge:
    """Distinct block indices of a node and one coefficient alpha for
    each, as two arrays.  The wire form is u32 BE length of file id ||
    file id || u32 BE entry count || per entry, u32 BE index || alpha."""
    file_id: str
    indices: np.ndarray  # (C,) intp block indices, distinct, below 2^32
    alphas: np.ndarray   # (C,) uint8
    node: int = 0        # addressing; not part of the wire format

    def __post_init__(self):
        indices, alphas = np.asarray(self.indices), np.asarray(self.alphas)
        if indices.ndim != 1 or indices.shape != alphas.shape:
            raise ValueError("challenge indices and alphas must be 1-D and of one length")
        if not indices.size:
            raise ValueError("challenge needs at least one entry")
        if indices.dtype.kind not in "iu" or alphas.dtype.kind not in "iu":
            raise ValueError("challenge indices and alphas must be integers")
        ordered = np.sort(indices)
        if ordered[0] < 0 or ordered[-1] >= 1 << 32:
            raise ValueError("challenge indices must be integers in [0, 2^32)")
        if (ordered[1:] == ordered[:-1]).any():
            raise ValueError("challenge indices must be distinct")
        self.indices, self.alphas = indices.astype(np.intp), alphas.astype(np.uint8)
        if (self.alphas != alphas).any():
            raise ValueError("challenge alphas must be integers in [0, 256)")

    def to_bytes(self) -> bytes:
        fid = self.file_id.encode()
        records = np.empty(self.indices.size, dtype=_ENTRY)
        records["index"], records["alpha"] = self.indices, self.alphas
        return (struct.pack(">I", len(fid)) + fid + struct.pack(">I", records.size)
                + records.tobytes())

    @classmethod
    def from_bytes(cls, raw: bytes, node: int = 0) -> "Challenge":
        """Parse the wire format; ValueError on truncated or trailing bytes."""
        if len(raw) < 4:
            raise ValueError("truncated challenge")
        (flen,) = struct.unpack_from(">I", raw)
        if len(raw) < 8 + flen:
            raise ValueError("truncated challenge")
        fid = raw[4: 4 + flen].decode()
        (count,) = struct.unpack_from(">I", raw, 4 + flen)
        if len(raw) != 8 + flen + _ENTRY.itemsize * count:
            raise ValueError(f"challenge of {count} entries needs "
                             f"{8 + flen + _ENTRY.itemsize * count} bytes, got {len(raw)}")
        records = np.frombuffer(raw, dtype=_ENTRY, offset=8 + flen)
        return cls(fid, records["index"], records["alpha"], node)


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


def gen_challenge(manifest: FileManifest, node: int, count: int, rng) -> Challenge:
    """count distinct block indices with uniformly random nonzero
    coefficients: a zero would leave its block unchecked.  A full challenge
    takes rows 0..M-1 in order, since the aggregate is a sum and ignores
    their order, and draws only its coefficients."""
    M = manifest.node_coeffs[node].shape[0]
    if not 1 <= count <= M:
        raise ValueError(f"challenge count must be in [1, {M}]")
    indices = np.arange(M) if count == M else rng.choice(M, size=count, replace=False)
    alphas = rng.integers(1, 256, size=count, dtype=np.uint8)
    return Challenge(manifest.file_id, indices, alphas, node)


def gen_proof(rows: np.ndarray, chal: Challenge, k_e: bytes, voucher: Voucher,
              params: SystemParams) -> Proof:
    """Aggregate the challenged rows of the node's (M, n+ell) store, giving
    the n data symbols and ell tag symbols of the combination at once; the
    rows are read from the store once per coefficient digit, with no copy
    of the challenged rows first.  Mask the first n-2 with the voucher's
    mask and offset the tag by the voucher, which costs no multiplication.

    The coefficient part is neither stored nor transmitted: the auditor
    knows it from its own records.  ValueError on a challenge index
    outside the store (field.combine_rows's check).
    """
    n = params.n
    agg = field.combine_rows(chal.alphas, rows, chal.indices)
    c_bar = ncrypt.enc(k_e, chal.file_id.encode(), voucher.node, voucher.k,
                       agg[: n - 2], params)
    return Proof(c_bar, voucher.k.to_bytes(params.lambda_bits // 8, "big"),
                 agg[n - 2: n].copy(), agg[n:] ^ voucher.value)


def _mac_vectors(k_v: bytes, manifest: FileManifest) -> np.ndarray:
    """The file's current MAC vectors: r_1..r_ell as rows, with each
    source's running tag delta XORed into its coefficient column n+i.  An
    update leaves a stored row's tag the MAC of its row before the update,
    while its data gained c_i·(new_i ⊕ old_i), whose MAC is c_i·δ_i; moving
    c_i·δ_i onto the coefficient part keeps the tag the MAC of the current
    row.  XORs only, no multiplication."""
    params = manifest.params
    r = spacemac.r_matrix(k_v, manifest.file_id.encode(), params.ell,
                          params.n + params.m).copy()
    r[:, params.n:] ^= manifest.deltas.T
    return r


def verify_block(k_v: bytes, manifest: FileManifest, rows: np.ndarray,
                 tags: np.ndarray):
    """Whether tags made before the manifest's updates are the rows' tags
    under the current MAC vectors (_mac_vectors): one bool for an (n+m,)
    row and its (ell,) tag, one per row for (k, n+m) rows and (k, ell)
    tags."""
    return np.all(field.combine_rows(rows, _mac_vectors(k_v, manifest).T) == tags,
                  axis=-1)


def verified_rows(k_v: bytes, manifest: FileManifest,
                  payloads: Dict[int, NodePayload]) -> np.ndarray:
    """The full (n+m)-symbol rows of every node's stored blocks, in node
    order, each joined to its coefficients from the manifest, whose tags
    pass verify_block: a corrupted row is left out rather than poisoning a
    solve over the stored rows."""
    n, nodes = manifest.params.n, sorted(payloads)
    stored = np.concatenate([payloads[i].rows for i in nodes])
    rows = np.hstack([stored[:, :n], np.concatenate([manifest.node_coeffs[i]
                                                     for i in nodes])])
    return rows[verify_block(k_v, manifest, rows, stored[:, n:])]


@dataclass
class VerifyStats:
    mults: int = 0  # ell*n data MAC + C*ell coefficient tags (+ M*m*ell table rebuild)


def _coeff_tag_table(k_v: bytes, manifest: FileManifest, node: int,
                     tags: Dict[int, tuple]) -> np.ndarray:
    """Row j: the MAC of the node's stored row j's coefficient part, its
    manifest coefficients times the current MAC vectors' columns n..n+m.
    Served from tags (node -> content of the coefficient rows and deltas
    it was built from, the table) while both equal that content; rebuilt
    otherwise, for M·m·ell multiplications."""
    coeffs = manifest.node_coeffs[node]
    state = (coeffs.shape, coeffs.tobytes(), manifest.deltas.tobytes())
    held = tags.get(node)
    if held is None or held[0] != state:
        r = _mac_vectors(k_v, manifest)
        held = tags[node] = (state, field.combine_rows(coeffs, r[:, manifest.params.n:].T))
    return held[1]


def verify_proof(k_v: bytes, manifest: FileManifest, chal: Challenge,
                 proof: Proof, tags: Dict[int, tuple]) -> Tuple[bool, VerifyStats]:
    """Strip the voucher pad of the proof's k and check verify_block's
    equation for the row [c_bar, pad, alpha·C[indices]] by its parts: the
    MAC of the n data symbols and the alpha-combination of the node's
    coefficient tags (_coeff_tag_table, held in the caller's tags across
    verifies).  Whether k was issued to the node and is unused is the
    caller's check (cluster.Tpa)."""
    params = manifest.params
    n, ell = params.n, params.ell
    if proof.c_bar.shape[0] != n - 2 or proof.tag.shape[0] != ell \
            or proof.pad.shape[0] != 2:
        raise ValueError("malformed proof dimensions")
    stats = VerifyStats()
    before = field.counter.value  # stays put while the counter is off

    fid = manifest.file_id.encode()
    r = spacemac.r_matrix(k_v, fid, ell, n + params.m)
    table = _coeff_tag_table(k_v, manifest, chal.node, tags)
    tag = field.combine_rows(np.concatenate([proof.c_bar, proof.pad]), r[:, :n].T)
    tag ^= field.combine_rows(chal.alphas, table, chal.indices)
    s_k = ncrypt.voucher_pad(k_v, fid, chal.node, proof.k, params)
    ok = bool((tag == proof.tag ^ s_k).all())
    stats.mults = field.counter.value - before
    return ok, stats

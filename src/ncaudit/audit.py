"""The four-algorithm audit protocol tying blocks, MAC, and masking together.

KeyGen / TagGen run at the user, GenProof at a storage node, VerifyProof at
the auditor.  The auditor holds only the verification key and the coding
coefficients; response data reaches it masked.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import field, ncrypt, spacemac
from .blocks import CodedBlock, FileManifest, SystemParams, make_source_blocks, combine_blocks
from .ncrypt import AuxiliaryElements, Ciphertext, MaskBundle


@dataclass
class KeyMaterial:
    k_v: bytes  # verification key: user and TPA only
    k_e: bytes  # encryption key: user and nodes only


def keygen(params: SystemParams, rng) -> KeyMaterial:
    nbytes = params.lambda_bits // 8
    return KeyMaterial(k_v=rng.bytes(nbytes), k_e=rng.bytes(nbytes))


@dataclass
class Challenge:
    file_id: str
    entries: List[Tuple[int, int]]  # (block index, alpha), indices distinct
    node: int = 0                   # addressing; not part of the wire format

    def __post_init__(self):
        if not self.entries:
            raise ValueError("challenge needs at least one entry")
        idx = [i for i, _ in self.entries]
        if len(set(idx)) != len(idx):
            raise ValueError("challenge indices must be distinct")

    def to_bytes(self) -> bytes:
        fid = self.file_id.encode()
        out = [struct.pack(">I", len(fid)), fid, struct.pack(">I", len(self.entries))]
        for i, a in self.entries:
            out.append(struct.pack(">IB", i, a))
        return b"".join(out)

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
        if len(raw) != 8 + flen + 5 * count:
            raise ValueError(f"challenge of {count} entries needs "
                             f"{8 + flen + 5 * count} bytes, got {len(raw)}")
        entries = [struct.unpack_from(">IB", raw, 8 + flen + 5 * k)
                   for k in range(count)]
        return cls(fid, entries, node)


@dataclass
class Proof:
    ciphertext: Ciphertext
    pad: np.ndarray  # the two clear padding symbols e^(n-1), e^(n)
    tag: np.ndarray  # ell aggregated tag symbols

    def to_bytes(self) -> bytes:
        return self.ciphertext.to_bytes() + self.pad.tobytes() + self.tag.tobytes()

    @classmethod
    def from_bytes(cls, raw: bytes, params: SystemParams) -> "Proof":
        """Parse the wire format; ValueError unless raw has exactly the
        length params imply."""
        n, ell, lam = params.n, params.ell, params.lambda_bits
        ct_len = (n - 2) + lam // 8 + ell
        if len(raw) != ct_len + 2 + ell:
            raise ValueError(f"proof needs {ct_len + 2 + ell} bytes, got {len(raw)}")
        ct = Ciphertext.from_bytes(raw[:ct_len], n, ell, lam)
        pad = np.frombuffer(raw[ct_len: ct_len + 2], dtype=np.uint8).copy()
        tag = np.frombuffer(raw[ct_len + 2: ct_len + 2 + ell], dtype=np.uint8).copy()
        return cls(ct, pad, tag)

    def wire_size(self) -> int:
        return len(self.to_bytes())


@dataclass
class NodePayload:
    """What the user hands a storage node at setup."""
    blocks: List[CodedBlock]
    tags: List[np.ndarray]
    aux: AuxiliaryElements
    k_e: bytes


def taggen(coeffs, source_tags: np.ndarray) -> np.ndarray:
    """Tag of a coded block as the coefficient combination of source tags."""
    return spacemac.combine_tag_arrays(np.asarray(source_tags, dtype=np.uint8),
                                       field.vec(coeffs))


def setup_file(file_bytes: bytes, params: SystemParams, keys: KeyMaterial,
               code_layout: Dict[int, np.ndarray], rng, file_id: str = "file",
               ) -> Tuple[FileManifest, Dict[int, NodePayload]]:
    """Build source blocks, tag them, encode per-node payloads.

    code_layout maps node id -> (M, m) coefficient rows.  Encoded-block tags
    go through TagGen (the Combine route), never a fresh Mac.
    """
    params.validate()
    fid = file_id.encode()
    sources, residual, lengths = make_source_blocks(file_bytes, params, rng)
    source_tags = np.stack([spacemac.mac(keys.k_v, fid, b, params.ell) for b in sources])
    aux = ncrypt.setup(keys.k_e, keys.k_v, fid, params)

    payloads: Dict[int, NodePayload] = {}
    node_coeffs: Dict[int, np.ndarray] = {}
    for node, rows in code_layout.items():
        rows = np.asarray(rows, dtype=np.uint8)
        if rows.shape != (params.M, params.m):
            raise ValueError(f"layout rows for node {node} must be (M, m)")
        blocks = [combine_blocks(sources, rows[j]) for j in range(params.M)]
        tags = [taggen(rows[j], source_tags) for j in range(params.M)]
        payloads[node] = NodePayload(blocks, tags, aux, keys.k_e)
        node_coeffs[node] = rows.copy()

    manifest = FileManifest(
        file_id=file_id,
        params=params,
        residual_len=residual,
        block_lengths=lengths,
        node_coeffs=node_coeffs,
        logical_order=list(range(params.m)),
    )
    return manifest, payloads


def gen_challenge(manifest: FileManifest, node: int, count: int, rng) -> Challenge:
    """count distinct block indices with uniformly random nonzero
    coefficients: a zero would leave its block unchecked."""
    M = manifest.node_coeffs[node].shape[0]
    if not 1 <= count <= M:
        raise ValueError(f"challenge count must be in [1, {M}]")
    idx = rng.choice(M, size=count, replace=False)
    alphas = rng.integers(1, 256, size=count, dtype=np.uint8)
    entries = [(int(i), int(a)) for i, a in zip(idx, alphas)]
    return Challenge(manifest.file_id, entries, node)


@dataclass
class GenProofStats:
    block_mults: int = 0  # aggregating the n data symbols: C*n
    tag_mults: int = 0    # aggregating the stored tags: C*ell
    mask_mults: int = 0   # 0 when the mask bundle is precomputed


class MissingBlockError(KeyError):
    pass


def gen_proof(blocks: List[Optional[CodedBlock]], tags: List[Optional[np.ndarray]],
              chal: Challenge, k_e: bytes, aux: AuxiliaryElements, rng,
              params: SystemParams, mask: MaskBundle | None = None,
              strict: bool = True) -> Tuple[Proof, GenProofStats]:
    """Aggregate the challenged blocks and tags, then mask the data part.

    Only the first n symbols are aggregated; the coefficient part is never
    transmitted (the auditor recomputes it from its own records).  With
    strict=False a missing block and its tag are replaced by uniformly
    random ones.
    """
    n, ell = params.n, params.ell
    data = np.empty((len(chal.entries), n), dtype=np.uint8)
    tag_rows = np.empty((len(chal.entries), ell), dtype=np.uint8)
    for k, (i, _) in enumerate(chal.entries):
        block, tag = blocks[i], tags[i]
        if block is None or tag is None:
            if strict:
                raise MissingBlockError(f"block {i} not in store")
            data[k] = rng.integers(0, 256, size=n, dtype=np.uint8)
            tag_rows[k] = rng.integers(0, 256, size=ell, dtype=np.uint8)
        else:
            data[k] = block.vec[:n]
            tag_rows[k] = tag
    alphas = field.vec([a for _, a in chal.entries])

    stats = GenProofStats()
    counting = field.counter.enabled
    before = field.counter.value if counting else 0
    agg = field.combine_rows(alphas, data)
    if counting:
        stats.block_mults = field.counter.value - before
        before = field.counter.value
    agg_tag = field.combine_rows(alphas, tag_rows)
    if counting:
        stats.tag_mults = field.counter.value - before
        before = field.counter.value

    e_bar, pad = agg[: n - 2], agg[n - 2: n].copy()
    ct = ncrypt.enc(k_e, chal.file_id.encode(), e_bar, aux, rng,
                    params.lambda_bits, mask=mask)
    if counting:
        stats.mask_mults = field.counter.value - before
    return Proof(ct, pad, agg_tag), stats


def aggregate_coeffs(manifest: FileManifest, chal: Challenge) -> np.ndarray:
    """The challenged combination's source coefficients, from the manifest."""
    rows = manifest.node_coeffs[chal.node]
    idx = [i for i, _ in chal.entries]
    return field.combine_rows([a for _, a in chal.entries], rows[idx])


def verify_block(k_v: bytes, manifest: FileManifest, block: CodedBlock,
                 tag: np.ndarray) -> bool:
    """Whether `tag`, made before the manifest's updates, is the block's tag.

    The running per-index tag deltas, weighted by the block's source
    coefficients, bring the tag up to date; without deltas this costs no
    multiplication."""
    tag = np.asarray(tag, dtype=np.uint8)
    if manifest.deltas:
        idx = sorted(manifest.deltas)
        tag = tag ^ field.combine_rows(block.coeffs[idx],
                                       np.stack([manifest.deltas[i] for i in idx]))
    fid = manifest.file_id.encode()
    return np.array_equal(spacemac.mac(k_v, fid, block, manifest.params.ell), tag)


@dataclass
class VerifyStats:
    mults: int = 0  # C*m coefficient aggregation + ell*(n+m) verification dots


def verify_proof(k_v: bytes, manifest: FileManifest, chal: Challenge,
                 proof: Proof) -> Tuple[bool, VerifyStats]:
    """Rebuild the expected coefficients, compensate the mask and the
    manifest's tag deltas, verify the tags."""
    params = manifest.params
    n, m, ell = params.n, params.m, params.ell
    if proof.ciphertext.c_bar.shape[0] != n - 2 or proof.tag.shape[0] != ell \
            or proof.pad.shape[0] != 2 or proof.ciphertext.p.shape[0] != ell:
        raise ValueError("malformed proof dimensions")
    stats = VerifyStats()
    counting = field.counter.enabled
    before = field.counter.value if counting else 0

    aug = aggregate_coeffs(manifest, chal)
    c = CodedBlock(np.concatenate([proof.ciphertext.c_bar, proof.pad, aug]), n, m)
    ok = verify_block(k_v, manifest, c, proof.tag ^ proof.ciphertext.p)
    if counting:
        stats.mults = field.counter.value - before
    return ok, stats

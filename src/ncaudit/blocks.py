"""Block data model: source blocks, coded blocks, manifest, (de)coding.

A block is a vector in GF(256)^(n+m): n data symbols (the last two of which
are random padding) followed by m coding coefficients.  Source block i has
the i-th unit vector as its coefficients; any linear combination keeps the
combination weights in its last m coordinates.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field as dc_field
from typing import Dict, List

import numpy as np

from . import field

BLOCK_MAGIC = b"NCAB"
BLOCK_VERSION = 1


@dataclass
class SystemParams:
    n: int                  # data symbols per block, padding included
    m: int                  # source block count
    N: int                  # node count
    M: int                  # blocks stored per node
    P: int                  # helper nodes per repair
    Q: int                  # repair blocks per helper
    ell: int = 1            # parallel tag count
    lambda_bits: int = 128  # key / nonce size
    q: int = 256

    def validate(self):
        if self.q != 256:
            raise ValueError("only q = 2^8 is supported")
        if self.n < 4:
            raise ValueError("n must be >= 4 (two padding symbols)")
        if self.m < 1 or self.ell < 1:
            raise ValueError("m and ell must be >= 1")
        if self.M * self.N < self.m:
            raise ValueError("M*N must be >= m for decodability")
        if self.lambda_bits % 8 != 0 or self.lambda_bits < 64:
            raise ValueError("lambda_bits must be a multiple of 8, >= 64")
        return self

    def to_dict(self):
        return {
            "n": self.n, "m": self.m, "N": self.N, "M": self.M,
            "P": self.P, "Q": self.Q, "ell": self.ell,
            "lambda_bits": self.lambda_bits, "q": self.q,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(**d).validate()


@dataclass
class CodedBlock:
    vec: np.ndarray  # length n + m
    n: int
    m: int

    def __post_init__(self):
        self.vec = np.asarray(self.vec, dtype=np.uint8)
        if self.vec.shape != (self.n + self.m,):
            raise ValueError("block vector has wrong length")

    @property
    def data(self) -> np.ndarray:
        return self.vec[: self.n]

    @property
    def coeffs(self) -> np.ndarray:
        return self.vec[self.n:]

    def copy(self) -> "CodedBlock":
        return CodedBlock(self.vec.copy(), self.n, self.m)

    def to_bytes(self) -> bytes:
        return (BLOCK_MAGIC + bytes([BLOCK_VERSION])
                + struct.pack(">II", self.n, self.m) + self.vec.tobytes())

    @classmethod
    def from_bytes(cls, raw: bytes) -> "CodedBlock":
        if raw[:4] != BLOCK_MAGIC:
            raise ValueError("bad block magic")
        if raw[4] != BLOCK_VERSION:
            raise ValueError("unsupported block version")
        n, m = struct.unpack(">II", raw[5:13])
        vec = np.frombuffer(raw[13: 13 + n + m], dtype=np.uint8).copy()
        return cls(vec, n, m)


@dataclass
class FileManifest:
    """Everything the user and TPA retain: parameters and coefficients."""

    file_id: str
    params: SystemParams
    residual_len: int                      # bytes in the last original block
    block_lengths: List[int]               # payload bytes per source block
    node_coeffs: Dict[int, np.ndarray]     # node -> (M, m) coefficient rows
    logical_order: List[int] = dc_field(default_factory=list)
    deltas: Dict[int, np.ndarray] = dc_field(default_factory=dict)

    def to_json(self) -> str:
        doc = {
            "file_id": self.file_id,
            "params": self.params.to_dict(),
            "residual_len": self.residual_len,
            "block_lengths": list(self.block_lengths),
            "node_coeffs": {
                str(node): rows.tolist()
                for node, rows in sorted(self.node_coeffs.items())
            },
            "logical_order": list(self.logical_order),
            "deltas": {str(j): d.tolist() for j, d in sorted(self.deltas.items())},
        }
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "FileManifest":
        doc = json.loads(text)
        return cls(
            file_id=doc["file_id"],
            params=SystemParams.from_dict(doc["params"]),
            residual_len=doc["residual_len"],
            block_lengths=list(doc["block_lengths"]),
            node_coeffs={
                int(node): np.array(rows, dtype=np.uint8)
                for node, rows in doc["node_coeffs"].items()
            },
            logical_order=list(doc["logical_order"]),
            deltas={int(j): np.array(d, dtype=np.uint8)
                    for j, d in doc.get("deltas", {}).items()},
        )


def make_source_block(data: bytes, params: SystemParams, index: int, rng,
                      ) -> CodedBlock:
    """Source block for slot `index` of a file with params.m slots: the data,
    zero-filled to n-2 symbols, two random padding symbols, then the
    index-th unit vector as coefficients."""
    n, m = params.n, params.m
    if len(data) > n - 2:
        raise ValueError(f"block data exceeds {n - 2} bytes")
    vec = np.zeros(n + m, dtype=np.uint8)
    vec[: len(data)] = np.frombuffer(data, dtype=np.uint8)
    vec[n - 2: n] = np.frombuffer(rng.bytes(2), dtype=np.uint8)
    vec[n + index] = 1
    return CodedBlock(vec, n, m)


def make_source_blocks(file_bytes: bytes, params: SystemParams, rng):
    """Split a file into m padded, unit-augmented source blocks.

    Returns (blocks, residual_len, block_lengths).  The two padding symbols
    are drawn once here, block by block, and never re-randomized; they are
    part of the authenticated vector.
    """
    params.validate()
    payload = params.n - 2
    if len(file_bytes) > params.m * payload:
        raise ValueError("file longer than m*(n-2) symbols")
    chunks = [file_bytes[i * payload: (i + 1) * payload] for i in range(params.m)]
    blocks = [make_source_block(chunk, params, i, rng) for i, chunk in enumerate(chunks)]
    residual = len(file_bytes) % payload
    if file_bytes and residual == 0:
        residual = payload
    return blocks, residual, [len(chunk) for chunk in chunks]


def combine_blocks(blocks: List[CodedBlock], alphas) -> CodedBlock:
    """Componentwise linear combination over all n+m coordinates."""
    if not blocks:
        raise ValueError("need at least one block")
    n, m = blocks[0].n, blocks[0].m
    alphas = field.vec(alphas)
    if len(blocks) != alphas.shape[0]:
        raise ValueError("length mismatch between blocks and coefficients")
    for b in blocks:
        if b.n != n or b.m != m:
            raise ValueError("dimension mismatch")
    mat = np.stack([b.vec for b in blocks])
    return CodedBlock(field.combine_rows(alphas, mat), n, m)


class UndecodableError(ValueError):
    pass


def decode_source_data(blocks: List[CodedBlock], m: int) -> np.ndarray:
    """Recover the m source data rows (n symbols each) from coded blocks."""
    if not blocks:
        raise UndecodableError("no blocks supplied")
    a = np.stack([b.coeffs for b in blocks])
    d = np.stack([b.data for b in blocks])
    res = field.gaussian_solve(a, d)
    if res.status == "inconsistent":
        raise UndecodableError("coded blocks are inconsistent: one of them is corrupted")
    if res.status != "unique":
        raise UndecodableError(
            f"coefficient rows do not span the source space (rank {res.rank} < {m})"
        )
    return res.solution


def decode_file(blocks: List[CodedBlock], manifest: FileManifest) -> bytes:
    """Original file bytes from >= m coded blocks with full-rank coefficients."""
    m = manifest.params.m
    data = decode_source_data(blocks, m)
    out = bytearray()
    order = manifest.logical_order or list(range(m))
    for j in order:
        out += data[j, : manifest.block_lengths[j]].tobytes()
    return bytes(out)

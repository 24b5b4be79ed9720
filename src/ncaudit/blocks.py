"""Block data model: source blocks, coded blocks, manifest, (de)coding.

A block is a vector in GF(256)^(n+m): n data symbols (the last two of which
are random padding) followed by m coding coefficients.  Source block i has
the i-th unit vector as its coefficients; any linear combination keeps the
combination weights in its last m coordinates.  A set of blocks is a row
matrix with one block per row.  Nodes store only the n data symbols of
theirs: the coefficient part of every stored block is kept once, in the
manifest (FileManifest.node_coeffs), and joined back where a full row is
needed.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Dict, List

import numpy as np

from . import field


@dataclass
class SystemParams:
    n: int                  # data symbols per block, padding included
    m: int                  # source block count
    N: int                  # node count
    M: int                  # blocks stored per node
    P: int                  # helper nodes per repair
    Q: int                  # repair blocks per helper
    ell: int = 1            # parallel tag count
    lambda_bits: int = 128  # key and audit-counter size
    q: int = 256

    def validate(self):
        if self.q != 256:
            raise ValueError("only q = 2^8 is supported")
        if self.n < 4:
            raise ValueError("n must be >= 4 (two padding symbols)")
        if self.m < 1 or self.ell < 1 or self.Q < 1:
            raise ValueError("m, ell and Q must be >= 1")
        if self.P < 0:
            raise ValueError("P must be >= 0")
        # keys are lambda_bits long, and keyed BLAKE2b takes at most 64 bytes
        if self.lambda_bits % 8 != 0 or not 64 <= self.lambda_bits <= 512:
            raise ValueError("lambda_bits must be a multiple of 8 from 64 to 512")
        return self

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        """Parameters from a dict of integers; ValueError on anything else."""
        if not isinstance(d, dict) or not all(type(v) is int for v in d.values()):
            raise ValueError("params must map names to integers")
        try:
            return cls(**d).validate()
        except TypeError as e:
            raise ValueError(f"bad params: {e}") from e


@dataclass
class CodedBlock:
    """One stored block's n data symbols on their own, as node snapshots
    and repair shipments hand blocks out."""
    vec: np.ndarray


def _symbols(value, shape, what: str) -> np.ndarray:
    """A JSON array of field symbols as uint8; ValueError unless it has the
    given shape (None: any length) and holds integers in 0..255."""
    arr = np.array(value, dtype=object)
    fits = arr.ndim == len(shape) and all(want in (None, got)
                                          for want, got in zip(shape, arr.shape))
    if not fits or not all(type(v) is int and 0 <= v <= 255 for v in arr.flat):
        raise ValueError(f"manifest {what} must be symbols 0..255 shaped {shape}")
    return arr.astype(np.uint8)


def _ints(value, what: str, top: int) -> List[int]:
    if not isinstance(value, list) or not all(type(v) is int and 0 <= v < top
                                              for v in value):
        raise ValueError(f"manifest {what} must be a list of integers in 0..{top - 1}")
    return list(value)


@dataclass
class FileManifest:
    """Everything the user and TPA retain: parameters, coefficients, tag deltas."""

    file_id: str
    params: SystemParams
    block_lengths: List[int]               # payload bytes per source block
    node_coeffs: Dict[int, np.ndarray]     # node -> (M, m) coefficient rows
    logical_order: List[int]               # source indices in file order
    deltas: np.ndarray                     # (m, ell) running tag delta per source

    def to_json(self) -> str:
        return json.dumps({
            "file_id": self.file_id,
            "params": self.params.to_dict(),
            "block_lengths": list(self.block_lengths),
            "node_coeffs": {str(node): rows.tolist()
                            for node, rows in sorted(self.node_coeffs.items())},
            "logical_order": list(self.logical_order),
            "deltas": {str(j): d.tolist() for j, d in enumerate(self.deltas) if d.any()},
        }, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "FileManifest":
        """Parse a manifest; ValueError on malformed JSON, a missing key, a
        wrong type, a coefficient row of the wrong width, an index, node id
        or symbol out of range, a source index repeated in logical_order,
        or two keys ("3", "03") that name one node or one delta index."""
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("manifest must be a JSON object")
        missing = {"file_id", "params", "block_lengths", "node_coeffs",
                   "logical_order"} - set(doc)
        if missing:
            raise ValueError(f"manifest lacks {sorted(missing)}")
        params = SystemParams.from_dict(doc["params"])
        if not isinstance(doc["file_id"], str):
            raise ValueError("manifest file_id must be a string")
        lengths = _ints(doc["block_lengths"], "block_lengths", params.n - 1)
        if len(lengths) != params.m:
            raise ValueError(f"manifest needs {params.m} block_lengths")
        node_coeffs, deltas = doc["node_coeffs"], doc.get("deltas", {})
        if not isinstance(node_coeffs, dict) or not isinstance(deltas, dict) \
                or not all(0 <= int(j) < params.m for j in deltas):
            raise ValueError("manifest node_coeffs and deltas must be objects, "
                             "deltas keyed by source index")
        coeffs = {int(node): _symbols(rows, (None, params.m), f"node {node} rows")
                  for node, rows in node_coeffs.items()}
        order = _ints(doc["logical_order"], "logical_order", params.m)
        delta_rows = np.zeros((params.m, params.ell), dtype=np.uint8)
        for j, d in deltas.items():
            delta_rows[int(j)] = _symbols(d, (params.ell,), f"delta {j}")
        # the PRF nonce packs a node id as 32 bits
        if not all(0 <= node < 2**32 for node in coeffs):
            raise ValueError("manifest node ids must be integers in 0..2^32-1")
        if len(coeffs) < len(node_coeffs) or len(set(map(int, deltas))) < len(deltas):
            raise ValueError("manifest keys name one node or delta index twice")
        if len(set(order)) < len(order):
            raise ValueError("manifest logical_order repeats a source index")
        return cls(file_id=doc["file_id"], params=params, block_lengths=lengths,
                   node_coeffs=coeffs, logical_order=order, deltas=delta_rows)


def make_source_block(data: bytes, params: SystemParams, index: int, rng) -> np.ndarray:
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
    return vec


def make_source_blocks(file_bytes: bytes, params: SystemParams, rng):
    """Split a file into m padded, unit-augmented source blocks.

    Returns (rows, block_lengths), rows being the (m, n+m) source matrix.
    The two padding symbols are drawn once here, block by block, and never
    re-randomized; they are part of the authenticated vector.
    """
    params.validate()
    payload = params.n - 2
    if len(file_bytes) > params.m * payload:
        raise ValueError("file longer than m*(n-2) symbols")
    chunks = [file_bytes[i * payload: (i + 1) * payload] for i in range(params.m)]
    rows = np.stack([make_source_block(chunk, params, i, rng)
                     for i, chunk in enumerate(chunks)])
    return rows, [len(chunk) for chunk in chunks]


class UndecodableError(ValueError):
    pass


def decode_source_data(rows: np.ndarray, m: int) -> np.ndarray:
    """Recover the m source data rows (n symbols each) from a matrix of
    coded block rows."""
    if rows.shape[0] == 0:
        raise UndecodableError("no blocks supplied")
    res = field.gaussian_solve(rows[:, -m:], rows[:, :-m])
    if res.status == "inconsistent":
        raise UndecodableError("coded blocks are inconsistent: one of them is corrupted")
    if res.status != "unique":
        raise UndecodableError(f"coefficient rows do not span the source space "
                               f"(rank {res.rank} < {m})")
    return res.solution


def decode_file(rows: np.ndarray, manifest: FileManifest) -> bytes:
    """Original file bytes from >= m coded block rows with full-rank
    coefficients."""
    m = manifest.params.m
    data = decode_source_data(rows, m)
    out = bytearray()
    for j in manifest.logical_order:
        out += data[j, : manifest.block_lengths[j]].tobytes()
    return bytes(out)

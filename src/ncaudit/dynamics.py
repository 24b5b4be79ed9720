"""File mutations after setup: append, update, insert, delete.

The PRF that backs the tags is evaluated per position, so growing a vector
leaves the tag contributions of existing positions untouched: appending a
source block only widens the coefficient part, which the manifest alone
holds, and every stored tag stays valid once the new coefficient column is
zero for old blocks.  An append checks its inputs first and then adds one
plain copy of the new block to each node it is given, so it happens whole
or not at all.

Updates never replace stored tags in place.  The manifest keeps one running
tag delta per source, a row of its (m, ell) deltas, and every tag check
folds them into the MAC vectors' coefficient columns (audit._mac_vectors),
so stored tags from before an update stay valid for the patched rows.  The
TPA holds k_v and these deltas, so it can test what an update changed
(ROADMAP item 19).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict

import numpy as np

from . import field, spacemac
from .audit import KeyMaterial, NodePayload, verified_rows
from .blocks import FileManifest, make_source_block


def append_block(manifest: FileManifest, payloads: Dict[int, NodePayload],
                 keys: KeyMaterial, data: bytes, rng) -> int:
    """Append one source block; returns its source index.

    Each node in `payloads` stores the new block's n data symbols and ell
    tags as a plain copy.  Every node's coefficient rows widen by a zero
    column, which changes no tag value and no stored symbol, the manifest's
    deltas gain a zero row, and the nodes given the block also gain its
    unit coefficient row.  Rows that span the m old sources, joined by that
    unit row, span all m+1, so the file stays decodable without a rank
    check.  Data longer than n-2 symbols, no node
    and a node the manifest lacks are refused before anything changes.
    """
    if not payloads:
        raise ValueError("an append needs at least one node to store the new block")
    if not set(payloads) <= set(manifest.node_coeffs):
        raise ValueError(f"nodes {sorted(set(payloads) - set(manifest.node_coeffs))} "
                         f"are not in this file (nodes {sorted(manifest.node_coeffs)})")
    params = replace(manifest.params, m=manifest.params.m + 1)
    index = manifest.params.m
    block = make_source_block(data, params, index, rng)
    row = np.concatenate([block[:params.n],
                          spacemac.mac(keys.k_v, manifest.file_id.encode(), block, params.ell)])

    for node, rows in manifest.node_coeffs.items():
        rows = np.hstack([rows, np.zeros((len(rows), 1), dtype=np.uint8)])
        manifest.node_coeffs[node] = (np.vstack([rows, block[params.n:]])
                                      if node in payloads else rows)
    manifest.deltas = np.vstack([manifest.deltas, np.zeros((1, params.ell), dtype=np.uint8)])
    for payload in payloads.values():
        payload.rows = np.vstack([payload.rows, row])
    manifest.params = params
    manifest.block_lengths.append(len(data))
    manifest.logical_order.append(index)
    return index


def update_block(manifest: FileManifest, payloads: Dict[int, NodePayload],
                 keys: KeyMaterial, index: int, data: bytes, rng) -> np.ndarray:
    """Replace source block `index` with new data; returns the tag delta.

    The old block is rebuilt from every node's stored rows whose tags
    verify (`_reconstruct_source`), so the caller holding k_v reads every
    stored row: 24 rows of 1,026 bytes at cluster-churn's shape, which no
    ledger charges.  Each node then patches every stored block by
    alpha_index * (new - old) and keeps its stale tags, and the returned
    delta is XORed into the manifest's delta row for the index.  An index
    outside the logical order, deleted or never there, is refused before
    anything changes.
    """
    params = manifest.params
    if type(index) is not int or index not in manifest.logical_order:
        raise ValueError(f"update index {index!r} is not a live block of this file "
                         f"(0..{params.m - 1}, less deleted ones)")
    fid = manifest.file_id.encode()
    old = _reconstruct_source(manifest, payloads, keys.k_v, index)
    new_block = make_source_block(data, params, index, rng)
    # keep pads so the delta has zero coefficient part and clean pads
    new_block[params.n - 2: params.n] = old[params.n - 2: params.n]
    diff = old ^ new_block
    delta = spacemac.mac(keys.k_v, fid, diff, params.ell)  # tags are linear

    for node, payload in payloads.items():
        column = manifest.node_coeffs[node][:, index: index + 1]
        payload.rows[:, :params.n] ^= field.combine_rows(column, diff[None, :params.n])
    manifest.block_lengths[index] = len(data)
    manifest.deltas[index] ^= delta
    return delta


def _reconstruct_source(manifest: FileManifest, payloads: Dict[int, NodePayload],
                        k_v: bytes, index: int) -> np.ndarray:
    """Source block `index` from the stored rows whose tags verify, so an
    undetected corrupted row cannot spread through the patch; the first
    expressible set in node and block order wins."""
    params = manifest.params
    rows = verified_rows(k_v, manifest, payloads)
    sol = field.solve_any(rows[:, params.n:].T, np.eye(params.m, dtype=np.uint8)[index])
    if sol is None:
        raise RuntimeError(f"source block {index} is not expressible")
    return field.combine_rows(sol, rows)


def insert_block(manifest: FileManifest, payloads: Dict[int, NodePayload],
                 keys: KeyMaterial, position: int, data: bytes, rng) -> int:
    """Insert at a logical position: physically an append plus an ordering
    entry, so no stored block moves; returns the new source index."""
    if type(position) is not int or not 0 <= position <= len(manifest.logical_order):
        raise ValueError(f"insert position {position!r} is not in 0..{len(manifest.logical_order)}")
    index = append_block(manifest, payloads, keys, data, rng)
    manifest.logical_order.insert(position, manifest.logical_order.pop())
    return index


def delete_block(manifest: FileManifest, payloads: Dict[int, NodePayload],
                 keys: KeyMaterial, index: int, rng) -> np.ndarray:
    """Delete = update to an all-zero data block plus a tombstone in the
    logical order, so a deleted index is refused as an update's is.
    Coefficients keep their width; audits stay valid."""
    delta = update_block(manifest, payloads, keys, index, b"", rng)
    manifest.block_lengths[index] = 0
    manifest.logical_order.remove(index)
    return delta

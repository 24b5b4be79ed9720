"""File mutations after setup: append, update, insert, delete.

The PRF that backs the tags is evaluated per position, so growing a vector
leaves the tag contributions of existing positions untouched: appending a
source block only widens the coefficient part, which the manifest alone
holds, and every stored tag stays valid once the new coefficient column is
zero for old blocks.

Updates never replace stored tags in place.  The auditor keeps one running
tag delta per source index and compensates during verification, so stale
and fresh blocks can coexist on different nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import field, spacemac
from .audit import KeyMaterial, NodePayload, verified_rows
from .blocks import FileManifest, combine_blocks, make_source_block


@dataclass
class AppendResult:
    index: int                       # source index of the new block
    placements: Dict[int, int]       # node -> local slot that now holds it
    donations: List[Tuple[int, int, int]]  # (from_node, local_idx, to_node)


def _widen_manifest(manifest: FileManifest) -> None:
    for node, rows in manifest.node_coeffs.items():
        manifest.node_coeffs[node] = np.concatenate(
            [rows, np.zeros((rows.shape[0], 1), dtype=np.uint8)], axis=1)
    manifest.params = replace(manifest.params, m=manifest.params.m + 1)


def append_block(manifest: FileManifest, payloads: Dict[int, NodePayload],
                 keys: KeyMaterial, data: bytes, rng,
                 placements: Dict[int, Optional[np.ndarray]] | None = None,
                 donations: List[Tuple[int, int, int]] | None = None,
                 retire: Dict[int, List[int]] | None = None,
                 ) -> AppendResult:
    """Append one source block.

    Every block's manifest coefficients widen with a zero column, which
    changes no tag value and no stored symbol.  Nodes listed in
    `placements` receive the new block: None means a plain copy, a mix row
    (or matrix of rows) over the node's current rows plus the new one
    yields combined rows, whose tags are the combined stored tags.
    `donations` optionally moves copies of existing blocks between nodes
    first (layout rebalancing), and `retire` drops the listed pre-existing
    local slots afterwards.
    """
    _widen_manifest(manifest)
    params = manifest.params
    new_index = params.m - 1
    fid = manifest.file_id.encode()

    for src, local, dst in donations or []:
        payloads[dst].rows = np.vstack([payloads[dst].rows, payloads[src].rows[local]])
        manifest.node_coeffs[dst] = np.vstack([manifest.node_coeffs[dst],
                                               manifest.node_coeffs[src][local]])

    new_block = make_source_block(data, params, new_index, rng)
    new_row = np.concatenate([new_block[:params.n],
                              spacemac.mac(keys.k_v, fid, new_block, params.ell)])
    manifest.block_lengths.append(len(data))
    manifest.logical_order.append(new_index)

    placed: Dict[int, int] = {}
    if placements is None:
        placements = {node: None for node in payloads}
    for node, mix in placements.items():
        payload = payloads[node]
        # mixes run over the node's pre-append rows plus the new one
        M = payload.rows.shape[0]
        if mix is None:
            mix = np.zeros(M + 1, dtype=np.uint8)
            mix[M] = 1
        mix = np.atleast_2d(np.asarray(mix, dtype=np.uint8))
        base_rows = np.vstack([manifest.node_coeffs[node],
                               np.eye(params.m, dtype=np.uint8)[new_index]])
        payload.rows = np.vstack([payload.rows, combine_blocks(
            mix, np.vstack([payload.rows, new_row]))])
        manifest.node_coeffs[node] = np.vstack([manifest.node_coeffs[node],
                                                combine_blocks(mix, base_rows)])
        placed[node] = manifest.node_coeffs[node].shape[0] - 1

    for node, slots in (retire or {}).items():
        payloads[node].rows = np.delete(payloads[node].rows, slots, axis=0)
        manifest.node_coeffs[node] = np.delete(manifest.node_coeffs[node], slots, axis=0)
    return AppendResult(new_index, placed, donations or [])


def update_block(manifest: FileManifest, payloads: Dict[int, NodePayload],
                 keys: KeyMaterial, index: int, data: bytes, rng) -> np.ndarray:
    """Replace source block `index` with new data; returns the tag delta.

    The user downloads nothing but computes the new block's tag; nodes
    reconstruct the old block among themselves, patch every stored block by
    alpha_index * (new - old), and keep their stale tags.  The auditor folds
    the returned delta into the manifest's running per-index deltas.
    """
    params = manifest.params
    fid = manifest.file_id.encode()
    old = _reconstruct_source(manifest, payloads, keys.k_v, index)
    new_block = make_source_block(data, params, index, rng)
    # keep pads so the delta has zero coefficient part and clean pads
    new_block[params.n - 2: params.n] = old[params.n - 2: params.n]
    diff = old ^ new_block
    delta = spacemac.mac(keys.k_v, fid, diff, params.ell)  # tags are linear

    for node, payload in payloads.items():
        column = manifest.node_coeffs[node][:, index: index + 1]
        payload.rows[:, :params.n] ^= combine_blocks(column, diff[None, :params.n])
    manifest.block_lengths[index] = len(data)
    manifest.deltas[index] = manifest.deltas.get(
        index, np.zeros(params.ell, dtype=np.uint8)) ^ delta
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
    return combine_blocks(sol, rows)


def insert_block(manifest: FileManifest, payloads: Dict[int, NodePayload],
                 keys: KeyMaterial, position: int, data: bytes, rng,
                 **append_kw) -> AppendResult:
    """Insert at a logical position: physically an append plus an ordering
    entry, so no stored block moves."""
    res = append_block(manifest, payloads, keys, data, rng, **append_kw)
    manifest.logical_order.remove(res.index)
    manifest.logical_order.insert(position, res.index)
    return res


def delete_block(manifest: FileManifest, payloads: Dict[int, NodePayload],
                 keys: KeyMaterial, index: int, rng) -> np.ndarray:
    """Delete = update to an all-zero data block plus a tombstone in the
    logical order.  Coefficients keep their width; audits stay valid."""
    delta = update_block(manifest, payloads, keys, index, b"", rng)
    manifest.block_lengths[index] = 0
    manifest.logical_order.remove(index)
    return delta

"""File mutations after setup: append, update, insert, delete.

The PRF that backs the tags is evaluated per position, so growing a vector
leaves the tag contributions of existing positions untouched: appending a
source block only widens the coefficient part, and every stored tag stays
valid once the new coefficient column is zero for old blocks.

Updates never replace stored tags in place.  The auditor keeps one running
tag delta per source index and compensates during verification, so stale
and fresh blocks can coexist on different nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import field, spacemac
from .audit import KeyMaterial, NodePayload, taggen
from .blocks import (CodedBlock, FileManifest, SystemParams, combine_blocks,
                     make_source_block)


@dataclass
class AppendResult:
    index: int                       # source index of the new block
    placements: Dict[int, int]       # node -> local slot that now holds it
    donations: List[Tuple[int, int, int]]  # (from_node, local_idx, to_node)


def _widen_manifest(manifest: FileManifest) -> None:
    for node, rows in manifest.node_coeffs.items():
        manifest.node_coeffs[node] = np.concatenate(
            [rows, np.zeros((rows.shape[0], 1), dtype=np.uint8)], axis=1)
    p = manifest.params
    manifest.params = SystemParams(p.n, p.m + 1, p.N, p.M, p.P, p.Q,
                                   p.ell, p.lambda_bits, p.q)


def _widen_block(block: CodedBlock) -> CodedBlock:
    return CodedBlock(np.concatenate([block.vec, np.zeros(1, dtype=np.uint8)]),
                      block.n, block.m + 1)


def append_block(manifest: FileManifest, payloads: Dict[int, NodePayload],
                 keys: KeyMaterial, data: bytes, rng,
                 placements: Dict[int, Optional[np.ndarray]] | None = None,
                 donations: List[Tuple[int, int, int]] | None = None,
                 retire: Dict[int, List[int]] | None = None,
                 ) -> AppendResult:
    """Append one source block.

    Every stored block and tag widens with a zero coefficient column, which
    changes no tag value.  Nodes listed in `placements` receive the new
    block: None means a plain copy, a mix row (or list of rows) over the
    node's current blocks plus the new one yields combined blocks whose tags
    come from combining stored tags.  `donations` optionally moves copies of
    existing blocks between nodes first (layout rebalancing), and `retire`
    drops the listed pre-existing local slots afterwards.
    """
    _widen_manifest(manifest)
    params = manifest.params
    new_index = params.m - 1
    fid = manifest.file_id.encode()

    for node, payload in payloads.items():
        payload.blocks = [_widen_block(b) for b in payload.blocks]

    if donations:
        for src, local, dst in donations:
            blk = payloads[src].blocks[local]
            payloads[dst].blocks.append(blk.copy())
            payloads[dst].tags.append(payloads[src].tags[local].copy())
            manifest.node_coeffs[dst] = np.concatenate(
                [manifest.node_coeffs[dst],
                 manifest.node_coeffs[src][local][None, :]], axis=0)

    new_block = make_source_block(data, params, new_index, rng)
    new_tag = spacemac.mac(keys.k_v, fid, new_block, params.ell)
    manifest.block_lengths.append(len(data))
    manifest.logical_order.append(new_index)

    placed: Dict[int, int] = {}
    if placements is None:
        placements = {node: None for node in payloads}
    for node, mix in placements.items():
        payload = payloads[node]
        if mix is None:
            mixes = [None]
        else:
            mix = np.asarray(mix, dtype=np.uint8)
            mixes = list(mix) if mix.ndim == 2 else [mix]
        base_blocks = list(payload.blocks)  # new blocks don't feed later mixes
        base_tags = [np.asarray(t, dtype=np.uint8) for t in payload.tags]
        base_rows = np.concatenate([manifest.node_coeffs[node],
                                    _unit_row(params.m, new_index)[None, :]],
                                   axis=0)
        for one in mixes:
            if one is None:
                payload.blocks.append(new_block.copy())
                payload.tags.append(new_tag.copy())
                row = _unit_row(params.m, new_index)
            else:
                # mix runs over the node's pre-append blocks plus the new one
                payload.blocks.append(combine_blocks(base_blocks + [new_block], one))
                payload.tags.append(taggen(one, np.stack(base_tags + [new_tag])))
                row = field.combine_rows(one, base_rows)
            manifest.node_coeffs[node] = np.concatenate(
                [manifest.node_coeffs[node], row[None, :]], axis=0)
        placed[node] = manifest.node_coeffs[node].shape[0] - 1

    if retire:
        for node, slots in retire.items():
            payload = payloads[node]
            keep = [j for j in range(len(payload.blocks)) if j not in set(slots)]
            payload.blocks = [payload.blocks[j] for j in keep]
            payload.tags = [payload.tags[j] for j in keep]
            manifest.node_coeffs[node] = manifest.node_coeffs[node][keep]
    return AppendResult(new_index, placed, donations or [])


def _unit_row(m: int, index: int) -> np.ndarray:
    row = np.zeros(m, dtype=np.uint8)
    row[index] = 1
    return row


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
    old = _reconstruct_source(manifest, payloads, index)
    new_block = make_source_block(data, params, index, rng)
    # keep pads so the delta has zero coefficient part and clean pads
    new_block.vec[params.n - 2: params.n] = old.vec[params.n - 2: params.n]
    diff = old.vec ^ new_block.vec

    old_tag = spacemac.mac(keys.k_v, fid, old, params.ell)
    new_tag = spacemac.mac(keys.k_v, fid, new_block, params.ell)
    delta = old_tag ^ new_tag

    for node, payload in payloads.items():
        rows = manifest.node_coeffs[node]
        for j, block in enumerate(payload.blocks):
            a = int(rows[j, index])
            if a:
                block.vec ^= field.vec_scale(a, diff)
    manifest.block_lengths[index] = len(data)
    manifest.deltas[index] = manifest.deltas.get(
        index, np.zeros(params.ell, dtype=np.uint8)) ^ delta
    return delta


def _reconstruct_source(manifest: FileManifest, payloads: Dict[int, NodePayload],
                        index: int) -> CodedBlock:
    """Nodes jointly express source block `index`; first expressible set in
    the natural block order wins."""
    params = manifest.params
    rows, blocks = [], []
    for node in sorted(payloads):
        nrows = manifest.node_coeffs[node]
        for j in range(nrows.shape[0]):
            rows.append(nrows[j])
            blocks.append(payloads[node].blocks[j])
    sol = field.solve_any(np.stack(rows).T, _unit_row(params.m, index))
    if sol is None:
        raise RuntimeError(f"source block {index} is not expressible")
    return combine_blocks(blocks, sol)


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

"""File mutations after setup: append, update, insert, delete.

The PRF that backs the tags is evaluated per position, so growing a vector
leaves the tag contributions of existing positions untouched: appending a
source block only widens the coefficient part, which the manifest alone
holds, and every stored tag stays valid once the new coefficient column is
zero for old blocks.  An append stages each node's new rows first and
changes the manifest and the stores only once every input has been used,
so it happens whole or not at all.

Updates never replace stored tags in place.  The auditor keeps one running
tag delta per source index and compensates during verification, so stale
and fresh blocks can coexist on different nodes.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import field, spacemac
from .audit import KeyMaterial, NodePayload, verified_rows
from .blocks import FileManifest, make_source_block


def append_block(manifest: FileManifest, payloads: Dict[int, NodePayload],
                 keys: KeyMaterial, data: bytes, rng,
                 placements: Dict[int, Optional[np.ndarray]] | None = None,
                 donations: List[Tuple[int, int, int]] | None = None,
                 retire: Dict[int, List[int]] | None = None) -> int:
    """Append one source block; returns its source index.

    Each node's stored rows are joined to its manifest coefficient rows,
    widened by a zero column, which changes no tag value and no stored
    symbol; so a donation, a placement and a retire each edit one matrix.
    `donations` first copies rows between nodes as (from_node, local_idx,
    to_node) (layout rebalancing).  Nodes listed in `placements` (default:
    every node) then receive the new block: None means a plain copy, a mix
    row (or matrix of rows) over the node's rows so far plus the new one
    yields combined rows, whose tags are the combined stored tags.
    `retire` finally drops the listed slots of the node's rows so far.  The
    manifest and the stores change only once every input is used and the
    rows span the widened file, so an append that raises leaves it as it was.
    """
    params = replace(manifest.params, m=manifest.params.m + 1)
    index, width = manifest.params.m, params.n + params.ell
    block = make_source_block(data, params, index, rng)
    new_row = np.concatenate([block[:params.n],
                              spacemac.mac(keys.k_v, manifest.file_id.encode(), block,
                                           params.ell), block[params.n:]])
    coeffs = {node: np.hstack([rows, np.zeros((len(rows), 1), dtype=np.uint8)])
              for node, rows in manifest.node_coeffs.items()}
    joined = {node: np.hstack([p.rows, coeffs[node]]) for node, p in payloads.items()}
    for src, local, dst in donations or []:
        joined[dst] = np.vstack([joined[dst], joined[src][local]])
    for node, mix in (dict.fromkeys(payloads) if placements is None else placements).items():
        add = new_row if mix is None else field.combine_rows(
            np.atleast_2d(np.asarray(mix, dtype=np.uint8)), np.vstack([joined[node], new_row]))
        joined[node] = np.vstack([joined[node], add])
    for node, slots in (retire or {}).items():
        kept = np.setdiff1d(np.arange(len(joined[node])), slots)
        if len(kept) + len(slots) != len(joined[node]):  # a slot absent or listed twice
            raise ValueError(f"node {node}'s retired slots {slots} are not distinct rows of it")
        joined[node] = joined[node][kept]
    coeffs.update({node: np.ascontiguousarray(rows[:, width:]) for node, rows in joined.items()})
    if field.matrix_rank(np.vstack(list(coeffs.values()))) < params.m:
        raise ValueError(f"the appended file's rows do not span its {params.m} blocks")

    for node, rows in joined.items():
        payloads[node].rows = np.ascontiguousarray(rows[:, :width])
    manifest.node_coeffs.update(coeffs)
    manifest.params = params
    manifest.block_lengths.append(len(data))
    manifest.logical_order.append(index)
    return index


def update_block(manifest: FileManifest, payloads: Dict[int, NodePayload],
                 keys: KeyMaterial, index: int, data: bytes, rng) -> np.ndarray:
    """Replace source block `index` with new data; returns the tag delta.

    The user downloads nothing but computes the new block's tag; nodes
    reconstruct the old block among themselves, patch every stored block by
    alpha_index * (new - old), and keep their stale tags.  The auditor folds
    the returned delta into the manifest's running per-index deltas.
    """
    params = manifest.params
    if type(index) is not int or not 0 <= index < params.m:
        raise ValueError(f"update index {index!r} is not in 0..{params.m - 1}")
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
    return field.combine_rows(sol, rows)


def insert_block(manifest: FileManifest, payloads: Dict[int, NodePayload],
                 keys: KeyMaterial, position: int, data: bytes, rng,
                 **append_kw) -> int:
    """Insert at a logical position: physically an append plus an ordering
    entry, so no stored block moves; returns the new source index."""
    if type(position) is not int or not 0 <= position <= len(manifest.logical_order):
        raise ValueError(f"insert position {position!r} is not in 0..{len(manifest.logical_order)}")
    index = append_block(manifest, payloads, keys, data, rng, **append_kw)
    manifest.logical_order.insert(position, manifest.logical_order.pop())
    return index


def delete_block(manifest: FileManifest, payloads: Dict[int, NodePayload],
                 keys: KeyMaterial, index: int, rng) -> np.ndarray:
    """Delete = update to an all-zero data block plus a tombstone in the
    logical order.  Coefficients keep their width; audits stay valid."""
    delta = update_block(manifest, payloads, keys, index, b"", rng)
    manifest.block_lengths[index] = 0
    manifest.logical_order.remove(index)
    return delta

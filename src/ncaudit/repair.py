"""Rebuilding a lost node from coded helper blocks, tags included.

Helpers send linear combinations of their own blocks; the replacement node
combines those.  Tags ride along through the same combinations, so nothing
needs the verification key and no original file data is ever downloaded.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import field
from .audit import NodePayload, taggen
from .blocks import CodedBlock, FileManifest, combine_blocks


class PlanningError(RuntimeError):
    pass


@dataclass
class RepairPlan:
    """gamma: per-helper mixing rows; theta: how the replacement node
    combines the received blocks into its M new blocks."""
    failed: int
    helpers: List[int]
    gamma: Dict[int, np.ndarray]   # helper -> (Q, M) rows over its own blocks
    theta: np.ndarray              # (M, total_sent) over the received blocks
    target_rows: np.ndarray        # (M, m) coefficients the new node will hold

    def sent_rows(self, manifest: FileManifest) -> np.ndarray:
        """Source-coefficient rows of every block the helpers transmit."""
        return _sent_rows(manifest, self.helpers, self.gamma)


def _sent_rows(manifest: FileManifest, helpers: List[int],
               gamma: Dict[int, np.ndarray]) -> np.ndarray:
    return np.stack([field.combine_rows(g, manifest.node_coeffs[h])
                     for h in helpers for g in gamma[h]])


def _stack_helper_rows(manifest: FileManifest, helpers: List[int]) -> np.ndarray:
    return np.concatenate([manifest.node_coeffs[h] for h in helpers], axis=0)


def plan_exact_repair(manifest: FileManifest, failed: int,
                      helpers: List[int], rng,
                      per_helper: Optional[int] = None,
                      attempts: int = 200) -> RepairPlan:
    """Find gamma/theta reproducing the failed node's rows exactly.

    Tries, in order: direct copies when every target row is already stored
    on some helper; random gamma with theta solved by elimination; a bounded
    search over {0,1}-valued gamma (enough for parity-style layouts).
    """
    params = manifest.params
    target = manifest.node_coeffs[failed]
    M, m = target.shape
    Q = per_helper if per_helper is not None else params.Q
    stacked = _stack_helper_rows(manifest, helpers)
    need = field.matrix_rank(np.concatenate([stacked, target], axis=0))
    if field.matrix_rank(stacked) < need:
        raise PlanningError("helpers do not span the failed node's rows")

    # direct-copy fast path
    plan = _plan_unit(manifest, failed, helpers, Q)
    if plan is not None:
        return plan

    sizes = [manifest.node_coeffs[h].shape[0] for h in helpers]
    total = Q * len(helpers)

    if total >= field.matrix_rank(stacked):
        for _ in range(attempts):
            gamma = {h: rng.integers(0, 256, size=(Q, manifest.node_coeffs[h].shape[0]),
                                     dtype=np.uint8) for h in helpers}
            plan = _solve_theta(manifest, failed, helpers, gamma, target)
            if plan is not None:
                return plan

    # small-field exhaustive fallback: one block per helper, gf(2) weights
    if all(s <= 4 for s in sizes) and len(helpers) <= 4:
        choices = [list(itertools.product((0, 1), repeat=s)) for s in sizes]
        for combo in itertools.product(*choices):
            gamma = {h: np.array([c], dtype=np.uint8)
                     for h, c in zip(helpers, combo)}
            if any(not g.any() for g in gamma.values()):
                continue
            plan = _solve_theta(manifest, failed, helpers, gamma, target)
            if plan is not None:
                return plan
    raise PlanningError("no exact repair plan found")


def _plan_unit(manifest, failed, helpers, Q) -> Optional[RepairPlan]:
    target = manifest.node_coeffs[failed]
    picks: List[Tuple[int, int]] = []  # (helper, local block index) per target row
    used: Dict[int, int] = {h: 0 for h in helpers}
    for row in target:
        hit = None
        for h in helpers:
            rows = manifest.node_coeffs[h]
            for j in range(rows.shape[0]):
                if used[h] < Q and np.array_equal(rows[j], row) \
                        and (h, j) not in picks:
                    hit = (h, j)
                    break
            if hit:
                break
        if hit is None:
            return None
        picks.append(hit)
        used[hit[0]] += 1
    gamma = {}
    order = []
    for h in helpers:
        mine = [j for (hh, j) in picks if hh == h]
        if not mine:
            continue
        g = np.zeros((len(mine), manifest.node_coeffs[h].shape[0]), dtype=np.uint8)
        for q, j in enumerate(mine):
            g[q, j] = 1
        gamma[h] = g
        order.extend((h, j) for j in mine)
    theta = np.zeros((target.shape[0], len(order)), dtype=np.uint8)
    for row_i, pick in enumerate(picks):
        theta[row_i, order.index(pick)] = 1
    return RepairPlan(failed, [h for h in helpers if h in gamma],
                      gamma, theta, target.copy())


def _solve_theta(manifest, failed, helpers, gamma, target) -> Optional[RepairPlan]:
    sent = _sent_rows(manifest, helpers, gamma)
    theta = field.solve_any(sent.T, target.T)
    if theta is None:
        return None
    return RepairPlan(failed, list(helpers), gamma, theta.T.copy(), target.copy())


def plan_functional_repair(manifest: FileManifest, failed: int,
                           helpers: List[int], rng,
                           attempts: int = 200) -> RepairPlan:
    """Random gamma/theta; retried until the cluster still spans all m
    source blocks.  The replacement rows differ from the lost ones."""
    params = manifest.params
    M, m, Q = params.M, params.m, params.Q
    others = np.concatenate([manifest.node_coeffs[h] for h in helpers], axis=0)
    for _ in range(attempts):
        gamma = {h: rng.integers(0, 256, size=(Q, manifest.node_coeffs[h].shape[0]),
                                 dtype=np.uint8) for h in helpers}
        sent = _sent_rows(manifest, helpers, gamma)
        theta = rng.integers(0, 256, size=(M, sent.shape[0]), dtype=np.uint8)
        new_rows = np.stack([field.combine_rows(theta[j], sent) for j in range(M)])
        if field.matrix_rank(np.concatenate([others, new_rows], axis=0)) == m:
            return RepairPlan(failed, list(helpers), gamma, theta,
                              new_rows.astype(np.uint8))
    raise PlanningError("no functional repair keeps the file decodable")


@dataclass
class RepairShipment:
    """One helper's contribution: combined blocks with combined tags."""
    helper: int
    blocks: List[CodedBlock]
    tags: List[np.ndarray]


def make_repair_blocks(payload: NodePayload, gamma_rows: np.ndarray,
                       helper: int) -> RepairShipment:
    blocks, tags = [], []
    tag_mat = np.stack([np.asarray(t, dtype=np.uint8) for t in payload.tags])
    for q in range(gamma_rows.shape[0]):
        blocks.append(combine_blocks(payload.blocks, gamma_rows[q]))
        tags.append(taggen(gamma_rows[q], tag_mat))
    return RepairShipment(helper, blocks, tags)


def reconstruct_node(plan: RepairPlan, shipments: List[RepairShipment],
                     ) -> Tuple[List[CodedBlock], List[np.ndarray]]:
    by_helper = {s.helper: s for s in shipments}
    recv_blocks: List[CodedBlock] = []
    recv_tags: List[np.ndarray] = []
    for h in plan.helpers:
        recv_blocks.extend(by_helper[h].blocks)
        recv_tags.extend(by_helper[h].tags)
    tag_mat = np.stack(recv_tags)
    blocks, tags = [], []
    for j in range(plan.theta.shape[0]):
        blocks.append(combine_blocks(recv_blocks, plan.theta[j]))
        tags.append(taggen(plan.theta[j], tag_mat))
    return blocks, tags


def refresh_manifest(manifest: FileManifest, plan: RepairPlan) -> None:
    """Record the replacement node's rows; defeats replay of pre-repair
    proofs because the auditor aggregates coefficients from this record."""
    manifest.node_coeffs[plan.failed] = plan.target_rows.copy()


def repair_node(manifest: FileManifest, payloads: Dict[int, NodePayload],
                failed: int, mode: str, helpers: Optional[List[int]], rng,
                ) -> Tuple[RepairPlan, List[RepairShipment]]:
    """Rebuild payloads[failed] from helper shipments and refresh the
    manifest.  helpers=None takes the first P other nodes; mode is "exact"
    or "functional".  Returns the plan and the shipments it moved."""
    if helpers is None:
        helpers = [h for h in sorted(payloads) if h != failed][: manifest.params.P]
    if mode == "exact":
        plan = plan_exact_repair(manifest, failed, helpers, rng)
    elif mode == "functional":
        plan = plan_functional_repair(manifest, failed, helpers, rng)
    else:
        raise ValueError(f"unknown repair mode {mode!r}")
    shipments = [make_repair_blocks(payloads[h], plan.gamma[h], h)
                 for h in plan.helpers]
    blocks, tags = reconstruct_node(plan, shipments)
    old = payloads[failed]
    payloads[failed] = NodePayload(blocks, tags, old.aux, old.k_e)
    refresh_manifest(manifest, plan)
    return plan, shipments

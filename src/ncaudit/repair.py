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
from .audit import NodePayload
from .blocks import CodedBlock, FileManifest, combine_blocks


class PlanningError(RuntimeError):
    pass


# random (gamma, theta) draws a planner tries before it gives up
ATTEMPTS = 200


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
    return np.concatenate([combine_blocks(gamma[h], manifest.node_coeffs[h])
                           for h in helpers])


def _helper_rows(manifest: FileManifest, failed: int, helpers: List[int]) -> np.ndarray:
    """The helpers' stored coefficient rows, stacked."""
    if not helpers:
        raise PlanningError(f"no helper nodes to rebuild node {failed} from: "
                            "a repair needs at least one other node")
    return np.concatenate([manifest.node_coeffs[h] for h in helpers])


def plan_exact_repair(manifest: FileManifest, failed: int,
                      helpers: List[int], rng,
                      per_helper: Optional[int] = None) -> RepairPlan:
    """Find gamma/theta reproducing the failed node's rows exactly.

    Tries, in order: direct copies when every target row is already stored
    on some helper; random gamma with theta solved by elimination; a bounded
    search over {0,1}-valued gamma (enough for parity-style layouts).
    """
    params = manifest.params
    target = manifest.node_coeffs[failed]
    Q = per_helper if per_helper is not None else params.Q
    stacked = _helper_rows(manifest, failed, helpers)
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
        for _ in range(ATTEMPTS):
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
    """Direct copies: each target row from the first equal helper row not
    yet picked, at most Q per helper."""
    target = manifest.node_coeffs[failed]
    picks: List[Tuple[int, int]] = []  # (helper, local block index) per target row
    for row in target:
        hit = next(((h, j) for h in helpers if sum(p[0] == h for p in picks) < Q
                    for j, stored in enumerate(manifest.node_coeffs[h])
                    if (h, j) not in picks and np.array_equal(stored, row)), None)
        if hit is None:
            return None
        picks.append(hit)
    used = [h for h in helpers if any(p[0] == h for p in picks)]
    order = [p for h in used for p in picks if p[0] == h]  # blocks as received
    eye = {h: np.eye(len(manifest.node_coeffs[h]), dtype=np.uint8) for h in used}
    gamma = {h: eye[h][[j for g, j in order if g == h]] for h in used}
    theta = np.eye(len(order), dtype=np.uint8)[[order.index(p) for p in picks]]
    return RepairPlan(failed, used, gamma, theta, target.copy())


def _solve_theta(manifest, failed, helpers, gamma, target) -> Optional[RepairPlan]:
    sent = _sent_rows(manifest, helpers, gamma)
    theta = field.solve_any(sent.T, target.T)
    if theta is None:
        return None
    return RepairPlan(failed, list(helpers), gamma, theta.T.copy(), target.copy())


def plan_functional_repair(manifest: FileManifest, failed: int,
                           helpers: List[int], rng) -> RepairPlan:
    """Random gamma/theta; retried until the cluster still spans all m
    source blocks.  The replacement rows differ from the lost ones."""
    params = manifest.params
    M, m, Q = params.M, params.m, params.Q
    others = _helper_rows(manifest, failed, helpers)
    for _ in range(ATTEMPTS):
        gamma = {h: rng.integers(0, 256, size=(Q, manifest.node_coeffs[h].shape[0]),
                                 dtype=np.uint8) for h in helpers}
        sent = _sent_rows(manifest, helpers, gamma)
        theta = rng.integers(0, 256, size=(M, sent.shape[0]), dtype=np.uint8)
        new_rows = combine_blocks(theta, sent)
        if field.matrix_rank(np.concatenate([others, new_rows], axis=0)) == m:
            return RepairPlan(failed, list(helpers), gamma, theta, new_rows)
    raise PlanningError("no functional repair keeps the file decodable")


@dataclass
class RepairShipment:
    """One helper's contribution: its gamma rows times its stored block
    and tag matrices."""
    helper: int
    rows: np.ndarray  # (Q, n+m) combined blocks
    tags: np.ndarray  # (Q, ell) their tags
    n: int

    @property
    def blocks(self) -> List[CodedBlock]:
        """The combined blocks one by one."""
        m = self.rows.shape[1] - self.n
        return [CodedBlock(row, self.n, m) for row in self.rows]


def make_repair_blocks(payload: NodePayload, gamma_rows: np.ndarray,
                       helper: int, n: int) -> RepairShipment:
    return RepairShipment(helper, combine_blocks(gamma_rows, payload.blocks),
                          combine_blocks(gamma_rows, payload.tags), n)


def reconstruct_node(plan: RepairPlan, shipments: List[RepairShipment],
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """The new node's (M, n+m) blocks and (M, ell) tags: theta times the
    received rows, in plan.helpers order."""
    by_helper = {s.helper: s for s in shipments}
    received = [by_helper[h] for h in plan.helpers]
    return (combine_blocks(plan.theta, np.concatenate([s.rows for s in received])),
            combine_blocks(plan.theta, np.concatenate([s.tags for s in received])))


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
    shipments = [make_repair_blocks(payloads[h], plan.gamma[h], h, manifest.params.n)
                 for h in plan.helpers]
    payloads[failed] = NodePayload(*reconstruct_node(plan, shipments),
                                   payloads[failed].k_e)
    refresh_manifest(manifest, plan)
    return plan, shipments

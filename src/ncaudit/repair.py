"""Rebuilding a lost node from coded helper blocks, tags included.

Helpers send combinations (gamma) of their own stored rows and the new node
combines those (theta).  A helper that may send as many rows as it stores
sends them unmixed (gamma is the identity): the new node's theta mixes
them anyway, so mixing first reaches no further.  A stored row holds a
block's data symbols and its tags, which are linear in the block, so each
combination carries its tags along and neither the verification key nor
file data is needed.  An exact repair reproduces the lost rows; a
functional repair stores fresh combinations that keep the file decodable.
`Cluster.fail_and_repair` runs a repair; this module plans and combines,
and changes no state.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

import numpy as np

from . import field
from .audit import NodePayload
from .blocks import CodedBlock, FileManifest, PlanningError


# random gamma draws an exact planner tries before its {0,1} search
ATTEMPTS = 200


@dataclass
class RepairPlan:
    """gamma: per-helper mixing rows, keyed by the helpers used in order;
    a gamma whose rows are unit vectors selects stored rows, which the
    helper ships as they are (the identity for a helper storing at most Q
    rows, or direct copies); theta: how the replacement node combines the
    received blocks into its new blocks."""
    gamma: Dict[int, np.ndarray]   # helper -> (at most Q, rows it stores)
    theta: np.ndarray              # (rows of the failed node, total_sent)
    target_rows: np.ndarray        # (rows of the failed node, m) new coefficients


def _draw(manifest: FileManifest, helpers: List[int], rng) -> Dict[int, np.ndarray]:
    """A gamma: the identity for a helper storing at most Q rows, which
    draws nothing; Q uniform rows over its stored rows for any other."""
    Q, stored = manifest.params.Q, manifest.node_coeffs
    return {h: np.eye(len(stored[h]), dtype=np.uint8) if len(stored[h]) <= Q
            else rng.integers(0, 256, size=(Q, len(stored[h])), dtype=np.uint8)
            for h in helpers}


def _mix(gamma_rows: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """gamma_rows times rows: a copy of the rows it selects if each of its
    rows is a unit vector, else their product."""
    picks = [row.index(1) for row in gamma_rows.tolist() if sum(row) == 1]
    if len(picks) < len(gamma_rows):
        return field.combine_rows(gamma_rows, rows)
    return rows.copy() if picks == list(range(len(rows))) else rows[picks]


def _sent_rows(manifest: FileManifest, gamma: Dict[int, np.ndarray]) -> np.ndarray:
    """Source-coefficient rows of every block the helpers in gamma transmit."""
    return np.concatenate([_mix(rows, manifest.node_coeffs[h]) for h, rows in gamma.items()])


def _helper_rows(manifest: FileManifest, failed: int, helpers: List[int]) -> np.ndarray:
    """The helpers' stored coefficient rows, stacked."""
    if not helpers:
        raise PlanningError(f"no helper nodes to rebuild node {failed} from: "
                            "a repair needs at least one other node")
    return np.concatenate([manifest.node_coeffs[h] for h in helpers])


def _span_rank(stacked: np.ndarray, target: np.ndarray) -> int:
    """The rank of the helpers' stacked rows; PlanningError unless they span
    the failed node's rows."""
    span = field.gaussian_solve(stacked.T, target.T)
    if span.status == "inconsistent":
        raise PlanningError("helpers do not span the failed node's rows")
    return span.rank


def plan_exact_repair(manifest: FileManifest, failed: int,
                      helpers: List[int], rng) -> RepairPlan:
    """gamma/theta rebuilding the failed node's rows: the first candidate
    gamma that solves."""
    target = manifest.node_coeffs[failed]
    stacked = _helper_rows(manifest, failed, helpers)
    for gamma in _candidates(manifest, target, helpers, stacked, rng):
        theta = field.solve_any(_sent_rows(manifest, gamma).T, target.T)
        if theta is not None:
            return RepairPlan(gamma, theta.T.copy(), target.copy())
    raise PlanningError("no exact repair plan found")


def _candidates(manifest: FileManifest, target: np.ndarray, helpers: List[int],
                stacked: np.ndarray, rng) -> Iterator[Dict[int, np.ndarray]]:
    """gammas, keyed by the helpers used in order, as an exact planner tries
    them: direct copies, if every target row is stored on some helper, as
    they ship fewest rows.  When every helper stores at most Q rows, the one
    gamma that ships them all unmixed follows, and its solve decides: it
    spans all the helpers span, so PlanningError if it fails, and nothing is
    drawn.  Otherwise up to ATTEMPTS random draws, then one {0,1} row per
    helper for at most 4 helpers of at most 4 rows.  A gamma that solves
    shows that the helpers span the target rows, so their span is solved
    (PlanningError unless they span them) only once the first draw fails,
    or before any draw when the rows sent, sum min(Q, M_h), are fewer than
    min(sum M_h, m): only there can their rank, at most that bound, exceed
    what the sent rows reach, and then no draw is made."""
    Q, stored = manifest.params.Q, manifest.node_coeffs
    if (target[:, None] == stacked[None]).all(axis=2).any(axis=1).all():
        copies = _direct_copies(stored, target, helpers, Q)
        if copies is not None:
            yield copies
    sizes = [len(stored[h]) for h in helpers]
    if max(sizes) <= Q:
        yield _draw(manifest, helpers, rng)
        raise PlanningError("helpers do not span the failed node's rows")
    reach = sum(min(Q, size) for size in sizes)
    if reach >= min(stacked.shape):
        yield _draw(manifest, helpers, rng)
        _span_rank(stacked, target)
        yield from (_draw(manifest, helpers, rng) for _ in range(ATTEMPTS - 1))
    elif reach >= _span_rank(stacked, target):
        yield from (_draw(manifest, helpers, rng) for _ in range(ATTEMPTS))
    if len(helpers) <= 4 and max(sizes) <= 4:
        bits = [itertools.product((0, 1), repeat=size) for size in sizes]
        for combo in itertools.product(*bits):
            if all(any(c) for c in combo):
                yield {h: np.array([c], dtype=np.uint8) for h, c in zip(helpers, combo)}


def _direct_copies(stored: Dict[int, np.ndarray], target: np.ndarray,
                   helpers: List[int], Q: int) -> Optional[Dict[int, np.ndarray]]:
    """gamma copying each target row from the first helper, in order, that
    has fewer than Q picks and stores an equal row not yet picked; None if
    some row has no such helper."""
    picks: Dict[int, List[int]] = {h: [] for h in helpers}
    for row in target:
        hit = next(((h, j) for h in helpers if len(picks[h]) < Q
                    for j, s in enumerate(stored[h])
                    if j not in picks[h] and np.array_equal(s, row)), None)
        if hit is None:
            return None
        picks[hit[0]].append(hit[1])
    return {h: np.eye(len(stored[h]), dtype=np.uint8)[js] for h, js in picks.items() if js}


def plan_functional_repair(manifest: FileManifest, failed: int,
                           helpers: List[int], rng) -> RepairPlan:
    """One gamma (_draw) and a random theta over the rows it sends: the new
    rows lie in the helpers' span, so whatever the draw they keep the file
    decodable if the helpers span it."""
    if field.matrix_rank(_helper_rows(manifest, failed, helpers)) < manifest.params.m:
        raise PlanningError("no functional repair keeps the file decodable")
    gamma = _draw(manifest, helpers, rng)
    sent = _sent_rows(manifest, gamma)
    theta = rng.integers(0, 256, size=(len(manifest.node_coeffs[failed]), len(sent)),
                         dtype=np.uint8)
    return RepairPlan(gamma, theta, field.combine_rows(theta, sent))


@dataclass
class RepairShipment:
    """One helper's contribution: its gamma rows times its stored rows,
    data and tag symbols alike, or a copy of the rows a unit-vector gamma
    selects.  The combined blocks' coefficients are gamma times the
    helper's manifest rows, so they are not shipped."""
    rows: np.ndarray  # (rows of gamma, n+ell) combined blocks, each followed by its tag
    n: int

    @property
    def blocks(self) -> List[CodedBlock]:
        """The combined blocks' data symbols, one block at a time."""
        return [CodedBlock(row) for row in self.rows[:, :self.n]]

    @property
    def tags(self) -> np.ndarray:
        """Their (Q, ell) tags."""
        return self.rows[:, self.n:]


def make_repair_blocks(payload: NodePayload, gamma_rows: np.ndarray, n: int) -> RepairShipment:
    return RepairShipment(_mix(gamma_rows, payload.rows), n)


def reconstruct_node(plan: RepairPlan, shipments: List[RepairShipment]) -> np.ndarray:
    """The new node's (M, n+ell) rows: theta times the received rows, the
    shipments given in plan.gamma's helper order."""
    return field.combine_rows(plan.theta, np.concatenate([s.rows for s in shipments]))

"""Recovering a node's blocks from a prover that sometimes lies.

The prover answers aggregate challenges through the audit's own exchange
(cluster.Cluster.exchange), which accepts an answer only under the query's
own voucher and only if the auditor does; a random lie rarely passes.  Each
target combination is asked R times with proportional coefficients
(c * alpha for random nonzero c), normalized by 1/c, and settled by
majority vote over the (data, tag) answers.  M independent majority
winners pin down the node's blocks by elimination.  The extractor runs at
the user, which issued each query's voucher and so can strip both the
mask and the voucher from an accepted answer.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import List

import numpy as np

from . import field, ncrypt
from .audit import Challenge, verify_block


class ExtractionError(RuntimeError):
    pass


# failed votes allowed, as a multiple of the number of equations needed
EXTRA_BUDGET = 3


@dataclass
class ExtractionReport:
    rows: np.ndarray  # (M, n+ell), row j as the node stores block j: data, then tags
    queries: int
    discarded: int  # answers the auditor rejected


def extract_node(cluster, node: int, rng, rounds: int = 15) -> ExtractionReport:
    """Rebuild all M blocks stored at `node` of a cluster.Cluster, with
    their tags, from audit exchanges; `rng` draws the queries.

    `rounds` challenges per equation, M equations; an equation whose vote
    is not a strict majority of accepted answers is redrawn with fresh
    coefficients, up to EXTRA_BUDGET * M replacements in total.
    """
    manifest, keys = cluster.manifest, cluster.user.keys
    rows = manifest.node_coeffs[node]
    M, n, fid = rows.shape[0], manifest.params.n, manifest.file_id.encode()

    solved_alphas: List[np.ndarray] = []
    solved_answers: List[np.ndarray] = []  # rows as the node stores them
    queries, discarded, budget = 0, 0, EXTRA_BUDGET * M

    while len(solved_alphas) < M:
        alphas = rng.integers(0, 256, size=M, dtype=np.uint8)
        if not alphas.any():
            continue
        basis = np.stack(solved_alphas + [alphas])
        if field.matrix_rank(basis) < basis.shape[0]:
            continue  # dependent on earlier equations

        votes: Counter = Counter()
        for _ in range(rounds):
            c = int(rng.integers(1, 256))
            scaled = field.vec_scale(c, alphas)
            live = np.flatnonzero(scaled)
            chal = Challenge(manifest.file_id, live, scaled[live], node)
            accepted, proof, voucher, _ = cluster.exchange(chal)
            queries += 1
            if not accepted:
                discarded += 1
                continue
            # the unmasked aggregate and its tag without the voucher
            e_bar = ncrypt.dec(keys.k_e, fid, node, proof.k, proof.c_bar,
                               manifest.params)
            answer = np.concatenate([e_bar, proof.pad, proof.tag ^ voucher.value])
            votes[field.vec_scale(field.inv(c), answer).tobytes()] += 1
        if votes:
            (win, count), = votes.most_common(1)
            if count * 2 > sum(votes.values()):
                solved_alphas.append(alphas)
                solved_answers.append(np.frombuffer(win, dtype=np.uint8))
                continue
        budget -= 1
        if budget < 0:
            raise ExtractionError("vote budget exhausted")

    # the M equations are independent, so the solution is unique; each one's
    # coefficient part is alphas times the manifest's rows, so the recovered
    # blocks are checked with those rows joined back
    solved = field.gaussian_solve(np.stack(solved_alphas), np.stack(solved_answers)).solution
    bad = np.flatnonzero(~verify_block(keys.k_v, manifest,
                                       np.hstack([solved[:, :n], rows]), solved[:, n:]))
    if bad.size:
        raise ExtractionError(f"recovered block {bad[0]} fails verification")
    return ExtractionReport(solved, queries, discarded)

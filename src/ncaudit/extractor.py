"""Recovering a node's blocks from a prover that sometimes lies.

The prover answers aggregate challenges through the audit's own exchange
(cluster.Cluster.exchange), which accepts an answer only under the query's
own voucher and only if the auditor does.  Each of M independent target
combinations is asked until two accepted answers in a row are equal: an
accepted lie (about one random lie in q^ell) errs by a vector whose MAC is
zero, which no tag check can catch, so it must not settle an equation
alone.  Once M are settled, one solve pins down the node's blocks, at the
user, which issued each voucher and can strip it and the mask; while the
settled draws span less than the M blocks, one more is settled first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import field, ncrypt
from .audit import Challenge, verify_block


class ExtractionError(RuntimeError):
    pass


# answers rejected or unlike the accepted answer before them, allowed as a
# multiple of the 2M answers that settle the M equations
EXTRA_BUDGET = 3


@dataclass
class ExtractionReport:
    rows: np.ndarray  # (M, n+ell), row j as the node stores block j: data, then tags
    queries: int
    discarded: int  # answers the auditor rejected


def extract_node(cluster, node: int, rng) -> ExtractionReport:
    """Rebuild all M blocks stored at `node` of a cluster.Cluster, with
    their tags, from audit exchanges; `rng` draws each equation's seed, a
    full challenge whose coefficients are the equation's.

    An equation is settled by two equal accepted answers in a row; past
    EXTRA_BUDGET * 2M answers that are rejected or unlike the accepted
    answer before them, ExtractionError.
    """
    manifest, keys = cluster.manifest, cluster.user.keys
    rows = manifest.node_coeffs[node]
    M, n, fid = rows.shape[0], manifest.params.n, manifest.file_id.encode()

    solved_alphas, solved_answers = [], []  # answers: rows as the node stores them
    queries, discarded, result = 0, 0, None

    while result is None or result.status == "rank_deficient":
        seed = rng.bytes(manifest.params.lambda_bits // 8)
        alphas = Challenge(manifest.file_id, M, seed, node).expand(M)[1]
        previous = None
        while True:
            accepted, proof, voucher, _ = cluster.exchange(node, M, seed)
            queries += 1
            discarded += not accepted
            if accepted:
                # the unmasked aggregate and its tag without the voucher
                e_bar = ncrypt.dec(keys.k_e, fid, node, proof.k, proof.c_bar,
                                   manifest.params)
                answer = np.concatenate([e_bar, proof.pad, proof.tag ^ voucher.value])
                if previous is not None and np.array_equal(answer, previous):
                    break
                previous = answer
            # all answers but the two that settle each equation and the
            # current one's first accepted answer
            if queries - 2 * len(solved_alphas) - (previous is not None) > EXTRA_BUDGET * 2 * M:
                raise ExtractionError("answer budget exhausted")
        solved_alphas.append(alphas)
        solved_answers.append(answer)
        if len(solved_alphas) >= M:
            # the solve tests the rank: while the settled draws span less
            # than all M, one more is settled
            result = field.gaussian_solve(np.stack(solved_alphas), np.stack(solved_answers))

    if result.status == "inconsistent":
        raise ExtractionError("settled answers contradict one another")
    # each equation's coefficient part is alphas times the manifest's rows,
    # so the recovered blocks are checked with those rows joined back
    solved = result.solution
    bad = np.flatnonzero(~verify_block(keys.k_v, manifest,
                                       np.hstack([solved[:, :n], rows]), solved[:, n:]))
    if bad.size:
        raise ExtractionError(f"recovered block {bad[0]} fails verification")
    return ExtractionReport(solved, queries, discarded)

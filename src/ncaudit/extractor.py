"""Recovering a node's blocks from a prover that sometimes lies.

The prover answers aggregate challenges; an answer counts only if the
auditor's check, audit.verify_proof, accepts it, and a random lie rarely
does.  Each target combination is asked R times with proportional
coefficients (c * alpha for random nonzero c), normalized by 1/c, and
settled by majority vote over the (data, tag) answers.  M independent
majority winners pin down the node's blocks by elimination.  The extractor
runs at the user, which issues each query's voucher and so can strip both
the mask and the voucher from an accepted answer.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from . import field, ncrypt
from .audit import Challenge, Proof, verify_block, verify_proof
from .blocks import FileManifest


class ExtractionError(RuntimeError):
    pass


# failed votes allowed, as a multiple of the number of equations needed
EXTRA_BUDGET = 3


# oracle: (Challenge, Voucher) -> Proof or None (refusal)
ProofOracle = Callable[[Challenge, ncrypt.Voucher], Optional[Proof]]


@dataclass
class ExtractionReport:
    rows: np.ndarray  # (M, n+ell), row j as the node stores block j: data, then tags
    queries: int
    discarded: int  # answers that verify_proof rejected or could not read


def extract_node(oracle: ProofOracle, manifest: FileManifest, node: int,
                 user, rng, rounds: int = 15) -> ExtractionReport:
    """Rebuild all M blocks stored at `node`, with their tags; `user` holds
    the keys and issues the vouchers (cluster.User).

    `rounds` challenges per equation, M equations; an equation whose vote
    is not a strict majority of verified answers is redrawn with fresh
    coefficients, up to EXTRA_BUDGET * M replacements in total.
    """
    params = manifest.params
    rows = manifest.node_coeffs[node]
    M = rows.shape[0]
    n = params.n
    fid = manifest.file_id.encode()
    k_e, k_v = user.keys.k_e, user.keys.k_v

    solved_alphas: List[np.ndarray] = []
    solved_answers: List[np.ndarray] = []  # rows as the node stores them
    queries = discarded = 0
    budget = EXTRA_BUDGET * M

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
            voucher = user.issue(manifest, node)
            proof = oracle(chal, voucher)
            queries += 1
            if proof is None or proof.k != voucher.k:
                continue  # a refusal, or an answer under another voucher
            try:
                accepted = verify_proof(k_v, manifest, chal, proof)[0]
            except ValueError:  # c_bar, pad or tag of the wrong length
                accepted = False
            if not accepted:
                discarded += 1
                continue
            # the unmasked aggregate and its tag without the voucher
            e_bar = ncrypt.dec(k_e, fid, node, proof.k, proof.c_bar, params)
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

    # each equation's coefficient part is alphas times the manifest's rows,
    # so the recovered blocks are checked with those rows joined back
    res = field.gaussian_solve(np.stack(solved_alphas), np.stack(solved_answers))
    if res.status != "unique":
        raise ExtractionError(f"equation system {res.status}")
    solved = res.solution
    bad = np.flatnonzero(~verify_block(k_v, manifest, np.hstack([solved[:, :n], rows]),
                                       solved[:, n:]))
    if bad.size:
        raise ExtractionError(f"recovered block {bad[0]} fails verification")
    return ExtractionReport(solved, queries, discarded)

"""Principal-submatrix rank search on B = N N^t.

The target quantity is the smallest order k admitting a principal submatrix
S with rank(S) <= k - 2^g.  B is positive semidefinite, so rank B[S, S] =
k - d + rank Q[T, T], T the complement of S and Q = M+ + 2^(g-1) I, whose
columns span ker B, of dimension d (`build_kernel_projector`).  At g = 2
the 2^10 masks are scanned exhaustively, one batch of exact ranks per
order, of B[S, S] or of the smaller Q[T, T] (`submatrix_ranks`).  At g = 3
the strictly-even submatrix gives a certified witness of order 27 and rank
19, the rank proved without elimination by build_Bk's identity B_k =
2^(g-1)(2^g I - L) and the spectrum certificate of L; orders <= 7 are
certified infeasible by strict diagonal dominance; the remaining orders are
probed by seeded randomized search: batches of uniform masks of one random
order, each drawn as one array, then the single-swap neighbourhoods of the
best masks, each mask swapped from at most once (restarts are deduplicated
by mask).  The probe screens each batch mod the prime 2^31 - 1 through the
systematic form of the kernel basis G = Q[:, I], I the d leftmost columns
of Q independent mod p (`screen_ranks`), one elimination of a small block
per value of c = |I ∩ S|; the form is the identity on the rows I.  A rank
mod p is a lower bound on the rational rank, so no true witness can be
screened out; a candidate whose screened slack is <= 0 is confirmed with
`exact_rank`.  Floating point is never involved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import VerificationError
from .matrices import (
    PRIMES, batched_rank_mod_p, build_B, build_Bk, build_kernel_form, build_kernel_projector, exact_rank,
)

MOD_P = PRIMES[0]  # 2^31 - 1


@dataclass
class SearchReport:
    g: int
    exhaustive: bool
    strategy: str
    h0: int = None
    h0_upper: int = None
    witnesses: list = field(default_factory=list)
    min_rank_by_order: dict = field(default_factory=dict)
    orders_certified_infeasible: list = field(default_factory=list)
    seed: int = None
    budget: int = None
    budget_used: int = 0
    counterexample_found: bool = False
    notes: list = field(default_factory=list)

    def to_json(self):
        return {
            "g": self.g,
            "exhaustive": self.exhaustive,
            "strategy": self.strategy,
            "h0": self.h0,
            "h0_upper": self.h0_upper,
            "witnesses": [list(w) for w in self.witnesses],
            "min_rank_by_order": {str(k): v for k, v in sorted(self.min_rank_by_order.items())},
            "orders_certified_infeasible": self.orders_certified_infeasible,
            "seed": self.seed,
            "budget": self.budget,
            "budget_used": self.budget_used,
            "counterexample_found": self.counterexample_found,
            "notes": self.notes,
        }


def submatrix_ranks(g: int, idx) -> np.ndarray:
    """The exact ranks of the principal submatrices B[S, S], one for each
    row S of the (n, k) index array idx, by one batch of exact_rank.

    B = N N^t is positive semidefinite, so B[S, S] y = 0 iff y, padded with
    zeros off S, lies in ker B, the column space of (Q, d) =
    build_kernel_projector(g).  With T the complement of S, that gives rank
    B[S, S] = k - d + rank Q[T, :], and rank Q[T, :] = rank Q[T, T] since
    Q^2 = lambda Q with Q symmetric.  The batch is ranked in whichever
    square form is smaller: k x k for B[S, S], (|K+| - k) x (|K+| - k) for
    Q[T, T].
    """
    b = build_B(g)
    n, k = idx.shape
    if 2 * k <= len(b):
        return exact_rank(b[idx[:, :, None], idx[:, None, :]])
    q, d = build_kernel_projector(g)
    outside = np.ones((n, len(b)), dtype=bool)
    outside[np.arange(n)[:, None], idx] = False
    rest = np.nonzero(outside)[1].reshape(n, len(b) - k)
    return k - d + exact_rank(q[rest[:, :, None], rest[:, None, :]])


def h0_exhaustive(g: int = 2) -> SearchReport:
    """Scan every principal submatrix of B at g = 2, one batch of exact
    ranks per order."""
    if g != 2:
        raise ValueError("exhaustive scan supported at g = 2 only")
    b = build_B(g)
    kp = len(b)
    need = 2**g
    report = SearchReport(g=g, exhaustive=True, strategy="exhaustive-bitmask-scan")
    min_rank = {}
    witnesses = []
    for k in range(1, kp + 1):
        idx = np.array(list(combinations(range(kp), k)))
        ranks = submatrix_ranks(g, idx)
        min_rank[k] = int(ranks.min())
        if not witnesses:
            witnesses = [tuple(mask) for mask in idx[ranks <= k - need].tolist()]
    h0 = len(witnesses[0]) if witnesses else None
    report.min_rank_by_order = min_rank
    report.h0 = h0
    report.h0_upper = h0
    report.witnesses = witnesses

    # B = N N^t is a Gram matrix, so a principal submatrix of full rank is
    # positive definite; the exact scan shows every one of order <= 2^g - 1
    # has full rank
    pd_cap = need - 1
    for k in range(1, pd_cap + 1):
        if min_rank[k] != k:
            raise VerificationError(
                f"a principal submatrix of order {k} has rank {min_rank[k]} < {k}"
            )
    report.orders_certified_infeasible = list(range(1, pd_cap + 1))
    report.notes.append(
        f"all principal submatrices of order <= {pd_cap} have full exact rank, "
        "hence are positive definite (B = N N^t is a Gram matrix)"
    )
    return report


def screen_ranks(g: int, idx) -> np.ndarray:
    """Lower bounds on the rational ranks of the principal submatrices
    B[S, S], one for each row S of the (n, k) index array idx: k - d +
    rank G[S^c, :] with the rank of the kernel basis G = Q[:, rows] taken
    mod MOD_P, through the systematic form (F, rows) = build_kernel_form(g).

    With c = |rows ∩ S|, rank_p G[S^c, :] = (d - c) + rank_p F[S^c - rows,
    rows ∩ S], so rank B[S, S] is at least k - c plus the rank of that
    (|K+| - k - d + c) x c block.  Masks of one c give blocks of one shape,
    so each value of c is one batched_rank_mod_p call.
    """
    form, rows = build_kernel_form(g)
    n, k = idx.shape
    inside = np.zeros((n, len(form)), dtype=bool)
    inside[np.arange(n)[:, None], idx] = True
    chosen = inside[:, rows]  # rows ∩ S, as columns of F
    rest = ~inside
    rest[:, rows] = False  # S^c - rows, as rows of F
    counts = chosen.sum(axis=1)
    ranks = k - counts
    for c in np.unique(counts).tolist():
        group = np.flatnonzero(counts == c)
        cols = np.nonzero(chosen[group])[1].reshape(len(group), c)
        keep = np.nonzero(rest[group])[1].reshape(len(group), -1)
        ranks[group] += batched_rank_mod_p(form[keep[:, :, None], cols[:, None, :]], MOD_P)
    return ranks


def sample_masks(rng, orders, size: int, m: int) -> np.ndarray:
    """m uniform subsets of range(size), all of one order drawn from orders,
    as an (m, k) array of sorted rows."""
    k = int(rng.choice(orders))
    perms = rng.permuted(np.broadcast_to(np.arange(size), (m, size)), axis=1)
    return np.sort(perms[:, :k], axis=1)


def swap_neighbours(mask, size: int) -> np.ndarray:
    """The k (size - k) masks one swap away from the sorted mask of order
    k, as an array of sorted rows: each position of the mask in turn, its
    index replaced by each index of range(size) outside the mask in
    increasing order."""
    mask = np.asarray(mask)
    k = len(mask)
    outside = np.setdiff1d(np.arange(size), mask)
    swaps = np.broadcast_to(mask, (k, len(outside), k)).copy()
    swaps[np.arange(k), :, np.arange(k)] = outside
    return np.sort(swaps.reshape(-1, k), axis=1)


def least_slack(slack, masks) -> tuple:
    """The least (slack, mask) of a batch of sorted masks, the (n, k) array
    masks: the least slack and, among the masks that reach it, the
    lexicographically least, as an int and a tuple."""
    low = slack.min()
    ties = masks[slack == low]
    return int(low), tuple(ties[np.lexsort(ties.T[::-1])[0]].tolist())


def h0_probe(g: int = 3, budget: int = 1_000_000, seed: int = 0) -> SearchReport:
    """Randomized refutation probe at g = 3.

    Establishes the certified upper bound (order-27 witness of rank 19),
    certifies orders <= 7 infeasible, then spends the budget looking for a
    witness of smaller order.  Absence of a find is reported as such, never
    as a proof.
    """
    if g != 3:
        raise ValueError("the randomized probe is wired for g = 3")
    if budget < 1:
        raise ValueError("budget must be positive")
    b = build_B(g)
    kp = len(b)  # 36
    need = 2**g  # 8
    report = SearchReport(
        g=g,
        exhaustive=False,
        strategy="uniform-sampling+greedy-swaps",
        seed=int(seed),
        budget=int(budget),
    )

    # build_Bk and build_L have proved exactly that b[sel, sel] has rank
    # 3^g - 2^g, the certificate of this witness, so it is not recomputed
    _, sel = build_Bk(g)
    wit_rank = len(sel) - need
    report.h0_upper = len(sel)
    report.witnesses = [sel]
    report.min_rank_by_order[len(sel)] = wit_rank
    report.notes.append(
        f"certified witness: order {len(sel)}, exact rank {wit_rank}, slack {len(sel) - need - wit_rank}"
    )

    # orders <= 2^g - 1: diag 28 dominates (order-1)*4, hence positive definite
    offmax = int(np.abs(b[~np.eye(kp, dtype=bool)]).max())
    diag = int(b.diagonal().min())
    # strict dominance at order s needs (s-1)*offmax < diag
    cap = (diag - 1) // offmax + 1
    if cap < need - 1:
        raise VerificationError("diagonal dominance fails to certify small orders")
    report.orders_certified_infeasible = list(range(1, need))
    report.notes.append(
        f"orders <= {need - 1} infeasible: strict diagonal dominance "
        f"({diag} > {need - 2} * {offmax}) forces positive definiteness"
    )

    rng = np.random.default_rng(seed)
    orders = np.arange(need, report.h0_upper)
    used = 0
    best = {}  # order -> (slack, mask)
    seen = set()  # the masks already swapped from

    def eval_batch(masks):
        """Screen one (n, k) batch of sorted masks; best[k] keeps the least
        (slack, mask) ever seen at order k, and every mask of screened slack
        <= 0 is confirmed exactly."""
        nonlocal used
        if not len(masks):
            return
        k = masks.shape[1]
        slack = screen_ranks(g, masks) - (k - need)
        used += len(masks)
        least = least_slack(slack, masks)
        if k not in best or least < best[k]:
            best[k] = least
        for mask in masks[slack <= 0].tolist():
            confirm = exact_rank(b[np.ix_(mask, mask)])
            if confirm <= k - need:
                report.counterexample_found = True
                report.witnesses.append(tuple(mask))
                report.h0_upper = min(report.h0_upper, k)
                report.notes.append(
                    f"witness of order {k} found: exact rank {confirm}"
                )

    # uniform phase: no dedup, since the mask space is orders of magnitude
    # larger than the budget.  It spends at least one mask, so the greedy
    # phase has a start even at budget 1.
    sample_budget = max(1, int(budget * 0.8))
    batch = 4096

    def sample(limit):
        """One batch of uniform masks of a random order, up to limit used."""
        eval_batch(sample_masks(rng, orders, kp, min(batch, limit - used)))

    while used < sample_budget:
        sample(sample_budget)

    # greedy swap refinement from the best mask of the best order; a mask
    # already swapped from, or a neighbourhood that lowers no slack, is
    # followed by a random restart through the sampler
    while used < budget:
        start_order = min(best, key=lambda k: (best[k][0], k))
        slack0, mask0 = best[start_order]
        if mask0 not in seen:
            seen.add(mask0)
            eval_batch(swap_neighbours(mask0, kp)[: budget - used])
            if best[start_order][0] < slack0:
                continue
        sample(budget)

    report.budget_used = used
    for k, (slack, _mask) in sorted(best.items()):
        report.min_rank_by_order[k] = slack + (k - need)
    if not report.counterexample_found:
        report.notes.append(
            "no witness of order below the certified upper bound found within budget"
        )
    return report

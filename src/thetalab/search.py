"""Principal-submatrix rank search on B = N N^t.

The target quantity is the smallest order k admitting a principal submatrix
S with rank(S) <= k - 2^g.  At g = 2 the 2^10 masks are scanned exhaustively
with exact integer ranks.  At g = 3 the strictly-even submatrix gives a
certified witness of order 27 and rank 19, the rank proved exactly by
build_Bk; orders <= 7 are certified infeasible by strict diagonal dominance;
the remaining orders are probed by seeded randomized search.  The probe
screens whole batches of candidates with one batched elimination mod the
prime 2^31 - 1 (a lower bound on the rational rank, so no true witness can
be screened out) and confirms a candidate whose screened slack is <= 0 with
Bareiss elimination over the integers; floating point is never involved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .characteristics import EVEN, enumerate_characteristics, generator_permutations, parity
from .errors import VerificationError
from .matrices import build_B, build_Bk, exact_rank

MOD_P = 2147483647  # 2^31 - 1; products of residues stay inside int64


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


def principal_rank(b, mask) -> int:
    """Exact rank of the principal submatrix selected by the mask."""
    idx = tuple(sorted(mask))
    if not idx:
        return 0
    return exact_rank([[b[i][j] for j in idx] for i in idx])


def h0_exhaustive(g: int = 2) -> SearchReport:
    """Scan every principal submatrix of B at g = 2 with exact ranks."""
    if g != 2:
        raise ValueError("exhaustive scan supported at g = 2 only")
    # python lists: indexing them in the mask loop is cheaper than numpy's
    b = build_B(g).tolist()
    kp = len(b)
    need = 2**g
    report = SearchReport(g=g, exhaustive=True, strategy="exhaustive-bitmask-scan")
    min_rank = {}
    witnesses = []
    h0 = None
    for bits in range(1, 1 << kp):
        idx = tuple(i for i in range(kp) if bits >> i & 1)
        k = len(idx)
        r = principal_rank(b, idx)
        if k not in min_rank or r < min_rank[k]:
            min_rank[k] = r
        if r <= k - need:
            if h0 is None or k < h0:
                h0 = k
                witnesses = [idx]
            elif k == h0:
                witnesses.append(idx)
    report.min_rank_by_order = min_rank
    report.h0 = h0
    report.h0_upper = h0
    report.witnesses = sorted(witnesses)

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


def batched_rank_mod_p(mats: np.ndarray) -> np.ndarray:
    """Rank mod 2^31 - 1 of a batch of integer matrices, shape (B, k, k).

    Division-free column elimination, one row at a time across the batch:
    the pivot is the first column with a nonzero entry in the row, and every
    column's remaining rows become pivval*column - entry*pivot_column.  That
    scales the other columns by a nonzero residue, clears the row and zeroes
    the pivot column itself, so no swaps are needed; a matrix without a
    pivot in the row takes pivval = 1 and is left as it was.  Going by rows
    keeps the updated block contiguous.  The rank over F_p does not depend
    on pivot order and is always a lower bound on the rational rank.
    """
    a = np.ascontiguousarray(mats % MOD_P, dtype=np.int64)
    nb, k, _ = a.shape
    ranks = np.zeros(nb, dtype=np.int64)
    batch = np.arange(nb)
    for row in range(k):
        entry = a[:, row, :]
        nonzero = entry != 0
        have = nonzero.any(axis=1)
        piv = nonzero.argmax(axis=1)
        pivval = np.where(have, entry[batch, piv], 1)
        pivcol = a[batch, row + 1 :, piv]
        rest = a[:, row + 1 :, :]
        rest *= pivval[:, None, None]
        rest -= pivcol[:, :, None] * entry[:, None, :]
        rest %= MOD_P
        ranks += have
    return ranks


@cache
def _perm_action_on_kplus(g: int) -> tuple:
    """Permutations of the K_g^+ index set induced by the symplectic generators:
    generator_permutations(g) restricted to the even characteristics, which
    the action preserves.  Tuples of ints, for element-wise indexing."""
    even = np.flatnonzero([parity(c) == EVEN for c in enumerate_characteristics(g, 2)])
    # even is sorted, so an even index's position in it is its K_g^+ index
    return tuple(map(tuple, np.searchsorted(even, generator_permutations(g)[:, even]).tolist()))


def canonicalize_mask(indices, perms):
    """Greedy lexicographic minimization of a mask under generator
    permutations (a partial canonical form, used only for deduplication)."""
    best = tuple(sorted(indices))
    improved = True
    while improved:
        improved = False
        for perm in perms:
            cand = tuple(sorted(perm[i] for i in best))
            if cand < best:
                best = cand
                improved = True
    return best


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

    # build_Bk has proved exactly that b[sel, sel] has rank 3^g - 2^g, the
    # certificate of this witness, so its rank is read rather than recomputed
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
    perms = _perm_action_on_kplus(g)
    seen = set()

    def eval_batch(masks):
        nonlocal used
        if not masks:
            return
        k = len(masks[0])
        idx = np.array(masks, dtype=np.int64)
        mats = b[idx[:, :, None], idx[:, None, :]]
        ranks = batched_rank_mod_p(mats)
        used += len(masks)
        for mask, r in zip(masks, ranks.tolist()):
            slack = r - (k - need)
            if k not in best or slack < best[k][0] or (slack == best[k][0] and mask < best[k][1]):
                best[k] = (slack, mask)
            if slack <= 0:
                confirm = principal_rank(b, mask)
                if confirm <= k - need:
                    report.counterexample_found = True
                    report.witnesses.append(tuple(mask))
                    report.h0_upper = min(report.h0_upper, k)
                    report.notes.append(
                        f"witness of order {k} found: exact rank {confirm}"
                    )

    # uniform phase: no canonicalization (dedup gain is nil against a mask
    # space orders of magnitude larger than the budget, and the greedy
    # minimization would dominate the runtime)
    sample_budget = int(budget * 0.8)
    batch = 4096

    def sample(limit):
        """One batch of uniform masks of a random order, up to limit used."""
        k = int(rng.choice(orders))
        eval_batch([
            tuple(sorted(rng.choice(kp, size=k, replace=False).tolist()))
            for _ in range(min(batch, limit - used))
        ])

    while used < sample_budget:
        sample(sample_budget)

    # greedy swap refinement from the most promising masks per order;
    # canonicalization dedups restart seeds that land in an explored orbit
    while used < budget and best:
        start_order = min(best, key=lambda k: (best[k][0], k))
        slack0, mask0 = best[start_order]
        canon = canonicalize_mask(mask0, perms)
        if canon in seen:
            sample(budget)
            continue
        seen.add(canon)
        current = list(mask0)
        inside = set(current)
        neighbors = []
        for pos in range(len(current)):
            for repl in range(kp):
                if repl in inside:
                    continue
                cand = sorted(current[:pos] + [repl] + current[pos + 1 :])
                neighbors.append(tuple(cand))
                if used + len(neighbors) >= budget:
                    break
            if used + len(neighbors) >= budget:
                break
        before = best.get(start_order, (10**9, ()))[0]
        eval_batch(neighbors)
        after = best.get(start_order, (10**9, ()))[0]
        if after >= before:
            # plateau: random restart consumes budget through the sampler
            sample(budget)

    report.budget_used = used
    for k, (slack, _mask) in sorted(best.items()):
        report.min_rank_by_order[k] = slack + (k - need)
    if not report.counterexample_found:
        report.notes.append(
            "no witness of order below the certified upper bound found within budget"
        )
    return report

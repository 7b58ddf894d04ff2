"""Principal-submatrix rank search on B = N N^t.

The target quantity h0 is the smallest order k admitting a principal
submatrix S with rank(S) <= k - 2^g.  B is positive semidefinite, so rank
B[S, S] = k - d + rank Q[T, T], T the complement of S and Q = M+ + 2^(g-1)
I, whose columns span ker B, of dimension d (`build_kernel_projector`).
Every diagonal entry of Q is 2^(g-1) + 1 and every other one is +-1, so the
trace-rank bound rank A >= (tr A)^2 / tr A^2 on A = Q[T, T] is a lower bound
on rank B[S, S] at every order (`trace_rank_bounds`): it certifies orders
1-8 infeasible at g = 2 and orders 1-26 at g = 3.  A witness of the next
order meets it: at g = 2 the exhaustive scan of the 2^10 masks, whose ranks
all come from the bases of the matroid on the rows of N, one batch of exact
ranks of order rank B = |K+| - d (`gram_ranks`); at g = 3 the strictly-even
submatrix of order 27 and rank 19, the rank proved without elimination by
build_Bk's identity B_k = 2^(g-1)(2^g I - L) and the spectrum certificate of
L.  So h0(2) = 9 and h0(3) = 27.

At g = 3 a seeded probe screens batches of uniform masks of one random
order below 27, each drawn as one array, mod the prime 2^31 - 1 through the
systematic form of the kernel basis G = Q[:, I], I the d leftmost columns
of Q independent mod p (`screen_ranks`), one elimination of a small block
per value of c = |I ∩ S|; the form is the identity on the rows I.  A rank
mod p is a lower bound on the rational rank, so no true witness can be
screened out; a candidate whose screened slack is <= 0 is confirmed with
`exact_rank`, and a confirmed witness would contradict the certificate.
Floating point is never involved.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
            "notes": self.notes,
        }


def submatrix_ranks(g: int, idx) -> np.ndarray:
    """The exact ranks of the principal submatrices B[S, S], one for each
    row S of the (n, k) index array idx, by one batch of exact_rank: the
    tests' reference for the screen, the scan and the trace-rank bounds."""
    b = build_B(g)
    return exact_rank(b[idx[:, :, None], idx[:, None, :]])


def trace_rank_bounds(g: int) -> dict:
    """Certified lower bounds on rank B[S, S], {k: bound} over the orders k
    = 1..|K+| of S.

    With (Q, d) = build_kernel_projector(g), T the complement of S and t =
    |K+| - k, rank B[S, S] = k - d + rank A for A = Q[T, T], since the
    columns of Q span ker B and Q^2 = lambda Q with Q symmetric.
    Cauchy-Schwarz on the nonzero eigenvalues of the real symmetric A gives
    rank A >= (tr A)^2 / tr A^2, the relative bound for equiangular lines
    (Lemmens and Seidel, J. Algebra 24, 1973).  Every diagonal entry of Q is
    D = 2^(g-1) + 1 and every other one is +-1, checked entrywise (else
    VerificationError), so tr A = t D, tr A^2 = t D^2 + t (t - 1) and the
    bound is k - d + ceil(t D^2 / (D^2 + t - 1)).
    """
    q, d = build_kernel_projector(g)
    diag = 2 ** (g - 1) + 1
    if (q.diagonal() != diag).any() or (np.abs(q[~np.eye(len(q), dtype=bool)]) != 1).any():
        raise VerificationError(f"Q for g={g} is not {diag} on its diagonal and +-1 off it")
    sq = diag * diag
    return {k: k - d - (-(len(q) - k) * sq // (sq + len(q) - k - 1)) for k in range(1, len(q) + 1)}


def certify(report: SearchReport) -> None:
    """Fill in report.h0, its infeasible orders and one note from
    trace_rank_bounds, given its witness of order report.h0_upper.

    An order whose bound exceeds k - 2^g has no witness, and a witness of
    order k stays one when an index is added (the rank grows by at most 1),
    so the largest such order is h0 - 1 and every order below it is
    infeasible too.  VerificationError unless the witness is of order h0.
    """
    g = report.g
    need = 2**g
    bounds = trace_rank_bounds(g)
    h0 = max(k for k, low in bounds.items() if low > k - need) + 1
    if report.h0_upper != h0:
        raise VerificationError(
            f"the trace-rank certificate gives h0 = {h0} at g={g}, the witness order {report.h0_upper}"
        )
    q, d = build_kernel_projector(g)
    sq = (2 ** (g - 1) + 1) ** 2
    report.h0 = h0
    report.orders_certified_infeasible = list(range(1, h0))
    report.notes.append(
        f"orders <= {h0 - 1} infeasible: rank B[S, S] >= k - {d} + ceil({sq} t / ({sq - 1} + t)) "
        f"> k - {need}, t = {len(q)} - k (trace-rank bound on Q[T, T], Q = M+ + {2 ** (g - 1)} I)"
    )


def mask_table(codes, n: int) -> np.ndarray:
    """The 0/1 membership rows of the subsets of range(n) with the given
    integer codes, index 0 the top bit: descending codes list the masks of
    each order in the lexicographic order of their indices."""
    return (codes[:, None] >> np.arange(n - 1, -1, -1)) & 1


def gram_ranks(b, r: int) -> np.ndarray:
    """rank B[S, S] for every subset S of the n rows of a Gram matrix B = N
    N^t of rank r, as an array of length 2^n indexed by mask_table's code
    of S, from one batch of exact_rank on the C(n, r) blocks of order r.

    rank B[S, S] = rank N[S, :], the rank function of the matroid on the
    rows of N, in which U is independent iff B[U, U] is nonsingular.  Its
    bases are the sets of order r with exact rank r, and every independent
    set lies in a basis (Oxley, Matroid Theory, ch. 1), so an OR over
    supersets marks the independent sets and a max over subsets gives
    rank(S) = max |U| over independent U within S; each is one vectorized
    step per bit.  r must be the rank of B: VerificationError if no set of
    order r is a basis.
    """
    n = len(b)
    codes = np.arange(2**n)
    table = mask_table(codes, n)
    orders = table.sum(axis=1)
    picks = codes[orders == r]
    idx = np.nonzero(table[picks])[1].reshape(len(picks), r)
    bases = picks[exact_rank(b[idx[:, :, None], idx[:, None, :]]) == r]
    if not len(bases):
        raise VerificationError(f"no principal submatrix of order {r} is nonsingular: rank B < {r}")
    independent = np.zeros(2**n, dtype=bool)
    independent[bases] = True
    for bit in range(n):  # a subset of an independent set is independent
        half = independent.reshape(-1, 2, 2**bit)
        half[:, 0] |= half[:, 1]
    ranks = np.where(independent, orders, 0)
    for bit in range(n):  # rank(S) is the largest independent subset of S
        half = ranks.reshape(-1, 2, 2**bit)
        np.maximum(half[:, 1], half[:, 0], out=half[:, 1])
    return ranks


def h0_exhaustive(g: int = 2) -> SearchReport:
    """Rank every principal submatrix of B at g = 2 with gram_ranks, from
    the certified rank |K+| - d of B; the scan's h0 must meet the
    trace-rank certificate."""
    if g != 2:
        raise ValueError("exhaustive scan supported at g = 2 only")
    b = build_B(g)
    _, d = build_kernel_projector(g)
    kp = len(b)
    report = SearchReport(g=g, exhaustive=True, strategy="exhaustive-bitmask-scan")
    codes = np.arange(2**kp - 1, 0, -1)  # nonempty masks, lexicographic within each order
    table = mask_table(codes, kp)
    orders = table.sum(axis=1)
    ranks = gram_ranks(b, kp - d)[codes]
    for k in range(1, kp + 1):
        report.min_rank_by_order[k] = int(ranks[orders == k].min())
    found = ranks <= orders - 2**g
    first = orders == orders[found].min()
    report.witnesses = [tuple(np.flatnonzero(mask).tolist()) for mask in table[found & first]]
    report.h0_upper = len(report.witnesses[0])
    certify(report)
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


BATCH = 4096  # the most masks the probe draws and screens at once


def h0_probe(g: int = 3, budget: int = 1_000_000, seed: int = 0) -> SearchReport:
    """h0 at g = 3 from the certified witness (order 27, exact rank 19) and
    the trace-rank certificate, then a seeded probe of budget uniform masks
    of the orders below the witness's, in batches of up to BATCH masks of
    one random order.  Every mask of screened slack <= 0 is confirmed with
    exact_rank, and a confirmed witness, which would contradict the
    certificate, raises VerificationError.
    """
    if g != 3:
        raise ValueError("the randomized probe is wired for g = 3")
    if budget < 1:
        raise ValueError("budget must be positive")
    b = build_B(g)
    need = 2**g  # 8
    report = SearchReport(g=g, exhaustive=False, strategy="uniform-sampling", seed=int(seed), budget=int(budget))

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
    certify(report)

    # no dedup: the mask space is orders of magnitude larger than the budget
    rng = np.random.default_rng(seed)
    orders = np.arange(need, report.h0)
    while report.budget_used < budget:
        masks = sample_masks(rng, orders, len(b), min(BATCH, budget - report.budget_used))
        k = masks.shape[1]
        slack = screen_ranks(g, masks) - (k - need)
        report.budget_used += len(masks)
        for mask in masks[slack <= 0].tolist():
            rank = exact_rank(b[np.ix_(mask, mask)])
            if rank <= k - need:
                raise VerificationError(
                    f"mask {mask} of order {k} has exact rank {rank}, below the certified h0 = {report.h0}"
                )
    return report

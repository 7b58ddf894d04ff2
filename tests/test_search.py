from itertools import combinations

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from thetalab import search
from thetalab.errors import VerificationError
from thetalab.matrices import build_B, build_Bk, build_kernel_projector, exact_rank
from thetalab.search import (
    gram_ranks,
    h0_exhaustive,
    h0_probe,
    sample_masks,
    screen_ranks,
    submatrix_ranks,
    trace_rank_bounds,
)


def sympy_ranks(mats):
    # sympy's exact rank over the rationals; Matrix.rank's own elimination
    # takes about a minute on a singular 27 x 27 submatrix of B
    return [sympy.Matrix(m.tolist()).to_DM().rank() for m in mats]


def test_batched_rank_matches_exact_on_B_submatrices():
    rng = np.random.default_rng(2)
    b = build_B(3)
    for _ in range(30):
        k = int(rng.integers(2, 28))
        idx = rng.choice(36, size=k, replace=False)
        sub = b[np.ix_(idx, idx)][None]
        assert exact_rank(sub).tolist() == sympy_ranks(sub)


def test_batched_rank_handles_singular_batches():
    rng = np.random.default_rng(6)
    mats = rng.integers(-4, 5, size=(20, 9, 9))
    mats[::2, 4] = mats[::2, 1] + mats[::2, 2]
    mats[5] = 0
    assert exact_rank(mats).tolist() == sympy_ranks(mats)


@st.composite
def mixed_batches(draw):
    """One batch of k x k matrices, k <= 6 and |entries| <= 4, holding a
    full-rank matrix, one with a row summed from two others, one with
    zeroed columns and an all-zero matrix: the cases where matrices of one
    batch run out of pivots at different steps of the elimination."""
    k = draw(st.integers(3, 6))
    size = draw(st.integers(4, 10))
    mats = draw(arrays(np.int64, (size, k, k), elements=st.integers(-4, 4)))
    mats[0] = np.diag(draw(st.lists(st.integers(1, 4), min_size=k, max_size=k)))
    i, j, r = draw(st.permutations(range(k)))[:3]
    mats[1, r] = mats[1, i] + mats[1, j]
    cols = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=k, unique=True))
    mats[2][:, cols] = 0
    mats[3] = 0
    order = draw(st.permutations(range(size)))
    return mats[order]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(mixed_batches())
def test_batched_rank_matches_exact_on_mixed_batches(mats):
    assert exact_rank(mats).tolist() == sympy_ranks(mats)


WITNESS_G3 = [
    0, 1, 8, 2, 3, 9, 12, 13, 16, 4, 5, 10, 6, 7, 11, 14, 15, 18, 20, 21, 24, 22, 23, 25, 28, 29, 32
]
PROBE_NOTES = [
    "certified witness: order 27, exact rank 19, slack 0",
    "orders <= 26 infeasible: rank B[S, S] >= k - 15 + ceil(25 t / (24 + t)) > k - 8, t = 36 - k "
    "(trace-rank bound on Q[T, T], Q = M+ + 4 I)",
]


@pytest.mark.parametrize("budget,seed", [(4000, 7), (2000, 1)])
def test_h0_probe_output_pinned(budget, seed):
    # h0 and the infeasible orders come from the certificate, so only the
    # seed and the budget follow the arguments
    assert h0_probe(3, budget=budget, seed=seed).to_json() == {
        "g": 3,
        "exhaustive": False,
        "strategy": "uniform-sampling",
        "h0": 27,
        "h0_upper": 27,
        "witnesses": [WITNESS_G3],
        "min_rank_by_order": {"27": 19},
        "orders_certified_infeasible": list(range(1, 27)),
        "seed": seed,
        "budget": budget,
        "budget_used": budget,
        "notes": PROBE_NOTES,
    }


def test_sampled_batches_hold_sorted_distinct_masks_of_one_order():
    rng = np.random.default_rng(3)
    orders = np.arange(8, 27)
    for m in [0, 1, 2, 2048] + rng.integers(1, 300, size=40).tolist():
        masks, rest = sample_masks(rng, orders, 36, m)
        assert masks.shape[0] == m and 8 <= masks.shape[1] < 27
        assert (np.diff(masks, axis=1) > 0).all()
        assert m == 0 or (masks.min() >= 0 and masks.max() < 36)
        # each rest is the complement of its mask
        assert rest.shape == (m, 36 - masks.shape[1])
        assert (np.sort(np.hstack([masks, rest]), axis=1) == np.arange(36)).all()
    # uniform: each index lies in about k/36 of the masks of order k
    masks, _ = sample_masks(np.random.default_rng(4), [12], 36, 36000)
    counts = np.bincount(masks.ravel(), minlength=36)
    p = 12 / 36
    assert np.abs(counts - 36000 * p).max() < 5 * np.sqrt(36000 * p * (1 - p))


@pytest.fixture
def sampled(monkeypatch):
    """The mask arrays sample_masks draws for the probe, in order."""
    batches = []
    sample = search.sample_masks

    def spy(rng, orders, size, m):
        masks, rest = sample(rng, orders, size, m)
        batches.append(masks.copy())
        return masks, rest

    monkeypatch.setattr(search, "sample_masks", spy)
    return batches


def test_probe_batches_are_sorted_distinct_masks_of_one_order(sampled):
    h0_probe(3, budget=6000, seed=11)
    assert [len(idx) for idx in sampled] == [2048, 2048, 1904]
    for idx in sampled:
        assert 8 <= idx.shape[1] < 27
        assert (np.diff(idx, axis=1) > 0).all()
        assert idx.min() >= 0 and idx.max() < 36


@pytest.mark.parametrize("budget", [1, 4096, 4097])
def test_h0_probe_spends_exactly_its_budget(budget):
    assert h0_probe(3, budget=budget, seed=0).budget_used == budget


@pytest.fixture
def scanned(monkeypatch):
    """The per-mask rank arrays gram_ranks hands the scan, in order."""
    arrays = []
    ranks = search.gram_ranks

    def spy(b, r):
        arrays.append(ranks(b, r))
        return arrays[-1]

    monkeypatch.setattr(search, "gram_ranks", spy)
    return arrays


def masks_of_order(n, k):
    """The codes and the (m, k) index rows of the subsets of range(n) of
    order k, in mask_table's code."""
    codes = np.array([sum(1 << (n - 1 - i) for i in mask) for mask in combinations(range(n), k)])
    return codes, np.array(list(combinations(range(n), k)))


def test_scan_ranks_match_direct_ranks_at_g2(scanned):
    # every one of the 1023 masks: the scan's rank from the matroid bases
    # against B[S, S] ranked directly
    h0_exhaustive(2)
    (scan,) = scanned
    assert scan.shape == (1024,) and scan[0] == 0
    for k in range(1, 11):
        codes, idx = masks_of_order(10, k)
        assert scan[codes].tolist() == submatrix_ranks(2, idx).tolist()


def seeded_grams():
    """(N, B = N N^t, rank B) for seeded integer N with 8-10 rows, entries
    in -3..3 and rank 2-5: random columns, a row alone in its column (a
    coloop, in every basis) at the first, last or middle row in some, then
    repeated, negated and zero columns, and in some a zero row (a loop, in
    no independent set) at the first or last row and a repeated row."""
    rng = np.random.default_rng(15)
    for case in range(12):
        rows, r = int(rng.integers(8, 11)), 2 + case % 4
        n = rng.integers(-3, 4, size=(rows, r))
        if case % 4 == 3:
            n[:, -1] = 0
            n[[0, rows - 1, rows // 2][case // 4], -1] = 1
        extra = rng.integers(0, r, size=case % 3)
        copies = n[:, extra] * rng.choice([-1, 1], size=len(extra))
        n = np.hstack([n, copies, np.zeros((rows, case % 2), dtype=np.int64)])
        if case % 3 == 2:
            n[[0, rows - 1][case % 2]] = 0
            n[1] = n[2]
        yield n, n @ n.T, exact_rank(n)


def test_gram_ranks_match_exact_rank_on_every_principal_submatrix():
    ranks_seen = set()
    for n, b, r in seeded_grams():
        assert 2 <= r <= 5 and np.abs(n).max() <= 3
        ranks_seen.add(r)
        got = gram_ranks(b, r)
        assert got.shape == (2 ** len(b),) and got[0] == 0
        for k in range(1, len(b) + 1):
            codes, idx = masks_of_order(len(b), k)
            assert got[codes].tolist() == exact_rank(b[idx[:, :, None], idx[:, None, :]]).tolist()
    assert ranks_seen == {2, 3, 4, 5}


def test_gram_ranks_refuse_a_rank_above_the_gram_matrix():
    _, b, r = next(seeded_grams())
    with pytest.raises(VerificationError, match=f"order {r + 1} is nonsingular"):
        gram_ranks(b, r + 1)


def screen_cases():
    """(g, masks, rest): every mask of each order at g = 2, then 300 seeded
    masks of each order 8-26 at g = 3, with their complements."""
    for k in range(1, 11):
        masks = np.array(list(combinations(range(10), k)))
        yield 2, masks, np.array([np.setdiff1d(np.arange(10), mask) for mask in masks])
    rng = np.random.default_rng(12)
    for k in range(8, 27):
        yield 3, *sample_masks(rng, [k], 36, 300)


def test_screen_ranks_bound_the_exact_ranks_and_keep_their_slack_sign():
    for g, masks, rest in screen_cases():
        k = masks.shape[1]
        exact = submatrix_ranks(g, masks)
        screen = screen_ranks(g, rest)
        assert (screen <= exact).all()
        # open exactly where a witness is: orders 9-10 at g = 2, none at g = 3
        assert (screen > k - 2**g).tolist() == (exact > k - 2**g).tolist()


def bk_complement():
    """(sel, rest): the sorted B_k witness of order 27 and its complement."""
    sel = np.sort(build_Bk(3)[1])
    return sel, np.setdiff1d(np.arange(36), sel)


def test_screen_ranks_are_exact_on_rank_deficient_masks():
    # the B_k witness (order 27, rank 19), the witness plus one index, and
    # the witness less one index with the witness's complement first
    b = build_B(3)
    sel, rest = bk_complement()
    cases = [(sel, rest)]
    cases += [(np.sort(np.append(sel, i)), np.setdiff1d(rest, i)) for i in rest]
    cases += [(np.delete(sel, j), np.append(rest, sel[j])) for j in range(0, 27, 5)]
    for mask, comp in cases:
        assert screen_ranks(3, comp[None]).tolist() == [exact_rank(b[np.ix_(mask, mask)])]


def test_screen_ranks_rank_minors_of_8_9_and_10_rows(monkeypatch):
    # the complement of B_k has rank 7 in Q, so a T that starts with it
    # stays open at 8 and 9 rows and is ruled out at 10, by the trace-rank
    # bound; the B_k complement itself stays open with rank 19
    sel, rest = bk_complement()
    shapes = []
    rank = search.batched_rank_mod_p

    def spy(mats, p):
        shapes.append(mats.shape)
        return rank(mats, p)

    monkeypatch.setattr(search, "batched_rank_mod_p", spy)
    ruled_out = np.append(rest, sel[0])
    assert screen_ranks(3, ruled_out[None]).tolist() == [26 - 15 + 8]
    assert shapes == [(1, 8, 8), (1, 9, 9), (1, 10, 10)]
    shapes.clear()
    assert screen_ranks(3, rest[None]).tolist() == [19]
    assert shapes == [(1, 8, 8), (1, 9, 9), (1, 9, 9)]


def test_screen_ranks_of_an_empty_batch():
    assert screen_ranks(3, np.zeros((0, 24), dtype=np.int64)).shape == (0,)


def test_h0_exhaustive_g2():
    report = h0_exhaustive(2)
    assert report.exhaustive
    assert report.h0 == 9
    assert report.min_rank_by_order[8] == 5
    assert report.min_rank_by_order[9] == 5
    assert report.orders_certified_infeasible == [1, 2, 3, 4, 5, 6, 7, 8]
    # every witness is a genuine order-9 submatrix of rank <= 5
    b = build_B(2)
    for w in report.witnesses:
        assert len(w) == 9
        assert exact_rank(b[np.ix_(w, w)]) <= 5
    _, sel = build_Bk(2)
    assert tuple(sorted(sel)) in {tuple(sorted(w)) for w in report.witnesses}


def test_h0_exhaustive_rejects_g3():
    with pytest.raises(ValueError):
        h0_exhaustive(3)


def test_h0_probe_certificates_and_determinism(sampled):
    r1 = h0_probe(3, budget=4000, seed=7)
    first = [idx.tolist() for idx in sampled]
    sampled.clear()
    r2 = h0_probe(3, budget=4000, seed=7)
    assert r1.h0 == r1.h0_upper == 27
    assert r1.orders_certified_infeasible == list(range(1, 27))
    assert r1.budget_used == 4000
    assert r1.to_json() == r2.to_json()
    assert [idx.tolist() for idx in sampled] == first
    # the certified witness is the strictly-even selection, exact rank 19
    b = build_B(3)
    w = r1.witnesses[0]
    assert exact_rank(b[np.ix_(w, w)]) == 19


def test_h0_probe_seed_changes_trajectory(sampled):
    h0_probe(3, budget=4000, seed=1)
    first = sampled[0].tolist()
    sampled.clear()
    h0_probe(3, budget=4000, seed=2)
    assert sampled[0].tolist() != first


def test_trace_rank_bounds_equal_the_g2_scan_minima():
    assert trace_rank_bounds(2) == h0_exhaustive(2).min_rank_by_order


def test_trace_rank_bounds_hold_on_sampled_g3_masks():
    bounds = trace_rank_bounds(3)
    rng = np.random.default_rng(14)
    for k in range(8, 36):
        idx, _ = sample_masks(rng, [k], 36, 50)
        assert (submatrix_ranks(3, idx) >= bounds[k]).all()
    # the witness order is the first the bound leaves open, and B_k meets it
    assert bounds[26] > 26 - 8 and bounds[27] == 19


@pytest.mark.parametrize("entry,value", [((4, 4), 4), ((3, 17), 3)], ids=["diagonal", "off-diagonal"])
def test_trace_rank_bounds_check_Q_entrywise(monkeypatch, entry, value):
    q, d = build_kernel_projector(3)
    bad = q.copy()
    bad[entry] = bad[entry[::-1]] = value
    monkeypatch.setattr(search, "build_kernel_projector", lambda g: (bad, d))
    with pytest.raises(VerificationError, match="not 5 on its diagonal and \\+-1 off it"):
        trace_rank_bounds(3)


def test_certify_refuses_a_witness_the_bound_does_not_meet():
    report = search.SearchReport(g=3, exhaustive=False, strategy="uniform-sampling", h0_upper=28)
    with pytest.raises(VerificationError, match="h0 = 27"):
        search.certify(report)


def test_h0_probe_refuses_a_confirmed_witness(monkeypatch):
    # a screen that passes every mask and an exact rank of 0 stand in for a
    # witness below order 27, which the certificate rules out
    monkeypatch.setattr(search, "screen_ranks", lambda g, rest: np.full(len(rest), 36 - rest.shape[1] - 8))
    monkeypatch.setattr(search, "exact_rank", lambda mat: 0)
    with pytest.raises(VerificationError, match="below the certified h0 = 27"):
        h0_probe(3, budget=5, seed=0)


def test_h0_probe_rejects_bad_args():
    with pytest.raises(ValueError):
        h0_probe(2, budget=10, seed=0)
    with pytest.raises(ValueError):
        h0_probe(3, budget=0, seed=0)

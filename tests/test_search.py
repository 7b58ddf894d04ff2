from itertools import combinations

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from thetalab import search
from thetalab.errors import VerificationError
from thetalab.matrices import batched_rank_mod_p, build_B, build_Bk, build_kernel_basis, exact_rank
from thetalab.search import (
    MOD_P,
    h0_exhaustive,
    h0_probe,
    least_slack,
    sample_masks,
    screen_ranks,
    submatrix_ranks,
    swap_neighbours,
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
    "orders <= 7 infeasible: strict diagonal dominance (28 > 6 * 4) forces positive definiteness",
    "no witness of order below the certified upper bound found within budget",
]


@pytest.mark.parametrize(
    "budget,seed,min_rank",
    [
        (4000, 7, {"25": 19, "26": 20, "27": 19}),
        (2000, 1, {"9": 9, "16": 14, "27": 19}),
    ],
)
def test_h0_probe_output_pinned(budget, seed, min_rank):
    # the screened ranks are ranks of G[S^c, :] mod 2^31 - 1, which do not
    # depend on the pivot order or on the basis of ker B they are taken in,
    # so these literals follow the seeded draws alone: the masks sampled and
    # the swaps tried
    assert h0_probe(3, budget=budget, seed=seed).to_json() == {
        "g": 3,
        "exhaustive": False,
        "strategy": "uniform-sampling+greedy-swaps",
        "h0": None,
        "h0_upper": 27,
        "witnesses": [WITNESS_G3],
        "min_rank_by_order": min_rank,
        "orders_certified_infeasible": [1, 2, 3, 4, 5, 6, 7],
        "seed": seed,
        "budget": budget,
        "budget_used": budget,
        "counterexample_found": False,
        "notes": PROBE_NOTES,
    }


def test_sampled_batches_hold_sorted_distinct_masks_of_one_order():
    rng = np.random.default_rng(3)
    orders = np.arange(8, 27)
    for m in [0, 1, 2, 4096] + rng.integers(1, 300, size=40).tolist():
        masks = sample_masks(rng, orders, 36, m)
        assert masks.shape[0] == m and 8 <= masks.shape[1] < 27
        assert (np.diff(masks, axis=1) > 0).all()
        assert m == 0 or (masks.min() >= 0 and masks.max() < 36)
    # uniform: each index lies in about k/36 of the masks of order k
    masks = sample_masks(np.random.default_rng(4), [12], 36, 36000)
    counts = np.bincount(masks.ravel(), minlength=36)
    p = 12 / 36
    assert np.abs(counts - 36000 * p).max() < 5 * np.sqrt(36000 * p * (1 - p))


@pytest.fixture
def screened(monkeypatch):
    """The index arrays the probe hands to screen_ranks, in order."""
    batches = []
    screen = search.screen_ranks

    def spy(g, idx):
        batches.append(idx.copy())
        return screen(g, idx)

    monkeypatch.setattr(search, "screen_ranks", spy)
    return batches


def test_probe_batches_are_sorted_distinct_masks_of_one_order(screened):
    h0_probe(3, budget=6000, seed=11)
    assert sum(map(len, screened)) == 6000
    for idx in screened:
        assert 8 <= idx.shape[1] < 27
        assert (np.diff(idx, axis=1) > 0).all()
        assert idx.min() >= 0 and idx.max() < 36


@pytest.mark.parametrize("budget", [1, 4096, 4097])
def test_h0_probe_spends_exactly_its_budget(budget):
    assert h0_probe(3, budget=budget, seed=0).budget_used == budget


def test_h0_probe_cuts_a_greedy_neighbourhood_at_the_budget(screened):
    # 80 uniform masks, then a neighbourhood of k (36 - k) >= 224 swaps cut to 20
    assert h0_probe(3, budget=100, seed=0).budget_used == 100
    assert list(map(len, screened)) == [80, 20]


def test_h0_probe_swaps_from_each_mask_once(monkeypatch):
    # at this budget and seed the best mask often survives a restart's
    # uniform batch, and without the dedup the probe swaps from it again
    swapped = []

    def spy(mask, size):
        swapped.append(tuple(mask))
        return swap_neighbours(mask, size)

    monkeypatch.setattr(search, "swap_neighbours", spy)
    h0_probe(3, budget=100_000, seed=3)
    assert len(swapped) >= 2
    assert len(set(swapped)) == len(swapped)


def reference_swaps(mask, size):
    """The single swaps of a sorted mask as the per-neighbour loop built
    them: by position, then by replacement index."""
    out = []
    for pos in range(len(mask)):
        for repl in range(size):
            if repl not in mask:
                out.append(tuple(sorted(mask[:pos] + (repl,) + mask[pos + 1 :])))
    return out


@pytest.mark.parametrize("k", [1, 8, 17, 26, 35])
def test_swap_neighbours_are_the_single_swaps_in_loop_order(k):
    rng = np.random.default_rng(k)
    mask = tuple(sorted(rng.choice(36, size=k, replace=False).tolist()))
    swaps = swap_neighbours(mask, 36)
    assert swaps.shape == (k * (36 - k), k)
    assert list(map(tuple, swaps.tolist())) == reference_swaps(mask, 36)
    assert len(set(map(tuple, swaps.tolist()))) == k * (36 - k)


def test_least_slack_keeps_the_per_mask_rule():
    # slacks in {-1, 0, 1} over masks drawn from few indices, so that a batch
    # holds many ties and repeated masks
    rng = np.random.default_rng(8)
    array_best, loop_best = {}, {}
    for _ in range(200):
        k = int(rng.integers(2, 5))
        masks = np.sort(rng.permuted(np.broadcast_to(np.arange(7), (int(rng.integers(1, 30)), 7)), axis=1)[:, :k], axis=1)
        masks = masks[rng.integers(0, len(masks), size=len(masks))]
        slack = rng.integers(-1, 2, size=len(masks))
        least = least_slack(slack, masks)
        if k not in array_best or least < array_best[k]:
            array_best[k] = least
        for mask, s in zip(map(tuple, masks.tolist()), slack.tolist()):
            if k not in loop_best or s < loop_best[k][0] or (s == loop_best[k][0] and mask < loop_best[k][1]):
                loop_best[k] = (s, mask)
        assert array_best == loop_best


def test_submatrix_ranks_agree_in_both_forms_at_g2():
    # every one of the 1023 masks: the cheaper form against B[S, S] exactly
    b = build_B(2)
    for k in range(1, 11):
        idx = np.array(list(combinations(range(10), k)))
        want = exact_rank(b[idx[:, :, None], idx[:, None, :]])
        assert submatrix_ranks(2, idx).tolist() == want.tolist()


def test_screen_ranks_are_exact_on_every_g2_mask():
    # all 1023 masks: every c = |rows ∩ S| from 0 to 5, and empty blocks at k = 10
    for k in range(1, 11):
        idx = np.array(list(combinations(range(10), k)))
        assert screen_ranks(2, idx).tolist() == submatrix_ranks(2, idx).tolist()


def two_form_screen(idx):
    """The genus-3 screen before the systematic form: B[S, S] up to order 16,
    k - 15 + rank G[S^c, :] from order 17 on, ranked mod 2^31 - 1."""
    b, kernel = build_B(3), build_kernel_basis(3)
    n, k = idx.shape
    if k <= 16:
        return batched_rank_mod_p(b[idx[:, :, None], idx[:, None, :]], MOD_P)
    rest = np.array([np.setdiff1d(np.arange(36), mask) for mask in idx]).reshape(n, 36 - k)
    return k - 15 + batched_rank_mod_p(kernel[rest], MOD_P)


def test_screen_ranks_match_the_two_form_screen_at_g3():
    rng = np.random.default_rng(12)
    for k in range(8, 28):
        idx = sample_masks(rng, [k], 36, 300)
        assert screen_ranks(3, idx).tolist() == two_form_screen(idx).tolist()
    for k in (8, 13, 16, 17, 21, 26):
        swaps = swap_neighbours(sample_masks(rng, [k], 36, 1)[0], 36)
        assert screen_ranks(3, swaps).tolist() == two_form_screen(swaps).tolist()


def test_screen_ranks_are_exact_on_rank_deficient_masks():
    # the B_k witness (order 27, rank 19), subsets of it of orders 20-26 and
    # the witness plus one index
    b = build_B(3)
    sel = np.sort(build_Bk(3)[1])
    rng = np.random.default_rng(13)
    subsets = [np.sort(rng.choice(sel, size=k, replace=False)) for k in range(20, 27) for _ in range(3)]
    bigger = [np.sort(np.append(sel, i)) for i in np.setdiff1d(np.arange(36), sel)]
    for mask in [sel, *subsets, *bigger]:
        assert screen_ranks(3, mask[None]).tolist() == [exact_rank(b[np.ix_(mask, mask)])]
    assert screen_ranks(3, sel[None]).tolist() == [19]


def test_screen_ranks_of_an_empty_batch():
    assert screen_ranks(3, np.zeros((0, 12), dtype=np.int64)).shape == (0,)


def test_h0_exhaustive_g2():
    report = h0_exhaustive(2)
    assert report.exhaustive
    assert report.h0 == 9
    assert report.min_rank_by_order[8] == 5
    assert report.min_rank_by_order[9] == 5
    assert report.orders_certified_infeasible == [1, 2, 3]
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


def test_h0_probe_certificates_and_determinism():
    r1 = h0_probe(3, budget=4000, seed=7)
    r2 = h0_probe(3, budget=4000, seed=7)
    assert r1.h0_upper == 27
    assert r1.orders_certified_infeasible == [1, 2, 3, 4, 5, 6, 7]
    assert not r1.counterexample_found
    assert r1.budget_used == 4000
    assert r1.to_json() == r2.to_json()
    # the certified witness is the strictly-even selection, exact rank 19
    b = build_B(3)
    w = r1.witnesses[0]
    assert exact_rank(b[np.ix_(w, w)]) == 19


def test_h0_probe_seed_changes_trajectory():
    r1 = h0_probe(3, budget=4000, seed=1)
    r2 = h0_probe(3, budget=4000, seed=2)
    assert r1.min_rank_by_order != r2.min_rank_by_order


def test_h0_probe_rejects_bad_args():
    with pytest.raises(ValueError):
        h0_probe(2, budget=10, seed=0)
    with pytest.raises(ValueError):
        h0_probe(3, budget=0, seed=0)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from thetalab.errors import VerificationError
from thetalab.matrices import build_B, build_Bk, exact_rank
from thetalab.search import (
    batched_rank_mod_p,
    canonicalize_mask,
    _perm_action_on_kplus,
    h0_exhaustive,
    h0_probe,
    principal_rank,
)


def test_principal_rank_matches_exact():
    b = build_B(2)
    mask = (0, 2, 5, 7, 9)
    sub = b[np.ix_(mask, mask)]
    assert principal_rank(b, mask) == exact_rank(sub)
    assert principal_rank(b.tolist(), mask) == exact_rank(sub.tolist())


def test_batched_rank_matches_exact_on_B_submatrices():
    rng = np.random.default_rng(2)
    b = build_B(3)
    for _ in range(30):
        k = int(rng.integers(2, 28))
        idx = rng.choice(36, size=k, replace=False)
        sub = b[np.ix_(idx, idx)]
        assert batched_rank_mod_p(sub[None])[0] == exact_rank(sub.tolist())


def test_batched_rank_handles_singular_batches():
    rng = np.random.default_rng(6)
    mats = rng.integers(-4, 5, size=(20, 9, 9))
    mats[::2, 4] = mats[::2, 1] + mats[::2, 2]
    mats[5] = 0
    got = batched_rank_mod_p(mats)
    want = [exact_rank(m.tolist()) for m in mats]
    assert got.tolist() == want


@st.composite
def mixed_batches(draw):
    """One batch of k x k matrices, k <= 6 and |entries| <= 4, holding a
    full-rank matrix, one with a row summed from two others, one with
    zeroed columns and an all-zero matrix: the cases where matrices of one
    batch run out of pivots at different steps of the elimination.  A sum of two rows stays
    within 8, so by Hadamard every minor is below (8 sqrt 6)^6 < 5.7e7 < p
    and the rank mod p is exactly the rational rank."""
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
    assert batched_rank_mod_p(mats).tolist() == [exact_rank(m) for m in mats]


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
        (4000, 7, {"17": 16, "25": 19, "27": 19}),
        (2000, 1, {"15": 14, "16": 15, "27": 19}),
    ],
)
def test_h0_probe_output_pinned(budget, seed, min_rank):
    # literals computed with the earlier two-path mod-p kernel: the screened
    # ranks, and so the whole report, do not depend on the pivot order
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


def test_canonicalize_mask_greedy_minimization():
    perms = _perm_action_on_kplus(3)
    mask = (7, 11, 20, 23)
    canon = canonicalize_mask(mask, perms)
    # idempotent, never larger than the input, stays in the orbit closure
    assert canonicalize_mask(canon, perms) == canon
    assert canon <= tuple(sorted(mask))
    assert len(canon) == len(mask)


def test_perm_action_preserves_index_set():
    for perm in _perm_action_on_kplus(3):
        assert sorted(perm) == list(range(36))


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
        assert principal_rank(b, w) <= 5
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
    assert principal_rank(b, r1.witnesses[0]) == 19


def test_h0_probe_seed_changes_trajectory():
    r1 = h0_probe(3, budget=4000, seed=1)
    r2 = h0_probe(3, budget=4000, seed=2)
    assert r1.min_rank_by_order != r2.min_rank_by_order


def test_h0_probe_rejects_bad_args():
    with pytest.raises(ValueError):
        h0_probe(2, budget=10, seed=0)
    with pytest.raises(ValueError):
        h0_probe(3, budget=0, seed=0)

import numpy as np
import pytest

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

import random

import numpy as np
import pytest

from thetalab.characteristics import canonical_f2_order
from thetalab.errors import VerificationError
from thetalab.matrices import (
    TRIPLE,
    _require_entrywise,
    bk_selection,
    build_B,
    build_Bk,
    build_L,
    build_M,
    eigen_multiplicity,
    exact_rank,
    export_json,
    fay_multiplicities,
    split_blocks,
    verify_fay_spectrum,
)

sympy = pytest.importorskip("sympy")


def random_int_matrix(rng, rows, cols, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def test_exact_rank_against_sympy():
    rng = random.Random(3)
    for _ in range(40):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        data = random_int_matrix(rng, rows, cols)
        if rng.random() < 0.4 and rows >= 3:
            data[rows - 1] = [x + y for x, y in zip(data[0], data[1])]
        assert exact_rank(data) == sympy.Matrix(data).rank()


def test_exact_rank_zero_matrix():
    assert exact_rank([[0, 0], [0, 0]]) == 0


def test_eigen_multiplicity_diag():
    mat = [[2, 0, 0], [0, 2, 0], [0, 0, 5]]
    assert eigen_multiplicity(mat, 2) == 2
    assert eigen_multiplicity(mat, 5) == 1
    assert eigen_multiplicity(mat, 7) == 0


@pytest.mark.parametrize("g", [1, 2, 3])
def test_M_is_symmetric_sign_matrix(g):
    m = build_M(g)
    assert m.shape == (4**g, 4**g)
    assert m.dtype == np.int64
    assert np.isin(m, (-1, 1)).all()
    assert np.array_equal(m, m.T)


def test_M_g1_explicit():
    # pairing of F_2^2 vectors in canonical order 00,01,10 (isotropic), 11
    m = build_M(1)
    assert m.tolist() == [
        [1, 1, 1, 1],
        [1, 1, -1, -1],
        [1, -1, 1, -1],
        [1, -1, -1, 1],
    ]


def test_build_M_size_cap():
    with pytest.raises(ValueError):
        build_M(5)


@pytest.mark.parametrize("build", [build_M, build_B, build_L, build_Bk])
@pytest.mark.parametrize("g", [0, -1])
def test_builders_reject_genus_below_one(build, g):
    with pytest.raises(ValueError, match="g must be >= 1"):
        build(g)


@pytest.mark.parametrize("g", [1, 2, 3])
def test_block_sizes(g):
    mp, mm, n = split_blocks(build_M(g))
    kp = 2 ** (g - 1) * (2**g + 1)
    km = 2 ** (g - 1) * (2**g - 1)
    assert mp.shape == (kp, kp)
    assert mm.shape == (km, km)
    assert n.shape == (kp, km)


@pytest.mark.parametrize("g", [1, 2, 3])
def test_fay_multiplicities_sum(g):
    mult = fay_multiplicities(g)
    kp = 2 ** (g - 1) * (2**g + 1)
    km = 2 ** (g - 1) * (2**g - 1)
    assert mult["M+"][2**g] + mult["M+"][-(2 ** (g - 1))] == kp
    assert mult["M-"][-(2**g)] + mult["M-"][2 ** (g - 1)] == km
    assert mult["M+"][2**g] == (2**g + 1) * (2 ** (g - 1) + 1) // 3
    assert mult["M+"][-(2 ** (g - 1))] == (4**g - 1) // 3


@pytest.mark.parametrize("g", [1, 2, 3])
def test_verify_fay_spectrum(g):
    claims = verify_fay_spectrum(g)
    assert len(claims) >= 15
    assert all(c["pass"] for c in claims)
    assert any(f"rank N({g})" in c["claim"] and c["detail"] == f"got {(4**g - 1) // 3}" for c in claims)


@pytest.mark.parametrize("g,rank", [(1, 1), (2, 5), (3, 21)])
def test_rank_N(g, rank):
    _, _, n = split_blocks(build_M(g))
    assert exact_rank(n) == rank


@pytest.mark.parametrize("g", [1, 2, 3])
def test_B_definition(g):
    mp, _, n = split_blocks(build_M(g))
    b = build_B(g)
    rows = n.tolist()
    prod = [[sum(x * y for x, y in zip(r, s)) for s in rows] for r in rows]
    assert b.tolist() == prod
    assert exact_rank(b) == (4**g - 1) // 3
    for i in range(len(b)):
        for j in range(len(b)):
            check = 2 ** (g - 1) * ((2**g if i == j else 0) - int(mp[i, j]))
            assert b[i, j] == check


@pytest.mark.parametrize("g", [1, 2, 3])
def test_L_spectrum(g):
    l = build_L(g)
    assert l.shape == (3**g, 3**g)
    from math import comb

    for k in range(g + 1):
        lam = (-1) ** k * 2 ** (g - k)
        assert eigen_multiplicity(l, lam) == comb(g, k) * 2 ** (g - k)


def test_entrywise_identity_names_first_bad_entry():
    want = np.arange(6).reshape(2, 3)
    _require_entrywise(want.copy(), want, "X")
    got = want.copy()
    got[1, 0] = got[1, 2] = 9
    with pytest.raises(VerificationError, match=r"^X fails at entry \(1,0\)$"):
        _require_entrywise(got, want, "X")


def test_triple_ordering():
    assert TRIPLE == ((0, 0), (0, 1), (1, 0))


@pytest.mark.parametrize("g", [1, 2, 3])
def test_Bk_is_principal_submatrix_with_expected_rank(g):
    bk, sel = build_Bk(g)
    b = build_B(g)
    assert len(sel) == 3**g
    assert isinstance(sel, tuple)
    for p, i in enumerate(sel):
        for q, j in enumerate(sel):
            assert bk[p, q] == b[i, j]
    assert exact_rank(bk) == 3**g - 2**g


def test_bk_selection_lands_in_isotropic_range():
    for g in (1, 2, 3):
        kp = 2 ** (g - 1) * (2**g + 1)
        sel = bk_selection(g)
        assert all(0 <= i < kp for i in sel)
        assert len(set(sel)) == 3**g


def test_labels_follow_canonical_order():
    keys = ["".join(map(str, c.a + c.b)) for c in canonical_f2_order(2)]
    blob = export_json("M", 2)
    assert blob["row_labels"] == blob["col_labels"] == keys
    assert keys[:10] == sorted(keys[:10]) and keys[10:] == sorted(keys[10:])
    blob = export_json("N", 2)
    assert (blob["row_labels"], blob["col_labels"]) == (keys[:10], keys[10:])
    blob = export_json("Bk", 2)
    assert blob["row_labels"] == [keys[i] for i in bk_selection(2)]
    assert "row_labels" not in export_json("L", 2)


def test_matrices_are_built_once_per_genus():
    assert build_M(3) is build_M(3)
    assert build_B(3) is build_B(3)
    assert build_L(3) is build_L(3)
    assert build_Bk(3)[0] is build_Bk(3)[0]


def _cached_matrices(g):
    m = build_M(g)
    return [m, *split_blocks(m), build_B(g), build_L(g), build_Bk(g)[0]]


@pytest.mark.parametrize("g", [1, 2, 3])
def test_cached_matrices_are_read_only(g):
    before = [mat.copy() for mat in _cached_matrices(g)]
    for mat in _cached_matrices(g):
        with pytest.raises(ValueError):
            mat[0, 0] = 7
        with pytest.raises(ValueError):
            mat += 1
        with pytest.raises(ValueError):
            np.negative(mat, out=mat)
    after = _cached_matrices(g)
    assert all(np.array_equal(x, y) for x, y in zip(before, after))
    # the cached values still satisfy the verified identities
    m, mp, _, n, b, l, bk = after
    assert np.array_equal(m @ m, 4**g * np.eye(4**g, dtype=np.int64))
    assert np.array_equal(b, n @ n.T)
    assert np.array_equal(b, 2 ** (g - 1) * (2**g * np.eye(len(mp), dtype=np.int64) - mp))
    assert np.array_equal(bk, 2 ** (g - 1) * (2**g * np.eye(3**g, dtype=np.int64) - l))

import random
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from sympy import GF, ZZ
from sympy.polys.matrices import DomainMatrix

from thetalab.characteristics import canonical_f2_order
from thetalab.errors import VerificationError
from thetalab import matrices
from thetalab.matrices import (
    PRIMES,
    TRIPLE,
    _require_entrywise,
    batched_rank_mod_p,
    bk_selection,
    build_B,
    build_Bk,
    build_L,
    build_M,
    build_kernel_projector,
    exact_rank,
    export_json,
    fay_multiplicities,
    kron_multiplicities,
    spectrum,
    split_blocks,
    verify_fay_spectrum,
)


def random_int_matrix(rng, rows, cols, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def eigen_multiplicity(mat, lam):
    """exact_rank oracle: geometric multiplicity as the nullity of A - lam I."""
    mat = np.asarray(mat, dtype=np.int64)
    return len(mat) - exact_rank(mat - lam * np.eye(len(mat), dtype=np.int64))


def test_exact_rank_against_sympy():
    sympy = pytest.importorskip("sympy")
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


def test_primes_are_distinct_primes_below_2_31():
    sympy = pytest.importorskip("sympy")
    assert all(sympy.isprime(p) and p < 2**31 for p in PRIMES)
    assert len(set(PRIMES)) == len(PRIMES)


def test_exact_rank_does_not_trust_one_prime_past_its_bound():
    # the determinant is exactly 2^31 - 1 = PRIMES[0]
    mat = np.array([[46341, 2], [2317, 46341]])
    assert exact_rank(mat) == 2
    assert batched_rank_mod_p(mat[None], 2**31 - 1).tolist() == [1]


def test_exact_rank_bounds_entries_past_int64_squares_exactly():
    # det = PRIMES[0] PRIMES[1] PRIMES[2]; a^2 = 2^94 wraps to 0 in int64
    det = PRIMES[0] * PRIMES[1] * PRIMES[2]
    a = 2**47
    d = -(-det // a)
    mat = np.array([[a, a * d - det], [1, d]])
    assert exact_rank(mat) == 2
    assert [batched_rank_mod_p(mat[None], p)[0] for p in PRIMES[:3]] == [1, 1, 1]


def test_exact_rank_bounds_the_int64_minimum_exactly():
    # np.abs(-2^63) wraps to -2^63; det = 2 - 2^63 is 0 mod PRIMES[0]
    mat = np.array([[-(2**63), 1], [-2, 1]])
    assert exact_rank(mat) == 2
    assert batched_rank_mod_p(mat[None], PRIMES[0]).tolist() == [1]


@pytest.mark.parametrize("shape", [(1, 3, 5), (1, 5, 3), (6, 3, 5), (6, 5, 3)])
@pytest.mark.parametrize("bound", [9, 2**40])
def test_rank_kernels_never_write_into_their_input(shape, bound):
    # a single wide matrix transposes to a contiguous view of its input;
    # entries past p are reduced in place, small ones updated in place
    mats = np.random.default_rng(7).integers(-bound, bound, shape)
    kept = mats.copy()
    ranks = batched_rank_mod_p(mats, PRIMES[0]).tolist()
    exact = exact_rank(mats).tolist()
    assert np.array_equal(mats, kept)
    mats.flags.writeable = False
    assert batched_rank_mod_p(mats, PRIMES[0]).tolist() == ranks
    assert exact_rank(mats).tolist() == exact
    assert exact_rank(mats[0]) == exact[0]


def test_exact_rank_single_and_batch():
    rank = exact_rank([[1, 2], [2, 4]])
    assert type(rank) is int and rank == 1
    ranks = exact_rank(np.array([[[1, 2], [2, 4]], [[1, 2], [3, 4]]]))
    assert ranks.dtype == np.int64 and ranks.tolist() == [1, 2]


def test_exact_rank_refuses_bound_beyond_primes(monkeypatch):
    def no_elimination(mats, p):
        raise AssertionError("eliminated before checking the bound")

    monkeypatch.setattr(matrices, "batched_rank_mod_p", no_elimination)
    with pytest.raises(ValueError, match="Hadamard bound"):
        exact_rank(np.full((64, 64), 2**23))


@pytest.mark.parametrize("shape", [(3, 0), (0, 3), (0, 0)])
def test_exact_rank_of_an_empty_matrix_is_zero(shape):
    assert exact_rank(np.zeros(shape, dtype=np.int64)) == 0


def test_exact_rank_of_an_empty_batch():
    ranks = exact_rank(np.zeros((0, 4, 4), dtype=np.int64))
    assert ranks.dtype == np.int64 and ranks.shape == (0,)


@pytest.mark.parametrize("mat", [np.array([[0.5]]), np.array([[2**63]], dtype=np.uint64)])
def test_exact_rank_refuses_entries_outside_int64(monkeypatch, mat):
    def no_elimination(mats, p):
        raise AssertionError("eliminated before checking the entries")

    monkeypatch.setattr(matrices, "batched_rank_mod_p", no_elimination)
    with pytest.raises(ValueError, match="integers within int64"):
        exact_rank(mat)


def sympy_ranks_mod_p(mats, p):
    return [DomainMatrix.from_list(m.tolist(), ZZ).convert_to(GF(p)).rank() for m in mats]


INT64 = (-(2**63), 2**63 - 1)

ENTRIES = (
    st.integers(-9, 9),
    st.integers(-300, 300),
    st.integers(2**31 - 4, 2**31 + 4) | st.integers(-(2**31) - 4, -(2**31) + 4) | st.integers(-2, 2),
    st.sampled_from([INT64[0], INT64[0] + 1, INT64[1], INT64[1] - 1, 0, 1, -1]),
)


@st.composite
def integer_batches(draw, p):
    """A batch of up to 64 wide, square or tall integer matrices, all drawn
    from one family of entries: small, below and above p = 101, near
    +-2^31, at the int64 extremes or +-p itself.  In some, one row of the
    short side is a combination of two others plus p times itself, where
    that stays within int64, so the rank drops over the rationals (a zero
    multiple of p) or mod p only."""
    short = draw(st.integers(1, 4))
    long = short + draw(st.integers(0, 3))
    size = draw(st.integers(1, 64))
    family = draw(st.sampled_from(ENTRIES + (st.sampled_from([-p, p, 0, 1, -1]),)))
    mats = draw(arrays(np.int64, (size, short, long), elements=family))
    if short >= 2:
        for m in mats[: draw(st.integers(0, size))]:
            x, y, z = draw(st.lists(st.integers(-3, 3), min_size=3, max_size=3))
            row = [x * int(a) + y * int(b) + z * p * int(c) for a, b, c in zip(m[0], m[-2], m[-1])]
            if INT64[0] <= min(row) and max(row) <= INT64[1]:
                m[-1] = row
    return mats.transpose(0, 2, 1) if draw(st.booleans()) else mats


@pytest.mark.parametrize("p", [PRIMES[0], 101])
def test_batched_rank_mod_p_matches_sympy_over_gf_p(p):
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(integer_batches(p))
    def check(mats):
        assert batched_rank_mod_p(mats, p).tolist() == sympy_ranks_mod_p(mats, p)

    check()


def kernel_identity_masks():
    """(g, idx): every mask of each order 1-10 at g = 2, then 12 seeded
    masks of each order 8-35 at g = 3, as (m, k) index arrays."""
    for k in range(1, 11):
        yield 2, np.array(list(combinations(range(10), k)))
    rng = np.random.default_rng(11)
    for k in range(8, 36):
        yield 3, np.sort([rng.choice(36, size=k, replace=False) for _ in range(12)], axis=1)


def test_rank_identity_on_the_complement_matches_direct_ranks():
    # rank B[S, S] = k - d + rank Q[T, T], T the complement of S: the
    # identity the screen and the trace-rank bound rest on
    for g, idx in kernel_identity_masks():
        b = build_B(g)
        q, d = build_kernel_projector(g)
        want = exact_rank(b[idx[:, :, None], idx[:, None, :]])
        rest = np.array([np.setdiff1d(np.arange(len(b)), s) for s in idx])
        assert (idx.shape[1] - d + exact_rank(q[rest[:, :, None], rest[:, None, :]])).tolist() == want.tolist()


@pytest.mark.parametrize("g,d", [(1, 2), (2, 5), (3, 15), (4, 51)])
def test_kernel_projector_certifies_ker_B(g, d):
    q, dim = build_kernel_projector(g)
    lam = 3 * 2 ** (g - 1)
    assert dim == d == len(q) - (4**g - 1) // 3
    assert np.array_equal(q, q.T) and np.array_equal(q @ q, lam * q)
    assert not (build_B(g) @ q).any()
    assert np.trace(q) == lam * d
    assert (q.diagonal() == 2 ** (g - 1) + 1).all()
    assert (np.abs(q[~np.eye(len(q), dtype=bool)]) == 1).all()


@pytest.fixture
def fresh_kernel():
    caches = (build_B, build_kernel_projector)
    for built in caches:
        built.cache_clear()
    yield
    for built in caches:
        built.cache_clear()


def test_kernel_projector_refuses_columns_outside_ker_B(monkeypatch, fresh_kernel):
    # M+ perturbed at (0, 0) once B is built: Q^2 = lambda Q, hence B Q = 0,
    # fails
    build_B(3)
    m = build_M(3).copy()
    m[0, 0] += 1
    monkeypatch.setattr(matrices, "build_M", lambda g: m)
    with pytest.raises(VerificationError, match="prod \\(A - lambda I\\) = 0 over \\[8, -4\\] fails"):
        build_kernel_projector(3)


def test_kernel_projector_refuses_a_kernel_of_B_larger_than_d(monkeypatch, fresh_kernel):
    # N = 0 makes B = 0, whose kernel is everything; build_B's identity fails
    def zero_n(m):
        mp, mm, n = split_blocks(m)
        return mp, mm, np.zeros_like(n)

    monkeypatch.setattr(matrices, "split_blocks", zero_n)
    with pytest.raises(VerificationError, match="B = 2\\^\\(g-1\\)\\(2\\^g I - M\\+\\) for g=3 fails"):
        build_kernel_projector(3)


def test_eigen_multiplicity_diag():
    mat = [[2, 0, 0], [0, 2, 0], [0, 0, 5]]
    assert eigen_multiplicity(mat, 2) == 2
    assert eigen_multiplicity(mat, 5) == 1
    assert eigen_multiplicity(mat, 7) == 0
    assert spectrum(mat, [2, 5, 7]) == {2: 2, 5: 1, 7: 0}


def _with_closed_form(name, g):
    if name == "L":
        return build_L(g), kron_multiplicities(g)
    m = build_M(g)
    mp, mm, _ = split_blocks(m)
    return {"M": m, "M+": mp, "M-": mm}[name], fay_multiplicities(g)[name]


@pytest.mark.parametrize("g", [1, 2, 3])
@pytest.mark.parametrize("name", ["M", "M+", "M-", "L"])
def test_spectrum_matches_bareiss_oracle(name, g):
    mat, closed = _with_closed_form(name, g)
    got = spectrum(mat, closed)
    assert got == closed
    assert got == {lam: eigen_multiplicity(mat, lam) for lam in closed}


def test_spectrum_rejects_a_flipped_entry():
    mp = split_blocks(build_M(2))[0].copy()
    mp[0, 3] = -mp[0, 3]
    with pytest.raises(VerificationError, match="fails at entry"):
        spectrum(mp, fay_multiplicities(2)["M+"])
    l = build_L(3).copy()
    l[4, 7] += 1
    with pytest.raises(VerificationError):
        spectrum(l, kron_multiplicities(3))


def test_spectrum_rejects_a_jordan_block():
    with pytest.raises(VerificationError):
        spectrum([[2, 1], [0, 2]], [2])


def test_spectrum_rejects_a_missing_eigenvalue():
    with pytest.raises(VerificationError):
        spectrum([[2, 0, 0], [0, 2, 0], [0, 0, 5]], [2])
    with pytest.raises(VerificationError):
        spectrum(build_M(2), [16])


def test_spectrum_overflow_guard():
    # n (||A|| + max|lambda|)^r = 2 * 2^31 * 2^31 = 2^63
    with pytest.raises(ValueError, match="overflow"):
        spectrum([[2**30, 0], [0, 2**30]], [2**30, -(2**30)])
    with pytest.raises(ValueError, match="distinct"):
        spectrum([[1]], [1, 1])


@st.composite
def conjugated_diagonals(draw):
    """(U D U^-1, D) with U unimodular: a product of elementary row operations."""
    n = draw(st.integers(1, 5))
    diag = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    u = np.eye(n, dtype=np.int64)
    u_inv = np.eye(n, dtype=np.int64)
    for _ in range(draw(st.integers(0, 4)) if n > 1 else 0):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        c = draw(st.integers(-2, 2))
        # U <- (I + c e_ij) U, and U^-1 <- U^-1 (I - c e_ij)
        u[i] += c * u[j]
        u_inv[:, j] -= c * u_inv[:, i]
    assert np.array_equal(u @ u_inv, np.eye(n, dtype=np.int64))
    return u @ np.diag(diag) @ u_inv, diag


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(conjugated_diagonals(), st.lists(st.integers(-4, 4), max_size=2))
def test_spectrum_of_conjugated_diagonal(case, extra):
    a, diag = case
    lams = sorted(set(diag) | set(extra))
    norm = int(np.abs(a).sum(axis=1).max()) + max(map(abs, lams))
    if len(a) * norm ** len(lams) >= 2**62:
        with pytest.raises(ValueError, match="overflow"):
            spectrum(a, lams)
        return
    assert spectrum(a, lams) == {lam: diag.count(lam) for lam in lams}
    if len(set(diag)) > 1:
        with pytest.raises(VerificationError):
            spectrum(a, sorted(set(diag))[1:])


@pytest.mark.parametrize("g", [1, 2, 3])
def test_M_is_symmetric_sign_matrix(g):
    m = build_M(g)
    assert m.shape == (4**g, 4**g)
    assert m.dtype == np.int64
    assert np.isin(m, (-1, 1)).all()
    assert np.array_equal(m, m.T)


@pytest.mark.parametrize("g", [1, 2, 3])
def test_M_matches_symplectic_pairing_entrywise(g):
    # the pairing of two characteristics, read off the binary digits of their
    # indices, is the oracle for the one-expression build; evens come first
    bits = [[int(d) for d in format(i, f"0{2 * g}b")] for i in range(4**g)]
    odd = [sum(x * y for x, y in zip(r[:g], r[g:])) % 2 for r in bits]
    order = sorted(range(4**g), key=lambda i: odd[i])

    def pairing(m, n):
        return sum(x * v + y * u for x, u, y, v in zip(m[:g], m[g:], n[:g], n[g:])) % 2

    want = [[1 - 2 * pairing(bits[x], bits[y]) for y in order] for x in order]
    assert build_M(g).tolist() == want


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


def test_build_L_size_cap_and_unknown_export_name():
    with pytest.raises(ValueError, match="size cap: 3\\^g must be <= 256"):
        build_L(6)
    with pytest.raises(ValueError, match="unknown matrix X"):
        export_json("X", 2)


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


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_verify_fay_spectrum(g):
    claims = verify_fay_spectrum(g)
    assert len(claims) >= 15
    assert all(c["pass"] for c in claims)
    assert any(f"rank N({g})" in c["claim"] and c["detail"] == f"got {(4**g - 1) // 3}" for c in claims)


def test_verify_fay_spectrum_claims_pinned():
    claims = [(c["claim"], c["detail"]) for c in verify_fay_spectrum(3)]
    assert claims == [
        ("M(3)^2 = 4^3 I", ""),
        ("M(3) eigenvalue -8 multiplicity 28", "got 28"),
        ("M(3) eigenvalue 8 multiplicity 36", "got 36"),
        ("M(3) multiplicities exhaust the space", "sum 64 vs 64"),
        ("M+(3) eigenvalue -4 multiplicity 21", "got 21"),
        ("M+(3) eigenvalue 8 multiplicity 15", "got 15"),
        ("M+(3) multiplicities exhaust the space", "sum 36 vs 36"),
        ("M-(3) eigenvalue -8 multiplicity 7", "got 7"),
        ("M-(3) eigenvalue 4 multiplicity 21", "got 21"),
        ("M-(3) multiplicities exhaust the space", "sum 28 vs 28"),
        ("M+(3) N = -2^2 N", ""),
        ("rank N(3) = (4^3-1)/3 = 21", "got 21"),
        ("ker(M+ - 2^g) = ker(N^t) at g=3", ""),
        ("ker(M- + 2^g) = ker(N) at g=3", ""),
        ("trace parity of M(3)", ""),
    ]


def test_verify_fay_spectrum_rejects_a_mutated_block(monkeypatch):
    mp, mm, n = split_blocks(build_M(2))
    mp = mp.copy()
    mp[1, 2] = mp[2, 1] = -mp[1, 2]
    # M itself is intact, so M^2 = 4^g I passes and the spectrum of M+ must fail
    monkeypatch.setattr("thetalab.matrices.split_blocks", lambda m: (mp, mm, n))
    with pytest.raises(VerificationError, match=r"prod \(A - lambda I\) = 0 over \[4, -2\]"):
        verify_fay_spectrum(2)


def test_verify_rank_and_kernel_claims_read_the_gram_identities(monkeypatch):
    mp, mm, n = split_blocks(build_M(2))
    # 2N keeps M+ N = -2^(g-1) N but breaks N N^t = 2^(g-1)(2^g I - M+)
    monkeypatch.setattr("thetalab.matrices.split_blocks", lambda m: (mp, mm, 2 * n))
    with pytest.raises(VerificationError, match=r"rank N\(2\)"):
        verify_fay_spectrum(2)
    # swapping two columns keeps N N^t but breaks N^t N = 2^(g-1)(2^g I + M-)
    monkeypatch.setattr("thetalab.matrices.split_blocks", lambda m: (mp, mm, n[:, [1, 0, 2, 3, 4, 5]]))
    with pytest.raises(VerificationError, match=r"ker\(M- \+ 2\^g\) = ker\(N\)"):
        verify_fay_spectrum(2)


@pytest.mark.parametrize(
    "factor,message",
    [
        ([[-1, 1, 1], [1, 1, -1], [1, -1, 1]], r"prod \(A - lambda I\)"),
        # eigenvalues 2, -1, -1: L(2) is annihilated, but 4 has multiplicity 1
        ([[2, 0, 0], [0, -1, 0], [0, 0, -1]], r"L\(2\) multiplicities"),
    ],
)
def test_build_L_gate_rejects_a_wrong_factor(monkeypatch, factor, message):
    m1 = build_M(1).copy()
    m1[:3, :3] = factor
    monkeypatch.setattr("thetalab.matrices.build_M", lambda g: m1)
    build_L.cache_clear()
    try:
        with pytest.raises(VerificationError, match=message):
            build_L(2)
    finally:
        build_L.cache_clear()


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
    for k in range(g + 1):
        lam = (-1) ** k * 2 ** (g - k)
        assert eigen_multiplicity(l, lam) == comb(g, k) * 2 ** (g - k)


@pytest.mark.parametrize("g", [4, 5])
def test_L_spectrum_gate_runs_beyond_genus_3(g):
    build_L.cache_clear()
    l = build_L(g)
    assert l.shape == (3**g, 3**g)
    assert spectrum(l, kron_multiplicities(g)) == kron_multiplicities(g)
    assert sum(kron_multiplicities(g).values()) == 3**g


def test_genus_4_builders():
    assert build_B(4).shape == (136, 136)
    bk, sel = build_Bk(4)
    assert bk.shape == (81, 81) and len(sel) == 81
    assert len(bk) - spectrum(build_L(4), kron_multiplicities(4))[16] == 81 - 16


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
    keys = [format(i, "04b") for i in canonical_f2_order(2).tolist()]
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
    assert build_kernel_projector(3)[0] is build_kernel_projector(3)[0]


def _cached_matrices(g):
    m = build_M(g)
    return [m, *split_blocks(m), build_B(g), build_L(g), build_Bk(g)[0], build_kernel_projector(g)[0]]


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
    m, mp, _, n, b, l, bk, q = after
    assert np.array_equal(m @ m, 4**g * np.eye(4**g, dtype=np.int64))
    assert np.array_equal(b, n @ n.T)
    assert np.array_equal(b, 2 ** (g - 1) * (2**g * np.eye(len(mp), dtype=np.int64) - mp))
    assert np.array_equal(bk, 2 ** (g - 1) * (2**g * np.eye(3**g, dtype=np.int64) - l))
    assert np.array_equal(q @ q, 3 * 2 ** (g - 1) * q) and not (b @ q).any()

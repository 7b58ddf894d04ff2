"""Exact construction and verification of the mod-2 pairing matrix family.

The sign matrix of the symplectic pairing on F_2^{2g} splits into blocks by
parity of the indexing characteristics; all spectral and rank claims about
those blocks are checked with exact integer arithmetic, never with
floating-point eigensolvers: every multiplicity by an annihilating polynomial
(`spectrum`), every rank by an entrywise identity such as B = N N^t =
2^(g-1)(2^g I - M+).  `batched_rank_mod_p` is the one elimination loop:
every step runs along the batch axis, and residues are reduced only when
they could reach p.  `exact_rank`, that loop mod as many primes as the
Hadamard bound needs, serves the search's submatrices, and
`build_kernel_projector` gives the search Q = M+ + 2^(g-1) I, a multiple of
the projector onto ker B certified by M+'s spectrum, whose principal minors
mod 2^31 - 1 screen the probe's masks.

Every matrix is an int64 numpy array, built and verified once per g and
returned read-only, so callers share it; the rank loop eliminates in a
private copy.  Entries stay below 2^(2g+1), far inside int64.
"""

from __future__ import annotations

from functools import cache, reduce
from math import comb, prod

import numpy as np

from .characteristics import (
    canonical_f2_order, characteristic_keys, count_parity, enumerate_characteristics, kplus_positions,
)
from .errors import VerificationError

SIZE_CAP = 256


def _frozen(mat: np.ndarray) -> np.ndarray:
    mat.flags.writeable = False
    return mat


def _require_entrywise(got, want, identity: str):
    """Raise VerificationError naming the first entry where got != want."""
    bad = np.argwhere(got != want)
    if len(bad):
        i, j = bad[0]
        raise VerificationError(f"{identity} fails at entry ({i},{j})")


# The largest primes below 2^31, largest first: residues multiply inside int64.
PRIMES = (
    2147483647, 2147483629, 2147483587, 2147483579, 2147483563, 2147483549, 2147483543, 2147483497,
    2147483489, 2147483477, 2147483423, 2147483399, 2147483353, 2147483323, 2147483269, 2147483249,
)


def _magnitude(a: np.ndarray) -> int:
    """The largest |entry| of an integer array, as a Python int: np.abs
    would wrap -2^63 to itself."""
    return max(int(a.max(initial=0)), -int(a.min(initial=0)))


def batched_rank_mod_p(mats, p: int) -> np.ndarray:
    """Rank mod the prime p < 2^31 of a batch of integer matrices within
    int64, shape (B, k, c).

    Division-free elimination, one row at a time across the batch: the
    pivot is the first column with a nonzero entry in the row, and every
    later row becomes pivval*row - entry*pivot_row, entry its own entry in
    the pivot column.  That clears the pivot column below the row, so no
    swaps are needed; a matrix without a pivot in the row takes pivval = 1
    and is left as it was.  The batch is eliminated in a private copy of
    shape (k, c, B), k the shorter side (a batch with more rows than
    columns is eliminated transposed), so every pivot search, gather,
    scale, update and reduction runs along contiguous runs of the batch.

    `top` bounds |entry| exactly, in Python ints.  Residues are reduced as
    x - (x // p) p, the floor residue that x % p gives, by numpy's faster
    division by a scalar, and only when top >= p: while every |x| < p, x is
    0 mod p exactly when x = 0, so the pivot test stays exact, and an update
    can at most take top to 2 top^2 < 2^63.  The rank over F_p does not
    depend on pivot order and is always a lower bound on the rational rank.
    """
    a = np.asarray(mats)
    a = a.transpose(2, 1, 0) if a.shape[1] > a.shape[2] else a.transpose(1, 2, 0)
    top = _magnitude(a)
    a = a.astype(np.int64, order="C")  # always a copy: the caller's array is never written
    work = np.empty_like(a)
    k, _, nb = a.shape
    ranks = np.zeros(nb, dtype=np.int64)
    batch = np.arange(nb)
    for row in range(k):
        if top >= p:
            live, quot = a[row:], work[row:]
            np.floor_divide(live, p, out=quot)
            quot *= p
            live -= quot
            top = p - 1
        entry = a[row]
        nonzero = entry != 0
        have = nonzero.any(axis=0)
        piv = nonzero.argmax(axis=0)
        pivval = np.where(have, entry[piv, batch], 1)
        rest, outer = a[row + 1 :], work[row + 1 :]
        np.multiply(rest[:, piv, batch][:, None, :], entry, out=outer)
        rest *= pivval
        rest -= outer
        top = 2 * top * top
        ranks += have
    return ranks


def exact_rank(mats):
    """Rank over the rationals of one integer matrix (an int) or of a batch
    of shape (B, k, c) (an int64 array), entries within int64.

    Every minor is at most h^min(k, c) in absolute value (Hadamard), h the
    largest row norm, taken exactly.  A nonzero minor below the product of
    the primes used cannot be divisible by all of them, so the largest rank
    mod the first primes of PRIMES whose product exceeds that bound is the
    rational rank.  ValueError is raised before any elimination for entries
    that are not integers within int64, and when all of PRIMES fall short.
    """
    a = np.asarray(mats)
    if a.dtype.kind not in "biu" or (a.dtype.kind == "u" and a.max(initial=0) > np.iinfo(np.int64).max):
        raise ValueError(f"exact_rank: entries must be integers within int64, got {a.dtype}")
    a = a.astype(np.int64, copy=False)
    single = a.ndim == 2
    if single:
        a = a[None]
    top = _magnitude(a)
    # squares and their row sums stay exact in int64 unless c * top^2 reaches 2^63
    wide = a if a.shape[2] * top * top < 2**63 else a.astype(object)
    bound2 = int((wide * wide).sum(axis=2).max(initial=0)) ** min(a.shape[1:])
    used, modulus = 1, PRIMES[0]
    while modulus * modulus <= bound2:
        if used == len(PRIMES):
            raise ValueError("exact_rank: the Hadamard bound exceeds the product of PRIMES")
        modulus *= PRIMES[used]
        used += 1
    ranks = np.maximum.reduce([batched_rank_mod_p(a, p) for p in PRIMES[:used]])
    return int(ranks[0]) if single else ranks


def _product(mats, n: int) -> np.ndarray:
    return reduce(np.matmul, mats) if mats else np.eye(n, dtype=np.int64)


def spectrum(mat, eigenvalues) -> dict:
    """Exact multiplicities {lambda: m} of an integer matrix A whose spectrum
    lies among the given distinct integers lambda_1..lambda_r.

    prod_i (A - lambda_i I) = 0 (else VerificationError) proves A diagonalizable
    with every eigenvalue among the lambda_i; then Q_i = prod_{j != i}
    (A - lambda_j I) is prod_{j != i} (lambda_i - lambda_j) times the spectral
    projector, whose trace is m_i.  ValueError is raised before any product
    unless n (||A||_inf + max |lambda_i|)^r < 2^62, which rules out int64 overflow.
    """
    a = np.asarray(mat, dtype=np.int64)
    n = len(a)
    lams = [int(x) for x in eigenvalues]
    if len(set(lams)) != len(lams):
        raise ValueError("eigenvalues must be distinct")
    norm = int(np.abs(a.astype(object)).sum(axis=1).max()) + max(map(abs, lams), default=0)
    if n * norm ** len(lams) >= 2**62:
        raise ValueError("spectrum: int64 products could overflow")
    eye = np.eye(n, dtype=np.int64)
    shifted = [a - lam * eye for lam in lams]
    _require_entrywise(_product(shifted, n), 0, f"prod (A - lambda I) = 0 over {lams}")
    mult = {}
    for i, lam in enumerate(lams):
        c = prod(lam - mu for mu in lams if mu != lam)
        m, rem = divmod(int(np.trace(_product(shifted[:i] + shifted[i + 1 :], n))), c)
        if rem:
            raise VerificationError(f"trace of the projector for {lam} is not a multiple of {c}")
        mult[lam] = m
    return mult


@cache
def build_M(g: int) -> np.ndarray:
    """Sign matrix (-1)^{<m,n>} over F_2^{2g}, even characteristics first.

    With the bit rows a||b of the canonical order split as (A, B), the
    pairing matrix <m, n> is A B^t + B A^t mod 2."""
    if g < 1:
        raise ValueError("g must be >= 1")
    if 4**g > SIZE_CAP:
        raise ValueError(f"size cap: 4^g must be <= {SIZE_CAP}")
    bits = enumerate_characteristics(g, 2)[canonical_f2_order(g)]
    a, b = bits[:, :g], bits[:, g:]
    return _frozen(1 - 2 * ((a @ b.T + b @ a.T) % 2))


def split_blocks(m: np.ndarray):
    """Block views (M+, M-, N) of M = (M+, N; N^t, M-), split by parity."""
    kp = count_parity((len(m).bit_length() - 1) // 2)[0]
    return m[:kp, :kp], m[kp:, kp:], m[:kp, kp:]


def fay_multiplicities(g: int):
    """Closed-form eigenvalue multiplicities for M, M+ and M-."""
    kp, km = count_parity(g)
    return {
        "M": {2**g: kp, -(2**g): km},
        "M+": {
            2**g: (2**g + 1) * (2 ** (g - 1) + 1) // 3,
            -(2 ** (g - 1)): (4**g - 1) // 3,
        },
        "M-": {
            -(2**g): (2**g - 1) * (2 ** (g - 1) - 1) // 3,
            2 ** (g - 1): (4**g - 1) // 3,
        },
    }


def _claim(report, name, ok, detail=""):
    report.append({"claim": name, "pass": bool(ok), "detail": detail})
    if not ok:
        raise VerificationError(f"claim failed: {name} {detail}")


def verify_fay_spectrum(g: int):
    """Exact verification of every spectral claim about M, M+, M-.

    Multiplicities come from `spectrum`; the rank and kernel claims from the
    entrywise Gram identities N N^t = 2^(g-1)(2^g I - M+) and N^t N =
    2^(g-1)(2^g I + M-), since a Gram matrix has the kernel of its factor.

    Returns the claim-by-claim report; raises VerificationError on the first
    mismatch, naming the claim.
    """
    m = build_M(g)
    mp, mm, n = split_blocks(m)
    closed = fay_multiplicities(g)
    report = []

    _claim(report, f"M({g})^2 = 4^{g} I", np.array_equal(m @ m, 4**g * np.eye(len(m), dtype=np.int64)))

    mult = {}
    for name, mat in (("M", m), ("M+", mp), ("M-", mm)):
        mult[name] = spectrum(mat, closed[name])
        for lam, want in sorted(closed[name].items()):
            got = mult[name][lam]
            _claim(report, f"{name}({g}) eigenvalue {lam} multiplicity {want}", got == want, f"got {got}")
        total = sum(mult[name].values())
        detail = f"sum {total} vs {len(mat)}"
        _claim(report, f"{name}({g}) multiplicities exhaust the space", total == len(mat), detail)

    # Columns of N are -2^{g-1}-eigenvectors of M+: M+ N = -2^{g-1} N.
    _claim(report, f"M+({g}) N = -2^{g-1} N", np.array_equal(mp @ n, -(2 ** (g - 1)) * n))

    # ker(2^g - M+) = ker(N N^t) = ker(N^t) and ker(2^g + M-) = ker(N^t N) = ker(N).
    plus_gram = np.array_equal(n @ n.T, 2 ** (g - 1) * (2**g * np.eye(len(mp), dtype=np.int64) - mp))
    minus_gram = np.array_equal(n.T @ n, 2 ** (g - 1) * (2**g * np.eye(len(mm), dtype=np.int64) + mm))

    # rank N = rank N N^t = |K+| - mult_{2^g}(M+) = (4^g - 1)/3.
    rk_n = len(mp) - mult["M+"][2**g]
    want = (4**g - 1) // 3
    _claim(report, f"rank N({g}) = (4^{g}-1)/3 = {want}", plus_gram and rk_n == want, f"got {rk_n}")
    _claim(report, f"ker(M+ - 2^g) = ker(N^t) at g={g}", plus_gram)
    _claim(report, f"ker(M- + 2^g) = ker(N) at g={g}", minus_gram)

    # Trace identity: mult(+2^g) - mult(-2^g) = tr(M)/2^g = 2^g.
    diff = closed["M"][2**g] - closed["M"][-(2**g)]
    _claim(report, f"trace parity of M({g})", diff == np.trace(m) // 2**g == 2**g)

    return report


@cache
def build_B(g: int) -> np.ndarray:
    """B = N N^t, verified entrywise against 2^{g-1}(2^g I - M+)."""
    mp, _, n = split_blocks(build_M(g))
    b = n @ n.T
    want = 2 ** (g - 1) * (2**g * np.eye(len(mp), dtype=np.int64) - mp)
    _require_entrywise(b, want, f"B = 2^(g-1)(2^g I - M+) for g={g}")
    return _frozen(b)


@cache
def build_kernel_projector(g: int):
    """(Q, d): Q = M+ + 2^(g-1) I, lambda = 3 * 2^(g-1) times the orthogonal
    projector onto ker B, and d = dim ker B = |K+| - (4^g - 1)/3.

    build_B's identity B = 2^(g-1)(2^g I - M+) makes ker B the
    2^g-eigenspace of M+.  `spectrum` certifies (M+ - 2^g I)(M+ + 2^(g-1) I)
    = 0, which is Q^2 = lambda Q and B Q = 0: Q is lambda on that eigenspace
    and 0 on the other, so its columns span ker B, and d is the
    multiplicity of 2^g.  Every diagonal entry of Q is 2^(g-1) + 1 and every
    other entry is +-1.
    """
    build_B(g)  # certifies B = 2^(g-1)(2^g I - M+)
    mp = split_blocks(build_M(g))[0]
    d = spectrum(mp, fay_multiplicities(g)["M+"])[2**g]
    return _frozen(mp + 2 ** (g - 1) * np.eye(len(mp), dtype=np.int64)), d


def kron_multiplicities(g: int) -> dict:
    """Closed-form spectrum of L(g): (-1)^k 2^{g-k} with multiplicity C(g,k) 2^{g-k}."""
    return {(-1) ** k * 2 ** (g - k): comb(g, k) * 2 ** (g - k) for k in range(g + 1)}


@cache
def build_L(g: int) -> np.ndarray:
    """g-fold Kronecker power of M+(1); its spectrum is certified exactly by
    `spectrum` against `kron_multiplicities` at every g."""
    if g < 1:
        raise ValueError("g must be >= 1")
    if 3**g > SIZE_CAP:
        raise ValueError(f"size cap: 3^g must be <= {SIZE_CAP}")
    base = split_blocks(build_M(1))[0]
    # first factor most significant
    l = np.ones((1, 1), dtype=np.int64)
    for _ in range(g):
        l = np.kron(l, base)
    closed = kron_multiplicities(g)
    got = spectrum(l, closed)
    if got != closed:
        raise VerificationError(f"L({g}) multiplicities {got}, expected {closed}")
    return _frozen(l)


TRIPLE = ((0, 0), (0, 1), (1, 0))  # per-coordinate (a_i, b_i) in M+(1) order


def bk_selection(g: int) -> tuple:
    """Indices (into K_g^+ canonical order) of the 3^g strictly even
    characteristics (a_i b_i = 0 in every coordinate), in the mixed-radix
    coordinate-product order matching the Kronecker construction."""
    # digit d of coordinate i puts the bits TRIPLE[d] at a_i and b_i
    ab = np.array(TRIPLE)[np.indices((3,) * g).reshape(g, -1)]
    weights = 1 << np.arange(g - 1, -1, -1)
    index = (weights @ ab[..., 0] << g) + weights @ ab[..., 1]
    return tuple(kplus_positions(g, index).tolist())


@cache
def build_Bk(g: int):
    """Strictly-even principal submatrix of B, checked entrywise against
    2^{g-1}(2^g I - L(g)).

    Returns (submatrix, selection indices).  The identity and build_L's
    spectrum certificate (mult_{2^g}(L) = 2^g, L diagonalizable) prove
    rank B_k = 3^g - 2^g with no elimination.
    """
    b = build_B(g)
    sel = bk_selection(g)
    bk = b[np.ix_(sel, sel)]
    want = 2 ** (g - 1) * (2**g * np.eye(len(sel), dtype=np.int64) - build_L(g))
    _require_entrywise(bk, want, f"Bk = 2^(g-1)(2^g I - L) for g={g}")
    return _frozen(bk), sel


def export_json(name: str, g: int) -> dict:
    """JSON form of the matrix M, Mplus, Mminus, N, B, L or Bk at genus g.

    Rows and columns are labelled by the a||b bit strings of the
    characteristics that index them, their keys without the '|'; L, a
    Kronecker power, has no labels.
    """
    if name == "L":
        mat, rows, cols = build_L(g), None, None
    else:
        m = build_M(g)
        mp, mm, n = split_blocks(m)
        keys = [characteristic_keys(g, 2)[i].replace("|", "") for i in canonical_f2_order(g).tolist()]
        even, odd = keys[: len(mp)], keys[len(mp) :]
        if name == "M":
            mat, rows, cols = m, keys, keys
        elif name == "Mplus":
            mat, rows, cols = mp, even, even
        elif name == "Mminus":
            mat, rows, cols = mm, odd, odd
        elif name == "N":
            mat, rows, cols = n, even, odd
        elif name == "B":
            mat, rows, cols = build_B(g), even, even
        elif name == "Bk":
            mat, sel = build_Bk(g)
            rows = cols = [even[i] for i in sel]
        else:
            raise ValueError(f"unknown matrix {name}")
    title = {"Mplus": "M+", "Mminus": "M-"}.get(name, name)
    out = {"name": f"{title}({g})", "rows": mat.shape[0], "cols": mat.shape[1], "data": mat.tolist()}
    if rows:
        out["row_labels"] = rows
        out["col_labels"] = cols
    return out

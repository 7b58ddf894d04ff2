"""Exact construction and verification of the mod-2 pairing matrix family.

The sign matrix of the symplectic pairing on F_2^{2g} splits into blocks by
parity of the indexing characteristics; all spectral and rank claims about
those blocks are checked with exact integer arithmetic (rank of
A - lambda*I by fraction-free elimination), never with floating-point
eigensolvers.

Every matrix is an int64 numpy array, built and verified once per g and
returned read-only, so callers share it.  Entries stay below 2^(2g+1), far
inside int64; ranks and determinants are taken on python ints.
"""

from __future__ import annotations

from functools import cache
from itertools import product
from math import comb

import numpy as np

from .characteristics import canonical_f2_order, isotropic_vectors, symplectic_pairing
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


def _bareiss(mat):
    """Bareiss fraction-free elimination of an integer matrix given as rows:
    (rank, swap sign, last pivot).  Intermediate values are minors of the
    input, so python's arbitrary-precision ints keep everything exact; for a
    square matrix of full rank, sign * last pivot is the determinant.
    """
    rows = mat.tolist() if isinstance(mat, np.ndarray) else mat
    m = [[int(x) for x in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rank = 0
    sign = 1
    prev = 1
    for col in range(ncols):
        piv = next((r for r in range(rank, nrows) if m[r][col]), None)
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            sign = -sign
        p = m[rank][col]
        mp = m[rank]
        for r in range(rank + 1, nrows):
            mr = m[r]
            f = mr[col]
            for c in range(col, ncols):
                q, rem = divmod(p * mr[c] - f * mp[c], prev)
                if rem:
                    raise ArithmeticError("Bareiss division not exact")
                mr[c] = q
        prev = p
        rank += 1
        if rank == nrows:
            break
    return rank, sign, prev




def exact_rank(mat) -> int:
    """Rank over the rationals by Bareiss fraction-free elimination."""
    return _bareiss(mat)[0]


def exact_det(mat) -> int:
    """Determinant of a square integer matrix (Bareiss)."""
    rank, sign, last = _bareiss(mat)
    return sign * last if rank == len(mat) else 0


def eigen_multiplicity(mat, lam: int) -> int:
    """Geometric multiplicity of an integer eigenvalue via exact rank."""
    mat = np.asarray(mat, dtype=np.int64)
    return len(mat) - exact_rank(mat - lam * np.eye(len(mat), dtype=np.int64))


@cache
def build_M(g: int) -> np.ndarray:
    """Sign matrix (-1)^{<m,n>} over F_2^{2g}, even characteristics first."""
    if g < 1:
        raise ValueError("g must be >= 1")
    if 4**g > SIZE_CAP:
        raise ValueError(f"size cap: 4^g must be <= {SIZE_CAP}")
    order = canonical_f2_order(g)
    m = np.array(
        [[1 - 2 * symplectic_pairing(x, y) for y in order] for x in order],
        dtype=np.int64,
    )
    return _frozen(m)


def split_blocks(m: np.ndarray):
    """Block views (M+, M-, N) of M = (M+, N; N^t, M-), split by parity."""
    g = (len(m).bit_length() - 1) // 2
    kp = 2 ** (g - 1) * (2**g + 1)
    return m[:kp, :kp], m[kp:, kp:], m[:kp, kp:]


def fay_multiplicities(g: int):
    """Closed-form eigenvalue multiplicities for M, M+ and M-."""
    kp = 2 ** (g - 1) * (2**g + 1)
    km = 2 ** (g - 1) * (2**g - 1)
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

    Returns the claim-by-claim report; raises VerificationError on the first
    mismatch, naming the claim.
    """
    if g > 3:
        raise ValueError("verification supported for g <= 3")
    m = build_M(g)
    mp, mm, n = split_blocks(m)
    closed = fay_multiplicities(g)
    report = []

    _claim(report, f"M({g})^2 = 4^{g} I", np.array_equal(m @ m, 4**g * np.eye(len(m), dtype=np.int64)))

    for name, mat in (("M", m), ("M+", mp), ("M-", mm)):
        total = 0
        for lam, want in sorted(closed[name].items()):
            got = eigen_multiplicity(mat, lam)
            total += got
            _claim(
                report,
                f"{name}({g}) eigenvalue {lam} multiplicity {want}",
                got == want,
                f"got {got}",
            )
        _claim(
            report,
            f"{name}({g}) multiplicities exhaust the space",
            total == len(mat),
            f"sum {total} vs {len(mat)}",
        )

    # Columns of N are -2^{g-1}-eigenvectors of M+: M+ N = -2^{g-1} N.
    _claim(report, f"M+({g}) N = -2^{g-1} N", np.array_equal(mp @ n, -(2 ** (g - 1)) * n))

    # rank N = (4^g - 1)/3 = dim of that eigenspace, so the columns span it.
    rk_n = exact_rank(n)
    want = (4**g - 1) // 3
    _claim(report, f"rank N({g}) = (4^{g}-1)/3 = {want}", rk_n == want, f"got {rk_n}")

    # Eigenvector equivalences, proved by exact rank inclusions:
    # ker(M+ - 2^g I) = ker(N^t) and ker(M- + 2^g I) = ker(N).
    for name, mat, lam, other in (
        ("ker(M+ - 2^g) = ker(N^t)", mp, 2**g, n.T),
        ("ker(M- + 2^g) = ker(N)", mm, -(2**g), n),
    ):
        shifted = mat - lam * np.eye(len(mat), dtype=np.int64)
        r_shift = exact_rank(shifted)
        contained = exact_rank(np.vstack([shifted, other])) == r_shift
        dims_match = (len(mat) - r_shift) == (other.shape[1] - exact_rank(other))
        _claim(report, f"{name} at g={g}", contained and dims_match)

    # Trace identity: mult(+2^g) - mult(-2^g) = tr(M)/2^g = 2^g.
    diff = closed["M"][2**g] - closed["M"][-(2**g)]
    _claim(report, f"trace parity of M({g})", diff == np.trace(m) // 2**g == 2**g)

    return report


@cache
def build_B(g: int) -> np.ndarray:
    """B = N N^t, verified entrywise against 2^{g-1}(2^g I - M+)."""
    if g > 3:
        raise ValueError("build_B supported for g <= 3")
    mp, _, n = split_blocks(build_M(g))
    b = n @ n.T
    want = 2 ** (g - 1) * (2**g * np.eye(len(mp), dtype=np.int64) - mp)
    _require_entrywise(b, want, f"B = 2^(g-1)(2^g I - M+) for g={g}")
    return _frozen(b)


@cache
def build_L(g: int) -> np.ndarray:
    """g-fold Kronecker power of M+(1); spectrum verified exactly.

    Eigenvalue (-1)^k 2^{g-k} has multiplicity C(g,k) 2^{g-k}, k = 0..g.
    """
    if g < 1:
        raise ValueError("g must be >= 1")
    if 3**g > SIZE_CAP:
        raise ValueError(f"size cap: 3^g must be <= {SIZE_CAP}")
    base = split_blocks(build_M(1))[0]
    # first factor most significant
    l = np.ones((1, 1), dtype=np.int64)
    for _ in range(g):
        l = np.kron(l, base)
    if g <= 3:
        total = 0
        for k in range(g + 1):
            lam = (-1) ** k * 2 ** (g - k)
            want = comb(g, k) * 2 ** (g - k)
            got = eigen_multiplicity(l, lam)
            total += got
            if got != want:
                raise VerificationError(
                    f"L({g}) eigenvalue {lam}: multiplicity {got}, expected {want}"
                )
        if total != 3**g:
            raise VerificationError(f"L({g}) multiplicities do not exhaust 3^{g}")
    return _frozen(l)


TRIPLE = ((0, 0), (0, 1), (1, 0))  # per-coordinate (a_i, b_i) in M+(1) order


def bk_selection(g: int) -> tuple:
    """Indices (into K_g^+ canonical order) of the 3^g strictly even
    characteristics (a_i b_i = 0 in every coordinate), in the mixed-radix
    coordinate-product order matching the Kronecker construction."""
    pos = {c.a + c.b: i for i, c in enumerate(isotropic_vectors(g))}
    sel = []
    for digits in product(range(3), repeat=g):
        a, b = zip(*(TRIPLE[d] for d in digits))
        sel.append(pos[a + b])
    return tuple(sel)


@cache
def build_Bk(g: int):
    """Strictly-even principal submatrix of B; identity and rank checked.

    Returns (submatrix, selection indices).  The submatrix must equal
    2^{g-1}(2^g I - L(g)) and have rank 3^g - 2^g.
    """
    if g > 3:
        raise ValueError("build_Bk supported for g <= 3")
    b = build_B(g)
    sel = bk_selection(g)
    bk = b[np.ix_(sel, sel)]
    want = 2 ** (g - 1) * (2**g * np.eye(len(sel), dtype=np.int64) - build_L(g))
    _require_entrywise(bk, want, f"Bk = 2^(g-1)(2^g I - L) for g={g}")
    rk = exact_rank(bk)
    want = 3**g - 2**g
    if rk != want:
        raise VerificationError(f"rank Bk({g}) = {rk}, expected {want}")
    return _frozen(bk), sel


def export_json(name: str, g: int) -> dict:
    """JSON form of the matrix M, Mplus, Mminus, N, B, L or Bk at genus g.

    Rows and columns are labelled by the a||b bit strings of the
    characteristics that index them; L, a Kronecker power, has no labels.
    """
    if name == "L":
        mat, rows, cols = build_L(g), None, None
    else:
        m = build_M(g)
        mp, mm, n = split_blocks(m)
        keys = ["".join(map(str, c.a + c.b)) for c in canonical_f2_order(g)]
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

"""Exact construction and verification of the mod-2 pairing matrix family.

The sign matrix of the symplectic pairing on F_2^{2g} splits into blocks by
isotropy class; all spectral and rank claims about those blocks are checked
with exact integer arithmetic (rank of A - lambda*I by fraction-free
elimination), never with floating-point eigensolvers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

from .characteristics import (
    anisotropic_vectors,
    canonical_f2_order,
    isotropic_vectors,
    symplectic_pairing,
)
from .errors import VerificationError

SIZE_CAP = 256


@dataclass
class IntMatrix:
    """Dense integer matrix with optional characteristic labels."""

    data: list  # list of lists of python ints (exact)
    row_labels: list = field(default=None)
    col_labels: list = field(default=None)
    name: str = ""

    @property
    def rows(self):
        return len(self.data)

    @property
    def cols(self):
        return len(self.data[0]) if self.data else 0

    def entry(self, i, j):
        return self.data[i][j]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            [list(col) for col in zip(*self.data)],
            row_labels=self.col_labels,
            col_labels=self.row_labels,
            name=self.name + "^t",
        )

    def matmul(self, other: "IntMatrix") -> "IntMatrix":
        bt = list(zip(*other.data))
        out = [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in self.data]
        return IntMatrix(out, row_labels=self.row_labels, col_labels=other.col_labels)

    def submatrix(self, row_idx, col_idx=None) -> "IntMatrix":
        if col_idx is None:
            col_idx = row_idx
        data = [[self.data[i][j] for j in col_idx] for i in row_idx]
        rl = [self.row_labels[i] for i in row_idx] if self.row_labels else None
        cl = [self.col_labels[j] for j in col_idx] if self.col_labels else None
        return IntMatrix(data, row_labels=rl, col_labels=cl)

    def to_json(self):
        out = {"name": self.name, "rows": self.rows, "cols": self.cols, "data": self.data}
        if self.row_labels:
            out["row_labels"] = [v.key() for v in self.row_labels]
        if self.col_labels:
            out["col_labels"] = [v.key() for v in self.col_labels]
        return out


def _minus_lambda_eye(data, lam):
    return [
        [x - lam if i == j else x for j, x in enumerate(row)]
        for i, row in enumerate(data)
    ]


def _bareiss(mat):
    """Bareiss fraction-free elimination of an integer matrix given as rows:
    (rank, swap sign, last pivot).  Intermediate values are minors of the
    input, so python's arbitrary-precision ints keep everything exact; for a
    square matrix of full rank, sign * last pivot is the determinant.
    """
    m = [[int(x) for x in row] for row in mat]
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
    return _bareiss(mat.data if isinstance(mat, IntMatrix) else mat)[0]


def exact_det(mat) -> int:
    """Determinant of a square integer matrix (Bareiss)."""
    if isinstance(mat, IntMatrix):
        mat = mat.data
    rank, sign, last = _bareiss(mat)
    return sign * last if rank == len(mat) else 0


def eigen_multiplicity(mat, lam: int) -> int:
    """Geometric multiplicity of an integer eigenvalue via exact rank."""
    if isinstance(mat, IntMatrix):
        mat = mat.data
    n = len(mat)
    return n - exact_rank(_minus_lambda_eye(mat, lam))


def build_M(g: int) -> IntMatrix:
    """Sign matrix (-1)^{<m,n>} over F_2^{2g}, isotropic block first."""
    if 4**g > SIZE_CAP:
        raise ValueError(f"size cap: 4^g must be <= {SIZE_CAP}")
    order = canonical_f2_order(g)
    data = [
        [1 - 2 * symplectic_pairing(m, n) for n in order]
        for m in order
    ]
    return IntMatrix(data, row_labels=order, col_labels=order, name=f"M({g})")


def split_blocks(m: IntMatrix):
    """Block decomposition (M+, N; N^t, M-) by isotropy class of the labels."""
    if not m.row_labels or not m.col_labels:
        raise ValueError("split_blocks requires a labeled matrix")
    g = m.row_labels[0].g
    kp = len(isotropic_vectors(g))
    iso = list(range(kp))
    aniso = list(range(kp, m.rows))
    mp = m.submatrix(iso, iso)
    mp.name = f"M+({g})"
    mm = m.submatrix(aniso, aniso)
    mm.name = f"M-({g})"
    n = m.submatrix(iso, aniso)
    n.name = f"N({g})"
    return mp, mm, n


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

    msq = m.matmul(m)
    ok = all(
        msq.entry(i, j) == (4**g if i == j else 0)
        for i in range(m.rows)
        for j in range(m.cols)
    )
    _claim(report, f"M({g})^2 = 4^{g} I", ok)

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
            total == mat.rows,
            f"sum {total} vs {mat.rows}",
        )

    # Columns of N are -2^{g-1}-eigenvectors of M+: M+ N = -2^{g-1} N.
    mpn = mp.matmul(n)
    scale = -(2 ** (g - 1))
    ok = all(
        mpn.entry(i, j) == scale * n.entry(i, j)
        for i in range(n.rows)
        for j in range(n.cols)
    )
    _claim(report, f"M+({g}) N = -2^{g-1} N", ok)

    # rank N = (4^g - 1)/3 = dim of that eigenspace, so the columns span it.
    rk_n = exact_rank(n)
    want = (4**g - 1) // 3
    _claim(report, f"rank N({g}) = (4^{g}-1)/3 = {want}", rk_n == want, f"got {rk_n}")

    # Eigenvector equivalences, proved by exact rank inclusions:
    # ker(M+ - 2^g I) = ker(N^t) and ker(M- + 2^g I) = ker(N).
    for name, mat, lam, other in (
        ("ker(M+ - 2^g) = ker(N^t)", mp, 2**g, n.transpose()),
        ("ker(M- + 2^g) = ker(N)", mm, -(2**g), n),
    ):
        shifted = _minus_lambda_eye(mat.data, lam)
        r_shift = exact_rank(shifted)
        stacked = [list(row) for row in shifted] + [list(row) for row in other.data]
        contained = exact_rank(stacked) == r_shift
        dims_match = (mat.rows - r_shift) == (other.cols - exact_rank(other))
        _claim(report, f"{name} at g={g}", contained and dims_match)

    # Trace identity: mult(+2^g) - mult(-2^g) = tr(M)/2^g = 2^g.
    diff = closed["M"][2**g] - closed["M"][-(2**g)]
    tr = sum(m.entry(i, i) for i in range(m.rows))
    _claim(report, f"trace parity of M({g})", diff == tr // 2**g == 2**g)

    return report


def build_B(g: int) -> IntMatrix:
    """B = N N^t, verified entrywise against 2^{g-1}(2^g I - M+)."""
    if g > 3:
        raise ValueError("build_B supported for g <= 3")
    m = build_M(g)
    mp, _, n = split_blocks(m)
    b = n.matmul(n.transpose())
    b.name = f"B({g})"
    b.row_labels = mp.row_labels
    b.col_labels = mp.col_labels
    c = 2 ** (g - 1)
    for i in range(b.rows):
        for j in range(b.cols):
            want = c * ((2**g if i == j else 0) - mp.entry(i, j))
            if b.entry(i, j) != want:
                raise VerificationError(
                    f"B = 2^(g-1)(2^g I - M+) fails at entry ({i},{j}) for g={g}"
                )
    return b


def mplus_one() -> IntMatrix:
    """The 3x3 isotropic block at g = 1, base of the Kronecker family."""
    m = build_M(1)
    mp, _, _ = split_blocks(m)
    return mp


def build_L(g: int) -> IntMatrix:
    """g-fold Kronecker power of M+(1); spectrum verified exactly.

    Eigenvalue (-1)^k 2^{g-k} has multiplicity C(g,k) 2^{g-k}, k = 0..g.
    """
    if 3**g > SIZE_CAP:
        raise ValueError(f"size cap: 3^g must be <= {SIZE_CAP}")
    base = mplus_one().data
    # explicit Kronecker product, first factor most significant
    data = [[1]]
    for _ in range(g):
        data = [
            [a * b for a in arow for b in brow]
            for arow in data
            for brow in base
        ]
    l = IntMatrix(data, name=f"L({g})")
    if g <= 3:
        total = 0
        for k in range(g + 1):
            lam = (-1) ** k * 2 ** (g - k)
            want = comb(g, k) * 2 ** (g - k)
            got = eigen_multiplicity(data, lam)
            total += got
            if got != want:
                raise VerificationError(
                    f"L({g}) eigenvalue {lam}: multiplicity {got}, expected {want}"
                )
        if total != 3**g:
            raise VerificationError(f"L({g}) multiplicities do not exhaust 3^{g}")
    return l


TRIPLE = ((0, 0), (0, 1), (1, 0))  # per-coordinate (a_i, b_i) in M+(1) order


def bk_selection(g: int):
    """Indices (into K_g^+ canonical order) of the 3^g strictly even
    characteristics (a_i b_i = 0 in every coordinate), in the mixed-radix
    coordinate-product order matching the Kronecker construction."""
    iso = isotropic_vectors(g)
    pos = {v.bits: i for i, v in enumerate(iso)}
    sel = []
    from itertools import product as iproduct

    for digits in iproduct(range(3), repeat=g):
        a = tuple(TRIPLE[d][0] for d in digits)
        b = tuple(TRIPLE[d][1] for d in digits)
        sel.append(pos[a + b])
    return sel


def build_Bk(g: int):
    """Strictly-even principal submatrix of B; identity and rank checked.

    Returns (submatrix, selection indices).  The submatrix must equal
    2^{g-1}(2^g I - L(g)) and have rank 3^g - 2^g.
    """
    if g > 3:
        raise ValueError("build_Bk supported for g <= 3")
    b = build_B(g)
    sel = bk_selection(g)
    bk = b.submatrix(sel)
    bk.name = f"Bk({g})"
    l = build_L(g)
    c = 2 ** (g - 1)
    for i in range(bk.rows):
        for j in range(bk.cols):
            want = c * ((2**g if i == j else 0) - l.entry(i, j))
            if bk.entry(i, j) != want:
                raise VerificationError(
                    f"Bk = 2^(g-1)(2^g I - L) fails at ({i},{j}) for g={g}"
                )
    rk = exact_rank(bk)
    want = 3**g - 2**g
    if rk != want:
        raise VerificationError(f"rank Bk({g}) = {rk}, expected {want}")
    return bk, sel

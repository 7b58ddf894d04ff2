"""Numerical theta functions with rational characteristics.

theta[delta; eps](tau, z) = sum_m exp[pi i (m+delta)^t tau (m+delta)
                                     + 2 pi i (m+delta)^t (z+eps)]

summed over an integer box of the least radius, found by bisection, whose
rigorous geometric majorant of the tail meets the requested tolerance.
Before summing, z is reduced by quasi-periodicity (z = tau p + q with p, q
shifted into a half-open unit box) and the nonvanishing exponential factor
is tracked, so the returned value is theta at the original z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .characteristics import characteristic_keys, odd_mask, table_size
from .errors import AmbiguousVanishingError, RadiusCapError, ThetaLabError
from .matrices import build_M, split_blocks

DEFAULT_TOL = 1e-12
RADIUS_CAP = 60
# the work cap on one characteristic's box (2r+1)^g
MAX_BOX_POINTS = 1_000_000
# the most points of the shared box theta_table holds at once: a point costs
# about 55 bytes, and every table of g <= 3 in normal use fits in one chunk
CHUNK_POINTS = 2**16
VANISH_REL = 1e-6
NONVANISH_REL = 1e-3


class PeriodMatrix:
    """Point of the Siegel upper-half space: symmetric tau with Im tau > 0."""

    SYMMETRY_TOL = 1e-12

    def __init__(self, mat):
        mat = np.asarray(mat, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("tau must be a square matrix")
        if not np.isfinite(mat).all():
            raise ValueError("tau must be finite")
        if np.max(np.abs(mat - mat.T)) > self.SYMMETRY_TOL:
            raise ValueError("tau must be symmetric (entrywise 1e-12)")
        mat = (mat + mat.T) / 2
        try:
            np.linalg.cholesky(mat.imag)
        except np.linalg.LinAlgError:
            raise ValueError("Im tau must be positive definite") from None
        self.mat = mat
        self.g = mat.shape[0]
        self.lam_min = float(np.linalg.eigvalsh(mat.imag)[0])

    @property
    def re(self):
        return self.mat.real

    @property
    def im(self):
        return self.mat.imag

    def scaled(self, factor) -> "PeriodMatrix":
        return PeriodMatrix(factor * self.mat)

    def to_json(self):
        return {
            "g": self.g,
            "re": [[float(x) for x in row] for row in self.re],
            "im": [[float(x) for x in row] for row in self.im],
        }

    @classmethod
    def from_json(cls, obj) -> "PeriodMatrix":
        g = int(obj["g"])
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
        if re.shape != (g, g) or im.shape != (g, g):
            raise ValueError("re/im must be g x g row-major arrays")
        return cls(re + 1j * im)


def random_tau(g: int, rng) -> PeriodMatrix:
    """Reproducible generic tau: A + i(C^t C + I), A symmetric in [-1/2,1/2].

    C has 0.3-scaled gaussian entries.  Keeping Im tau close to the identity
    matters: a large imaginary part crushes the all-half-characteristic
    constants into the undecidable band of the vanishing threshold policy.
    """
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    a = rng.uniform(-0.5, 0.5, size=(g, g))
    a = (a + a.T) / 2
    c = 0.3 * rng.standard_normal((g, g))
    b = c.T @ c + np.eye(g)
    return PeriodMatrix(a + 1j * b)


@dataclass
class ThetaValues:
    """A level-n table of theta values; the one truncation bound holds for every entry."""

    values: np.ndarray
    tail_bound: float
    radius_used: int


def _series_tail(lam: float, c: float, radius: int, g: int) -> float:
    """Majorant for the tail of the theta series outside the summation box.

    Terms with ||m - center||_inf = t >= radius+1 satisfy
    |term| <= exp(-pi lam (t - 1/2)^2 + 2 pi sqrt(g) (t + 1/2) c) and there
    are at most 2g(2t+1)^{g-1} of them per shell; the shell bounds are
    summed until their ratio certifies a geometric remainder.
    """
    total = 0.0
    t = radius + 1
    sg = math.sqrt(g)
    while True:
        logf = (
            math.log(2 * g)
            + (g - 1) * math.log(2 * t + 1)
            - math.pi * lam * (t - 0.5) ** 2
            + 2 * math.pi * sg * (t + 0.5) * c
        )
        f = math.exp(min(logf, 700.0))
        ratio = ((2 * t + 3) / (2 * t + 1)) ** (g - 1) * math.exp(
            min(-2 * math.pi * lam * t + 2 * math.pi * sg * c, 700.0)
        )
        if ratio < 0.5:
            total += f / (1 - ratio)
            return total
        total += f
        t += 1
        if t > radius + 100000:
            return math.inf


def theta_table(tau: PeriodMatrix, z, n: int, tol: float = DEFAULT_TOL) -> ThetaValues:
    """Evaluate theta[a/n; b/n](tau, z) for the whole level-n table, in the
    order of enumerate_characteristics(g, n).

    The reduction of z, the summation radius r and the tail majorant depend
    only on (tau, z): characteristics and integer shifts are real, so they
    leave |factor| unchanged.  r is the least radius up to RADIUS_CAP whose
    majorant meets tol, found by bisection: the majorant does not grow with r.
    The characteristic (a, b) sums over the points |m - rint(-a/n)| <= r,
    and on each axis the union over a of v = n m + a is one run of n(2r+1)
    integers.  So one box holds the points of every characteristic, and each
    point costs one exponential through

        theta[a/n; b/n](tau, z) = e(a.b/n^2) sum_r S_a(r) e(r.b/n),

    where e(x) = exp(2 pi i x) and S_a(r) sums the weight
    exp(pi i u^t tau u + 2 pi i u.z), u = v/n = m + a/n, over the points
    with v = a and m = r (mod n): one bincount on (a, r).  The sum over r is
    n^g times an inverse DFT of each a-row.  The box is swept in chunks of
    at most CHUNK_POINTS points.
    """
    g = tau.g
    size = table_size(g, n)
    if not tol > 0:
        raise ValueError("tol must be positive")
    if tol == math.inf:
        raise ValueError("tol must be finite, got inf")
    z = np.asarray(z, dtype=complex)
    if z.shape != (g,):
        raise ValueError(f"dimensions differ: z has shape {z.shape}, tau has genus {g}")

    # quasi-periodic reduction: z = z_red + tau s_tau + s_one with p, q in [-1/2, 1/2)
    p = np.linalg.solve(tau.im, z.imag)
    q = z.real - tau.re @ p
    s_tau = np.floor(p + 0.5).astype(np.int64)
    s_one = np.floor(q + 0.5).astype(np.int64)
    z_red = z - tau.mat @ s_tau - s_one
    # theta(z) = base e((a.s_one - s_tau.b)/n) theta(z_red) for characteristic (a, b)
    base = np.exp(-1j * math.pi * (s_tau @ tau.mat @ s_tau) - 2j * math.pi * (s_tau @ z_red))
    if base == 0:
        raise ThetaLabError("quasi-periodicity factor underflowed to zero")

    lam, c, scale = tau.lam_min, float(np.linalg.norm(z_red.imag)), abs(base)
    low, radius, tail = -1, RADIUS_CAP, _series_tail(lam, c, RADIUS_CAP, g)
    if tail * scale > tol:
        raise RadiusCapError(f"tolerance {tol} unreachable within radius cap {RADIUS_CAP}")
    while radius - low > 1:  # radius meets tol; low and every radius below it miss
        mid = (low + radius) // 2
        mid_tail = _series_tail(lam, c, mid, g)
        if mid_tail * scale <= tol:
            radius, tail = mid, mid_tail
        else:
            low = mid
    points = (2 * radius + 1) ** g
    if points > MAX_BOX_POINTS:
        raise RadiusCapError(
            f"summation box of {points} lattice points at radius {radius} "
            f"exceeds the cap of {MAX_BOX_POINTS}"
        )

    # one axis of the box: rint(-a/n) is 0 for a <= n/2 and -1 above
    side = n * (2 * radius + 1)
    v = np.arange(side) - (n - 1) // 2 - n * radius
    u = v / n
    # bin (a, r) = (v mod n, m mod n), base n: a before r, the first coordinate first
    digit = (v % n) * n**g + (v // n) % n
    # the leading axes are swept as one flat axis, the others stay an open grid
    lead = next(k for k in range(g + 1) if side ** (g - k) <= CHUNK_POINTS)
    grid = g - lead
    step = CHUNK_POINTS // side**grid
    trailing = [ix[None] for ix in np.ix_(*[np.arange(side)] * grid)]
    mat = tau.mat
    sums = np.zeros(size, dtype=complex)
    for start in range(0, side**lead, step):
        flat = np.arange(start, min(start + step, side**lead))
        leading = []
        for _ in range(lead):
            flat, index = np.divmod(flat, side)
            leading.insert(0, index.reshape((-1,) + (1,) * grid))
        axes = leading + trailing
        x = [u[ix] for ix in axes]
        # u^t tau u + 2 u.z, nested axis by axis so every product broadcasts
        expo = sum(
            x[i] * (mat[i, i] * x[i] + 2 * (z_red[i] + sum(mat[i, j] * x[j] for j in range(i + 1, g))))
            for i in range(g)
        )
        expo *= 1j * math.pi
        weight = np.exp(expo, out=expo).ravel()
        bins = sum(digit[ix] * n ** (g - 1 - i) for i, ix in enumerate(axes)).ravel()
        sums += np.bincount(bins, weight.real, size) + 1j * np.bincount(bins, weight.imag, size)

    rows = n**g
    # sum_r S_a(r) e(r.b/n) for every b: n^g times the inverse DFT over the r axes
    phased = rows * np.fft.ifftn(sums.reshape((rows,) + (n,) * g), axes=range(1, g + 1))
    # a and b of each row and column; every twiddle is e(k / n^2) with
    # k = a.b + n (a.s_one - s_tau.b)
    vecs = np.indices((n,) * g).reshape(g, -1).T
    k = vecs @ vecs.T + n * ((vecs @ s_one)[:, None] - (vecs @ s_tau)[None, :])
    roots = np.exp(2j * math.pi * np.arange(n * n) / (n * n))
    values = base * (roots[k % (n * n)] * phased.reshape(rows, rows)).ravel()
    return ThetaValues(values, float(tail * scale), radius)


def classify_magnitudes(mags, tail_bound):
    """Vanishing flags for a family of magnitudes under the threshold policy.

    vanishing if < 1e-6 * max, nonvanishing if > 1e-3 * max; anything in the
    band raises AmbiguousVanishingError listing the offending indices.  Each
    magnitude may be off by up to tail_bound, so unless that is below 1e-6 *
    max the band cannot tell a vanishing value from a small one, and
    AmbiguousVanishingError, with no offenders, is raised as well.
    """
    mags = np.asarray(mags, dtype=float)
    top = float(mags.max()) if mags.size else 0.0
    if top <= 0:
        raise ThetaLabError("all magnitudes vanish; cannot normalize the table")
    if tail_bound >= VANISH_REL * top:
        raise AmbiguousVanishingError(
            f"tail bound {tail_bound:.3g} is not below {VANISH_REL:g} x the largest magnitude {top:.3g}"
        )
    rel = mags / top
    band = np.nonzero((rel >= VANISH_REL) & (rel <= NONVANISH_REL))[0]
    if band.size:
        raise AmbiguousVanishingError(
            "magnitudes in the undecidable band "
            f"[{VANISH_REL:g}, {NONVANISH_REL:g}] x max at indices {band.tolist()}",
            offenders=band.tolist(),
        )
    return rel < VANISH_REL


@dataclass
class ConstantTable:
    """All level-n theta constants at tau with vanishing flags and margins.

    certified is True when the exact product rule decides vanishing: level 2
    and exactly diagonal tau, where each constant is a product of genus-1
    constants and theta[a/2; b/2] of genus 1 vanishes iff ab = 1.  Otherwise
    the threshold policy of classify_magnitudes decides, once the tail bound
    is below its vanishing threshold.  A table with a non-finite magnitude is
    refused.
    """

    tau: PeriodMatrix
    n: int
    values: np.ndarray
    tail_bound: float
    magnitudes: np.ndarray = field(init=False)
    max_magnitude: float = field(init=False)
    certified: bool = field(init=False)
    _flags: np.ndarray = field(init=False, default=None, repr=False)

    def __post_init__(self):
        self.magnitudes = np.abs(self.values)
        if not np.isfinite(self.magnitudes).all():
            raise ThetaLabError("constant table holds non-finite values")
        self.max_magnitude = float(self.magnitudes.max())
        if self.max_magnitude <= 0:
            raise ThetaLabError("constant table has no nonvanishing entry")
        mat = self.tau.mat
        self.certified = self.n == 2 and np.array_equal(mat, np.diag(np.diagonal(mat)))

    @property
    def margins(self):
        return self.magnitudes / self.max_magnitude

    def vanishing_flags(self):
        """The table's one vanishing decision, made on first use (read-only)."""
        if self._flags is None:
            if self.certified:
                # index = a||b in binary, so some a_i b_i = 1 iff the two halves share a bit
                index = np.arange(4**self.tau.g)
                flags = ((index >> self.tau.g) & index) != 0
            else:
                try:
                    flags = classify_magnitudes(self.magnitudes, self.tail_bound)
                except AmbiguousVanishingError as exc:
                    if not exc.offenders:
                        raise
                    names = [characteristic_keys(self.tau.g, self.n)[i] for i in exc.offenders]
                    raise AmbiguousVanishingError(
                        f"undecidable theta constants at characteristics {names}",
                        offenders=exc.offenders,
                    ) from None
            flags.setflags(write=False)
            self._flags = flags
        return self._flags

    def columns(self):
        """The table as plain Python lists, one per field, in index order:
        the keys, magnitudes, margins, the real and imaginary parts of the
        values, and the vanishing flags."""
        return {
            "char": list(characteristic_keys(self.tau.g, self.n)),
            "magnitude": self.magnitudes.tolist(),
            "margin": self.margins.tolist(),
            "value_re": self.values.real.tolist(),
            "value_im": self.values.imag.tolist(),
            "vanishing": self.vanishing_flags().tolist(),
        }


def constant_table(tau: PeriodMatrix, n: int, tol: float = DEFAULT_TOL) -> ConstantTable:
    """Table of all n^{2g} theta constants theta[delta; eps](tau, 0)."""
    table = theta_table(tau, np.zeros(tau.g), n, tol)
    return ConstantTable(tau, n, table.values, table.tail_bound)


@dataclass
class TorsionCount:
    """Theta(n) with the decision margins of the vanishing classification."""

    count: int
    n: int
    g: int
    min_nonvanishing_margin: float
    max_vanishing_margin: float
    certified: bool

    def to_json(self):
        return {
            "theta_n": self.count,
            "n": self.n,
            "g": self.g,
            "margins": {
                "min_nonvanishing": self.min_nonvanishing_margin,
                "max_vanishing": self.max_vanishing_margin,
            },
            "certified": self.certified,
        }


def count_torsion(
    tau: PeriodMatrix, n: int, tol: float = DEFAULT_TOL, table: ConstantTable = None
) -> TorsionCount:
    """Theta(n): number of vanishing level-n theta constants at tau.

    Pass the table when it is already evaluated at (tau, n) to count from it;
    ValueError if it was evaluated at another level or another tau.
    """
    if table is None:
        table = constant_table(tau, n, tol)
    elif table.n != n:
        raise ValueError(f"the table is of level {table.n}, not {n}")
    elif table.tau is not tau and not np.array_equal(table.tau.mat, tau.mat):
        raise ValueError("the table was evaluated at another tau")
    flags = table.vanishing_flags()
    margins = table.margins
    nonvan = margins[~flags]
    van = margins[flags]
    return TorsionCount(
        count=int(flags.sum()),
        n=n,
        g=tau.g,
        min_nonvanishing_margin=float(nonvan.min()) if nonvan.size else math.inf,
        max_vanishing_margin=float(van.max()) if van.size else 0.0,
        certified=table.certified,
    )


def m_count(tau: PeriodMatrix, y, tol: float = DEFAULT_TOL) -> int:
    """Number of half-integer characteristics with theta(tau, 2y) nonvanishing."""
    y = np.asarray(y, dtype=complex)
    table = theta_table(tau, 2 * y, 2, tol)
    flags = classify_magnitudes(np.abs(table.values), table.tail_bound)
    return int((~flags).sum())


def addition_residual(tau: PeriodMatrix, z, tol: float = DEFAULT_TOL) -> float:
    """Largest normalized residual of the level-2 addition formula

    theta[d;e](tau,0) theta[d;e](tau,2z)
      = sum_sigma (-1)^{<2e,2sigma>} theta[s;0](2tau,2z) theta[d+s;0](2tau,2z)

    over all 4^g half-integer characteristics [d; e], with sigma running over
    half-integer vectors; each of the three tables is evaluated once.
    """
    g = tau.g
    z = np.asarray(z, dtype=complex)
    at0 = theta_table(tau, np.zeros(g), 2, tol).values.tolist()
    at2z = theta_table(tau, 2 * z, 2, tol).values.tolist()
    # the index of a level-2 entry is a||b in binary, so theta[s; 0] sits at s 2^g
    at2tau = theta_table(tau.scaled(2), 2 * z, 2, tol).values[:: 2**g].tolist()
    worst = 0.0
    for i in range(4**g):
        a, b = i >> g, i & (2**g - 1)
        lhs = at0[i] * at2z[i]
        rhs = 0j
        for s in range(2**g):
            sign = (-1) ** bin(b & s).count("1")
            rhs += sign * at2tau[s] * at2tau[a ^ s]
        worst = max(worst, abs(lhs - rhs) / (1 + max(abs(lhs), abs(rhs))))
    return worst


def fay_relation_residual(tau: PeriodMatrix, z, tol: float = DEFAULT_TOL) -> float:
    """Largest residual of sum_m v_m theta_m(tau,0)^2 theta_m(tau,2z)^2 over
    K_g^+, over all columns v of the block N; both tables are evaluated once."""
    g = tau.g
    z = np.asarray(z, dtype=complex)
    _, _, n = split_blocks(build_M(g))
    # the rows of N follow the canonical order of the even characteristics
    even = ~odd_mask(g)
    at0 = theta_table(tau, np.zeros(g), 2, tol).values[even].tolist()
    at2z = theta_table(tau, 2 * z, 2, tol).values[even].tolist()
    quartics = [t0 * t0 * t2 * t2 for t0, t2 in zip(at0, at2z)]
    worst = 0.0
    for column in n.T.tolist():
        terms = [v * q for v, q in zip(column, quartics)]
        worst = max(worst, abs(sum(terms)) / (1 + max(abs(t) for t in terms)))
    return worst

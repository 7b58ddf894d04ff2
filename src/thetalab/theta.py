"""Numerical theta functions with rational characteristics.

theta[delta; eps](tau, z) = sum_m exp[pi i (m+delta)^t tau (m+delta)
                                     + 2 pi i (m+delta)^t (z+eps)]

summed over an integer box of the least radius, found by bisection, whose
rigorous geometric majorant of the tail meets the requested tolerance.
Before summing, z is reduced by quasi-periodicity (z = tau p + q with p, q
shifted into a half-open unit box) and the nonvanishing exponential factor
is tracked, so the returned value is theta at the original z.

A whole level-n table is one sum over one box.  The exponent splits into
terms of one and two coordinates, so a point's weight is one real
exponential times a product of unit phases read from small tables, and the
sums over the characteristics factor by axis: each axis is contracted with
roots of unity by one matrix product, with no transform and no binning.
What depends on neither tau nor z is built once and read by every call: the
gather and twiddle exponents once per (g, n), at most MAX_CHARACTERISTICS
entries each, and the axis grids, roots of unity and step matrix once per
(n, r), O(n r) entries each.  The reduction runs only for nonzero z; at
z = 0 it is the identity.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .characteristics import characteristic_keys, enumerate_characteristics, odd_mask, table_size
from .errors import AmbiguousVanishingError, RadiusCapError, ThetaLabError
from .matrices import build_M, split_blocks

DEFAULT_TOL = 1e-12
RADIUS_CAP = 60
# the work cap on one characteristic's box (2r+1)^g
MAX_BOX_POINTS = 1_000_000
# the most points of the shared box theta_table holds at once: a point costs
# about 40 bytes at g = 3 and 60 at g = 2, and every table of g <= 3 in
# normal use fits in one slab
CHUNK_POINTS = 2**16
VANISH_REL = 1e-6
NONVANISH_REL = 1e-3


class PeriodMatrix:
    """Point of the Siegel upper-half space: symmetric tau with Im tau > 0."""

    SYMMETRY_TOL = 1e-12
    # E, the bound on |tau_ij|.  theta_table's exponent tables hold
    # (tau_ii - sum_{l != i} tau_il) u^2 + 2 z_i u and tau_il u^2 with
    # |u| <= 3 RADIUS_CAP + 2 = 182 and the reduced z of real and imaginary
    # parts at most g E / 2 + 1/2, so the parts of a term are at most
    # 2 g E u^2, and _slab_weights sums g (g + 1) / 2 terms times pi: at most
    # pi g^2 (g + 1) E 182^2 < 6e7 E at g <= 8, the most MAX_CHARACTERISTICS
    # allows.  At E = 1e300 that stays below the float maximum 1.8e308.
    ENTRY_MAX = 1e300

    def __init__(self, mat):
        mat = np.asarray(mat, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or not mat.size:
            raise ValueError("tau must be a non-empty square matrix")
        if not np.isfinite(mat).all():
            raise ValueError("tau must be finite")
        if (np.abs(mat) > self.ENTRY_MAX).any():
            raise ValueError(f"tau entries must be at most {self.ENTRY_MAX:g} in modulus")
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

    def to_json(self):
        return {
            "g": self.g,
            "re": [[float(x) for x in row] for row in self.re],
            "im": [[float(x) for x in row] for row in self.im],
        }

    @classmethod
    def from_json(cls, obj) -> "PeriodMatrix":
        if isinstance(obj["g"], bool):  # operator.index(True) is 1
            raise ValueError("g must be an integer, not a boolean")
        g = operator.index(obj["g"])  # refuses 2.5, which int() would read as 2
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
        if re.shape != (g, g) or im.shape != (g, g):
            raise ValueError("re/im must be g x g row-major arrays")
        # numpy would read the string "0.25" and the boolean true as numbers
        entries = [x for key in ("re", "im") for row in obj[key] for x in row]
        if any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in entries):
            raise ValueError("re/im entries must be JSON numbers")
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
    integers.  So one box holds the points of every characteristic, and

        theta[a/n; b/n](tau, z) = sum_{v = a mod n} w(v) e(v.b/n^2),

    where e(x) = exp(2 pi i x) and w(v) = exp(pi i u^t tau u + 2 pi i u.z),
    u = v/n.  The exponent is a sum of terms in u_i and in u_i + u_l, each
    tabulated once as a real exponent and a unit phase, so a point costs one
    real exponential and a few complex products.  With v = start + n j + t
    (t < n) on each axis, e(v b/n^2) = e((start + t) b/n^2) e(j b/n): the
    j axes are contracted one at a time with the matrix e(j b/n), leaving
    (t, b) for every axis, and one gather with the twiddle e((start + t) b/n^2)
    and the quasi-periodic phase puts the entries in index order.  The box is
    swept in slabs of at most CHUNK_POINTS points.

    Only the exponent tables and the sum depend on tau and z.  The row
    gather and the twiddle exponents at zero shift are built once per (g, n)
    (_level_tables, at most MAX_CHARACTERISTICS entries each), and the grids
    of u, the roots of unity and the matrix e(j b/n) once per (n, r)
    (_axis_tables, O(n r) entries each); both are read-only.  At z = 0 the
    reduction is the identity, so it is skipped: no shift and factor 1.
    """
    g = tau.g
    table_size(g, n)  # refuses a level below 2 or a table over MAX_CHARACTERISTICS
    if not tol > 0:
        raise ValueError("tol must be positive")
    if tol == math.inf:
        raise ValueError("tol must be finite, got inf")
    z = np.asarray(z, dtype=complex)
    if z.shape != (g,):
        raise ValueError(f"dimensions differ: z has shape {z.shape}, tau has genus {g}")
    if not np.isfinite(z).all():
        raise ValueError(f"z must be finite, got {z}")

    # quasi-periodic reduction: z = z_red + tau s_tau + s_one with p, q in
    # [-1/2, 1/2).  At z = 0 it is the identity: no shift and factor 1
    s_tau = s_one = np.zeros(g, dtype=np.int64)
    z_red, base = z, 1 + 0j
    if z.any():
        p = np.linalg.solve(tau.im, z.imag)
        q = z.real - tau.re @ p
        shifts = np.floor(np.concatenate([p, q]) + 0.5)
        if not (np.abs(shifts) < 2.0**63).all():
            raise ValueError(f"z is too large to reduce: the lattice shifts {shifts} exceed int64")
        s_tau, s_one = np.split(shifts.astype(np.int64), 2)
        z_red = z - tau.mat @ s_tau - s_one
        # theta(z) = base e((a.s_one - s_tau.b)/n) theta(z_red) for characteristic (a, b)
        with np.errstate(over="ignore", invalid="ignore"):
            base = np.exp(-1j * math.pi * (s_tau @ tau.mat @ s_tau) - 2j * math.pi * (s_tau @ z_red))
        if base == 0:
            raise ThetaLabError("quasi-periodicity factor underflowed to zero")
        if not np.isfinite(base):
            raise ThetaLabError("quasi-periodicity factor overflowed")

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

    # u^t tau u + 2 u.z = sum_i (d_i u_i^2 + 2 z_i u_i) + sum_{i<l} tau_il (u_i + u_l)^2
    # with d_i = tau_ii - sum_{l != i} tau_il.  Row i of `terms` is axis term i
    # at u = (start + k)/n, and the rows after it are the pair terms at
    # u_i + u_l = (2 start + k)/n, k = k_i + k_l, in (i, l) order
    span = 2 * radius + 1
    side = n * span
    x, squares, pair_squares, roots, steps = _axis_tables(n, radius)
    mat = tau.mat
    pairs = [mat[i, l] for i in range(g) for l in range(i + 1, g)]
    terms = np.concatenate(
        [np.outer(2 * mat.diagonal() - mat.sum(axis=1), squares) + np.outer(2 * z_red, x), np.outer(pairs, pair_squares)]
    )
    # each term as its real exponent -pi Im and its unit phase exp(pi i Re): the
    # axis terms over k, and pair term p as the side x side view
    # H[p, k_i, k_l] = row[k_i + k_l], whose last entry is its row's last,
    # 2 side - 2.  numpy's sliding_window_view builds the same view, but its
    # two calls make a (2, 2) to (3, 3) table 12-23 % slower; the constructor
    # checks the view against the buffer all the same.
    real, phase = (
        (t[:g, :side], np.ndarray((len(t) - g, side, side), t.dtype, t[g:], 0, t.strides + t.strides[1:]))
        for t in (-math.pi * terms.imag, np.exp(1j * math.pi * terms.real))
    )

    # write v = start + n j + t with t < n.  Entry (a, b) sums the weight times
    # e(v.b/n^2) over the points with v = a (mod n), and on each axis
    # e(v b/n^2) = e((start + t) b/n^2) e(j b/n).  So the j axes are contracted
    # one at a time with steps[j, b] = e(j b/n), and the twiddle is applied
    # once at the end.  The box is swept in slabs of whole j blocks of axis
    # `lead`, the axes before it fixed to one point, so that a slab holds at
    # most CHUNK_POINTS points.  A slab takes at least min(n, span) blocks
    # where it can: the sum over j then makes no array longer than the slab,
    # except where a whole axis holds fewer than n blocks and the table itself
    # is the larger one.
    lead = next((i for i in range(g) if n * min(n, span) * side ** (g - 1 - i) <= CHUNK_POINTS), g - 1)
    blocks = max(1, CHUNK_POINTS // (n * side ** (g - 1 - lead)))
    free = g - lead
    table = np.zeros((n,) * (2 * g), dtype=complex)
    for fixed in np.ndindex((side,) * lead):
        # a fixed axis contributes e(j b/n) over its b
        factor = np.ones(())
        for point in fixed:
            factor = np.multiply.outer(factor, steps[point // n])
        factor = factor.reshape((1,) * free + (n,) * lead + (1,) * free)
        for j0 in range(0, span, blocks):
            j1 = min(j0 + blocks, span)
            lo = [*fixed, n * j0] + [0] * (free - 1)
            hi = [point + 1 for point in fixed] + [n * j1] + [side] * (free - 1)
            y = _slab_weights(lo, hi, real, phase).reshape(j1 - j0, -1)
            # axis `lead`: (j, rest) -> (b, rest) as one left product
            y = steps[j0:j1].T @ y
            for i in range(1, free):
                # (b, t_lead..t_{lead+i-1}, j, rest) -> (b, t_lead.., rest, b_{lead+i})
                y = y.reshape(n ** (i + 1), span, -1).transpose(0, 2, 1).reshape(-1, span) @ steps
            # (b_lead, t_lead.., b..) -> (t_lead.., b_lead, b..), then the fixed axes' t and b
            y = y.reshape((n,) * (2 * free)).transpose(*range(1, free + 1), 0, *range(free + 1, 2 * free))
            table[tuple(point % n for point in fixed)] += y.reshape((n,) * free + (1,) * lead + (n,) * free) * factor

    # row a of the result is row t = (a - start) mod n of the table, and entry
    # (a, b) takes the twiddle e(k/n^2), k = (start + t).b + n (a.s_one - s_tau.b),
    # with start = start_0 - n r
    vecs, rows, twiddle = _level_tables(g, n)
    k = twiddle + n * ((vecs @ (s_one % n))[:, None] - vecs @ (radius + s_tau % n))
    values = table.reshape(n**g, n**g)[rows]
    values *= roots[k % (n * n)]
    values *= base
    return ThetaValues(values.ravel(), float(tail * scale), radius)


@cache
def _axis_tables(n: int, radius: int):
    """The tables of one axis of theta_table's level-n box of radius r that
    depend on neither tau nor z, built once per (n, r), each O(n r) and
    read-only: the grid x = u = (start + k)/n for k < 2 side - 1, x^2,
    (x + start/n)^2, the n^2-th roots of unity e(k/n^2) and
    steps[j, b] = e(j b/n) for j < span = 2r + 1.

    rint(-a/n) is 0 for a <= n/2 and -1 above, so the axis is the run
    v = start + k, k < side = n span, start = -floor((n - 1)/2) - n r.  The
    roots are e(q/n) e(s/n^2), k = q n + s: 2n complex exponentials rather
    than n^2.
    """
    span = 2 * radius + 1
    side = n * span
    start = -((n - 1) // 2) - n * radius
    x = (start + np.arange(2 * side - 1)) / n
    turns = 2j * math.pi * np.arange(n)
    roots = np.multiply.outer(np.exp(turns / n), np.exp(turns / (n * n))).ravel()
    steps = roots[n * np.outer(np.arange(span), np.arange(n)) % (n * n)]
    arrays = x, x * x, (x + start / n) ** 2, roots, steps
    for array in arrays:
        array.setflags(write=False)
    return arrays


@cache
def _level_tables(g: int, n: int):
    """The gather of the level-n table, built once per (g, n) and read-only,
    each at most MAX_CHARACTERISTICS entries: vecs, the numerators a of the
    characteristics in index order; rows, the row of the summed table that
    holds numerator a, the index of t = (a - start) mod n; and twiddle, the
    exponent (start_0 + t).b at start_0 = -floor((n - 1)/2), that is at
    radius 0 and zero shift, over (a, b)."""
    vecs = enumerate_characteristics(g, n)[: n**g, g:]
    pos = (vecs + (n - 1) // 2) % n
    rows = pos @ n ** np.arange(g - 1, -1, -1)
    twiddle = (pos - (n - 1) // 2) @ vecs.T
    for array in (rows, twiddle):
        array.setflags(write=False)
    return vecs, rows, twiddle


def _slab_weights(lo, hi, real, phase):
    """The weight exp(pi i (u^t tau u + 2 u.z)) at every point lo <= k < hi of
    the box.  real and phase each hold the axis terms (rows 0..g-1, over k)
    and the pair terms (over (k_i, k_l), in (i, l) order) as real exponents
    and unit phases.

    The tables multiply as open-grid broadcasts.  The pair (i, i+1) carries
    axis i, and the last pair the last axis too; at g = 1 the axis table is
    the only one.  The real exponents are summed before the one exponential:
    a single pair's may overflow where their sum cannot.
    """
    g = len(lo)
    box = [slice(l, h) for l, h in zip(lo, hi)]
    if g == 1:
        return np.exp(real[0][0, box[0]]) * phase[0][0, box[0]]
    (axes, pairs), (axes_phase, pairs_phase) = real, phase
    total = np.zeros([h - l for l, h in zip(lo, hi)])
    factors = []
    for p, (i, l) in enumerate((i, l) for i in range(g) for l in range(i + 1, g)):
        pair = [pairs[p, box[i], box[l]], pairs_phase[p, box[i], box[l]]]
        if l == i + 1:
            pair = [pair[0] + axes[i, box[i], None], pair[1] * axes_phase[i, box[i], None]]
        if l == i + 1 == g - 1:
            pair = [pair[0] + axes[l, box[l]], pair[1] * axes_phase[l, box[l]]]
        shape = [1] * g
        shape[i], shape[l] = pair[0].shape
        total += pair[0].reshape(shape)
        factors.append(pair[1].reshape(shape))
    weight = np.exp(total, out=total).astype(complex)
    for factor in factors:
        weight *= factor
    return weight


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


@cache
def product_rule_flags(g: int, n: int) -> np.ndarray:
    """The vanishing flags of the level-n constants at an exactly diagonal
    tau, in index order, built once per (g, n) and read-only.  Each constant
    is a product of genus-1 constants, and theta[a/n; b/n] of genus 1
    vanishes at z = 0 iff a/n = b/n = 1/2, that is 2a = 2b = n."""
    half = 2 * enumerate_characteristics(g, n) == n
    flags = (half[:, :g] & half[:, g:]).any(axis=1)
    flags.setflags(write=False)
    return flags


@dataclass
class ConstantTable:
    """All level-n theta constants at tau, their vanishing flags and margins,
    and Theta(n), the number that vanish.  The flags are read-only.

    The table makes its one vanishing decision at construction.  certified
    is True when the exact product rule decides: level 2 and exactly
    diagonal tau.  Otherwise the threshold policy of classify_magnitudes
    decides, once the tail bound is below its vanishing threshold, and at an
    exactly diagonal tau the product rule checks it: a disagreement raises
    AmbiguousVanishingError.  A table with a non-finite magnitude is refused.
    """

    tau: PeriodMatrix
    n: int
    values: np.ndarray
    tail_bound: float
    magnitudes: np.ndarray = field(init=False)
    max_magnitude: float = field(init=False)
    certified: bool = field(init=False)
    flags: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.magnitudes = np.abs(self.values)
        if not np.isfinite(self.magnitudes).all():
            raise ThetaLabError("constant table holds non-finite values")
        self.max_magnitude = float(self.magnitudes.max())
        if self.max_magnitude <= 0:
            raise ThetaLabError("constant table has no nonvanishing entry")
        mat = self.tau.mat
        rule = product_rule_flags(self.tau.g, self.n) if np.array_equal(mat, np.diag(np.diagonal(mat))) else None
        self.certified = self.n == 2 and rule is not None
        if self.certified:
            self.flags = rule
            return
        try:
            self.flags = classify_magnitudes(self.magnitudes, self.tail_bound)
        except AmbiguousVanishingError as exc:
            if not exc.offenders:
                raise
            raise self._ambiguity("undecidable theta constants", exc.offenders) from None
        if rule is not None and (self.flags != rule).any():
            raise self._ambiguity(
                "the threshold policy contradicts the product rule", np.flatnonzero(self.flags != rule).tolist()
            )
        self.flags.setflags(write=False)

    @property
    def margins(self):
        return self.magnitudes / self.max_magnitude

    @property
    def count(self) -> int:
        """Theta(n): the number of vanishing constants."""
        return int(self.flags.sum())

    def _ambiguity(self, what, offenders):
        names = [characteristic_keys(self.tau.g, self.n)[i] for i in offenders]
        return AmbiguousVanishingError(f"{what} at characteristics {names}", offenders=offenders)

    def to_json(self):
        """Theta(n) with the decision margins of the vanishing classification."""
        margins = self.margins
        nonvan = margins[~self.flags]
        van = margins[self.flags]
        return {
            "theta_n": self.count,
            "n": self.n,
            "g": self.tau.g,
            "margins": {
                "min_nonvanishing": float(nonvan.min()) if nonvan.size else math.inf,
                "max_vanishing": float(van.max()) if van.size else 0.0,
            },
            "certified": self.certified,
        }

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
            "vanishing": self.flags.tolist(),
        }


def constant_table(tau: PeriodMatrix, n: int, tol: float = DEFAULT_TOL) -> ConstantTable:
    """Table of all n^{2g} theta constants theta[delta; eps](tau, 0)."""
    table = theta_table(tau, np.zeros(tau.g), n, tol)
    return ConstantTable(tau, n, table.values, table.tail_bound)


def m_count(tau: PeriodMatrix, y, tol: float = DEFAULT_TOL) -> int:
    """Number of half-integer characteristics with theta(tau, 2y) nonvanishing."""
    y = np.asarray(y, dtype=complex)
    # y + y, not 2 * y: complex multiplication makes an infinite y inf+nanj
    table = theta_table(tau, y + y, 2, tol)
    mags = np.abs(table.values)
    if not np.isfinite(mags).all():
        raise ThetaLabError("theta table holds non-finite values")
    flags = classify_magnitudes(mags, table.tail_bound)
    return int((~flags).sum())


def addition_residual(tau: PeriodMatrix, z) -> float:
    """Largest normalized residual of the level-2 addition formula

    theta[d;e](tau,0) theta[d;e](tau,2z)
      = sum_sigma (-1)^{<2e,2sigma>} theta[s;0](2tau,2z) theta[d+s;0](2tau,2z)

    over all 4^g half-integer characteristics [d; e], with sigma running over
    half-integer vectors; each of the three tables is evaluated once.  Each
    residual is relative to 1 + the largest of |lhs| and the sigma terms,
    so cancellation in the sigma sum does not read as error.
    """
    g = tau.g
    z = np.asarray(z, dtype=complex)
    at0 = theta_table(tau, np.zeros(g), 2).values.tolist()
    at2z = theta_table(tau, z + z, 2).values.tolist()
    # the index of a level-2 entry is a||b in binary, so theta[s; 0] sits at s 2^g
    at2tau = theta_table(PeriodMatrix(2 * tau.mat), z + z, 2).values[:: 2**g].tolist()
    worst = 0.0
    for i in range(4**g):
        a, b = i >> g, i & (2**g - 1)
        lhs = at0[i] * at2z[i]
        terms = [(-1) ** bin(b & s).count("1") * at2tau[s] * at2tau[a ^ s] for s in range(2**g)]
        rhs = sum(terms)
        worst = max(worst, abs(lhs - rhs) / (1 + max(abs(lhs), *map(abs, terms))))
    return worst


def fay_relation_residual(tau: PeriodMatrix, z) -> float:
    """Largest residual of sum_m v_m theta_m(tau,0)^2 theta_m(tau,2z)^2 over
    K_g^+, over all columns v of the block N; both tables are evaluated once."""
    g = tau.g
    z = np.asarray(z, dtype=complex)
    _, _, n = split_blocks(build_M(g))
    # the rows of N follow the canonical order of the even characteristics
    even = ~odd_mask(g)
    at0 = theta_table(tau, np.zeros(g), 2).values[even].tolist()
    at2z = theta_table(tau, z + z, 2).values[even].tolist()
    quartics = [t0 * t0 * t2 * t2 for t0, t2 in zip(at0, at2z)]
    worst = 0.0
    for column in n.T.tolist():
        terms = [v * q for v, q in zip(column, quartics)]
        worst = max(worst, abs(sum(terms)) / (1 + max(abs(t) for t in terms)))
    return worst

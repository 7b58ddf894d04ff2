"""Numerical theta functions with rational characteristics.

theta[delta; eps](tau, z) = sum_m exp[pi i (m+delta)^t tau (m+delta)
                                     + 2 pi i (m+delta)^t (z+eps)]

summed over an integer box grown adaptively until a rigorous geometric
majorant of the tail drops below the requested tolerance.  Before summing,
z is reduced by quasi-periodicity (z = tau p + q with p, q shifted into a
half-open unit box) and the nonvanishing exponential factor is tracked, so
the returned value is theta at the original z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .characteristics import (
    Characteristic,
    enumerate_characteristics,
    isotropic_vectors,
    parity,
)
from .errors import (
    AmbiguousVanishingError,
    RadiusCapError,
    ThetaLabError,
)
from .matrices import build_M, split_blocks

DEFAULT_TOL = 1e-12
RADIUS_CAP = 60
# largest summation box (2r+1)^g: a box costs about 100 bytes a point, and
# the boxes of g <= 3 in normal use hold a few thousand points
MAX_BOX_POINTS = 1_000_000
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
class ThetaValue:
    """Theta value with a rigorous truncation-error bound."""

    value: complex
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


def theta_table(
    tau: PeriodMatrix, z, chars, tol: float = DEFAULT_TOL, radius_cap: int = RADIUS_CAP
) -> list:
    """Evaluate theta[delta; eps](tau, z) for every characteristic in chars.

    The reduction of z, the summation radius and the tail majorant depend
    only on (tau, z): delta, eps and the integer shifts are real, so they
    leave |factor| unchanged.  Characteristics sharing (n, a) share one
    lattice box, and each lattice point costs one exponential through the
    residue identity

        theta[a/n; b/n](tau, z) = e(a.b/n^2) sum_r S_a(r) e(r.b/n),

    where e(x) = exp(2 pi i x) and S_a(r) sums the weight
    exp(pi i u^t tau u + 2 pi i u.z) over lattice points m = r (mod n), with
    u = m + a/n.  Each eps then costs an n^g-term phase sum over the bins.
    Returns one ThetaValue per characteristic, in the order given.
    """
    if any(ch.g != tau.g for ch in chars):
        raise ValueError("characteristic and period matrix dimensions differ")
    if tol <= 0:
        raise ValueError("tol must be positive")
    g = tau.g
    z = np.asarray(z, dtype=complex).reshape(g)

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

    lam = tau.lam_min
    c = float(np.linalg.norm(z_red.imag))
    scale = abs(base)
    radius = 6
    while True:
        tail = _series_tail(lam, c, radius, g)
        if tail * scale <= tol:
            break
        if radius >= radius_cap:
            raise RadiusCapError(
                f"tolerance {tol} unreachable within radius cap {radius_cap}"
            )
        radius = min(radius_cap, radius + max(4, radius // 2))
    points = (2 * radius + 1) ** g
    if points > MAX_BOX_POINTS:
        raise RadiusCapError(
            f"summation box of {points} lattice points at radius {radius} "
            f"exceeds the cap of {MAX_BOX_POINTS}"
        )
    tail_bound = float(tail * scale)

    groups = {}
    for i, ch in enumerate(chars):
        groups.setdefault((ch.n, ch.a), []).append(i)
    offsets = np.arange(-radius, radius + 1)
    out = [None] * len(chars)
    for (n, a_int), members in groups.items():
        a_vec = np.array(a_int, dtype=np.int64)
        delta = a_vec / n
        center = np.rint(-delta).astype(np.int64)
        # open grid: m_i runs over one axis of the box, u_i = m_i + delta_i
        m = np.ix_(*[offsets + ci for ci in center])
        u = [mi + di for mi, di in zip(m, delta)]
        # u^t tau u + 2 u.z, nested axis by axis so every product broadcasts
        expo = sum(
            u[i]
            * (
                tau.mat[i, i] * u[i]
                + 2 * z_red[i]
                + 2 * sum(tau.mat[i, j] * u[j] for j in range(i + 1, g))
            )
            for i in range(g)
        )
        weight = np.exp(1j * math.pi * expo).ravel()
        # bin r = m mod n, flattened base n with the first coordinate most significant
        bins = sum((mi % n) * n ** (g - 1 - i) for i, mi in enumerate(m)).ravel()
        sums = np.bincount(bins, weight.real, n**g) + 1j * np.bincount(bins, weight.imag, n**g)
        residues = np.indices((n,) * g).reshape(g, -1).T
        # every phase is e(k / n^2): k = n r.b + a.b + n (a.s_one - s_tau.b)
        b_mat = np.array([chars[i].b for i in members], dtype=np.int64)
        k = n * (b_mat @ residues.T) + (
            b_mat @ a_vec + n * (a_vec @ s_one - b_mat @ s_tau)
        )[:, None]
        roots = np.exp(2j * math.pi * np.arange(n * n) / (n * n))
        values = base * (roots[k % (n * n)] * sums).sum(axis=1)
        for i, v in zip(members, values):
            out[i] = ThetaValue(complex(v), tail_bound, radius)
    return out


def theta(
    tau: PeriodMatrix,
    z,
    char: Characteristic,
    tol: float = DEFAULT_TOL,
    radius_cap: int = RADIUS_CAP,
) -> ThetaValue:
    """Evaluate theta[delta; eps](tau, z) with a certified truncation bound."""
    return theta_table(tau, z, [char], tol, radius_cap)[0]


def classify_magnitudes(mags):
    """Vanishing flags for a family of magnitudes under the threshold policy.

    vanishing if < 1e-6 * max, nonvanishing if > 1e-3 * max; anything in the
    band raises AmbiguousVanishingError listing the offending indices.
    """
    mags = np.asarray(mags, dtype=float)
    top = float(mags.max()) if mags.size else 0.0
    if top <= 0:
        raise ThetaLabError("all magnitudes vanish; cannot normalize the table")
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
    the threshold policy of classify_magnitudes decides.
    """

    tau: PeriodMatrix
    n: int
    chars: list
    values: np.ndarray
    tail_bounds: np.ndarray
    magnitudes: np.ndarray = field(init=False)
    max_magnitude: float = field(init=False)
    certified: bool = field(init=False)
    _flags: np.ndarray = field(init=False, default=None, repr=False)

    def __post_init__(self):
        self.magnitudes = np.abs(self.values)
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
                a = np.array([c.a for c in self.chars])
                b = np.array([c.b for c in self.chars])
                flags = (a * b).any(axis=1)
            else:
                try:
                    flags = classify_magnitudes(self.magnitudes)
                except AmbiguousVanishingError as exc:
                    names = [self.chars[i].key() for i in exc.offenders]
                    raise AmbiguousVanishingError(
                        f"undecidable theta constants at characteristics {names}",
                        offenders=exc.offenders,
                    ) from None
            flags.setflags(write=False)
            self._flags = flags
        return self._flags

    def to_json(self):
        flags = self.vanishing_flags()
        return {
            "n": self.n,
            "g": self.tau.g,
            "entries": [
                {
                    "char": c.key(),
                    "value": [float(v.real), float(v.imag)],
                    "magnitude": float(m),
                    "margin": float(m / self.max_magnitude),
                    "vanishing": bool(f),
                }
                for c, v, m, f in zip(self.chars, self.values, self.magnitudes, flags)
            ],
        }


def constant_table(tau: PeriodMatrix, n: int, tol: float = DEFAULT_TOL) -> ConstantTable:
    """Table of all n^{2g} theta constants theta[delta; eps](tau, 0)."""
    if n < 2:
        raise ValueError("level n must be >= 2")
    chars = enumerate_characteristics(tau.g, n)
    vals = theta_table(tau, np.zeros(tau.g), chars, tol)
    return ConstantTable(
        tau,
        n,
        chars,
        np.array([v.value for v in vals]),
        np.array([v.tail_bound for v in vals]),
    )


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

    Pass the table when it is already evaluated at (tau, n) to count from it.
    """
    if table is None:
        table = constant_table(tau, n, tol)
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
    y = np.asarray(y, dtype=complex).reshape(tau.g)
    chars = enumerate_characteristics(tau.g, 2)
    vals = theta_table(tau, 2 * y, chars, tol)
    flags = classify_magnitudes([abs(v.value) for v in vals])
    return int((~flags).sum())


def addition_residual(
    tau: PeriodMatrix, z, char: Characteristic = None, tol: float = DEFAULT_TOL
) -> float:
    """Normalized residual of the level-2 addition formula.

    theta[d;e](tau,0) theta[d;e](tau,2z)
      = sum_sigma (-1)^{<2e,2sigma>} theta[s;0](2tau,2z) theta[d+s;0](2tau,2z)
    with sigma running over half-integer vectors.  With char None, the
    largest residual over all 4^g half-integer characteristics; each of the
    three tables is evaluated once for all of them.
    """
    if char is not None and char.n != 2:
        raise ValueError("the addition formula applies to half-integer characteristics")
    g = tau.g
    z = np.asarray(z, dtype=complex).reshape(g)
    chars = enumerate_characteristics(g, 2) if char is None else [char]
    at0 = theta_table(tau, np.zeros(g), chars, tol)
    at2z = theta_table(tau, 2 * z, chars, tol)

    sigmas = list(product((0, 1), repeat=g))
    s_chars = [Characteristic(g, 2, s, (0,) * g) for s in sigmas]
    at2tau = {
        s: v.value for s, v in zip(sigmas, theta_table(tau.scaled(2), 2 * z, s_chars, tol))
    }
    worst = 0.0
    for ch, t0, t2 in zip(chars, at0, at2z):
        lhs = t0.value * t2.value
        rhs = 0j
        for s in sigmas:
            sign = (-1) ** (sum(x * y for x, y in zip(ch.b, s)) % 2)
            ds = tuple((x + y) % 2 for x, y in zip(ch.a, s))
            rhs += sign * at2tau[s] * at2tau[ds]
        worst = max(worst, abs(lhs - rhs) / (1 + max(abs(lhs), abs(rhs))))
    return worst


def fay_relation_residual(
    tau: PeriodMatrix, z, column: int = None, tol: float = DEFAULT_TOL
) -> float:
    """Residual of sum_m v_m theta_m(tau,0)^2 theta_m(tau,2z)^2 over K_g^+,
    where v is the given column of the block N.  With column None, the
    largest residual over all columns; both tables are evaluated once."""
    g = tau.g
    z = np.asarray(z, dtype=complex).reshape(g)
    _, _, n = split_blocks(build_M(g))
    if column is not None and not (0 <= column < n.shape[1]):
        raise ValueError(f"column must be in [0, {n.shape[1]})")
    # the rows of N follow the canonical order of the even characteristics
    chars = isotropic_vectors(g)
    at0 = [v.value for v in theta_table(tau, np.zeros(g), chars, tol)]
    at2z = [v.value for v in theta_table(tau, 2 * z, chars, tol)]
    quartics = [t0 * t0 * t2 * t2 for t0, t2 in zip(at0, at2z)]
    columns = n.T.tolist()
    worst = 0.0
    for col in range(len(columns)) if column is None else [column]:
        terms = [v * q for v, q in zip(columns[col], quartics)]
        worst = max(worst, abs(sum(terms)) / (1 + max(abs(t) for t in terms)))
    return worst


@dataclass
class QHProfile:
    """Per-coset ranks of the twisted constant matrices."""

    n: int
    g: int
    ranks: list
    theta_n: int
    defect: int

    def to_json(self):
        return {
            "n": self.n,
            "g": self.g,
            "ranks": self.ranks,
            "rank_sum": sum(self.ranks),
            "theta_n": self.theta_n,
            "defect": self.defect,
        }


def qh_rank_profile(tau: PeriodMatrix, n: int, tol: float = DEFAULT_TOL) -> QHProfile:
    """Ranks of T_mu[delta, eps] = exp(2 pi i n delta^t eps) theta[delta; mu](tau, 0)
    for every mu, plus the identity defect n^{2g} - sum_mu rank - Theta(n),
    which is zero by construction: both sides read the table's one vanishing
    decision."""
    if n < 2:
        raise ValueError("level n must be >= 2")
    g = tau.g
    table = constant_table(tau, n, tol)
    # T_mu = diag(theta[.; mu]) F with F the invertible character table of
    # (Z/n)^g, so rank T_mu counts the nonvanishing theta[delta; mu].  Rows of
    # the reshaped flags are delta = a/n, columns mu = b/n (a most significant).
    ranks = (~table.vanishing_flags()).reshape(n**g, n**g).sum(axis=0).tolist()
    theta_n = count_torsion(tau, n, table=table).count
    defect = n ** (2 * g) - sum(ranks) - theta_n
    return QHProfile(n=n, g=g, ranks=ranks, theta_n=theta_n, defect=defect)

import importlib
import json
import math
import tracemalloc
import warnings
from functools import reduce

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from thetalab.characteristics import (
    MAX_CHARACTERISTICS,
    act,
    enumerate_characteristics,
    symplectic_generators,
)
from thetalab import theta
from thetalab.errors import AmbiguousVanishingError, RadiusCapError, ThetaLabError
from thetalab.theta import (
    CHUNK_POINTS,
    MAX_BOX_POINTS,
    PeriodMatrix,
    ThetaValues,
    _series_tail,
    addition_residual,
    classify_magnitudes,
    constant_table,
    fay_relation_residual,
    m_count,
    product_rule_flags,
    random_tau,
    theta_table,
)


def naive_theta(a, b, n, tau, z, radius):
    """Independent oracle: theta[a/n; b/n](tau, z) as the direct sum over the
    box |m_i| <= radius, with no reduction of z, no binning and no transform."""
    g = len(a)
    delta = np.array(a, dtype=float) / n
    eps = np.array(b, dtype=float) / n
    p = np.indices((2 * radius + 1,) * g).reshape(g, -1).T - radius + delta
    quad = np.einsum("ki,ij,kj->k", p, tau, p)
    return np.exp(1j * math.pi * quad + 2j * math.pi * p @ (z + eps)).sum()


def halves(g, n):
    """The pairs (a, b) of the level-n table, in index order."""
    rows = enumerate_characteristics(g, n)
    return zip(rows[:, :g], rows[:, g:])


def test_period_matrix_rejects_asymmetric():
    with pytest.raises(ValueError):
        PeriodMatrix(np.array([[1j, 0.5], [0.1, 2j]]))


def test_period_matrix_rejects_indefinite():
    with pytest.raises(ValueError):
        PeriodMatrix(np.array([[-1j]]))


def test_period_matrix_json_roundtrip():
    tau = random_tau(2, 3)
    blob = json.dumps(tau.to_json())
    back = PeriodMatrix.from_json(json.loads(blob))
    assert np.allclose(back.mat, tau.mat)


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_product_rule_at_level_2_is_the_index_bit_rule(g):
    # the level-2 index is a||b in binary: some a_i b_i = 1 iff the halves share a bit
    index = np.arange(4**g)
    assert product_rule_flags(g, 2).tolist() == (((index >> g) & index) != 0).tolist()


def test_period_matrix_from_json_rejects_bad_shape():
    with pytest.raises(ValueError):
        PeriodMatrix.from_json({"g": 2, "re": [[0.0]], "im": [[1.0]]})


def test_theta_matches_naive_sum_g1():
    tau = PeriodMatrix(np.array([[1j]]))
    table = theta_table(tau, np.zeros(1), 2)
    for (a, b), got in zip(halves(1, 2), table.values):
        want = naive_theta(a, b, 2, tau.mat, np.zeros(1), 12)
        assert abs(got - want) < 1e-12


def test_theta_frozen_value():
    # theta[0;0](i, 0), the classical theta constant at the square lattice
    got = theta_table(PeriodMatrix(np.array([[1j]])), np.zeros(1), 2)
    assert abs(got.values[0] - 1.0864348112133082) < 1e-13
    assert got.tail_bound < 1e-12


def test_theta_matches_naive_sum_g2_offlattice_z():
    tau = random_tau(2, 9)
    z = np.array([0.21, -0.13]) + 1j * np.array([0.05, 0.02])
    table = theta_table(tau, z, 2)
    for (a, b), got in zip(halves(2, 2), table.values[:6]):
        want = naive_theta(a, b, 2, tau.mat, z, 10)
        assert abs(got - want) < 1e-10 * max(1.0, abs(want))


def test_theta_quasi_periodic_reduction_large_z():
    # z far outside the fundamental domain exercises the reduction factor
    tau = random_tau(2, 1)
    z = tau.mat @ np.array([3.0, -2.0]) + np.array([4.0, 5.0]) + np.array([0.3, 0.1])
    got = theta_table(tau, z, 2).values[0b0110]
    want = naive_theta((0, 1), (1, 0), 2, tau.mat, z, 14)
    assert abs(got - want) < 1e-9 * max(1.0, abs(want))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_theta_table_quasi_periodic_reduction_every_level(n):
    # at level 2 the twiddle e(b.s_tau / n) is a sign whichever way it turns;
    # above it the direction of both shifts shows
    tau = random_tau(2, 5)
    z = tau.mat @ np.array([2.0, -1.0]) + np.array([1.0, -3.0]) + np.array([0.2, -0.1])
    table = theta_table(tau, z, n)
    for (a, b), got in zip(halves(2, n), table.values):
        want = naive_theta(a, b, n, tau.mat, z, 14)
        assert abs(got - want) < 1e-9 * max(1.0, abs(want))


def test_theta_level_three_characteristic():
    tau = PeriodMatrix(np.array([[0.1 + 1.2j]]))
    # a||b = 1 2 in base 3
    got = theta_table(tau, np.zeros(1), 3).values[5]
    want = naive_theta((1,), (2,), 3, tau.mat, np.zeros(1), 12)
    assert abs(got - want) < 1e-11


def test_constant_table_level_three_matches_naive_sum():
    # several eps per delta, and delta = 2/3 puts the box centre at -1
    tau = random_tau(2, 4)
    table = constant_table(tau, 3)
    for (a, b), got in zip(halves(2, 3), table.values):
        want = naive_theta(a, b, 3, tau.mat, np.zeros(2), 10)
        assert abs(got - want) < 1e-10 * max(1.0, abs(want))


def test_theta_table_level_two_offlattice_z_matches_naive_sum():
    tau = random_tau(2, 7)
    z = tau.mat @ np.array([1.0, -1.0]) + np.array([0.3, -0.2]) + 0.05j
    # the reduction must carry a nonzero quasi-periodic shift
    assert np.any(np.floor(np.linalg.solve(tau.im, z.imag) + 0.5) != 0)
    for (a, b), got in zip(halves(2, 2), theta_table(tau, z, 2).values):
        want = naive_theta(a, b, 2, tau.mat, z, 14)
        assert abs(got - want) < 1e-9 * max(1.0, abs(want))


@pytest.mark.parametrize(
    "g,n,match",
    [(2, 1, "level n must be >= 2"), (2, 0, "level n must be >= 2"), (2, 17, "exceed the cap"), (4, 5, "exceed the cap")],
)
def test_theta_table_refuses_bad_levels_before_allocating(monkeypatch, g, n, match):
    theta_module = importlib.import_module("thetalab.theta")

    def no_summation(*args):
        raise AssertionError("the radius search ran")

    # the refusal comes before the radius search, so before any box exists
    monkeypatch.setattr(theta_module, "_series_tail", no_summation)
    assert n < 2 or n ** (2 * g) > MAX_CHARACTERISTICS
    with pytest.raises(ValueError, match=match):
        theta_table(random_tau(g, 3), np.zeros(g), n)


def test_theta_table_rejects_wrong_genus():
    for z in (np.zeros(1), np.zeros(3), np.zeros((1, 2))):
        with pytest.raises(ValueError, match="dimensions differ"):
            theta_table(random_tau(2, 3), z, 2)


@pytest.mark.parametrize("shape", [(1, 2), (3,)])
@pytest.mark.parametrize("evaluate", [m_count, addition_residual, fay_relation_residual])
def test_callers_of_theta_table_reject_wrong_genus(evaluate, shape):
    with pytest.raises(ValueError, match="dimensions differ"):
        evaluate(random_tau(2, 3), np.full(shape, 0.1 + 0.05j))


@pytest.mark.parametrize("z", [[np.nan, 0], [0, 1j * np.inf]])
def test_theta_table_refuses_a_non_finite_z(z):
    with pytest.raises(ValueError, match="z must be finite"):
        theta_table(random_tau(2, 0), z, 2)


@pytest.mark.parametrize("z", [[1e20, 0], [0, 1e20j], [-1e300, 0]])
def test_theta_table_refuses_a_z_whose_shifts_exceed_int64(z):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="z is too large to reduce"):
            theta_table(random_tau(2, 0), z, 2)


@pytest.mark.parametrize(
    "z,error,match",
    [
        ([np.nan, 0], ValueError, "z must be finite"),
        ([0, 100j], ThetaLabError, "overflowed"),
        ([np.inf, 0], ValueError, "z must be finite, got \\[inf"),
        ([1e20, 0], ValueError, "z is too large to reduce"),
    ],
)
@pytest.mark.parametrize("evaluate", [m_count, addition_residual, fay_relation_residual])
def test_callers_of_theta_table_refuse_a_non_finite_or_overflowing_z(evaluate, z, error, match):
    # at z = [0, 100j] the quasi-periodicity factor exceeds the float range;
    # an infinite z is reported as given, not as the inf+nanj of 2 * z
    with pytest.raises(error, match=match) as refused:
        evaluate(random_tau(2, 0), z)
    assert ("nan" in str(refused.value)) == bool(np.isnan(z).any())


def test_m_count_refuses_non_finite_magnitudes(monkeypatch):
    monkeypatch.setattr(theta, "theta_table", lambda *args: ThetaValues(np.full(16, np.inf + 0j), 0.0, 0))
    with pytest.raises(ThetaLabError, match="non-finite"):
        m_count(random_tau(2, 0), np.zeros(2))


@pytest.mark.parametrize("tol", [float("nan"), 0.0, -1e-12])
def test_theta_table_refuses_non_positive_tolerance(tol):
    with pytest.raises(ValueError, match="tol must be positive"):
        theta_table(random_tau(2, 3), np.zeros(2), 2, tol)


def test_theta_table_refuses_an_infinite_tolerance():
    # an infinite tol would sum a radius-0 box whatever tau is
    with pytest.raises(ValueError, match="tol must be finite, got inf"):
        theta_table(random_tau(2, 0), np.zeros(2), 2, math.inf)


@st.composite
def small_theta_case(draw):
    g = draw(st.integers(1, 2))
    n = draw(st.integers(2, 6))
    unit = st.floats(-0.5, 0.5)
    re = np.array([[draw(unit) for _ in range(g)] for _ in range(g)])
    im = np.diag([draw(st.floats(0.6, 1.5)) for _ in range(g)])
    if g == 2:
        im[0, 1] = im[1, 0] = draw(st.floats(-0.2, 0.2))
    tau = PeriodMatrix((re + re.T) / 2 + 1j * im)
    z = np.array([draw(unit) for _ in range(g)]) + 1j * np.array(
        [draw(st.floats(-0.1, 0.1)) for _ in range(g)]
    )
    return tau, z, n


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(small_theta_case())
def test_theta_table_property_matches_naive_sum(case):
    # the whole level-n table: every residue a shares the one box
    tau, z, n = case
    table = theta_table(tau, z, n)
    assert len(table.values) == n ** (2 * tau.g)
    for (a, b), got in zip(halves(tau.g, n), table.values):
        want = naive_theta(a, b, n, tau.mat, z, 9)
        assert abs(got - want) < 1e-12


@st.composite
def shifted_g3_theta_case(draw):
    """tau, z, n <= 4 at g = 3 and six entries to check: Im tau is coupled and
    Im z = Im tau p with some |p_i| >= 0.6, so the reduction shifts z."""
    n = draw(st.integers(2, 4))
    unit = st.floats(-0.5, 0.5)
    re = np.array([[draw(unit) for _ in range(3)] for _ in range(3)])
    im = np.diag([draw(st.floats(0.6, 1.5)) for _ in range(3)])
    for i, l in ((0, 1), (0, 2), (1, 2)):
        im[i, l] = im[l, i] = draw(st.sampled_from([-1, 1])) * draw(st.floats(0.05, 0.2))
    tau = PeriodMatrix((re + re.T) / 2 + 1j * im)
    p = np.array([draw(st.floats(-0.4, 0.4)) for _ in range(3)])
    p[draw(st.integers(0, 2))] = draw(st.sampled_from([-1, 1])) * draw(st.floats(0.6, 1.4))
    z = np.array([draw(unit) for _ in range(3)]) + 1j * (im @ p)
    picked = draw(st.lists(st.integers(0, n**6 - 1), min_size=6, max_size=6, unique=True))
    return tau, z, n, picked


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(shifted_g3_theta_case())
def test_theta_table_property_g3_shifted_z_matches_naive_sum(case):
    tau, z, n, picked = case
    assert np.any(np.floor(np.linalg.solve(tau.im, z.imag) + 0.5) != 0)
    table = theta_table(tau, z, n)
    assert len(table.values) == n**6
    chars = enumerate_characteristics(3, n)
    for i in picked:
        want = naive_theta(chars[i, :3], chars[i, 3:], n, tau.mat, z, 9)
        # the quasi-periodic factor makes |theta| large at a shifted z, and
        # rounding grows with it
        assert abs(table.values[i] - want) < 1e-12 * max(1.0, abs(want))


def symplectic_form(g):
    eye = np.eye(g, dtype=np.int64)
    return np.block([[0 * eye, eye], [-eye, 0 * eye]])


@st.composite
def symplectic_case(draw):
    g = draw(st.integers(1, 3))
    gens = symplectic_generators(g)
    word = draw(st.lists(st.integers(0, len(gens) - 1), min_size=1, max_size=3))
    return reduce(np.matmul, [gens[i] for i in word]), random_tau(g, draw(st.integers(0, 10**6)))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(symplectic_case())
def test_theta_constants_obey_symplectic_invariance(case):
    """|theta[gamma.m](gamma tau, 0)| = |det(C tau + D)|^(1/2) |theta[m](tau, 0)|
    for gamma = (A B; C D) in Sp(2g, Z): an oracle that sums a different series.
    Both tables are summed to 1e-15, so truncation stays below the 1e-12 bound."""
    gamma, tau = case
    g = tau.g
    j = symplectic_form(g)
    assert np.array_equal(gamma.T @ j @ gamma, j)
    a, b, c, d = gamma[:g, :g], gamma[:g, g:], gamma[g:, :g], gamma[g:, g:]
    denom = c @ tau.mat + d
    moved = PeriodMatrix((a @ tau.mat + b) @ np.linalg.inv(denom))
    before = np.abs(theta_table(tau, np.zeros(g), 2, 1e-15).values)
    image = act(gamma, np.arange(4**g))
    after = np.abs(theta_table(moved, np.zeros(g), 2, 1e-15).values[image])
    want = np.sqrt(abs(np.linalg.det(denom))) * before
    assert np.max(np.abs(after - want)) <= 1e-12 * np.max(want)


def test_theta_table_level_three_g3_offlattice_z_matches_naive_sum():
    tau = random_tau(3, 2)
    z = np.array([0.17, -0.29, 0.08]) + 1j * np.array([0.04, -0.03, 0.06])
    chars = enumerate_characteristics(3, 3)
    picked = [0, 13, 100, 364, 420, 581, 728]
    table = theta_table(tau, z, 3)
    for i in picked:
        want = naive_theta(chars[i, :3], chars[i, 3:], 3, tau.mat, z, 7)
        assert abs(table.values[i] - want) < 1e-12 * max(1.0, abs(want))


@pytest.fixture
def slabs(monkeypatch):
    """The (lo, hi) corners of each slab of the box, read off _slab_weights."""
    theta_module = importlib.import_module("thetalab.theta")
    corners = []
    slab_weights = theta_module._slab_weights

    def spy(lo, hi, *tables):
        corners.append((tuple(lo), tuple(hi)))
        return slab_weights(lo, hi, *tables)

    monkeypatch.setattr(theta_module, "_slab_weights", spy)
    return corners


def assert_slabs_tile_the_box(corners, side, g, most):
    # each slab holds at most `most` points, and every box point lies in exactly one
    assert max(math.prod(h - l for l, h in zip(lo, hi)) for lo, hi in corners) <= most
    cover = np.zeros((side,) * g, dtype=np.int8)
    for lo, hi in corners:
        cover[tuple(slice(l, h) for l, h in zip(lo, hi))] += 1
    assert np.all(cover == 1)


def test_theta_table_multi_chunk_g4_level_three(slabs):
    # the shared box is 27^4 points at radius 4, more than two chunks hold,
    # and the sweep holds one slab at a time
    tau = random_tau(4, 1)
    z = np.array([0.12, -0.21, 0.05, 0.3]) + 1j * np.array([0.03, 0.0, -0.04, 0.02])
    tracemalloc.start()
    try:
        table = theta_table(tau, z, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert table.radius_used == 4 and 27**4 > 2 * CHUNK_POINTS
    assert len(slabs) > 2
    assert_slabs_tile_the_box(slabs, 27, 4, CHUNK_POINTS)
    chars = enumerate_characteristics(4, 3)
    for i in (0, 1, 82, 2000, 3280, 4321, 6560):
        want = naive_theta(chars[i, :4], chars[i, 4:], 3, tau.mat, z, 5)
        assert abs(table.values[i] - want) < 1e-12 * max(1.0, abs(want))


def test_theta_table_chunks_over_two_leading_axes(monkeypatch, slabs):
    # with slabs of at most 7^2 = 49 points, one row of the first axis of the
    # (2, 14) box (98 points at radius 3) already overflows a slab, so a slab
    # is one point of the first axis and whole j blocks (14 points) of the second
    tau = random_tau(2, 3)
    whole = theta_table(tau, np.zeros(2), 14)
    monkeypatch.setattr(importlib.import_module("thetalab.theta"), "CHUNK_POINTS", 49)
    slabs.clear()
    chunked = theta_table(tau, np.zeros(2), 14)
    assert chunked.radius_used == whole.radius_used == 3
    assert len(slabs) > 2 and all(hi[0] - lo[0] == 1 for lo, hi in slabs)
    assert_slabs_tile_the_box(slabs, 98, 2, 49)
    top = np.max(np.abs(whole.values))
    assert np.max(np.abs(chunked.values - whole.values)) <= 1e-14 * top


@pytest.mark.parametrize("g,n", [(1, 256), (2, 16)])
def test_theta_table_at_the_largest_levels_stays_small(g, n):
    # the largest levels MAX_CHARACTERISTICS allows at g = 1 and 2; a dense
    # side x n^2 projection of one axis would hold 1792 x 65536 complex
    # entries at (1, 256), about 1.9 GB
    assert n ** (2 * g) == MAX_CHARACTERISTICS
    tau = random_tau(g, 4)
    z = np.full(g, 0.21 - 0.07j)
    tracemalloc.start()
    try:
        table = theta_table(tau, z, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    chars = enumerate_characteristics(g, n)
    for i in (0, 1, n**g - 1, n**g + 3, MAX_CHARACTERISTICS // 3, MAX_CHARACTERISTICS - 1):
        want = naive_theta(chars[i, :g], chars[i, g:], n, tau.mat, z, 8)
        assert abs(table.values[i] - want) < 1e-12 * max(1.0, abs(want))


def test_theta_table_box_cap_raises_before_allocating():
    # lam_min = 0.01 meets the tolerance at radius 37, a box of 75^4 points
    tau = PeriodMatrix(0.01j * np.eye(4))
    assert 75**4 > MAX_BOX_POINTS
    with pytest.raises(RadiusCapError, match="lattice points at radius 37 "):
        theta_table(tau, np.zeros(4), 2)


@st.composite
def radius_case(draw):
    g = draw(st.integers(1, 3))
    tau = random_tau(g, draw(st.integers(0, 10**6)))
    re = [draw(st.floats(-2.0, 2.0)) for _ in range(g)]
    im = [draw(st.floats(-0.25, 0.25)) for _ in range(g)]
    assume(any(im))
    return tau, np.array(re) + 1j * np.array(im), draw(st.integers(2, 4)), 10.0 ** -draw(st.integers(4, 15))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(radius_case())
def test_theta_table_sums_at_the_least_radius_that_meets_tol(case):
    tau, z, n, tol = case
    # Im tau >= I and |Im z| < 1/2 leave Im z unreduced, so the quasi-periodic
    # factor is 1 and the majorant is the series tail at c = |Im z|
    assert np.all(np.floor(np.linalg.solve(tau.im, z.imag) + 0.5) == 0)
    c = float(np.linalg.norm(z.imag))
    table = theta_table(tau, z, n, tol)
    r = table.radius_used
    assert table.tail_bound == _series_tail(tau.lam_min, c, r, tau.g) <= tol
    assert r == 0 or _series_tail(tau.lam_min, c, r - 1, tau.g) > tol


def test_theta_table_refuses_an_unreachable_tolerance_in_few_tail_calls(monkeypatch):
    # at lam_min = 1e-5 each majorant walks some 10^4 shells before its
    # geometric remainder, so the refusal must not try radius after radius
    theta_module = importlib.import_module("thetalab.theta")
    calls = []

    def spy(*args):
        calls.append(args)
        return _series_tail(*args)

    monkeypatch.setattr(theta_module, "_series_tail", spy)
    with pytest.raises(RadiusCapError, match="unreachable within radius cap 60"):
        theta_table(PeriodMatrix(np.array([[1e-5j]])), np.zeros(1), 2)
    assert 1 <= len(calls) <= 8


def mpmath_theta(a, b, n, tau, z, terms=30):
    """Independent oracle at g = 1: theta[a/n; b/n](tau, z) as a 40-digit
    direct sum over |m| <= terms, with no reduction of z."""
    with mpmath.workdps(40):
        t, w = mpmath.mpc(tau.real, tau.imag), mpmath.mpc(z.real, z.imag)
        d, e = mpmath.mpf(int(a[0])) / n, mpmath.mpf(int(b[0])) / n
        ipi = mpmath.mpc(0, 1) * mpmath.pi
        return complex(
            mpmath.fsum(mpmath.exp(ipi * ((m + d) ** 2 * t + 2 * (m + d) * (w + e))) for m in range(-terms, terms + 1))
        )


@pytest.mark.parametrize("n", [2, 3, 5])
def test_theta_table_g1_matches_mpmath(n):
    # Im z up to 1 against Im tau down to 1/2 makes the reduction shift z
    rng = np.random.default_rng(n)
    for _ in range(12):
        tau = PeriodMatrix(np.array([[rng.uniform(-0.5, 0.5) + 1j * rng.uniform(0.5, 1.5)]]))
        z = rng.uniform(-1, 1, 1) + 1j * rng.uniform(-1, 1, 1)
        table = theta_table(tau, z, n)
        top = np.max(np.abs(table.values))
        for (a, b), got in zip(halves(1, n), table.values):
            want = mpmath_theta(a, b, n, tau.mat[0, 0], z[0])
            assert abs(got - want) <= table.tail_bound + 1e-13 * top


def test_odd_constant_vanishes():
    tau = PeriodMatrix(np.array([[1j]]))
    v = theta_table(tau, np.zeros(1), 2).values[0b11]
    assert abs(v) < 1e-14


def test_classify_magnitudes_clear_split():
    flags = classify_magnitudes([1.0, 0.9, 1e-9, 0.0], 0.0)
    assert flags.tolist() == [False, False, True, True]


def test_classify_magnitudes_ambiguous_band_raises():
    with pytest.raises(AmbiguousVanishingError) as info:
        classify_magnitudes([1.0, 1e-5], 0.0)
    assert 1 in info.value.offenders


def test_constant_table_g1():
    table = constant_table(random_tau(1, 2), 2)
    assert len(table.values) == 4
    assert table.count == 1


@pytest.mark.parametrize("g,expected", [(1, 1), (2, 6), (3, 28)])
def test_generic_two_torsion_count(g, expected):
    assert constant_table(random_tau(g, 0), 2).count == expected


def test_product_two_torsion_counts():
    # diagonal tau = product of elliptic curves, Theta(2) = 4^g - 3^g
    for g, expected in ((1, 1), (2, 7), (3, 37), (4, 175)):
        tau = PeriodMatrix(np.diag([1.0j * (k + 1) for k in range(g)]))
        table = constant_table(tau, 2)
        assert table.count == expected
        assert table.certified


@pytest.mark.parametrize("g", [1, 2, 3])
def test_certified_flags_follow_the_product_rule(g):
    table = constant_table(PeriodMatrix(np.diag([0.3 * k + 1j * (k + 1) for k in range(g)])), 2)
    assert table.certified
    rule = [bool(np.any(a * b)) for a, b in halves(g, 2)]
    assert table.flags.tolist() == rule


def test_product_count_factorizes():
    # the numerical classification, not the product-rule certificate the
    # tables report at level 2 on diagonal tau
    flags = []
    for t in (np.array([[1.3j]]), np.array([[0.2 + 1.7j]])):
        table = constant_table(PeriodMatrix(t), 2)
        flags.append(classify_magnitudes(table.magnitudes, table.tail_bound))
    joint = constant_table(PeriodMatrix(np.diag([1.3j, 0.2 + 1.7j])), 2)
    assert joint.certified
    numeric = classify_magnitudes(joint.magnitudes, joint.tail_bound)
    assert np.array_equal(numeric, joint.flags)
    # vanishing on the product is the "or" of factor vanishings
    for (a, b), f in zip(halves(2, 2), numeric):
        f1 = flags[0][2 * a[0] + b[0]]
        f2 = flags[1][2 * a[1] + b[1]]
        assert f == (f1 or f2)


def test_four_torsion_g1():
    table = constant_table(random_tau(1, 4), 4)
    assert table.count == 1
    assert table.to_json()["theta_n"] == 1


def test_m_count_range_g2():
    tau = random_tau(2, 6)
    rng = np.random.default_rng(17)
    y = rng.uniform(-0.4, 0.4, 2) + 1j * rng.uniform(-0.1, 0.1, 2)
    m = m_count(tau, y)
    assert 9 <= m <= 16
    assert m_count(tau, np.zeros(2)) == 16 - constant_table(tau, 2).count


def test_addition_residual_small():
    tau = random_tau(2, 8)
    z = np.array([0.11, 0.07]) + 1j * np.array([0.03, -0.02])
    # the largest residual over all 16 characteristics
    assert addition_residual(tau, z) < 1e-10


def test_addition_residual_small_at_larger_imaginary_z():
    # the sigma terms far exceed their sum at this z, so a residual relative
    # to the sum would read cancellation as error
    assert addition_residual(random_tau(2, 0), [0, 2j]) < 1e-10


def test_fay_residual_small():
    tau = random_tau(2, 12)
    z = np.array([0.09, -0.04]) + 1j * np.array([0.02, 0.05])
    assert fay_relation_residual(tau, z) < 1e-10
    assert fay_relation_residual(tau, np.zeros(2)) < 1e-10


@pytest.mark.parametrize("g,n", [(1, 2), (2, 2), (2, 3), (2, 4), (3, 2)])
def test_qh_ranks_match_svd_oracle(g, n):
    # the twisted-constant rank identity n^{2g} = sum_mu rank T_mu + Theta(n),
    # with the ranks from an independent oracle: SVD ranks of
    # T_mu = diag(theta[.; mu]) F, F the character table of (Z/n)^g, with a
    # clear gap between the zero and the nonzero singular values.  Each rank
    # must count the nonvanishing flags of column mu (rows delta = a/n).
    for tau in (random_tau(g, 5), PeriodMatrix(np.diag([1j * (0.8 + 0.4 * k) for k in range(g)]))):
        table = constant_table(tau, n)
        vecs = list(np.ndindex(*(n,) * g))
        f = np.exp(2j * math.pi / n * np.array([[np.dot(d, e) for e in vecs] for d in vecs]))
        consts = table.values.reshape(len(vecs), len(vecs))
        ranks = []
        for mu in range(len(vecs)):
            sv = np.linalg.svd(consts[:, mu, None] * f, compute_uv=False)
            rel = sv / sv[0]
            assert not ((rel >= 1e-8) & (rel <= 1e-4)).any()
            ranks.append(int((rel > 1e-4).sum()))
        nonvanishing = (~table.flags).reshape(len(vecs), len(vecs))
        assert ranks == nonvanishing.sum(axis=0).tolist()
        assert n ** (2 * g) - sum(ranks) == table.count


def test_a_tail_bound_above_the_band_is_undecidable():
    # at tol = 10 the radius-0 box leaves a tail of 5.3 against a largest
    # magnitude of 1.0, so no relative threshold can tell what vanishes:
    # summed at radius 0, none of the six odd constants (Theta(2) = 6) is
    # below 1e-6 of the largest, and the band would count 0
    tau = random_tau(2, 0)
    table = theta_table(tau, np.zeros(2), 2, 10.0)
    top = float(np.abs(table.values).max())
    assert table.tail_bound >= 1e-6 * top
    both = f"tail bound {table.tail_bound:.3g} .* largest magnitude {top:.3g}"
    with pytest.raises(AmbiguousVanishingError, match=both):
        constant_table(tau, 2, 10.0)


def test_m_count_refuses_a_tail_bound_above_the_band():
    # the same radius-0 box as above: m_count shares the table's guard
    with pytest.raises(AmbiguousVanishingError, match="tail bound"):
        m_count(random_tau(2, 0), np.zeros(2), tol=10.0)


def test_vanishing_flags_decided_once_and_read_only():
    table = constant_table(random_tau(2, 0), 2)
    flags = table.flags
    with pytest.raises(ValueError):
        flags[0] = not flags[0]


def test_random_tau_deterministic():
    a = random_tau(3, 42).mat
    b = random_tau(3, 42).mat
    assert np.array_equal(a, b)

import importlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetalab.characteristics import Characteristic, enumerate_characteristics
from thetalab.errors import AmbiguousVanishingError, RadiusCapError
from thetalab.theta import (
    MAX_BOX_POINTS,
    ConstantTable,
    PeriodMatrix,
    addition_residual,
    classify_magnitudes,
    constant_table,
    count_torsion,
    fay_relation_residual,
    m_count,
    qh_rank_profile,
    random_tau,
    theta,
    theta_table,
)


def naive_theta(char, tau, z, radius):
    """Independent oracle: direct lattice sum, no reduction, no vectorization."""
    g = char.g
    delta = np.array(char.a, dtype=float) / char.n
    eps = np.array(char.b, dtype=float) / char.n
    total = 0.0 + 0.0j
    for m in np.ndindex(*(2 * radius + 1,) * g):
        p = np.array(m, dtype=float) - radius + delta
        total += np.exp(1j * math.pi * p @ tau @ p + 2j * math.pi * p @ (z + eps))
    return total


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


def test_period_matrix_from_json_rejects_bad_shape():
    with pytest.raises(ValueError):
        PeriodMatrix.from_json({"g": 2, "re": [[0.0]], "im": [[1.0]]})


def test_theta_matches_naive_sum_g1():
    tau = PeriodMatrix(np.array([[1j]]))
    for a in (0, 1):
        for b in (0, 1):
            c = Characteristic(1, 2, (a,), (b,))
            got = theta(tau, np.zeros(1), c)
            want = naive_theta(c, tau.mat, np.zeros(1), 12)
            assert abs(got.value - want) < 1e-12


def test_theta_frozen_value():
    # theta[0;0](i, 0), the classical theta constant at the square lattice
    got = theta(PeriodMatrix(np.array([[1j]])), np.zeros(1), Characteristic(1, 2, (0,), (0,)))
    assert abs(got.value - 1.0864348112133082) < 1e-13
    assert got.tail_bound < 1e-12


def test_theta_matches_naive_sum_g2_offlattice_z():
    tau = random_tau(2, 9)
    z = np.array([0.21, -0.13]) + 1j * np.array([0.05, 0.02])
    for c in enumerate_characteristics(2, 2)[:6]:
        got = theta(tau, z, c)
        want = naive_theta(c, tau.mat, z, 10)
        assert abs(got.value - want) < 1e-10 * max(1.0, abs(want))


def test_theta_quasi_periodic_reduction_large_z():
    # z far outside the fundamental domain exercises the reduction factor
    tau = random_tau(2, 1)
    c = Characteristic(2, 2, (0, 1), (1, 0))
    z = tau.mat @ np.array([3.0, -2.0]) + np.array([4.0, 5.0]) + np.array([0.3, 0.1])
    got = theta(tau, z, c)
    want = naive_theta(c, tau.mat, z, 14)
    assert abs(got.value - want) < 1e-9 * max(1.0, abs(want))


def test_theta_level_three_characteristic():
    tau = PeriodMatrix(np.array([[0.1 + 1.2j]]))
    c = Characteristic(1, 3, (1,), (2,))
    got = theta(tau, np.zeros(1), c)
    want = naive_theta(c, tau.mat, np.zeros(1), 12)
    assert abs(got.value - want) < 1e-11


def test_constant_table_level_three_matches_naive_sum():
    # several eps per delta, and delta = 2/3 puts the box centre at -1
    tau = random_tau(2, 4)
    table = constant_table(tau, 3)
    for c, got in zip(table.chars, table.values):
        want = naive_theta(c, tau.mat, np.zeros(2), 10)
        assert abs(got - want) < 1e-10 * max(1.0, abs(want))
        assert got == theta(tau, np.zeros(2), c).value


def test_theta_table_level_two_offlattice_z_matches_naive_sum():
    tau = random_tau(2, 7)
    z = tau.mat @ np.array([1.0, -1.0]) + np.array([0.3, -0.2]) + 0.05j
    # the reduction must carry a nonzero quasi-periodic shift
    assert np.any(np.floor(np.linalg.solve(tau.im, z.imag) + 0.5) != 0)
    chars = enumerate_characteristics(2, 2)
    for c, got in zip(chars, theta_table(tau, z, chars)):
        want = naive_theta(c, tau.mat, z, 14)
        assert abs(got.value - want) < 1e-9 * max(1.0, abs(want))


def test_theta_table_rejects_wrong_genus():
    chars = [Characteristic(2, 2, (0, 0), (0, 0)), Characteristic(1, 2, (0,), (1,))]
    with pytest.raises(ValueError, match="dimensions differ"):
        theta_table(random_tau(2, 3), np.zeros(2), chars)


def test_theta_table_mixed_levels_match_naive_sum():
    # a=(1,), n=2 and a=(2,), n=4 share delta = 1/2 but bin lattice points mod 2 and mod 4
    tau = PeriodMatrix(np.array([[0.3 + 0.9j]]))
    z = np.array([0.17 - 0.06j])
    chars = [
        Characteristic(1, 2, (1,), (1,)),
        Characteristic(1, 4, (2,), (1,)),
        Characteristic(1, 4, (2,), (3,)),
        Characteristic(1, 3, (2,), (1,)),
        Characteristic(1, 2, (1,), (0,)),
        Characteristic(1, 5, (4,), (2,)),
        Characteristic(1, 4, (3,), (2,)),
    ]
    for c, got in zip(chars, theta_table(tau, z, chars)):
        want = naive_theta(c, tau.mat, z, 14)
        assert abs(got.value - want) < 1e-12 * max(1.0, abs(want))


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
    residue = st.tuples(*[st.integers(0, n - 1)] * g)
    chars = [
        Characteristic(g, n, draw(residue), draw(residue))
        for _ in range(draw(st.integers(1, 3)))
    ]
    return tau, z, chars


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(small_theta_case())
def test_theta_table_property_matches_naive_sum(case):
    tau, z, chars = case
    for c, got in zip(chars, theta_table(tau, z, chars)):
        want = naive_theta(c, tau.mat, z, 9)
        assert abs(got.value - want) < 1e-12


def test_theta_table_level_three_g3_offlattice_z_matches_naive_sum():
    tau = random_tau(3, 2)
    z = np.array([0.17, -0.29, 0.08]) + 1j * np.array([0.04, -0.03, 0.06])
    chars = enumerate_characteristics(3, 3)
    picked = [0, 13, 100, 364, 420, 581, 728]
    table = theta_table(tau, z, chars)
    for i in picked:
        want = naive_theta(chars[i], tau.mat, z, 7)
        assert abs(table[i].value - want) < 1e-12 * max(1.0, abs(want))


def test_theta_table_box_cap_raises_before_allocating():
    # lam_min = 0.01 meets the tolerance near radius 49, a box of 99^4 points
    tau = PeriodMatrix(0.01j * np.eye(4))
    assert 99**4 > MAX_BOX_POINTS
    with pytest.raises(RadiusCapError, match="lattice points"):
        theta_table(tau, np.zeros(4), [Characteristic(4, 2, (0,) * 4, (0,) * 4)])


def test_odd_constant_vanishes():
    tau = PeriodMatrix(np.array([[1j]]))
    v = theta(tau, np.zeros(1), Characteristic(1, 2, (1,), (1,)))
    assert abs(v.value) < 1e-14


def test_classify_magnitudes_clear_split():
    flags = classify_magnitudes([1.0, 0.9, 1e-9, 0.0])
    assert flags.tolist() == [False, False, True, True]


def test_classify_magnitudes_ambiguous_band_raises():
    with pytest.raises(AmbiguousVanishingError) as info:
        classify_magnitudes([1.0, 1e-5])
    assert 1 in info.value.offenders


def test_constant_table_g1():
    table = constant_table(random_tau(1, 2), 2)
    assert len(table.values) == 4
    assert int(table.vanishing_flags().sum()) == 1


def test_constant_table_json_names_characteristics():
    blob = constant_table(random_tau(1, 2), 2).to_json()
    assert len(blob["entries"]) == 4
    assert all("char" in e and "vanishing" in e for e in blob["entries"])


@pytest.mark.parametrize("g,expected", [(1, 1), (2, 6), (3, 28)])
def test_generic_two_torsion_count(g, expected):
    res = count_torsion(random_tau(g, 0), 2)
    assert res.count == expected


def test_product_two_torsion_counts():
    # diagonal tau = product of elliptic curves, Theta(2) = 4^g - 3^g
    for g, expected in ((1, 1), (2, 7), (3, 37)):
        tau = PeriodMatrix(np.diag([1.0j * (k + 1) for k in range(g)]))
        res = count_torsion(tau, 2)
        assert res.count == expected
        assert res.certified


def test_product_count_factorizes():
    # the numerical classification, not the product-rule certificate the
    # tables report at level 2 on diagonal tau
    flags = []
    for t in (np.array([[1.3j]]), np.array([[0.2 + 1.7j]])):
        flags.append(classify_magnitudes(constant_table(PeriodMatrix(t), 2).magnitudes))
    joint = constant_table(PeriodMatrix(np.diag([1.3j, 0.2 + 1.7j])), 2)
    assert joint.certified
    numeric = classify_magnitudes(joint.magnitudes)
    assert np.array_equal(numeric, joint.vanishing_flags())
    # vanishing on the product is the "or" of factor vanishings
    chars = enumerate_characteristics(2, 2)
    for c, f in zip(chars, numeric):
        f1 = flags[0][2 * c.a[0] + c.b[0]]
        f2 = flags[1][2 * c.a[1] + c.b[1]]
        assert f == (f1 or f2)


def test_four_torsion_g1():
    res = count_torsion(random_tau(1, 4), 4)
    assert res.count == 1
    assert res.to_json()["theta_n"] == 1


def test_m_count_range_g2():
    tau = random_tau(2, 6)
    rng = np.random.default_rng(17)
    y = rng.uniform(-0.4, 0.4, 2) + 1j * rng.uniform(-0.1, 0.1, 2)
    m = m_count(tau, y)
    assert 9 <= m <= 16
    assert m_count(tau, np.zeros(2)) == 16 - count_torsion(tau, 2).count


def test_addition_residual_small():
    tau = random_tau(2, 8)
    z = np.array([0.11, 0.07]) + 1j * np.array([0.03, -0.02])
    for c in enumerate_characteristics(2, 2)[:4]:
        assert addition_residual(tau, z, c) < 1e-10


def test_fay_residual_small():
    tau = random_tau(2, 12)
    z = np.array([0.09, -0.04]) + 1j * np.array([0.02, 0.05])
    assert fay_relation_residual(tau, z, 0) < 1e-10
    assert fay_relation_residual(tau, np.zeros(2), 0) < 1e-10


def test_residuals_over_all_columns_and_characteristics_are_the_max():
    tau = random_tau(2, 12)
    z = np.array([0.09, -0.04]) + 1j * np.array([0.02, 0.05])
    assert fay_relation_residual(tau, z) == max(fay_relation_residual(tau, z, c) for c in range(6))
    chars = enumerate_characteristics(2, 2)
    assert addition_residual(tau, z) == max(addition_residual(tau, z, c) for c in chars)


@pytest.mark.parametrize("g,n", [(1, 2), (2, 2), (2, 3)])
def test_qh_rank_defect_zero(g, n):
    prof = qh_rank_profile(random_tau(g, 5), n)
    assert prof.defect == 0
    assert sum(prof.ranks) + prof.theta_n == n ** (2 * g)


def test_qh_rank_profile_g4_diagonal():
    # a product of four elliptic curves: theta[delta; mu] vanishes exactly
    # when some factor's characteristic is odd, so 3^4 constants survive
    tau = PeriodMatrix(np.diag([1j * (0.8 + 0.4 * k) for k in range(4)]))
    prof = qh_rank_profile(tau, 2)
    assert prof.defect == 0
    assert sum(prof.ranks) == 3**4


@pytest.mark.parametrize("g,n", [(1, 2), (2, 2), (2, 3), (2, 4), (3, 2)])
def test_qh_ranks_match_svd_oracle(g, n):
    # independent oracle: SVD ranks of T_mu = diag(theta[.; mu]) F, with a
    # clear gap between the zero and the nonzero singular values
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
        assert qh_rank_profile(tau, n).ranks == ranks


def test_qh_ranks_count_each_mu_column(monkeypatch):
    # zeroing theta[(1,0)/2; 0] makes the vanishing pattern asymmetric in (a, b),
    # so a rank per delta row instead of per mu column would show
    theta_module = importlib.import_module("thetalab.theta")
    build = theta_module.constant_table

    def one_more_zero(tau, n, tol):
        table = build(tau, n, tol)
        values = table.values.copy()
        values[0b1000] = 0
        return ConstantTable(table.tau, n, table.chars, values, table.tail_bounds)

    monkeypatch.setattr(theta_module, "constant_table", one_more_zero)
    prof = qh_rank_profile(random_tau(2, 0), 2)
    assert prof.ranks == [3, 2, 2, 2]
    assert (prof.theta_n, prof.defect) == (7, 0)


def test_vanishing_flags_decided_once_and_read_only():
    table = constant_table(random_tau(2, 0), 2)
    flags = table.vanishing_flags()
    assert table.vanishing_flags() is flags
    with pytest.raises(ValueError):
        flags[0] = not flags[0]


def test_qh_rank_profile_rejects_oversized_table():
    with pytest.raises(ValueError, match="exceed the cap"):
        qh_rank_profile(random_tau(3, 5), 40)


def test_random_tau_deterministic():
    a = random_tau(3, 42).mat
    b = random_tau(3, 42).mat
    assert np.array_equal(a, b)

"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the summary lines.
"""

import json
import math

import numpy as np
import pytest

from thetalab.bounds import any_theorem_violated, compare, evaluate_bounds
from thetalab.characteristics import enumerate_characteristics, orbits
from thetalab.matrices import (
    build_B,
    build_Bk,
    build_L,
    build_M,
    exact_rank,
    fay_multiplicities,
    split_blocks,
    verify_fay_spectrum,
)
from thetalab.search import h0_exhaustive, h0_probe
from thetalab.theta import (
    PeriodMatrix,
    addition_residual,
    classify_magnitudes,
    constant_table,
    count_torsion,
    fay_relation_residual,
    m_count,
    random_tau,
)


def report(name, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'}  {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def product_tau(g, rng):
    d = rng.uniform(0.5, 2.0, g)
    return PeriodMatrix(np.diag(1j * d))


def test_01_product_extremal_count():
    rng = np.random.default_rng(101)
    ok = True
    for g in (1, 2, 3):
        want = 4**g - 3**g
        for _ in range(3):
            table = constant_table(product_tau(g, rng), 2)
            res = count_torsion(table.tau, 2, table=table)
            # product rule: a level-2 constant of diagonal tau vanishes iff some a_i b_i = 1
            rows = enumerate_characteristics(g, 2)
            rule = np.any(rows[:, :g] * rows[:, g:], axis=1)
            ok = (
                ok
                and res.count == want
                and res.certified
                and np.array_equal(table.vanishing_flags(), rule)
                and np.array_equal(classify_magnitudes(table.magnitudes, table.tail_bound), rule)
            )
    report("product extremal count 1/7/37, certified + numeric agree", ok)


def test_02_generic_count():
    ok = True
    for g, want, seeds in ((2, 6, range(20)), (3, 28, range(5))):
        for seed in seeds:
            res = count_torsion(random_tau(g, seed), 2)
            ok = ok and res.count == want
    report("generic count 2^{g-1}(2^g-1) over seeded tau", ok)


def test_03_bound_satisfaction():
    rng = np.random.default_rng(101)
    taus2 = [product_tau(2, rng) for _ in range(3)] + [random_tau(2, s) for s in range(5)]
    ok = True
    for n in (2, 3, 4):
        for tau in taus2:
            theta_n = count_torsion(tau, n).count
            verdicts = compare(theta_n, evaluate_bounds(2, n))
            ok = ok and not any_theorem_violated(verdicts)
            if n == 4:
                ok = ok and theta_n <= 112
    for g in (1, 3):
        for tau in (product_tau(g, rng), random_tau(g, 0)):
            theta_n = count_torsion(tau, 2).count
            ok = ok and not any_theorem_violated(compare(theta_n, evaluate_bounds(g, 2)))
    report("all proved bounds satisfied, Theta(4) <= 112 at g=2", ok)


def test_04_m_count_proposition():
    tau = random_tau(2, 0)
    rng = np.random.default_rng(404)
    ok = m_count(tau, np.zeros(2)) == 16 - count_torsion(tau, 2).count
    for _ in range(50):
        y = rng.uniform(-0.5, 0.5, 2) + 1j * rng.uniform(-0.15, 0.15, 2)
        ok = ok and 9 <= m_count(tau, y) <= 16
    report("m(0,2y) in [9,16] over 50 seeded y, m(0,0) = 16 - Theta(2)", ok)


def test_05_exact_matrix_suite():
    ok = True
    for g in (1, 2, 3):
        claims = verify_fay_spectrum(g)
        ok = ok and all(c["pass"] for c in claims)
        m = build_M(g)
        mp, _, n = split_blocks(m)
        b = build_B(g)
        for i in range(len(b)):
            for j in range(len(b)):
                want = 2 ** (g - 1) * ((2**g if i == j else 0) - int(mp[i, j]))
                ok = ok and b[i, j] == want
        ok = ok and exact_rank(n) == (4**g - 1) // 3
        from math import comb

        l = build_L(g)
        for k in range(g + 1):
            # exact_rank oracle: multiplicity as the nullity of L - lambda I
            shifted = l - (-1) ** k * 2 ** (g - k) * np.eye(3**g, dtype=np.int64)
            ok = ok and 3**g - exact_rank(shifted) == comb(g, k) * 2 ** (g - k)
        bk, _ = build_Bk(g)
        ok = ok and exact_rank(bk) == 3**g - 2**g
    report("exact matrix suite (M, M+, M-, N, B, L, B_k), zero tolerance", ok)


def test_06_analytic_relation_suite():
    # each call returns the largest residual over all characteristics or columns
    tol = 1e-8
    worst = 0.0
    count = 0
    for g, trials in ((1, 50), (2, 50), (3, 20)):
        rng = np.random.default_rng(600 + g)
        for t in range(trials):
            tau = random_tau(g, 600 * g + t)
            z = rng.uniform(-0.3, 0.3, g) + 1j * rng.uniform(-0.1, 0.1, g)
            worst = max(worst, addition_residual(tau, z))
            count += 4**g
    for g in (1, 2):
        _, _, nblk = split_blocks(build_M(g))
        for t in range(20):
            rng = np.random.default_rng(660 + 20 * g + t)
            tau = random_tau(g, 660 + 20 * g + t)
            z = rng.uniform(-0.3, 0.3, g) + 1j * rng.uniform(-0.1, 0.1, g)
            worst = max(worst, fay_relation_residual(tau, z))
            count += nblk.shape[1]
    report(
        "addition + Fay relation residuals < 1e-8",
        worst < tol,
        f"worst {worst:.3e} over {count} residuals",
    )


def test_07_qh_identity():
    # n^{2g} = sum_mu rank T_mu + Theta(n), with T_mu = diag(theta[.; mu]) F
    # and F the character table of (Z/n)^g; the ranks are SVD ranks
    ok = True
    for g, n in ((1, 2), (2, 2), (2, 3)):
        tau = random_tau(g, 700)
        table = constant_table(tau, n)
        vecs = list(np.ndindex(*(n,) * g))
        f = np.exp(2j * math.pi / n * np.array([[np.dot(d, e) for e in vecs] for d in vecs]))
        consts = table.values.reshape(len(vecs), len(vecs))
        rank_sum = 0
        for mu in range(len(vecs)):
            sv = np.linalg.svd(consts[:, mu, None] * f, compute_uv=False)
            rank_sum += int((sv > 1e-4 * sv[0]).sum())
        ok = ok and n ** (2 * g) - rank_sum == count_torsion(tau, n, table=table).count
    report("Q_H rank identity with SVD ranks for (1,2),(2,2),(2,3)", ok)


def test_08_h0_genus2_exhaustive():
    rep = h0_exhaustive(2)
    ok = (
        rep.h0 == 9
        and rep.min_rank_by_order[8] == 5
        and rep.orders_certified_infeasible == list(range(1, 9))
    )
    report("h0 = 9 at g=2, order-8 min rank 5, orders <= 8 infeasible by the trace-rank bound", ok)


@pytest.mark.slow
def test_09_h0_genus3_probe():
    rep = h0_probe(3, budget=1_000_000, seed=42)
    b = build_B(3)
    _, sel = build_Bk(3)
    w = rep.witnesses[0]
    witness_ok = (
        rep.h0_upper == 27
        and tuple(sorted(w)) == tuple(sorted(sel))
        and exact_rank(b[np.ix_(w, w)]) == 19
    )
    certified = rep.h0 == 27 and rep.orders_certified_infeasible == list(range(1, 27))
    ok = witness_ok and certified and rep.budget_used == 1_000_000
    report("h0 = 27 at g=3 (trace-rank certificate, order-27 witness of rank 19), probe completed", ok)


def test_10_orbit_suite():
    ok = True
    for g in (2, 3, 4):
        ok = ok and orbits(g, 1)["parity_classes_single_orbits"]
    for g, sizes in ((2, [30, 90]), (3, [756, 1260]), (4, [14280, 18360])):
        rep2 = orbits(g, 2)
        ok = ok and rep2["orbit_sizes"] == sizes
        ok = ok and rep2["even_pairs_single_orbit"] and rep2["odd_pairs_single_orbit"]
    report("parity classes single orbits (g=2-4), same-parity pairs (g=2-4)", ok)


def test_11_determinism():
    a = count_torsion(random_tau(2, 0), 2).to_json()
    b = count_torsion(random_tau(2, 0), 2).to_json()
    c = h0_probe(3, budget=2000, seed=5).to_json()
    d = h0_probe(3, budget=2000, seed=5).to_json()
    e = json.dumps(orbits(2, 1), sort_keys=True)
    f = json.dumps(orbits(2, 1), sort_keys=True)
    ok = (
        json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        and json.dumps(c, sort_keys=True) == json.dumps(d, sort_keys=True)
        and e == f
    )
    report("seeded runs produce byte-identical JSON", ok)

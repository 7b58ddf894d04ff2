"""Closed-form bounds on Theta(n) and the analytic identities behind them.

Compares computed counts against every applicable bound row and evaluates
the addition-formula and quartic-relation residuals that certify the
numerical theta engine."""

import numpy as np

from thetalab import (
    addition_residual,
    compare,
    constant_table,
    decomposable_bound,
    evaluate_bounds,
    fay_relation_residual,
    random_tau,
)

print("== bound table at g = 2, n = 2 ==")
tau = random_tau(2, 11)
theta_n = constant_table(tau, 2).count
for v in compare(theta_n, evaluate_bounds(2, 2)):
    print(f"  {v['name']:<22} value {v['value']:>4}  [{v['status']}]  {v['verdict']}")

print()
print("== decomposable varieties ==")
print(f"two elliptic factors, n=2: bound {decomposable_bound([1, 1], 2)} (attained by products)")
print(f"one genus-2 block,   n=2: bound {decomposable_bound([2], 2)}")

print()
print("== analytic residuals (certify the theta evaluator) ==")
rng = np.random.default_rng(3)
tau = random_tau(2, 3)
z = rng.uniform(-0.3, 0.3, 2) + 1j * rng.uniform(-0.1, 0.1, 2)
worst_add = addition_residual(tau, z)
worst_fay = fay_relation_residual(tau, z)
print(f"worst addition-formula residual over all 16 characteristics: {worst_add:.3e}")
print(f"worst quartic-relation residual over all 6 columns of N:     {worst_fay:.3e}")

"""Counting 2-torsion points on theta divisors.

A principally polarized abelian variety C^g / (tau Z^g + Z^g) carries a
symmetric theta divisor, and an n-torsion point lies on it exactly when the
corresponding level-n theta constant vanishes.  This script walks through the
two extreme cases at n = 2: products of elliptic curves, which realize the
maximal count 4^g - 3^g, and generic period matrices, which realize the
minimal count 2^{g-1}(2^g - 1)."""

import numpy as np

from thetalab import PeriodMatrix, constant_table, random_tau

print("== products of elliptic curves (diagonal tau) ==")
for g in (1, 2, 3):
    tau = PeriodMatrix(np.diag([1j * (0.8 + 0.4 * k) for k in range(g)]))
    table = constant_table(tau, 2)
    print(
        f"g={g}: Theta(2) = {table.count}  (4^g - 3^g = {4**g - 3**g}, "
        f"certified by the diagonal product rule: {table.certified})"
    )

print()
print("== generic period matrices ==")
for g in (1, 2, 3):
    summary = constant_table(random_tau(g, seed := 2024 + g), 2).to_json()
    print(
        f"g={g}, seed={seed}: Theta(2) = {summary['theta_n']}  "
        f"(2^(g-1)(2^g-1) = {2 ** (g - 1) * (2**g - 1)}), "
        f"decision margin {summary['margins']['min_nonvanishing']:.3g}"
    )

print()
print("== the full constant table at g = 2 ==")
table = constant_table(random_tau(2, 7), 2)
col = table.columns()
for char, margin, vanishing in zip(col["char"], table.margins, col["vanishing"]):
    mark = "vanishes" if vanishing else f"margin {margin:.3g}"
    print(f"  theta[{char}] : {mark}")

print()
print("== level 4: only the odd half-characteristics vanish generically ==")
print(f"g=1: Theta(4) = {constant_table(random_tau(1, 5), 4).count} of 4^2 = 16 constants")

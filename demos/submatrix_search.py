"""Principal-submatrix rank search behind the torsion bound.

h0 is the smallest order k of a principal submatrix S of B = NN^t with
rank(S) <= k - 2^g.  With T the complement of S, rank B[S, S] = k - d +
rank Q[T, T], where Q = M+ + 2^(g-1) I spans ker B (of dimension d), and the
trace-rank bound rank A >= (tr A)^2 / tr A^2 on A = Q[T, T] certifies a lower
bound at every order.  A witness of the first order the bound leaves open
gives h0 exactly: at genus 2 the exhaustive scan of the 2^10 subsets finds
it, h0 = 9; at genus 3 the strictly-even submatrix of order 27 and rank 19,
h0 = 27.  A seeded probe of uniform genus-3 masks then checks the
certificate: a witness below order 27 would contradict it."""

from thetalab import h0_exhaustive, h0_probe

print("== genus 2: trace-rank certificate + exhaustive scan ==")
rep = h0_exhaustive(2)
print(f"h0 = {rep.h0}")
print(f"minimum rank by submatrix order: {dict(sorted(rep.min_rank_by_order.items()))}")
print(f"orders certified infeasible: {rep.orders_certified_infeasible}")
print(f"witnesses of the minimum: {len(rep.witnesses)} subsets of order {rep.h0}")

print()
print("== genus 3: trace-rank certificate + certified witness ==")
rep = h0_probe(3, budget=50_000, seed=42)
print(f"h0 = {rep.h0}  (order-27 witness of exact rank 19)")
print(f"orders certified infeasible: {rep.orders_certified_infeasible}")
print(f"uniform masks screened against the certificate: {rep.budget_used}")
for note in rep.notes:
    print(f"note: {note}")

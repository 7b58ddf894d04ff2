"""Exact spectra of the mod-2 pairing matrices.

The sign matrix M(g) = ((-1)^{<m,n>}) over F_2^{2g}, split into blocks by the
quadratic class of the index vectors, satisfies a family of exact integer
identities: M^2 = 4^g I, closed-form eigenvalue multiplicities for the blocks
M+ and M-, B = N N^t = 2^{g-1}(2^g I - M+), and a Kronecker-power model L(g)
for the principal submatrix B_k of rank 3^g - 2^g.  Everything here runs in
exact integer arithmetic; there is no tolerance anywhere."""

from thetalab import (
    build_B,
    build_Bk,
    build_L,
    build_M,
    exact_rank,
    fay_multiplicities,
    split_blocks,
    verify_fay_spectrum,
)

for g in (1, 2, 3):
    print(f"== g = {g} ==")
    m = build_M(g)
    mp, mm, n = split_blocks(m)
    print(f"M is {m.shape[0]}x{m.shape[1]}; blocks M+ {mp.shape[0]}x{mp.shape[1]}, "
          f"M- {mm.shape[0]}x{mm.shape[1]}, N {n.shape[0]}x{n.shape[1]}")
    print(f"eigenvalue multiplicities: {fay_multiplicities(g)}")
    print(f"rank N = {exact_rank(n)}  (closed form (4^g-1)/3 = {(4**g - 1) // 3})")

    b = build_B(g)
    bk, sel = build_Bk(g)
    l = build_L(g)
    print(f"B = NN^t is {b.shape[0]}x{b.shape[1]}, rank {exact_rank(b)}")
    print(f"B_k (selection {list(sel)}) has order 3^g = {len(bk)}, "
          f"rank {exact_rank(bk)} = 3^g - 2^g")
    print(f"L(g) = M+(1)^(kron {g}) has order {len(l)}")

    claims = verify_fay_spectrum(g)
    failed = [c for c in claims if not c["pass"]]
    print(f"verification: {len(claims)} exact claims checked, {len(failed)} failed")
    print()

"""Theta characteristics and the mod-2 symplectic machinery.

A level-n characteristic is a pair of integer vectors (a, b) mod n encoding
(delta, eps) = (a/n, b/n) in (1/n)Z^g / Z^g.  It is its index: the base-n
number a||b, a most significant, so the index orders characteristics
lexicographically on a||b; enumerate_characteristics(g, n) holds the digit
rows a||b of every index, and characteristic_keys(g, n) their 'a|b' keys.
For n = 2 the index is the vector a ++ b of F_2^{2g} read in binary, which
carries the standard symplectic pairing; its parity is the quadratic form
sum_i a_i b_i.  Symplectic elements are plain 2g x 2g integer matrices in
Sp(2g, Z); they act on half-integer characteristics by an affine formula
that only reads them mod 2.  A generator set of Sp(2g, Z) is tabulated once
per g as index permutations of the 4^g characteristics, and orbits are
closures over that table; both run while the points fit in
MAX_CHARACTERISTICS.
"""

from __future__ import annotations

from functools import cache
from itertools import product

import numpy as np

# largest n^{2g} enumerate_characteristics builds; (g, n) = (2, 6) needs 1296
MAX_CHARACTERISTICS = 2**16


def table_size(g: int, n: int) -> int:
    """n^{2g}, the number of level-n characteristics; ValueError for g < 1,
    n < 2 or more than MAX_CHARACTERISTICS, before any is built."""
    if g < 1:
        raise ValueError("g must be >= 1")
    if n < 2:
        raise ValueError("level n must be >= 2")
    if n ** (2 * g) > MAX_CHARACTERISTICS:
        raise ValueError(
            f"n^(2g) = {n ** (2 * g)} characteristics exceed the cap of {MAX_CHARACTERISTICS}"
        )
    return n ** (2 * g)


@cache
def enumerate_characteristics(g: int, n: int) -> np.ndarray:
    """All n^{2g} characteristics as a read-only (n^{2g}, 2g) int64 array:
    row i holds the base-n digits a||b of the index i, a most significant.

    Built once per (g, n).  More than MAX_CHARACTERISTICS raises ValueError
    before any is built.
    """
    size = table_size(g, n)
    rows = np.indices((n,) * (2 * g), dtype=np.int64).reshape(2 * g, size).T
    rows.flags.writeable = False
    return rows


@cache
def characteristic_keys(g: int, n: int) -> tuple:
    """The key 'a|b' of every characteristic, in index order, built once per
    (g, n): the digits of a, then of b, comma-separated above level 10 so
    that keys stay distinct.  The one place a key is spelled."""
    table_size(g, n)
    sep = "," if n > 10 else ""
    half = [sep.join(map(str, digits)) for digits in product(range(n), repeat=g)]
    return tuple(x + "|" + y for x in half for y in half)


def odd_mask(g: int) -> np.ndarray:
    """Parities of the level-2 characteristics in index order, True where
    sum a_i b_i is odd: read from the binary digits a||b of each index."""
    _check_points(g)
    index = np.arange(4**g)
    both = (index >> g) & index  # the bits of a and b, one coordinate each
    return (both[:, None] >> np.arange(g) & 1).sum(axis=1) % 2 == 1


def count_parity(g: int):
    """(even, odd) counts: (2^{g-1}(2^g+1), 2^{g-1}(2^g-1))."""
    if g < 1:
        raise ValueError("g must be >= 1")
    return 2 ** (g - 1) * (2**g + 1), 2 ** (g - 1) * (2**g - 1)


def canonical_f2_order(g: int) -> np.ndarray:
    """Index order used by all matrices: the even level-2 characteristics,
    then the odd ones, each block in increasing index.  Its first
    count_parity(g)[0] entries are K_g^+."""
    return np.argsort(odd_mask(g), kind="stable")


def kplus_positions(g: int, index):
    """Positions in K_g^+, the even block of canonical_f2_order(g), of even
    level-2 indices: K_g^+ is in increasing index, so a search finds them."""
    return np.searchsorted(np.flatnonzero(~odd_mask(g)), index)


def _check_points(g: int, tuples: int = 1):
    """Refuse g < 1 and more than MAX_CHARACTERISTICS points 4^(g * tuples)."""
    if g < 1:
        raise ValueError("g must be >= 1")
    # the exponent is tested first, so a huge g never forms the power
    if g * tuples > MAX_CHARACTERISTICS or 4 ** (g * tuples) > MAX_CHARACTERISTICS:
        raise ValueError(f"size cap: 4^(g*tuples) = 4^{g * tuples} points exceed {MAX_CHARACTERISTICS}")


def _act_rows(gamma: np.ndarray, ab: np.ndarray) -> np.ndarray:
    """Affine action of gamma = (A B; C D) in Sp(2g, Z) on the rows of an
    (N, 2g) 0/1 array of a||b, mod 2.

    gamma.[a; b] = (D, -C; -B, A)(a; b) + (diag(C D^t); diag(A B^t)), the
    action under which |theta[gamma.m](gamma tau, 0)| is
    |det(C tau + D)|^(1/2) |theta[m](tau, 0)|.  The signs drop out mod 2.
    The diag(C D^t) form of the inhomogeneous term is the one that makes
    this a genuine left action (the transposed variant anti-composes).
    """
    g = ab.shape[1] // 2
    gamma = np.asarray(gamma, dtype=np.int64) % 2
    a, b, c, d = gamma[:g, :g], gamma[:g, g:], gamma[g:, :g], gamma[g:, g:]
    linear = np.block([[d, c], [b, a]])
    shift = np.concatenate([np.diag(c @ d.T), np.diag(a @ b.T)])
    return (ab @ linear.T + shift) % 2


def check_index(g: int, index) -> np.ndarray:
    """index as an int64 array; ValueError unless each entry is an integer
    index of a level-2 characteristic of genus g, in [0, 4^g)."""
    index = np.asarray(index)
    if index.dtype.kind not in "iu" or np.any(index < 0) or np.any(index >= 4**g):
        raise ValueError(f"a level-2 characteristic index of genus {g} is an integer in [0, {4**g})")
    return index.astype(np.int64)


def act(gamma, index):
    """Images of level-2 characteristics under a 2g x 2g integer matrix gamma
    (see _act_rows): index is an int or an int array of indices, and the
    images come back as indices of the same shape.

    The level-2 action reads gamma only mod 2, so it checks only that gamma
    preserves J = (0 I; -I 0) mod 2; ValueError otherwise, for a shape other
    than 2g x 2g, a non-integer entry, a g past MAX_CHARACTERISTICS and an
    index outside [0, 4^g).
    """
    gamma = np.asarray(gamma)
    g = len(gamma) // 2 if gamma.ndim == 2 else 0
    if g < 1 or gamma.shape != (2 * g, 2 * g) or not np.array_equal(gamma, np.round(gamma)):
        raise ValueError("gamma must be a 2g x 2g integer matrix with g >= 1")
    rows = enumerate_characteristics(g, 2)
    gamma = gamma.astype(np.int64)
    eye = np.eye(g, dtype=np.int64)
    j = np.block([[0 * eye, eye], [-eye, 0 * eye]])
    if np.any((gamma.T @ j @ gamma - j) % 2):
        raise ValueError("matrix does not preserve the symplectic form mod 2")
    index = check_index(g, index)
    images = _act_rows(gamma, rows[index.ravel()]) @ (1 << np.arange(2 * g - 1, -1, -1))
    return images.reshape(index.shape)[()]


@cache
def symplectic_generators(g: int) -> np.ndarray:
    """Generators of Sp(2g, Z) as a read-only int64 array (generators, 2g, 2g).

    In order: (I S; 0 I) then (I 0; S I) for each S of the symmetric basis
    (the E_ii, then E_ij + E_ji for i < j), the Weyl element (0 I; -I 0),
    and (U 0; 0 U^-t) for U = I + E_ij, i != j, so U^-t = I - E_ji.  Each
    satisfies gamma^t J gamma = J over Z; mod 2 they generate Sp(2g, F_2).
    Refused when 4^g exceeds MAX_CHARACTERISTICS, the table it feeds.
    """
    _check_points(g)
    eye = np.eye(g, dtype=np.int64)
    zero = 0 * eye
    pairs = [(i, i) for i in range(g)] + [(i, j) for i in range(g) for j in range(i + 1, g)]
    gens = []
    for i, j in pairs:
        s = zero.copy()
        s[i, j] = s[j, i] = 1
        gens += [np.block([[eye, s], [zero, eye]]), np.block([[eye, zero], [s, eye]])]
    gens.append(np.block([[zero, eye], [-eye, zero]]))
    for i, j in product(range(g), repeat=2):
        if i != j:
            u, u_inv_t = eye.copy(), eye.copy()
            u[i, j], u_inv_t[j, i] = 1, -1
            gens.append(np.block([[u, zero], [zero, u_inv_t]]))
    gens = np.stack(gens)
    gens.flags.writeable = False
    return gens


@cache
def generator_permutations(g: int) -> np.ndarray:
    """The generators of symplectic_generators(g) as index permutations.

    Row i maps the index of each characteristic in enumerate_characteristics(g, 2),
    the binary value of a||b with a most significant, to the index of its
    image under generator i.  Built once per g; read-only int64 array of
    shape (number of generators, 4^g).
    """
    # the action is affine over F_2: the image of x | 2^k, x < 2^k, is the
    # image of x xor the images of 2^k and of 0, so one xor per index
    units = np.vstack([np.zeros(2 * g, dtype=np.int64), np.eye(2 * g, dtype=np.int64)[::-1]])
    perms = []
    for gamma in symplectic_generators(g):
        zero, *bits = _act_rows(gamma, units) @ (1 << np.arange(2 * g - 1, -1, -1))
        perm = np.array([zero])
        for image in bits:
            perm = np.concatenate([perm, perm ^ image ^ zero])
        perms.append(perm)
    perms = np.stack(perms)
    perms.flags.writeable = False
    return perms


def orbits(g: int, tuples: int = 1):
    """Orbit partition of level-2 characteristics under Sp(2g, Z).

    tuples=1 partitions single level-2 characteristics; tuples=2 partitions
    ordered pairs of distinct same-parity characteristics and reports whether
    each parity class of pairs forms a single orbit.  ValueError when g < 1
    or the 4^(g * tuples) points exceed MAX_CHARACTERISTICS.
    """
    if tuples not in (1, 2):
        raise ValueError("tuples must be 1 or 2")
    _check_points(g, tuples)
    perms = generator_permutations(g)
    size = 4**g
    keys = characteristic_keys(g, 2)

    if tuples == 1:
        points = np.arange(size)
        moves = perms
    else:
        # the pair (x, y) is the point x * 4^g + y and moves to (p[x], p[y])
        x, y = np.divmod(np.arange(size * size), size)
        par = odd_mask(g)
        points = np.flatnonzero((x != y) & (par[x] == par[y]))
        moves = perms[:, x] * size + perms[:, y]
        keys = [kx + "," + ky for kx in keys for ky in keys]

    # label every point by the least point of its orbit: a label only falls,
    # to a point of the same orbit, until it is constant along each generator
    label = np.arange(moves.shape[1])
    while True:
        low = label.copy()
        for m in moves:
            np.minimum(low, label[m], out=low)
        low = low[low]
        if np.array_equal(low, label):
            break
        label = low
    order = np.lexsort((points, label[points]))
    cuts = np.flatnonzero(np.diff(label[points][order])) + 1
    # integer order is the order of the keys: a||b is read as a binary number
    closures = sorted(np.split(points[order], cuts), key=lambda o: (len(o), o[0]))
    orbit_list = [[keys[p] for p in o] for o in closures]
    sizes = [len(o) for o in orbit_list]
    report = {"g": g, "tuples": tuples, "orbit_sizes": sizes, "orbits": orbit_list}
    even, odd = count_parity(g)
    if tuples == 1:
        report["parity_classes_single_orbits"] = sorted(sizes) == sorted([even, odd])
    else:
        # an orbit of pairs sits inside one parity class; a class is a single
        # orbit iff some orbit exhausts it
        report["even_pairs_single_orbit"] = even * (even - 1) in sizes
        report["odd_pairs_single_orbit"] = odd <= 1 or odd * (odd - 1) in sizes
    return report

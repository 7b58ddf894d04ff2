"""Theta characteristics and the mod-2 symplectic machinery.

A level-n characteristic is a pair of integer vectors (a, b) mod n encoding
(delta, eps) = (a/n, b/n) in (1/n)Z^g / Z^g.  For n = 2 a characteristic is
identified with the vector a ++ b of F_2^{2g}, which carries the standard
symplectic pairing; its parity is the quadratic form sum_i a_i b_i.
Sp(2g, F_2) acts on half-integer characteristics by an affine formula;
a hard-coded generator set for g <= 3 is tabulated once as index
permutations, and orbits are closures over that table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product

import numpy as np

EVEN = "even"
ODD = "odd"

# largest n^{2g} enumerate_characteristics builds; (g, n) = (2, 6) needs 1296
MAX_CHARACTERISTICS = 2**16


@dataclass(frozen=True)
class Characteristic:
    """Level-n theta characteristic (a/n, b/n)."""

    g: int
    n: int
    a: tuple
    b: tuple

    def __post_init__(self):
        if self.g < 1:
            raise ValueError("g must be >= 1")
        if self.n < 2:
            raise ValueError("level n must be >= 2")
        if len(self.a) != self.g or len(self.b) != self.g:
            raise ValueError("characteristic vectors must have length g")
        object.__setattr__(self, "a", tuple(int(x) % self.n for x in self.a))
        object.__setattr__(self, "b", tuple(int(x) % self.n for x in self.b))

    def key(self):
        """Compact string key 'a|b', stable across runs (JSON friendly)."""
        return "".join(map(str, self.a)) + "|" + "".join(map(str, self.b))


@cache
def enumerate_characteristics(g: int, n: int) -> tuple:
    """All n^{2g} characteristics, lexicographic on a||b (a most significant).

    Built once per (g, n); the characteristics are frozen, so callers share
    them.  More than MAX_CHARACTERISTICS raises ValueError before any is built.
    """
    if g < 1 or n < 2:
        raise ValueError("need g >= 1 and n >= 2")
    if n ** (2 * g) > MAX_CHARACTERISTICS:
        raise ValueError(
            f"n^(2g) = {n ** (2 * g)} characteristics exceed the cap of {MAX_CHARACTERISTICS}"
        )
    return tuple(Characteristic(g, n, ab[:g], ab[g:]) for ab in product(range(n), repeat=2 * g))


def parity(c: Characteristic) -> str:
    """Parity of a half-integer characteristic: odd iff sum a_i b_i is odd."""
    if c.n != 2:
        raise ValueError("parity is defined for level n = 2 only")
    return ODD if sum(x * y for x, y in zip(c.a, c.b)) % 2 else EVEN


def count_parity(g: int):
    """(even, odd) counts: (2^{g-1}(2^g+1), 2^{g-1}(2^g-1)).

    For small g the closed form is cross-checked against a direct tally.
    """
    if g < 1:
        raise ValueError("g must be >= 1")
    even = 2 ** (g - 1) * (2**g + 1)
    odd = 2 ** (g - 1) * (2**g - 1)
    if g <= 8:
        tally = sum(1 for c in enumerate_characteristics(g, 2) if parity(c) == ODD)
        if tally != odd:
            raise AssertionError("parity tally disagrees with closed form")
    return even, odd


def symplectic_pairing(m: Characteristic, n: Characteristic) -> int:
    """Standard symplectic form sum_i (m.a_i n.b_i + n.a_i m.b_i) mod 2 of two
    half-integer characteristics."""
    if m.g != n.g:
        raise ValueError("mismatched g")
    if m.n != 2 or n.n != 2:
        raise ValueError("the symplectic pairing is defined for level n = 2 only")
    return sum(x * v + y * u for x, u, y, v in zip(m.a, m.b, n.a, n.b)) % 2


def isotropic_vectors(g: int):
    """The even half-integer characteristics, lexicographic on a||b."""
    return [c for c in enumerate_characteristics(g, 2) if parity(c) == EVEN]


def canonical_f2_order(g: int):
    """Index order used by all matrices: the even characteristics, then the
    odd ones, each block lexicographic on a||b."""
    return isotropic_vectors(g) + [c for c in enumerate_characteristics(g, 2) if parity(c) == ODD]


def _f2(mat) -> np.ndarray:
    return np.asarray(mat, dtype=np.int64) % 2


@dataclass(frozen=True)
class SymplecticMap:
    """Element of Sp(2g, F_2) given by g x g blocks [[a, b], [c, d]]."""

    g: int
    a: tuple
    b: tuple
    c: tuple
    d: tuple

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            blk = _f2(getattr(self, name))
            if blk.shape != (self.g, self.g):
                raise ValueError(f"block {name} must be {self.g}x{self.g}")
            object.__setattr__(self, name, tuple(tuple(int(x) for x in row) for row in blk))
        m = self.matrix()
        j = np.zeros((2 * self.g, 2 * self.g), dtype=np.int64)
        j[: self.g, self.g :] = np.eye(self.g, dtype=np.int64)
        j[self.g :, : self.g] = np.eye(self.g, dtype=np.int64)
        if not np.array_equal((m.T @ j @ m) % 2, j):
            raise ValueError("matrix does not preserve the symplectic form mod 2")

    def matrix(self) -> np.ndarray:
        top = np.hstack([_f2(self.a), _f2(self.b)])
        bot = np.hstack([_f2(self.c), _f2(self.d)])
        return np.vstack([top, bot])

    @classmethod
    def from_matrix(cls, m) -> "SymplecticMap":
        m = _f2(m)
        g = m.shape[0] // 2
        return cls(g, m[:g, :g], m[:g, g:], m[g:, :g], m[g:, g:])

    @classmethod
    def identity(cls, g: int) -> "SymplecticMap":
        eye = np.eye(g, dtype=np.int64)
        zero = np.zeros((g, g), dtype=np.int64)
        return cls(g, eye, zero, zero, eye)

    def __matmul__(self, other: "SymplecticMap") -> "SymplecticMap":
        return SymplecticMap.from_matrix(self.matrix() @ other.matrix())


def _act_rows(gamma: SymplecticMap, ab: np.ndarray) -> np.ndarray:
    """Affine Sp(2g, F_2) action on the rows of an (N, 2g) 0/1 array of a||b.

    gamma.[delta; eps] = (d, -c; -b, a)(delta; eps) + (diag(c d^t); diag(a b^t)),
    computed on the F_2 representatives (a, b) with all arithmetic mod 2.
    The diag(c d^t) form of the inhomogeneous term is the one that makes
    this a genuine left action (the transposed variant anti-composes).
    """
    a, b, c, d = (_f2(gamma.a), _f2(gamma.b), _f2(gamma.c), _f2(gamma.d))
    linear = np.block([[d, c], [b, a]])
    shift = np.concatenate([np.diag(c @ d.T), np.diag(a @ b.T)])
    return (ab @ linear.T + shift) % 2


def act(gamma: SymplecticMap, c: Characteristic) -> Characteristic:
    """Image of one half-integer characteristic under gamma (see _act_rows)."""
    if c.n != 2:
        raise ValueError("the symplectic action is implemented at level 2")
    if gamma.g != c.g:
        raise ValueError("mismatched g")
    ab = _act_rows(gamma, np.array([c.a + c.b], dtype=np.int64))[0]
    return Characteristic(c.g, 2, ab[: c.g], ab[c.g :])


def symplectic_generators(g: int):
    """Generator list for Sp(2g, F_2): symplectic transvection-type elements.

    Upper/lower unipotent blocks for a basis of symmetric matrices, the Weyl
    swap, and GL(g, 2) elementary transvections embedded diagonally.
    """
    if g not in (1, 2, 3):
        raise ValueError("generators are hard-coded for g in {1, 2, 3}")
    eye = np.eye(g, dtype=np.int64)
    zero = np.zeros((g, g), dtype=np.int64)
    gens = []
    sym_basis = []
    for i in range(g):
        e = np.zeros((g, g), dtype=np.int64)
        e[i, i] = 1
        sym_basis.append(e)
    for i in range(g):
        for j in range(i + 1, g):
            e = np.zeros((g, g), dtype=np.int64)
            e[i, j] = e[j, i] = 1
            sym_basis.append(e)
    for s in sym_basis:
        gens.append(SymplecticMap(g, eye, s, zero, eye))
        gens.append(SymplecticMap(g, eye, zero, s, eye))
    gens.append(SymplecticMap(g, zero, eye, eye, zero))
    for i in range(g):
        for j in range(g):
            if i == j:
                continue
            u = eye.copy()
            u[i, j] = 1
            gens.append(SymplecticMap(g, u, zero, zero, u.T))
    return gens


@cache
def generator_permutations(g: int) -> np.ndarray:
    """The generators of symplectic_generators(g) as index permutations.

    Row i maps the index of each characteristic in enumerate_characteristics(g, 2),
    the binary value of a||b with a most significant, to the index of its
    image under generator i.  Built once per g; read-only int64 array of
    shape (number of generators, 4^g).
    """
    gens = symplectic_generators(g)
    shifts = np.arange(2 * g - 1, -1, -1)
    ab = (np.arange(4**g)[:, None] >> shifts) & 1
    perms = np.stack([_act_rows(gamma, ab) @ (1 << shifts) for gamma in gens])
    perms.flags.writeable = False
    return perms


def orbits(g: int, tuples: int = 1):
    """Orbit partition under the generated group; g <= 3 only.

    tuples=1 partitions single level-2 characteristics; tuples=2 partitions
    ordered pairs of distinct same-parity characteristics and reports whether
    each parity class of pairs forms a single orbit.
    """
    if g not in (1, 2, 3):
        raise ValueError("orbit computation supported for g in {1, 2, 3} only")
    if tuples not in (1, 2):
        raise ValueError("tuples must be 1 or 2")
    perms = generator_permutations(g)
    chars = enumerate_characteristics(g, 2)
    keys = [c.key() for c in chars]
    size = len(chars)

    if tuples == 1:
        points = range(size)
        moves = perms
    else:
        # the pair (x, y) is the point x * 4^g + y and moves to (p[x], p[y])
        x, y = np.divmod(np.arange(size * size), size)
        par = np.array([parity(c) for c in chars])
        points = np.flatnonzero((x != y) & (par[x] == par[y])).tolist()
        moves = perms[:, x] * size + perms[:, y]
        keys = [kx + "," + ky for kx in keys for ky in keys]

    images = moves.T.tolist()
    seen = [False] * moves.shape[1]
    closures = []
    for start in points:
        if seen[start]:
            continue
        seen[start] = True
        orb = [start]
        for p in orb:
            for q in images[p]:
                if not seen[q]:
                    seen[q] = True
                    orb.append(q)
        closures.append(sorted(orb))
    # integer order is the order of the keys: a||b is read as a binary number
    closures.sort(key=lambda o: (len(o), o[0]))
    orbit_list = [[keys[p] for p in o] for o in closures]

    report = {
        "g": g,
        "tuples": tuples,
        "orbit_sizes": [len(o) for o in orbit_list],
        "orbits": orbit_list,
    }
    even, odd = count_parity(g)
    if tuples == 1:
        report["parity_classes_single_orbits"] = sorted(
            len(o) for o in orbit_list
        ) == sorted([even, odd])
    else:
        # an orbit of pairs sits inside one parity class; a class is a single
        # orbit iff some orbit exhausts it
        sizes = [len(o) for o in orbit_list]
        report["even_pairs_single_orbit"] = even * (even - 1) in sizes
        report["odd_pairs_single_orbit"] = odd <= 1 or odd * (odd - 1) in sizes
    return report

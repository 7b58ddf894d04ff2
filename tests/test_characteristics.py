import itertools
import random

import numpy as np
import pytest

from thetalab.characteristics import (
    EVEN,
    MAX_CHARACTERISTICS,
    ODD,
    Characteristic,
    act,
    canonical_f2_order,
    characteristic_keys,
    count_parity,
    enumerate_characteristics,
    generator_permutations,
    odd_mask,
    orbits,
    parity,
    symplectic_generators,
    symplectic_pairing,
    table_size,
)


@pytest.mark.parametrize("g,n", [(1, 2), (2, 2), (2, 3), (1, 4), (3, 2)])
def test_enumeration_size_and_uniqueness(g, n):
    chars = enumerate_characteristics(g, n)
    assert len(chars) == n ** (2 * g)
    assert len(set(chars)) == len(chars)


def test_enumeration_canonical_order_g1():
    chars = enumerate_characteristics(1, 2)
    assert [(c.a, c.b) for c in chars] == [
        ((0,), (0,)),
        ((0,), (1,)),
        ((1,), (0,)),
        ((1,), (1,)),
    ]


def test_parity_examples():
    assert parity(Characteristic(1, 2, (1,), (1,))) == ODD
    assert parity(Characteristic(1, 2, (0,), (0,))) == EVEN
    assert parity(Characteristic(2, 2, (1, 1), (1, 1))) == EVEN


def test_parity_rejects_higher_level():
    with pytest.raises(ValueError):
        parity(Characteristic(1, 3, (1,), (1,)))


@pytest.mark.parametrize("g,expected", [(1, (3, 1)), (2, (10, 6)), (3, (36, 28))])
def test_count_parity_closed_form(g, expected):
    assert count_parity(g) == expected


@pytest.mark.parametrize("g", range(1, 9))
def test_count_parity_matches_enumeration(g):
    even, odd = count_parity(g)
    tally = sum(1 for c in enumerate_characteristics(g, 2) if parity(c) == ODD)
    assert (even + odd, odd) == (4**g, tally)


@pytest.mark.parametrize("g", range(1, 7))
def test_odd_mask_matches_parity(g):
    # read from the bits of the index, against the characteristics themselves
    want = [parity(c) == ODD for c in enumerate_characteristics(g, 2)]
    assert odd_mask(g).tolist() == want


def test_odd_mask_counts_at_g8():
    assert int(odd_mask(8).sum()) == count_parity(8)[1]


@pytest.mark.parametrize(
    "g,n,match",
    [(0, 2, "g must be >= 1"), (2, 1, "level n must be >= 2"), (2, 17, "exceed the cap"), (9, 2, "exceed the cap")],
)
def test_table_size_refusals(g, n, match):
    with pytest.raises(ValueError, match=match):
        table_size(g, n)
    with pytest.raises(ValueError, match=match):
        enumerate_characteristics(g, n)


def test_table_size_at_the_cap():
    assert table_size(2, 16) == table_size(8, 2) == MAX_CHARACTERISTICS


def test_enumeration_is_shared():
    chars = enumerate_characteristics(3, 3)
    assert isinstance(chars, tuple)
    assert enumerate_characteristics(3, 3) is chars


def test_keys_spell_digits_up_to_level_ten_and_separate_them_above():
    assert Characteristic(2, 10, (9, 0), (3, 1)).key() == "90|31"
    assert Characteristic(2, 11, (1, 10), (0, 2)).key() == "1,10|0,2"
    keys = characteristic_keys(2, 3)
    assert keys == tuple(c.key() for c in enumerate_characteristics(2, 3))
    assert characteristic_keys(2, 3) is keys


# (2, 12) and (2, 16) shared keys when digits were concatenated (20164 of
# 20736 and 62500 of 65536 distinct); (2, 16), (1, 256), (3, 6) and (4, 4) are
# the largest level each genus accepts
@pytest.mark.parametrize("g,n", [(2, 11), (2, 12), (1, 256), (2, 16), (3, 6), (4, 4)])
def test_keys_are_distinct(g, n):
    try:
        assert len(set(characteristic_keys(g, n))) == n ** (2 * g)
    finally:
        # some 20 MB of characteristics per level; no other test reads these
        enumerate_characteristics.cache_clear()
        characteristic_keys.cache_clear()


def half(bits):
    """Level-2 characteristic with a ++ b = bits."""
    g = len(bits) // 2
    return Characteristic(g, 2, bits[:g], bits[g:])


def add(m, n):
    return Characteristic(m.g, 2, [x + y for x, y in zip(m.a, n.a)], [x + y for x, y in zip(m.b, n.b)])


def test_pairing_examples():
    assert symplectic_pairing(half((1, 0)), half((0, 1))) == 1
    assert symplectic_pairing(half((1, 0)), half((1, 0))) == 0
    assert symplectic_pairing(half((1, 0, 0, 0)), half((0, 1, 0, 0))) == 0


def test_pairing_rejects_mismatched_g():
    with pytest.raises(ValueError):
        symplectic_pairing(half((1, 0)), half((1, 0, 0, 0)))


def test_pairing_rejects_higher_level():
    with pytest.raises(ValueError):
        symplectic_pairing(half((1, 0)), Characteristic(1, 3, (1,), (2,)))


@pytest.mark.parametrize("g", [1, 2, 3])
def test_pairing_alternating_and_polarization(g):
    vecs = enumerate_characteristics(g, 2)
    for m in vecs:
        assert symplectic_pairing(m, m) == 0
    for m, n in itertools.product(vecs, vecs):
        qm = parity(m) == ODD
        qn = parity(n) == ODD
        qmn = parity(add(m, n)) == ODD
        assert qmn == (qm ^ qn ^ bool(symplectic_pairing(m, n)))


@pytest.mark.parametrize("g", [1, 2])
def test_pairing_bilinear_exhaustive(g):
    vecs = enumerate_characteristics(g, 2)
    for m1, m2, n in itertools.product(vecs, vecs, vecs):
        assert symplectic_pairing(add(m1, m2), n) == (
            symplectic_pairing(m1, n) + symplectic_pairing(m2, n)
        ) % 2


def test_pairing_bilinear_sampled_g3():
    rng = random.Random(5)
    vecs = enumerate_characteristics(3, 2)
    for _ in range(2000):
        m1, m2, n = (rng.choice(vecs) for _ in range(3))
        assert symplectic_pairing(add(m1, m2), n) == (
            symplectic_pairing(m1, n) + symplectic_pairing(m2, n)
        ) % 2


def test_canonical_order_isotropic_first():
    for g in (1, 2, 3):
        order = canonical_f2_order(g)
        kp = count_parity(g)[0]
        assert all(parity(c) == EVEN for c in order[:kp])
        assert all(parity(c) == ODD for c in order[kp:])
        assert [c.a + c.b for c in order[:kp]] == sorted(c.a + c.b for c in order[:kp])
        assert [c.a + c.b for c in order[kp:]] == sorted(c.a + c.b for c in order[kp:])


def symplectic_form(g):
    eye = np.eye(g, dtype=np.int64)
    return np.block([[0 * eye, eye], [-eye, 0 * eye]])


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_generators_are_integer_symplectic(g):
    gens = symplectic_generators(g)
    assert gens.dtype == np.int64
    assert gens.shape == (2 * g * g + 1, 2 * g, 2 * g)
    assert not gens.flags.writeable
    j = symplectic_form(g)
    for gamma in gens:
        assert np.array_equal(gamma.T @ j @ gamma, j)


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_generators_reduce_to_the_f2_generators(g):
    """Mod 2 the table is, in order: (I S; 0 I), (I 0; S I) per symmetric
    basis element S, the swap (0 I; I 0), then (U 0; 0 U^t), U = I + E_ij."""
    eye = np.eye(g, dtype=np.int64)
    zero = 0 * eye
    pairs = [(i, i) for i in range(g)] + list(itertools.combinations(range(g), 2))
    want = []
    for i, j in pairs:
        s = zero.copy()
        s[i, j] = s[j, i] = 1
        want += [np.block([[eye, s], [zero, eye]]), np.block([[eye, zero], [s, eye]])]
    want.append(np.block([[zero, eye], [eye, zero]]))
    for i, j in itertools.permutations(range(g), 2):
        u = eye.copy()
        u[i, j] = 1
        want.append(np.block([[u, zero], [zero, u.T]]))
    assert np.array_equal(symplectic_generators(g) % 2, np.stack(want))


def test_act_rejects_invalid_matrix():
    c = Characteristic(1, 2, (1,), (0,))
    with pytest.raises(ValueError, match="symplectic form mod 2"):
        act(np.ones((2, 2), dtype=np.int64), c)
    # at g = 1, gamma^t J gamma = det(gamma) J, and det 2 vanishes mod 2
    with pytest.raises(ValueError, match="symplectic form mod 2"):
        act(np.array([[1, 0], [0, 2]]), c)
    with pytest.raises(ValueError, match="2x2 integer matrix"):
        act(np.eye(4, dtype=np.int64), c)
    with pytest.raises(ValueError, match="2x2 integer matrix"):
        act(0.5 * np.eye(2), c)


def test_act_reads_integer_matrices_mod_2():
    # (1 2; 0 1) is the identity mod 2; -I acts trivially
    for gamma in (np.array([[1, 2], [0, 1]]), -np.eye(2, dtype=np.int64)):
        for c in enumerate_characteristics(1, 2):
            assert act(gamma, c) == c


def test_identity_acts_trivially():
    for g in (1, 2, 3):
        ident = np.eye(2 * g)
        for c in enumerate_characteristics(g, 2):
            assert act(ident, c) == c


@pytest.mark.parametrize("g", [1, 2, 3])
def test_action_preserves_parity(g):
    for gamma in symplectic_generators(g):
        for c in enumerate_characteristics(g, 2):
            assert parity(act(gamma, c)) == parity(c)


@pytest.mark.parametrize("g", [1, 2, 3])
def test_group_action_law(g):
    rng = random.Random(11)
    gens = symplectic_generators(g)
    chars = enumerate_characteristics(g, 2)
    j = symplectic_form(g)
    for _ in range(300):
        g1, g2 = rng.choice(gens), rng.choice(gens)
        product = g1 @ g2
        assert np.array_equal(product.T @ j @ product, j)
        c = rng.choice(chars)
        assert act(product, c) == act(g1, act(g2, c))


def test_orbits_g1():
    report = orbits(1, 1)
    assert report["orbit_sizes"] == [1, 3]


def test_orbits_g2_parity_classes():
    report = orbits(2, 1)
    assert sorted(report["orbit_sizes"]) == [6, 10]
    assert report["parity_classes_single_orbits"]


def test_orbits_g2_pairs_double_transitive():
    report = orbits(2, 2)
    assert 90 in report["orbit_sizes"]
    assert report["even_pairs_single_orbit"]
    assert report["odd_pairs_single_orbit"]


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_generator_permutations_match_act(g):
    perms = generator_permutations(g)
    gens = symplectic_generators(g)
    chars = enumerate_characteristics(g, 2)
    assert perms.shape == (len(gens), 4**g)
    for row, gamma in zip(perms.tolist(), gens):
        assert sorted(row) == list(range(4**g))
        assert [act(gamma, c) for c in chars] == [chars[j] for j in row]
        assert [parity(chars[j]) for j in row] == [parity(c) for c in chars]


def test_generator_permutations_shared_and_read_only():
    perms = generator_permutations(3)
    assert generator_permutations(3) is perms
    with pytest.raises(ValueError):
        perms[0, 0] = 1


def test_orbits_g3_pairs_double_transitive():
    report = orbits(3, 2)
    assert report["orbit_sizes"] == [756, 1260]
    assert report["even_pairs_single_orbit"]
    assert report["odd_pairs_single_orbit"]
    # each orbit is sorted on its keys, the orbits on (size, first key)
    assert report["orbits"][0][0] == "001|001,001|011"
    assert report["orbits"][1][0] == "000|000,000|001"
    assert all(o == sorted(o) for o in report["orbits"])


def closure_orbits(g, tuples):
    """Reference: breadth-first closure of each point under act, as sorted key lists."""
    gens = symplectic_generators(g)
    chars = enumerate_characteristics(g, 2)
    if tuples == 1:
        points = [(c,) for c in chars]
    else:
        points = [(x, y) for x in chars for y in chars if x != y and parity(x) == parity(y)]
    seen, found = set(), []
    for start in points:
        if start in seen:
            continue
        seen.add(start)
        orb = [start]
        for p in orb:
            for gamma in gens:
                q = tuple(act(gamma, c) for c in p)
                if q not in seen:
                    seen.add(q)
                    orb.append(q)
        found.append(sorted(",".join(c.key() for c in p) for p in orb))
    return sorted(found, key=lambda o: (len(o), o[0]))


@pytest.mark.parametrize("g,tuples", [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2)])
def test_orbits_match_a_closure_loop(g, tuples):
    assert orbits(g, tuples)["orbits"] == closure_orbits(g, tuples)


def test_orbits_g4():
    report = orbits(4, 1)
    assert report["orbit_sizes"] == [120, 136]
    assert report["parity_classes_single_orbits"]
    report = orbits(4, 2)
    assert report["orbit_sizes"] == [14280, 18360]
    assert report["even_pairs_single_orbit"]
    assert report["odd_pairs_single_orbit"]


def test_orbits_g5_singles():
    report = orbits(5, 1)
    assert report["orbit_sizes"] == [496, 528]
    assert report["parity_classes_single_orbits"]


@pytest.mark.parametrize("g,tuples", [(0, 1), (-1, 2), (5, 2), (9, 1), (10**9, 1)])
def test_orbits_size_cap(g, tuples):
    with pytest.raises(ValueError):
        orbits(g, tuples)


@pytest.mark.parametrize("g", [0, 9, 10**9])
def test_generators_size_cap(g):
    with pytest.raises(ValueError):
        symplectic_generators(g)

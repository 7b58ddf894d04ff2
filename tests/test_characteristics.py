import itertools
import random

import numpy as np
import pytest

from thetalab.characteristics import (
    MAX_CHARACTERISTICS,
    act,
    canonical_f2_order,
    characteristic_keys,
    count_parity,
    enumerate_characteristics,
    generator_permutations,
    kplus_positions,
    odd_mask,
    orbits,
    symplectic_generators,
    table_size,
)


# oracles on the bit rows a||b of level-2 characteristics, one sum each


def parity(row):
    """1 for an odd characteristic: sum a_i b_i is odd."""
    g = len(row) // 2
    return sum(x * y for x, y in zip(row[:g], row[g:])) % 2


def symplectic_pairing(m, n):
    """The standard symplectic form sum_i (m.a_i n.b_i + n.a_i m.b_i) mod 2."""
    g = len(m) // 2
    return sum(x * v + y * u for x, u, y, v in zip(m[:g], m[g:], n[:g], n[g:])) % 2


@pytest.mark.parametrize("g,n", [(1, 2), (2, 2), (2, 3), (1, 4), (3, 2)])
def test_enumeration_size_and_uniqueness(g, n):
    chars = enumerate_characteristics(g, n)
    assert chars.shape == (n ** (2 * g), 2 * g) and chars.dtype == np.int64
    assert len({tuple(row) for row in chars.tolist()}) == len(chars)
    # row i holds the base-n digits of i, a most significant
    assert chars.tolist() == [list(digits) for digits in itertools.product(range(n), repeat=2 * g)]


def test_enumeration_canonical_order_g1():
    assert enumerate_characteristics(1, 2).tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]


def test_parity_examples():
    for row, want in (((1, 1), 1), ((0, 0), 0), ((1, 1, 1, 1), 0)):
        index = int("".join(map(str, row)), 2)
        assert parity(row) == odd_mask(len(row) // 2)[index] == want


@pytest.mark.parametrize("g,expected", [(1, (3, 1)), (2, (10, 6)), (3, (36, 28))])
def test_count_parity_closed_form(g, expected):
    assert count_parity(g) == expected


@pytest.mark.parametrize("g", range(1, 9))
def test_count_parity_matches_enumeration(g):
    even, odd = count_parity(g)
    tally = sum(parity(row) for row in enumerate_characteristics(g, 2).tolist())
    assert (even + odd, odd) == (4**g, tally)


@pytest.mark.parametrize("g", range(1, 7))
def test_odd_mask_matches_parity(g):
    # read from the bits of the index, against the rows a||b
    want = [parity(row) == 1 for row in enumerate_characteristics(g, 2).tolist()]
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
    assert isinstance(chars, np.ndarray)
    assert enumerate_characteristics(3, 3) is chars
    with pytest.raises(ValueError):
        chars[0, 0] = 1


def test_keys_spell_digits_up_to_level_ten_and_separate_them_above():
    assert characteristic_keys(2, 10)[9031] == "90|31"
    # a = (1, 10), b = (0, 2) is the base-11 number 1 10 0 2
    assert characteristic_keys(2, 11)[((1 * 11 + 10) * 11 + 0) * 11 + 2] == "1,10|0,2"
    keys = characteristic_keys(2, 3)
    rows = enumerate_characteristics(2, 3).tolist()
    assert keys == tuple("".join(map(str, r[:2])) + "|" + "".join(map(str, r[2:])) for r in rows)
    assert characteristic_keys(2, 3) is keys


# (2, 12) and (2, 16) shared keys when digits were concatenated (20164 of
# 20736 and 62500 of 65536 distinct); (2, 16), (1, 256), (3, 6) and (4, 4) are
# the largest level each genus accepts
@pytest.mark.parametrize("g,n", [(2, 11), (2, 12), (1, 256), (2, 16), (3, 6), (4, 4)])
def test_keys_are_distinct(g, n):
    try:
        assert len(set(characteristic_keys(g, n))) == n ** (2 * g)
    finally:
        # up to 65536 keys per level; no other test reads these
        characteristic_keys.cache_clear()


def test_pairing_examples():
    assert symplectic_pairing((1, 0), (0, 1)) == 1
    assert symplectic_pairing((1, 0), (1, 0)) == 0
    assert symplectic_pairing((1, 0, 0, 0), (0, 1, 0, 0)) == 0


@pytest.mark.parametrize("g", [1, 2, 3])
def test_pairing_alternating_and_polarization(g):
    # the sum of two characteristics is the xor of their indices
    rows = enumerate_characteristics(g, 2).tolist()
    odd = odd_mask(g)
    for m in rows:
        assert symplectic_pairing(m, m) == 0
    for i, j in itertools.product(range(4**g), repeat=2):
        assert odd[i ^ j] == (odd[i] ^ odd[j] ^ bool(symplectic_pairing(rows[i], rows[j])))


@pytest.mark.parametrize("g", [1, 2])
def test_pairing_bilinear_exhaustive(g):
    rows = enumerate_characteristics(g, 2).tolist()
    for i, j, k in itertools.product(range(4**g), repeat=3):
        assert symplectic_pairing(rows[i ^ j], rows[k]) == (
            symplectic_pairing(rows[i], rows[k]) + symplectic_pairing(rows[j], rows[k])
        ) % 2


def test_pairing_bilinear_sampled_g3():
    rng = random.Random(5)
    rows = enumerate_characteristics(3, 2).tolist()
    for _ in range(2000):
        i, j, k = (rng.randrange(64) for _ in range(3))
        assert symplectic_pairing(rows[i ^ j], rows[k]) == (
            symplectic_pairing(rows[i], rows[k]) + symplectic_pairing(rows[j], rows[k])
        ) % 2


def test_canonical_order_isotropic_first():
    for g in (1, 2, 3):
        order = canonical_f2_order(g).tolist()
        rows = enumerate_characteristics(g, 2).tolist()
        kp = count_parity(g)[0]
        assert sorted(order) == list(range(4**g))
        assert all(parity(rows[i]) == 0 for i in order[:kp])
        assert all(parity(rows[i]) == 1 for i in order[kp:])
        assert [rows[i] for i in order[:kp]] == sorted(rows[i] for i in order[:kp])
        assert [rows[i] for i in order[kp:]] == sorted(rows[i] for i in order[kp:])


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
    with pytest.raises(ValueError, match="symplectic form mod 2"):
        act(np.ones((2, 2), dtype=np.int64), 2)
    # at g = 1, gamma^t J gamma = det(gamma) J, and det 2 vanishes mod 2
    with pytest.raises(ValueError, match="symplectic form mod 2"):
        act(np.array([[1, 0], [0, 2]]), 2)
    for gamma in (np.eye(3, dtype=np.int64), np.ones((2, 4), dtype=np.int64), np.array(1), 0.5 * np.eye(2)):
        with pytest.raises(ValueError, match="2g x 2g integer matrix"):
            act(gamma, 2)


@pytest.mark.parametrize("index", [-1, 4, 16, [0, 4], 1.0, 2.5, np.array([0.0, 1.0]), True, 2**70])
def test_act_refuses_an_index_outside_the_table(index):
    # at g = 1 the indices are 0..3; a characteristic is never reduced mod 2
    with pytest.raises(ValueError, match=r"integer in \[0, 4\)"):
        act(np.eye(2, dtype=np.int64), index)


def test_act_keeps_the_shape_of_its_indices():
    gamma = symplectic_generators(2)[0]
    images = act(gamma, np.arange(16).reshape(4, 4))
    assert images.shape == (4, 4) and images.dtype == np.int64
    assert int(act(gamma, 5)) == images[1, 1] == generator_permutations(2)[0, 5]
    assert act(gamma, np.arange(0)).shape == (0,)


def test_act_reads_integer_matrices_mod_2():
    # (1 2; 0 1) is the identity mod 2; -I acts trivially
    for gamma in (np.array([[1, 2], [0, 1]]), -np.eye(2, dtype=np.int64)):
        assert act(gamma, np.arange(4)).tolist() == [0, 1, 2, 3]


def test_identity_acts_trivially():
    for g in (1, 2, 3):
        assert act(np.eye(2 * g), np.arange(4**g)).tolist() == list(range(4**g))


@pytest.mark.parametrize("g", [1, 2, 3])
def test_action_preserves_parity(g):
    rows = enumerate_characteristics(g, 2).tolist()
    for gamma in symplectic_generators(g):
        assert [parity(rows[j]) for j in act(gamma, np.arange(4**g))] == [parity(r) for r in rows]


@pytest.mark.parametrize("g", [1, 2, 3])
def test_group_action_law(g):
    rng = random.Random(11)
    gens = symplectic_generators(g)
    j = symplectic_form(g)
    for _ in range(300):
        g1, g2 = rng.choice(gens), rng.choice(gens)
        product = g1 @ g2
        assert np.array_equal(product.T @ j @ product, j)
        c = rng.randrange(4**g)
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
    rows = enumerate_characteristics(g, 2).tolist()
    assert perms.shape == (len(gens), 4**g)
    for row, gamma in zip(perms.tolist(), gens):
        assert sorted(row) == list(range(4**g))
        assert [int(act(gamma, c)) for c in range(4**g)] == row
        assert [parity(rows[j]) for j in row] == [parity(r) for r in rows]


@pytest.mark.parametrize("g", [1, 2, 3])
def test_generator_permutations_permute_kplus_positions(g):
    # restricted to the even characteristics, each generator permutes K_g^+
    even = np.flatnonzero(~odd_mask(g))
    for row in kplus_positions(g, generator_permutations(g)[:, even]).tolist():
        assert sorted(row) == list(range(len(even)))


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
    """Reference: breadth-first closure of each point under act, as sorted
    key lists, each key spelled from the binary digits of its index."""
    gens = symplectic_generators(g)
    rows = enumerate_characteristics(g, 2).tolist()
    chars = range(4**g)
    if tuples == 1:
        points = [(c,) for c in chars]
    else:
        points = [(x, y) for x in chars for y in chars if x != y and parity(rows[x]) == parity(rows[y])]
    seen, found = set(), []
    for start in points:
        if start in seen:
            continue
        seen.add(start)
        orb = [start]
        for p in orb:
            for gamma in gens:
                q = tuple(int(act(gamma, c)) for c in p)
                if q not in seen:
                    seen.add(q)
                    orb.append(q)
        bits = [[format(c, f"0{2 * g}b") for c in p] for p in orb]
        found.append(sorted(",".join(b[:g] + "|" + b[g:] for b in p) for p in bits))
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


def test_orbits_and_parity_counts_refuse_out_of_range_input():
    with pytest.raises(ValueError, match="tuples must be 1 or 2"):
        orbits(2, 3)
    with pytest.raises(ValueError, match="g must be >= 1"):
        count_parity(0)


@pytest.mark.parametrize("g", [0, 9, 10**9])
def test_generators_size_cap(g):
    with pytest.raises(ValueError):
        symplectic_generators(g)

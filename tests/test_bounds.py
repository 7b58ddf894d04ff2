import pytest

from thetalab.bounds import (
    MAX_DIGITS,
    any_theorem_violated,
    compare,
    decomposable_bound,
    evaluate_bounds,
)


def by_name(rows):
    return {r.name: r for r in rows}


def test_g2_n2_values():
    rows = by_name(evaluate_bounds(2, 2))
    assert rows["two-torsion-sharp"].value == 7
    assert rows["representation-bound"].value == 8
    assert rows["rank-two-quadrics"].value == 9
    assert rows["section-ratio"].value == 10
    assert rows["classical"].value == 12
    assert rows["product-conjecture"].value == 7


def test_g3_n2_values():
    rows = by_name(evaluate_bounds(3, 2))
    assert rows["two-torsion-sharp"].value == 4**3 - 3**3 == 37
    assert rows["representation-bound"].value == 4**3 - 3 * 4 - 8 == 44
    assert rows["rank-two-quadrics"].value == 4**3 - 2**4 + 1 == 49
    assert rows["section-ratio"].value == 4**3 - (7**3 - 1) // (3**3 - 1) == 51
    assert rows["classical"].value == 4**3 - 2**3 == 56
    assert rows["product-conjecture"].value == 4**3 - 3**3 == 37


def test_higher_level_values_g2_n3():
    rows = by_name(evaluate_bounds(2, 3))
    # representation bound at odd n: n^{2g} - (g+1) n^g
    assert rows["representation-bound"].value == 3**4 - 3 * 3**2 == 54
    assert rows["product-conjecture"].value == 3**4 - 8**2 == 17
    # level-2-only rows are dropped entirely at odd level
    assert "two-torsion-sharp" not in rows
    assert "rank-two-quadrics" not in rows


def test_even_level_sharp_bound():
    rows = by_name(evaluate_bounds(2, 4))
    # n = 2m keeps the two-torsion sharp count alive after scaling by m^{2g}
    assert rows["even-torsion-sharp"].value == 2**4 * (4**2 - 3**2) == 112
    assert rows["even-torsion-sharp"].applicable
    assert rows["product-conjecture"].value == 4**4 - 15**2 == 31


def test_simple_remark_toggles():
    rows = by_name(evaluate_bounds(2, 2, assume_simple=True))
    assert rows["simple-case"].applicable
    assert rows["simple-case"].value == 4**2 - 3 * 2**2 == 4
    assert rows["simple-case"].status == "remark"


def test_rows_sorted_by_value():
    for g, n in ((1, 2), (2, 2), (3, 2), (2, 4)):
        vals = [r.value for r in evaluate_bounds(g, n)]
        assert vals == sorted(vals)


def test_theorem_ordering_invariant():
    # every theorem row improves on the classical bound (ties allowed at g = 1)
    for g in (1, 2, 3, 4, 5):
        rows = by_name(evaluate_bounds(g, 2))
        for name in ("two-torsion-sharp", "representation-bound", "rank-two-quadrics", "section-ratio"):
            assert rows[name].value <= rows["classical"].value


def test_section_ratio_floored_flag():
    assert by_name(evaluate_bounds(3, 2))["section-ratio"].floored
    assert not by_name(evaluate_bounds(2, 2))["section-ratio"].floored


def test_decomposable_bound():
    # n = 2: 4^g - 2^g prod(b_i / 2 + 1) over even block degrees
    assert decomposable_bound([1, 1], 2) == 7
    assert decomposable_bound([2], 2) == 8
    assert decomposable_bound([1, 1, 1], 2) == 37
    # n >= 3: n^{2g} - n^g prod(b_i + 1)
    assert decomposable_bound([1, 1], 3) == 3**4 - 3**2 * 4 == 45


@pytest.mark.parametrize("g,n", [(2150, 10), (7200, 2), (10**12, 3)])
def test_digit_limit_refuses_before_any_power(g, n):
    with pytest.raises(ValueError, match=f"more than {MAX_DIGITS} decimal digits"):
        evaluate_bounds(g, n)
    with pytest.raises(ValueError, match=f"more than {MAX_DIGITS} decimal digits"):
        decomposable_bound([g], n)


def test_digit_limit_admits_the_last_genus():
    # 10^4298 has 4299 digits, 2^14200 has 4275: both print
    for g, n in ((2149, 10), (7100, 2)):
        values = [r.value for r in evaluate_bounds(g, n)]
        assert max(len(str(v)) for v in values) <= MAX_DIGITS
    assert len(str(decomposable_bound([2149], 10))) <= MAX_DIGITS


def test_decomposable_bound_rejects_empty():
    with pytest.raises(ValueError):
        decomposable_bound([], 2)


def test_bounds_refuse_a_genus_or_level_out_of_range():
    with pytest.raises(ValueError, match="need g >= 1 and n >= 2"):
        evaluate_bounds(0, 2)
    with pytest.raises(ValueError, match="level n must be >= 2"):
        decomposable_bound([1], 1)


def test_compare_verdicts():
    verdicts = compare(6, evaluate_bounds(2, 2))
    assert all(v["verdict"] == "SATISFIED" for v in verdicts if v["status"] == "theorem")
    assert not any_theorem_violated(verdicts)
    bad = compare(13, evaluate_bounds(2, 2))
    assert any_theorem_violated(bad)
    assert any(v["verdict"] == "VIOLATED" for v in bad)


def test_not_applicable_never_violated():
    verdicts = compare(1000, evaluate_bounds(2, 2))
    for v in verdicts:
        if v["name"] == "simple-case":
            assert v["verdict"] == "NOT-APPLICABLE"
        elif v["status"] == "theorem":
            assert v["verdict"] == "VIOLATED"

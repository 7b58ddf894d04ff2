import csv
import importlib
import io
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import thetalab
import thetalab.cli as cli_module
from thetalab.cli import _emit, main
from thetalab.theta import PeriodMatrix, constant_table, random_tau


@pytest.fixture
def tau_file(tmp_path):
    path = tmp_path / "tau.json"
    path.write_text(json.dumps(random_tau(2, 0).to_json()))
    return str(path)


@pytest.fixture
def product_tau_file(tmp_path):
    path = tmp_path / "tau_prod.json"
    blob = {
        "g": 2,
        "re": [[0.0, 0.0], [0.0, 0.0]],
        "im": [[1.0, 0.0], [0.0, 2.0]],
    }
    path.write_text(json.dumps(blob))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_count_generic_g2(capsys, tau_file):
    code, out, _ = run(capsys, "count", "--tau", tau_file, "--n", "2")
    assert code == 0
    blob = json.loads(out)
    assert blob["theta_n"] == 6


def test_count_product_certified(capsys, product_tau_file):
    code, out, _ = run(capsys, "count", "--tau", product_tau_file, "--n", "2")
    assert code == 0
    blob = json.loads(out)
    assert blob["theta_n"] == 7
    assert blob["certified"]


def test_count_output_deterministic(capsys, tau_file):
    _, out1, _ = run(capsys, "count", "--tau", tau_file, "--n", "2", "--table")
    _, out2, _ = run(capsys, "count", "--tau", tau_file, "--n", "2", "--table")
    assert out1 == out2


def test_count_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "count", "--tau", "/nonexistent/tau.json")
    assert code == 2
    assert err


def test_count_malformed_json_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = run(capsys, "count", "--tau", str(bad))
    assert code == 2


def test_bad_subcommand_exits_2(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_verify_g2(capsys):
    code, _, err = run(capsys, "verify", "--g", "2")
    assert code == 0
    assert "PASS" in err
    assert "FAIL" not in err


def test_verify_g3_evaluates_each_table_once(capsys, monkeypatch):
    theta_module = importlib.import_module("thetalab.theta")
    calls = []
    table = theta_module.theta_table

    def counting_table(*args, **kwargs):
        calls.append(args)
        return table(*args, **kwargs)

    monkeypatch.setattr(theta_module, "theta_table", counting_table)
    code, _, err = run(capsys, "verify", "--g", "3", "--seed", "5")
    assert code == 0
    assert "FAIL" not in err
    # the two residuals each evaluate the z = 0 and 2z tables, and the
    # addition formula adds the one at 2 tau
    assert len(calls) <= 5


def test_count_box_cap_exits_2(capsys, tmp_path):
    path = tmp_path / "tau4.json"
    path.write_text(json.dumps(PeriodMatrix(0.01j * np.eye(4)).to_json()))
    code, out, err = run(capsys, "count", "--tau", str(path), "--n", "2")
    assert code == 2
    assert out == ""
    assert "lattice points" in err


@pytest.mark.parametrize("entry", ["NaN", "Infinity"])
def test_count_non_finite_tau_exits_2(capsys, tmp_path, entry):
    path = tmp_path / "tau_bad.json"
    path.write_text(f'{{"g": 2, "re": [[0.0, {entry}], [{entry}, 0.0]], "im": [[1.0, 0.0], [0.0, 1.0]]}}')
    code, out, err = run(capsys, "count", "--tau", str(path), "--n", "2")
    assert code == 2
    assert out == ""
    assert err == f"cannot read period matrix from {path}: tau must be finite\n"


def test_count_characteristic_cap_exits_2(capsys, tmp_path):
    path = tmp_path / "tau3.json"
    path.write_text(json.dumps(random_tau(3, 0).to_json()))
    code, out, err = run(capsys, "count", "--tau", str(path), "--n", "40")
    assert code == 2
    assert out == ""
    assert err.startswith("error: n^(2g) = 4096000000 characteristics exceed the cap")


@pytest.mark.parametrize("tol", ["nan", "NaN", "0", "-1"])
@pytest.mark.parametrize("command", [["count"], ["bounds", "--g", "2", "--n", "2"]])
def test_non_positive_tol_exits_2_up_front(capsys, tau_file, command, tol):
    # refused while parsing: no radius is tried, so no radius-cap message
    code, out, err = run(capsys, *command, "--tau", tau_file, "--tol", tol)
    assert code == 2
    assert out == ""
    assert f"tolerance must be positive, got {tol}" in err
    assert "radius cap" not in err


@pytest.mark.parametrize("command", [["count"], ["bounds", "--g", "2", "--n", "2"]])
@pytest.mark.parametrize("tol", ["inf", "Infinity", "1e400"])
def test_infinite_tol_exits_2_up_front(capsys, tau_file, command, tol):
    # an infinite tol sums a radius-0 box, whose count is wrong
    code, out, err = run(capsys, *command, "--tau", tau_file, "--tol", tol)
    assert (code, out) == (2, "")
    assert err.endswith(f"error: argument --tol: tolerance must be finite, got {tol}\n")


@pytest.mark.parametrize("command", [["count"], ["bounds", "--g", "2", "--n", "2"]])
def test_a_tol_too_loose_to_decide_exits_3(capsys, tau_file, command):
    # tol = 10 sums a radius-0 box: its tail bound of 5.3 swamps the band
    code, out, err = run(capsys, *command, "--tau", tau_file, "--tol", "10")
    assert (code, out) == (3, "")
    assert err == "ambiguous: tail bound 5.35 is not below 1e-06 x the largest magnitude 1\n"


@pytest.mark.parametrize("command", [["count"], ["bounds", "--g", "2", "--n", "2"]])
def test_non_numeric_tol_exits_2_up_front(capsys, tau_file, command):
    code, out, err = run(capsys, *command, "--tau", tau_file, "--tol", "abc")
    assert (code, out) == (2, "")
    assert err.endswith("error: argument --tol: tolerance must be a positive number, got abc\n")


@pytest.mark.parametrize("command", [["verify", "--g", "2"], ["h0", "--g", "3", "--budget", "5"]])
def test_negative_seed_exits_2_naming_the_option(capsys, command):
    code, out, err = run(capsys, *command, "--seed", "-1")
    assert (code, out) == (2, "")
    assert err.endswith("error: argument --seed: seed must be a non-negative integer, got -1\n")


def test_h0_g2_exhaustive(capsys):
    code, out, _ = run(capsys, "h0", "--g", "2")
    assert code == 0
    blob = json.loads(out)
    assert blob["h0"] == 9
    assert blob["exhaustive"]


@pytest.mark.parametrize("extra", [["--budget", "100"], ["--seed", "3"], ["--budget", "100", "--seed", "3"]])
def test_h0_g2_refuses_budget_and_seed(capsys, extra):
    # the genus-2 scan is exhaustive: a budget or seed would be silently ignored
    code, out, err = run(capsys, "h0", "--g", "2", *extra)
    assert code == 2
    assert out == ""
    assert err == "g = 2 is an exhaustive scan: it takes no --budget or --seed\n"


def test_h0_g3_requires_budget_and_seed(capsys):
    assert run(capsys, "h0", "--g", "3") == (2, "", "g = 3 requires --budget and --seed\n")


@pytest.mark.parametrize("g", ["1", "4"])
def test_h0_refuses_a_genus_outside_2_and_3(capsys, g):
    assert run(capsys, "h0", "--g", g) == (2, "", "h0 supports g in {2, 3}\n")


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_h0_g3_refuses_a_budget_below_1(capsys, budget):
    assert run(capsys, "h0", "--g", "3", "--budget", budget, "--seed", "1") == (2, "", "error: budget must be positive\n")


def test_h0_g3_small_budget(capsys):
    code, out, _ = run(capsys, "h0", "--g", "3", "--budget", "2000", "--seed", "1")
    assert code == 0
    blob = json.loads(out)
    assert blob["h0"] == blob["h0_upper"] == 27
    assert "counterexample_found" not in blob


def test_bounds_table(capsys):
    code, out, _ = run(capsys, "bounds", "--g", "2", "--n", "2")
    assert code == 0
    blob = json.loads(out)
    names = [r["name"] for r in blob["rows"]]
    assert "two-torsion-sharp" in names


def test_bounds_with_tau_verdicts(capsys, tau_file):
    code, out, _ = run(capsys, "bounds", "--g", "2", "--n", "2", "--tau", tau_file)
    assert code == 0
    blob = json.loads(out)
    assert blob["theta_n"] == 6
    assert all(v["verdict"] != "VIOLATED" for v in blob["verdicts"])


def test_bounds_csv_format(capsys):
    code, out, _ = run(capsys, "bounds", "--g", "2", "--n", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0].count(",") >= 2


@pytest.mark.parametrize("n", [2, 3, 4, 6])
@pytest.mark.parametrize("tau,blocks", [(False, False), (True, False), (False, True), (True, True)])
def test_bounds_csv_rows_have_equal_length(capsys, tau_file, n, tau, blocks):
    # sources such as "n = 2m" hold commas, which csv quoting keeps in one cell
    argv = ["bounds", "--g", "2", "--n", str(n)]
    argv += ["--tau", tau_file] * tau + ["--blocks", "1,1"] * blocks
    code, out, _ = run(capsys, *argv)
    assert code == 0
    blob = json.loads(out)
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len({len(r) for r in rows}) == 1
    records = [dict(zip(rows[0], r)) for r in rows[1:]]
    assert [r["source"] for r in records] == [r["source"] for r in blob["rows"]]
    assert ("decomposable_bound" in rows[0]) == blocks
    assert ("theta_n" in rows[0] and "verdict" in rows[0]) == tau
    if blocks:
        assert {r["decomposable_bound"] for r in records} == {str(blob["decomposable_bound"])}
    if tau:
        assert [r["verdict"] for r in records] == [v["verdict"] for v in blob["verdicts"]]
        assert {r["theta_n"] for r in records} == {str(blob["theta_n"])}


def test_bounds_table_format_carries_verdicts(capsys, tau_file):
    argv = ["--tau", tau_file, "--blocks", "1,1", "--format", "table"]
    code, out, _ = run(capsys, "bounds", "--g", "2", "--n", "2", *argv)
    assert code == 0
    header = out.splitlines()[0].split()
    assert {"decomposable_bound", "theta_n", "verdict"} <= set(header)


def test_orbits(capsys):
    code, out, _ = run(capsys, "orbits", "--g", "2")
    assert code == 0
    blob = json.loads(out)
    assert sorted(blob["orbit_sizes"]) == [6, 10]


def test_orbits_g4_pairs(capsys):
    code, out, _ = run(capsys, "orbits", "--g", "4", "--tuples", "2")
    assert code == 0
    blob = json.loads(out)
    assert blob["orbit_sizes"] == [14280, 18360]
    assert blob["even_pairs_single_orbit"] and blob["odd_pairs_single_orbit"]


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--g", "0"], "g must be >= 1"),
        (["--g", "5", "--tuples", "2"], "size cap: 4^(g*tuples) = 4^10 points exceed 65536"),
    ],
)
def test_orbits_out_of_range_exits_2(capsys, argv, message):
    code, out, err = run(capsys, "orbits", *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_bounds_below_the_digit_limit(capsys):
    # 2^14200 has 4275 decimal digits
    code, out, _ = run(capsys, "bounds", "--g", "7100", "--n", "2")
    assert code == 0
    assert len(str(json.loads(out)["rows"][-1]["value"])) == 4275


@pytest.mark.parametrize("g", ["7200", "3000000"])
def test_bounds_past_the_digit_limit_exits_2(capsys, g):
    start = time.perf_counter()
    code, out, err = run(capsys, "bounds", "--g", g, "--n", "2")
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err == "error: digit limit: n^(2g) would have more than 4300 decimal digits\n"


def test_export_matrix(capsys):
    code, out, _ = run(capsys, "export-matrix", "--name", "N", "--g", "2")
    assert code == 0
    blob = json.loads(out)
    mat = np.array(blob["data"])
    assert mat.shape == (10, 6)


@pytest.mark.parametrize("name", ["M", "Mplus", "Mminus", "N", "B", "L", "Bk"])
@pytest.mark.parametrize("g", ["0", "-1"])
def test_export_matrix_rejects_genus_below_one(capsys, name, g):
    code, out, err = run(capsys, "export-matrix", "--name", name, "--g", g)
    assert code == 2
    assert out == ""
    assert err == "error: g must be >= 1\n"


def test_verify_g3_builds_each_matrix_once(capsys, monkeypatch):
    matrices = importlib.import_module("thetalab.matrices")
    for build in (matrices.build_M, matrices.build_B, matrices.build_L, matrices.build_Bk):
        build.cache_clear()
    built = []
    order = matrices.canonical_f2_order

    def counting_order(g):
        built.append(g)
        return order(g)

    # build_M reads the canonical order once per matrix it builds
    monkeypatch.setattr(matrices, "canonical_f2_order", counting_order)
    code, _, err = run(capsys, "verify", "--g", "3", "--seed", "5")
    assert code == 0
    assert "FAIL" not in err
    assert built.count(3) == 1


def test_verify_g3_makes_no_elimination(capsys, monkeypatch):
    matrices = importlib.import_module("thetalab.matrices")
    for build in (matrices.build_M, matrices.build_B, matrices.build_L, matrices.build_Bk):
        build.cache_clear()
    calls = []
    rank = matrices.exact_rank
    monkeypatch.setattr(matrices, "exact_rank", lambda mat: calls.append(mat) or rank(mat))
    code, _, err = run(capsys, "verify", "--g", "3", "--seed", "5")
    assert code == 0
    assert "FAIL" not in err
    assert calls == []


def test_verify_g4(capsys):
    code, out, err = run(capsys, "verify", "--g", "4", "--seed", "0")
    assert code == 0
    assert "FAIL" not in err
    claims = {c["claim"]: c for c in json.loads(out)["claims"]}
    assert claims["rank N(4) = (4^4-1)/3 = 85"]["detail"] == "got 85"
    assert claims["addition formula residual, all 256 characteristics"]["pass"]


@pytest.mark.parametrize("g,message", [("0", "g must be >= 1"), ("5", "size cap: 4^g must be <= 256")])
def test_verify_out_of_range_genus_exits_2(capsys, g, message):
    code, out, err = run(capsys, "verify", "--g", g)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("name,size", [("B", 136), ("Bk", 81)])
def test_export_matrix_g4(capsys, name, size):
    code, out, _ = run(capsys, "export-matrix", "--name", name, "--g", "4")
    assert code == 0
    blob = json.loads(out)
    assert (blob["rows"], blob["cols"]) == (size, size)
    assert np.array(blob["data"]).shape == (size, size)


def test_export_matrix_deterministic(capsys):
    _, out1, _ = run(capsys, "export-matrix", "--name", "B", "--g", "2")
    _, out2, _ = run(capsys, "export-matrix", "--name", "B", "--g", "2")
    assert out1 == out2


def test_version_flag_exits_zero(capsys):
    assert run(capsys, "--version")[0] == 0


def write_tau(tmp_path, mat, name="tau.json"):
    path = tmp_path / name
    path.write_text(json.dumps(PeriodMatrix(mat).to_json()))
    return str(path)


# diagonal tau with a large imaginary part: the smallest nonvanishing
# constants fall in or below the magnitude band, and the product rule decides
@pytest.mark.parametrize(
    "diag",
    [[10j], [50j], [1000j], [0.1 + 8j, 0.2 + 1.2j], [0.1 + 12j, 0.2 + 1.2j], [0.1 + 20j, 0.2 + 1.2j]],
)
def test_count_diagonal_large_im_certified(capsys, tmp_path, diag):
    g = len(diag)
    path = write_tau(tmp_path, np.diag(diag))
    code, out, err = run(capsys, "count", "--tau", path, "--n", "2", "--table")
    assert (code, err) == (0, "")
    blob = json.loads(out)
    assert blob["theta_n"] == 4**g - 3**g
    assert blob["certified"] is True
    assert sum(e["vanishing"] for e in blob["table"]) == blob["theta_n"]


@pytest.mark.parametrize(
    "mat,n",
    [
        (np.block([[random_tau(2, 3).mat, np.zeros((2, 1))], [np.zeros((1, 2)), np.array([[1.1j]])]]), 2),
        (np.diag([1j, 2j]), 3),
        (np.diag([1j, 2j]), 6),
        (random_tau(2, 0).mat, 2),
        (random_tau(3, 0).mat, 2),
    ],
    ids=["block-2+1-n2", "diagonal-n3", "diagonal-n6", "generic-g2-n2", "generic-g3-n2"],
)
def test_count_not_certified(capsys, tmp_path, mat, n):
    path = write_tau(tmp_path, mat)
    code, out, _ = run(capsys, "count", "--tau", path, "--n", str(n))
    assert code == 0
    assert json.loads(out)["certified"] is False


def test_count_refuses_a_diagonal_miscount(capsys, tmp_path):
    # at tau = i diag(1, 50) the level-3 constants with a_2 != 0 are about
    # exp(-50 pi / 9) of the maximum, below the vanishing threshold, yet the
    # product rule says no level-3 constant vanishes
    path = write_tau(tmp_path, np.diag([1j, 50j]))
    code, out, err = run(capsys, "count", "--tau", path, "--n", "3")
    assert (code, out) == (3, "")
    assert err.startswith("ambiguous: the threshold policy contradicts the product rule at characteristics ['01|00'")


@pytest.mark.parametrize("g,n", [(2, 3), (2, 6), (3, 3)])
def test_count_diagonal_tau_keeps_the_product_rule_count(capsys, tmp_path, g, n):
    # the count-mix diagonal family: Re in [-1/2, 1/2], Im in [1, 1.5]
    rng = np.random.default_rng(n + g)
    for draw in range(4):
        diag = rng.uniform(-0.5, 0.5, g) + 1j * rng.uniform(1.0, 1.5, g)
        path = write_tau(tmp_path, np.diag(diag), f"tau{draw}.json")
        code, out, _ = run(capsys, "count", "--tau", path, "--n", str(n))
        assert code == 0
        blob = json.loads(out)
        # n^(2g) minus the product of the genus-1 nonvanishing counts
        assert blob["theta_n"] == n ** (2 * g) - (n * n - (n % 2 == 0)) ** g
        assert blob["certified"] is False


@pytest.mark.parametrize(
    "blob",
    [
        {"g": 2.5, "re": [[0.0, 0.0], [0.0, 0.0]], "im": [[1.0, 0.0], [0.0, 1.0]]},
        # JSON true and the string "0.25" are not numbers, though Python and numpy read them as 1 and 0.25
        {"g": True, "re": [[0.0]], "im": [[1.0]]},
        {"g": 1, "re": [["0.25"]], "im": [[1.0]]},
        {"g": 1, "re": [[0.0]], "im": [[True]]},
    ],
    ids=["float-genus", "boolean-genus", "string-entry", "boolean-entry"],
)
def test_count_refuses_a_malformed_tau(capsys, tmp_path, blob):
    path = tmp_path / "tau.json"
    path.write_text(json.dumps(blob))
    code, out, err = run(capsys, "count", "--tau", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"cannot read period matrix from {path}")


def diagonal_blob(im22):
    return {"g": 2, "re": [[0.0, 0.0], [0.0, 0.0]], "im": [[1.0, 0.0], [0.0, im22]]}


@pytest.mark.parametrize("im22", [1e308, 1e306])
def test_count_refuses_tau_entries_near_the_float_maximum(capsys, tmp_path, im22):
    path = tmp_path / "tau.json"
    path.write_text(json.dumps(diagonal_blob(im22)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "count", "--tau", str(path))
    assert (code, out) == (2, "")
    assert err == f"cannot read period matrix from {path}: tau entries must be at most 1e+300 in modulus\n"


def test_count_takes_tau_entries_at_the_bound(capsys, tmp_path):
    path = tmp_path / "tau.json"
    path.write_text(json.dumps(diagonal_blob(1e300)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run(capsys, "count", "--tau", str(path))
    assert code == 0
    assert json.loads(out)["theta_n"] == 7


@pytest.fixture
def classify_calls(monkeypatch):
    theta_module = importlib.import_module("thetalab.theta")
    calls = []
    classify = theta_module.classify_magnitudes

    def counting_classify(*args, **kwargs):
        calls.append(args)
        return classify(*args, **kwargs)

    monkeypatch.setattr(theta_module, "classify_magnitudes", counting_classify)
    return calls


def test_count_table_classifies_once(capsys, tau_file, classify_calls):
    code, _, _ = run(capsys, "count", "--tau", tau_file, "--n", "2", "--table")
    assert code == 0
    assert len(classify_calls) == 1


@pytest.mark.parametrize("extra", [[], ["--table"], ["--format", "csv"], ["--table", "--format", "table"]])
def test_count_diagonal_level2_never_classifies(capsys, product_tau_file, classify_calls, extra):
    code, _, _ = run(capsys, "count", "--tau", product_tau_file, "--n", "2", *extra)
    assert code == 0
    assert classify_calls == []


@pytest.mark.parametrize("table", [False, True])
def test_count_csv_rows_are_flat(capsys, tau_file, table):
    argv = ["count", "--tau", tau_file, "--n", "2", "--format", "csv"] + ["--table"] * table
    code, out, _ = run(capsys, *argv)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == (17 if table else 2)
    assert len({len(r) for r in rows}) == 1
    assert not any("{" in cell or "[" in cell for r in rows for cell in r)
    header = rows[0]
    if table:
        assert header == ["char", "value_im", "value_re", "vanishing"]
        assert sum(r[header.index("vanishing")] == "True" for r in rows[1:]) == 6
    else:
        assert header == [
            "certified",
            "g",
            "max_magnitude",
            "max_vanishing_margin",
            "min_nonvanishing_margin",
            "n",
            "theta_n",
        ]
        record = dict(zip(header, rows[1]))
        assert record["theta_n"] == "6"


@pytest.mark.parametrize("table", [False, True])
def test_count_table_format_rows_are_flat(capsys, tau_file, table):
    argv = ["count", "--tau", tau_file, "--n", "2", "--format", "table"] + ["--table"] * table
    code, out, _ = run(capsys, *argv)
    assert code == 0
    rows = [line.split() for line in out.splitlines()]
    assert len(rows) == (17 if table else 2)
    assert len({len(r) for r in rows}) == 1
    assert "{" not in out and "[" not in out


def reference_entries(table):
    """The count --table entries built one characteristic at a time from the
    table's arrays: the reference for count --table.  The key of
    index i is spelled from its base-n digits (n <= 10), a then b."""
    g = table.tau.g
    digits = [np.base_repr(i, table.n).zfill(2 * g) for i in range(len(table.values))]
    return [
        {
            "char": d[:g] + "|" + d[g:],
            "value": [float(v.real), float(v.imag)],
            "vanishing": bool(f),
        }
        for d, v, f in zip(digits, table.values, table.flags)
    ]


def family_tau(kind, g):
    """The generic tau random_tau(g, 0), or a diagonal tau, whose odd
    constants are exact or signed zeros."""
    if kind == "generic":
        return random_tau(g, 0)
    return PeriodMatrix(np.diag([k * (0.2 + 1j) + 0.1j for k in range(1, g + 1)]))


@pytest.mark.parametrize("kind", ["generic", "diagonal"])
@pytest.mark.parametrize("g,n", [(1, 2), (2, 2), (2, 6), (3, 2), (3, 3)])
def test_count_table_prints_the_json_encoding(capsys, tmp_path, g, n, kind):
    tau = family_tau(kind, g)
    path = write_tau(tmp_path, tau.mat)
    table = constant_table(tau, n)
    entries = reference_entries(table)
    summary = table.to_json()
    code, out, err = run(capsys, "count", "--tau", path, "--n", str(n), "--table")
    assert (code, err) == (0, "")
    assert out == json.dumps(summary | {"table": entries}, sort_keys=True, indent=2) + "\n"
    rows = [
        {k: v for k, v in e.items() if k != "value"}
        | {"value_re": e["value"][0], "value_im": e["value"][1]}
        for e in entries
    ]
    for fmt in ("csv", "table"):
        _emit(rows, fmt)
        want = capsys.readouterr().out
        assert run(capsys, "count", "--tau", path, "--n", str(n), "--table", "--format", fmt) == (0, want, "")


# the (g, n) levels count-mix runs
COUNTS = [(2, 2), (3, 2), (2, 6), (3, 3)]


@pytest.mark.parametrize("kind", ["generic", "diagonal"])
@pytest.mark.parametrize("g,n", COUNTS)
def test_count_table_magnitudes_and_margins_derive_from_its_values(capsys, tmp_path, g, n, kind):
    # the rows print no magnitude or margin; repr round-trips, so |value| and
    # |value| / max_magnitude of the parsed output give the margins exactly
    path = write_tau(tmp_path, family_tau(kind, g).mat)
    code, out, err = run(capsys, "count", "--tau", path, "--n", str(n), "--table")
    assert (code, err) == (0, "")
    blob = json.loads(out)
    assert all(sorted(e) == ["char", "value", "vanishing"] for e in blob["table"])
    values = np.array([e["value"] for e in blob["table"]])
    mags = np.abs(values[:, 0] + 1j * values[:, 1])
    flags = np.array([e["vanishing"] for e in blob["table"]])
    assert blob["max_magnitude"] == mags.max()
    margins = mags / blob["max_magnitude"]
    assert blob["margins"] == {
        "min_nonvanishing": margins[~flags].min() if (~flags).any() else float("inf"),
        "max_vanishing": margins[flags].max() if flags.any() else 0.0,
    }


def test_the_package_run_as_a_module_prints_what_main_prints(capsys, tau_file):
    argv = ["count", "--tau", tau_file, "--n", "3", "--table"]
    code, want, _ = run(capsys, *argv)
    src = str(Path(thetalab.__file__).resolve().parents[1])
    env = os.environ | {"PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "thetalab", *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, want, "")


def test_main_builds_the_parser_once():
    # a fresh interpreter: the import builds no parser, and N main() calls
    # build the root parser and its six subparsers once
    src = str(Path(thetalab.__file__).resolve().parents[1])
    env = os.environ | {"PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import argparse, contextlib, io\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def spy(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = spy\n"
        "import thetalab.cli\n"
        "counts = [len(built)]\n"
        "argvs = [['--version'], ['orbits', '--g', '1'], ['frobnicate'], ['export-matrix', '--name', 'M', '--g', '1']]\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    for i, argv in enumerate(argvs * 3):\n"
        "        thetalab.cli.main(argv)\n"
        "        if i == 0:\n"
        "            counts.append(len(built))\n"
        "print(counts + [len(built)])"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[0, 7, 7]\n", "")


def test_repeated_main_calls_match_fresh_processes(capsys, monkeypatch, tau_file):
    # one in-process sequence mixing successes, usage errors, help and version
    # prints and exits exactly as each argv does in a fresh `python -m thetalab`
    monkeypatch.setenv("COLUMNS", "80")
    argvs = [
        ["count", "--tau", tau_file, "--n", "3"],
        # the level-3 tables are warm in this process, and cold in a fresh one
        ["count", "--tau", tau_file, "--n", "3", "--table"],
        ["frobnicate"],
        ["count", "--tau", tau_file, "--tol", "abc"],
        ["--help"],
        ["count", "--help"],
        ["--version"],
        ["verify", "--g", "2"],
    ]
    got = [run(capsys, *argv) for argv in argvs]
    src = str(Path(thetalab.__file__).resolve().parents[1])
    env = os.environ | {"PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for argv, result in zip(argvs, got):
        proc = subprocess.run(
            [sys.executable, "-m", "thetalab", *argv], capture_output=True, text=True, env=env, timeout=120
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == result, argv


def test_a_handler_rebound_after_the_first_call_runs(capsys, monkeypatch, tau_file):
    assert run(capsys, "count", "--tau", tau_file)[0] == 0
    calls = []
    monkeypatch.setattr(cli_module, "cmd_count", lambda args: calls.append(args.n) or 5)
    assert run(capsys, "count", "--tau", tau_file, "--n", "3") == (5, "", "")
    assert calls == [3]


def test_import_builds_no_table():
    # a one-shot CLI process pays for whatever the import builds, so every
    # cached table is built on first use
    src = str(Path(thetalab.__file__).resolve().parents[1])
    env = os.environ | {"PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import thetalab.cli\n"
        "from thetalab.characteristics import characteristic_keys, enumerate_characteristics, generator_permutations\n"
        "from thetalab.matrices import build_M, build_kernel_projector\n"
        "tables = (enumerate_characteristics, characteristic_keys, generator_permutations, build_M)\n"
        "from thetalab.theta import _axis_tables, _level_tables, product_rule_flags\n"
        "tables += (build_kernel_projector, product_rule_flags, _axis_tables, _level_tables)\n"
        "print([t.cache_info().currsize for t in tables])"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[0, 0, 0, 0, 0, 0, 0, 0]\n", "")


def test_count_refuses_a_non_finite_constant(capsys, tau_file, monkeypatch):
    theta_module = importlib.import_module("thetalab.theta")
    theta_table = theta_module.theta_table

    def one_nan(*args, **kwargs):
        table = theta_table(*args, **kwargs)
        table.values[3] = np.nan
        return table

    monkeypatch.setattr(theta_module, "theta_table", one_nan)
    code, out, err = run(capsys, "count", "--tau", tau_file, "--n", "2", "--table")
    assert (code, out) == (2, "")
    assert "non-finite" in err


def test_count_exits_3_on_the_band_offenders(capsys, tmp_path):
    # generic g = 3 with Im tau scaled by 4 puts six constants in the
    # undecidable band of the threshold policy.  This pins the refusal as it
    # stands; certifying those constants would change it.
    tau = random_tau(3, 0)
    path = tmp_path / "stiff.json"
    path.write_text(json.dumps(PeriodMatrix(tau.re + 4j * tau.im).to_json()))
    offenders = ["110|110", "110|111", "111|000", "111|011", "111|101", "111|110"]
    want = f"ambiguous: undecidable theta constants at characteristics {offenders}\n"
    assert run(capsys, "count", "--tau", str(path), "--n", "2") == (3, "", want)


@pytest.mark.parametrize(
    "residual,what", [("fay_relation_residual", "quartic relation"), ("addition_residual", "addition formula")]
)
def test_verify_exits_4_on_a_residual_above_tolerance(capsys, monkeypatch, residual, what):
    monkeypatch.setattr(cli_module, residual, lambda tau, z: 1.0)
    want = f"verification failed: {what} residual above tolerance\n"
    assert run(capsys, "verify", "--g", "2") == (4, "", want)


@pytest.mark.parametrize(
    "argv,message",
    [
        (["bounds", "--g", "3", "--n", "2", "--blocks", "1,1"], "--blocks must sum to g"),
        (["bounds", "--g", "3", "--n", "2", "--tau"], "--tau dimension disagrees with --g"),
        (["verify", "--g", "2", "--seed", "abc"], "thetalab verify: error: argument --seed: invalid int value: 'abc'"),
    ],
    ids=["blocks-sum", "tau-genus", "seed-text"],
)
def test_usage_errors_exit_2_with_their_message(capsys, tau_file, argv, message):
    if argv[-1] == "--tau":
        argv = argv + [tau_file]  # a genus-2 tau
    code, out, err = run(capsys, *argv)
    assert (code, out, err.splitlines()[-1]) == (2, "", message)


@pytest.mark.parametrize("im", [[[1.0, 1.0], [1.0, 1.0]], [[1.0, 2.0], [2.0, 1.0]]], ids=["singular", "indefinite"])
def test_count_refuses_an_im_tau_that_is_not_positive_definite(capsys, tmp_path, im):
    path = tmp_path / "tau.json"
    path.write_text(json.dumps({"g": 2, "re": [[0.0, 0.0], [0.0, 0.0]], "im": im}))
    want = f"cannot read period matrix from {path}: Im tau must be positive definite\n"
    assert run(capsys, "count", "--tau", str(path), "--n", "2") == (2, "", want)

import csv
import importlib
import io
import json

import numpy as np
import pytest

from thetalab.cli import main
from thetalab.theta import PeriodMatrix, random_tau


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
    # the module is shadowed on the package by the function thetalab.theta
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
    assert len(calls) <= 6


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


def test_h0_g2_exhaustive(capsys):
    code, out, _ = run(capsys, "h0", "--g", "2")
    assert code == 0
    blob = json.loads(out)
    assert blob["h0"] == 9
    assert blob["exhaustive"]


def test_h0_g3_requires_budget_and_seed(capsys):
    assert run(capsys, "h0", "--g", "3")[0] == 2


def test_h0_g3_small_budget(capsys):
    code, out, _ = run(capsys, "h0", "--g", "3", "--budget", "2000", "--seed", "1")
    assert code == 0
    blob = json.loads(out)
    assert blob["h0_upper"] == 27
    assert not blob["counterexample_found"]


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
        assert {"char", "value_re", "value_im", "vanishing"} <= set(header)
        assert sum(r[header.index("vanishing")] == "True" for r in rows[1:]) == 6
    else:
        record = dict(zip(header, rows[1]))
        assert record["theta_n"] == "6"
        assert {"min_nonvanishing_margin", "max_vanishing_margin"} <= set(header)


@pytest.mark.parametrize("table", [False, True])
def test_count_table_format_rows_are_flat(capsys, tau_file, table):
    argv = ["count", "--tau", tau_file, "--n", "2", "--format", "table"] + ["--table"] * table
    code, out, _ = run(capsys, *argv)
    assert code == 0
    rows = [line.split() for line in out.splitlines()]
    assert len(rows) == (17 if table else 2)
    assert len({len(r) for r in rows}) == 1
    assert "{" not in out and "[" not in out

"""Command-line surface: count, verify, h0, bounds, orbits, export-matrix.

All output is machine-readable JSON (sorted keys, so identical configs give
byte-identical output); bound tables can also render as csv or a plain
table.  Exit codes: 0 success, 2 usage/input error, 3 a theta constant in the
undecidable magnitude band or a tail bound above it, 4 verification failure.

``main(argv)`` can be called repeatedly in one process.  The argparse tree is
built once, on the first call (never at import), and each call looks its
handler up by command name (``export-matrix`` runs ``cmd_export_matrix``), so
a ``cmd_*`` rebound after that first call is the one that runs.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys

import numpy as np

from . import __version__
from .bounds import compare, decomposable_bound, evaluate_bounds
from .characteristics import count_parity, orbits
from .errors import AmbiguousVanishingError, ThetaLabError, VerificationError
from .matrices import build_B, build_Bk, build_L, export_json, verify_fay_spectrum
from .search import h0_exhaustive, h0_probe
from .theta import (
    PeriodMatrix,
    addition_residual,
    constant_table,
    fay_relation_residual,
    random_tau,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_AMBIGUOUS = 3
EXIT_VERIFICATION = 4

RESIDUAL_TOL = 1e-8


def _emit(obj, fmt="json"):
    """Print obj as JSON, or obj, a non-empty list of flat rows, as csv or a table."""
    if fmt == "json":
        print(json.dumps(obj, sort_keys=True, indent=2))
        return
    keys = sorted(obj[0])
    cells = [[str(r.get(k, "")) for k in keys] for r in obj]
    if fmt == "csv":
        out = csv.writer(sys.stdout, lineterminator="\n")
        out.writerow(keys)
        out.writerows(cells)
    else:  # table
        widths = [max(len(k), *(len(c) for c in col)) for k, col in zip(keys, zip(*cells))]
        print("  ".join(k.ljust(w) for k, w in zip(keys, widths)))
        for row in cells:
            print("  ".join(c.ljust(w) for c, w in zip(row, widths)))


def _load_tau(path) -> PeriodMatrix:
    try:
        with open(path) as fh:
            obj = json.load(fh)
        return PeriodMatrix.from_json(obj)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise SystemExit(f"cannot read period matrix from {path}: {exc}") from exc


def _tolerance(text) -> float:
    """A --tol value: a positive finite number (text, NaN, infinity and
    non-positive values are refused)."""
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"tolerance must be a positive number, got {text}") from None
    if not tol > 0:
        raise argparse.ArgumentTypeError(f"tolerance must be positive, got {text}")
    if tol == float("inf"):
        raise argparse.ArgumentTypeError(f"tolerance must be finite, got {text}")
    return tol


def _seed(text) -> int:
    """A --seed value: a non-negative integer, as numpy's generators take."""
    try:
        seed = int(text)
    except ValueError:  # argparse's own wording for a type=int option
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {text}")
    return seed


# one entry of the count --table list as json.dumps(sort_keys=True, indent=2)
# prints it at depth 2; %r is float.__repr__, the spelling json uses for the
# finite floats a ConstantTable holds
TABLE_ENTRY = (
    '    {\n      "char": "%s",\n      "magnitude": %r,\n      "margin": %r,\n'
    '      "value": [\n        %r,\n        %r\n      ],\n      "vanishing": %s\n    }'
)


def _table_json(col) -> str:
    """The "table" list of count --table JSON, rendered from the table's columns."""
    flags = ["true" if f else "false" for f in col["vanishing"]]
    rows = zip(col["char"], col["magnitude"], col["margin"], col["value_re"], col["value_im"], flags)
    return "[\n" + ",\n".join([TABLE_ENTRY % row for row in rows]) + "\n  ]"


def cmd_count(args) -> int:
    tau = _load_tau(args.tau)
    table = constant_table(tau, args.n, tol=args.tol)
    out = table.to_json()
    if args.format == "json" and args.table:
        text = json.dumps(out | {"table": None}, sort_keys=True, indent=2)
        print(text.replace('"table": null', '"table": ' + _table_json(table.columns()), 1))
    elif args.format == "json":
        _emit(out, "json")
    elif args.table:
        # flat rows: one per characteristic, the complex value as two columns
        col = table.columns()
        _emit([dict(zip(col, row)) for row in zip(*col.values())], args.format)
    else:
        margins = {f"{k}_margin": v for k, v in out.pop("margins").items()}
        _emit([out | margins], args.format)
    return EXIT_OK


def cmd_verify(args) -> int:
    g = args.g
    claims = list(verify_fay_spectrum(g))

    build_B(g)
    claims.append({"claim": f"B({g}) = 2^(g-1)(2^g I - M+) entrywise", "pass": True})
    build_L(g)
    claims.append({"claim": f"L({g}) Kronecker spectrum", "pass": True})
    build_Bk(g)
    claims.append(
        {"claim": f"strictly-even submatrix rank 3^{g} - 2^{g}", "pass": True}
    )

    rng = np.random.default_rng(args.seed)
    tau = random_tau(g, rng)
    z = rng.uniform(-0.4, 0.4, g) + 1j * rng.uniform(-0.4, 0.4, g)
    # N's columns are the odd characteristics
    residuals = (
        ("quartic relation", fay_relation_residual, f"all {count_parity(g)[1]} columns"),
        ("addition formula", addition_residual, f"all {4**g} characteristics"),
    )
    for name, residual, scope in residuals:
        worst = residual(tau, z)
        if not worst < RESIDUAL_TOL:
            raise VerificationError(f"{name} residual above tolerance")
        claims.append({"claim": f"{name} residual, {scope}", "pass": True, "detail": f"max residual {worst:.3e}"})

    # a failing claim raises before this point, so every claim passed
    _emit({"g": g, "seed": args.seed, "claims": claims, "all_pass": True}, "json")
    for item in claims:
        print(f"PASS {item['claim']}", file=sys.stderr)
    return EXIT_OK


def cmd_h0(args) -> int:
    if args.g == 2:
        if args.budget is not None or args.seed is not None:
            raise SystemExit("g = 2 is an exhaustive scan: it takes no --budget or --seed")
        report = h0_exhaustive(2)
    elif args.g == 3:
        if args.budget is None or args.seed is None:
            raise SystemExit("g = 3 requires --budget and --seed")
        report = h0_probe(3, budget=args.budget, seed=args.seed)
    else:
        raise SystemExit("h0 supports g in {2, 3}")
    _emit(report.to_json(), "json")
    return EXIT_OK


def cmd_bounds(args) -> int:
    rows = evaluate_bounds(args.g, args.n, assume_simple=args.assume_simple)
    out = {"g": args.g, "n": args.n, "rows": [r.to_json() for r in rows]}
    if args.blocks:
        blocks = [int(x) for x in args.blocks.split(",")]
        if sum(blocks) != args.g:
            raise SystemExit("--blocks must sum to g")
        out["decomposable_bound"] = decomposable_bound(blocks, args.n)
    if args.tau:
        tau = _load_tau(args.tau)
        if tau.g != args.g:
            raise SystemExit("--tau dimension disagrees with --g")
        theta_n = constant_table(tau, args.n, tol=args.tol).count
        out["theta_n"] = theta_n
        out["verdicts"] = compare(theta_n, rows)
    if args.format == "json":
        _emit(out, "json")
        return EXIT_OK
    # flat rows: the table-wide figures and each row's verdict as columns
    rows = out["rows"]
    if args.blocks:
        rows = [r | {"decomposable_bound": out["decomposable_bound"]} for r in rows]
    if args.tau:
        verdicts = out["verdicts"]
        rows = [r | {"theta_n": theta_n, "verdict": v["verdict"]} for r, v in zip(rows, verdicts)]
    _emit(rows, args.format)
    return EXIT_OK


def cmd_orbits(args) -> int:
    report = orbits(args.g, args.tuples)
    if not args.full:
        report = {k: v for k, v in report.items() if k != "orbits"}
    _emit(report, "json")
    return EXIT_OK


def cmd_export_matrix(args) -> int:
    _emit(export_json(args.name, args.g), "json")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process (on the first call)."""
    parser = argparse.ArgumentParser(
        prog="thetalab",
        description="torsion points on theta divisors: counts, exact matrix "
        "verification, submatrix rank search, bound tables",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count vanishing level-n theta constants")
    p.add_argument("--tau", required=True, help="period matrix JSON file")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--tol", type=_tolerance, default=1e-12)
    p.add_argument("--table", action="store_true", help="include the per-characteristic table")
    p.add_argument("--format", choices=("json", "csv", "table"), default="json")

    p = sub.add_parser("verify", help="run the exact and analytic verification suite")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--seed", type=_seed, default=0)

    p = sub.add_parser("h0", help="principal-submatrix rank search")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--seed", type=_seed, default=None)

    p = sub.add_parser("bounds", help="closed-form bound table, optionally vs a count")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tau", default=None)
    p.add_argument("--blocks", default=None, help="comma-separated block dimensions")
    p.add_argument("--assume-simple", action="store_true")
    p.add_argument("--tol", type=_tolerance, default=1e-12)
    p.add_argument("--format", choices=("json", "csv", "table"), default="json")

    p = sub.add_parser("orbits", help="orbit partition of level-2 characteristics")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--tuples", type=int, choices=(1, 2), default=1)
    p.add_argument("--full", action="store_true", help="include the orbit elements")

    p = sub.add_parser("export-matrix", help="dump an exact matrix with labels as JSON")
    p.add_argument("--name", required=True, choices=("M", "Mplus", "Mminus", "N", "B", "L", "Bk"))
    p.add_argument("--g", type=int, required=True)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    # looked up at call time, not bound into the cached parser, so a handler
    # rebound after the first call (a test's monkeypatch, a tracer) runs
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except SystemExit as exc:  # every handler exits with a message
        print(exc.code, file=sys.stderr)
        return EXIT_USAGE
    except AmbiguousVanishingError as exc:
        print(f"ambiguous: {exc}", file=sys.stderr)
        return EXIT_AMBIGUOUS
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except (ThetaLabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

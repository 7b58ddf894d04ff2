"""Pinned integer and string outputs of the CLI.

cli_pins.json holds, for each invocation in INVOCATIONS, the part of its
stdout that holds no float: export-matrix, orbits --full, h0 and bounds whole; the name
and pass of each verify claim; theta_n, certified, the char keys and the
indices of the vanishing entries of count --table; and the whole stdout of an
invocation that exits nonzero, which is empty.  A text longer than
TEXT_LIMIT characters is pinned by its sha256.  Floats are left out, so that
their last digits may change while these stay fixed.

After an intended output change, regenerate the file with
`PYTHONPATH=src python tests/test_cli_pins.py > tests/cli_pins.json`.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from thetalab.cli import main
from thetalab.theta import PeriodMatrix, random_tau

PINS = Path(__file__).with_name("cli_pins.json")
TEXT_LIMIT = 4096
NAMES = ("M", "Mplus", "Mminus", "N", "B", "L", "Bk")
# a --tau token names its tau as family and genus, for example diagonal3
TAUS = {
    "generic": lambda g: random_tau(g, 0).mat,
    "diagonal": lambda g: np.diag([k * (0.2 + 1j) + 0.1j for k in range(1, g + 1)]),
    # i diag(1, ..., 1, 50): at level 3 the threshold policy calls the
    # constants with a nonzero last digit of a vanishing, the product rule none
    "lopsided": lambda g: 1j * np.diag([1.0] * (g - 1) + [50.0]),
    # 2+1 block diagonal at g = 3: the generic genus-2 tau beside a genus-1 entry
    "block": lambda g: np.block([[random_tau(2, 0).mat, np.zeros((2, 1))], [np.zeros((1, 2)), np.full((1, 1), 0.1 + 1.2j)]]),
}
COUNTS = [(2, 2), (3, 2), (2, 6), (3, 3)]

INVOCATIONS = (
    [f"export-matrix --name {name} --g {g}" for g in (1, 2, 3) for name in NAMES]
    + [f"orbits --g {g} --tuples 1 --full" for g in (1, 2, 3, 4)]
    + [f"orbits --g {g} --tuples 2 --full" for g in (1, 2, 3)]
    + [f"verify --g {g}" for g in (1, 2, 3)]
    + [f"count --tau {kind}{g} --n {n} --table" for g, n in COUNTS for kind in ("generic", "diagonal")]
    + ["count --tau diagonal2 --n 12 --table", "count --tau lopsided2 --n 3"]
    + ["count --tau generic2 --n 2 --tol 10", "bounds --g 2 --n 2 --tau generic2"]
    + ["h0 --g 2", "h0 --g 3 --budget 2000 --seed 1", "h0 --g 3 --budget 4000 --seed 7"]
    + ["h0 --g 3 --budget 20000 --seed 3", "h0 --g 4", "h0 --g 2 --budget 5", "h0 --g 3"]
    + [f"count --tau block3 --n {n} --table" for n in (2, 3)]
)


def text_or_digest(text):
    if len(text) <= TEXT_LIMIT:
        return text
    return {"sha256": hashlib.sha256(text.encode()).hexdigest(), "length": len(text)}


def observe(invocation, directory):
    """Run one invocation in-process; its exit code and the pinned part of its stdout."""
    argv = invocation.split()
    if "--tau" in argv:
        at = argv.index("--tau") + 1
        token = argv[at]
        path = Path(directory) / f"{token}.json"
        path.write_text(json.dumps(PeriodMatrix(TAUS[token[:-1]](int(token[-1]))).to_json()))
        argv[at] = str(path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    out = out.getvalue()
    if argv[0] == "verify":
        blob = json.loads(out)
        pinned = {"claims": [[c["claim"], c["pass"]] for c in blob["claims"]], "all_pass": blob["all_pass"]}
    elif argv[0] == "count" and code == 0:
        blob = json.loads(out)
        pinned = {
            "theta_n": blob["theta_n"],
            "certified": blob["certified"],
            "char": text_or_digest(" ".join(e["char"] for e in blob["table"])),
            "vanishing": [i for i, e in enumerate(blob["table"]) if e["vanishing"]],
        }
    else:
        pinned = text_or_digest(out)
    return {"exit": code, "stdout": pinned}


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS.read_text())


@pytest.mark.parametrize("invocation", INVOCATIONS)
def test_cli_output_pinned(pins, tmp_path, invocation):
    assert observe(invocation, tmp_path) == pins[invocation]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        json.dump({i: observe(i, directory) for i in INVOCATIONS}, sys.stdout, indent=1)
    print()

"""Seeded inputs, op mixes and closed-form output checks for the workloads.

An op is one ``thetalab`` CLI command.  Each workload is a *deck*: a fixed
multiset of op types that the seed fills with fresh inputs (period matrices,
``--seed`` values) and shuffles.  The timed loop runs whole decks, so the op
mix of a run is the same for every seed and only the inputs vary.

Every op carries the closed-form values its output must show; ``check``
compares them with the program's JSON and returns a description of the first
mismatch, or None.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Decks generated ahead of timing, per workload: about three times what one
# pass of a 50 s run uses on a 2.1 GHz Xeon; a run that needs more cycles
# through them.  count-mix writes a tau file for every op during set-up, so
# it keeps few.
DECKS = {"count-mix": 12, "h0-probe": 60, "verify-suite": 12}

# count-mix: (g, n, tau family, --table), 20 ops, 5 of them with --table.
# Sorted by cost: 6 ops at n = 2 (under 0.1 s), one (2,6), then 11 ops near
# 0.5 s ((3,3) plain and (2,6) with --table), then two (3,3) with --table.
# The median and the 80th percentile fall inside the 0.5 s group, not on a
# boundary between op types.  At (2,6) tau is diagonal: the level-6
# constants of generic tau come within a factor 1.1 of the ambiguous band
# (see the defect probe below).
COUNT_DECK = (
    (2, 2, "generic", False),
    (2, 2, "diagonal", False),
    (2, 2, "diagonal", True),
    (3, 2, "generic", False),
    (3, 2, "block", False),
    (3, 2, "diagonal", True),
    (2, 6, "diagonal", False),
    (2, 6, "diagonal", True),
    (3, 3, "generic", False),
    (3, 3, "generic", False),
    (3, 3, "generic", False),
    (3, 3, "generic", False),
    (3, 3, "diagonal", False),
    (3, 3, "diagonal", False),
    (3, 3, "diagonal", False),
    (3, 3, "block", False),
    (3, 3, "block", False),
    (3, 3, "block", False),
    (3, 3, "generic", True),
    (3, 3, "generic", True),
)

# h0-probe: genus-3 probe budgets (both the uniform and the greedy-swap phase
# run at every budget) plus interleaved genus-2 exhaustive scans.  The cost
# of a probe turns on the random submatrix orders it draws: over 25 seeds it
# varied with a coefficient of variation of about 0.5 at every budget from
# 1000 to 10000.  So the budgets are small, and a run holds some 120 probes
# whose mean is steady.  The process's peak memory is set by the largest
# order a 4000 probe draws for its one uniform batch, so two per deck draw
# it about fifty times a run.  12 of the 17 ops are genus-2 scans of fixed
# cost: the median falls among them and the tail percentile among the
# probes.  The probes still take about 80 % of the time.
H0_BUDGETS = (2000, 2000, 2000, 4000, 4000)
H0_G2_PER_DECK = 12

# verify-suite: one `verify --g 3` (about 1.9 s) against light ops that add up
# to about the same time, so verify --g 3 is half the run.
VERIFY_DECK = (
    (("verify", 3), 1),
    (("verify", 2), 8),
    (("orbits", 3, 1), 8),
    (("orbits", 2, 2), 6),
    (("export-matrix", "Bk"), 6),
    (("export-matrix", "B"), 6),
)

MAX_IM = 1.6
MIN_COUPLING = 0.1

# The ambiguous-band defect: `count` exits 3 on tau whose constants sit
# between the relative vanishing thresholds although their certified error
# bounds decide them.  Two kinds of tau show it, neither in a timed deck:
# generic tau at g = 3 with Im tau scaled by 4 (level 2), and generic tau at
# g = 2 with the off-diagonal entries scaled by WEAK_COUPLING (level 6).
STIFF_PROBES = 4
WEAK_PROBES = 2
WEAK_COUPLING = 0.02


@dataclass
class Op:
    kind: str
    argv: list
    expect: dict = field(default_factory=dict)


@dataclass
class Inputs:
    warmup: list
    decks: list
    probe: list


def generic_count(g: int, n: int) -> int:
    """Vanishing level-n constants at a generic tau: the odd characteristics
    2^{g-1}(2^g - 1) when n is even (they are level-n characteristics then),
    none when n is odd."""
    return 2 ** (g - 1) * (2**g - 1) if n % 2 == 0 else 0


def product_count(blocks, n: int) -> int:
    """Product rule: on block-diagonal tau a constant vanishes iff a factor
    does, so the nonvanishing counts of the blocks multiply."""
    g = sum(blocks)
    nonvanishing = 1
    for b in blocks:
        nonvanishing *= n ** (2 * b) - generic_count(b, n)
    return n ** (2 * g) - nonvanishing


def parity_counts(g: int):
    """(even, odd) numbers of half-integer characteristics."""
    return 2 ** (g - 1) * (2**g + 1), 2 ** (g - 1) * (2**g - 1)


def generic_tau(g, rng):
    """A + i(C^t C + I), A symmetric uniform in [-1/2, 1/2], C 0.3-scaled
    gaussian: Im tau stays near the identity.

    Redrawn until the largest eigenvalue of Im tau is at most MAX_IM and every
    off-diagonal |tau_ij| is at least MIN_COUPLING.  A larger Im tau, or a tau
    near a block-diagonal one, pushes constants toward the ambiguous band of
    the relative-threshold policy; those cases belong to the defect probe.
    Over 200 draws at (g, n) = (3, 3), the 1st percentile of the smallest
    relative constant is then 1.3e-2, against 5e-3 without the redraw.
    """
    off_diagonal = ~np.eye(g, dtype=bool)
    while True:
        a = rng.uniform(-0.5, 0.5, (g, g))
        c = 0.3 * rng.standard_normal((g, g))
        re, im = (a + a.T) / 2, c.T @ c + np.eye(g)
        if np.linalg.eigvalsh(im)[-1] > MAX_IM:
            continue
        if g == 1 or np.abs(re + 1j * im)[off_diagonal].min() >= MIN_COUPLING:
            return re, im


def weakly_coupled_tau(g, rng):
    """A generic tau with its off-diagonal entries scaled down to near zero."""
    re, im = generic_tau(g, rng)
    scale = np.where(np.eye(g, dtype=bool), 1.0, WEAK_COUPLING)
    return re * scale, im * scale


def diagonal_tau(g, rng):
    return np.diag(rng.uniform(-0.5, 0.5, g)), np.diag(rng.uniform(1.0, 1.5, g))


def block_tau(g, rng):
    """2+1 block-diagonal tau at g = 3."""
    re, im = np.zeros((3, 3)), np.zeros((3, 3))
    re[:2, :2], im[:2, :2] = generic_tau(2, rng)
    re[2:, 2:], im[2:, 2:] = diagonal_tau(1, rng)
    return re, im


TAU_FAMILIES = {
    "generic": (generic_tau, lambda g: [g]),
    "diagonal": (diagonal_tau, lambda g: [1] * g),
    "block": (block_tau, lambda g: [2, 1]),
}


class TauFiles:
    """Writes period matrices as the CLI's JSON files into a work directory."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.written = 0

    def write(self, re, im) -> str:
        path = self.workdir / f"tau{self.written:05d}.json"
        g = re.shape[0]
        path.write_text(json.dumps({"g": g, "re": re.tolist(), "im": im.tolist()}))
        self.written += 1
        return str(path)


def count_op(path, g, n, family, table) -> Op:
    blocks = TAU_FAMILIES[family][1](g)
    kind = f"count g={g} n={n} {family}" + (" table" if table else "")
    return Op(
        kind,
        ["count", "--tau", path, "--n", str(n)] + (["--table"] if table else []),
        {
            "g": g,
            "n": n,
            "theta_n": product_count(blocks, n),
            "certified": n == 2 and blocks == [1] * g,
            "table": table,
        },
    )


def h0_op(g, budget=None, seed=None) -> Op:
    if g == 2:
        return Op("h0 g=2", ["h0", "--g", "2"], {"g": 2, "h0": 9})
    return Op(
        f"h0 g=3 budget={budget}",
        ["h0", "--g", "3", "--budget", str(budget), "--seed", str(seed)],
        {"g": 3, "h0_upper": 27, "budget_used": budget, "seed": seed},
    )


def verify_op(g, seed) -> Op:
    return Op(f"verify g={g}", ["verify", "--g", str(g), "--seed", str(seed)], {"g": g})


def orbits_op(g, tuples) -> Op:
    even, odd = parity_counts(g)
    sizes = [even, odd] if tuples == 1 else [even * (even - 1), odd * (odd - 1)]
    argv = ["orbits", "--g", str(g)] + (["--tuples", "2"] if tuples == 2 else [])
    return Op(f"orbits g={g} tuples={tuples}", argv, {"g": g, "orbit_sizes": sorted(sizes)})


def export_op(name) -> Op:
    size = 3**3 if name == "Bk" else parity_counts(3)[0]
    return Op(
        f"export-matrix {name} g=3",
        ["export-matrix", "--name", name, "--g", "3"],
        {"rows": size, "cols": size},
    )


def _seed_value(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def count_mix_deck(rng, taus):
    ops = []
    for g, n, family, table in COUNT_DECK:
        re, im = TAU_FAMILIES[family][0](g, rng)
        ops.append(count_op(taus.write(re, im), g, n, family, table))
    rng.shuffle(ops)
    return ops


def h0_probe_deck(rng, taus):
    ops = [h0_op(3, budget, _seed_value(rng)) for budget in H0_BUDGETS]
    ops += [h0_op(2) for _ in range(H0_G2_PER_DECK)]
    rng.shuffle(ops)
    return ops


def verify_suite_deck(rng, taus):
    ops = []
    for spec, copies in VERIFY_DECK:
        for _ in range(copies):
            if spec[0] == "verify":
                ops.append(verify_op(spec[1], _seed_value(rng)))
            elif spec[0] == "orbits":
                ops.append(orbits_op(spec[1], spec[2]))
            else:
                ops.append(export_op(spec[1]))
    rng.shuffle(ops)
    return ops


def _warm_tau(taus):
    return taus.write(*generic_tau(3, np.random.default_rng(0)))


# One warm-up op per CLI command the workload uses, with fixed inputs so the
# set-up cost does not depend on the seed.
WARMUPS = {
    "count-mix": lambda taus: [count_op(_warm_tau(taus), 3, 2, "generic", True)],
    "h0-probe": lambda taus: [h0_op(3, 2000, 0)],
    "verify-suite": lambda taus: [verify_op(3, 1), orbits_op(2, 2), export_op("Bk")],
}

DECK_MAKERS = {
    "count-mix": count_mix_deck,
    "h0-probe": h0_probe_deck,
    "verify-suite": verify_suite_deck,
}


def defect_probe(rng, taus):
    ops = []
    for _ in range(STIFF_PROBES):
        re, im = generic_tau(3, rng)
        ops.append(count_op(taus.write(re, 4 * im), 3, 2, "generic", False))
        ops[-1].kind = "count g=3 n=2 stiff"
    for _ in range(WEAK_PROBES):
        ops.append(count_op(taus.write(*weakly_coupled_tau(2, rng)), 2, 6, "generic", False))
        ops[-1].kind = "count g=2 n=6 weakly coupled"
    return ops


def make_inputs(name: str, seed: int, workdir: Path) -> Inputs:
    """Every input of a run, generated from the seed before timing starts."""
    rng = np.random.default_rng(seed)
    taus = TauFiles(workdir)
    make_deck = DECK_MAKERS[name]
    deck_list = [make_deck(rng, taus) for _ in range(DECKS[name])]
    probe = defect_probe(rng, taus) if name == "count-mix" else []
    return Inputs(WARMUPS[name](taus), deck_list, probe)


def _check_count(e, out):
    if (out.get("g"), out.get("n")) != (e["g"], e["n"]):
        return f"g, n = {out.get('g')}, {out.get('n')}"
    if out.get("theta_n") != e["theta_n"]:
        return f"theta_n {out.get('theta_n')} != {e['theta_n']}"
    if out.get("certified") != e["certified"]:
        return f"certified {out.get('certified')} != {e['certified']}"
    if e["table"]:
        table = out.get("table") or []
        if len(table) != e["n"] ** (2 * e["g"]):
            return f"table has {len(table)} entries"
        if sum(bool(row.get("vanishing")) for row in table) != e["theta_n"]:
            return "table vanishing flags disagree with theta_n"
    return None


def _check_h0(e, out):
    for key, want in e.items():
        if out.get(key) != want:
            return f"{key} {out.get(key)} != {want}"
    return None


def _check_verify(e, out):
    if out.get("g") != e["g"]:
        return f"g {out.get('g')} != {e['g']}"
    claims = out.get("claims") or []
    if out.get("all_pass") is not True or not claims or not all(c.get("pass") for c in claims):
        return "not all claims pass"
    return None


def _check_orbits(e, out):
    if out.get("g") != e["g"] or sorted(out.get("orbit_sizes") or []) != e["orbit_sizes"]:
        return f"orbit sizes {out.get('orbit_sizes')} != {e['orbit_sizes']}"
    return None


def _check_export(e, out):
    if (out.get("rows"), out.get("cols")) != (e["rows"], e["cols"]):
        return f"shape {out.get('rows')}x{out.get('cols')}"
    if len(out.get("data") or []) != e["rows"]:
        return "data rows missing"
    return None


CHECKS = {
    "count": _check_count,
    "h0": _check_h0,
    "verify": _check_verify,
    "orbits": _check_orbits,
    "export-matrix": _check_export,
}


def check(op: Op, rc, stdout: str):
    """None when the op exited 0 and its output shows the expected values,
    else a one-line description of the failure."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        out = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    return CHECKS[op.argv[0]](op.expect, out)

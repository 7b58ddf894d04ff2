"""Closed-form bounds on the number of n-torsion points on a theta divisor.

Every row carries a status: proved theorems, the sharp conjectural target,
and the simple-abelian-variety remark (not testable here, so applicable only
when the caller asserts simplicity).  Values are exact integers; the one
fractional bound is floored and flagged.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

THEOREM = "theorem"
CONJECTURE = "conjecture"
REMARK = "remark"

SATISFIED = "SATISFIED"
VIOLATED = "VIOLATED"
NOT_APPLICABLE = "NOT-APPLICABLE"

# most decimal digits of n^{2g}, the largest value a table prints; Python
# refuses to print a longer int by default
MAX_DIGITS = 4300


def _check_digits(g: int, n: int):
    """Refuse (g, n) before any power is formed when n^{2g} has more than
    MAX_DIGITS decimal digits, i.e. when 2g log10(n) >= MAX_DIGITS."""
    if 2 * g * math.log10(n) >= MAX_DIGITS:
        raise ValueError(f"digit limit: n^(2g) would have more than {MAX_DIGITS} decimal digits")


@dataclass(frozen=True)
class BoundRow:
    name: str
    source: str
    status: str
    value: int
    applicable: bool
    floored: bool = False

    def to_json(self):
        return asdict(self)


def evaluate_bounds(g: int, n: int, assume_simple: bool = False):
    """All bound rows applicable at (g, n), sorted ascending by value."""
    if g < 1 or n < 2:
        raise ValueError("need g >= 1 and n >= 2")
    _check_digits(g, n)
    rows = []

    if n == 2:
        rows.append(
            BoundRow(
                "two-torsion-sharp",
                "sharp bound for 2-torsion points",
                THEOREM,
                4**g - 3**g,
                True,
            )
        )
        rows.append(
            BoundRow(
                "representation-bound",
                "theta-group representation bound at n = 2",
                THEOREM,
                4**g - g * 2 ** (g - 1) - 2**g,
                True,
            )
        )
        ratio, rest = divmod(7**g - 1, 3**g - 1)
        rows.append(
            BoundRow(
                "section-ratio",
                "eigenspace dimension ratio bound",
                THEOREM,
                4**g - ratio,
                True,
                floored=rest != 0,
            )
        )
        rows.append(
            BoundRow(
                "rank-two-quadrics",
                "rank-2 quadric avoidance on the Kummer image",
                THEOREM,
                4**g - 2 ** (g + 1) + 1,
                True,
            )
        )
        rows.append(
            BoundRow(
                "classical",
                "classical 4^g - 2^g bound",
                THEOREM,
                4**g - 2**g,
                True,
            )
        )
        rows.append(
            BoundRow(
                "simple-case",
                "improved bound for simple abelian varieties (remark)",
                REMARK,
                4**g - (g + 1) * 2**g,
                assume_simple,
            )
        )
    else:
        if n % 2 == 0:
            m = n // 2
            rows.append(
                BoundRow(
                    "even-torsion-sharp",
                    "even-level bound m^{2g}(4^g - 3^g), n = 2m",
                    THEOREM,
                    m ** (2 * g) * (4**g - 3**g),
                    True,
                )
            )
        rows.append(
            BoundRow(
                "representation-bound",
                "theta-group representation bound, n >= 3",
                THEOREM,
                n ** (2 * g) - (g + 1) * n**g,
                True,
            )
        )

    rows.append(
        BoundRow(
            "product-conjecture",
            "conjectural sharp bound n^{2g} - (n^2-1)^g",
            CONJECTURE,
            n ** (2 * g) - (n**2 - 1) ** g,
            True,
        )
    )
    rows.sort(key=lambda r: (r.value, r.name))
    return rows


def decomposable_bound(blocks, n: int) -> int:
    """Bound for (A, Theta) a product of blocks of dimensions b_i.

    n = 2: 4^g - 2^g prod(b_i/2 + 1); n >= 3: n^{2g} - n^g prod(b_i + 1).
    """
    blocks = [int(b) for b in blocks]
    if not blocks or any(b < 1 for b in blocks):
        raise ValueError("blocks must be a nonempty sequence of positive ints")
    if n < 2:
        raise ValueError("level n must be >= 2")
    g = sum(blocks)
    _check_digits(g, n)
    if n == 2:
        # 2^g prod(b_i/2 + 1) = prod 2^(b_i - 1) (b_i + 2), an integer
        return 4**g - math.prod(2 ** (b - 1) * (b + 2) for b in blocks)
    return n ** (2 * g) - n**g * math.prod(b + 1 for b in blocks)


def compare(theta_n: int, rows):
    """Verdict per bound row for a computed torsion count."""
    verdicts = []
    for row in rows:
        if not row.applicable:
            verdict = NOT_APPLICABLE
        elif theta_n <= row.value:
            verdict = SATISFIED
        else:
            verdict = VIOLATED
        verdicts.append(
            {
                "name": row.name,
                "status": row.status,
                "value": row.value,
                "theta_n": theta_n,
                "verdict": verdict,
            }
        )
    return verdicts


def any_theorem_violated(verdicts) -> bool:
    return any(v["verdict"] == VIOLATED and v["status"] == THEOREM for v in verdicts)

"""Torsion points on theta divisors: numerical theta constants, exact
pairing-matrix verification, principal-submatrix rank search, and the
closed-form bound ledger."""

__version__ = "0.1.0"

from .bounds import (
    BoundRow,
    compare,
    decomposable_bound,
    evaluate_bounds,
)
from .characteristics import (
    act,
    count_parity,
    enumerate_characteristics,
    generator_permutations,
    orbits,
    symplectic_generators,
)
from .errors import (
    AmbiguousVanishingError,
    RadiusCapError,
    ThetaLabError,
    VerificationError,
)
from .matrices import (
    build_B,
    build_Bk,
    build_L,
    build_M,
    exact_rank,
    fay_multiplicities,
    spectrum,
    split_blocks,
    verify_fay_spectrum,
)
from .search import (
    SearchReport,
    h0_exhaustive,
    h0_probe,
)
from .theta import (
    ConstantTable,
    PeriodMatrix,
    ThetaValues,
    addition_residual,
    constant_table,
    fay_relation_residual,
    m_count,
    random_tau,
    theta_table,
)

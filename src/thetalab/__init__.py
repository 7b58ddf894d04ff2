"""Torsion points on theta divisors: numerical theta constants, exact
pairing-matrix verification, principal-submatrix rank search, and the
closed-form bound ledger."""

__version__ = "0.1.0"

from .bounds import (
    BoundRow,
    compare,
    decomposable_bound,
    eigenspace_dims,
    evaluate_bounds,
)
from .characteristics import (
    Characteristic,
    SymplecticMap,
    act,
    count_parity,
    enumerate_characteristics,
    generator_permutations,
    orbits,
    parity,
    symplectic_generators,
    symplectic_pairing,
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
    eigen_multiplicity,
    exact_rank,
    fay_multiplicities,
    split_blocks,
    verify_fay_spectrum,
)
from .search import (
    SearchReport,
    h0_exhaustive,
    h0_probe,
    principal_rank,
)
from .theta import (
    ConstantTable,
    PeriodMatrix,
    ThetaValue,
    TorsionCount,
    addition_residual,
    constant_table,
    count_torsion,
    fay_relation_residual,
    m_count,
    qh_rank_profile,
    random_tau,
    theta,
    theta_table,
)

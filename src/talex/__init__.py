"""talex: exact twisted Alexander polynomials of 2-bridge knots under
dihedral and metacyclic representations, with the constructive
f(t)f(-t) factorization and its certificates."""

from .rings import ZZ, GFp, NonExactDivision, QuotientRing, RingMismatch
from .laurent import LaurentPoly, PreconditionError, cyclotomic_poly
from .matrices import (
    RingMatrix,
    companion_matrix,
    cyclic_product,
    gamma_substitute,
)
from .words import (
    FreeWord,
    ImageSum,
    fox_derivative,
    rep_evaluate,
)
from .knots import (
    ContinuedFraction,
    Presentation,
    TwoBridgeFraction,
    alexander,
    cf_eval,
    epsilon_sequence,
    hp_expansion,
    presentation,
    presentation_8_5,
)
from .representations import (
    MatrixRep,
    NoValidAssignment,
    binary_dihedral_rep,
    dihedral_rep,
    kmeta_rep,
    nqp_rep,
    theta,
    u_matrix,
    v_matrix,
    xy_power_table,
)
from .twisted import (
    CrossCheckMismatch,
    binary_dihedral_total,
    dihedral_total,
    kmeta_total,
    metacyclic_total,
    modp_congruence,
    modp_factor,
    nqp_total,
    perm_dihedral_total,
    wada,
)
from .factorization import (
    CertificateFailure,
    NotSplit,
    SplitForm,
    conjecture_report,
    extract_GH,
    f_polynomial,
    factor_pairing,
    split_check,
    torus_gh,
    total_pairing,
)
from .intfactor import FactorizationTooHard, int_poly_factor

__version__ = "0.1.0"

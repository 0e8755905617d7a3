"""Concordance invariants of virtual knots and links from Gauss codes.

The pipeline: parse a Gauss code, build the Gauss diagram, and compute the
generalized Alexander polynomial det(M - P) over Z[s^+-1, t^+-1], its
writhe specialization, group presentations with their elementary ideals,
longitudes, the omega-extension, and batch slice obstructions.
"""

from .laurent import (
    CanonicalForm, LaurentPoly, PolyMatrix, canonicalize, gcd, EXACT,
    MONOMIAL_SIGN, ONE, POWERS_OF_ST, S, T, ZERO, NotDivisible, NotSquare,
    SizeTooLarge, ZeroSubstitution,
)
from .gauss import (
    GaussCode, GaussDiagram, GaussSyntaxError, GaussValidationError,
    NoCrossings, BadIndex, NotApplicable, apply_r1, apply_r2, apply_r3,
    delete_component, parse_gauss_code, short_arcs, to_code, to_diagram,
    undo_r1, undo_r2,
)
from .alexander import (
    GeneralizedAlexander, NotAKnot, OBSTRUCTED, NO_OBSTRUCTION,
    build_m_matrix, build_p_matrix, delta0, divisibility_check,
    obstruct_slice, writhe_polynomial,
)
from .zh import AlreadyHasOmega, ZhDiagram, delete_omega, zh
from .groups import (
    Abelianization, ElementaryIdeal, GroupPresentation, Word,
    alexander_matrix, elementary_ideals, fox_derivative, longitude,
    reduced_group, tietze_eliminate, wirtinger,
)
from .sieve import (
    CensusParseError, CensusRecord, SieveReport, load_census, load_flags,
    merge_external_flags, run_sieve,
)

__version__ = "0.1.0"

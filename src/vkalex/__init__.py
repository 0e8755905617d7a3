"""Concordance invariants of virtual knots and links from Gauss codes.

The pipeline: parse a Gauss code, build the Gauss diagram, and compute the
generalized Alexander polynomial det(M - P) over Z[s^+-1, t^+-1], its
writhe specialization, group presentations with their elementary ideals,
longitudes, the omega-extension, and batch slice obstructions.
"""

from .laurent import (
    LaurentPoly, canonicalize, gcd, EXACT, MONOMIAL_SIGN, ONE, POWERS_OF_ST,
    ZERO, NotDivisible,
)
from .gauss import (
    GaussDiagram, GaussSyntaxError, GaussValidationError,
    BadIndex, parse_gauss_code, to_code, to_diagram,
)
from .alexander import NotAKnot, delta0, writhe_polynomial
from .zh import ZhDiagram
from .groups import (
    GroupPresentation, alexander_matrix, elementary_ideals, longitude,
    reduced_group, tietze_eliminate, wirtinger, word_text,
)
from .sieve import (
    CensusParseError, SieveReport, load_census, load_flags,
    merge_external_flags, run_sieve,
)

__version__ = "0.1.0"

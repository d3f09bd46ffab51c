"""Exact counting of square matrices over finite fields by characteristic
polynomial, with the supporting linear algebra exposed as a library: finite
field arithmetic, polynomial factorization, rational canonical forms,
centralizers, and a brute-force census that cross-checks every closed form.
"""

from .canonical import (RationalCanonicalForm, companion,
                        companion_block_diagonal, rcf)
from .census import (CensusReport, DEFAULT_ENUMERATION_BUDGET,
                     OrbitStabilizerReport, PartitionReport, census_bruteforce,
                     count_irreducible_case, count_with_charpoly,
                     orbit_stabilizer_report, verify_partition)
from .centralizer import (CentralizerDescription, DEFAULT_SPAN_BUDGET,
                          centralizer, centralizer_unit_count, gl_order,
                          is_polynomial_centralizer)
from .errors import BudgetError, ParseError, SingularMatrixError
from .factor import (Factorization, count_monic_irreducibles, factorize,
                     is_irreducible)
from .field import (DEFAULT_FIELD_ORDER_BUDGET, FieldSpec, field_from_order,
                    is_prime, make_field)
from .matrix import SquareMatrix, format_matrix, parse_matrix
from .poly import (NEG_INF, Polynomial, format_poly, monic_polys, parse_poly)

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "CensusReport",
    "CentralizerDescription",
    "DEFAULT_ENUMERATION_BUDGET",
    "DEFAULT_FIELD_ORDER_BUDGET",
    "DEFAULT_SPAN_BUDGET",
    "Factorization",
    "FieldSpec",
    "NEG_INF",
    "OrbitStabilizerReport",
    "ParseError",
    "PartitionReport",
    "Polynomial",
    "RationalCanonicalForm",
    "SingularMatrixError",
    "SquareMatrix",
    "census_bruteforce",
    "centralizer",
    "centralizer_unit_count",
    "companion",
    "companion_block_diagonal",
    "count_irreducible_case",
    "count_monic_irreducibles",
    "count_with_charpoly",
    "factorize",
    "field_from_order",
    "format_matrix",
    "format_poly",
    "gl_order",
    "is_irreducible",
    "is_polynomial_centralizer",
    "is_prime",
    "make_field",
    "monic_polys",
    "orbit_stabilizer_report",
    "parse_matrix",
    "parse_poly",
    "rcf",
    "verify_partition",
]

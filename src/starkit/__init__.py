"""Exact deformation quantization toolkit.

Star products with rational-complex coefficients on flat symplectic
spaces, chart-by-chart quantization of translation surfaces, permutation
equivariant products on n-fold copies, and transport along polynomial
symplectomorphisms.  All arithmetic is exact; every check compares
against zero, never against a tolerance.
"""

from .errors import ArityError, InputError, ParseError, StarkitError
from .moyal import StarProduct, verify_dq_axioms, verify_star_axioms
from .parsing import (parse_expr, parse_poly, parse_scalar, parse_series,
                      poly_to_str, series_to_str)
from .poisson import (PoissonBivector, SymplecticForm, bivector_from_form,
                      form_from_bivector, standard_bivector)
from .poly import SparsePoly
from .reports import CheckEntry, Report
from .scalars import ExactComplex
from .series import HbarSeries

__version__ = "0.1.0"

# The packed kernel is pure Python; kept as a name for run records.
BACKEND = "python"

__all__ = [
    "ArityError", "BACKEND", "CheckEntry", "ExactComplex", "HbarSeries",
    "InputError", "ParseError", "PoissonBivector", "Report", "SparsePoly",
    "StarProduct", "StarkitError", "SymplecticForm", "bivector_from_form",
    "form_from_bivector", "parse_expr", "parse_poly", "parse_scalar",
    "parse_series", "poly_to_str", "series_to_str", "standard_bivector",
    "verify_dq_axioms", "verify_star_axioms",
]

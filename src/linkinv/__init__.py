"""Exact link invariants from diagrams: Conway and HOMFLY/Kauffman skein
polynomials, the multivariable Conway potential function with its series
and decomposition layer, the quotient invariants under local knotting, and
the colored finite-type evaluation machinery."""

from .algebra import (
    LaurentPolynomial,
    TruncatedSeries,
    bar_substitute,
    brace,
    bracket,
    x_of_z,
)
from .alexander import (
    PotentialFunction,
    alexander_poly,
    connected_sum_check,
    deletion_check,
    potential_function,
)
from .corpus import CorpusEntry, load_corpus
from .diagram import (
    BraidWord,
    DiagramError,
    LinkDiagram,
    ParseError,
    SingularLink,
    braid_closure,
    parse_braid,
    parse_pd,
    parse_singular,
)
from .finitetype import (
    InvariantFunction,
    extend,
    leibniz_restrict,
    threaded_circle_witness,
    type_falsify,
)
from .invariants import (
    UndefinedInvariantError,
    alpha_coeffs,
    beta_hat,
    build_report,
    casson_walker_surrogate,
    cochran_beta,
    congruence_report,
    conway_coeffs,
    gamma3,
    two_color_tables,
    unoriented_sl,
)
from .skein import ResourceError, SkeinBudgetError, conway, dubrovnik, homfly, kauffman_f
from .transforms import (
    CoefficientTable,
    Decomposition,
    decompose,
    exp_expand_homfly,
    exp_expand_kauffman,
    omega_from_reduced,
    potential_series,
    potential_series_quotient,
    reconstruct,
    reduced_polynomial,
    reduced_quotient,
    traldi_expand,
)

__version__ = "0.1.0"

"""braidops: exact divided difference operators and braid-relation checks."""

from .field import FieldElement, ZETA, ZETA_BAR
from .multipoly import MultiPoly, SlotPoly, exact_div, instantiate, swap_vars
from .divdiff import ddiff, dpositive_lift, dpositive_split
from .pddo import PDDO, CanonicalForms, Degeneracy, identity_op
from .braid import (
    CubicReport,
    FamilyReport,
    almost_equal,
    cubic_braid_check,
    family_braid_check,
    quad_commute_check,
    relation_holds,
)
from .families import (
    Case2Line,
    ConstraintError,
    Interval,
    Isolated,
    OperatorFamily,
    degenerate_t_family,
    main_case1,
    main_case2,
    preset,
    with_vanishing_q0,
    zeta_pair,
)
from .commute import CommuteReport, commutes_same_index, cross_family_commute
from .words import (
    Permutation,
    TableEntry,
    apply_word,
    polynomial_table,
    reduced_words,
    staircase,
)

__all__ = [
    "FieldElement", "ZETA", "ZETA_BAR",
    "MultiPoly", "SlotPoly", "exact_div", "instantiate", "swap_vars",
    "ddiff", "dpositive_lift", "dpositive_split",
    "PDDO", "CanonicalForms", "Degeneracy", "identity_op",
    "CubicReport", "FamilyReport", "almost_equal", "cubic_braid_check",
    "family_braid_check", "quad_commute_check", "relation_holds",
    "Case2Line", "ConstraintError", "Interval", "Isolated", "OperatorFamily",
    "degenerate_t_family", "main_case1", "main_case2", "preset",
    "with_vanishing_q0", "zeta_pair",
    "CommuteReport", "commutes_same_index", "cross_family_commute",
    "Permutation", "TableEntry", "apply_word", "polynomial_table",
    "reduced_words", "staircase",
]

__version__ = "0.1.0"

"""Convex sets of semiring weightings.

Finitely generated convex subsets of free semimodules over bool, the
non-negative rationals, and the naturals: exact canonical forms, the
weak distributive law taking a weighting of sets to a convex set of
weightings, the composite monad it induces with its Kleisli category,
and a small term language with interval and polygon renderings.
"""

from .composite import (
    KleisliArrow,
    alpha,
    arrow,
    family_weighting,
    ka_from_json,
    kleisli_bottom,
    kleisli_compose,
    kleisli_equal,
    kleisli_identity,
    kleisli_join,
    pc_map,
    pc_mult,
    pc_unit,
)
from .convex import (
    ConvexSet,
    cs_add,
    cs_compare,
    cs_empty,
    cs_equal,
    cs_from_json,
    cs_join,
    cs_join_all,
    cs_scale,
    cs_zero,
    extreme_points,
    hull_canonicalize,
    member,
)
from .distlaw import (
    Relation,
    barr_extend,
    check_naturality,
    check_pentagon_law,
    check_weak_law,
    choice_set,
    delta_bruteforce,
    delta_hull,
    delta_witness_check,
    membership_weighting,
    pentagon_check,
    set_key,
    set_weighting,
    trivialE_extend,
    trivial_law,
    trivial_lifting_fixed_points,
    weak_compositions,
)
from .errors import (
    ConvexmodError,
    DimensionMismatchError,
    NoDecisionProcedureError,
    NotInvertibleError,
    NotRefinementInstanceError,
    NotSemifieldError,
    ParseError,
    SemiringMismatchError,
    UnmappedSymbolError,
)
from .freemod import (
    FinSupp,
    finsupp,
    fs_add,
    fs_from_json,
    fs_map,
    fs_mult,
    fs_scale,
    fs_unit,
    fs_zero,
    sort_key,
)
from .report import LawReport
from .semiring import BOOL, NAT, QPLUS, Semiring, get_semiring
from .terms import (
    Add,
    Bot,
    Join,
    Scale,
    Term,
    Var,
    Zero,
    eval_term,
    format_term,
    free_variables,
    load_term_file,
    parse,
    parse_term_lines,
    render_interval,
    render_polygon,
    synthesize_term,
    term_equal,
)

__version__ = "0.1.0"

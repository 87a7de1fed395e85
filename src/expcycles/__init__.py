"""Toolkit for the repeated-exponentiation map u -> g**u mod p.

Exact short-cycle censuses, functional-graph structure, explicit bound
verification, lemma checkers with the 3-cycle proof harness, and the
elliptic-curve analogue map.
"""

from .bounds import (
    BoundReport,
    thm1_bound,
    thm2_bound_explicit,
    thm3_bound,
    verify,
)
from .dynamics import (
    CycleCensus,
    ExpMap,
    FunctionalGraphSummary,
    MemoryBudgetError,
    OrbitRecord,
    apply,
    census_graph,
    census_naive,
    census_table,
    fixed_points,
    iterate,
    orbit,
)
from .ecdynamics import (
    CurveParams,
    ECExpMap,
    curve_order,
    ec_apply,
    ec_census,
    point_add,
    scalar_mul,
)
from .lemmas import (
    CombLemmaInstance,
    Thm3ProofReport,
    comb_verify,
    fact1_check,
    fact2_check,
    fact2_exceptional_set,
    thm3_S,
    thm3_phi,
    thm3_verify,
)
from .modarith import (
    discrete_log,
    is_prime,
    multiplicative_order,
    primitive_root,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CombLemmaInstance",
    "CurveParams",
    "CycleCensus",
    "ECExpMap",
    "ExpMap",
    "FunctionalGraphSummary",
    "MemoryBudgetError",
    "OrbitRecord",
    "Thm3ProofReport",
    "apply",
    "census_graph",
    "census_naive",
    "census_table",
    "comb_verify",
    "curve_order",
    "discrete_log",
    "ec_apply",
    "ec_census",
    "fact1_check",
    "fact2_check",
    "fact2_exceptional_set",
    "fixed_points",
    "is_prime",
    "iterate",
    "multiplicative_order",
    "orbit",
    "point_add",
    "primitive_root",
    "scalar_mul",
    "thm1_bound",
    "thm2_bound_explicit",
    "thm3_bound",
    "thm3_S",
    "thm3_phi",
    "thm3_verify",
    "verify",
]

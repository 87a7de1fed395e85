"""Toolkit for the repeated-exponentiation map u -> g**u mod p.

Exact short-cycle censuses, functional-graph structure, explicit bound
verification, lemma checkers with the 3-cycle proof harness, and the
elliptic-curve analogue map.

The names below are imported from their modules on first use (PEP 562),
so importing one submodule does not load the others.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "bounds": "BoundReport thm1_bound thm2_bound_explicit thm3_bound verify",
    "dynamics": "CycleCensus ExpMap FunctionalGraphSummary MemoryBudgetError OrbitRecord "
    "apply census_graph census_naive census_table fixed_points iterate orbit",
    "ecdynamics": "CurveParams ECExpMap curve_order ec_apply ec_census point_add scalar_mul",
    "lemmas": "CombLemmaInstance Thm3ProofReport comb_verify fact1_check fact2_check "
    "fact2_exceptional_set thm3_S thm3_phi thm3_verify",
    "modarith": "discrete_log is_prime multiplicative_order primitive_root",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))

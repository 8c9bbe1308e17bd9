"""Exact designs, regularity audits, and intersection bounds in ranked
meet-semilattices.

The library models seven classical families (subsets, subspaces, words,
partial linear maps, partial injections, truncated words, signed partial
maps), verifies their regularity constants by exhaustive enumeration,
certifies designs in top fibers, evaluates the hypotheses of the
intersection bound |Z| <= lambda_s, and proves the bound tight on concrete
instances by exact maximum-clique search.

Every public name is exported here, and each resolves on first use
(PEP 562): `import ekrlattice` loads no submodule, and
`ekrlattice.max_intersecting` imports `ekrlattice.search` when it is first
read.  `from ekrlattice import ...` works as it always did.  `_HOMES` names
each export's home module; `__all__` is read off it.  `ekrlattice.audit`
is the audit function, not the submodule of that name, in any import order.
"""

import sys
import types

__version__ = "0.1.0"

# home module -> the names it exports
_HOMES = {
    "audit": ("AuditCheck", "AuditReport", "audit"),
    "designs": (
        "DesignCertificate", "derive_index", "full_fiber", "generate_linear_oa", "load_design",
        "make_certificate", "restrict_strength", "save_design",
    ),
    "ekr": (
        "ConditionReport", "ConditionRow", "DrReport", "ExtremalVerdict", "check_conditions", "compute_dr",
        "ekr_bound", "is_intersecting", "min_meet_rank", "remark_conditions", "table1_condition",
        "verify_extremal",
    ),
    "errors": ("BudgetExceededError", "FamilyMismatchError", "NonIntegralError", "ParseError", "VerificationError"),
    "families": (
        "Element", "FamilySpec", "enumerate_all", "enumerate_fiber", "format_element", "join_bounded", "least",
        "leq", "meet", "meet_all", "parse_element", "parse_family_spec",
    ),
    "parameters": ("alpha", "mu", "nu", "oracle_count", "qbinom", "theta"),
    "search": ("SearchResult", "max_intersecting"),
}
_HOME = {name: home for home, names in _HOMES.items() for name in names}

__all__ = ["__version__", *sorted(_HOME)]


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f"{__name__}.{home}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})


class _Package(types.ModuleType):
    """The package's module type.  The import system binds a submodule on
    its package once it has loaded, which would make `ekrlattice.audit` the
    module whenever `ekrlattice.audit` is imported; the exported function
    is bound instead, whatever the import order."""

    def __setattr__(self, name, value):
        if name == "audit" and isinstance(value, types.ModuleType):
            value = value.audit
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package

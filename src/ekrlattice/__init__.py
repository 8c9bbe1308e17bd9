"""Exact designs, regularity audits, and intersection bounds in ranked
meet-semilattices.

The library models seven classical families (subsets, subspaces, words,
partial linear maps, partial injections, truncated words, signed partial
maps), verifies their regularity constants by exhaustive enumeration,
certifies designs in top fibers, evaluates the hypotheses of the
intersection bound |Z| <= lambda_s, and proves the bound tight on concrete
instances by exact maximum-clique search.
"""

__version__ = "0.1.0"

from .audit import AuditCheck, AuditReport, audit
from .designs import (
    DesignCertificate,
    derive_index,
    full_fiber,
    generate_linear_oa,
    load_design,
    make_certificate,
    restrict_strength,
    save_design,
)
from .ekr import (
    ConditionReport,
    ConditionRow,
    DrReport,
    ExtremalVerdict,
    check_conditions,
    compute_dr,
    ekr_bound,
    is_intersecting,
    min_meet_rank,
    remark_conditions,
    table1_condition,
    verify_extremal,
)
from .errors import (
    BudgetExceededError,
    FamilyMismatchError,
    NonIntegralError,
    ParseError,
    VerificationError,
)
from .families import (
    Element,
    FamilySpec,
    enumerate_all,
    enumerate_fiber,
    format_element,
    join_bounded,
    least,
    leq,
    meet,
    meet_all,
    parse_element,
    parse_family_spec,
)
from .parameters import alpha, mu, nu, oracle_count, qbinom, theta
from .search import SearchResult, max_intersecting

__all__ = [
    "__version__",
    "AuditCheck",
    "AuditReport",
    "BudgetExceededError",
    "ConditionReport",
    "ConditionRow",
    "DesignCertificate",
    "DrReport",
    "Element",
    "ExtremalVerdict",
    "FamilyMismatchError",
    "FamilySpec",
    "NonIntegralError",
    "ParseError",
    "SearchResult",
    "VerificationError",
    "alpha",
    "audit",
    "check_conditions",
    "compute_dr",
    "derive_index",
    "ekr_bound",
    "enumerate_all",
    "enumerate_fiber",
    "format_element",
    "full_fiber",
    "generate_linear_oa",
    "is_intersecting",
    "join_bounded",
    "least",
    "leq",
    "load_design",
    "make_certificate",
    "max_intersecting",
    "meet",
    "meet_all",
    "min_meet_rank",
    "mu",
    "nu",
    "oracle_count",
    "parse_element",
    "parse_family_spec",
    "qbinom",
    "remark_conditions",
    "restrict_strength",
    "save_design",
    "table1_condition",
    "theta",
    "verify_extremal",
]

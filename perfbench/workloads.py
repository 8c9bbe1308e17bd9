"""The benchmark's workloads: designs to generate, CLI jobs and their oracles.

A job's argv may name a generated file as `@<name>`; the harness substitutes
the path.  `expect` holds the exit code and the report fields that do not
depend on row or job order.  Search-max witnesses are also re-checked
through the public API by the harness, so `nodes` is reported, never
checked.

Why each workload exists, and its measured layer shares, is in RATIONALE.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Which end-to-end group metric a subcommand's wall time adds to.
GROUPS = {
    "search-max": "search_max_s",
    "audit": "audit_s",
    "dr": "dr_s",
    "check-design": "design_check_s",
    "ekr-check": "design_check_s",
    "verify-extremal": "design_check_s",
}


@dataclass(frozen=True)
class Design:
    name: str
    gen: tuple[str, ...]  # `ekrlattice gen` arguments without `-o`


@dataclass(frozen=True)
class StarFile:
    """A family file: the rows of `design` whose encoding starts with `prefix`."""

    name: str
    design: str
    family: str
    prefix: str


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    expect: dict = field(default_factory=dict)

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def name(self) -> str:
        return " ".join(self.argv)

    @property
    def group(self) -> str | None:
        return GROUPS.get(self.command)


@dataclass(frozen=True)
class Workload:
    name: str
    designs: tuple[Design, ...]
    jobs: tuple[Job, ...]
    stars: tuple[StarFile, ...] = ()


def full(name: str, family: str, t: int) -> Design:
    return Design(name, ("--kind", "full-fiber", "--family", family, "--strength", str(t)))


def linear_oa(name: str, q: int, m: int) -> Design:
    return Design(name, ("--kind", "linear-oa", "--q", str(q), "--m", str(m)))


def search_max(design: str, s: int, *extra: str, **expect) -> Job:
    expect.setdefault("status", "proved-optimal")
    return Job(("search-max", "--json", "--design", f"@{design}", "--s", str(s), *extra), expect)


def audit(family: str, **expect) -> Job:
    return Job(("audit", "--json", "--family", family), expect)


ALL_DET = ("--all", "--deterministic")

J8_WITNESS = (
    "1 2 3 4", "1 2 3 5", "1 2 3 6", "1 2 3 7", "1 2 3 8", "1 2 4 5", "1 2 4 6",
    "1 2 4 7", "1 2 4 8", "1 3 4 5", "1 3 4 6", "1 3 4 7", "1 3 4 8", "2 3 4 5",
    "2 3 4 6", "2 3 4 7", "2 3 4 8",
)
G5_WITNESS = (
    "0.0.0.1.0;0.0.0.0.1", "0.0.1.0.0;0.0.0.0.1", "0.0.1.1.0;0.0.0.0.1",
    "0.1.0.0.0;0.0.0.0.1", "0.1.0.1.0;0.0.0.0.1", "0.1.1.0.0;0.0.0.0.1",
    "0.1.1.1.0;0.0.0.0.1", "1.0.0.0.0;0.0.0.0.1", "1.0.0.1.0;0.0.0.0.1",
    "1.0.1.0.0;0.0.0.0.1", "1.0.1.1.0;0.0.0.0.1", "1.1.0.0.0;0.0.0.0.1",
    "1.1.0.1.0;0.0.0.0.1", "1.1.1.0.0;0.0.0.0.1", "1.1.1.1.0;0.0.0.0.1",
)
B3_WITNESS = tuple(f"E=1.0;0.1;f=0.0;{a}.{b}" for a in range(3) for b in range(3))
OA17_WITNESS = tuple(f"1:0,2:{i},3:{i}" for i in range(17))

# Branch and bound dominates: a faster search core shows here, a faster meet
# must not.
CLIQUE = Workload(
    "clique",
    (
        full("j10", "johnson:v=10,m=4", 2),
        full("j11", "johnson:v=11,m=5", 3),
        full("h53", "hamming:m=5,n=3", 2),
        full("j8", "johnson:v=8,m=4", 2),
    ),
    (
        search_max("j10", 1, exit=0, optimum=84),
        search_max("j11", 3, exit=0, optimum=31),
        search_max("h53", 2, exit=0, optimum=27),
        search_max("j8", 2, *ALL_DET, exit=0, optimum=17, all_max_count=70, witness=J8_WITNESS),
    ),
)

# GF(q) meets and leq dominate and the search is under 1%: faster meets show
# here, a faster search must not.
SUBSPACE = Workload(
    "subspace",
    (
        full("g6", "grassmann:v=6,m=2,q=2", 1),
        full("g5", "grassmann:v=5,m=2,q=2", 1),
        full("b3", "bilinear:m=2,n=2,q=3", 1),
    ),
    (
        search_max("g6", 1, exit=0, optimum=31),
        search_max("g5", 1, *ALL_DET, exit=0, optimum=15, all_max_count=31, witness=G5_WITNESS),
        search_max("b3", 1, *ALL_DET, exit=0, optimum=9, all_max_count=72, witness=B3_WITNESS),
        audit("grassmann:v=5,m=2,q=2", exit=0, passed=True),
        audit("bilinear:m=2,n=2,q=3", exit=0, passed=True),
        Job(("check-design", "--json", "--design", "@g6"), {"exit": 0, "verified": True, "indices": [651, 31]}),
    ),
)

# Design coverage through leq, d_r, audits through join_bounded, nine short
# processes per round and one budget refusal.
CERTIFY = Workload(
    "certify",
    (linear_oa("oa23", 23, 3), linear_oa("oa17", 17, 3)),
    (
        Job(("check-design", "--json", "--design", "@oa23"), {"exit": 0, "verified": True, "indices": [529, 23, 1]}),
        Job(
            ("ekr-check", "--json", "--design", "@oa23", "--s", "1"),
            {"exit": 0, "bound": 23, "theorem_form": True, "remark_agrees": True, "table1_agrees": True},
        ),
        Job(("dr", "--json", "--design", "@oa23", "--s", "1", "--r", "0"), {"exit": 0, "d_r": 2, "bound": 3, "within_bound": True}),
        Job(
            ("verify-extremal", "--json", "--design", "@oa23", "--family-file", "@star23", "--s", "1"),
            {"exit": 0, "status": "extremal-star", "center": "1:0", "size": 23, "bound": 23},
        ),
        search_max("oa17", 1, *ALL_DET, exit=0, optimum=17, all_max_count=51, witness=OA17_WITNESS),
        audit("johnson:v=10,m=4", exit=0, passed=True),
        audit("hamming:m=4,n=3", exit=0, passed=True),
        audit("nbjohnson:m=4,n=3,k=3", exit=0, passed=True),
        # the refusal path: the budget trips in semilattice-glb; stdout is not
        # checked so an error envelope may be added later
        Job(("audit", "--json", "--family", "signed:m=5,k=3"), {"exit": 3}),
    ),
    stars=(StarFile("star23", "oa23", "hamming:m=3,n=23", "1:0,"),),
)

WORKLOADS = {w.name: w for w in (CLIQUE, SUBSPACE, CERTIFY)}

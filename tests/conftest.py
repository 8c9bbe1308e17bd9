from __future__ import annotations

import random
import sys

import pytest

from ekrlattice import designs, families

GRID_SPECS = (
    "johnson:v=6,m=3",
    "johnson:v=7,m=3",
    "grassmann:v=4,m=2,q=2",
    "hamming:m=3,n=3",
    "bilinear:m=2,n=2,q=2",
    "injection:m=3,n=5",
    "nbjohnson:m=4,n=3,k=2",
    "signed:m=4,k=2",
)

# (spec, elements kept per rank or None for all): odd prime and prime-power
# fields, with rank-2 joins wherever the top rank is 2
ODD_FIELD_SPECS = (
    ("grassmann:v=4,m=2,q=3", 40),
    ("bilinear:m=2,n=1,q=3", None),
    ("grassmann:v=4,m=2,q=5", 30),
    ("bilinear:m=2,n=1,q=5", None),
    ("bilinear:m=2,n=1,q=8", 30),
)

FANO_LINES = ("1 2 3", "1 4 5", "1 6 7", "2 4 6", "2 5 7", "3 4 7", "3 5 6")


def grid():
    return [families.parse_family_spec(text) for text in GRID_SPECS]


def sampled_universe(spec, per_rank):
    """Every element, or `per_rank` of each fiber drawn by a generator seeded by the spec."""
    rng = random.Random(str(spec))
    universe = []
    for i in range(spec.top_rank + 1):
        fiber = families.enumerate_fiber(spec, i)
        universe += fiber if per_rank is None or len(fiber) <= per_rank else rng.sample(fiber, per_rank)
    return universe


def star_members(elements, z):
    """The star oracle: every element above z, by a `leq` scan, in canonical order."""
    return tuple(sorted(x for x in elements if families.leq(z, x)))


def seed_family(cert, mask):
    """(size, members) of a seed mask, bit j for member j, members in canonical order."""
    members = tuple(x for j, x in enumerate(cert.elements) if mask >> j & 1)
    return len(members), members


@pytest.fixture
def default_digit_limit():
    """The interpreter's default int-to-str digit limit of 4,300 for one test."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int-to-str digit limit")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(limit)


@pytest.fixture(scope="session")
def fano_spec():
    return families.parse_family_spec("johnson:v=7,m=3")


@pytest.fixture(scope="session")
def fano_elements(fano_spec):
    return tuple(families.parse_element(fano_spec, text) for text in FANO_LINES)


@pytest.fixture(scope="session")
def fano_cert(fano_spec, fano_elements):
    return designs.make_certificate(fano_spec, fano_elements, 2)

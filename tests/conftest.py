from __future__ import annotations

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

FANO_LINES = ("1 2 3", "1 4 5", "1 6 7", "2 4 6", "2 5 7", "3 4 7", "3 5 6")


def grid():
    return [families.parse_family_spec(text) for text in GRID_SPECS]


def star_members(elements, z):
    """The star oracle: every element above z, by a `leq` scan, in canonical order."""
    return tuple(sorted(x for x in elements if families.leq(z, x)))


def seed_family(cert, mask):
    """(size, members) of a seed mask, bit j for member j, members in canonical order."""
    members = tuple(x for j, x in enumerate(cert.elements) if mask >> j & 1)
    return len(members), members


@pytest.fixture(scope="session")
def fano_spec():
    return families.parse_family_spec("johnson:v=7,m=3")


@pytest.fixture(scope="session")
def fano_elements(fano_spec):
    return tuple(families.parse_element(fano_spec, text) for text in FANO_LINES)


@pytest.fixture(scope="session")
def fano_cert(fano_spec, fano_elements):
    return designs.make_certificate(fano_spec, fano_elements, 2)

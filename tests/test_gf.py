"""Field arithmetic and RREF enumeration, checked against brute-force spans."""

from __future__ import annotations

from itertools import product

import pytest

from ekrlattice import gf


def brute_span(rows, fld):
    """Every vector in the row space, by enumerating all coefficient tuples."""
    if not rows:
        return {tuple()}
    width = len(rows[0])
    out = set()
    for coeffs in product(range(fld.q), repeat=len(rows)):
        vec = [0] * width
        for c, row in zip(coeffs, rows):
            if c:
                vec = [fld.add(x, fld.mul(c, y)) for x, y in zip(vec, row)]
        out.add(tuple(vec))
    return out


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_field_axioms_exhaustive(q):
    fld = gf.field(q)
    elements = range(q)
    for a in elements:
        assert fld.add(a, 0) == a
        assert fld.mul(a, 1) == a
        assert sum(fld.add(a, b) == 0 for b in elements) == 1
        if a:
            assert sum(fld.mul(a, b) == 1 for b in elements) == 1
    for a in elements:
        for b in elements:
            assert fld.add(a, b) == fld.add(b, a)
            assert fld.mul(a, b) == fld.mul(b, a)
            for c in elements:
                assert fld.add(fld.add(a, b), c) == fld.add(a, fld.add(b, c))
                assert fld.mul(fld.mul(a, b), c) == fld.mul(a, fld.mul(b, c))
                assert fld.mul(a, fld.add(b, c)) == fld.add(fld.mul(a, b), fld.mul(a, c))


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 32, 49, 64])
def test_prime_power_tables_cover_all_units(q):
    fld = gf.field(q)
    assert sorted(fld._exp) == list(range(1, q))


def test_prime_power_detection():
    assert gf.prime_power(8) == (2, 3)
    assert gf.prime_power(49) == (7, 2)
    assert gf.prime_power(12) is None
    assert gf.prime_power(1) is None
    with pytest.raises(ValueError):
        gf.field(6)


def test_unsupported_prime_power():
    with pytest.raises(ValueError):
        gf.field(121)  # 11^2 is beyond the Conway table


def sample_cases(q, width):
    """Pairs of row lists sharing some vectors; also used by the meet tests."""
    vecs = [tuple((i // q**j) % q for j in range(width)) for i in range(1, q**width)]
    return [
        (vecs[0:2], vecs[1:3]),
        (vecs[0:3], vecs[2:5]),
        (vecs[3:5], vecs[5:8]),
    ]


@pytest.mark.parametrize(
    "q,width,r,expected",
    [
        (2, 4, 1, 15),  # lines of GF(2)^4: one per nonzero vector up to scaling
        (2, 4, 2, 35),
        (3, 3, 1, 13),
    ],
)
def test_enumerate_rref_counts_subspaces(q, width, r, expected):
    fld = gf.field(q)
    mats = list(gf.enumerate_rref_matrices(width, r, fld))
    assert len(mats) == len(set(mats)) == expected
    spans = {frozenset(brute_span(m, fld)) for m in mats}
    assert len(spans) == expected

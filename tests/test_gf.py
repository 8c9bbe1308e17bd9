"""Field arithmetic and RREF enumeration, checked against brute-force spans."""

from __future__ import annotations

import random
from itertools import product

import pytest

from ekrlattice import gf
from ekrlattice.errors import ParseError


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


def trial_division(n):
    """(p, k) with n == p**k by dividing out the least factor, or None."""
    p = next((d for d in range(2, n) if n % d == 0), n) if n >= 2 else None
    if p is None:
        return None
    k = 0
    while n % p == 0:
        n, k = n // p, k + 1
    return (p, k) if n == 1 else None


def test_prime_power_agrees_with_trial_division():
    assert [gf.prime_power(n) for n in range(10**4)] == [trial_division(n) for n in range(10**4)]


def test_prime_power_decides_huge_sizes():
    assert gf.prime_power(10**18 + 3) == (10**18 + 3, 1)
    assert gf.prime_power(2**61 - 1) == (2**61 - 1, 1)  # a float root would round it to 2^61
    assert gf.prime_power((2**31 - 1) * (2**31 + 11)) is None
    assert gf.prime_power(43 * 127 * 211) is None  # a Carmichael number: every coprime base is a Fermat liar
    assert gf.prime_power((10**9 + 7) ** 2) == (10**9 + 7, 2)
    with pytest.raises(ParseError, match="not supported"):
        gf.field((10**9 + 7) ** 2)
    assert gf.prime_power((10**12 + 39) ** 2) == (10**12 + 39, 2)  # 1.000e24: below the refusal
    # at 3.317e24 the 13 Miller-Rabin bases stop being exact
    with pytest.raises(ParseError, match="not supported"):
        gf.prime_power(3317044064679887385961981)


def schoolbook_mul(a, b, p, k):
    """a * b in GF(p^k): base-p digit polynomials multiplied over GF(p), reduced
    by the Conway polynomial; no table and no `GF` method."""
    da = [a // p**i % p for i in range(k)]
    db = [b // p**i % p for i in range(k)]
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] = (prod[i + j] + x * y) % p
    conway = gf._CONWAY[(p, k)] if k > 1 else (0, 1)
    for d in range(2 * k - 2, k - 1, -1):  # x^d = x^(d-k) x^k, x^k = -(c_0 + ... + c_{k-1} x^{k-1})
        top, prod[d] = prod[d], 0
        for i in range(k):
            prod[d - k + i] = (prod[d - k + i] - top * conway[i]) % p
    return sum(c * p**i for i, c in enumerate(prod[:k]))


@pytest.mark.parametrize("pk", sorted(gf._CONWAY), ids=lambda pk: f"{pk[0]}^{pk[1]}")
def test_prime_power_field_is_schoolbook_arithmetic(pk):
    p, k = pk
    q = p**k
    fld = gf.field(q)
    power = 1
    for i in range(q - 1):
        assert fld._exp[i] == power and fld._log[power] == i
        power = schoolbook_mul(power, p, p, k)  # the numeral p is x
    assert power == 1
    for a in range(q):
        for b in range(q):
            assert fld.mul(a, b) == schoolbook_mul(a, b, p, k)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 25, 27, 49])
def test_add_and_scale_act_on_vector_codes(q):
    fld = gf.field(q)
    p, k = fld.p, fld.k
    rng = random.Random(q)
    for width in range(1, 5):
        digits = width * k  # a code is a base-p numeral with width * k digits
        for _ in range(200):
            u, v, c = rng.randrange(q**width), rng.randrange(q**width), rng.randrange(q)
            assert fld.add(u, v) == sum((u // p**j % p + v // p**j % p) % p * p**j for j in range(digits))
            expected = sum(schoolbook_mul(c, u // q**j % q, p, k) * q**j for j in range(width))
            assert fld.scale(c, u) == expected


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

"""Exact arithmetic over GF(q), and RREF matrix enumeration.

Field elements are ints in ``range(q)``.  Prime fields use modular
arithmetic directly.  Prime-power fields GF(p^k) with q <= 64 encode
polynomials over GF(p) in base p and multiply through log/antilog tables
built from a fixed table of Conway polynomials; the generator x is
primitive, so the tables cover every nonzero element.

Vectors are int tuples and matrices are tuples of row tuples; every
routine is a pure function of its inputs.
"""

from __future__ import annotations

import functools
from itertools import combinations, product

from .errors import ParseError

# Conway polynomials, coefficients in ascending degree, monic.  Enough for
# every prime power q = p^k <= 64 with k >= 2.
_CONWAY = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 1, 1, 0, 1),
    (3, 2): (2, 2, 1),
    (3, 3): (1, 2, 0, 1),
    (5, 2): (2, 4, 1),
    (7, 2): (3, 6, 1),
}


def prime_power(n: int) -> tuple[int, int] | None:
    """Return (p, k) with n == p**k, or None when n is not a prime power."""
    if n < 2:
        return None
    p = 2
    while p * p <= n:
        if n % p == 0:
            k, m = 0, n
            while m % p == 0:
                m //= p
                k += 1
            return (p, k) if m == 1 else None
        p += 1
    return (n, 1)


class GF:
    """The finite field with q elements, q a prime power."""

    def __init__(self, q: int):
        pk = prime_power(q)
        if pk is None:
            raise ParseError(f"{q} is not a prime power")
        self.q = q
        self.p, self.k = pk
        if self.k > 1:
            if (self.p, self.k) not in _CONWAY:
                raise ParseError(f"GF({q}) is not supported (prime powers up to 64 only)")
            self._build_tables()

    def _digits(self, a: int) -> list[int]:
        out = []
        for _ in range(self.k):
            out.append(a % self.p)
            a //= self.p
        return out

    def _undigits(self, ds) -> int:
        v = 0
        for d in reversed(ds):
            v = v * self.p + d
        return v

    def _mul_x(self, a: int, conway) -> int:
        # multiply by the generator x, reducing modulo the Conway polynomial
        ds = self._digits(a)
        carry = ds[-1]
        ds = [0] + ds[:-1]
        if carry:
            for i in range(self.k):
                ds[i] = (ds[i] - carry * conway[i]) % self.p
        return self._undigits(ds)

    def _build_tables(self):
        q = self.q
        conway = _CONWAY[(self.p, self.k)]
        exp = [0] * (q - 1)
        log = [0] * q
        cur = 1
        for i in range(q - 1):
            if cur != 1 and log[cur]:
                raise AssertionError("generator is not primitive")
            exp[i] = cur
            log[cur] = i
            cur = self._mul_x(cur, conway)
        if cur != 1:
            raise AssertionError("generator is not primitive")
        self._exp, self._log = exp, log
        add_digit = lambda a, b: self._undigits(
            [(x + y) % self.p for x, y in zip(self._digits(a), self._digits(b))]
        )
        self._add_tab = [[add_digit(a, b) for b in range(q)] for a in range(q)]

    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.q
        return self._add_tab[a][b]

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a * b) % self.q
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def primitive(self) -> int:
        """The least generator of the multiplicative group."""
        for g in range(1, self.q):
            x, order = g, 1
            while x != 1:
                x, order = self.mul(x, g), order + 1
            if order == self.q - 1:
                return g

    def __repr__(self):
        return f"GF({self.q})"


def qbinom(a: int, b: int, q: int) -> int:
    """Gaussian binomial coefficient: b-dim subspaces of GF(q)^a; 0 if b > a."""
    if b < 0 or b > a:
        return 0
    num = den = 1
    for i in range(b):
        num *= q ** (a - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


@functools.lru_cache(maxsize=None)
def field(q: int) -> GF:
    return GF(q)


# ---------------------------------------------------------------------------
# matrices


def enumerate_rref_matrices(width: int, r: int, fld: GF):
    """Yield every r-row RREF matrix with `width` columns over the field.

    Each r-dimensional subspace of GF(q)^width appears exactly once.
    """
    if r == 0:
        yield ()
        return
    q = fld.q
    for pivots in combinations(range(width), r):
        pivot_set = set(pivots)
        free = [
            (i, c)
            for i in range(r)
            for c in range(pivots[i] + 1, width)
            if c not in pivot_set
        ]
        for vals in product(range(q), repeat=len(free)):
            mat = [[0] * width for _ in range(r)]
            for i in range(r):
                mat[i][pivots[i]] = 1
            for (i, c), val in zip(free, vals):
                mat[i][c] = val
            yield tuple(tuple(row) for row in mat)

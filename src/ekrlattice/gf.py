"""Exact arithmetic over GF(q), and RREF matrix enumeration.

Field elements are ints in ``range(q)``, and a vector c of GF(q)^w is its
code sum_j c_j * q^(w-1-j).  Both are base-p numerals: an element of GF(p^k)
is a polynomial over GF(p) whose coefficients are its base-p digits, and a
code's base-q digits are elements.  So `GF.add` adds elements and codes alike,
digit by digit mod p, and `GF.scale` multiplies each base-q digit of a code by
one element.  Prime fields multiply modulo q.  Prime-power fields GF(p^k) with
q <= 64 multiply through log/antilog tables built from a fixed table of
Conway polynomials; the generator x is primitive, so the tables cover every
nonzero element.

`prime_power` decides primality by a deterministic Miller-Rabin test on the
13 prime bases 2..41, exact below 3.317e24 (Sorenson and Webster, Strong
pseudoprimes to twelve prime bases, Math. Comp. 86, 2017); larger q are
refused.  A power p^k, k >= 2, is found from integer k-th roots.

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


def _is_prime(n: int) -> bool:
    """Miller-Rabin on the prime bases 2..41: exact for 2 <= n < 3.317e24."""
    s = ((n - 1) & (1 - n)).bit_length() - 1  # 2^s exactly divides n - 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        if n % a == 0:
            return n == a
        x = pow(a, (n - 1) >> s, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def prime_power(n: int) -> tuple[int, int] | None:
    """Return (p, k) with n == p**k, or None when n is not a prime power.

    Raises ParseError for n >= 3.317e24, where the primality test is not exact.
    """
    if n < 2:
        return None
    if n >= 3317044064679887385961981:
        raise ParseError(f"GF({n}) is not supported (field sizes below 3.317e24 only)")
    for k in range(2, n.bit_length()):
        r = round(n ** (1 / k))
        for p in (r - 1, r, r + 1):
            if p**k == n and _is_prime(p):
                return p, k
    return (n, 1) if _is_prime(n) else None


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

    def _build_tables(self):
        p, q = self.p, self.q
        # x^k = -(c_0 + c_1 x + ... + c_{k-1} x^{k-1}), as a base-p numeral
        wrap = sum((-c) % p * p**i for i, c in enumerate(_CONWAY[(p, self.k)][:-1]))
        exp = [0] * (q - 1)
        log = [0] * q
        cur = 1
        for i in range(q - 1):
            if cur != 1 and log[cur]:
                raise AssertionError("generator is not primitive")
            exp[i] = cur
            log[cur] = i
            top, cur = divmod(cur * p, q)  # times x: the digits move up and x^k carries out
            for _ in range(top):
                cur = self.add(cur, wrap)
        if cur != 1:
            raise AssertionError("generator is not primitive")
        self._exp, self._log = exp, log

    def add(self, u: int, v: int) -> int:
        """The sum of two elements, or of two vectors given by their codes: base-p
        numerals added digit by digit mod p, that is u + v less p^(j+1) for each
        digit j whose two digits reach p."""
        p = self.p
        out, place = u + v, p
        while u and v:
            u, a = divmod(u, p)
            v, b = divmod(v, p)
            if a + b >= p:
                out -= place
            place *= p
        return out

    def scale(self, c: int, u: int) -> int:
        """The code of c times the vector whose code is u."""
        if c == 1:
            return u
        q, mul = self.q, self.mul
        out, place = 0, 1
        while u:
            u, a = divmod(u, q)
            out += mul(c, a) * place
            place *= q
        return out

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

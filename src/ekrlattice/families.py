"""Seven families of ranked meet-semilattices with canonical element codecs.

Every family is truncated at its top rank M, so each fiber is finite and
enumerable.  Elements carry a canonical payload (equal payloads ==
equal elements); meet and leq work on the atom bitmask that each element
gets where it is built (see the atoms section).

Each kind is one `_Kind` record in `_KINDS`, the registry at the end of this
module: what its elements are, and everything else that differs by kind.
The code outside it reads the record and branches on its shape.  Positions
are 1-based everywhere.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from collections.abc import Iterator
from functools import cached_property, lru_cache, reduce
from itertools import combinations, permutations, product
from types import SimpleNamespace

from . import gf as gflib
from .errors import BudgetExceededError, FamilyMismatchError, ParseError


class FamilySpec(namedtuple("FamilySpec", "kind v m n q k", defaults=(None,) * 5)):
    """Which family, plus its integer parameters.

    A named tuple, so it hashes and compares in C; the parameters are
    validated against the kind's record when it is built, also by `_make`
    and `_replace`.  No `__slots__`: the instance keeps its record in
    `_record`, its top rank M (the record's `top` parameter) in `top_rank`,
    and `codec` lives in its `__dict__`.
    """

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        record = _KINDS.get(self.kind)
        if record is None:
            raise ParseError(f"unknown family kind {self.kind!r}")
        for name in cls._fields[1:]:
            value = getattr(self, name)
            if name in record.params:
                if type(value) is not int or value < 1:  # a bool is no parameter
                    raise ParseError(f"{self.kind}: parameter {name} must be a positive integer")
            elif value is not None:
                raise ParseError(f"{self.kind}: unexpected parameter {name}")
        for rule, holds in record.rules:
            if not holds(self):
                raise ParseError(f"{self.kind}: requires {rule}")
        if self.q is not None:
            try:
                gflib.field(self.q)
            except ParseError as exc:
                raise ParseError(f"{self.kind}: {exc}") from exc
        self._record = record
        self.top_rank = getattr(self, record.top)
        return self

    @classmethod
    def _make(cls, iterable):
        """Build through `__new__`, so `_replace` validates too."""
        return cls(*iterable)

    def __reduce__(self):  # pickled as its parameters; `__new__` rebuilds the record
        return type(self), tuple(self)

    @cached_property
    def codec(self) -> "_Atoms":
        """The family's `_Atoms`, built on first read; a family above ATOM_CAP
        raises BudgetExceededError on every read, since nothing is stored."""
        return _Atoms(self)

    @cached_property
    def fibers(self) -> dict:
        """Rank -> the fiber `enumerate_fiber` built."""
        return {}

    def __str__(self) -> str:
        params = ",".join(f"{name}={getattr(self, name)}" for name in self._record.params)
        return f"{self.kind}:{params}"


def parse_family_spec(text: str) -> FamilySpec:
    """Parse the `kind:key=value,...` grammar, e.g. `johnson:v=7,m=3`: exactly
    the text `str(FamilySpec)` writes, surrounding whitespace aside, so the
    kind's parameters in its record's order, each a `_numeral`."""
    text = text.strip()
    kind, sep, rest = text.partition(":")
    if not sep or not rest:
        raise ParseError(f"bad family spec {text!r}: expected kind:key=value,...")
    if kind not in _KINDS:
        raise ParseError(f"unknown family kind {kind!r}")
    names = _KINDS[kind].params
    items = rest.split(",")
    if [item.partition("=")[0] for item in items] != list(names):
        raise ParseError(f"{kind}: expected parameters {', '.join(names)}, in this order")
    params = {}
    for name, item in zip(names, items):
        value = item.partition("=")[2]
        if not _numeral(value):
            raise ParseError(f"bad numeral in family spec item {item!r}")
        try:
            params[name] = int(value)
        except ValueError as exc:  # above the interpreter's digit limit
            raise ParseError(f"bad numeral in family spec item {item!r}") from exc
    return FamilySpec(kind=kind, **params)


class Element(namedtuple("Element", "spec payload")):
    """One canonical semilattice point: equal and hashed as (spec, payload),
    both in C.  No `__slots__`, so `atoms` has a `__dict__` to live in."""

    @property
    def rank(self) -> int:
        if self.spec._record.graph:
            return len(self.payload[0])
        return len(self.payload)

    @cached_property
    def atoms(self) -> int:
        """Bitmask of the atoms below this element.  `parse_element`, the
        decoder and the fiber build of a set or map kind assign it as they
        build the element; any other element computes it on first read."""
        return self.spec.codec.encode(self.payload)

    # Tuple order would compare (spec, payload); elements order by payload
    # within one family and refuse to compare across families.
    def _other_payload(self, other: "Element") -> tuple:
        if self.spec != other.spec:
            raise FamilyMismatchError("cannot order elements of different families")
        return other.payload

    def __lt__(self, other: "Element") -> bool:
        return self.payload < self._other_payload(other)

    def __le__(self, other: "Element") -> bool:
        return self.payload <= self._other_payload(other)

    def __gt__(self, other: "Element") -> bool:
        return self.payload > self._other_payload(other)

    def __ge__(self, other: "Element") -> bool:
        return self.payload >= self._other_payload(other)

    def __str__(self) -> str:
        return format_element(self)


def least(spec: FamilySpec) -> Element:
    """The least element: empty set, zero space, or empty partial map; no rows span it."""
    return Element(spec, _from_rows(spec, ()))


def _same_family(x: Element, y: Element) -> None:
    """Raise FamilyMismatchError unless x and y belong to one family.  The
    lattice operations call it only when the two spec objects differ."""
    if x.spec != y.spec:
        raise FamilyMismatchError(f"family mismatch: {x.spec} vs {y.spec}")


# ---------------------------------------------------------------------------
# atoms
#
# Every element is stored once more as the int bitmask of the atoms below it:
#
# * johnson   -- ground point i is bit i - 1;
# * map kinds -- the pair (pos, val) is bit (pos - 1) * stride + val - base;
# * grassmann -- the nonzero vectors of the subspace;
# * bilinear  -- the nonzero vectors of the graph {(w, f(w))} in GF(q)^(m+n),
#                so the meet of two maps is the intersection of their graphs.
#
# Vector c of GF(q)^width is bit sum_j c_j * q^(width-1-j), its code.  Then
# meet is `a & b`, leq is `a & ~b == 0` and, for set and map kinds, join is
# `a | b`; the payload stays the codec and the canonical sort key.  A rank-r
# element has r atoms (set and map kinds) or q^r - 1 (subspace kinds), so the
# meet's rank is read off the popcount.  Subspace kinds add and scale vectors
# on their codes with `gf.GF.add` and `gf.GF.scale`, so spans, the join (the
# sumset of two atom sets) and `below` row-reduce nothing; a decode reads the
# RREF rows off the mask, once per distinct mask.
#
# The codec is one `_Atoms` per spec object, `FamilySpec.codec`, built on first
# read and dropped with the spec; equal specs parsed separately build one each.
# The lattice operations read it off their first argument's spec and compare
# two specs by identity before equality, so elements of equal specs mix.  The
# mask is set where an element is built, through the one codec `_Atoms.encode`:
# `parse_element` encodes each element it reads, `_fiber` each element of a set
# or map kind, and a decode keeps the mask it read.  Set and map kinds encode
# through `bit`, a table from atom to bit; subspace kinds span their row codes.
# Other elements (`least`, `below`, subspace fibers, elements built by hand)
# encode on the first read of `atoms`, a `functools.cached_property`.  The
# parser keeps, per codec, each item token it has validated (ground point,
# position:value pair, matrix row), so a token is checked once; only valid
# tokens are kept, so the table is bounded by the atom count.

ATOM_CAP = 1 << 16  # atoms per family; larger families are refused
_DECODED_CAP = 1 << 12  # decoded meet and join results kept per family


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _Atoms:
    """Payload <-> atom bitmask for one family, plus a bounded decode cache."""

    def __init__(self, spec: FamilySpec):
        record = spec._record
        shape = self.shape = record.shape
        if shape == "subspace":
            self.fld = gflib.field(spec.q)
            self.width = spec.m + spec.n if record.graph else spec.v
            count = spec.q**self.width
            self.counts = tuple(spec.q**r - 1 for r in range(spec.top_rank + 1))  # rank -> popcount
            self.ranks = {c: r for r, c in enumerate(self.counts)}  # popcount -> rank
            self.top_size = spec.q**spec.top_rank  # vectors of a top-rank element
            self.vectors: dict[int, tuple] = {}  # code -> vector, filled by `_vector`
            # GF(2^k) elements are bit polynomials, so vectors add by the xor of their codes
            self.plus = operator.xor if self.fld.p == 2 else self.fld.add
            # a graph kind: the vectors (0, u), u != 0, whose codes are below q^n; no graph has one
            self.flat = (1 << spec.q**spec.n) - 2 if record.graph else 0
            self.image_tokens: dict[str, tuple] = {}  # a graph kind's image rows, kept by `parse_element`
        elif shape == "set":
            count = spec.v
            atoms = range(1, count + 1)
        else:
            self.base, self.stride, self.injective = record.base, getattr(spec, record.stride), record.injective
            count = spec.m * self.stride
            atoms = product(range(1, spec.m + 1), range(self.base, self.base + self.stride))
        if count > ATOM_CAP:
            raise BudgetExceededError(str(spec), count, "atoms", ATOM_CAP)
        # set and map kinds: atom -> its bit
        self.bit = None if shape == "subspace" else {atom: 1 << b for b, atom in enumerate(atoms)}.__getitem__
        if shape == "map":
            # per position, its top atom (high) and the atoms under it (low)
            ones = ((1 << count) - 1) // ((1 << self.stride) - 1)  # each position's first atom
            self.high = ones << self.stride - 1
            self.low = ones * ((1 << self.stride - 1) - 1)
        self.spec = spec
        self.top_rank = spec.top_rank
        self.decoded: dict[int, Element] = {}
        self.tokens: dict[str, object] = {}  # item text -> the item, kept by `parse_element`

    def encode(self, payload: tuple) -> int:
        if self.bit is None:  # subspace kinds
            return self._span(sum(1 << self.code(row) for row in _rows(self.spec, payload)))
        return sum(map(self.bit, payload))

    def element(self, mask: int) -> Element:
        """The element whose atom set is mask, e.g. the meet `a & b`.  A subspace
        kind's first decode of a mask is encoded back, and a mask that is not
        the atom set of an element raises AssertionError."""
        found = self.decoded.get(mask)
        if found is None:
            found = Element(self.spec, self._decode(mask))
            if self.spec.q is not None and (mask & self.flat or self.encode(found.payload) != mask):
                raise AssertionError(f"{self.spec}: atoms {mask:#x} are not an element's; decoded {found}")
            if len(self.decoded) >= _DECODED_CAP:
                self.decoded.clear()
            self.decoded[mask] = found
            found.atoms = mask
        return found

    def clash(self, mask: int) -> bool:
        """Whether two atoms of a map kind's mask share a position or, for
        an injective kind, a value."""
        count = mask.bit_count()
        # a position's top bit is set, or carried into, iff the position holds an atom
        if (((mask & self.low) + self.low | mask) & self.high).bit_count() != count:
            return True
        if not self.injective:
            return False
        values, block = 0, (1 << self.stride) - 1
        while mask:
            values |= mask & block
            mask >>= self.stride
        return values.bit_count() != count

    def _decode(self, mask: int) -> tuple:
        if self.shape == "set":
            return tuple(b + 1 for b in _bits(mask))
        if self.shape == "map":
            return tuple((b // self.stride + 1, b % self.stride + self.base) for b in _bits(mask))
        # Adding later RREF rows to a row puts a nonzero entry at a later pivot,
        # where the row has 0, so the row with its pivot at column c is the least
        # vector whose first nonzero entry is a 1 at c: its code is the lowest
        # atom in [lo, 2 lo), lo = q^(width-1-c).  A graph meets {0} x GF(q)^n
        # trivially, so every pivot is a domain column.
        rows, lo = [], self.fld.q**self.width
        while lo > 1:
            lo //= self.fld.q
            lead = mask >> lo & (1 << lo) - 1
            if lead:
                rows.append(self._vector(lo + (lead & -lead).bit_length() - 1))
        return _from_rows(self.spec, tuple(rows))

    # vectors of the subspace kinds, as codes

    def code(self, vec) -> int:
        """The code of a vector, the inverse of `_vector`."""
        q, code = self.fld.q, 0
        for c in vec:
            code = code * q + c
        return code

    def _vector(self, code: int) -> tuple:
        """The vector whose code is `code`, kept once met."""
        vec = self.vectors.get(code)
        if vec is None:
            q, rest, digits = self.fld.q, code, []
            for _ in range(self.width):
                rest, c = divmod(rest, q)
                digits.append(c)
            vec = self.vectors[code] = tuple(reversed(digits))
        return vec

    def sumset(self, a: int, b: int) -> int:
        """The atoms of x + y for subspaces x and y with atoms a and b: their join."""
        return self._span(b, a)

    def _span(self, mask: int, under: int = 0) -> int:
        """The atoms of the span of `under`, the atoms of a subspace, and the
        vectors of mask."""
        plus, scale, q = self.plus, self.fld.scale, self.fld.q
        vecs, span = [0, *_bits(under)], under | 1  # bit 0: the zero vector
        rest = mask & ~span
        while rest:
            code = (rest & -rest).bit_length() - 1
            new = [plus(s, m) for m in [scale(c, code) for c in range(1, q)] for s in vecs]
            vecs += new
            for v in new:
                span |= 1 << v
            rest &= ~span
        return span & ~1


def _codec(spec: FamilySpec) -> _Atoms | None:
    """`spec.codec`, or None above ATOM_CAP: the elements then built encode
    lazily, so the family is refused at its first meet, and at every meet
    after, since a failed build stores nothing."""
    try:
        return spec.codec
    except BudgetExceededError:
        return None


_new = tuple.__new__  # builds an Element from (spec, payload), as namedtuple's `_make` does


def _rows(spec: FamilySpec, payload: tuple) -> tuple:
    """Spanning rows of a subspace, or of a partial linear map's graph {(w, f(w))}."""
    return tuple(d + f for d, f in zip(*payload)) if spec._record.graph else payload


def _from_rows(spec: FamilySpec, rows: tuple) -> tuple:
    """The payload spanned by RREF rows with no pivot in an image column."""
    if not spec._record.graph:
        return rows
    return tuple(r[: spec.m] for r in rows), tuple(r[spec.m :] for r in rows)


# ---------------------------------------------------------------------------
# lattice operations


def meet(x: Element, y: Element) -> Element:
    """Greatest lower bound of x and y."""
    spec = x.spec
    if spec is not y.spec:
        _same_family(x, y)
    return spec.codec.element(x.atoms & y.atoms)


def meet_rank(x: Element, y: Element) -> int:
    """rank(meet(x, y)) from the popcount of the common atoms; nothing is decoded."""
    spec = x.spec
    if spec is not y.spec:
        _same_family(x, y)
    count = (x.atoms & y.atoms).bit_count()
    return count if spec.q is None else spec.codec.ranks[count]  # q: the subspace kinds


def atom_count(spec: FamilySpec, r: int) -> int:
    """Popcount of a rank-r element's atoms, the inverse of `meet_rank`'s map."""
    return r if spec.q is None else spec.codec.counts[r]


def leq(x: Element, y: Element) -> bool:
    """True iff x is below y (equivalently meet(x, y) == x)."""
    if x.spec is not y.spec:
        _same_family(x, y)
    return not x.atoms & ~y.atoms


def join_bounded(x: Element, y: Element) -> Element | None:
    """Least upper bound within the truncated lattice, or None.

    When an upper bound exists its rank is rank(x) + rank(y) - rank(x/\\y);
    upper bounds are only sought at rank <= M.  Set and map kinds join by
    the union of their atoms.  Subspace kinds return the larger of two
    comparable elements; otherwise, within that rank, the join's atoms are
    the sumset of the two atom sets, which for bilinear must hold no vector
    (0, u).  The result is decoded through the family's cache, so each
    distinct join is decoded, and checked, once.
    """
    spec = x.spec
    if spec is not y.spec:
        _same_family(x, y)
    atoms = spec.codec
    a, b = x.atoms, y.atoms
    if spec.q is None:  # set and map kinds: the join's atoms are the union
        union = a | b
        if union.bit_count() > atoms.top_rank or atoms.shape == "map" and atoms.clash(union):
            return None
        return atoms.element(union)
    common = a & b
    # q^rank(x) q^rank(y) / q^rank(x /\ y) > q^M: every upper bound is above the top rank
    if (a.bit_count() + 1) * (b.bit_count() + 1) > (common.bit_count() + 1) * atoms.top_size:
        return None
    if common == a:
        return y
    if common == b:
        return x
    total = atoms.sumset(a, b)
    if total & atoms.flat:
        return None  # not the graph of a map
    return atoms.element(total)


def meet_all(elements) -> Element:
    """Iterated meet of a nonempty collection."""
    return reduce(meet, elements)


# ---------------------------------------------------------------------------
# fiber enumeration

FIBER_CAP = 10**6  # elements per fiber; each costs about 3-9 us and 250-660 bytes to build
DEFAULT_BUDGET = 10**8  # comparisons an audit, a coverage pass or a d_r scan may make


def _fiber_payloads(spec: FamilySpec, i: int) -> list[tuple]:
    record = spec._record
    if record.shape == "set":
        return list(combinations(range(1, spec.v + 1), i))
    if record.shape == "map":
        values = range(record.base, record.base + getattr(spec, record.stride))
        out = []
        if record.injective:
            for pos in combinations(range(1, spec.m + 1), i):
                for vals in permutations(values, i):
                    out.append(tuple(zip(pos, vals)))
            return out
        # i positions, then a pair at each; the payloads share their pairs
        pairs = [[(p, v) for v in values if not (record.derangement and v == p)] for p in range(1, spec.m + 1)]
        for chosen in combinations(pairs, i):
            out += product(*chosen)
        return out
    fld = gflib.field(spec.q)
    if not record.graph:
        return list(gflib.enumerate_rref_matrices(spec.v, i, fld))
    vectors = list(product(range(spec.q), repeat=spec.n))
    out = []
    for dom in gflib.enumerate_rref_matrices(spec.m, i, fld):
        for images in product(vectors, repeat=i):
            out.append((dom, images))
    return out


def fiber_size(spec: FamilySpec, i: int) -> int:
    """Number of rank-i elements, by closed form; nothing is built."""
    if not 0 <= i <= spec.top_rank:
        raise ParseError(f"rank {i} out of range 0..{spec.top_rank}")
    return spec._record.fiber_size(spec, i)


def _fiber(spec: FamilySpec, i: int) -> tuple[Element, ...]:
    payloads = _fiber_payloads(spec, i)
    payloads.sort()
    fiber = tuple([_new(Element, (spec, p)) for p in payloads])
    atoms = _codec(spec)
    # set and map kinds encode by table lookups; a subspace kind's span costs
    # microseconds, so its fibers encode on first read, and writing a fiber out
    # (`gen`) pays for no span
    if atoms is not None and atoms.bit is not None:
        for x, mask in zip(fiber, map(atoms.encode, payloads)):
            x.atoms = mask
    return fiber


def enumerate_fiber(spec: FamilySpec, i: int) -> tuple[Element, ...]:
    """Every rank-i element once, in canonical (payload) order; the one way to a fiber.
    A fiber above FIBER_CAP elements is refused, by fiber_size, before it is built;
    a built fiber is kept in `spec.fibers`."""
    size = fiber_size(spec, i)
    if size > FIBER_CAP:
        raise BudgetExceededError(f"the rank-{i} fiber of {spec}", size, "elements", FIBER_CAP)
    fiber = spec.fibers.get(i)
    if fiber is None:
        fiber = spec.fibers[i] = _fiber(spec, i)
    return fiber


def supersets(keys, masks) -> list[int]:
    """For each key mask, the bitmask of the indices of `masks` that hold every
    atom of the key: the AND of one holder mask per atom of the key (bit j when
    masks[j] holds the atom).  A key without atoms gets every index, and a key
    with an atom that no mask holds gets 0."""
    holders: dict[int, int] = {}  # atom + 1 -> the indices of the masks that hold it
    get = holders.get
    for j, mask in enumerate(masks):
        index = 1 << j
        while mask:
            low = mask & -mask
            atom = low.bit_length()
            holders[atom] = get(atom, 0) | index
            mask ^= low
    everything = (1 << len(masks)) - 1
    stars = []
    for key in keys:
        star = everything
        while key and star:
            low = key & -key
            star &= get(low.bit_length(), 0)
            key ^= low
        stars.append(star)
    return stars


def above(spec: FamilySpec, i: int, elements) -> list[int]:
    """For each rank-i element, in canonical order, the bitmask of the indices of
    the sequence `elements` above it.

    z <= x puts z's atoms inside x's, so the star of z is read off the atom
    masks by `supersets`.  Each star member is then confirmed by one `leq`
    call; a refusal raises AssertionError.
    """
    spec.codec  # a family above ATOM_CAP is refused before its fiber is built
    fiber = enumerate_fiber(spec, i)
    stars = supersets([z.atoms for z in fiber], [x.atoms for x in elements])
    for z, star in zip(fiber, stars):
        for j in _bits(star):
            if not leq(z, elements[j]):
                raise AssertionError(f"leq refuses {format_element(z)} <= {format_element(elements[j])}")
    return stars


@lru_cache(maxsize=None)
def _coefficients(r: int, i: int, q: int) -> tuple:
    """Every i-row RREF matrix with r columns over GF(q), in enumeration order."""
    return tuple(gflib.enumerate_rref_matrices(r, i, gflib.field(q)))


def below(x: Element, i: int) -> list[Element]:
    """The rank-i elements below x, in canonical order; no fiber is built.

    Set and map kinds take the i-subsets of x's payload.  Subspace kinds
    multiply x's RREF (graph) rows R by every i-row RREF matrix C, on the
    rows' codes; C R is already in RREF, since at R's pivot columns it reads C.
    """
    spec = x.spec
    if spec.q is None:
        return [Element(spec, sub) for sub in combinations(x.payload, i)]
    atoms = spec.codec
    plus, scale = atoms.plus, atoms.fld.scale
    # multiples[j][c]: the code of c times row j
    multiples = [
        [0, *(scale(c, code) for c in range(1, spec.q))]
        for code in map(atoms.code, _rows(spec, x.payload))
    ]
    payloads = []
    for coeffs in _coefficients(x.rank, i, spec.q):
        codes = [reduce(plus, map(list.__getitem__, multiples, row)) for row in coeffs]
        payloads.append(_from_rows(spec, tuple(map(atoms._vector, codes))))
    return [Element(spec, p) for p in sorted(payloads)]


def enumerate_all(spec: FamilySpec) -> Iterator[Element]:
    """Every element of every fiber, by increasing rank."""
    for i in range(spec.top_rank + 1):
        yield from enumerate_fiber(spec, i)


# ---------------------------------------------------------------------------
# symmetries
#
# Standard generators of each family's automorphism group, each a permutation
# of the atom indices.  They are candidates only: the search keeps one just
# when it maps a design onto itself.


def _swap(i: int) -> int:
    return (1, 0)[i] if i < 2 else i


def _linear_maps(fld, width: int) -> list:
    """Generators of GL(width, q) on row vectors: the coordinate cycle and swap,
    the transvection e1 += e2, and e1 times a primitive element."""
    maps = [lambda c: c[-1:] + c[:-1], lambda c: (c[1], c[0]) + c[2:], lambda c: (c[0], fld.add(c[1], c[0])) + c[2:]]
    g = fld.primitive()  # 1 when q = 2
    return (maps if width >= 2 else []) + ([lambda c: (fld.mul(g, c[0]),) + c[1:]] if g != 1 else [])


def _graph_maps(spec: FamilySpec, fld) -> list:
    """The block maps (w, u) -> (wA, wB + uD) on a graph's vectors, with one of
    A, D a generator of `_linear_maps` (B = 0), or A = D = I and B = E11."""
    m = spec.m
    maps = [lambda c, a=a: a(c[:m]) + c[m:] for a in _linear_maps(fld, m)]
    maps += [lambda c, d=d: c[:m] + d(c[m:]) for d in _linear_maps(fld, spec.n)]
    maps.append(lambda c: c[:m] + (fld.add(c[m], c[0]),) + c[m + 1 :])
    return maps


# Moves of set and map kinds: (p, a, m, width) -> the image of the 0-based
# (position, value) atom (p, a), for m positions with `width` values each.
_POSITION_MOVES = (lambda p, a, m, w: (_swap(p), a), lambda p, a, m, w: ((p + 1) % m, a))
# a value transposition and cycle at position 1, or at every position at once
_FIRST_VALUE_MOVES = (lambda p, a, m, w: (p, _swap(a) if p == 0 else a), lambda p, a, m, w: (p, (a + 1) % w if p == 0 else a))
_VALUE_MOVES = (lambda p, a, m, w: (p, _swap(a)), lambda p, a, m, w: (p, (a + 1) % w))
# conjugation by (1 2) and (1 ... m), moving positions and values together,
# and the swap of values 2 and 3 at position 1 (no permutation when m = 2)
_CONJUGATIONS = (
    lambda p, a, m, w: (_swap(p), _swap(a)),
    lambda p, a, m, w: ((p + 1) % m, (a + 1) % m),
    lambda p, a, m, w: (p, 3 - a if p == 0 and a in (1, 2) else a),
)


class Symmetry:
    """A candidate automorphism given by `move`, a map of atom indices.  Called
    on an element, it gives the atom mask of the element's image."""

    __slots__ = ("move",)

    def __init__(self, move):
        self.move = move

    def __call__(self, x: Element) -> int:
        move, mask, image = self.move, x.atoms, 0
        while mask:
            low = mask & -mask
            image += 1 << move(low.bit_length() - 1)
            mask ^= low
        return image

    def injective_on(self, mask: int) -> bool:
        """Whether `move` maps the atoms of mask to distinct atoms."""
        return len({self.move(b) for b in _bits(mask)}) == mask.bit_count()


def symmetries(spec: FamilySpec) -> list[Symmetry]:
    """Candidate generators of the family's automorphism group, its record's `moves`.

    Set and map kinds permute (position, value) atoms, 0-based; a set kind has
    one position per point.  Subspace kinds apply an invertible linear map to
    an atom's vector when the atom first occurs, so the cost grows with the
    atoms met, not with q^width.
    """
    record = spec._record
    if record.shape == "subspace":
        atoms = spec.codec
        moves = [lru_cache(maxsize=None)(lambda b, g=g: atoms.code(g(atoms._vector(b)))) for g in record.moves(spec, atoms.fld)]
    else:
        m, width = (spec.v, 1) if record.shape == "set" else (spec.m, spec.codec.stride)
        perms = [[p * width + a for p, a in (f(*divmod(b, width), m, width) for b in range(m * width))] for f in record.moves]
        # a swap needs two positions or values: keep only true permutations
        moves = [perm.__getitem__ for perm in perms if sorted(perm) == list(range(m * width))]
    return [Symmetry(f) for f in moves]


# ---------------------------------------------------------------------------
# codecs


def format_element(x: Element) -> str:
    record = x.spec._record
    if x.rank == 0:
        return "-"
    if record.shape == "set":
        return " ".join(str(i) for i in x.payload)
    if record.shape == "map":
        return ",".join(f"{p}:{v}" for p, v in x.payload)
    if not record.graph:
        return ";".join(".".join(str(c) for c in row) for row in x.payload)
    dom, images = x.payload
    dom_text = ";".join(".".join(str(c) for c in row) for row in dom)
    img_text = ";".join(".".join(str(c) for c in row) for row in images)
    return f"E={dom_text};f={img_text}"


def _numeral(text: str) -> bool:
    """Whether text is a natural number as `str` writes it: ASCII digits,
    no sign, no leading zero."""
    return text.isdigit() and text.isascii() and (text[0] != "0" or len(text) == 1)


def _parse_matrix(text: str, width: int, hi: int, what: str, known: dict) -> tuple:
    """The rows of a matrix, left to right; a row text not in `known` is
    checked by `_matrix_row`."""
    rows = []
    for row_text in text.split(";"):
        row = known.get(row_text)
        rows.append(_matrix_row(row_text, width, hi, what, known) if row is None else row)
    return tuple(rows)


def _matrix_row(row_text: str, width: int, hi: int, what: str, known: dict) -> tuple:
    """One checked matrix row, kept in `known`."""
    cells = row_text.split(".")
    if len(cells) != width:
        raise ParseError(f"{what}: expected {width} entries per row, got {row_text!r}")
    row = []
    for cell in cells:
        if not _numeral(cell):
            raise ParseError(f"{what}: bad field element {cell!r}")
        value = int(cell)
        if value >= hi:
            raise ParseError(f"{what}: field element {value} out of range 0..{hi - 1}")
        row.append(value)
    row = known[row_text] = tuple(row)
    return row


def _is_rref(rows: tuple) -> bool:
    """Whether every row leads with a 1, the leads move strictly right and each
    lead is the only nonzero entry in its column: reduced row echelon form
    with no zero row."""
    last, others = -1, len(rows) - 1
    for row in rows:
        if 1 not in row:
            return False
        lead = row.index(1)
        if lead <= last or any(row[:lead]):
            return False
        if [other[lead] for other in rows].count(0) != others:
            return False
        last = lead
    return True


def _parse_members(spec: FamilySpec, text: str, known: dict) -> tuple:
    """A johnson set: first every member a numeral, then each in 1..v, then
    strictly increasing.  A member not in `known` is checked, and kept there
    when it is in range."""
    members, last = [], 0
    stray = unordered = False
    for part in text.split(" "):
        x = known.get(part)
        if x is None:
            if not _numeral(part):
                raise ParseError(f"bad ground-set member {part!r}")
            x = int(part)
            if 1 <= x <= spec.v:
                known[part] = x
            else:
                stray = True
        if x <= last:
            unordered = True
        last = x
        members.append(x)
    if stray:
        raise ParseError(f"ground-set member out of range 1..{spec.v}")
    if unordered:
        raise ParseError("members must be strictly increasing")
    return tuple(members)


def _parse_pairs(spec: FamilySpec, text: str, known: dict) -> tuple:
    """A partial map's pairs, positions strictly increasing; a pair not in
    `known` is checked by `_pair`."""
    pairs, last_pos = [], 0
    for item in text.split(","):
        pair = known.get(item)
        if pair is None:
            pair = _pair(spec, item, last_pos, known)
        elif pair[0] <= last_pos:
            raise ParseError("positions must be strictly increasing")
        last_pos = pair[0]
        pairs.append(pair)
    if spec._record.injective and len({v for _, v in pairs}) != len(pairs):
        raise ParseError("duplicate values in an injective map")
    return tuple(pairs)


def _pair(spec: FamilySpec, item: str, last_pos: int, known: dict) -> tuple:
    """One position:value pair after position `last_pos`, checked in the row's
    order (numerals, position range, position order, value), then kept in
    `known`."""
    pos_text, sep, val_text = item.partition(":")
    if not sep or not _numeral(pos_text) or not _numeral(val_text):
        raise ParseError(f"bad position:value pair {item!r}")
    pos, val = int(pos_text), int(val_text)
    if not 1 <= pos <= spec.m:
        raise ParseError(f"position {pos} out of range 1..{spec.m}")
    if pos <= last_pos:
        raise ParseError("positions must be strictly increasing")
    record = spec._record
    top = record.base + getattr(spec, record.stride) - 1
    if not record.base <= val <= top:
        raise ParseError(f"value {val} out of range {record.base}..{top}")
    if record.derangement and val == pos:
        raise ParseError(f"fixed point {pos}:{val} is not allowed")
    pair = known[item] = (pos, val)
    return pair


def parse_element(spec: FamilySpec, text: str) -> Element:
    """Parse a canonical element encoding, the text `format_element` writes
    (surrounding whitespace aside); any other text is rejected as it is
    read: one separator between items, and numerals as `str` writes them.
    Each item token is checked once per family and kept (see the atoms
    section); every row-level check runs on every row.  The element comes
    with its atom mask."""
    raw = text.strip()
    if raw == "-":
        return least(spec)
    if not raw:
        raise ParseError("empty element encoding")
    atoms = _codec(spec)
    known = {} if atoms is None else atoms.tokens
    record = spec._record
    if record.shape == "set":
        payload = _parse_members(spec, raw, known)
    elif record.shape == "map":
        payload = _parse_pairs(spec, raw, known)
    elif not record.graph:
        payload = _parse_matrix(raw, spec.v, spec.q, f"{spec.kind} matrix", known)
        if not _is_rref(payload):
            raise ParseError("matrix is not in reduced row echelon form")
    else:
        if not raw.startswith("E=") or ";f=" not in raw:
            raise ParseError(f"{spec.kind} element must look like E=<matrix>;f=<matrix>")
        dom_text, _, img_text = raw[2:].partition(";f=")
        dom = _parse_matrix(dom_text, spec.m, spec.q, "domain matrix", known)
        images = _parse_matrix(img_text, spec.n, spec.q, "image matrix", {} if atoms is None else atoms.image_tokens)
        if not _is_rref(dom):
            raise ParseError("domain matrix is not in reduced row echelon form")
        if len(images) != len(dom):
            raise ParseError("domain and image matrices must have the same number of rows")
        payload = (dom, images)
    element = _new(Element, (spec, payload))
    if element.rank > spec.top_rank:
        raise ParseError(f"rank {element.rank} exceeds top rank {spec.top_rank}")
    if atoms is not None:
        element.atoms = atoms.encode(payload)
    return element


# ---------------------------------------------------------------------------
# the registry
#
# One `_Kind` per kind; its callables take the spec as `f`.  A spec that
# fails a rule (text, holds) is refused ("requires <text>").  `shape` is
# "set" (subsets of {1..v}), "map" (partial, on {1..m}) or "subspace" (of
# GF(q)^v, or for a `graph` kind the graphs of maps GF(q)^m -> GF(q)^n).  A map
# kind's position p takes the values base .. base + f.<stride> - 1, distinct
# across positions if injective, and never p if derangement.
# `loose` and `tight` are the Table 1 thresholds for s < t-1 and s = t-1.
# `moves` are the symmetry candidates: moves of atoms for set and map kinds
# (see the symmetries section), (f, field) -> maps of vectors otherwise.
# mu and nu need no entry (`parameters._binomial`).


class _Kind(SimpleNamespace):  # built by keyword; only map kinds set the value rule
    base = stride = None
    injective = derangement = graph = False


_KINDS = {
    # subsets of {1..v} of size <= m, stored as sorted tuples
    "johnson": _Kind(
        params=("v", "m"), rules=(("v >= 2m >= 2", lambda f: f.v >= 2 * f.m >= 2),), top="m", shape="set",
        fiber_size=lambda f, i: math.comb(f.v, i),
        theta=lambda f, r: math.comb(f.v - r, f.m - r),
        loose=lambda f, s: f.v > s + math.comb(f.m, s) * (f.m - s + 1) * (f.m - s),
        tight=lambda f, s: f.v > s + (f.m - s) * math.comb(f.m, s) ** 2,
        moves=_POSITION_MOVES,
    ),
    # subspaces of GF(q)^v of dimension <= m, stored as RREF row tuples
    "grassmann": _Kind(
        params=("v", "m", "q"), rules=(("v >= 2m >= 2", lambda f: f.v >= 2 * f.m >= 2),), top="m", shape="subspace",
        fiber_size=lambda f, i: gflib.qbinom(f.v, i, f.q),
        theta=lambda f, r: gflib.qbinom(f.v - r, f.m - r, f.q),
        loose=lambda f, s: f.q ** (f.v - s) - 1
            > (f.q ** (f.m - s) - 1) * ((f.q ** (f.m - s - 1) - 1) // (f.q - 1)) * gflib.qbinom(f.m, s, f.q) ** 2,
        tight=lambda f, s: f.q ** (f.v - s) - 1 > gflib.qbinom(f.m, s, f.q) ** 2 * (f.q ** (f.m - s) - 1),
        moves=lambda f, fld: _linear_maps(fld, f.v),
    ),
    # partial maps {1..m} -> {0..n-1}, stored as sorted (position, value) pairs
    "hamming": _Kind(
        params=("m", "n"), rules=(("n >= 2", lambda f: f.n >= 2),), top="m", shape="map",
        fiber_size=lambda f, i: math.comb(f.m, i) * f.n**i,  # i positions, then a value at each
        theta=lambda f, r: f.n ** (f.m - r),
        loose=lambda f, s: f.n > (f.m - s + 1) * math.comb(f.m, s),
        tight=lambda f, s: f.n > math.comb(f.m, s) ** 2,
        moves=_POSITION_MOVES + _FIRST_VALUE_MOVES,
        base=0, stride="n",
    ),
    # partial linear maps: a subspace E of GF(q)^m in RREF plus the images of
    # its basis rows in GF(q)^n
    "bilinear": _Kind(
        params=("m", "n", "q"), rules=(), top="m", shape="subspace",
        fiber_size=lambda f, i: gflib.qbinom(f.m, i, f.q) * f.q ** (f.n * i),
        # the codomain has q**n points, so each of the m-r missing basis
        # directions picks its image among q**n vectors
        theta=lambda f, r: f.q ** (f.n * (f.m - r)),
        loose=lambda f, s: f.n > ((f.q ** (f.m - s + 1) - 1) // (f.q - 1)) * gflib.qbinom(f.m, s, f.q),
        tight=lambda f, s: f.q > gflib.qbinom(f.m, s, f.q) ** 2,
        moves=_graph_maps,
        graph=True,
    ),
    # partial injective maps {1..m} -> {1..n}
    "injection": _Kind(
        params=("m", "n"), rules=(("n >= m", lambda f: f.n >= f.m),), top="m", shape="map",
        fiber_size=lambda f, i: math.comb(f.m, i) * math.perm(f.n, i),
        theta=lambda f, r: math.perm(f.n - r, f.m - r),
        loose=lambda f, s: f.n > s + (f.m - s + 1) * math.comb(f.m, s),
        tight=lambda f, s: f.n > s + math.comb(f.m, s) ** 2,
        moves=_POSITION_MOVES + _VALUE_MOVES,
        base=1, stride="n", injective=True,
    ),
    # hamming truncated at rank k < m
    "nbjohnson": _Kind(
        params=("m", "n", "k"), rules=(("n >= 2", lambda f: f.n >= 2), ("k < m", lambda f: f.k < f.m)), top="k", shape="map",
        fiber_size=lambda f, i: math.comb(f.m, i) * f.n**i,
        theta=lambda f, r: f.n ** (f.k - r) * math.comb(f.m - r, f.k - r),
        loose=lambda f, s: f.n * (f.m - s) > (f.k - s + 1) * (f.k - s) * math.comb(f.k, s),
        tight=lambda f, s: f.n * (f.m - s) > (f.k - s) * math.comb(f.k, s) ** 2,
        moves=_POSITION_MOVES + _FIRST_VALUE_MOVES,
        base=0, stride="n",
    ),
    # partial maps {1..m} -> {1..m} with f(i) != i, truncated at rank k < m
    "signed": _Kind(
        params=("m", "k"), rules=(("k < m", lambda f: f.k < f.m),), top="k", shape="map",
        fiber_size=lambda f, i: math.comb(f.m, i) * (f.m - 1) ** i,
        theta=lambda f, r: (f.m - 1) ** (f.k - r) * math.comb(f.m - r, f.k - r),
        loose=lambda f, s: (f.m - 1) * (f.m - s) > (f.k - s + 1) * (f.k - s) * math.comb(f.k, s),
        tight=lambda f, s: (f.m - 1) * (f.m - s) > (f.k - s) * math.comb(f.k, s) ** 2,
        moves=_CONJUGATIONS,
        base=1, stride="m", derangement=True,
    ),
}

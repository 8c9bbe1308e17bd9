"""Element models: codecs, meet/join/rank, fibers, and lattice laws.

Exhaustive law checks run over complete small instances of all seven
families; hypothesis drives randomized triples through the same laws on a
mixed element pool.
"""

from __future__ import annotations

import pickle
import random
from itertools import combinations, permutations, product

import pytest
from conftest import GRID_SPECS, ODD_FIELD_SPECS, grid, sampled_universe
from hypothesis import given, settings, strategies as st
from test_designs import MALFORMED
from test_gf import brute_span, sample_cases

from ekrlattice import designs, families, gf, parameters
from ekrlattice.errors import BudgetExceededError, FamilyMismatchError, ParseError

SMALL_SPECS = (
    "johnson:v=4,m=2",
    "grassmann:v=4,m=2,q=2",
    "hamming:m=2,n=3",
    "bilinear:m=2,n=1,q=2",
    "injection:m=2,n=3",
    "nbjohnson:m=3,n=2,k=2",
    "signed:m=3,k=2",
)


def small_universes():
    for text in SMALL_SPECS:
        spec = families.parse_family_spec(text)
        yield spec, list(families.enumerate_all(spec))


# ---------------------------------------------------------------------------
# spec parsing


def test_spec_string_round_trip():
    for text in SMALL_SPECS:
        spec = families.parse_family_spec(text)
        assert str(spec) == text
        assert families.parse_family_spec(str(spec)) == spec


@pytest.mark.parametrize(
    "bad",
    [
        "johnson:v=3,m=2",  # v < 2m
        "johnson:v=4",  # missing m
        "johnson:v=4,m=2,q=2",  # stray q
        "hamming:m=2,n=1",  # n < 2
        "injection:m=4,n=3",  # n < m
        "nbjohnson:m=3,n=2,k=3",  # k >= m
        "signed:m=3,k=3",
        "grassmann:v=4,m=2,q=6",  # not a prime power
        "mystery:v=1",
        "johnson",
    ],
)
def test_bad_specs_rejected(bad):
    with pytest.raises(ParseError):
        families.parse_family_spec(bad)


def test_replace_validates_the_spec():
    gs = families.parse_family_spec("grassmann:v=4,m=2,q=2")
    assert gs._replace(q=3) == families.parse_family_spec("grassmann:v=4,m=2,q=3")
    with pytest.raises(ParseError):
        gs._replace(q=6)
    with pytest.raises(ParseError):
        gs._replace(m=3)
    with pytest.raises(ParseError):
        families.FamilySpec._make(("johnson", 4, 2, None, 2, None))


def test_a_bool_is_no_parameter():
    # `str` of such a spec would read `hamming:m=True,n=2`, which the parser refuses
    with pytest.raises(ParseError, match="^hamming: parameter m must be a positive integer$"):
        families.FamilySpec(kind="hamming", m=True, n=2)
    with pytest.raises(ParseError, match="^grassmann: parameter q must be a positive integer$"):
        families.FamilySpec(kind="grassmann", v=4, m=2, q=True)
    with pytest.raises(ParseError, match="^johnson: parameter v must be a positive integer$"):
        families.parse_family_spec("johnson:v=4,m=2")._replace(v=False)


def test_specs_and_elements_pickle_as_their_parameters():
    for spec, universe in small_universes():
        x = universe[-1]
        back = pickle.loads(pickle.dumps(x))
        assert back == x and back.spec.top_rank == spec.top_rank and str(back.spec) == str(spec)
        assert families.meet(back, back) == x  # the unpickled spec builds its own codec
    data = pickle.dumps(families.parse_family_spec("johnson:v=4,m=2"))
    with pytest.raises(ParseError, match="requires v >= 2m"):  # a pickled spec is checked again as it is read
        pickle.loads(data.replace(b"K\x04K\x02", b"K\x03K\x02"))  # v=4 -> v=3


def test_top_rank():
    assert families.parse_family_spec("johnson:v=7,m=3").top_rank == 3
    assert families.parse_family_spec("nbjohnson:m=4,n=3,k=2").top_rank == 2
    assert families.parse_family_spec("signed:m=5,k=2").top_rank == 2


def test_every_registered_kind_is_on_the_grid_with_a_whole_record():
    # the acceptance grid's oracle and audit runs cover a kind only through its GRID_SPECS entry
    specs = {}
    for spec in grid():
        specs.setdefault(spec.kind, spec)
    assert set(specs) == set(families._KINDS)
    for kind, record in families._KINDS.items():
        spec = specs[kind]
        assert families.parse_family_spec(str(spec)) == spec and str(families.parse_family_spec(str(spec))) == str(spec)
        assert spec._record is record and spec.top_rank == getattr(spec, record.top)
        # every field is set, and the value rule only on a map kind
        fields = {"params", "rules", "top", "shape", "fiber_size", "theta", "loose", "tight", "moves"}
        rule = {"base", "stride", "injective", "derangement"} if record.shape == "map" else set()
        assert fields <= set(vars(record)) <= fields | rule | {"graph"}
        assert all(getattr(record, name) is not None for name in fields | rule - {"injective", "derangement"})
        assert record.shape in ("set", "map", "subspace") and record.top in record.params and record.moves
        assert all(callable(getattr(record, name)) for name in ("fiber_size", "theta", "loose", "tight"))
        assert all(isinstance(text, str) and callable(holds) for text, holds in record.rules)
        assert record.graph in (False, True) and (not record.graph or record.shape == "subspace")
        assert not (record.injective or record.derangement) or record.shape == "map"
        if record.shape == "map":
            assert record.stride in record.params and record.base in (0, 1)


# ---------------------------------------------------------------------------
# rank / meet / leq / join examples


def test_rank_examples():
    js = families.parse_family_spec("johnson:v=6,m=3")
    assert families.parse_element(js, "1 3 5").rank == 3
    gs = families.parse_family_spec("grassmann:v=4,m=2,q=2")
    assert families.least(gs).rank == 0
    hs = families.parse_family_spec("hamming:m=3,n=5")
    assert families.parse_element(hs, "1:4,3:2").rank == 2


def test_meet_examples():
    js = families.parse_family_spec("johnson:v=6,m=3")
    a = families.parse_element(js, "1 2 3")
    b = families.parse_element(js, "2 3 4")
    assert families.format_element(families.meet(a, b)) == "2 3"

    hs = families.parse_family_spec("hamming:m=2,n=5")
    a = families.parse_element(hs, "1:0,2:3")
    b = families.parse_element(hs, "1:0,2:4")
    assert families.format_element(families.meet(a, b)) == "1:0"


def test_grassmann_meet_against_vector_enumeration():
    # derived oracle: the common vectors of the two spans
    gs = families.parse_family_spec("grassmann:v=4,m=2,q=2")
    fld = gf.field(2)
    a = families.parse_element(gs, "1.0.0.0;0.1.0.0")
    b = families.parse_element(gs, "0.1.0.0;0.0.1.0")
    met = families.meet(a, b)
    common = brute_span(a.payload, fld) & brute_span(b.payload, fld)
    assert brute_span(met.payload, fld) == common
    assert families.format_element(met) == "0.1.0.0"


def test_leq_examples():
    js = families.parse_family_spec("johnson:v=6,m=3")
    assert families.leq(families.parse_element(js, "1 2"), families.parse_element(js, "1 2 3"))
    assert not families.leq(families.parse_element(js, "1 4"), families.parse_element(js, "1 2 3"))
    hs = families.parse_family_spec("hamming:m=2,n=2")
    assert not families.leq(
        families.parse_element(hs, "1:0"), families.parse_element(hs, "1:1,2:0")
    )


def test_join_examples():
    js = families.parse_family_spec("johnson:v=6,m=3")
    a = families.parse_element(js, "1 2")
    b = families.parse_element(js, "2 3")
    assert families.format_element(families.join_bounded(a, b)) == "1 2 3"
    assert families.join_bounded(a, families.parse_element(js, "3 4")) is None  # rank 4 > M

    hs = families.parse_family_spec("hamming:m=2,n=2")
    assert families.join_bounded(
        families.parse_element(hs, "1:0"), families.parse_element(hs, "1:1")
    ) is None

    # injective joins must stay injective
    isp = families.parse_family_spec("injection:m=2,n=2")
    a = families.parse_element(isp, "1:1")
    b = families.parse_element(isp, "2:1")
    assert families.join_bounded(a, b) is None


def test_family_mismatch_raises():
    a = families.parse_element(families.parse_family_spec("johnson:v=4,m=2"), "1 2")
    b = families.parse_element(families.parse_family_spec("johnson:v=6,m=2"), "1 2")
    with pytest.raises(FamilyMismatchError):
        families.meet(a, b)
    with pytest.raises(FamilyMismatchError):
        families.leq(a, b)
    with pytest.raises(FamilyMismatchError):
        families.join_bounded(a, b)


def test_element_order_is_payload_order_within_one_family():
    # the tuple base would compare (spec, payload); every order test reads payloads
    js = families.parse_family_spec("johnson:v=4,m=2")
    lo, hi = families.parse_element(js, "1 2"), families.parse_element(js, "1 3")
    assert (lo < hi, lo <= hi, lo > hi, lo >= hi) == (True, True, False, False)
    assert (hi < lo, hi <= lo, hi > lo, hi >= lo) == (False, False, True, True)
    assert (lo < lo, lo <= lo, lo > lo, lo >= lo) == (False, True, False, True)
    # "johnson:v=6" > "johnson:v=4" as specs, yet no order crosses families
    other = families.parse_element(families.parse_family_spec("johnson:v=6,m=2"), "1 2")
    for compare in ("__lt__", "__le__", "__gt__", "__ge__"):
        with pytest.raises(FamilyMismatchError):
            getattr(lo, compare)(other)
    with pytest.raises(FamilyMismatchError):
        other > lo
    with pytest.raises(FamilyMismatchError):
        sorted([lo, other])
    # equal but distinct spec objects give equal, equally hashed elements
    twin = families.parse_family_spec("johnson:v=4,m=2")
    assert twin is not js
    copy = families.Element(twin, (1, 2))
    assert copy == lo and hash(copy) == hash(lo) and copy != other
    assert {lo: 1}[copy] == 1


# ---------------------------------------------------------------------------
# fibers


def test_fiber_examples_against_direct_listings():
    js = families.parse_family_spec("johnson:v=4,m=2")
    assert len(list(families.enumerate_fiber(js, 2))) == len(list(combinations(range(4), 2)))

    gs = families.parse_family_spec("grassmann:v=4,m=2,q=2")
    # lines of GF(2)^4: nonzero vectors up to scaling, counted directly
    nonzero = [v for v in product(range(2), repeat=4) if any(v)]
    assert len(list(families.enumerate_fiber(gs, 1))) == len(nonzero)

    ss = families.parse_family_spec("signed:m=3,k=2")
    direct = [
        ((p1, v1), (p2, v2))
        for p1, p2 in combinations(range(1, 4), 2)
        for v1 in range(1, 4)
        if v1 != p1
        for v2 in range(1, 4)
        if v2 != p2
    ]
    assert len(direct) == 12
    assert len(list(families.enumerate_fiber(ss, 2))) == 12


def test_fiber_is_sorted_unique_and_counted_by_alpha():
    for spec, _ in small_universes():
        for i in range(spec.top_rank + 1):
            fiber = list(families.enumerate_fiber(spec, i))
            payloads = [e.payload for e in fiber]
            assert payloads == sorted(payloads)
            assert len(set(fiber)) == len(fiber)
            assert len(fiber) == parameters.alpha(spec, 0, i)


@pytest.mark.parametrize("spec", grid(), ids=str)
def test_fiber_size_is_the_enumerated_count(spec):
    for i in range(spec.top_rank + 1):
        assert families.fiber_size(spec, i) == len(families.enumerate_fiber(spec, i)) == parameters.alpha(spec, 0, i)


def test_fiber_rank_out_of_range():
    spec = families.parse_family_spec("johnson:v=4,m=2")
    with pytest.raises(ValueError):
        list(families.enumerate_fiber(spec, 3))
    with pytest.raises(ValueError):
        list(families.enumerate_fiber(spec, -1))


# ---------------------------------------------------------------------------
# codecs


def test_parse_examples():
    js = families.parse_family_spec("johnson:v=6,m=3")
    assert families.parse_element(js, "1 3 5").payload == (1, 3, 5)
    hs = families.parse_family_spec("hamming:m=3,n=5")
    assert families.parse_element(hs, "1:4,3:2").payload == ((1, 4), (3, 2))


@pytest.mark.parametrize(
    "spec_text,bad",
    [
        ("signed:m=3,k=2", "2:2"),  # fixed point
        ("johnson:v=6,m=3", "3 1"),  # unsorted
        ("johnson:v=6,m=3", "1 1"),  # repeated
        ("johnson:v=6,m=3", "0 1"),  # out of range
        ("johnson:v=6,m=3", "1 2 3 4"),  # rank above M
        ("johnson:v=6,m=3", ""),  # empty is not the least element
        ("hamming:m=2,n=3", "2:0,1:0"),  # positions out of order
        ("hamming:m=2,n=3", "1:3"),  # value out of range
        ("injection:m=3,n=5", "1:2,2:2"),  # duplicate values
        ("grassmann:v=4,m=2,q=2", "0.1.0.0;1.0.0.0"),  # not RREF (row order)
        ("grassmann:v=4,m=2,q=2", "1.1.0.0;0.1.0.0"),  # not reduced above pivot
        ("grassmann:v=4,m=2,q=2", "1.0.0"),  # wrong width
        ("bilinear:m=2,n=2,q=2", "E=1.0;f=1.1;0.0"),  # row count mismatch
        ("bilinear:m=2,n=2,q=2", "1.0;f=1.1"),  # missing E=
        ("grassmann:v=4,m=2,q=3", "2.0.0.0"),  # leading entry not 1
        ("grassmann:v=4,m=2,q=2", "1.0.0.0;0.0.0.0"),  # zero row
        ("grassmann:v=4,m=2,q=2", "1.0.0.0;1.0.0.0"),  # repeated row
        ("bilinear:m=2,n=2,q=2", "E=1.1;0.1;f=1.0;0.1"),  # domain not RREF
        ("johnson:v=6,m=3", "1  2"),  # non-canonical spacing
        ("hamming:m=2,n=3", "1:+2"),  # non-canonical integer
    ],
)
def test_parse_rejects_bad_input(spec_text, bad):
    spec = families.parse_family_spec(spec_text)
    with pytest.raises(ParseError):
        families.parse_element(spec, bad)


@pytest.mark.parametrize("q", [2, 3])
def test_parse_accepts_exactly_the_rref_matrices(q):
    # oracle: the enumerated RREF matrices, one per subspace
    spec = families.parse_family_spec(f"grassmann:v=4,m=2,q={q}")
    fld = gf.field(q)
    for r in (1, 2):
        rref = set(gf.enumerate_rref_matrices(4, r, fld))
        for flat in product(range(q), repeat=4 * r):
            rows = tuple(flat[4 * i : 4 * i + 4] for i in range(r))
            text = ";".join(".".join(map(str, row)) for row in rows)
            if rows in rref:
                assert families.parse_element(spec, text).payload == rows
            else:
                with pytest.raises(ParseError):
                    families.parse_element(spec, text)


def test_codec_round_trip_everywhere():
    for spec, universe in small_universes():
        for element in universe:
            text = families.format_element(element)
            assert families.parse_element(spec, text) == element


def test_codec_handles_multi_digit_field_elements():
    spec = families.parse_family_spec("grassmann:v=2,m=1,q=13")
    fiber = list(families.enumerate_fiber(spec, 1))
    assert len(fiber) == 14  # q + 1 lines in a plane
    assert families.format_element(fiber[-1]) == "1.12"
    for element in fiber:
        assert families.parse_element(spec, families.format_element(element)) == element


def _near_misses(text: str) -> set:
    """Mutations of one encoding: a leading zero, `+`, a Unicode digit (`٣`,
    a fullwidth digit, `²`) for each digit; each separator doubled or with a
    space before or after it; a separator in front or at the end; each
    character deleted."""
    out = set()
    for i, ch in enumerate(text):
        if ch.isdigit():
            for new in ("0" + ch, "+" + ch, chr(0x660 + int(ch)), chr(0xFF10 + int(ch)), "²"):
                out.add(text[:i] + new + text[i + 1 :])
        if ch in " :,.;=":
            for new in (ch + ch, " " + ch, ch + " "):
                out.add(text[:i] + new + text[i + 1 :])
        out.add(text[:i] + text[i + 1 :])
    for sep in " :,.;":
        out.update((sep + text, text + sep))
    return out


CANONICAL_SPECS = SMALL_SPECS + ("hamming:m=2,n=11", "grassmann:v=2,m=1,q=11")


@pytest.mark.parametrize("spec_text", CANONICAL_SPECS)
def test_parse_accepts_exactly_the_canonical_encodings(spec_text):
    # reference: the text (surrounding whitespace aside) is `format_element`
    # of some element of the family, so format_element(parse(t)) == t
    spec = families.parse_family_spec(spec_text)
    canonical = {families.format_element(x): x for x in families.enumerate_all(spec)}
    corpus = set(canonical).union(*map(_near_misses, canonical))
    for text in sorted(corpus):
        try:
            parsed = families.parse_element(spec, text)
        except ParseError:
            parsed = None
        assert parsed == canonical.get(text.strip()), text
        if parsed is not None:
            assert families.format_element(parsed) == text.strip()


def _lenient_spec(text: str):
    """The spec that `text` names when read loosely (any order, `int()`
    numerals, spaces around names), or None."""
    kind, _, rest = text.strip().partition(":")
    try:
        params = dict((name.strip(), int(value)) for name, _, value in (item.partition("=") for item in rest.split(",")))
        return families.FamilySpec(kind, **params)
    except (ValueError, TypeError):
        return None


@pytest.mark.parametrize("spec_text", SMALL_SPECS + ("hamming:m=2,n=11", "johnson:v=17,m=3", "grassmann:v=2,m=1,q=11"))
def test_parse_spec_accepts_exactly_the_canonical_encodings(spec_text):
    # reference: the text (surrounding whitespace aside) is `str` of the spec
    # it names, so str(parse(t)) == t.strip(); the corpus is the canonical
    # text, its items in every order, and their near misses
    kind, _, rest = spec_text.partition(":")
    orders = {f"{kind}:{','.join(items)}" for items in permutations(rest.split(","))}
    corpus = orders.union(*map(_near_misses, orders))
    for text in sorted(corpus):
        loose = _lenient_spec(text)
        expected = loose if loose is not None and str(loose) == text.strip() else None
        try:
            parsed = families.parse_family_spec(text)
        except ParseError:
            parsed = None
        assert parsed == expected, text
    assert families.parse_family_spec(f" {spec_text}\n") == _lenient_spec(spec_text)


@pytest.mark.parametrize(
    "text, message",
    (
        ("johnson:v=\u0667,m=3", "bad numeral in family spec item 'v=\u0667'"),
        ("johnson: v = +07 ,m=3", "johnson: expected parameters v, m, in this order"),
        ("johnson:v=07,m=3", "bad numeral in family spec item 'v=07'"),
        ("johnson:m=3,v=7", "johnson: expected parameters v, m, in this order"),
        ("johnson:v=7,v=3", "johnson: expected parameters v, m, in this order"),
        ("johnson:v=7", "johnson: expected parameters v, m, in this order"),
        ("johnson:v=7,m=", "bad numeral in family spec item 'm='"),
    ),
)
def test_parse_spec_names_what_is_not_canonical(text, message):
    with pytest.raises(ParseError) as exc:
        families.parse_family_spec(text)
    assert str(exc.value) == message


def test_a_numeral_above_the_digit_limit_is_a_bad_spec_numeral(default_digit_limit):
    item = "v=" + "9" * 5000
    with pytest.raises(ParseError) as exc:
        families.parse_family_spec(f"johnson:{item},m=3")
    assert str(exc.value) == f"bad numeral in family spec item {item!r}"


def test_least_element_formats_as_dash():
    for spec, _ in small_universes():
        z = families.least(spec)
        assert families.format_element(z) == "-"
        assert families.parse_element(spec, "-") == z
        assert z.rank == 0


# ---------------------------------------------------------------------------
# lattice laws, exhaustive on complete small instances


def test_meet_is_greatest_lower_bound_exhaustive():
    for spec, universe in small_universes():
        for x in universe:
            for y in universe:
                met = families.meet(x, y)
                assert families.leq(met, x) and families.leq(met, y)
                assert met.rank <= min(x.rank, y.rank)
                for z in universe:
                    if families.leq(z, x) and families.leq(z, y):
                        assert families.leq(z, met)


def test_join_rank_identity_exhaustive():
    for spec, universe in small_universes():
        for x in universe:
            for y in universe:
                joined = families.join_bounded(x, y)
                uppers = [z for z in universe if families.leq(x, z) and families.leq(y, z)]
                if joined is None:
                    assert not uppers
                else:
                    met = families.meet(x, y)
                    assert joined.rank == x.rank + y.rank - met.rank
                    assert all(families.leq(joined, z) for z in uppers)
                    assert joined in uppers


def join_oracle(x, y):
    """The payload rule for set and map kinds: the sorted union of two sets, or the
    merge of two maps that agree where both are defined and, for injection, stay
    injective; None above the top rank."""
    spec = x.spec
    if spec.kind == "johnson":
        union = tuple(sorted(set(x.payload) | set(y.payload)))
        return families.Element(spec, union) if len(union) <= spec.top_rank else None
    merged = dict(x.payload)
    for pos, val in y.payload:
        if merged.get(pos, val) != val:
            return None
        merged[pos] = val
    if len(merged) > spec.top_rank or spec.kind == "injection" and len(set(merged.values())) != len(merged):
        return None
    return families.Element(spec, tuple(sorted(merged.items())))


@pytest.mark.parametrize(
    # injection:m=1,n=1 has one atom per position
    "spec", [s for s in grid() if s.q is None] + [families.parse_family_spec("injection:m=1,n=1")], ids=str
)
def test_join_bounded_matches_the_payload_rule(spec):
    universe = list(families.enumerate_all(spec))
    for x in universe:
        for y in universe:
            assert families.join_bounded(x, y) == join_oracle(x, y), (x, y)


def test_leq_agrees_with_meet_definition_exhaustive():
    for spec, universe in small_universes():
        for x in universe:
            for y in universe:
                assert families.leq(x, y) == (families.meet(x, y) == x)


# ---------------------------------------------------------------------------
# subspace kinds against brute-force vector enumeration
#
# meet, leq and join_bounded all work on atom bitmasks, so the laws above only
# check that representation against itself.  Here the oracle is the set of
# vectors an element stands for: its span (grassmann) or the graph
# {(w, f(w))} of its map (bilinear), listed by `brute_span`.


def vector_set(x, fld):
    spec = x.spec
    if spec.kind == "grassmann":
        rows, width = x.payload, spec.v
    else:
        rows, width = tuple(d + f for d, f in zip(*x.payload)), spec.m + spec.n
    return frozenset(brute_span(rows, fld)) if rows else frozenset({(0,) * width})


@pytest.mark.parametrize("q", [2, 3])
def test_meet_matches_brute_span_intersection(q):
    spec = families.parse_family_spec(f"grassmann:v=6,m=3,q={q}")
    fld = gf.field(q)
    codec = spec.codec
    rref = {r: set(gf.enumerate_rref_matrices(6, r, fld)) for r in range(spec.top_rank + 1)}
    for a_rows, b_rows in sample_cases(q, 6):
        a, b = (codec.element(codec.encode(rows)) for rows in (a_rows, b_rows))
        assert vector_set(a, fld) == brute_span(a_rows, fld)
        assert vector_set(b, fld) == brute_span(b_rows, fld)
        met = families.meet(a, b)
        assert met.payload in rref[met.rank]
        assert vector_set(met, fld) == vector_set(a, fld) & vector_set(b, fld)


SUBSPACE_CASES = (
    *((text, None) for text in ("grassmann:v=4,m=2,q=2", "bilinear:m=2,n=2,q=2", "bilinear:m=1,n=1,q=4", "grassmann:v=2,m=1,q=9")),
    *ODD_FIELD_SPECS,
)


@pytest.mark.parametrize("text, per_rank", SUBSPACE_CASES, ids=[text for text, _ in SUBSPACE_CASES])
def test_subspace_operations_against_vector_enumeration(text, per_rank):
    spec = families.parse_family_spec(text)
    fld = gf.field(spec.q)
    universe = sampled_universe(spec, per_rank)
    spans = {}

    def span(x):
        """x's vectors; the first time, x must also parse back from its canonical encoding."""
        if x not in spans:
            assert families.parse_element(spec, str(x)) == x
            spans[x] = vector_set(x, fld)
        return spans[x]

    for x in universe:
        for y in universe:
            vx, vy = span(x), span(y)
            common = vx & vy
            assert span(families.meet(x, y)) == common
            assert families.leq(x, y) == (vx <= vy)
            joined = families.join_bounded(x, y)
            # the sum of two subspaces has |vx| |vy| / |vx & vy| vectors
            if len(vx) * len(vy) > len(common) * spec.q**spec.top_rank:
                assert joined is None
                continue
            if vx <= vy or vy <= vx:
                total = vx | vy
            else:
                total = frozenset(tuple(fld.add(a, b) for a, b in zip(u, w)) for u in vx for w in vy)
            # bilinear: a sum of graphs is a graph iff no nonzero vector has a zero domain part
            if spec.kind == "grassmann" or all(any(v[: spec.m]) for v in total if any(v)):
                assert joined is not None and span(joined) == total
            else:
                assert joined is None


@pytest.mark.parametrize(
    "text, x, y", [("grassmann:v=4,m=2,q=2", "0.0.0.1", "0.0.1.0"), ("bilinear:m=2,n=1,q=3", "E=0.1;f=0", "E=1.0;f=2")]
)
def test_a_join_whose_atoms_are_no_span_raises(monkeypatch, text, x, y):
    # a sumset that drops one vector decodes to an element whose atoms are its
    # span, not the mask; the first decode encodes back and refuses to cache it
    spec = families.parse_family_spec(text)
    sumset = families._Atoms.sumset

    def short(self, a, b):  # the sumset less its highest vector
        total = sumset(self, a, b)
        return total ^ 1 << total.bit_length() - 1

    monkeypatch.setattr(families._Atoms, "sumset", short)
    x, y = families.parse_element(spec, x), families.parse_element(spec, y)
    with pytest.raises(AssertionError, match="are not an element's"):
        families.join_bounded(x, y)
    assert not spec.codec.decoded


def test_oversized_atom_table_is_refused():
    spec = families.parse_family_spec("grassmann:v=64,m=32,q=2")  # parsing stays cheap
    z = families.least(spec)
    with pytest.raises(BudgetExceededError) as info:
        families.meet(z, z)
    assert str(info.value) == f"grassmann:v=64,m=32,q=2 needs {2**64} atoms, above the cap of {2**16}"
    assert info.value.context == {"need": 2**64, "cap": families.ATOM_CAP}
    with pytest.raises(BudgetExceededError):
        families.leq(z, z)
    at_cap = families.parse_family_spec("grassmann:v=16,m=1,q=2")  # 2^16 atoms
    assert families.leq(families.least(at_cap), families.least(at_cap))


def test_a_failed_codec_build_is_not_kept():
    spec = families.parse_family_spec("johnson:v=70000,m=1")  # 70,000 atoms, above ATOM_CAP
    fiber = families.enumerate_fiber(spec, 1)
    assert len(fiber) == 70_000
    for _ in range(3):  # each meet builds the codec again and is refused again
        with pytest.raises(BudgetExceededError):
            families.meet(fiber[0], fiber[1])
    assert "codec" not in vars(spec)


def test_lattice_results_carry_their_arguments_spec():
    one = families.parse_family_spec("grassmann:v=4,m=2,q=2")
    list(families.enumerate_all(one))
    two = families.parse_family_spec("grassmann:v=4,m=2,q=2")
    x, y, z = (families.parse_element(two, text) for text in ("1.0.0.0", "0.1.0.0", "1.0.0.0;0.0.1.0"))
    assert families.join_bounded(x, y).spec is two
    assert families.meet(families.join_bounded(x, y), z).spec is two


# ---------------------------------------------------------------------------
# one codec: an element's mask is `_Atoms.encode` of its payload, however it was built

CODEC_CASES = (*((text, None) for text in GRID_SPECS), *ODD_FIELD_SPECS)


@pytest.mark.parametrize("text, per_rank", CODEC_CASES, ids=[text for text, _ in CODEC_CASES])
def test_every_route_to_an_element_gives_the_codec_mask(text, per_rank):
    spec = families.parse_family_spec(text)
    fresh = families._Atoms(spec).encode  # not the spec's own codec

    def check(x):
        assert x.atoms == fresh(x.payload), str(x)

    universe = sampled_universe(spec, per_rank)  # through enumerate_fiber
    check(families.least(spec))
    for x in universe:
        check(x)
        parsed = families.parse_element(spec, str(x))
        assert parsed == x
        assert "atoms" in vars(parsed) or x.rank == 0  # set as parsed; `-` is `least`
        check(parsed)
        for i in range(x.rank + 1):
            for z in families.below(x, i):
                check(z)
    for x in universe:
        for y in universe:
            check(families.meet(x, y))
            joined = families.join_bounded(x, y)
            if joined is not None:
                check(joined)


@pytest.mark.parametrize("text", (*GRID_SPECS, *(text for text, _ in ODD_FIELD_SPECS)))
def test_parse_and_fiber_take_their_masks_from_the_codec(monkeypatch, text):
    # the audit's fault injections patch `_Atoms.encode`, so the masks set
    # where elements are built must come through it
    spec = families.parse_family_spec(text)
    encode = families._Atoms.encode
    flag = 1 << families.ATOM_CAP  # above every atom
    monkeypatch.setattr(families._Atoms, "encode", lambda self, payload: encode(self, payload) | flag)
    codec = spec.codec
    for i in range(spec.top_rank + 1):
        for x in families.enumerate_fiber(spec, i)[:20]:
            assert x.atoms == encode(codec, x.payload) | flag
            assert families.parse_element(spec, str(x)).atoms == x.atoms


@pytest.mark.parametrize(
    "x, y",
    [
        (("johnson:v=4,m=2", "1 2"), ("johnson:v=6,m=2", "1 2")),
        (("grassmann:v=4,m=2,q=2", "0.0.0.1"), ("grassmann:v=4,m=2,q=3", "0.0.0.1")),
        (("bilinear:m=2,n=1,q=3", "E=1.0;f=2"), ("hamming:m=2,n=3", "1:2")),
    ],
)
def test_every_lattice_operation_refuses_two_families(x, y):
    x, y = (families.parse_element(families.parse_family_spec(spec), text) for spec, text in (x, y))
    for operation in (families.meet, families.meet_rank, families.leq, families.join_bounded):
        with pytest.raises(FamilyMismatchError) as info:
            operation(x, y)
        assert str(info.value) == f"family mismatch: {x.spec} vs {y.spec}"


@pytest.mark.parametrize("text", ["johnson:v=4,m=2", "grassmann:v=4,m=2,q=2", "bilinear:m=2,n=1,q=3", "signed:m=3,k=2"])
def test_equal_specs_keep_their_own_codec_and_fibers(text):
    # each spec object builds its own `_Atoms` and fibers, yet the elements of two equal specs mix
    one, two = families.parse_family_spec(text), families.parse_family_spec(text)
    universe, twins = list(families.enumerate_all(one)), list(families.enumerate_all(two))
    assert one == two and one.codec is not two.codec
    assert all(one.fibers[i] is not two.fibers[i] for i in range(one.top_rank + 1))
    assert twins == universe
    for x, x2 in zip(universe, twins):
        for y, y2 in zip(universe, twins):
            assert families.meet(x, y2) == families.meet(x2, y) == families.meet(x, y)
            assert families.meet_rank(x2, y) == families.meet_rank(x, y)
            assert families.join_bounded(x2, y) == families.join_bounded(x, y2) == families.join_bounded(x, y)
            assert families.leq(x, y2) == families.leq(x2, y) == families.leq(x, y)
            assert (x2 < y, x <= y2, x2 > y, x >= y2) == (x < y, x <= y, x > y, x >= y)


@pytest.mark.parametrize("shape", [(2, 3), (3, 3)])
def test_is_rref_matches_the_first_nonzero_definition(shape):
    def definition(matrix):
        last = -1
        for row in matrix:
            lead = next((c for c, value in enumerate(row) if value), None)
            if lead is None or lead <= last or row[lead] != 1:
                return False
            if sum(1 for other in matrix if other[lead]) != 1:
                return False
            last = lead
        return True

    rows, cols = shape
    accepted = 0
    for flat in product(range(3), repeat=rows * cols):
        matrix = tuple(flat[i * cols : (i + 1) * cols] for i in range(rows))
        verdict = families._is_rref(matrix)
        assert verdict == definition(matrix), matrix
        accepted += verdict
    assert accepted == len(list(gf.enumerate_rref_matrices(cols, rows, gf.field(3))))


# rows whose every token is valid but whose row is not
ROW_LEVEL_MISSES = (
    ("hamming:m=2,n=3", "2:0,1:0"),  # positions out of order
    ("hamming:m=2,n=3", "1:0,1:1"),
    ("injection:m=2,n=3", "1:2,2:2"),  # a repeated injection value
    ("johnson:v=4,m=2", "2 1"),  # members out of order
    ("johnson:v=4,m=2", "1 1"),
    ("grassmann:v=4,m=2,q=2", "0.1.0.0;1.0.0.0"),  # rows not in RREF
    ("grassmann:v=4,m=2,q=2", "1.1.0.0;0.1.0.0"),
    ("grassmann:v=4,m=2,q=2", "1.0.0.0;1.0.0.0"),
    ("bilinear:m=2,n=1,q=2", "E=0.1;1.0;f=0;1"),
    ("bilinear:m=2,n=1,q=2", "E=1.0;f=0;1"),
)


def _verdict(spec, text: str):
    try:
        return families.parse_element(spec, text).payload
    except ParseError as exc:
        return str(exc)


def _file_verdict(path):
    try:
        return designs.load_design(path).size
    except ParseError as exc:
        return str(exc)


def test_kept_tokens_change_no_verdict(tmp_path):
    # each parse first on a spec of its own, with no token kept, then twice in
    # shuffled order on one spec per spec text: the first pass fills its token
    # tables as it goes, the second reads them warm; a design file names its
    # own spec, so each load starts cold
    corpus = list(ROW_LEVEL_MISSES)
    for spec_text in CANONICAL_SPECS:
        canonical = {families.format_element(x) for x in families.enumerate_all(families.parse_family_spec(spec_text))}
        corpus += [(spec_text, text) for text in sorted(canonical.union(*map(_near_misses, canonical)))]
    paths = []
    for k, content in enumerate(MALFORMED):
        paths.append(tmp_path / f"{k}.design")
        paths[-1].write_text(content, encoding="utf-8")
    cold = {(spec_text, text): _verdict(families.parse_family_spec(spec_text), text) for spec_text, text in corpus}
    cold_files = {path: _file_verdict(path) for path in paths}
    assert all(isinstance(v, str) for v in cold_files.values())
    specs = {spec_text: families.parse_family_spec(spec_text) for spec_text, _ in corpus}
    rng = random.Random(0)
    for _ in range(2):
        rng.shuffle(corpus)
        rng.shuffle(paths)
        assert {(spec_text, text): _verdict(specs[spec_text], text) for spec_text, text in corpus} == cold
        assert {path: _file_verdict(path) for path in paths} == cold_files
    assert all(isinstance(cold[item], str) for item in ROW_LEVEL_MISSES)


# ---------------------------------------------------------------------------
# lattice laws, randomized


_POOLS = {
    text: list(families.enumerate_all(families.parse_family_spec(text)))
    for text in (
        "johnson:v=6,m=3",
        "hamming:m=3,n=3",
        "grassmann:v=4,m=2,q=2",
        "bilinear:m=2,n=2,q=2",
        "injection:m=2,n=3",
        "nbjohnson:m=3,n=2,k=2",
        "signed:m=3,k=2",
    )
}


@st.composite
def element_triples(draw):
    pool = _POOLS[draw(st.sampled_from(sorted(_POOLS)))]
    return tuple(draw(st.sampled_from(pool)) for _ in range(3))


@settings(deadline=None, max_examples=150)
@given(element_triples())
def test_meet_laws_random(triple):
    x, y, z = triple
    assert families.meet(x, x) == x
    assert families.meet(x, y) == families.meet(y, x)
    assert families.meet(families.meet(x, y), z) == families.meet(x, families.meet(y, z))


@settings(deadline=None, max_examples=150)
@given(element_triples())
def test_meet_bounds_random(triple):
    x, y, _ = triple
    met = families.meet(x, y)
    assert met.rank <= min(x.rank, y.rank)
    assert families.leq(met, x) and families.leq(met, y)


_FUZZ_SPECS = tuple(
    families.parse_family_spec(text)
    for text in ("johnson:v=6,m=3", "hamming:m=3,n=3", "grassmann:v=4,m=2,q=2", "bilinear:m=2,n=2,q=2")
)


@settings(deadline=None, max_examples=300)
@given(st.text(alphabet="0123456789.;:,= Ef-x", max_size=24))
def test_parser_rejects_garbage_cleanly(text):
    # either a ParseError or an element that reproduces the input exactly
    for spec in _FUZZ_SPECS:
        try:
            element = families.parse_element(spec, text)
        except ParseError:
            continue
        assert families.format_element(element) == text.strip()

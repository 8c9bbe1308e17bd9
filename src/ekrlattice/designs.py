"""Designs in top fibers: strength verification, index arithmetic,
generators, and the design file format.

A design of strength t is a set Y of top-fiber elements covering every
rank-t element the same number lambda_t of times.  Certificates store the
whole index vector lambda_0..lambda_t, each entry derived exactly from
lambda_t via lambda_j = lambda_t * theta(j) / theta(t).

Design files are UTF-8 with LF line endings::

    family hamming:m=3,n=11
    strength 2
    1:0,2:0,3:0
    ...

`#` starts a comment line.  A strength line above the family's top rank is
refused where it is read, in a design file or a family file, before any
coverage pass; the declared strength is re-verified on load.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import product

from . import families, gf as gflib, parameters
from .errors import BudgetExceededError, NonIntegralError, ParseError, VerificationError
from .families import Element, FamilySpec


class DesignCertificate(namedtuple("DesignCertificate", "spec elements strength indices")):
    """A verified design: spec, elements, strength, and exact index vector
    (indices[j] == lambda_j for 0 <= j <= strength).  The elements are kept
    in canonical (payload) order whatever order they came in, so nothing read
    off a certificate depends on a design file's row order.

    `stars`, set by `make_certificate` from its coverage pass, holds for each
    rank-`strength` element, in canonical order, the mask of the members above
    it, bit j for elements[j]; it is None when no coverage pass ran.  It is an
    attribute, not a field, so equality, hashing, `_asdict` and `_replace` see
    values only.  The builders below, whose elements are in canonical order
    already, skip the sort through `_sorted_certificate`.
    """

    stars = None

    def __new__(cls, spec: FamilySpec, elements, strength: int, indices: tuple[int, ...]):
        return super().__new__(cls, spec, tuple(sorted(elements, key=lambda x: x.payload)), strength, indices)

    @classmethod
    def _make(cls, iterable):
        """Build through `__new__`, so `_replace` keeps payload order too."""
        return cls(*iterable)

    @property
    def size(self) -> int:
        return len(self.elements)


def _sorted_certificate(spec: FamilySpec, elements: tuple, strength: int, indices: tuple):
    """A DesignCertificate of elements already in canonical order, not sorted again."""
    return tuple.__new__(DesignCertificate, (spec, elements, strength, indices))


def _validate_top_elements(spec: FamilySpec, elements):
    elements = tuple(elements)
    if not elements:
        raise ParseError("design must be nonempty")
    top = spec.top_rank
    for x in elements:
        if x.spec != spec:
            raise ParseError("design element belongs to a different family")
        if x.rank != top:
            raise ParseError(f"design element {families.format_element(x)} has rank {x.rank}, expected {top}")
    if len(set(elements)) != len(elements):
        raise ParseError("design contains a duplicate element")
    return elements


def _charge_coverage(spec: FamilySpec, t: int, design_size: int) -> None:
    """Refuse a coverage pass of `design_size` members over the rank-t fiber whose
    comparisons exceed `families.DEFAULT_BUDGET`; nothing is built."""
    check_strength(t, spec.top_rank)
    size = families.fiber_size(spec, t)
    if size * design_size > families.DEFAULT_BUDGET:
        raise BudgetExceededError(
            "strength verification", size * design_size, "comparisons", families.DEFAULT_BUDGET,
            fiber_size=size, design_size=design_size,
        )


def _stars(spec: FamilySpec, elements, t: int) -> tuple[int, ...]:
    """The coverage pass, charged first: per rank-t element, in canonical order,
    the mask of the validated design elements above it (`families.above`)."""
    _charge_coverage(spec, t, len(elements))
    return tuple(families.above(spec, t, elements))


def _index(spec: FamilySpec, t: int, stars):
    """(lambda_t, None) when the coverage pass `stars` covers every rank-t
    element equally, else (None, witness) with two (element, count) pairs of
    unequal counts."""
    counts = [mask.bit_count() for mask in stars]
    first = counts[0]
    fiber = families.enumerate_fiber(spec, t)
    for z, c in zip(fiber, counts):
        if c != first:
            return None, ((fiber[0], first), (z, c))
    return first, None


def derive_index(spec: FamilySpec, lam_t: int, t: int, t_prime: int) -> int:
    """lambda_{t'} = lambda_t * theta(t') / theta(t), asserted exact."""
    if not 0 <= t_prime <= t <= spec.top_rank:
        raise ParseError(f"need 0 <= t' <= t <= {spec.top_rank}, got t'={t_prime}, t={t}")
    num = lam_t * parameters.theta(spec, t_prime)
    den = parameters.theta(spec, t)
    if num % den:
        raise NonIntegralError(
            f"lambda_{t_prime} = {lam_t} * theta({t_prime}) / theta({t}) is not an integer for {spec}"
        )
    return num // den


def make_certificate(spec: FamilySpec, elements, t: int) -> DesignCertificate:
    """Verify strength t and package the elements with their index vector and
    the coverage pass's stars.  The elements are put in canonical order first,
    so bit j of a star is the certificate's member j."""
    elements = tuple(sorted(_validate_top_elements(spec, elements), key=lambda x: x.payload))
    stars = _stars(spec, elements, t)
    lam, witness = _index(spec, t, stars)
    if lam is None:
        raise VerificationError(t, witness)
    cert = _sorted_certificate(spec, elements, t, tuple(derive_index(spec, lam, t, j) for j in range(t + 1)))
    cert.stars = stars
    return cert


def check_strength(t: int, top: int) -> None:
    """Refuse a strength t outside 0..top."""
    if not 0 <= t <= top:
        raise ParseError(f"strength {t} out of range 0..{top}")


def restrict_strength(cert: DesignCertificate, t: int) -> DesignCertificate:
    """View a t-design as a design of smaller strength (same elements)."""
    check_strength(t, cert.strength)
    return _sorted_certificate(cert.spec, cert.elements, t, cert.indices[: t + 1])


def full_fiber(spec: FamilySpec, t: int | None = None) -> DesignCertificate:
    """The whole top fiber as a design; lambda_j = theta(j) for every j <= t."""
    top = spec.top_rank
    if t is None:
        t = top
    check_strength(t, top)
    elements = families.enumerate_fiber(spec, top)
    indices = tuple(parameters.theta(spec, j) for j in range(t + 1))
    return _sorted_certificate(spec, elements, t, indices)


def generate_linear_oa(q: int, m: int) -> DesignCertificate:
    """Orthogonal array of strength m-1 and index 1 in hamming(m, n=q).

    Rows are (x_1, ..., x_{m-1}, sum x_i mod q) over all tuples; any m-1
    coordinates determine the remaining one, so each rank-(m-1) element is
    covered exactly once.  The q^(m-1) rows are charged against the coverage
    budget before any is built.
    """
    if gflib.prime_power(q) != (q, 1):
        raise ParseError(f"q must be prime, got {q}")
    if m < 2:
        raise ParseError(f"m must be at least 2, got {m}")
    spec = FamilySpec(kind="hamming", m=m, n=q)
    _charge_coverage(spec, m - 1, q ** (m - 1))
    elements = []
    for tup in product(range(q), repeat=m - 1):
        word = tup + (sum(tup) % q,)
        elements.append(Element(spec, tuple(enumerate(word, start=1))))
    cert = make_certificate(spec, elements, m - 1)
    if cert.indices[m - 1] != 1:
        raise AssertionError("linear orthogonal array must have index 1")
    return cert


# ---------------------------------------------------------------------------
# design files


def save_design(cert: DesignCertificate, path) -> None:
    lines = [f"family {cert.spec}", f"strength {cert.strength}"]
    lines.extend(families.format_element(x) for x in cert.elements)
    with open(path, "w", encoding="utf-8", newline="\n") as file:
        file.write("\n".join(lines) + "\n")


def _read_file(path, *, want_strength: bool, like: FamilySpec | None = None):
    """(spec, declared strength or None, elements) of a design or family file.
    The headers read as `save_design` writes them: one space after `family`
    and after `strength`.  A header naming the family of `like` gives `like`
    itself, so the rows share its codec.  A strength above the top rank is
    refused on its line.  Errors name the file by its role: a design file
    when `want_strength`, else a family file."""
    role = "design file" if want_strength else "family file"
    with open(path, "rb") as file:
        data = file.read()
    try:
        rows = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        line_start = data.rfind(b"\n", 0, exc.start) + 1
        lineno = data.count(b"\n", 0, line_start) + 1
        column = exc.start - line_start + 1
        raise ParseError(
            f"{path}:{lineno}: 'utf-8' codec can't decode byte 0x{data[exc.start]:02x} in column {column}: {exc.reason}"
        ) from exc
    lines = []
    for lineno, line in enumerate(rows, start=1):
        text = line.strip()
        if text and not text.startswith("#"):
            lines.append((lineno, text))
    if not lines:
        raise ParseError(f"{path}: empty {role}")
    lineno, text = lines.pop(0)
    if not text.startswith("family "):
        raise ParseError(f"{path}:{lineno}: expected `family <spec>`")
    text = text[len("family "):]
    if text[0].isspace():
        raise ParseError(f"{path}:{lineno}: expected one space after `family`")
    try:
        spec = families.parse_family_spec(text)
    except ParseError as exc:
        raise ParseError(f"{path}:{lineno}: {exc}") from exc
    if spec == like:
        spec = like
    strength = None
    if lines and lines[0][1].startswith("strength "):
        lineno, text = lines.pop(0)
        text = text[len("strength "):]
        try:
            strength = int(text) if families._numeral(text) else -1
        except ValueError:  # above the interpreter's digit limit
            strength = -1
        if strength < 0:
            raise ParseError(f"{path}:{lineno}: bad strength {text!r}")
        if strength > spec.top_rank:
            raise ParseError(f"{path}:{lineno}: declared strength {strength} out of range 0..{spec.top_rank}")
    elif want_strength and lines:
        raise ParseError(f"{path}:{lines[0][0]}: expected `strength <t>`")
    elif want_strength:
        raise ParseError(f"{path}: missing `strength <t>` line")
    elements = []
    seen = set()  # rows read: the parser takes only canonical text, so equal elements have equal rows
    for lineno, text in lines:
        try:
            element = families.parse_element(spec, text)
        except ValueError as exc:  # a ParseError, or int() on a numeral above the digit limit
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
        if element.rank != spec.top_rank:
            raise ParseError(f"{path}:{lineno}: element is not in the top fiber")
        if text in seen:
            raise ParseError(f"{path}:{lineno}: duplicate element {text!r}")
        seen.add(text)
        elements.append(element)
    if not elements:
        raise ParseError(f"{path}: {role} lists no elements")
    return spec, strength, tuple(elements)


def read_design_file(path):
    """Parse a design file without its coverage pass: (spec, declared strength,
    elements), the strength in 0..top rank."""
    return _read_file(path, want_strength=True)


def read_family_file(path, spec: FamilySpec | None = None):
    """Parse a family file (header plus elements; strength line optional).
    When the header names the family of `spec`, the elements are built on
    that spec object and share its codec."""
    spec, _, elements = _read_file(path, want_strength=False, like=spec)
    return spec, elements


def load_design(path) -> DesignCertificate:
    """Load and re-verify a design file; rejects files whose strength fails."""
    spec, strength, elements = read_design_file(path)
    return make_certificate(spec, elements, strength)

"""Designs: strength checks, index arithmetic, stars, generators, files."""

from __future__ import annotations

import pytest

from conftest import grid, star_members
from ekrlattice import designs, families, parameters
from ekrlattice.errors import (
    BudgetExceededError,
    NonIntegralError,
    ParseError,
    VerificationError,
)


def test_fano_is_a_2_design(fano_spec, fano_elements):
    # derived: count lines over all 21 pairs directly
    pair_counts = {
        pair: sum(1 for line in fano_elements if set(pair) <= set(line.payload))
        for pair in __import__("itertools").combinations(range(1, 8), 2)
    }
    assert set(pair_counts.values()) == {1}
    assert designs.make_certificate(fano_spec, fano_elements, 2).indices[2] == 1


def test_fano_is_not_a_3_design(fano_spec, fano_elements):
    with pytest.raises(VerificationError) as caught:
        designs.make_certificate(fano_spec, fano_elements, 3)
    line, off_line = (families.parse_element(fano_spec, text) for text in ("1 2 3", "1 2 4"))
    assert caught.value.context == {"witness": {"element_1": line, "count_1": 1, "element_2": off_line, "count_2": 0}}
    assert str(caught.value) == "not a 3-design: 1 2 3 is covered 1 times but 1 2 4 is covered 0 times"


def test_replace_keeps_the_certificate_in_payload_order(fano_cert):
    rows = fano_cert.elements
    assert fano_cert._replace(elements=rows[::-1]) == fano_cert
    assert designs.DesignCertificate._make((fano_cert.spec, rows[::-1], 2, fano_cert.indices)).elements == rows


def test_certificates_of_one_design_compare_equal_whichever_builder_made_them(fano_cert):
    # the coverage pass's stars are an attribute, not a field
    assert designs.DesignCertificate._fields == ("spec", "elements", "strength", "indices")
    spec = families.parse_family_spec("johnson:v=5,m=2")
    full = designs.full_fiber(spec)
    verified = designs.make_certificate(spec, full.elements, spec.top_rank)
    assert full == verified and hash(full) == hash(verified)
    assert full.stars is None and len(verified.stars) == full.size
    assert designs.restrict_strength(fano_cert, fano_cert.strength) == fano_cert
    assert fano_cert._asdict() == dict(zip(fano_cert._fields, fano_cert))
    assert fano_cert.stars is not None and fano_cert._replace().stars is None


def test_a_numeral_above_the_digit_limit_is_a_bad_strength(tmp_path, default_digit_limit):
    path = tmp_path / "big.design"
    digits = "9" * 5000
    path.write_text(f"family johnson:v=7,m=3\nstrength {digits}\n1 2 3\n")
    with pytest.raises(ParseError) as exc:
        designs.load_design(path)
    assert str(exc.value) == f"{path}:2: bad strength {digits!r}"


def test_every_certificate_builder_gives_payload_order(fano_spec, fano_elements):
    # make_certificate sorts once; restrict_strength and full_fiber start from sorted members
    rows = tuple(sorted(fano_elements, key=lambda x: x.payload))
    cert = designs.make_certificate(fano_spec, fano_elements[::-1], 2)
    assert cert.elements == rows and fano_elements[::-1] != rows
    assert designs.restrict_strength(cert, 1).elements == rows
    assert designs.restrict_strength(cert, 1)._replace(elements=rows[::-1]).elements == rows
    full = designs.full_fiber(fano_spec, 1)
    assert full.elements == tuple(sorted(full.elements, key=lambda x: x.payload))


def test_full_fiber_certificates():
    js = families.parse_family_spec("johnson:v=5,m=2")
    cert = designs.full_fiber(js)
    assert cert.size == 10
    assert cert.indices[1] == 4
    assert designs.make_certificate(js, cert.elements, 1).indices[1] == 4

    hs = families.parse_family_spec("hamming:m=2,n=5")
    cert = designs.full_fiber(hs)
    assert cert.size == 25
    assert cert.indices[2] == 1

    gs = families.parse_family_spec("grassmann:v=4,m=2,q=2")
    cert = designs.full_fiber(gs)
    assert cert.size == 35
    assert cert.indices[1] == parameters.qbinom(3, 1, 2) == 7


def test_derive_index_examples(fano_spec, fano_cert):
    # cross-check by counting lines through a point
    lines_through_1 = star_members(fano_cert.elements, families.parse_element(fano_spec, "1"))
    assert len(lines_through_1) == 3
    assert designs.derive_index(fano_spec, 1, 2, 1) == 3
    assert designs.derive_index(fano_spec, 1, 2, 2) == 1  # identity at t' == t
    hs = families.parse_family_spec("hamming:m=2,n=5")
    full = designs.full_fiber(hs)
    for t_prime in range(3):
        assert designs.derive_index(hs, full.indices[2], 2, t_prime) == parameters.theta(hs, t_prime)


def test_derive_index_rejects_non_integral(fano_spec):
    # theta(1) = 15, theta(2) = 5: lambda_2 = 2 would force lambda_1 = 6 OK,
    # lambda_2 = 1 at t' = 1 gives 3; a non-divisible case needs doctored input
    with pytest.raises(NonIntegralError):
        designs.derive_index(fano_spec, 1, 1, 0)  # 1 * theta(0)/theta(1) = 35/15


def test_proposition_reverification(fano_spec, fano_cert):
    for t_prime in (1, 0):
        measured = designs.make_certificate(fano_spec, fano_cert.elements, t_prime).indices[t_prime]
        assert measured == designs.derive_index(fano_spec, 1, 2, t_prime)
    assert fano_cert.indices == (7, 3, 1)


def test_proposition_reverification_on_generated_oa():
    cert = designs.generate_linear_oa(3, 3)
    for t_prime in range(cert.strength + 1):
        measured = designs.make_certificate(cert.spec, cert.elements, t_prime).indices[t_prime]
        assert measured == cert.indices[t_prime]


def test_index_integrality_across_grid():
    for spec in grid():
        top = spec.top_rank
        for t in range(top + 1):
            for t_prime in range(t + 1):
                lam = designs.derive_index(spec, parameters.theta(spec, t), t, t_prime)
                assert lam == parameters.theta(spec, t_prime)


def test_star_size_equals_index(fano_spec, fano_cert):
    for s in range(fano_cert.strength + 1):
        for z in families.enumerate_fiber(fano_spec, s):
            members = star_members(fano_cert.elements, z)
            assert len(members) == fano_cert.indices[s]


def test_budget_guards(tmp_path, monkeypatch):
    spec = families.parse_family_spec("hamming:m=3,n=3")
    monkeypatch.setattr(families, "FIBER_CAP", 5)
    with pytest.raises(BudgetExceededError) as err:
        designs.full_fiber(spec)
    assert str(err.value) == "the rank-3 fiber of hamming:m=3,n=3 needs 27 elements, above the cap of 5"
    assert err.value.context == {"need": 27, "cap": 5}
    monkeypatch.undo()
    cert = designs.full_fiber(spec, 2)
    designs.save_design(cert, tmp_path / "h.design")
    monkeypatch.setattr(families, "DEFAULT_BUDGET", 5)  # one constant reaches every coverage pass
    for call in (
        lambda: designs.make_certificate(spec, cert.elements, 2),
        lambda: designs.load_design(tmp_path / "h.design"),
    ):
        with pytest.raises(BudgetExceededError) as err:
            call()
        assert str(err.value) == "strength verification needs 729 comparisons, above the cap of 5"
        assert err.value.context == {"fiber_size": 27, "design_size": 27, "need": 729, "cap": 5}


def test_lambda0_is_the_design_size(fano_spec, fano_cert):
    assert fano_cert.indices[0] == fano_cert.size
    for spec in grid():
        cert = designs.full_fiber(spec)
        assert cert.indices[0] == cert.size


def test_generate_linear_oa():
    cert = designs.generate_linear_oa(3, 3)
    assert cert.size == 9 and cert.strength == 2 and cert.indices[2] == 1
    assert designs.make_certificate(cert.spec, cert.elements, 2).indices[2] == 1

    cert = designs.generate_linear_oa(2, 2)
    assert [families.format_element(x) for x in cert.elements] == ["1:0,2:0", "1:1,2:1"]
    assert cert.strength == 1 and cert.indices[1] == 1

    cert = designs.generate_linear_oa(11, 3)
    assert cert.size == 121 and cert.strength == 2 and cert.indices == (121, 11, 1)
    assert designs.make_certificate(cert.spec, cert.elements, 2).indices[2] == 1

    with pytest.raises(ValueError):
        designs.generate_linear_oa(4, 3)  # q must be prime
    with pytest.raises(ValueError):
        designs.generate_linear_oa(3, 1)


def test_an_oversized_linear_oa_is_refused_before_any_row_is_built(monkeypatch):
    # 1009^2 rows against the 3 * 1009^2 rank-2 elements they would have to cover
    monkeypatch.setattr(designs, "Element", lambda *args: pytest.fail("built a row"))
    with pytest.raises(BudgetExceededError) as err:
        designs.generate_linear_oa(1009, 3)
    assert str(err.value) == "strength verification needs 3109466767683 comparisons, above the cap of 100000000"
    assert err.value.context == {"fiber_size": 3054243, "design_size": 1018081, "need": 3109466767683, "cap": 10**8}


def test_design_validation_errors(fano_spec, fano_elements):
    with pytest.raises(ValueError):
        designs.make_certificate(fano_spec, (), 1)
    with pytest.raises(ValueError):
        designs.make_certificate(fano_spec, fano_elements + fano_elements[:1], 2)
    low_rank = families.parse_element(fano_spec, "1 2")
    with pytest.raises(ValueError):
        designs.make_certificate(fano_spec, fano_elements + (low_rank,), 2)
    with pytest.raises(ValueError):
        designs.make_certificate(fano_spec, fano_elements, 4)


def test_restrict_strength(fano_cert):
    restricted = designs.restrict_strength(fano_cert, 1)
    assert restricted.strength == 1
    assert restricted.indices == (7, 3)
    assert restricted.elements == fano_cert.elements
    with pytest.raises(ValueError):
        designs.restrict_strength(fano_cert, 3)


def test_save_load_round_trip(tmp_path, fano_cert):
    path = tmp_path / "fano.design"
    designs.save_design(fano_cert, path)
    loaded = designs.load_design(path)
    assert loaded == fano_cert
    designs.save_design(loaded, tmp_path / "again.design")
    assert (tmp_path / "again.design").read_bytes() == path.read_bytes()


def test_load_rejects_duplicates(tmp_path):
    path = tmp_path / "dup.design"
    path.write_text("family johnson:v=7,m=3\nstrength 2\n1 2 3\n1 2 3\n")
    with pytest.raises(ParseError):
        designs.load_design(path)


def test_load_rejects_failed_strength(tmp_path, fano_elements):
    path = tmp_path / "t3.design"
    lines = "\n".join(families.format_element(x) for x in fano_elements)
    path.write_text(f"family johnson:v=7,m=3\nstrength 3\n{lines}\n")
    with pytest.raises(VerificationError) as err:
        designs.load_design(path)
    assert set(err.value.context["witness"]) == {"element_1", "count_1", "element_2", "count_2"}


def test_load_accepts_comments_and_blanks(tmp_path, fano_cert):
    path = tmp_path / "fano.design"
    body = "\n".join(families.format_element(x) for x in fano_cert.elements)
    path.write_text(f"# a sample file\nfamily johnson:v=7,m=3\n\nstrength 2\n# lines\n{body}\n")
    assert designs.load_design(path) == fano_cert


# file content -> the error message after the path
MALFORMED = {
    "": ": empty design file",
    "strength 2\n1 2 3\n": ":1: expected `family <spec>`",
    "family johnson:v=7,m=3\n1 2 3\n": ":2: expected `strength <t>`",
    "family johnson:v=7,m=3\n": ": missing `strength <t>` line",
    "family johnson:v=7,m=3\nstrength x\n1 2 3\n": ":2: bad strength 'x'",
    "family johnson:v=7,m=3\nstrength 2\n": ": design file lists no elements",
    "family johnson:v=7,m=3\nstrength 2\n1 2\n": ":3: element is not in the top fiber",
    "family johnson:v=7,m=3\nstrength 9\n1 2 3\n": ":2: declared strength 9 out of range 0..3",
    "family johnson:v=3,m=2\nstrength 1\n1 2\n": ":1: johnson: requires v >= 2m >= 2",
    "# c\n\nfamily johnson:v=7,m=3\n\nstrength 2\n1 2 3\n# c\n1 2 3\n": ":8: duplicate element '1 2 3'",
    "family johnson:v=7,m=3\nstrength 2\n1 2 x\n": ":3: bad ground-set member 'x'",
    # str.isdigit() accepts digits that int() cannot read; the element parser takes ASCII numerals only
    "family johnson:v=7,m=3\nstrength \u00b2\n1 2 3\n": ":2: bad strength '\u00b2'",
    # the strength is a numeral as `str` writes it: ASCII digits, no leading zero
    "family johnson:v=7,m=3\nstrength 02\n1 2 3\n": ":2: bad strength '02'",
    "family johnson:v=7,m=3\nstrength \u0662\n1 2 3\n": ":2: bad strength '\u0662'",
    "family johnson:m=3,v=7\nstrength 2\n1 2 3\n": ":1: johnson: expected parameters v, m, in this order",
    "family johnson:v=7,m=3\nstrength 2\n1 2 \u00b3\n": ":3: bad ground-set member '\u00b3'",
    # the headers read as `save_design` writes them: one space after each keyword
    "family   johnson:v=7,m=3\nstrength 2\n1 2 3\n": ":1: expected one space after `family`",
    "family johnson:v=7,m=3\nstrength    2\n1 2 3\n": ":2: bad strength '   2'",
    # every token valid, the row not: the row-level checks run on every row
    "family johnson:v=7,m=3\nstrength 2\n1 2 3\n3 2 1\n": ":4: members must be strictly increasing",
    "family hamming:m=3,n=3\nstrength 1\n1:0,2:0,3:0\n2:0,1:0,3:0\n": ":4: positions must be strictly increasing",
    "family injection:m=3,n=5\nstrength 1\n1:1,2:2,3:3\n1:1,2:1,3:3\n": ":4: duplicate values in an injective map",
    "family grassmann:v=4,m=2,q=2\nstrength 1\n1.0.0.0;0.1.0.0\n0.1.0.0;1.0.0.0\n": (
        ":4: matrix is not in reduced row echelon form"
    ),
}


@pytest.mark.parametrize("content", list(MALFORMED))
def test_load_rejects_malformed_files(tmp_path, content):
    path = tmp_path / "bad.design"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        designs.load_design(path)
    assert str(exc.value) == f"{path}{MALFORMED[content]}"


def test_a_file_that_is_not_utf8_is_a_parse_error_naming_its_line(tmp_path):
    path = tmp_path / "latin1.design"
    path.write_bytes(b"family johnson:v=5,m=2\nstrength 1\n1 \xff\n")
    message = f"{path}:3: 'utf-8' codec can't decode byte 0xff in column 3: invalid start byte"
    for read in (designs.load_design, designs.read_family_file):
        with pytest.raises(ParseError) as exc:
            read(path)
        assert str(exc.value) == message


@pytest.mark.parametrize(
    "data, where",
    [
        # the column counts bytes from the start of the line, not of the file (byte 38 here)
        (b"family johnson:v=5,m=2\nstrength 1\n1 2\n\xff 3\n", "4: 'utf-8' codec can't decode byte 0xff in column 1"),
        (b"family johnson:v=5,m=2\n\n# \xc3\xa9t\xc3\n", "3: 'utf-8' codec can't decode byte 0xc3 in column 6"),
        (b"\xe2\x82x", "1: 'utf-8' codec can't decode byte 0xe2 in column 1"),
    ],
)
def test_a_decode_error_names_its_line_and_column(tmp_path, data, where):
    path = tmp_path / "bad.design"
    path.write_bytes(data)
    with pytest.raises(ParseError) as exc:
        designs.load_design(path)
    assert str(exc.value).startswith(f"{path}:{where}: ")


def test_family_file_reader(tmp_path):
    path = tmp_path / "family.txt"
    path.write_text("family johnson:v=7,m=3\n1 2 3\n1 4 5\n")
    spec, members = designs.read_family_file(path)
    assert str(spec) == "johnson:v=7,m=3"
    assert len(members) == 2
    # a strength line is tolerated and ignored
    path.write_text("family johnson:v=7,m=3\nstrength 2\n1 2 3\n")
    _, members = designs.read_family_file(path)
    assert len(members) == 1


@pytest.mark.parametrize(
    "content, message",
    [
        ("", ": empty family file"),
        ("# only a comment\n\n", ": empty family file"),
        ("family johnson:v=7,m=3\n", ": family file lists no elements"),
        ("family johnson:v=7,m=3\nstrength 2\n", ": family file lists no elements"),
    ],
)
def test_family_file_errors_name_a_family_file(tmp_path, content, message):
    path = tmp_path / "family.txt"
    path.write_text(content)
    with pytest.raises(ParseError) as exc:
        designs.read_family_file(path)
    assert str(exc.value) == f"{path}{message}"

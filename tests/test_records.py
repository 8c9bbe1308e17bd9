"""The library's record types against the named tuples they replace.

Each record is a `families.Record`, which builds no class source per record;
these tests hold it to `collections.namedtuple`'s observable behaviour, with
the reference built from the record's own fields and defaults.
"""

import collections
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from ekrlattice import designs, ekr, families, search
from ekrlattice.audit import AuditCheck, AuditReport
from ekrlattice.errors import ParseError

ROOT = Path(__file__).resolve().parents[1]

SPEC = families.parse_family_spec("johnson:v=7,m=3")
LINES = tuple(families.parse_element(SPEC, text) for text in ("3 5 6", "1 2 3", "2 4 6"))

# each record with one instance's values, in field order
SAMPLES = (
    (families.FamilySpec, ("johnson", 7, 3, None, None, None)),
    (families.Element, (SPEC, (1, 2, 3))),
    (designs.DesignCertificate, (SPEC, tuple(sorted(LINES)), 0, (3,))),
    (search.SearchResult, (2, LINES[:2], None, False, 5, 3, "proved-optimal")),
    (AuditCheck, ("rank-function", True, 12, None, 0.5)),
    (AuditReport, (SPEC, ())),
    (ekr.ConditionRow, (0, ("cond2",), 1, 2, 3, 4, True)),
    (ekr.RemarkRow, (0, ("cond2",), 1, 2, True)),
    (ekr.ConditionReport, (SPEC, 1, 2, (7, 3, 1), 3, (), False, True, (), True, True, True, True)),
    (ekr.DrReport, (0, 1, None, 4, None)),
    (ekr.ExtremalVerdict, (3, 3, "extremal-star", LINES[0])),
)
IDS = [cls.__name__ for cls, _ in SAMPLES]


def reference(cls):
    """The named tuple with the record's name, fields and defaults."""
    return collections.namedtuple(cls.__name__, cls._fields, defaults=tuple(cls._field_defaults.values()))


@pytest.mark.parametrize(("cls", "values"), SAMPLES, ids=IDS)
def test_a_record_builds_as_its_named_tuple(cls, values):
    ref = reference(cls)
    record = cls(*values)
    assert type(record) is cls and isinstance(record, tuple)
    assert tuple(record) == tuple(ref(*values)) == values
    assert cls(**dict(zip(cls._fields, values))) == record
    assert cls(*values[:1], **dict(zip(cls._fields[1:], values[1:]))) == record
    assert [getattr(record, name) for name in cls._fields] == list(values)
    assert cls.__match_args__ == cls._fields == ref._fields
    assert cls._field_defaults == ref._field_defaults


@pytest.mark.parametrize(("cls", "values"), SAMPLES, ids=IDS)
def test_a_record_refuses_the_arguments_its_named_tuple_refuses(cls, values):
    ref = reference(cls)
    for args, kwargs in (
        (values + (None,), {}),  # one value too many
        ((), {}),  # no value for the first field
        (values, {cls._fields[0]: values[0]}),  # a field given twice
        (values, {"nope": 1}),  # an unknown field
    ):
        with pytest.raises(TypeError):
            ref(*args, **kwargs)
        with pytest.raises(TypeError):
            cls(*args, **kwargs)
    with pytest.raises(ValueError, match="unexpected field names"):
        cls(*values)._replace(nope=1)


@pytest.mark.parametrize(("cls", "values"), SAMPLES, ids=IDS)
def test_make_replace_asdict_and_repr_are_the_named_tuples(cls, values):
    ref = reference(cls)
    record, twin = cls(*values), ref(*values)
    assert cls._make(values) == record and type(cls._make(values)) is cls
    with pytest.raises(TypeError):
        cls._make(values + (None,))
    last = cls._fields[-1]
    replaced = record._replace(**{last: values[-1]})
    assert replaced == twin._replace(**{last: values[-1]}) and type(replaced) is cls
    assert record._asdict() == twin._asdict()
    assert list(record._asdict()) == list(cls._fields)
    assert repr(record) == repr(twin)


@pytest.mark.parametrize(("cls", "values"), SAMPLES, ids=IDS)
def test_a_record_compares_and_hashes_as_its_tuple(cls, values):
    record = cls(*values)
    assert record == values and hash(record) == hash(values)
    assert record == reference(cls)(*values)
    assert len({record, values}) == 1


@pytest.mark.parametrize(("cls", "values"), SAMPLES, ids=IDS)
def test_a_record_pickles_to_an_equal_record(cls, values):
    record = cls(*values)
    back = pickle.loads(pickle.dumps(record))
    assert back == record and type(back) is cls


def test_a_record_matches_by_position_and_keyword():
    match families.Element(SPEC, (1, 2, 3)):
        case families.Element(spec, payload=(1, *rest)):
            assert (spec, rest) == (SPEC, [2, 3])
        case _:
            pytest.fail("no match")
    match ekr.DrReport(0, 1, None, 4, None):
        case ekr.DrReport(r, s, None, bound):
            assert (r, s, bound) == (0, 1, 4)
        case _:
            pytest.fail("no match")


def test_family_spec_defaults_and_validates_through_make_and_replace():
    assert families.FamilySpec("johnson", 7, 3) == SPEC == families.FamilySpec(kind="johnson", v=7, m=3)
    assert SPEC.top_rank == 3 and str(SPEC) == "johnson:v=7,m=3"
    with pytest.raises(ParseError, match="requires v >= 2m"):
        SPEC._replace(v=5)
    with pytest.raises(ParseError, match="requires v >= 2m"):
        families.FamilySpec._make(("johnson", 5, 3, None, None, None))
    with pytest.raises(ParseError, match="unexpected parameter q"):
        families.FamilySpec("johnson", 7, 3, q=2)
    assert SPEC._replace(v=8).top_rank == 3


def test_design_certificate_sorts_through_make_and_replace():
    cert = designs.DesignCertificate(SPEC, LINES, 0, (3,))
    assert cert.elements == tuple(sorted(LINES)) != LINES
    assert designs.DesignCertificate._make((SPEC, LINES, 0, (3,))) == cert
    assert cert._replace(elements=LINES[::-1]).elements == cert.elements
    assert cert.size == 3 and cert.stars is None


def test_a_pickled_element_keeps_its_atoms():
    for text in ("johnson:v=7,m=3", "grassmann:v=4,m=2,q=2"):
        spec = families.parse_family_spec(text)
        x = families.enumerate_fiber(spec, 2)[1]
        mask = x.atoms
        back = pickle.loads(pickle.dumps(x))
        assert back == x and vars(back) == {"atoms": mask}
        assert back.spec is not spec and back.spec.top_rank == spec.top_rank


def test_field_getters_are_read_in_c_and_refuse_assignment():
    getter = type(vars(families.Element)["spec"])
    assert getter is type(vars(collections.namedtuple("Pair", "a b"))["a"])
    assert all(type(vars(cls)[name]) is getter for cls, _ in SAMPLES for name in cls._fields)
    x = families.Element(SPEC, (1, 2, 3))
    with pytest.raises(AttributeError):
        x.spec = SPEC


def test_importing_the_library_calls_no_namedtuple():
    # a fresh interpreter counts the calls that library modules make while
    # every library module is imported
    modules = sorted(path.stem for path in (ROOT / "src" / "ekrlattice").glob("*.py") if path.stem != "__init__")
    code = "\n".join(
        (
            "import collections, sys",
            "real, calls = collections.namedtuple, []",
            "def counted(*args, **kwargs):",
            "    calls.append(sys._getframe(1).f_globals.get('__name__'))",
            "    return real(*args, **kwargs)",
            "collections.namedtuple = counted",
            *(f"import ekrlattice.{name}" for name in modules),
            "print(sorted(name for name in calls if name.startswith('ekrlattice')))",
        )
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT / "src", capture_output=True, text=True, check=True, timeout=60
    )
    assert len(modules) == 9
    assert proc.stdout == "[]\n"

"""Audit behaviour: grid instances pass, failures carry witnesses, budgets bite."""

from __future__ import annotations

import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from conftest import grid
from ekrlattice import families, parameters
from ekrlattice.audit import CHECK_IDS, _down_closed, _order, audit
from ekrlattice.errors import BudgetExceededError, NonIntegralError


@pytest.mark.parametrize("spec", grid(), ids=str)
def test_grid_audits_pass(spec):
    report = audit(spec)
    assert report.passed, [c for c in report.checks if not c.passed]
    assert [c.check_id for c in report.checks] == list(CHECK_IDS)
    for check in report.checks:
        assert check.cases > 0
        assert check.counterexample is None


def test_audit_examples():
    for text in ("johnson:v=5,m=2", "hamming:m=2,n=3", "grassmann:v=4,m=2,q=2"):
        assert audit(families.parse_family_spec(text)).passed


def test_audit_prime_power_fields():
    # exercises the log/antilog table arithmetic end to end
    for text in ("bilinear:m=1,n=1,q=4", "grassmann:v=2,m=1,q=9", "bilinear:m=2,n=1,q=3"):
        assert audit(families.parse_family_spec(text)).passed


def test_audit_is_deterministic():
    spec = families.parse_family_spec("hamming:m=2,n=3")
    a = audit(spec)
    b = audit(spec)
    strip = lambda rep: [(c.check_id, c.passed, c.cases, c.counterexample) for c in rep.checks]
    assert strip(a) == strip(b)


@pytest.mark.parametrize(
    "text, cases",
    [
        ("johnson:v=6,m=3", [903, 191, 400, 138, 42, 72, 903]),
        ("grassmann:v=4,m=2,q=2", [1326, 155, 350, 136, 51, 68, 1326]),
        ("hamming:m=3,n=3", [2080, 279, 540, 208, 64, 112, 2080]),
        ("bilinear:m=2,n=2,q=2", [435, 76, 160, 73, 29, 43, 435]),
        ("injection:m=3,n=5", [9316, 615, 1200, 451, 136, 229, 9316]),
        ("nbjohnson:m=4,n=3,k=2", [2278, 174, 432, 187, 67, 81, 2278]),
        ("signed:m=4,k=2", [2278, 174, 432, 187, 67, 81, 2278]),
    ],
)
def test_cases_per_check(text, cases):
    report = audit(families.parse_family_spec(text))
    assert [c.cases for c in report.checks] == cases


@pytest.mark.parametrize("budget", [10, 10**2, 10**3, 10**4, 10**5, 10**6])
def test_a_refusal_reports_the_whole_audit(budget):
    # n = 42 for the fibers, +42^2 for the meet table, +42 per case of the passing audit
    spec = families.parse_family_spec("johnson:v=6,m=3")
    if budget >= 113_064:
        assert audit(spec, budget=budget).passed
        return
    with pytest.raises(BudgetExceededError) as err:
        audit(spec, budget=budget)
    assert str(err.value) == f"the audit needs 113064 comparisons, above the cap of {budget}"
    assert err.value.context == {"fiber_sizes": [1, 6, 15, 20], "need": 113_064, "cap": budget}


AUDIT_REFUSALS = {  # refused at the default budget, with every fiber size
    "signed:m=5,k=3": ([1, 20, 160, 640], 573_378_190),
    "injection:m=4,n=5": ([1, 20, 120, 240, 120], 132_830_631),
    "johnson:v=12,m=4": ([1, 12, 66, 220, 495], 532_391_292),
    "hamming:m=5,n=3": ([1, 15, 90, 270, 405, 243], 1_128_259_584),
    "johnson:v=11,m=5": ([1, 11, 55, 165, 330, 462], 1_158_311_936),
    "grassmann:v=6,m=3,q=2": ([1, 63, 651, 1395], 9_597_067_030),
}


@pytest.mark.parametrize("text", list(AUDIT_REFUSALS))
def test_oversized_audits_are_refused_before_any_fiber_is_built(monkeypatch, text):
    def no_fibers(spec, i):
        raise AssertionError(f"built the rank-{i} fiber of {spec} for an audit the budget cannot finish")

    monkeypatch.setattr(families, "_fiber", no_fibers)
    fiber_sizes, need = AUDIT_REFUSALS[text]
    with pytest.raises(BudgetExceededError) as err:
        audit(families.parse_family_spec(text))
    assert err.value.context == {"fiber_sizes": fiber_sizes, "need": need, "cap": families.DEFAULT_BUDGET}


@pytest.mark.parametrize(
    "name, args, check_id, note",
    [
        ("mu", (0, 1), "mu-constant", "mu(0,1) counted 2, closed form 3"),
        ("nu", (0, 1), "nu-constant", "nu(0,1) counted 1, closed form 2"),
        ("theta", (1,), "theta-constant", "theta(1) counted 4, closed form 5"),
        ("alpha", (0, 1), "alpha-lemma", "alpha(0,1) counted 5, closed form 6"),
    ],
    ids=["mu", "nu", "theta", "alpha"],
)
def test_wrong_closed_form_is_caught_with_counterexample(monkeypatch, name, args, check_id, note):
    spec = families.parse_family_spec("johnson:v=5,m=2")
    real = getattr(parameters, name)
    monkeypatch.setattr(parameters, name, lambda spec, *a: real(spec, *a) + (a == args))
    report = audit(spec)
    failed = {c.check_id: c for c in report.checks if not c.passed}
    assert check_id in failed
    assert failed[check_id].counterexample["note"] == note


def test_closed_forms_are_evaluated_once_per_argument_tuple(monkeypatch):
    # 400 mu-constant cases on johnson:v=6,m=3; the parent evaluated mu 472 times
    calls = {}
    for name in ("mu", "nu", "theta", "alpha"):
        real = getattr(parameters, name)
        monkeypatch.setattr(
            parameters, name, lambda spec, *a, name=name, real=real: calls.update({name: calls.get(name, 0) + 1}) or real(spec, *a)
        )
    assert audit(families.parse_family_spec("johnson:v=6,m=3")).passed
    assert calls == {"mu": 20, "nu": 10, "theta": 24, "alpha": 10}


def test_a_non_integral_closed_form_is_the_note(monkeypatch):
    spec = families.parse_family_spec("johnson:v=5,m=2")
    real = parameters.mu

    def mu(spec, *a):
        if a == (1, 2):
            raise NonIntegralError("mu(1,2) is not an integer")
        return real(spec, *a)

    monkeypatch.setattr(parameters, "mu", mu)
    failed = [(c.check_id, c.cases, c.counterexample) for c in audit(spec).checks if not c.passed]
    assert failed == [  # alpha reads mu
        ("mu-constant", 5, {"elements": ["1", "1 2"], "note": "mu(1,2) is not an integer"}),
        ("alpha-lemma", 5, {"elements": ["1"], "note": "mu(1,2) is not an integer"}),
    ]


def test_non_canonical_meet_names_the_first_pair(monkeypatch):
    # atoms {1} and {2}: two bad meets, so the first one must be named
    _first_bad_meet_is_named(monkeypatch, "johnson:v=5,m=2", {"1": "2", "2": "3"}, ["1", "1 2"])


@pytest.mark.parametrize(
    "text, wrong, witnesses",
    [
        ("hamming:m=3,n=3", {"1:0,3:2": "1:0,3:1", "2:1": "2:2"}, ["2:1", "1:0,2:1"]),
        ("injection:m=3,n=5", {"1:2,3:4": "1:2,3:5", "2:1": "2:2"}, ["2:1", "1:2,2:1"]),
    ],
)
def test_non_canonical_meet_names_the_first_pair_of_a_map_kind(monkeypatch, text, wrong, witnesses):
    _first_bad_meet_is_named(monkeypatch, text, wrong, witnesses)


def _first_bad_meet_is_named(monkeypatch, text, wrong, witnesses):
    """`wrong` maps an element to what the decode of its atoms reads instead:
    two bad meets, so the first one in row order must be named."""
    spec = families.parse_family_spec(text)
    wrong = {families.parse_element(spec, a).atoms: families.parse_element(spec, b).payload for a, b in wrong.items()}
    decode = families._Atoms._decode
    monkeypatch.setattr(
        families._Atoms, "_decode", lambda self, mask: wrong[mask] if self.spec == spec and mask in wrong else decode(self, mask)
    )
    checks = {c.check_id: c for c in audit(spec).checks}
    assert checks["semilattice-glb"].counterexample == {"elements": witnesses, "note": "meet is not canonical"}
    for check_id in ("mu-constant", "nu-constant", "theta-constant", "alpha-lemma"):
        assert checks[check_id].passed


def test_a_bad_meet_of_down_closed_masks_is_named_at_its_first_pair_in_row_order(monkeypatch):
    # "4" and "1 2 3" swap atom masks: the masks stay down-closed, but "4" now holds elements listed after it,
    # so the first pair of a bad meet is not the first element above it, and the row scan names it
    spec = families.parse_family_spec("johnson:v=6,m=3")
    encode = families._Atoms.encode
    swap = {(4,): encode(spec.codec, (1, 2, 3)), (1, 2, 3): encode(spec.codec, (4,))}
    monkeypatch.setattr(
        families._Atoms, "encode", lambda self, payload: swap[payload] if self.spec == spec and payload in swap else encode(self, payload)
    )
    masks = [e.atoms for e in families.enumerate_all(spec)]
    assert _down_closed(masks, {mask: i for i, mask in enumerate(masks)})
    glb = audit(spec).checks[0]
    assert glb.counterexample == {"elements": ["1 4", "2 4"], "note": "meet is not canonical"}


@pytest.mark.parametrize("spec", grid(), ids=str)
def test_down_closure_changes_no_report(monkeypatch, spec):
    # the row scan of every pair gives the same report, `elapsed` aside
    strip = lambda report: [(c.check_id, c.passed, c.cases, c.counterexample) for c in report.checks]
    fast = strip(audit(spec))
    calls = []
    monkeypatch.setattr(sys.modules["ekrlattice.audit"], "_down_closed", lambda masks, at: calls.append(1) or False)
    assert strip(audit(spec)) == fast
    assert calls == [1]


@pytest.mark.parametrize("spec", grid(), ids=str)
def test_set_and_map_kinds_are_down_closed(spec):
    # a subspace's atoms are its nonzero vectors: dropping one leaves no subspace from rank 2 on (rank 1 at q > 2)
    masks = [e.atoms for e in families.enumerate_all(spec)]
    assert _down_closed(masks, {mask: i for i, mask in enumerate(masks)}) == (spec.q is None)


@pytest.mark.parametrize(
    "text, element, rank, cases, witnesses, note",
    [
        ("johnson:v=5,m=2", "1 2", 1, 18, ["1", "2", "1 2"], "least upper bound must have rank 2"),
        ("hamming:m=3,n=3", "1:0,2:1", 3, 69, ["1:0", "2:1", "1:0,2:1"], "least upper bound must have rank 2"),
        ("johnson:v=5,m=2", "3", 2, 19, ["1", "3", "1 3"], "least upper bound must have rank 3"),
    ],
)
def test_a_rank_off_its_popcount_fails_the_join_at_its_first_pair(monkeypatch, text, element, rank, cases, witnesses, note):
    # the join check no longer reads a pair's rank off its union's popcount, and names the first pair that fails
    spec = families.parse_family_spec(text)
    payload = families.parse_element(spec, element).payload
    real = families.Element.rank.fget
    monkeypatch.setattr(families.Element, "rank", property(lambda self: rank if self.payload == payload else real(self)))
    join = audit(spec).checks[-1]
    assert (join.check_id, join.cases) == ("join-rank", cases)
    assert join.counterexample == {"elements": witnesses, "note": note}


def test_shared_atom_mask_is_a_counterexample(monkeypatch):
    spec = families.parse_family_spec("johnson:v=5,m=2")
    encode = families._Atoms.encode
    monkeypatch.setattr(
        families._Atoms, "encode", lambda self, payload: 1 if self.spec == spec and payload == (2,) else encode(self, payload)
    )
    glb = audit(spec).checks[0]
    assert glb.counterexample == {"elements": ["1", "2"], "note": "elements share one atom mask"}


def test_missing_meet_fails_every_check(monkeypatch):
    spec = families.parse_family_spec("johnson:v=5,m=2")
    encode = families._Atoms.encode
    wrong = {(1, 2): 0b111, (1, 3): 0b1101}  # their common atoms 0b101 are no element's mask
    monkeypatch.setattr(
        families._Atoms, "encode", lambda self, payload: wrong[payload] if self.spec == spec and payload in wrong else encode(self, payload)
    )
    report = [(c.check_id, c.cases, c.counterexample) for c in audit(spec).checks]
    assert report == [
        ("semilattice-glb", 1, {"elements": ["1 2", "1 3"], "note": "meet is not canonical"}),
        ("rank-function", 10, {"elements": ["2 3", "1 2"], "note": "covering step changes rank by 0"}),
        ("mu-constant", 2, {"elements": ["-", "1 2"], "note": "mu(0,1) counted 3, closed form 2"}),
        ("nu-constant", 13, {"elements": ["1 2"], "note": "nu(1,2) counted 3, closed form 2"}),
        ("theta-constant", 4, {"elements": ["3"], "note": "theta(1) counted 5, closed form 4"}),
        ("alpha-lemma", 9, {"elements": ["3"], "note": "alpha(1,2) counted 5, closed form 4"}),
        ("join-rank", 7, {"elements": ["-", "1 2"], "note": "upper bounds exist but join_bounded returned none"}),
    ]


@pytest.mark.parametrize(
    "payload, mask, report",
    [
        ((2,), 0b1, [  # "2" has the atoms of "1", so it is the meet of no pair and lies below nothing
            ("semilattice-glb", 1, {"elements": ["1", "2"], "note": "elements share one atom mask"}),
            ("rank-function", 3, {"elements": ["1", "2"], "note": "covering step changes rank by 0"}),
            ("mu-constant", 2, {"elements": ["-", "1 2"], "note": "mu(0,1) counted 1, closed form 2"}),
            ("nu-constant", 13, {"elements": ["1 2"], "note": "nu(1,2) counted 1, closed form 2"}),
            ("theta-constant", 3, {"elements": ["2"], "note": "theta(1) counted 0, closed form 4"}),
            ("alpha-lemma", 4, {"elements": ["1"], "note": "alpha(1,1) counted 2, closed form 1"}),
            ("join-rank", 3, {"elements": ["-", "2"], "note": "join_bounded returned an element but no upper bound exists"}),
        ]),
        ((), 1 << 5, [  # the bottom shares no atom with any element, so no pair with it has a meet
            ("semilattice-glb", 1, {"elements": ["-", "1"], "note": "meet is not canonical"}),
            ("rank-function", 35, None),
            ("mu-constant", 80, None),
            ("nu-constant", 41, None),
            ("theta-constant", 16, None),
            ("alpha-lemma", 23, None),
            ("join-rank", 1, {"elements": ["-", "-"], "note": "join_bounded returned an element outside the lattice"}),
        ]),
    ],
)
def test_order_reads_a_missing_or_shared_meet_as_the_meet_table_did(monkeypatch, payload, mask, report):
    # z <= i when z is the meet of z and i: the first element with their common atoms, else element 0
    spec = families.parse_family_spec("johnson:v=5,m=2")
    encode = families._Atoms.encode
    monkeypatch.setattr(
        families._Atoms, "encode", lambda self, p: mask if self.spec == spec and p == payload else encode(self, p)
    )
    assert [(c.check_id, c.cases, c.counterexample) for c in audit(spec).checks] == report


@pytest.mark.parametrize(
    "fault, answer, witnesses, note, cases",
    [
        ("1 2", None, ["-", "1 2"], "upper bounds exist but join_bounded returned none", 7),
        (("-", "1"), (1, 2), ["-", "1", "1 2"], "least upper bound must have rank 1", 2),
        (("1 2", "3 4"), (1, 2), ["1 2", "3 4"], "join_bounded returned an element but no upper bound exists", 89),
        ("1 2", (2, 1), ["-", "1 2"], "join_bounded returned an element outside the lattice", 7),
        ("1 2", (1, 2, 3), ["-", "1 2"], "join_bounded returned an element outside the lattice", 7),
    ],
    ids=["none-on-a-bounded-pair", "not-least", "element-on-an-unbounded-pair", "outside-the-lattice", "above-the-top"],
)
def test_wrong_join_is_caught_with_counterexample(monkeypatch, fault, answer, witnesses, note, cases):
    # fault: the element whose atoms are the faulty union, or one (x, y) pair
    spec = families.parse_family_spec("johnson:v=5,m=2")
    real = families.join_bounded
    union = families.parse_element(spec, fault).atoms if isinstance(fault, str) else None

    def join_bounded(x, y):
        hit = x.atoms | y.atoms == union if union is not None else (str(x), str(y)) == fault
        if not hit:
            return real(x, y)
        return None if answer is None else families.Element(spec, answer)

    monkeypatch.setattr(families, "join_bounded", join_bounded)
    report = audit(spec)
    assert [c.check_id for c in report.checks if not c.passed] == ["join-rank"]
    assert report.checks[-1].counterexample == {"elements": witnesses, "note": note}
    assert report.checks[-1].cases == cases


@pytest.mark.parametrize(
    "text, witnesses, cases",
    [
        ("grassmann:v=4,m=2,q=2", ["0.0.0.1", "0.0.1.0", "0.0.0.1"], 53),
        ("bilinear:m=2,n=1,q=3", ["E=0.1;f=0", "E=1.0;f=0", "E=0.1;f=0"], 26),
    ],
)
def test_wrong_subspace_join_is_caught_with_counterexample(monkeypatch, text, witnesses, cases):
    # the fault: x for every pair whose join is neither x nor y
    real = families.join_bounded

    def join_bounded(x, y):
        joined = real(x, y)
        return x if joined not in (None, x, y) else joined

    monkeypatch.setattr(families, "join_bounded", join_bounded)
    report = audit(families.parse_family_spec(text))
    assert [c.check_id for c in report.checks if not c.passed] == ["join-rank"]
    assert report.checks[-1].counterexample == {"elements": witnesses, "note": "least upper bound must have rank 2"}
    assert report.checks[-1].cases == cases


def _element_without_upper_bound(real, x, y):
    joined = real(x, y)
    return x if joined is None else joined


def _none_for_two_points(real, x, y):
    return None if x.rank == y.rank == 1 and x != y else real(x, y)


def _outside_the_lattice(real, x, y):
    joined = real(x, y)
    return families.Element(x.spec, ("outside",)) if joined not in (None, x, y) else joined


NO_BOUND = "join_bounded returned an element but no upper bound exists"
NO_ANSWER = "upper bounds exist but join_bounded returned none"
OUTSIDE = "join_bounded returned an element outside the lattice"


@pytest.mark.parametrize(
    "text, fault, witnesses, note, cases",
    [
        ("grassmann:v=4,m=2,q=2", _element_without_upper_bound, ["0.0.0.1", "0.1.0.0;0.0.1.0"], NO_BOUND, 69),
        ("grassmann:v=4,m=2,q=2", _none_for_two_points, ["0.0.0.1", "0.0.1.0"], NO_ANSWER, 53),
        ("grassmann:v=4,m=2,q=2", _outside_the_lattice, ["0.0.0.1", "0.0.1.0"], OUTSIDE, 53),
        ("bilinear:m=2,n=1,q=3", _element_without_upper_bound, ["E=0.1;f=0", "E=0.1;f=1"], NO_BOUND, 24),
        ("bilinear:m=2,n=1,q=3", _none_for_two_points, ["E=0.1;f=0", "E=1.0;f=0"], NO_ANSWER, 26),
        ("bilinear:m=2,n=1,q=3", _outside_the_lattice, ["E=0.1;f=0", "E=1.0;f=0"], OUTSIDE, 26),
    ],
)
def test_row_wise_join_check_catches_subspace_faults(monkeypatch, text, fault, witnesses, note, cases):
    # the pairs a row skips have no upper bound and no answer; each fault gives one of them an answer,
    # or takes the answer from a pair with upper bounds
    spec = families.parse_family_spec(text)
    passing = [c.cases for c in audit(spec).checks]
    real = families.join_bounded
    monkeypatch.setattr(families, "join_bounded", lambda x, y: fault(real, x, y))
    report = audit(spec)
    assert [c.check_id for c in report.checks if not c.passed] == ["join-rank"]
    assert report.checks[-1].counterexample == {"elements": witnesses, "note": note}
    assert [c.cases for c in report.checks] == passing[:-1] + [cases]


@pytest.mark.parametrize("text", ["grassmann:v=4,m=2,q=2", "bilinear:m=2,n=1,q=3"])
def test_subspace_join_check_calls_every_pair_in_row_order(monkeypatch, text):
    spec = families.parse_family_spec(text)
    els = list(families.enumerate_all(spec))
    real = families.join_bounded
    made = []
    monkeypatch.setattr(families, "join_bounded", lambda x, y: made.append((x, y)) or real(x, y))
    assert audit(spec).passed
    assert made == [(x, y) for i, x in enumerate(els) for y in els[i:]]


@pytest.mark.parametrize("spec", [s for s in grid() if s.q is None], ids=str)
def test_join_bounded_reads_only_the_atom_union(spec):
    # the audit calls join_bounded once per atom union of these kinds
    universe = list(families.enumerate_all(spec))
    answers = {}
    for x in universe:
        for y in universe:
            answer = families.join_bounded(x, y)
            assert answers.setdefault(x.atoms | y.atoms, answer) == answer, (x, y)


@pytest.mark.parametrize(
    "text, calls", [("johnson:v=5,m=2", 31), ("johnson:v=6,m=3", 64), ("grassmann:v=4,m=2,q=2", 1326)]
)
def test_join_bounded_calls_per_audit(monkeypatch, text, calls):
    # one call per atom union for set and map kinds, one per pair i <= j for subspace kinds
    real = families.join_bounded
    made = []
    monkeypatch.setattr(families, "join_bounded", lambda x, y: made.append(1) or real(x, y))
    assert audit(families.parse_family_spec(text)).passed
    assert len(made) == calls


@pytest.mark.parametrize(
    "text, calls",
    [("johnson:v=5,m=2", 6), ("johnson:v=6,m=3", 22), ("grassmann:v=4,m=2,q=2", 16), ("hamming:m=3,n=3", 37)],
)
def test_meet_decoded_once_per_distinct_meet(monkeypatch, text, calls):
    # a meet depends only on the common atoms: one decode per distinct common-atom mask
    real = families.meet
    made = []
    monkeypatch.setattr(families, "meet", lambda x, y: made.append(x.atoms & y.atoms) or real(x, y))
    assert audit(families.parse_family_spec(text)).passed
    assert len(made) == len(set(made)) == calls


@pytest.mark.parametrize("spec", grid(), ids=str)
def test_holder_mask_order_is_leq(spec):
    els = list(families.enumerate_all(spec))
    masks = [e.atoms for e in els]
    below, above = _order(masks, {mask: i for i, mask in enumerate(masks)})
    for i, x in enumerate(els):
        for z, y in enumerate(els):
            assert (below[i] >> z & 1, above[z] >> i & 1) == (families.leq(y, x),) * 2, (y, x)


def test_audit_holds_nothing_per_pair():
    # n = 1,024: a list of n lists of n entries alone would be about 8 MiB
    spec = families.parse_family_spec("johnson:v=11,m=5")
    for e in families.enumerate_all(spec):
        e.atoms  # the fibers and their atoms are built before tracing starts
    tracemalloc.start()
    try:
        assert audit(spec, budget=10**10).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak


def test_dropped_specs_leave_no_codec_or_element_alive():
    # a spec owns its codec and fibers, so once the specs are gone nothing of theirs is
    code = (
        "import gc; from ekrlattice import families; from ekrlattice.audit import audit\n"
        "passed = [audit(families.parse_family_spec(f'johnson:v={v},m=2')).passed for v in range(4, 26)]\n"
        "gc.collect()\n"
        "alive = [type(o) for o in gc.get_objects()]\n"
        "print(passed.count(True), alive.count(families._Atoms), alive.count(families.Element))"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True, text=True, check=True, timeout=60)
    assert proc.stdout.split() == ["22", "0", "0"]


@pytest.mark.parametrize(
    "text, needed",
    [
        ("johnson:v=6,m=3", 113_064),
        ("johnson:v=7,m=3", 359_936),
        ("grassmann:v=4,m=2,q=2", 176_664),
        ("hamming:m=3,n=3", 347_392),
        ("bilinear:m=2,n=2,q=2", 37_149),
        ("injection:m=3,n=5", 2_910_400),
        ("nbjohnson:m=4,n=3,k=2", 372_855),
        ("signed:m=4,k=2", 372_855),
        ("grassmann:v=4,m=2,q=3", 5_589_819),
    ],
)
def test_budget_is_exact(text, needed):
    # n for the fibers, n^2 for the meet table, n per case; runs at its need, refused with that need below it
    spec = families.parse_family_spec(text)
    report = audit(spec, budget=needed)
    n = sum(families.fiber_size(spec, i) for i in range(spec.top_rank + 1))
    assert report.passed and needed == n + n * n + n * sum(c.cases for c in report.checks)
    with pytest.raises(BudgetExceededError) as err:
        audit(spec, budget=needed - 1)
    assert err.value.context["need"] == needed

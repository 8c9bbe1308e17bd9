"""Audit behaviour: grid instances pass, failures carry witnesses, budgets bite."""

from __future__ import annotations

import pytest

from conftest import grid
from ekrlattice import families, parameters
from ekrlattice.audit import CHECK_IDS, audit
from ekrlattice.errors import BudgetExceededError


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
    ],
)
def test_cases_per_check(text, cases):
    report = audit(families.parse_family_spec(text))
    assert [c.cases for c in report.checks] == cases


@pytest.mark.parametrize(
    "budget, check",
    [(10, "setup"), (10**2, "setup"), (10**3, "setup"), (10**4, "semilattice-glb"), (10**5, "join-rank"), (10**6, None)],
)
def test_budget_exceeded_names_the_check(budget, check):
    spec = families.parse_family_spec("johnson:v=6,m=3")
    if check is None:
        assert audit(spec, budget=budget).passed
        return
    with pytest.raises(BudgetExceededError) as err:
        audit(spec, budget=budget)
    assert str(err.value) == f"case budget {budget} exceeded during check {check!r}"
    assert err.value.context["check"] == check
    assert err.value.context["fiber_sizes"]


def test_glb_budget_is_refused_before_the_meet_table(monkeypatch):
    def no_meets(x, y):
        raise AssertionError("meet table built for an audit the budget cannot finish")

    monkeypatch.setattr(families, "meet", no_meets)
    with pytest.raises(BudgetExceededError) as err:
        audit(families.parse_family_spec("signed:m=5,k=3"))
    assert err.value.context == {"check": "semilattice-glb", "fiber_sizes": [1, 20, 160, 640]}


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

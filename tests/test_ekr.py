"""Hypothesis evaluation, the d_r statistic, and extremal verification."""

from __future__ import annotations

import itertools
import random

import pytest

from conftest import GRID_SPECS, ODD_FIELD_SPECS, star_members
from ekrlattice import designs, ekr, families, parameters
from ekrlattice.errors import BudgetExceededError
from ekrlattice.designs import full_fiber, generate_linear_oa, restrict_strength


def test_min_meet_rank(fano_spec, fano_elements):
    assert ekr.min_meet_rank(fano_spec, fano_elements) == 1
    hs = families.parse_family_spec("hamming:m=2,n=2")
    pair = (families.parse_element(hs, "1:0,2:0"), families.parse_element(hs, "1:1,2:1"))
    assert ekr.min_meet_rank(hs, pair) == 0
    assert ekr.min_meet_rank(fano_spec, fano_elements[:1]) == 3


@pytest.mark.parametrize("text", GRID_SPECS + tuple(text for text, _ in ODD_FIELD_SPECS))
def test_min_meet_rank_is_the_least_pairwise_meet_rank(text, monkeypatch):
    # a star (no early stop), a random sample and a singleton, against every pair's meet
    spec = families.parse_family_spec(text)
    top = families.enumerate_fiber(spec, spec.top_rank)
    star = star_members(top, families.enumerate_fiber(spec, 1)[0])
    masks, meet = [], families.meet
    monkeypatch.setattr(families, "meet", lambda x, y: masks.append(x.atoms & y.atoms) or meet(x, y))
    for family in (star, random.Random(text).sample(top, min(8, len(top))), top[:1]):
        pairwise = min((meet(x, y).rank for x, y in itertools.combinations(family, 2)), default=spec.top_rank)
        masks.clear()
        assert ekr.min_meet_rank(spec, family) == pairwise
        assert len(masks) == len(set(masks))  # one meet per distinct common-atom mask


def test_min_meet_rank_meets_once_per_common_atom_mask(monkeypatch):
    # the star of johnson:v=10,m=4 through 1: its 3,486 pairs share 1 and at
    # most two of the other nine points, so 1 + 9 + 36 distinct meets
    spec = families.parse_family_spec("johnson:v=10,m=4")
    star = star_members(families.enumerate_fiber(spec, 4), families.parse_element(spec, "1"))
    calls, meet = [], families.meet
    monkeypatch.setattr(families, "meet", lambda x, y: calls.append(1) or meet(x, y))
    assert (len(star), ekr.min_meet_rank(spec, star), len(calls)) == (84, 1, 46)


def test_is_intersecting(fano_spec, fano_elements):
    assert ekr.is_intersecting(fano_spec, fano_elements, 1)
    assert not ekr.is_intersecting(fano_spec, fano_elements, 2)
    z = families.parse_element(fano_spec, "1")
    assert ekr.is_intersecting(fano_spec, star_members(fano_elements, z), 1)
    with pytest.raises(ValueError):
        ekr.is_intersecting(fano_spec, fano_elements, 0)
    with pytest.raises(ValueError):
        ekr.is_intersecting(fano_spec, fano_elements, 3)


def test_conditions_hamming_m2_n5():
    cert = full_fiber(families.parse_family_spec("hamming:m=2,n=5"))
    report = ekr.check_conditions(cert, 1)
    assert len(report.rows) == 1
    row = report.rows[0]
    assert (row.r, row.lhs, row.rhs, row.holds) == (0, 4, 5, True)
    assert row.conditions == ("cond1", "cond2")  # overlap point r == 2s-t
    assert report.theorem_form and report.table1_form and report.table1_agrees
    assert report.bound == 5


def test_conditions_johnson_v7_full_fiber():
    cert = restrict_strength(full_fiber(families.parse_family_spec("johnson:v=7,m=3")), 2)
    report = ekr.check_conditions(cert, 1)
    row = report.rows[0]
    assert (row.lhs, row.rhs, row.holds) == (45, 15, False)
    assert not report.theorem_form
    # the printed remark form disagrees here and must be surfaced, not hidden
    assert report.remark_form is True
    assert report.remark_agrees is False
    assert report.table1_form is False and report.table1_agrees


def test_conditions_fano_certificate(fano_cert):
    report = ekr.check_conditions(fano_cert, 1)
    row = report.rows[0]
    assert (row.lhs, row.rhs) == (9, 3)
    assert (row.theta_lhs, row.theta_rhs) == (45, 15)
    assert not row.holds and not report.theorem_form
    assert report.bound == 3


def test_conditions_johnson_threshold_at_t3():
    # s=1, t=3: cond1 range is empty, single cond2 row at r=0
    spec19 = families.parse_family_spec("johnson:v=19,m=3")
    rep = ekr.check_conditions(full_fiber(spec19), 1)
    assert rep.cond1_vacuous
    assert rep.rows[0].conditions == ("cond2",)
    assert (rep.rows[0].lhs, rep.rows[0].rhs) == (153, 153)
    assert not rep.theorem_form

    spec25 = families.parse_family_spec("johnson:v=25,m=3")
    rep = ekr.check_conditions(full_fiber(spec25), 1)
    assert (rep.rows[0].lhs, rep.rows[0].rhs) == (207, 276)
    assert rep.theorem_form


def test_theorem_form_equals_theta_rows_on_full_fibers():
    for text in ("hamming:m=3,n=3", "johnson:v=8,m=3", "injection:m=3,n=5"):
        cert = full_fiber(families.parse_family_spec(text))
        for s in range(1, cert.strength):
            report = ekr.check_conditions(cert, s)
            for row in report.rows:
                assert (row.lhs, row.rhs) == (row.theta_lhs, row.theta_rhs)
                assert row.holds == (row.theta_lhs < row.theta_rhs)


def test_verdicts_are_index_independent(fano_spec, fano_cert):
    # same spec, s, t: the full fiber (lambda_t = theta(t)) and the Fano
    # 2-design (lambda_2 = 1) must produce identical verdicts row by row
    full = restrict_strength(full_fiber(fano_spec), 2)
    a = ekr.check_conditions(full, 1)
    b = ekr.check_conditions(fano_cert, 1)
    assert [r.holds for r in a.rows] == [r.holds for r in b.rows]
    assert a.theorem_form == b.theorem_form
    assert [(r.theta_lhs, r.theta_rhs) for r in a.rows] == [
        (r.theta_lhs, r.theta_rhs) for r in b.rows
    ]


def test_remark_conditions_printed_form(fano_spec):
    form, rows = ekr.remark_conditions(fano_spec, 1, 2)
    # nu(0,1) * mu(1,3) * theta(2) = 1 * 1 * 5 against theta(1) = 15
    assert rows[0].lhs == 5 and rows[0].rhs == 15
    assert form is True


def test_table1_thresholds():
    # hamming m=2, s=1, t=2 flips at n = 5 (n > 4)
    flips = [
        ekr.table1_condition(families.parse_family_spec(f"hamming:m=2,n={n}"), 1, 2)
        for n in range(2, 11)
    ]
    assert flips == [n > 4 for n in range(2, 11)]
    # johnson m=3, s=1, t=3 flips at v = 20 (v > 19)
    flips = [
        ekr.table1_condition(families.parse_family_spec(f"johnson:v={v},m=3"), 1, 3)
        for v in range(8, 41)
    ]
    assert flips == [v > 19 for v in range(8, 41)]
    # grassmann q=2, m=3, s=1, t=3 (s < t-1) flips at v = 9
    flips = [
        ekr.table1_condition(families.parse_family_spec(f"grassmann:v={v},m=3,q=2"), 1, 3)
        for v in range(6, 20)
    ]
    assert flips == [v >= 9 for v in range(6, 20)]


def test_grassmanns_loose_table1_form_implies_the_raw_rows():
    # every (s, t) with s < t-1 over a grid of full grassmann fibers, by closed forms alone
    cases = held = 0
    for q, m in itertools.product((2, 3, 4, 5), (3, 4, 5)):
        for v in range(2 * m, 2 * m + 9):
            spec = families.parse_family_spec(f"grassmann:v={v},m={m},q={q}")
            for t in range(3, m + 1):
                cert = designs.DesignCertificate(spec, (), t, tuple(parameters.theta(spec, j) for j in range(t + 1)))
                for s in range(1, t - 1):
                    report = ekr.check_conditions(cert, s)
                    cases += 1
                    held += report.table1_form
                    assert report.theorem_form or not report.table1_form, (v, m, q, s, t)
    assert (cases, held) == (360, 108)


def test_condition_rows_cover_every_r():
    cert = full_fiber(families.parse_family_spec("johnson:v=12,m=5"))
    for s in range(1, 5):
        report = ekr.check_conditions(cert, s)
        assert [row.r for row in report.rows] == list(range(s))
        for row in report.rows:
            assert row.conditions


def test_condition_row_ranges():
    cert = full_fiber(families.parse_family_spec("johnson:v=12,m=5"))  # t = 5
    report = ekr.check_conditions(cert, 3)  # 2s - t = 1: both ranges nontrivial
    assert [row.conditions for row in report.rows] == [
        ("cond1",),
        ("cond1", "cond2"),  # the overlap point r == 2s - t
        ("cond2",),
    ]
    assert not report.cond1_vacuous
    report = ekr.check_conditions(cert, 2)  # 2s - t < 0: cond1 is vacuous
    assert report.cond1_vacuous
    assert all(row.conditions == ("cond2",) for row in report.rows)


def test_check_conditions_validates_ranks(fano_cert):
    with pytest.raises(ValueError):
        ekr.check_conditions(fano_cert, 0)
    with pytest.raises(ValueError):
        ekr.check_conditions(fano_cert, 2)  # needs s < t


def test_check_conditions_raises_when_forms_disagree(monkeypatch):
    # a raised error, not an assert, so the check also runs under `python -O`
    cert = full_fiber(families.parse_family_spec("hamming:m=2,n=5"))
    monkeypatch.setattr(ekr.parameters, "theta", lambda spec, r: 1)  # theta form: 4 < 1 fails
    with pytest.raises(AssertionError, match="disagree"):
        ekr.check_conditions(cert, 1)


def test_ekr_bound_examples(fano_cert):
    assert ekr.ekr_bound(full_fiber(families.parse_family_spec("hamming:m=2,n=5")), 1) == 5
    assert ekr.ekr_bound(fano_cert, 1) == 3
    assert ekr.ekr_bound(generate_linear_oa(11, 3), 1) == 11
    with pytest.raises(ValueError):
        ekr.ekr_bound(fano_cert, 3)


def test_compute_dr_fano(fano_cert):
    report = ekr.compute_dr(fano_cert, 1, 0)
    assert report.d_r == 3
    assert report.bound == 3  # mu(0,1) * lambda_2 = 3 * 1, attained
    x, y = report.witness
    assert x.rank == 1 and y.rank == 3


def test_compute_dr_hamming():
    cert = full_fiber(families.parse_family_spec("hamming:m=2,n=5"))
    report = ekr.compute_dr(cert, 1, 0)
    assert report.d_r == 1
    assert report.bound == 2


def test_compute_dr_no_witness_pair():
    # injection m=1, n=1 has a single top element, so no (x, y) pair at
    # meet rank 0 exists and the maximum is empty
    cert = full_fiber(families.parse_family_spec("injection:m=1,n=1"))
    report = ekr.compute_dr(cert, 1, 0)
    assert report.d_r is None
    assert report.witness is None
    assert report.bound == 1


def test_compute_dr_within_bound_on_oa():
    cert = generate_linear_oa(11, 3)
    report = ekr.compute_dr(cert, 1, 0)
    assert report.d_r is not None and report.d_r <= report.bound


@pytest.mark.parametrize("q", (3, 5, 7))
def test_compute_dr_witness_does_not_depend_on_row_order(q):
    cert = generate_linear_oa(q, 3)
    rows = list(cert.elements)
    random.Random(q).shuffle(rows)
    shuffled = designs.make_certificate(cert.spec, rows, 2)
    assert ekr.compute_dr(shuffled, 1, 0) == ekr.compute_dr(cert, 1, 0)


def test_compute_dr_validates(fano_cert):
    with pytest.raises(ValueError):
        ekr.compute_dr(fano_cert, 1, 1)
    with pytest.raises(ValueError):
        ekr.compute_dr(fano_cert, 3, 0)


def test_dr_scan_is_refused_before_its_fiber_is_built(monkeypatch):
    spec = families.parse_family_spec("johnson:v=40,m=20")
    row = families.parse_element(spec, " ".join(map(str, range(1, 21))))
    cert = designs.DesignCertificate(spec, (row,), 10, (1,) * 11)  # unverified: only the sizes matter
    monkeypatch.setattr(families, "_fiber_payloads", lambda spec, i: pytest.fail(f"built the rank-{i} fiber"))
    with pytest.raises(BudgetExceededError) as err:
        ekr.compute_dr(cert, 10, 9)
    assert str(err.value) == "the d_r scan needs 1695321056 comparisons, above the cap of 100000000"
    assert err.value.context == {"fiber_size": 847660528, "design_size": 1, "need": 1695321056, "cap": 10**8}


def test_dr_budget_counts_the_scan_not_pairs(monkeypatch):
    # 2 * fiber * |Y| = 2 * 10 * 252 = 5,040; the stars' |Y| * nu(1, 5) = 1,260
    # ORs are fewer, and no |Y|^2 = 63,504 pairwise table is charged
    cert = full_fiber(families.parse_family_spec("johnson:v=10,m=5"))
    expected = ekr.compute_dr(cert, 1, 0)
    assert (expected.d_r, expected.bound) == (125, 280)
    monkeypatch.setattr(families, "DEFAULT_BUDGET", 10_000)
    assert ekr.compute_dr(cert, 1, 0) == expected
    for name in ("meet_rank", "leq"):
        monkeypatch.setattr(families, name, lambda x, y: pytest.fail("compared before the budget check"))
    monkeypatch.setattr(families, "DEFAULT_BUDGET", 5_039)
    with pytest.raises(BudgetExceededError) as err:
        ekr.compute_dr(cert, 1, 0)
    assert str(err.value) == "the d_r scan needs 5040 comparisons, above the cap of 5039"
    assert err.value.context == {"fiber_size": 10, "design_size": 252, "need": 5040, "cap": 5039}


def test_dr_budget_counts_the_near_table_words(monkeypatch):
    # 924 members: the scan is 2 * 12 * 924 = 22,176, while the near table's
    # 924 * nu(1, 6) = 5,544 ORs span 924 // 64 + 1 = 15 words each: 83,160
    cert = full_fiber(families.parse_family_spec("johnson:v=12,m=6"))
    monkeypatch.setattr(families, "DEFAULT_BUDGET", 83_160)
    result = ekr.compute_dr(cert, 1, 0)
    assert (result.d_r, result.bound) == (461, 1260)
    monkeypatch.setattr(families, "above", lambda *args: pytest.fail("built the stars before the budget check"))
    monkeypatch.setattr(families, "DEFAULT_BUDGET", 83_159)
    with pytest.raises(BudgetExceededError) as err:
        ekr.compute_dr(cert, 1, 0)
    assert str(err.value) == "the d_r scan needs 83160 comparisons, above the cap of 83159"
    assert err.value.context == {"fiber_size": 12, "design_size": 924, "need": 83160, "cap": 83159}


def test_verify_extremal_star_is_extremal(monkeypatch):
    hs = families.parse_family_spec("hamming:m=2,n=5")
    cert = full_fiber(hs)
    z = families.parse_element(hs, "1:0")
    members = star_members(cert.elements, z)
    # the center is sought below the common meet, not in the rank-1 fiber
    monkeypatch.setattr(families, "_fiber_payloads", lambda spec, i: pytest.fail(f"built the rank-{i} fiber"))
    verdict = ekr.verify_extremal(cert, members, 1)
    assert verdict.status == "extremal-star"
    assert verdict.center == z
    assert verdict.size == verdict.bound == 5


def test_verify_extremal_fano_exceeds(fano_cert, fano_elements):
    verdict = ekr.verify_extremal(fano_cert, fano_elements, 1)
    assert verdict.status == "exceeds-bound"
    assert (verdict.size, verdict.bound) == (7, 3)


def test_verify_extremal_below(fano_cert, fano_elements):
    verdict = ekr.verify_extremal(fano_cert, fano_elements[:1], 1)
    assert verdict.status == "below-bound"


def test_verify_extremal_not_a_star():
    # hamming m=3, n=2, s=2, full fiber: bound lambda_2 = 2; the pair
    # {000, 001} shares the 2-assignment 1:0,2:0 => a star; the pair
    # {000, 110}? meets in rank 1 only, not intersecting; use
    # {000, 100} star of 2:0,3:0 ... every 2-intersecting pair shares a
    # rank-2 meet, so every extremal family IS a star here; check that.
    hs = families.parse_family_spec("hamming:m=3,n=2")
    cert = full_fiber(hs)
    a = families.parse_element(hs, "1:0,2:0,3:0")
    b = families.parse_element(hs, "1:0,2:0,3:1")
    verdict = ekr.verify_extremal(cert, (a, b), 2)
    assert verdict.status == "extremal-star"
    assert families.format_element(verdict.center) == "1:0,2:0"


def test_the_anchors_maximum_families_are_the_point_stars_and_the_hyperplanes():
    # the 126 families of 155 planes of GF(2)^6 that pairwise meet: the planes
    # through a point, and the planes inside a hyperplane, which share no point
    spec = families.parse_family_spec("grassmann:v=6,m=3,q=2")
    cert = full_fiber(spec)
    members = cert.elements
    stars = families.above(spec, 1, members)
    point_stars = [tuple(x for j, x in enumerate(members) if star >> j & 1) for star in stars]
    hyperplanes = []
    for a in range(1, 64):  # the kernel of the functional v -> a . v, as a mask of vector codes
        kernel = sum(1 << v for v in range(1, 64) if not (a & v).bit_count() % 2)
        hyperplanes.append(tuple(x for x in members if not x.atoms & ~kernel))
    verdicts = [ekr.verify_extremal(cert, family, 1) for family in point_stars + hyperplanes]
    assert all((v.size, v.bound) == (155, 155) for v in verdicts)
    assert [v.status for v in verdicts] == ["extremal-star"] * 63 + ["extremal-but-not-star"] * 63
    centers = families.enumerate_fiber(spec, 1)
    assert len({v.center for v in verdicts[:63]}) == 63
    for v, family in zip(verdicts, point_stars):
        row = stars[centers.index(v.center)]
        assert tuple(x for j, x in enumerate(members) if row >> j & 1) == family
    assert all(v.center is None for v in verdicts[63:])


def test_verify_extremal_without_a_common_center_builds_no_fiber(fano_cert, monkeypatch):
    # the Fano plane again, on a spec of its own that holds no fiber yet
    spec = families.parse_family_spec(str(fano_cert.spec))
    lines = (families.parse_element(spec, str(x)) for x in fano_cert.elements)
    cert = designs.DesignCertificate(spec, lines, fano_cert.strength, fano_cert.indices)
    # three Fano lines through no common point: pairwise 1-intersecting, lambda_1 = 3 of them
    triangle = tuple(families.parse_element(spec, text) for text in ("1 2 3", "1 4 5", "2 4 6"))
    monkeypatch.setattr(families, "_fiber_payloads", lambda spec, i: pytest.fail(f"built the rank-{i} fiber"))
    verdict = ekr.verify_extremal(cert, triangle, 1)
    assert (verdict.status, verdict.center, verdict.size, verdict.bound) == ("extremal-but-not-star", None, 3, 3)


def test_verify_extremal_validates(fano_cert, fano_spec, fano_elements):
    outsider = families.parse_element(fano_spec, "1 2 4")
    with pytest.raises(ValueError):
        ekr.verify_extremal(fano_cert, (outsider,), 1)
    disjoint = (fano_elements[0], fano_elements[0])
    with pytest.raises(ValueError):
        ekr.verify_extremal(fano_cert, disjoint, 1)

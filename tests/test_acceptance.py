"""Acceptance criteria, one test per criterion at its stated tolerance.

Every expected number here is an exact integer; timing ceilings are part
of the criteria.  Run with `pytest tests/test_acceptance.py -v -s` to see
one pass/fail line per criterion.
"""

from __future__ import annotations

import io
import contextlib
import shutil
import time
from pathlib import Path

import ekrlattice
from conftest import grid
from ekrlattice import designs, ekr, families, parameters, search
from ekrlattice.cli import main as cli_main

SAMPLES_DIR = Path(ekrlattice.__file__).parent / "samples"
GOLDEN_DIR = Path(__file__).parent / "golden"


def _finish(name: str, start: float, limit: float):
    elapsed = time.perf_counter() - start
    assert elapsed < limit, f"{name} took {elapsed:.1f}s, limit {limit}s"
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s < {limit}s)")


def test_criterion_1_parameter_oracle_equivalence():
    start = time.perf_counter()
    for spec in grid():
        top = spec.top_rank
        universe = list(families.enumerate_all(spec))
        tops = [y for y in universe if y.rank == top]
        for a in universe:
            assert parameters.oracle_count(spec, "theta", (a,)) == parameters.theta(spec, a.rank)
            for r in range(a.rank + 1):
                assert parameters.oracle_count(spec, "nu", (a,), r=r) == parameters.nu(spec, r, a.rank)
            for s in range(a.rank, top + 1):
                assert parameters.oracle_count(spec, "alpha", (a,), s=s) == parameters.alpha(spec, a.rank, s)
        for y in tops:
            for z in universe:
                if not families.leq(z, y):
                    continue
                for s in range(z.rank, top + 1):
                    assert parameters.oracle_count(spec, "mu", (z, y), s=s) == parameters.mu(spec, z.rank, s)
    _finish("1 (parameter-oracle equivalence, full grid)", start, 120.0)


def test_criterion_2_regularity_audit():
    from ekrlattice.audit import audit

    for spec in grid():
        start = time.perf_counter()
        report = audit(spec)
        assert report.passed, [c.check_id for c in report.checks if not c.passed]
        assert time.perf_counter() - start < 60.0, f"audit of {spec} too slow"
    print("ACCEPTANCE 2 (regularity audit, full grid): PASS (each spec < 60s)")


def test_criterion_3_proposition_check(fano_spec, fano_cert):
    start = time.perf_counter()
    assert designs.derive_index(fano_spec, 1, 2, 1) == 3
    assert designs.derive_index(fano_spec, 1, 2, 0) == 7
    assert designs.make_certificate(fano_spec, fano_cert.elements, 1).indices == (7, 3)
    assert designs.make_certificate(fano_spec, fano_cert.elements, 0).indices == (7,)
    for spec in grid():
        top = spec.top_rank
        for t in range(top + 1):
            for t_prime in range(t + 1):
                value = designs.derive_index(spec, parameters.theta(spec, t), t, t_prime)
                assert value == parameters.theta(spec, t_prime)
    _finish("3 (index proposition + integrality)", start, 60.0)


def test_criterion_4a_hamming_certifying_search():
    start = time.perf_counter()
    cert = designs.full_fiber(families.parse_family_spec("hamming:m=2,n=5"))
    report = ekr.check_conditions(cert, 1)
    assert report.theorem_form
    assert (report.rows[0].lhs, report.rows[0].rhs) == (4, 5)
    result = search.max_intersecting(cert, 1, enumerate_all=True)
    assert result.optimum == 5 == ekr.ekr_bound(cert, 1)
    assert len(result.all_max) == 10
    for family in result.all_max:
        assert ekr.verify_extremal(cert, family, 1).status == "extremal-star"
    _finish("4a (hamming m=2 n=5: bound 5, 10 stars)", start, 5.0)


def test_criterion_4b_oa11_certifying_search():
    start = time.perf_counter()
    cert = designs.generate_linear_oa(11, 3)
    assert cert.size == 121 and cert.strength == 2 and cert.indices[2] == 1
    report = ekr.check_conditions(cert, 1)
    assert report.theorem_form
    assert (report.rows[0].lhs, report.rows[0].rhs) == (9, 11)
    result = search.max_intersecting(cert, 1, enumerate_all=True)
    assert result.optimum == 11 == ekr.ekr_bound(cert, 1)
    assert result.status == "proved-optimal"
    for family in result.all_max:
        assert ekr.verify_extremal(cert, family, 1).status == "extremal-star"
    # three positions x eleven values give 33 pairwise-distinct stars
    assert len(result.all_max) == 33
    _finish("4b (linear OA q=11: bound 11, all extremal stars)", start, 60.0)


def test_criterion_4c_fano_conditions_necessary(fano_cert):
    start = time.perf_counter()
    report = ekr.check_conditions(fano_cert, 1)
    assert not report.theorem_form
    assert (report.rows[0].theta_lhs, report.rows[0].theta_rhs) == (45, 15)
    result = search.max_intersecting(fano_cert, 1)
    assert result.optimum == 7 > ekr.ekr_bound(fano_cert, 1) == 3
    verdict = ekr.verify_extremal(fano_cert, fano_cert.elements, 1)
    assert verdict.status == "exceeds-bound"
    _finish("4c (Fano: conditions fail, bound exceeded)", start, 5.0)


def test_criterion_4d_johnson_v7_search():
    start = time.perf_counter()
    cert = designs.full_fiber(families.parse_family_spec("johnson:v=7,m=3"))
    result = search.max_intersecting(cert, 1)
    assert result.optimum == 15  # classical star size C(6,2)
    for t in (2, 3):
        report = ekr.check_conditions(designs.restrict_strength(cert, t), 1)
        assert not report.theorem_form
    _finish("4d (johnson v=7 m=3: optimum 15, conditions false)", start, 10.0)


def test_criterion_5_dr_lemma(fano_cert):
    start = time.perf_counter()
    instances = [
        (designs.full_fiber(families.parse_family_spec("hamming:m=2,n=5")), 1),
        (designs.generate_linear_oa(11, 3), 1),
        (fano_cert, 1),
    ]
    for cert, s in instances:
        for r in range(s):
            report = ekr.compute_dr(cert, s, r)
            assert report.d_r is not None
            assert report.d_r <= report.bound
    fano_report = ekr.compute_dr(fano_cert, 1, 0)
    assert fano_report.d_r == 3 == parameters.mu(fano_cert.spec, 0, 1) * fano_cert.indices[2]
    _finish("5 (d_r lemma bounds, Fano tight)", start, 60.0)


def test_criterion_6_table1_thresholds():
    start = time.perf_counter()
    johnson_flips = []
    for v in range(8, 41):
        cert = designs.full_fiber(families.parse_family_spec(f"johnson:v={v},m=3"))
        johnson_flips.append(ekr.check_conditions(cert, 1).theorem_form)
    assert johnson_flips == [v > 19 for v in range(8, 41)]

    hamming_flips = []
    for n in range(2, 11):
        cert = designs.full_fiber(families.parse_family_spec(f"hamming:m=2,n={n}"))
        hamming_flips.append(ekr.check_conditions(cert, 1).theorem_form)
    assert hamming_flips == [n > 4 for n in range(2, 11)]
    _finish("6 (thresholds: johnson v=20, hamming n=5)", start, 60.0)


def test_criterion_7_determinism(tmp_path, monkeypatch, fano_cert):
    start = time.perf_counter()
    instances = [
        designs.full_fiber(families.parse_family_spec("hamming:m=2,n=5")),
        designs.generate_linear_oa(11, 3),
        fano_cert,
        designs.full_fiber(families.parse_family_spec("johnson:v=7,m=3")),
    ]
    for cert in instances:
        adjacency, _ = search._graph(cert, 1)
        payloads = [x.payload for x in cert.elements]
        canonical = sorted(range(cert.size), key=payloads.__getitem__)
        degree = sorted(canonical, key=lambda i: -adjacency[i].bit_count())
        optima = {search._Solver(search._relabel(adjacency, order)).maximize()[0] for order in (degree, canonical)}
        assert optima == {search.max_intersecting(cert, 1).optimum}

    shutil.copy(SAMPLES_DIR / "oa11.design", tmp_path / "oa11.design")
    monkeypatch.chdir(tmp_path)
    outputs = []
    for _ in range(2):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli_main(
                ["search-max", "--design", "oa11.design", "--s", "1", "--deterministic", "--json"]
            )
        assert code == 0
        outputs.append(buffer.getvalue())
    assert outputs[0] == outputs[1]
    _finish("7 (ordering determinism, byte-stable witness)", start, 120.0)


def test_criterion_8_codec_and_report_stability(tmp_path, monkeypatch):
    start = time.perf_counter()
    for name in ("fano.design", "oa3.design", "oa11.design"):
        original = SAMPLES_DIR / name
        cert = designs.load_design(original)
        designs.save_design(cert, tmp_path / name)
        assert (tmp_path / name).read_bytes() == original.read_bytes()

    for name in ("fano.design", "oa3.design"):
        shutil.copy(SAMPLES_DIR / name, tmp_path / name)
    monkeypatch.chdir(tmp_path)
    golden_runs = {
        "ekr_check_fano.json": ["ekr-check", "--design", "fano.design", "--s", "1", "--json"],
        "search_max_oa3.json": [
            "search-max", "--design", "oa3.design", "--s", "1", "--deterministic", "--all", "--json",
        ],
    }
    for name, argv in golden_runs.items():
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            cli_main(argv)
        assert buffer.getvalue() == (GOLDEN_DIR / name).read_text()
    _finish("8 (byte-identical round trips, stable reports)", start, 60.0)

"""CLI behaviour: exit codes, JSON reports, golden files, sample round-trips."""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import ekrlattice
from ekrlattice import cli, ekr, families, search
from ekrlattice.audit import audit
from ekrlattice.cli import main
from ekrlattice.errors import BudgetExceededError, FamilyMismatchError

GOLDEN_DIR = Path(__file__).parent / "golden"
SAMPLES_DIR = Path(ekrlattice.__file__).parent / "samples"


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_text(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


@pytest.fixture(autouse=True)
def envelopes_are_written_as_json_writes_them(monkeypatch):
    """Every envelope a test here prints in process is checked against the
    json package's text of it."""
    build = cli._envelope

    def checked(*args):
        body = build(*args)
        assert cli._dumps(body) == json_text(body)
        return body

    monkeypatch.setattr(cli, "_envelope", checked)


@pytest.fixture
def in_samples_tmp(tmp_path, monkeypatch):
    """Run in a temp dir holding copies of the bundled samples (stable paths)
    and `star.family`, the 11 members of oa11 through `1:0`."""
    for name in ("fano.design", "oa3.design", "oa11.design"):
        shutil.copy(SAMPLES_DIR / name, tmp_path / name)
    rows = [f"1:0,2:{v},3:{v}" for v in range(11)]
    (tmp_path / "star.family").write_text("family hamming:m=3,n=11\n" + "\n".join(rows) + "\n")
    monkeypatch.chdir(tmp_path)
    return tmp_path


# ---------------------------------------------------------------------------
# exit codes and text output


def test_params_example(capsys):
    code, out, _ = run_cli(["params", "--family", "johnson:v=6,m=3", "--r", "1", "--s", "2"], capsys)
    assert code == 0
    assert "mu=2 nu=2 theta(r)=10 alpha=5" in out


def test_params_full_table(capsys):
    code, out, _ = run_cli(["params", "--family", "hamming:m=2,n=5"], capsys)
    assert code == 0
    assert out.count("r=") == 6  # all 0 <= r <= s <= 2


def test_ekr_check_fano_fails_conditions(in_samples_tmp, capsys):
    code, out, _ = run_cli(["ekr-check", "--design", "fano.design", "--s", "1"], capsys)
    assert code == 1
    assert "45 >= 15" in out
    assert "theorem conditions FAIL" in out


def test_ekr_check_oa11_passes(in_samples_tmp, capsys):
    code, out, _ = run_cli(["ekr-check", "--design", "oa11.design", "--s", "1"], capsys)
    assert code == 0
    assert "9 < 11" in out


def test_search_max_oa11(in_samples_tmp, capsys):
    code, out, _ = run_cli(["search-max", "--design", "oa11.design", "--s", "1"], capsys)
    assert code == 0
    assert "size: 11" in out


def test_search_max_budget_exhausted_exit_3(in_samples_tmp, capsys):
    code, _, _ = run_cli(
        ["search-max", "--design", "oa11.design", "--s", "1", "--node-budget", "1"], capsys
    )
    assert code == 3


def test_audit_pass_and_quiet(capsys):
    code, out, _ = run_cli(["audit", "--family", "johnson:v=5,m=2", "--quiet"], capsys)
    assert code == 0
    assert out == ""


def test_audit_budget_exit_3(capsys):
    code, _, err = run_cli(["audit", "--family", "johnson:v=6,m=3", "--budget", "10"], capsys)
    assert code == 3
    assert err == "error: the audit needs 113064 comparisons, above the cap of 10\n"


def test_parse_error_exit_2(capsys):
    code, _, err = run_cli(["params", "--family", "johnson:v=3,m=2"], capsys)
    assert code == 2
    assert err.startswith("error:")


def test_unknown_family_kind_exit_2(capsys):
    code, _, err = run_cli(["params", "--family", "foo:a=1"], capsys)
    assert code == 2
    assert err == "error: unknown family kind 'foo'\n"


def test_negative_audit_budget_is_a_usage_error(capsys):
    # argparse refuses it (exit 2, no envelope); a budget of 0 is still valid and refuses the work
    with pytest.raises(SystemExit) as exc:
        main(["audit", "--family", "johnson:v=5,m=2", "--budget", "-5", "--json"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "--budget" in err
    code, _, err = run_cli(["audit", "--family", "johnson:v=5,m=2", "--budget", "0"], capsys)
    assert code == 3 and err == "error: the audit needs 7744 comparisons, above the cap of 0\n"


def test_negative_node_budget_is_a_usage_error(in_samples_tmp, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["search-max", "--design", "oa11.design", "--s", "1", "--node-budget", "-1", "--json"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "--node-budget" in err
    code, out, _ = run_cli(["search-max", "--design", "oa11.design", "--s", "1", "--node-budget", "0"], capsys)
    assert code == 3 and "budget-exhausted" in out


# every option of each subcommand set; the integer options get a malformed
# and a negative value in turn
EVERY_OPTION = {
    "params": ["--family", "johnson:v=6,m=3", "--r", "1", "--s", "2"],
    "audit": ["--family", "johnson:v=5,m=2", "--budget", "10"],
    "enumerate": ["--family", "johnson:v=5,m=2", "--rank", "1"],
    "gen": ["--kind", "full-fiber", "--family", "johnson:v=5,m=2", "--strength", "1", "--q", "3", "--m", "2", "-o", "x"],
    "check-design": ["--design", "x", "--strength", "1"],
    "ekr-check": ["--design", "x", "--s", "1", "--t", "2"],
    "dr": ["--design", "x", "--s", "2", "--r", "1", "--t", "2"],
    "search-max": ["--design", "x", "--s", "1", "--all", "--deterministic", "--node-budget", "9"],
    "verify-extremal": ["--design", "x", "--family-file", "y", "--s", "1"],
}


def _parser_argvs(command):
    options = EVERY_OPTION[command]
    yield [command, *options, "--json", "--quiet"]
    yield [command, "-h"]
    yield [command, *options[2:]]  # its first option missing
    yield [command, "--json"]
    for i, word in enumerate(options):
        if word.isdigit():
            yield [command, *options[:i], "x" + word, *options[i + 1 :]]
            yield [command, *options[:i], "-" + word, *options[i + 1 :]]
    yield [command, *options, "--nope"]
    yield [command, *options, "--version"]


def _edge_argvs(command):
    """Argvs the plain path must leave to argparse, or read as argparse does."""
    options = EVERY_OPTION[command]
    flag, value = options[:2]
    yield [command, flag[:4], value, *options[2:]]  # an abbreviation
    yield [command, f"{flag}={value}", *options[2:]]
    yield [command, *options, flag, value]  # repeated: the last one holds
    yield [command, *options, flag, "again"]
    yield [command, *options[2:], flag, ""]  # an empty value
    yield [command, *options, "--r", "-1"]
    yield [command, *options, "-ox"]
    yield [command, "--", *options]
    yield [command, *options, "--"]
    yield [command, *options, flag]  # a value missing at the end
    yield [command, *options, "--json", "--json"]


def _parse(parser, argv, capsys):
    try:
        outcome = vars(parser.parse_args(argv))
    except SystemExit as exc:
        outcome = exc.code
    return (outcome, *capsys.readouterr())


@pytest.mark.parametrize("command", sorted(EVERY_OPTION))
def test_the_one_subcommand_parser_parses_as_the_full_one(command, monkeypatch, capsys):
    # the plain path gives the parser's namespace, with nothing on stdout or
    # stderr, or declines
    assert set(EVERY_OPTION) == set(cli._COMMANDS)
    monkeypatch.setenv("COLUMNS", "80")
    for argv in (*_edge_argvs(command), *_parser_argvs(command), ["--json", command, *EVERY_OPTION[command]]):
        plain = cli._plain_args(argv)
        assert plain is None or (plain, "", "") == _parse(cli._build_parser(), argv, capsys), argv


def _perfbench_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    # registered before it runs: its dataclasses look their module up
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_option_set_and_benchmark_job_takes_the_plain_path():
    # so their runs never import argparse; an `@name` file placeholder stands
    # for a path.  The namespace matches argparse's key for key, in order
    argvs = [[command, *options, *tail] for command, options in EVERY_OPTION.items() for tail in ([], ["--json", "--quiet"])]
    workloads = _perfbench_workloads().WORKLOADS.values()
    jobs = [list(job.argv) for w in workloads for job in w.jobs]
    assert len(jobs) == 19
    argvs += jobs + [["gen", *d.gen, "-o", f"{d.name}.design"] for w in workloads for d in w.designs]
    for argv in argvs:
        plain = cli._plain_args(argv)
        assert plain is not None, argv
        assert list(plain.items()) == list(vars(cli._build_parser().parse_args(argv)).items()), argv


OPTION_WORDS = sorted({flag for _, *options in cli._COMMANDS.values() for *flags, _ in (*cli._COMMON, *options) for flag in flags})
OTHER_WORDS = ["1", "0", "-1", "x", "", "9", "01", " 2", "full-fiber", "linear-oa", "-", "--", "-h", "--version", "--fam", "-ox"]


@given(
    st.sampled_from(sorted(cli._COMMANDS)),
    st.booleans(),
    st.lists(st.tuples(st.sampled_from(OPTION_WORDS + OTHER_WORDS), st.sampled_from([(), *((w,) for w in OTHER_WORDS)])), max_size=6),
)
@settings(max_examples=500, deadline=None)
def test_the_plain_path_parses_as_argparse_or_declines(command, every_option, chunks):
    # random words, each option-like one with or without a value, after every option set or alone
    argv = [command, *(EVERY_OPTION[command] if every_option else [])]
    for word, value in chunks:
        argv += [word, *value]
    plain = cli._plain_args(argv)
    if plain is not None:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert plain == vars(cli._build_parser().parse_args(argv)), argv


def test_a_run_builds_only_the_parser_its_first_word_names(monkeypatch, capsys):
    # a plain argv builds no parser, any other the one parser of every subcommand
    built = []

    def build():
        parser = real()
        built.append(sorted(parser._subparsers._group_actions[0].choices))
        return parser

    real = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", build)
    assert main(["params", "--family", "johnson:v=4,m=2", "--quiet"]) == 0
    assert built == []  # a plain argv builds no parser
    errors = []
    for argv in (["params", "-h"], [], ["--help"], ["--version"], ["nope"], ["--json", "params"]):
        with pytest.raises(SystemExit):
            main(argv)
        errors.append(capsys.readouterr().err)
    assert built == [sorted(cli._COMMANDS)] * 6
    # the parser names its positional `command`, not by the choices
    assert errors[1].endswith("error: the following arguments are required: command\n")
    assert "error: argument command: invalid choice: 'nope'" in errors[4]


def test_only_input_errors_are_usage_errors(monkeypatch, capsys):
    # a plain ValueError is a bug: it propagates instead of reading as exit 2
    def raises(exc):
        def handler(args):
            raise exc
        return handler

    monkeypatch.setattr(cli, "_cmd_params", raises(ValueError("internal")))
    with pytest.raises(ValueError, match="internal"):
        main(["params", "--family", "johnson:v=4,m=2"])
    monkeypatch.setattr(cli, "_cmd_params", raises(FamilyMismatchError("mixed families")))
    assert run_cli(["params", "--family", "johnson:v=4,m=2"], capsys)[0] == 2


# each refusal comes from closed-form sizes; _fiber_payloads raises if a fiber is built first
J40_ROW = " ".join(map(str, range(1, 21)))  # one row of a strength-10 johnson:v=40,m=20 design
J40_CONTEXT = {"fiber_size": 847660528, "design_size": 1, "need": 847660528, "cap": 10**8}
CAP_CONTEXT = {"need": 10400600, "cap": 10**6}
G17_ROW = ".".join(["1"] + ["0"] * 16)  # a point of grassmann:v=17,m=1,q=2, whose 2^17 atoms are above the cap
REFUSALS = {
    "audit-hamming-7-5": (
        ["audit", "--family", "hamming:m=7,n=5"],
        {
            "fiber_sizes": [1, 35, 525, 4375, 21875, 65625, 109375, 78125],
            "need": 21955864927163904,
            "cap": 10**8,
        },
    ),
    "audit-hamming-8-6": (
        ["audit", "--family", "hamming:m=8,n=6"],
        {
            "fiber_sizes": [1, 48, 1008, 12096, 90720, 435456, 1306368, 2239488, 1679616],
            "need": "191598726495570578415",  # above the signed 64-bit range, so a string
            "cap": 10**8,
        },
    ),
    "check-design": (["check-design", "--design", "j40.design"], J40_CONTEXT),
    "dr": (["dr", "--design", "j40.design", "--s", "2", "--r", "1"], J40_CONTEXT),
    "search-max": (["search-max", "--design", "j40.design", "--s", "1"], J40_CONTEXT),
    "enumerate": (["enumerate", "--family", "johnson:v=26,m=13", "--rank", "13"], CAP_CONTEXT),
    "gen-full-fiber": (["gen", "--kind", "full-fiber", "--family", "johnson:v=26,m=13", "-o", "x.design"], CAP_CONTEXT),
    "atom-cap": (["check-design", "--design", "g17.design"], {"need": 131072, "cap": 65536}),
    # six members against the vertex cap of 5 set below, refused before the coverage pass
    "vertex-cap": (["search-max", "--design", "pairs.design", "--s", "1"], {"need": 6, "cap": 5}),
}


@pytest.mark.parametrize("name", list(REFUSALS))
def test_oversized_work_is_refused_before_any_fiber_is_built(name, tmp_path, monkeypatch, capsys):
    def no_fibers(spec, i):
        raise AssertionError(f"built the rank-{i} fiber of {spec} for refused work")

    monkeypatch.setattr(families, "_fiber_payloads", no_fibers)
    monkeypatch.setattr(search, "VERTEX_CAP", 5)
    monkeypatch.chdir(tmp_path)
    Path("j40.design").write_text(f"family johnson:v=40,m=20\nstrength 10\n{J40_ROW}\n")
    Path("g17.design").write_text(f"family grassmann:v=17,m=1,q=2\nstrength 0\n{G17_ROW}\n")
    Path("pairs.design").write_text("family johnson:v=4,m=2\nstrength 1\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n")
    argv, context = REFUSALS[name]
    code, out, err = run_cli([*argv, "--json"], capsys)
    assert code == 3 and err.startswith("error:")
    error = json.loads(out)["error"]
    assert error["context"] == context
    assert int(context["need"]) > context["cap"]
    assert f"needs {context['need']} " in error["message"] and error["message"].endswith(f" cap of {context['cap']}")
    assert not Path("x.design").exists()


def test_search_max_refuses_an_oversized_design_before_its_coverage_pass(tmp_path, monkeypatch, capsys):
    # the file fails its declared strength, which a coverage pass would report with exit 1
    monkeypatch.setattr(search, "VERTEX_CAP", 1)
    monkeypatch.setattr(families, "above", lambda *args: pytest.fail("covered a design the search refuses"))
    monkeypatch.chdir(tmp_path)
    Path("broken.design").write_text("family johnson:v=7,m=3\nstrength 2\n1 2 3\n1 4 5\n")
    code, out, _ = run_cli(["search-max", "--design", "broken.design", "--s", "1", "--json"], capsys)
    assert code == 3
    assert json.loads(out)["error"]["context"] == {"need": 2, "cap": 1}


@pytest.mark.parametrize("s", [0, 4])
def test_search_max_refuses_an_s_out_of_range_before_its_coverage_pass(s, in_samples_tmp, monkeypatch, capsys):
    monkeypatch.setattr(families, "above", lambda *args: pytest.fail("covered a design the search refuses"))
    code, _, err = run_cli(["search-max", "--design", "fano.design", "--s", str(s)], capsys)
    assert code == 2 and err == f"error: s must satisfy 1 <= s <= 3, got {s}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["ekr-check", "--s", "0"], "need 0 < s < t (certificate strength t=2), got s=0"),
        (["ekr-check", "--s", "2", "--t", "1"], "need 0 < s < t (certificate strength t=1), got s=2"),
        (["ekr-check", "--s", "1", "--t", "9"], "strength 9 out of range 0..2"),
        (["dr", "--s", "1", "--r", "5"], "need 0 <= r <= s-1 < t <= 3, got r=5, s=1, t=2"),
        (["dr", "--s", "3", "--r", "0"], "need 0 <= r <= s-1 < t <= 3, got r=0, s=3, t=2"),
        (["verify-extremal", "--s", "0", "--family-file", "fano.design"], "s must satisfy 0 < s < 3, got 0"),
    ],
)
def test_design_commands_refuse_their_ranges_before_the_coverage_pass(argv, message, in_samples_tmp, monkeypatch, capsys):
    # fano.design is a 2-design in johnson:v=7,m=3, whose top rank is 3
    monkeypatch.setattr(families, "above", lambda *args: pytest.fail("covered a design the command refuses"))
    code, _, err = run_cli([*argv, "--design", "fano.design"], capsys)
    assert (code, err) == (2, f"error: {message}\n")


def test_a_strength_above_the_top_rank_is_refused_where_it_is_read(in_samples_tmp, monkeypatch, capsys):
    # under `check-design --strength` and in a family file too
    Path("bad.design").write_text("family johnson:v=7,m=3\nstrength 4\n1 2 3\n")
    message = "error: bad.design:2: declared strength 4 out of range 0..3\n"
    argv = ["verify-extremal", "--design", "fano.design", "--family-file", "bad.design", "--s", "1"]
    assert run_cli(argv, capsys)[::2] == (2, message)
    monkeypatch.setattr(families, "above", lambda *args: pytest.fail("covered a design with a bad strength line"))
    for argv in (
        ["check-design", "--design", "bad.design"],
        ["check-design", "--design", "bad.design", "--strength", "1"],
        ["ekr-check", "--design", "bad.design", "--s", "1"],
        ["search-max", "--design", "bad.design", "--s", "1"],
    ):
        assert run_cli(argv, capsys)[::2] == (2, message), argv


def test_missing_file_exit_2(tmp_path, monkeypatch, capsys):
    code, _, err = run_cli(["ekr-check", "--design", "nope.design", "--s", "1"], capsys)
    assert code == 2
    assert "error:" in err
    # so is a design file that is not UTF-8
    monkeypatch.chdir(tmp_path)
    Path("latin1.design").write_bytes(b"family johnson:v=5,m=2\nstrength 1\n1 \xff\n")
    code, _, err = run_cli(["check-design", "--design", "latin1.design"], capsys)
    assert code == 2 and "codec can't decode" in err
    code, out, _ = run_cli(["check-design", "--design", "latin1.design", "--json"], capsys)
    error = json.loads(out)["error"]
    assert code == 2 and error["type"] == "ParseError" and error["message"].startswith("latin1.design:3: ")


def test_check_design_wrong_strength_exit_1(in_samples_tmp, capsys):
    code, out, _ = run_cli(["check-design", "--design", "fano.design", "--strength", "3"], capsys)
    assert code == 1
    assert "NOT a 3-design" in out


def test_check_design_makes_one_coverage_pass(in_samples_tmp, capsys, monkeypatch):
    calls = 0
    real_leq = families.leq

    def counting_leq(x, y):
        nonlocal calls
        calls += 1
        return real_leq(x, y)

    monkeypatch.setattr(families, "leq", counting_leq)
    code, out, _ = run_cli(["check-design", "--design", "fano.design", "--strength", "3"], capsys)
    assert code == 1
    assert "NOT a 3-design" in out
    # one `families.above` pass: the stars are read off the atom masks and each
    # member is confirmed once, against itself, its one 3-subset; a whole-fiber
    # scan would make 35 * 7 calls
    lines = (in_samples_tmp / "fano.design").read_text().splitlines()[2:]
    assert calls == len(lines) == 7 < 35 * 7


def test_search_max_seeds_without_building_a_fiber_above_the_cap(tmp_path, monkeypatch, capsys):
    # the rank-6 fiber of johnson:v=40,m=20 has 3,838,380 elements; the graph has 2 vertices
    monkeypatch.chdir(tmp_path)
    rows = [" ".join(map(str, range(1, 21))), " ".join(map(str, range(21, 41)))]
    Path("blocks.design").write_text("family johnson:v=40,m=20\nstrength 1\n" + "\n".join(rows) + "\n")
    real = families._fiber_payloads

    def strength_fiber_only(spec, i):
        if i != 1:
            pytest.fail(f"built the rank-{i} fiber")
        return real(spec, i)

    monkeypatch.setattr(families, "_fiber_payloads", strength_fiber_only)
    code, out, _ = run_cli(["search-max", "--design", "blocks.design", "--s", "6", "--json"], capsys)
    assert code == 0
    body = json.loads(out)
    assert body["result"]["optimum"] == 1
    assert body["result"]["status"] == "proved-optimal"


def test_check_design_ok(in_samples_tmp, capsys):
    code, out, _ = run_cli(["check-design", "--design", "fano.design"], capsys)
    assert code == 0
    assert "verified strength 2" in out
    assert "[7, 3, 1]" in out


def test_corrupt_design_file_exit_1(tmp_path, monkeypatch, capsys):
    # well-formed file whose declared strength fails re-verification
    bad = tmp_path / "bad.design"
    bad.write_text("family johnson:v=7,m=3\nstrength 2\n1 2 3\n1 2 4\n")
    code, _, err = run_cli(["ekr-check", "--design", str(bad), "--s", "1"], capsys)
    assert code == 1
    assert "error:" in err


def test_verify_extremal_star(in_samples_tmp, capsys):
    code, out, _ = run_cli(
        ["verify-extremal", "--design", "oa11.design", "--family-file", "star.family", "--s", "1"],
        capsys,
    )
    assert code == 0
    assert "extremal-star" in out
    assert "center 1:0" in out


def test_verify_extremal_reads_the_family_on_the_designs_spec(in_samples_tmp, monkeypatch, capsys):
    # one spec object, so one codec, per process; a family of another spec is still refused
    seen, verify = [], ekr.verify_extremal
    monkeypatch.setattr(ekr, "verify_extremal", lambda cert, members, s: seen.append((cert, members)) or verify(cert, members, s))
    argv = ["verify-extremal", "--design", "oa11.design", "--family-file", "star.family", "--s", "1"]
    assert run_cli(argv, capsys)[0] == 0
    (cert, members), = seen
    assert len(members) == 11 and all(x.spec is cert.spec for x in members)
    other = in_samples_tmp / "other.family"
    other.write_text("family hamming:m=3,n=3\n1:0,2:0,3:0\n")
    code, _, err = run_cli([*argv[:3], "--family-file", "other.family", "--s", "1"], capsys)
    assert (code, err) == (2, "error: family file spec hamming:m=3,n=3 does not match design spec hamming:m=3,n=11\n")


@pytest.mark.parametrize(
    "content, message", [("", "empty family file"), ("family hamming:m=3,n=11\n", "family file lists no elements")]
)
def test_verify_extremal_names_an_empty_family_file(in_samples_tmp, capsys, content, message):
    (in_samples_tmp / "empty.family").write_text(content)
    argv = ["verify-extremal", "--design", "oa11.design", "--family-file", "empty.family", "--s", "1"]
    assert run_cli(argv, capsys)[::2] == (2, f"error: empty.family: {message}\n")


def test_verify_extremal_exceeds_exit_1(in_samples_tmp, capsys):
    family = in_samples_tmp / "all.family"
    body = (in_samples_tmp / "fano.design").read_text().splitlines()[2:]
    family.write_text("family johnson:v=7,m=3\n" + "\n".join(body) + "\n")
    code, out, _ = run_cli(
        ["verify-extremal", "--design", "fano.design", "--family-file", "all.family", "--s", "1"],
        capsys,
    )
    assert code == 1
    assert "exceeds-bound" in out


def test_enumerate(capsys):
    code, out, _ = run_cli(["enumerate", "--family", "signed:m=3,k=2", "--rank", "2"], capsys)
    assert code == 0
    assert out.strip().splitlines()[-1] == "count 12"


def test_a_family_above_the_atom_cap_still_enumerates(capsys):
    # 70,000 atoms, above ATOM_CAP: the fiber is built without a codec
    code, out, _ = run_cli(["enumerate", "--family", "johnson:v=70000,m=1", "--rank", "1"], capsys)
    rows = out.splitlines()
    assert code == 0
    assert (len(rows), rows[0], rows[-2], rows[-1]) == (70_001, "1", "70000", "count 70000")


def test_closed_pipe_exits_quietly():
    # the report (about 190 kB) outgrows the pipe, so the write after close fails
    env = dict(os.environ, PYTHONPATH=str(Path(ekrlattice.__file__).parents[1]))
    argv = ["enumerate", "--family", "johnson:v=16,m=6", "--rank", "6", "--json"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "ekrlattice.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline().strip() == b"{"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert "Traceback" not in err and "BrokenPipeError" not in err


def cli_process(args, cwd=None):
    """One `python -m ekrlattice.cli` process (or `python <args>` when args
    starts with `-c`), its stdout and stderr read whole."""
    env = dict(os.environ, PYTHONPATH=str(Path(ekrlattice.__file__).parents[1]), COLUMNS="80")
    argv = args if args[0] == "-c" else ["-m", "ekrlattice.cli", *args]
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env, capture_output=True, timeout=60)


def test_a_report_larger_than_the_pipe_is_read_whole(capsys):
    argv = ["enumerate", "--family", "johnson:v=16,m=6", "--rank", "6", "--json"]
    proc = cli_process(argv)
    assert proc.returncode == 0 and proc.stderr == b""
    assert len(proc.stdout) > 150_000
    assert run_cli(argv, capsys)[1].encode() == proc.stdout


@pytest.mark.parametrize(
    "argv, code",
    (
        (["params", "--family", "johnson:v=4,m=2", "--json"], 0),
        (["check-design", "--design", "broken.design"], 1),
        (["params", "--family", "johnson:v=3,m=2", "--json"], 2),
        (["params", "--family", "johnson:v=4,m=2", "--threads", "2"], 2),
        (["--version"], 0),
        (["--help"], 0),
        (["audit", "--family", "johnson:v=5,m=2", "--budget", "0", "--json"], 3),
    ),
    ids=("report", "failed-check", "parse-error", "usage-error", "version", "help", "refusal"),
)
def test_a_process_ends_with_its_code_and_messages(argv, code, tmp_path, monkeypatch, capsys):
    # the process prints what main prints in process, and exits with main's code or argparse's
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    Path("broken.design").write_text("family johnson:v=7,m=3\nstrength 2\n1 2 3\n1 4 5\n")
    proc = cli_process(argv, cwd=tmp_path)
    try:
        expected = main(argv)
    except SystemExit as exc:
        expected = exc.code
    out, err = capsys.readouterr()
    assert proc.returncode == expected == code
    assert (proc.stdout.decode(), proc.stderr.decode()) == (out, err)
    assert (err != "") == (code in (2, 3))
    if "--json" in argv:
        assert json.loads(out)["exit_code"] == code


def test_a_bug_in_the_process_entry_shows_its_traceback():
    code = (
        "import sys; from ekrlattice import cli\n"
        "def boom(args): raise RuntimeError('internal')\n"
        "cli._cmd_params = boom\n"
        "sys.argv[1:] = ['params', '--family', 'johnson:v=4,m=2']\n"
        "cli.entry()\n"
    )
    proc = cli_process(["-c", code])
    err = proc.stderr.decode()
    assert proc.returncode == 1 and proc.stdout == b""
    assert err.startswith("Traceback") and err.rstrip().endswith("RuntimeError: internal")


def test_the_console_script_is_the_process_entry():
    # no tomllib before 3.11: read the one `[project.scripts]` line by regex
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    target = re.search(r'^\[project\.scripts\]\nekrlattice = "([\w.]+):(\w+)"$', text, re.M)
    assert target.groups() == ("ekrlattice.cli", "entry")
    source = Path(cli.__file__).read_text()
    assert re.search(r'^if __name__ == "__main__":\n    (\w+)\(\)\n\Z', source, re.M).group(1) == "entry"


def test_oversized_atom_table_exit_3(tmp_path, monkeypatch, capsys):
    # 2^17 atoms: the spec parses, the first leq of strength verification refuses
    monkeypatch.chdir(tmp_path)
    row = ".".join(["1"] + ["0"] * 16)
    Path("big.design").write_text(f"family grassmann:v=17,m=1,q=2\nstrength 0\n{row}\n")
    code, out, err = run_cli(["check-design", "--design", "big.design"], capsys)
    assert code == 3
    assert "131072 atoms" in err


def test_dr_fano(in_samples_tmp, capsys):
    code, out, _ = run_cli(["dr", "--design", "fano.design", "--s", "1", "--r", "0"], capsys)
    assert code == 0
    assert "d_0 = 3 (bound 3" in out


def test_ekr_check_with_strength_override(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    run_cli(
        ["gen", "--kind", "full-fiber", "--family", "johnson:v=7,m=3", "-o", "jff.design", "--quiet"],
        capsys,
    )
    code, out, _ = run_cli(["ekr-check", "--design", "jff.design", "--s", "1", "--t", "2", "--json"], capsys)
    assert code == 1
    body = json.loads(out)
    assert body["result"]["t"] == 2
    assert body["result"]["rows"][0]["lhs"] == 45
    # --t above the certificate strength is a usage error
    code, _, err = run_cli(["ekr-check", "--design", "jff.design", "--s", "1", "--t", "9"], capsys)
    assert code == 2
    assert "error:" in err


def test_gen_regenerates_bundled_oa_samples(in_samples_tmp, capsys):
    code, _, _ = run_cli(
        ["gen", "--kind", "linear-oa", "--q", "3", "--m", "3", "-o", "regen3.design", "--quiet"],
        capsys,
    )
    assert code == 0
    assert Path("regen3.design").read_bytes() == Path("oa3.design").read_bytes()
    code, _, _ = run_cli(
        ["gen", "--kind", "linear-oa", "--q", "11", "--m", "3", "-o", "regen11.design", "--quiet"],
        capsys,
    )
    assert code == 0
    assert Path("regen11.design").read_bytes() == Path("oa11.design").read_bytes()


def test_gen_full_fiber_round_trip(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, _, _ = run_cli(
        ["gen", "--kind", "full-fiber", "--family", "hamming:m=2,n=5", "--strength", "2",
         "-o", "ff.design", "--quiet"],
        capsys,
    )
    assert code == 0
    code, out, _ = run_cli(["check-design", "--design", "ff.design"], capsys)
    assert code == 0
    assert "25 elements" in out


def test_bundled_samples_round_trip_byte_identical(in_samples_tmp, capsys):
    from ekrlattice import designs

    for name in ("fano.design", "oa3.design", "oa11.design"):
        cert = designs.load_design(name)
        designs.save_design(cert, f"copy-{name}")
        assert Path(f"copy-{name}").read_bytes() == Path(name).read_bytes()


# ---------------------------------------------------------------------------
# JSON reports


def test_json_envelope_shape(in_samples_tmp, capsys):
    code, out, _ = run_cli(["ekr-check", "--design", "oa11.design", "--s", "1", "--json"], capsys)
    assert code == 0
    body = json.loads(out)
    assert body["command"] == "ekr-check"
    assert body["exit_code"] == 0
    assert body["version"] == ekrlattice.__version__
    assert body["inputs"]["design"] == "oa11.design"
    assert body["result"]["theorem_form"] is True
    assert "numeric_as_string" not in body


def test_audit_json_checks_mirror_the_audit_report(capsys):
    code, out, _ = run_cli(["audit", "--family", "johnson:v=5,m=2", "--json"], capsys)
    assert code == 0
    checks = json.loads(out)["result"]["checks"]
    report = audit(families.parse_family_spec("johnson:v=5,m=2"))
    assert [sorted(c) for c in checks] == [["cases", "counterexample", "elapsed", "id", "passed"]] * 7
    assert [(c["id"], c["passed"], c["cases"], c["counterexample"]) for c in checks] == [
        (c.check_id, c.passed, c.cases, c.counterexample) for c in report.checks
    ]
    assert all(isinstance(c["elapsed"], float) for c in checks)


def test_json_big_integers_become_strings(capsys):
    code, out, _ = run_cli(
        ["params", "--family", "grassmann:v=64,m=32,q=2", "--r", "0", "--s", "0", "--json"],
        capsys,
    )
    assert code == 0
    body = json.loads(out)
    assert body["numeric_as_string"] is True
    theta0 = body["result"]["rows"][0]["theta_r"]
    assert isinstance(theta0, str)
    assert int(theta0) > 2**63


# grassmann:v=300,m=150,q=2 has integers of more than 4,300 digits, the
# interpreter's default int-to-str limit, which the CLI lifts
G300 = "grassmann:v=300,m=150,q=2"


def run_process(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(ekrlattice.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "ekrlattice.cli", *argv], capture_output=True, env=env, timeout=60)


def test_integers_past_the_str_digit_limit_are_printed_in_full():
    proc = run_process(["enumerate", "--family", G300, "--rank", "150", "--json"])
    body = json.loads(proc.stdout)
    assert proc.returncode == 3 and body["numeric_as_string"] is True
    assert len(body["error"]["context"]["need"]) > 4300
    assert run_process(["params", "--family", G300, "--r", "0", "--s", "0"]).returncode == 0
    proc = run_process(["params", "--family", G300, "--r", "0", "--s", "0", "--json"])
    assert proc.returncode == 0 and json.loads(proc.stdout)["numeric_as_string"] is True
    # fiber sizes of fewer than 4,300 digits, a whole need of more
    proc = run_process(["audit", "--family", "grassmann:v=200,m=100,q=2", "--json"])
    assert proc.returncode == 3 and len(json.loads(proc.stdout)["error"]["context"]["fiber_sizes"]) == 101


def test_a_run_lifts_the_digit_limit_and_restores_it(default_digit_limit, capsys):
    # the report prints a need of more digits than the limit allows, and the
    # limit reads the same after a report, an error and a SystemExit
    argv = ["enumerate", "--family", G300, "--rank", "150", "--json"]
    for call in (main, cli.run):
        assert call(argv) == 3
        assert len(json.loads(capsys.readouterr().out)["error"]["context"]["need"]) > default_digit_limit
        assert sys.get_int_max_str_digits() == default_digit_limit
        assert call(["params", "--family", "johnson:v=4,m=3", "--quiet"]) == 2
        with pytest.raises(SystemExit):
            call(["--version"])
        assert sys.get_int_max_str_digits() == default_digit_limit
        capsys.readouterr()


def test_a_refusal_of_any_size_is_constructible():
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int-to-str digit limit")
    limit = sys.get_int_max_str_digits()
    need = 3**10_000 + 7
    try:
        sys.set_int_max_str_digits(0)
        digits = str(need)
        sys.set_int_max_str_digits(640)  # the least limit allowed: the CLI lifts it, a library caller may not
        message = str(BudgetExceededError("the work", need, "steps", 10))
    finally:
        sys.set_int_max_str_digits(limit)
    assert message == f"the work needs {digits} steps, above the cap of 10"


def test_json_error_envelope_carries_budget_context(tmp_path, monkeypatch, capsys):
    code, out, err = run_cli(["audit", "--family", "johnson:v=6,m=3", "--budget", "10", "--json"], capsys)
    assert code == 3
    assert err.startswith("error:")
    body = json.loads(out)
    assert body["exit_code"] == 3 and body["result"] is None
    assert body["inputs"] == {"family": "johnson:v=6,m=3", "budget": 10}
    error = body["error"]
    assert error["type"] == "BudgetExceededError"
    assert error["context"] == {"fiber_sizes": [1, 6, 15, 20], "need": 113064, "cap": 10}

    monkeypatch.chdir(tmp_path)
    Path("big.design").write_text(f"family grassmann:v=17,m=1,q=2\nstrength 0\n{G17_ROW}\n")
    code, out, _ = run_cli(["check-design", "--design", "big.design", "--json"], capsys)
    assert code == 3
    assert json.loads(out)["error"]["context"] == {"need": 131072, "cap": 65536}


@pytest.mark.parametrize(
    "argv",
    (
        ["search-max", "--s", "1"],
        ["dr", "--s", "1", "--r", "0"],
        ["ekr-check", "--s", "1"],
        ["verify-extremal", "--s", "1", "--family-file", "broken.design"],
    ),
    ids=lambda argv: argv[0],
)
def test_a_failed_reverification_carries_its_witness(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("broken.design").write_text("family johnson:v=7,m=3\nstrength 2\n1 2 3\n1 4 5\n")
    code, out, _ = run_cli(["check-design", "--design", "broken.design", "--json"], capsys)
    assert code == 1
    witness = json.loads(out)["result"]["witness"]
    assert witness == {"element_1": "1 2", "count_1": 1, "element_2": "1 6", "count_2": 0}
    code, out, err = run_cli([*argv, "--design", "broken.design", "--json"], capsys)
    error = json.loads(out)["error"]
    assert code == 1 and error["type"] == "VerificationError"
    assert error["context"] == {"witness": witness}
    assert err == f"error: {error['message']}\n"
    assert error["message"] == "not a 2-design: 1 2 is covered 1 times but 1 6 is covered 0 times"


def test_json_error_envelope_for_parse_error(capsys):
    code, out, err = run_cli(["params", "--family", "johnson:v=3,m=2", "--json"], capsys)
    assert code == 2
    body = json.loads(out)
    assert body["exit_code"] == 2 and body["result"] is None
    assert body["error"]["type"] == "ParseError" and body["error"]["context"] == {}
    assert err == f"error: {body['error']['message']}\n"


def test_threads_option_is_gone(capsys):
    # an argparse usage error exits 2 before any subcommand runs: no envelope
    with pytest.raises(SystemExit) as exc:
        main(["params", "--family", "johnson:v=4,m=2", "--threads", "2", "--json"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "--threads" in err


# ---------------------------------------------------------------------------
# golden files (byte-stable JSON payloads)

GOLDEN_CASES = {
    "params_johnson.json": ["params", "--family", "johnson:v=6,m=3", "--r", "1", "--s", "2", "--json"],
    "ekr_check_fano.json": ["ekr-check", "--design", "fano.design", "--s", "1", "--json"],
    "check_design_oa3.json": ["check-design", "--design", "oa3.design", "--json"],
    "search_max_oa3.json": [
        "search-max", "--design", "oa3.design", "--s", "1", "--deterministic", "--all", "--json",
    ],
    "dr_fano.json": ["dr", "--design", "fano.design", "--s", "1", "--r", "0", "--json"],
    "enumerate_signed.json": ["enumerate", "--family", "signed:m=3,k=2", "--rank", "2", "--json"],
    "verify_extremal_oa11.json": [
        "verify-extremal", "--design", "oa11.design", "--family-file", "star.family", "--s", "1", "--json",
    ],
    "gen_linear_oa3.json": ["gen", "--kind", "linear-oa", "--q", "3", "--m", "3", "-o", "regen3.design", "--json"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_reports(name, in_samples_tmp, capsys):
    code, out, _ = run_cli(GOLDEN_CASES[name], capsys)
    golden = (GOLDEN_DIR / name).read_text()
    assert out == golden, f"golden mismatch for {name}"


@pytest.mark.parametrize(
    "name",
    ["check_design_oa3.json", "ekr_check_fano.json", "dr_fano.json", "search_max_oa3.json", "verify_extremal_oa11.json"],
)
def test_golden_reports_do_not_depend_on_row_order(name, in_samples_tmp, capsys):
    argv = GOLDEN_CASES[name]
    design = in_samples_tmp / argv[argv.index("--design") + 1]
    family, strength, *rows = design.read_text().splitlines()
    design.write_text("\n".join([family, strength, *reversed(rows)]) + "\n")
    _, out, _ = run_cli(argv, capsys)
    assert out == (GOLDEN_DIR / name).read_text(), f"row order changed {name}"


AUDIT_GOLDEN_CASES = {"audit_grassmann.json": "grassmann:v=4,m=2,q=2", "audit_hamming.json": "hamming:m=3,n=3"}


@pytest.mark.parametrize("name", sorted(AUDIT_GOLDEN_CASES))
def test_golden_audit_reports(name, capsys):
    # every field but the per-check timing `elapsed` is byte-stable
    code, out, _ = run_cli(["audit", "--family", AUDIT_GOLDEN_CASES[name], "--json"], capsys)
    report = json.loads(out)
    for check in report["result"]["checks"]:
        check["elapsed"] = 0
    assert code == 0
    assert json.dumps(report, indent=2, sort_keys=True) + "\n" == (GOLDEN_DIR / name).read_text()


@pytest.mark.parametrize("path", sorted(GOLDEN_DIR.glob("*.json")), ids=lambda path: path.name)
def test_the_envelope_writer_rewrites_each_golden_report(path):
    text = path.read_text(encoding="utf-8")
    assert cli._dumps(json.loads(text)) + "\n" == text


# strings with every escape json writes: quotes, backslashes, control
# characters, DEL, non-ASCII and astral characters, and lone surrogates
_TEXTS = st.text(st.sampled_from('ab 1:"\\\x00\x08\x0c\n\r\t\x1f\x7f\x80\xe9\u20ac\ud800\udfff\U0001f600') | st.characters())
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.floats(0, 10).map(lambda x: round(x, 6))  # the audit's `elapsed`
    | _TEXTS
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_TEXTS, inner, max_size=4),
    max_leaves=30,
)


@given(_VALUES)
@settings(max_examples=400, deadline=None)
def test_the_envelope_writer_writes_what_json_writes(value):
    assert cli._dumps(value) == json_text(value)


@pytest.mark.parametrize("value", ({1: 0}, {"a": [{None: 0}]}, {"a": {1.5, 2}}, b"bytes"), ids=repr)
def test_the_envelope_writer_refuses_what_json_would_not_write_as_is(value):
    # json turns a non-str key into a string; a report has none
    with pytest.raises(TypeError):
        cli._dumps(value)


def test_golden_search_under_python_optimize(in_samples_tmp):
    # no check the search relies on may be an `assert` that -O strips
    env = dict(os.environ, PYTHONPATH=str(Path(ekrlattice.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "ekrlattice.cli", *GOLDEN_CASES["search_max_oa3.json"]],
        capture_output=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN_DIR / "search_max_oa3.json").read_bytes()


def test_goldens_are_stable_across_runs(in_samples_tmp, capsys):
    argv = GOLDEN_CASES["search_max_oa3.json"]
    _, first, _ = run_cli(argv, capsys)
    _, second, _ = run_cli(argv, capsys)
    assert first == second

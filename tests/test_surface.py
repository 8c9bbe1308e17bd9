"""The public surface: every exported name resolves on first use to its
home module's object, the resource limits that only the library sets are
module constants, not per-call parameters, a CLI process loads only what
its subcommand runs, and the family kinds are decided only in the registry
of `families`, which the README's kind table lists."""

from __future__ import annotations

import ast
import importlib
import inspect
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ekrlattice
from ekrlattice import designs, ekr, families, search

ROOT = Path(__file__).resolve().parents[1]

REMOVED_LIMITS = {"budget", "vertex_budget", "all_max_cap"}


def test_every_exported_name_resolves():
    assert len(ekrlattice.__all__) == len(set(ekrlattice.__all__)) == 49
    assert [name for name in ekrlattice.__all__ if not hasattr(ekrlattice, name)] == []


def test_every_export_is_its_home_modules_object_and_dir_lists_it():
    homes = {name: home for home, names in ekrlattice._HOMES.items() for name in names}
    assert ["__version__", *sorted(homes)] == ekrlattice.__all__
    for name, home in homes.items():
        assert getattr(ekrlattice, name) is getattr(importlib.import_module(f"ekrlattice.{home}"), name), name
    assert set(ekrlattice.__all__) <= set(dir(ekrlattice))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        ekrlattice.nope
    assert not hasattr(ekrlattice, "_private")


AUDIT_RUN = "ekrlattice.cli.run(['audit', '--family', 'johnson:v=4,m=2', '--quiet'])"


@pytest.mark.parametrize(
    "code",
    (
        "import ekrlattice",
        "import ekrlattice.audit",
        "from ekrlattice import audit",
        f"import ekrlattice.cli; {AUDIT_RUN}",
        # the submodule loads after the function was read: the import system rebinds the name
        "import ekrlattice; ekrlattice.audit; import ekrlattice.audit",
    ),
)
def test_the_package_audit_is_the_function_after_any_import_order(code):
    check = "import ekrlattice, sys; print(ekrlattice.audit is sys.modules['ekrlattice.audit'].audit)"
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\n{check}"], cwd=ROOT / "src", capture_output=True, text=True, check=True, timeout=60
    )
    assert proc.stdout == "True\n"


@pytest.mark.parametrize(
    "fn",
    (designs.make_certificate, designs.load_design, ekr.compute_dr, search.max_intersecting),
    ids=lambda fn: fn.__qualname__,
)
def test_no_function_takes_a_limit_the_cli_does_not_set(fn):
    assert REMOVED_LIMITS.isdisjoint(inspect.signature(fn).parameters)


def _modules_added(code: str) -> set:
    """The modules a fresh interpreter loads while it runs `code`, read off
    the last line of its stdout, below whatever `code` prints."""
    src = ROOT / "src"
    code = f"import sys\nbefore = set(sys.modules)\n{code}\nprint(' '.join(sorted(set(sys.modules) - before)))"
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=src, capture_output=True, text=True, check=True, timeout=60
    )
    return set(proc.stdout.splitlines()[-1].split())


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # each CLI run is one process, so what `import ekrlattice.cli` loads is
    # paid every time; argparse and gettext only for help, --version and
    # usage errors
    added = _modules_added("import ekrlattice.cli")
    assert "ekrlattice.cli" in added
    assert added.isdisjoint({"dataclasses", "inspect", "argparse", "gettext"})


LIBRARY = {"ekrlattice.designs", "ekrlattice.search", "ekrlattice.ekr"}


def test_cli_import_loads_only_what_every_subcommand_runs():
    added = _modules_added("import ekrlattice.cli")
    assert "ekrlattice.families" in added and added.isdisjoint({"json", *LIBRARY, "ekrlattice.audit"})


def _run_added(*argv) -> set:
    return _modules_added(f"import ekrlattice.cli as c; c.run({list(argv)!r})")


def test_an_audit_run_loads_neither_json_nor_the_design_modules():
    added = _run_added("audit", "--family", "johnson:v=4,m=2", "--json")
    assert "ekrlattice.audit" in added and added.isdisjoint({"json", *LIBRARY})


@pytest.mark.parametrize("argv", (("search-max", "--s", "1"), ("check-design",)), ids=lambda argv: argv[0])
def test_a_design_run_writes_its_envelope_without_json(argv):
    design = str(ROOT / "src" / "ekrlattice" / "samples" / "oa3.design")
    added = _run_added(*argv, "--design", design, "--json")
    assert "ekrlattice.designs" in added and "json" not in added


def test_a_plain_run_loads_no_argparse():
    plain = _modules_added("import ekrlattice.cli as c; c.run(['params', '--family', 'johnson:v=4,m=2', '--quiet'])")
    assert "ekrlattice.cli" in plain and plain.isdisjoint({"argparse", "gettext"})
    # an abbreviation is argparse's to read
    abbreviated = _modules_added("import ekrlattice.cli as c; c.run(['params', '--fam', 'johnson:v=4,m=2', '--quiet'])")
    assert {"argparse", "gettext"} <= abbreviated


def _kind_comparisons(source: str) -> list[tuple[int, list[str]]]:
    """(line, kind names) of each comparison or match pattern in the source
    that has a registered kind name among its operands, outside the
    `_KINDS = {...}` registry."""
    kinds = set(families._KINDS)
    tree = ast.parse(source)
    registry = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "_KINDS" for t in node.targets):
            registry.update(map(id, ast.walk(node)))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
        elif isinstance(node, ast.MatchValue):
            operands = [node.value]
        else:
            continue
        if id(node) in registry:
            continue
        names = {c.value for operand in operands for c in ast.walk(operand) if isinstance(c, ast.Constant)}
        if kinds & names:
            found.append((node.lineno, sorted(kinds & names)))
    return found


def test_the_kind_scan_finds_a_dispatch_on_a_kind_name():
    assert _kind_comparisons("if spec.kind in ('johnson', 'signed'):\n    pass\nx = 'hamming' != k") == [
        (1, ["johnson", "signed"]),
        (3, ["hamming"]),
    ]
    # building a spec of a kind dispatches on nothing; the registry itself may compare
    assert _kind_comparisons("spec = FamilySpec(kind='hamming', m=2, n=3)\n_KINDS = {'x': 'johnson' == k}") == []


def test_no_library_line_outside_the_registry_compares_a_kind_name():
    found = {
        path.name: hits
        for path in sorted((ROOT / "src" / "ekrlattice").glob("*.py"))
        if (hits := _kind_comparisons(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def test_the_readme_kind_table_lists_the_registry():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    table = re.search(r"^\| kind +\| elements +\| parameters +\|\n\|[-|]+\|\n((?:\|.*\|\n)+)", text, re.M)
    assert table is not None, "no kind table in the README"
    rows = [[cell.strip() for cell in line.strip("|").split("|")] for line in table.group(1).splitlines()]
    listed = {row[0].strip("`"): tuple(name.strip("`") for name in row[2].split(", ")) for row in rows}
    assert len(listed) == len(rows)
    assert listed == {kind: record.params for kind, record in families._KINDS.items()}

"""The public surface: every exported name resolves, the resource limits
that only the library sets are module constants, not per-call parameters,
and importing the CLI loads no code-generation modules."""

from __future__ import annotations

import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import ekrlattice
from ekrlattice import designs, ekr, search

REMOVED_LIMITS = {"budget", "vertex_budget", "all_max_cap"}


def test_every_exported_name_resolves():
    assert len(ekrlattice.__all__) == len(set(ekrlattice.__all__)) == 49
    assert [name for name in ekrlattice.__all__ if not hasattr(ekrlattice, name)] == []


@pytest.mark.parametrize(
    "fn",
    (designs.make_certificate, designs.load_design, ekr.compute_dr, search.max_intersecting),
    ids=lambda fn: fn.__qualname__,
)
def test_no_function_takes_a_limit_the_cli_does_not_set(fn):
    assert REMOVED_LIMITS.isdisjoint(inspect.signature(fn).parameters)


def _modules_added(code: str) -> set:
    """The modules a fresh interpreter loads while it runs `code`."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = f"import sys\nbefore = set(sys.modules)\n{code}\nprint(' '.join(sorted(set(sys.modules) - before)))"
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=src, capture_output=True, text=True, check=True, timeout=60
    )
    return set(proc.stdout.split())


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # each CLI run is one process, so what `import ekrlattice.cli` loads is
    # paid every time; argparse and gettext only for help, --version and
    # usage errors
    added = _modules_added("import ekrlattice.cli")
    assert "ekrlattice.cli" in added
    assert added.isdisjoint({"dataclasses", "inspect", "argparse", "gettext"})


def test_a_plain_run_loads_no_argparse():
    plain = _modules_added("import ekrlattice.cli as c; c.run(['params', '--family', 'johnson:v=4,m=2', '--quiet'])")
    assert "ekrlattice.cli" in plain and plain.isdisjoint({"argparse", "gettext"})
    # an abbreviation is argparse's to read
    abbreviated = _modules_added("import ekrlattice.cli as c; c.run(['params', '--fam', 'johnson:v=4,m=2', '--quiet'])")
    assert {"argparse", "gettext"} <= abbreviated

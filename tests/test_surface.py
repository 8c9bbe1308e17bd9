"""The public surface: every exported name resolves, and the resource limits
that only the library sets are module constants, not per-call parameters."""

from __future__ import annotations

import inspect

import pytest

import ekrlattice
from ekrlattice import designs, ekr, search

REMOVED_LIMITS = {"budget", "vertex_budget", "all_max_cap"}


def test_every_exported_name_resolves():
    assert len(ekrlattice.__all__) == len(set(ekrlattice.__all__)) == 52
    assert [name for name in ekrlattice.__all__ if not hasattr(ekrlattice, name)] == []


@pytest.mark.parametrize(
    "fn",
    (designs.is_design, designs.make_certificate, designs.load_design, ekr.compute_dr,
     search.build_graph, search.max_intersecting),
    ids=lambda fn: fn.__qualname__,
)
def test_no_function_takes_a_limit_the_cli_does_not_set(fn):
    assert REMOVED_LIMITS.isdisjoint(inspect.signature(fn).parameters)

"""Outside-in tracing of ekrlattice's public functions.

`install()` replaces every public function of the eight layer modules with a
wrapper, under every name a caller looks it up by (module globals such as
`search.star` or `cli.run_audit` alias functions of other modules).  Each
wrapper records, per (function, wrapped caller) pair, its calls, busy time and
self time, where self time is busy time minus the busy time of wrapped
callees.  Coarse functions also record one span (name, start, end, parent
span) per call.  Records stay in memory; `Tracer.dump` writes them once.

Generator functions are left alone: their work runs in the consumer, so a
wrapper around the call would time nothing.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time

LAYERS = ("cli", "families", "gf", "parameters", "designs", "ekr", "search", "audit")

# One span per call; everything else is aggregated only.
COARSE = frozenset(
    {
        "cli.run",
        "audit.audit",
        "designs.load_design",
        "designs.read_design_file",
        "designs.read_family_file",
        "designs.make_certificate",
        "designs.is_design",
        "designs.design_witness",
        "families._fiber",
        "search.build_graph",
        "search.greedy_lower_bound",
        "search.max_intersecting",
        "ekr.check_conditions",
        "ekr.compute_dr",
        "ekr.verify_extremal",
    }
)

# Private names wrapped anyway: audit, designs and ekr materialise fibers
# through the cached `_fiber` rather than `enumerate_fiber`.
EXTRA = {"families": ("_fiber",)}


class Tracer:
    def __init__(self):
        self.root = ["", 0.0, None]  # name, busy time of wrapped callees, span
        self.stack = [self.root]
        self.stats: dict[tuple[str, str], list] = {}  # -> [calls, busy, self]
        self.spans: list = []
        self.errors: dict[tuple[str, str], int] = {}
        self.facts: dict[str, float] = {}
        self._raised: list = []  # keeps counted exceptions alive so ids stay unique

    def add(self, key: str, amount) -> None:
        self.facts[key] = self.facts.get(key, 0) + amount

    def _error(self, name: str, exc: BaseException) -> None:
        if any(seen is exc for seen in self._raised):
            return  # counted where it was first raised
        self._raised.append(exc)
        key = (name.split(".", 1)[0], type(exc).__name__)
        self.errors[key] = self.errors.get(key, 0) + 1
        if name == "audit.audit" and type(exc).__name__ == "BudgetExceededError":
            self.add("audit.refusals", 1)

    def wrap(self, fn, name: str):
        stack, stats, spans = self.stack, self.stats, self.spans
        clock = time.perf_counter
        coarse = name in COARSE
        observe = OBSERVERS.get(name)

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            span = parent[2]
            if coarse:
                span = len(spans)
                spans.append(None)
            frame = [name, 0.0, span]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._error(name, exc)
                raise
            finally:
                busy = clock() - start
                stack.pop()
                parent[1] += busy
                key = (name, parent[0])
                rec = stats.get(key)
                if rec is None:
                    rec = stats[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += busy
                rec[2] += busy - frame[1]
                if coarse:
                    spans[span] = (name, start, start + busy, parent[2])
            if observe is not None:
                observe(self, result, busy)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def dump(self, path, **extra) -> None:
        body = {
            "stats": [[n, p, *rec] for (n, p), rec in self.stats.items()],
            "spans": self.spans,
            "errors": [[layer, kind, count] for (layer, kind), count in self.errors.items()],
            "facts": self.facts,
            **extra,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(body, fh)


def _observe_leq(tracer, result, busy):
    if result:
        tracer.add("families.leq.true", 1)


def _observe_search(tracer, result, busy):
    tracer.add("search.nodes", result.nodes)


def _observe_audit(tracer, report, busy):
    checks_s = 0.0
    for check in report.checks:
        checks_s += check.elapsed
        tracer.add(f"audit.check.{check.check_id}.s", check.elapsed)
        tracer.add("audit.cases", check.cases)
    tracer.add("audit.checks_s", checks_s)
    tracer.add("audit.setup_s", busy - checks_s)


OBSERVERS = {
    "families.leq": _observe_leq,
    "search.max_intersecting": _observe_search,
    "audit.audit": _observe_audit,
}


def _traceable(module, attr, obj) -> bool:
    if attr.startswith("_") and attr not in EXTRA.get(module.__name__.rsplit(".", 1)[-1], ()):
        return False
    if isinstance(obj, type) or not callable(obj):
        return False
    if getattr(obj, "__module__", None) != module.__name__:
        return False
    return not inspect.isgeneratorfunction(getattr(obj, "__wrapped__", obj))


def install(tracer: Tracer) -> dict[str, str]:
    """Wrap every public function of the layer modules; returns name -> layer."""
    modules = {layer: importlib.import_module(f"ekrlattice.{layer}") for layer in LAYERS}
    wrappers = {}  # id(original) -> wrapper
    names = {}
    for layer, module in modules.items():
        for attr, obj in list(vars(module).items()):
            if _traceable(module, attr, obj):
                name = f"{layer}.{attr}"
                wrappers[id(obj)] = (obj, tracer.wrap(obj, name))
                names[name] = layer
    # patch every global that refers to a wrapped function, aliases included
    for module in list(modules.values()) + [importlib.import_module("ekrlattice")]:
        for attr, obj in list(vars(module).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, attr, hit[1])
    return names

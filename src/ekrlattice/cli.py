"""Command line interface: one binary, nine subcommands, JSON reports.

Exit codes: 0 success / conditions hold, 1 verification failed / conditions
fail / bound exceeded, 2 usage or parse error, 3 budget exhausted.

JSON reports share an envelope (command, version, inputs echoing every
parsed option, result, exit_code).  An error raised while the subcommand
runs still prints the envelope in `--json` mode, with `"result": null` and
`error` holding its type, message and context (a budget error's sizes,
need and cap; a failed re-verification's witness; empty otherwise).  An
argparse usage error (unknown option, missing or malformed argument,
negative budget) exits 2 with argparse's message and no envelope.

A plain argv (a subcommand, then only its exact option strings, each valued
one with a value that does not start with `-` and that its type and choices
accept, every required option given) is read straight off `_COMMANDS`,
into the namespace argparse would give, so such a run never imports
argparse.  Every other argv builds the one parser of all nine subcommands
(`_build_parser`): `-h`, `--help`, `--version`, an abbreviation,
`--opt=value`, `--`, a negative number, a bad value, a missing option or an
unknown word.  Help text and usage errors are therefore argparse's own.

A process imports only what its subcommand runs: this module loads
`families` and `errors`, and each `_cmd_*` handler imports its own library
modules when it runs (`audit` loads no `designs`, `search` or `ekr`).
`_dumps` writes the `--json` envelope byte for byte as
`json.dumps(envelope, indent=2, sort_keys=True)` would, without the json
package.

A result mirrors the library record behind it (`ConditionReport`,
`DrReport`, `SearchResult`, `ExtremalVerdict`): one key per field, plus the
context the record lacks, such as the family.  Elements and family specs
appear in their text encodings.  Integers outside the signed 64-bit range
are emitted as decimal strings and the envelope gains
`"numeric_as_string": true`.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from . import __version__, families
from .errors import BudgetExceededError, FamilyMismatchError, NonIntegralError, ParseError, VerificationError

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


def _normalize(obj, flag: dict, texts: dict):
    """The JSON form of a report value; the one place that encodes elements,
    family specs and records.  All three are named tuples, so they are
    checked before tuples: elements and specs become their text encodings,
    each formatted once per report through `texts`, and any other record
    the dict of its fields."""
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, (families.Element, families.FamilySpec)):
        text = texts.get(obj)
        if text is None:
            text = texts[obj] = str(obj)
        return text
    if hasattr(obj, "_asdict"):
        return _normalize(obj._asdict(), flag, texts)
    if isinstance(obj, int):
        if obj > _INT64_MAX or obj < _INT64_MIN:
            flag["hit"] = True
            return str(obj)
        return obj
    if isinstance(obj, (list, tuple)):
        return [_normalize(x, flag, texts) for x in obj]
    if isinstance(obj, dict):
        return {k: _normalize(v, flag, texts) for k, v in obj.items()}
    return obj


def _envelope(command: str, inputs: dict, result: dict | None, exit_code: int, error: dict | None = None) -> dict:
    flag = {"hit": False}
    texts = {}
    body = {
        "command": command,
        "version": __version__,
        "inputs": _normalize(inputs, flag, texts),
        "result": _normalize(result, flag, texts),
        "exit_code": exit_code,
    }
    if error is not None:
        body["error"] = _normalize(error, flag, texts)
    if flag["hit"]:
        body["numeric_as_string"] = True
    return body


# json's two-character escapes; every other control character, DEL and any
# non-ASCII character is written as \uXXXX, one above U+FFFF as a surrogate pair
_ESCAPES = {'"': '\\"', "\\": "\\\\", "\b": "\\b", "\f": "\\f", "\n": "\\n", "\r": "\\r", "\t": "\\t"}
_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_CONSTANTS = {None: "null", True: "true", False: "false"}


def _escape(ch: str) -> str:
    code = ord(ch)
    if ch in _ESCAPES:
        return _ESCAPES[ch]
    if 32 <= code < 127:
        return ch
    if code > 0xFFFF:
        code -= 0x10000
        return f"\\u{0xD800 | code >> 10:04x}\\u{0xDC00 | code & 0x3FF:04x}"
    return f"\\u{code:04x}"


def _quote(text: str) -> str:
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return f'"{text}"'
    return '"' + "".join(map(_escape, text)) + '"'


def _dumps(value, indent: str = "\n") -> str:
    """`json.dumps(value, indent=2, sort_keys=True)` of a report, without
    the json package: str keys only, tuples as lists, and any other type
    than str, int, float, bool, None, list, tuple and dict a TypeError."""
    if isinstance(value, str):
        return _quote(value)
    if value is None or isinstance(value, bool):
        return _CONSTANTS[value]
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return _FLOATS.get(text, text)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        items = [_dumps(item, inner) for item in value]
        brackets = "[]"
    elif isinstance(value, dict):
        if not all(isinstance(key, str) for key in value):
            raise TypeError("a report's keys must be str")
        items = [f"{_quote(key)}: {_dumps(value[key], inner)}" for key in sorted(value)]
        brackets = "{}"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + indent + brackets[1]


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (exit_code, result, text_lines)


def _cmd_params(args):
    from . import parameters

    spec = families.parse_family_spec(args.family)
    top = spec.top_rank
    if args.r is not None and not 0 <= args.r <= top:
        raise ParseError(f"--r out of range 0..{top}")
    if args.s is not None and not 0 <= args.s <= top:
        raise ParseError(f"--s out of range 0..{top}")
    pairs = [
        (r, s)
        for r in range(top + 1)
        for s in range(r, top + 1)
        if (args.r is None or r == args.r) and (args.s is None or s == args.s)
    ]
    if not pairs:
        raise ParseError("--r/--s select no valid pair r <= s")
    rows = [
        {
            "r": r,
            "s": s,
            "mu": parameters.mu(spec, r, s),
            "nu": parameters.nu(spec, r, s),
            "theta_r": parameters.theta(spec, r),
            "alpha": parameters.alpha(spec, r, s),
        }
        for r, s in pairs
    ]
    lines = [f"family {spec} (top rank {top})"]
    lines += [
        f"r={row['r']} s={row['s']}: mu={row['mu']} nu={row['nu']} "
        f"theta(r)={row['theta_r']} alpha={row['alpha']}"
        for row in rows
    ]
    result = {"family": spec, "top_rank": top, "rows": rows}
    return 0, result, lines


def _cmd_audit(args):
    from .audit import audit

    spec = families.parse_family_spec(args.family)
    report = audit(spec, budget=args.budget)
    checks = [
        {
            "id": c.check_id,
            "passed": c.passed,
            "cases": c.cases,
            "elapsed": round(c.elapsed, 6),
            "counterexample": c.counterexample,
        }
        for c in report.checks
    ]
    lines = [f"audit {spec}"]
    for c in report.checks:
        mark = "pass" if c.passed else "FAIL"
        lines.append(f"  {c.check_id:16s} {mark}  ({c.cases} cases)")
        if c.counterexample:
            lines.append(f"    counterexample: {c.counterexample}")
    lines.append("all checks passed" if report.passed else "AUDIT FAILED")
    code = 0 if report.passed else 1
    result = {"family": spec, "passed": report.passed, "checks": checks}
    return code, result, lines


def _cmd_enumerate(args):
    spec = families.parse_family_spec(args.family)
    elements = families.enumerate_fiber(spec, args.rank)
    result = {"family": spec, "rank": args.rank, "count": len(elements), "elements": elements}
    lines = [str(x) for x in elements] + [f"count {len(elements)}"]
    return 0, result, lines


def _cmd_gen(args):
    from . import designs

    if args.kind == "full-fiber":
        if not args.family:
            raise ParseError("gen --kind full-fiber requires --family")
        spec = families.parse_family_spec(args.family)
        cert = designs.full_fiber(spec, t=args.strength)
    else:
        if args.q is None or args.m is None:
            raise ParseError("gen --kind linear-oa requires --q and --m")
        cert = designs.generate_linear_oa(args.q, args.m)
    designs.save_design(cert, args.output)
    result = {
        "kind": args.kind,
        "family": cert.spec,
        "strength": cert.strength,
        "size": cert.size,
        "indices": list(cert.indices),
        "path": args.output,
    }
    lines = [f"wrote {cert.size} elements ({cert.spec}, strength {cert.strength}) to {args.output}"]
    return 0, result, lines


def _cmd_check_design(args):
    from . import designs

    spec, declared, elements = designs.read_design_file(args.design)
    t = args.strength if args.strength is not None else declared
    result = {"family": spec, "strength": t, "size": len(elements)}
    try:
        cert = designs.make_certificate(spec, elements, t)
    except VerificationError as exc:
        witness = exc.context["witness"]
        z1, c1, z2, c2 = witness.values()
        result.update(verified=False, witness=witness)
        return 1, result, [f"NOT a {t}-design: {z1} covered {c1} times, {z2} covered {c2} times"]
    indices = list(cert.indices)
    result.update(verified=True, indices=indices)
    lines = [
        f"{args.design}: {spec}, {len(elements)} elements, verified strength {t}, "
        f"indices {indices}"
    ]
    return 0, result, lines


def _load_cert(args, check):
    """The design of `--design`, verified, at the strength `--t` when given.
    `check(spec, t)` refuses the other ranges at that strength first, and
    `--t` is checked against the declared strength, both before the
    coverage pass, as `search-max` refuses a bad `--s`."""
    from . import designs

    spec, strength, elements = designs.read_design_file(args.design)
    t = getattr(args, "t", None)
    if t is not None:
        designs.check_strength(t, strength)
    check(spec, strength if t is None else t)
    cert = designs.make_certificate(spec, elements, strength)
    return cert if t is None else designs.restrict_strength(cert, t)


def _cmd_ekr_check(args):
    from . import ekr

    cert = _load_cert(args, lambda spec, t: ekr.check_condition_range(args.s, t))
    report = ekr.check_conditions(cert, args.s)
    result = report._asdict()
    result["family"] = result.pop("spec")
    result["design_size"] = cert.size
    lines = [f"{cert.spec}: design of {cert.size} elements, s={report.s}, t={report.t}, bound lambda_s={report.bound}"]
    for row in report.rows:
        op = "<" if row.holds else ">="
        lines.append(
            f"  r={row.r} [{'+'.join(row.conditions)}] {row.lhs} {op} {row.rhs}"
            f"  (theta form: {row.theta_lhs} {op} {row.theta_rhs})"
        )
    if report.cond1_vacuous:
        lines.append("  cond1 range is empty (2s-t < 0)")
    lines.append(f"theorem conditions {'hold' if report.theorem_form else 'FAIL'}")
    lines.append(
        f"printed remark form: {report.remark_form}"
        + ("" if report.remark_agrees else "  (DISAGREES with the raw conditions)")
    )
    lines.append(
        f"closed-form threshold: {report.table1_form}"
        + ("" if report.table1_agrees else "  (DISAGREES with the raw conditions)")
    )
    code = 0 if report.theorem_form else 1
    return code, result, lines


def _cmd_dr(args):
    from . import ekr

    cert = _load_cert(args, lambda spec, t: ekr.check_dr_range(spec, args.r, args.s, t))
    report = ekr.compute_dr(cert, args.s, args.r)
    result = report._asdict()
    result["family"] = cert.spec
    result["within_bound"] = None if report.d_r is None else report.d_r <= report.bound
    if report.witness is not None:
        result["witness"] = dict(zip("xy", report.witness))
    if report.d_r is None:
        lines = [f"d_{report.r}: no pair attains meet rank {report.r}; bound {report.bound}"]
    else:
        x, y = report.witness
        lines = [f"d_{report.r} = {report.d_r} (bound {report.bound}, witness x={x}, y={y})"]
    return 0, result, lines


def _cmd_search_max(args):
    from . import designs, search

    spec, strength, elements = designs.read_design_file(args.design)
    search.check_graph(spec, args.s, len(elements))  # before the coverage pass
    cert = designs.make_certificate(spec, elements, strength)
    result_obj = search.max_intersecting(
        cert,
        args.s,
        deterministic=args.deterministic,
        enumerate_all=args.all,
        node_budget=args.node_budget,
    )
    result = {"family": cert.spec, "s": args.s, "design_size": cert.size, **result_obj._asdict()}
    lines = [
        f"maximum {args.s}-intersecting family size: {result_obj.optimum} "
        f"({result_obj.status}, {result_obj.nodes} nodes, {result_obj.orbits} orbits)",
        "witness: " + "; ".join(map(str, result_obj.witness)),
    ]
    if result_obj.all_max is not None:
        lines.append(f"maximum families: {len(result_obj.all_max)}")
    if result_obj.all_max_overflow:
        lines.append("maximum-family enumeration overflowed the cap; list omitted")
    code = 0 if result_obj.status == "proved-optimal" else 3
    return code, result, lines


def _cmd_verify_extremal(args):
    from . import designs, ekr

    cert = _load_cert(args, lambda spec, t: ekr.check_extremal_range(spec, args.s, t))
    spec, members = designs.read_family_file(args.family_file, cert.spec)
    if spec != cert.spec:
        raise ParseError(
            f"family file spec {spec} does not match design spec {cert.spec}"
        )
    verdict = ekr.verify_extremal(cert, members, args.s)
    result = {"family": cert.spec, "s": args.s, **verdict._asdict()}
    line = f"family of {verdict.size} vs bound {verdict.bound}: {verdict.status}"
    if verdict.center is not None:
        line += f" (center {verdict.center})"
    code = 1 if verdict.status == "exceeds-bound" else 0
    return code, result, [line]


# ---------------------------------------------------------------------------


def _budget(text: str) -> int:
    """argparse type of --budget and --node-budget: an integer of at least 0."""
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    import argparse

    raise argparse.ArgumentTypeError(f"expected an integer of at least 0, got {text!r}")


# the options every subcommand takes, ahead of its own
_COMMON = (
    ("--json", {"action": "store_true", "help": "emit a JSON report on stdout"}),
    ("--quiet", {"action": "store_true", "help": "suppress the human-readable report"}),
)

# each subcommand: its help line and its options, each option its flags, the
# long one last, and then its keywords to `add_argument`; every subcommand
# runs `_cmd_<name>` with its dashes as underscores
_COMMANDS = {
    "params": (
        "print the mu/nu/theta/alpha table",
        ("--family", {"required": True, "help": "family spec, e.g. johnson:v=7,m=3"}),
        ("--r", {"type": int, "default": None}),
        ("--s", {"type": int, "default": None}),
    ),
    "audit": (
        "exhaustively verify the regularity axioms",
        ("--family", {"required": True}),
        ("--budget", {"type": _budget, "default": families.DEFAULT_BUDGET}),
    ),
    "enumerate": (
        "list one fiber in canonical order",
        ("--family", {"required": True}),
        ("--rank", {"type": int, "required": True}),
    ),
    "gen": (
        "generate a design file",
        ("--kind", {"choices": ("full-fiber", "linear-oa"), "required": True}),
        ("--family", {"help": "family spec (full-fiber)"}),
        ("--strength", {"type": int, "default": None, "help": "declared strength (full-fiber; default top rank)"}),
        ("--q", {"type": int, "default": None, "help": "prime alphabet size (linear-oa)"}),
        ("--m", {"type": int, "default": None, "help": "word length (linear-oa)"}),
        ("-o", "--output", {"required": True}),
    ),
    "check-design": (
        "re-verify a design file",
        ("--design", {"required": True}),
        ("--strength", {"type": int, "default": None, "help": "verify at this strength instead of the declared one"}),
    ),
    "ekr-check": (
        "evaluate the bound's hypotheses",
        ("--design", {"required": True}),
        ("--s", {"type": int, "required": True}),
        ("--t", {"type": int, "default": None, "help": "use this strength (default: certificate strength)"}),
    ),
    "dr": (
        "exact d_r statistic with its bound",
        ("--design", {"required": True}),
        ("--s", {"type": int, "required": True}),
        ("--r", {"type": int, "required": True}),
        ("--t", {"type": int, "default": None}),
    ),
    "search-max": (
        "exact maximum s-intersecting family",
        ("--design", {"required": True}),
        ("--s", {"type": int, "required": True}),
        ("--all", {"action": "store_true", "help": "enumerate every maximum family"}),
        ("--deterministic", {"action": "store_true", "help": "lexicographically least witness"}),
        ("--node-budget", {"type": _budget, "default": None}),
    ),
    "verify-extremal": (
        "classify a family against the bound",
        ("--design", {"required": True}),
        ("--family-file", {"required": True}),
        ("--s", {"type": int, "required": True}),
    ),
}


def _build_parser():
    """The `argparse.ArgumentParser` of all nine subcommands."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="ekrlattice",
        description="Exact designs, regularity audits, and intersection bounds in ranked meet-semilattices.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, *options) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for *flags, keywords in (*_COMMON, *options):
            p.add_argument(*flags, **keywords)
    return parser


def _plain_args(argv: list) -> dict | None:
    """`vars(_build_parser().parse_args(argv))` for a plain argv (see the
    module docstring), read off `_COMMANDS` without argparse; None for any
    other argv, which argparse must parse."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    command = argv[0]
    fields = {"command": command}
    by_flag = {}
    required = set()
    for *flags, keywords in (*_COMMON, *_COMMANDS[command][1:]):
        dest = flags[-1][2:].replace("-", "_")
        fields[dest] = keywords.get("default", False if "action" in keywords else None)
        by_flag.update(dict.fromkeys(flags, (dest, keywords)))
        if keywords.get("required"):
            required.add(dest)
    words = iter(argv[1:])
    for word in words:
        if word not in by_flag:
            return None
        dest, keywords = by_flag[word]
        if "action" in keywords:  # store_true
            fields[dest] = True
            continue
        value = next(words, "-")  # a missing value declines as a dashed one does
        if value.startswith("-"):
            return None
        try:
            value = keywords.get("type", str)(value)
        except Exception:  # argparse calls the type again and reports its refusal
            return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        fields[dest] = value
        required.discard(dest)
    if required:
        return None
    return fields


# handled exceptions and their exit codes; anything else, a ValueError
# included, is a bug and propagates
_EXIT_CODES = {
    ParseError: 2,
    FamilyMismatchError: 2,
    OSError: 2,
    VerificationError: 1,
    NonIntegralError: 1,
    BudgetExceededError: 3,
}


def run(argv=None) -> int:
    """Parse argv, run one subcommand, print its report, return the exit code.
    A plain argv builds no parser; any other argv builds the full one.  The
    interpreter's int-to-str digit limit is lifted while it runs, so every
    integer is read and printed in full, and restored when it returns."""
    lift = hasattr(sys, "set_int_max_str_digits")  # from 3.10.7 on, str(int) stops at 4,300 digits
    if lift:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        fields = _plain_args(argv)
        if fields is None:
            fields = vars(_build_parser().parse_args(argv))
        args = SimpleNamespace(**fields)
        # the inputs echo is every option the subcommand parsed
        inputs = {k: v for k, v in fields.items() if k not in ("command", "json", "quiet")}
        error = None
        try:
            code, result, lines = globals()["_cmd_" + args.command.replace("-", "_")](args)
        except tuple(_EXIT_CODES) as exc:
            code = next(c for kind, c in _EXIT_CODES.items() if isinstance(exc, kind))
            print(f"error: {exc}", file=sys.stderr)
            result, lines = None, []
            error = {"type": type(exc).__name__, "message": str(exc), "context": getattr(exc, "context", {})}
        if args.json:
            print(_dumps(_envelope(args.command, inputs, result, code, error)))
        elif not args.quiet:
            for line in lines:
                print(line)
        return code
    finally:
        if lift:
            sys.set_int_max_str_digits(limit)


def main(argv=None) -> int:
    """Run one subcommand and return its exit code; argparse's `--help`,
    `--version` and usage errors raise `SystemExit`."""
    return run(argv)


class _Stdout:
    """The process's stdout: once its reader has gone away (`... | head`),
    the rest of the report is dropped quietly and the exit code is still
    the subcommand's own."""

    def __init__(self, stream):
        self.stream = stream

    def __getattr__(self, name):
        return getattr(self.stream, name)

    def write(self, text: str) -> int:
        try:
            return self.stream.write(text)
        except BrokenPipeError:
            return len(text)


def entry() -> None:
    """The process entry of `python -m ekrlattice.cli` and the `ekrlattice`
    script.  It runs `main`, flushes stdout and stderr and ends the process
    with `os._exit`, skipping the interpreter's teardown, which costs more
    than most searches.  argparse's `SystemExit` gives the code: 0 for
    `--help` and `--version`, 2 for a usage error.  A bug's exception
    propagates, so Python prints its traceback and exits 1."""
    sys.stdout = _Stdout(sys.stdout)
    try:
        code = main()
    except SystemExit as exc:
        code = exc.code
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except BrokenPipeError:
            pass
    os._exit(code)


if __name__ == "__main__":
    entry()

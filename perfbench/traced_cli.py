"""Run one ekrlattice CLI command with the tracer installed.

Usage: python traced_cli.py TRACE_OUT.json -- <ekrlattice arguments>

Behaves like `python -m ekrlattice.cli <arguments>` (same stdout, stderr and
exit code) and writes the trace records to TRACE_OUT.json when the command
ends.  The package is imported before anything else so that `t_imported`
marks the end of interpreter start and package import.
"""

import sys
import time

t_enter = time.perf_counter()
import ekrlattice.cli  # noqa: E402

t_imported = time.perf_counter()

from tracer import Tracer, install  # noqa: E402


def main() -> int:
    out_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py TRACE_OUT.json -- <ekrlattice arguments>")
    tracer = Tracer()
    install(tracer)
    code = None
    try:
        code = ekrlattice.cli.run(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(out_path, t_enter=t_enter, t_imported=t_imported, exit_code=code)
    return code


if __name__ == "__main__":
    sys.exit(main())

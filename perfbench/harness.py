"""Run a workload's CLI jobs as fresh processes, check them, and measure.

Every job is one `python -m ekrlattice.cli` process, run one at a time and
timed from spawn to exit, because each CLI user pays the interpreter start,
the package import and cold caches on every call.  A `reference.py` process
runs before each job and after the last; `*_ref` metrics divide each job's
time by the mean of the two reference times around it.  Peak memory
comes from the child's `ru_maxrss` via `os.wait4`.  Every job's output is
checked against the workload's oracle and its witness re-verified through the
public API; a failed check counts in `failed` and does not stop the run.

The traced run (`trace_workload`) runs each job twice more, plainly and
through `traced_cli.py`, and derives the per-layer metrics from the trace
records.  End-to-end metrics come only from untraced runs.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from tracer import LAYERS
from workloads import Job, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCE = HERE / "reference.py"

JOB_TIMEOUT_S = 120
SETUP_REPEATS = 3
AUDIT_CHECKS = (
    "semilattice-glb",
    "rank-function",
    "mu-constant",
    "nu-constant",
    "theta-constant",
    "alpha-lemma",
    "join-rank",
)

# (name, unit); the end-to-end group sums are null on a workload without such
# jobs.  `*_ref` metrics are in multiples of the reference process's time.
END_TO_END = (
    ("wall_ref", "x_ref"),
    ("search_max_ref", "x_ref"),
    ("wall_s", "s"),
    ("search_max_s", "s"),
    ("audit_s", "s"),
    ("dr_s", "s"),
    ("design_check_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("reference_s", "s"),
    ("jobs_attempted", "count"),
    ("jobs_failed", "count"),
)


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, a failing set-up step)."""


# ---------------------------------------------------------------------------
# child processes


@dataclass
class Proc:
    code: int
    wall: float
    rss_kib: int
    stdout: str
    stderr: str
    timed_out: bool
    t_spawn: float


def child_env() -> dict:
    """The caller's environment minus anything that steers Python or the CLI.

    Dropping EKR_LATTICE_THREADS leaves the CLI's default of one thread.
    """
    env = {k: v for k, v in os.environ.items() if k != "EKR_LATTICE_THREADS" and not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv, env, tmp: Path, timeout: float = JOB_TIMEOUT_S) -> Proc:
    """Run argv to completion; wall time is spawn to reaped exit."""
    out_path, err_path = tmp / "stdout", tmp / "stderr"
    killed = []

    def kill():
        killed.append(True)
        proc.kill()

    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env, cwd=tmp)
        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(
        code=proc.returncode,
        wall=wall,
        rss_kib=usage.ru_maxrss,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        timed_out=bool(killed),
        t_spawn=start,
    )


def cli_argv(args) -> list[str]:
    return [sys.executable, "-m", "ekrlattice.cli", *args]


def traced_argv(trace_out: Path, args) -> list[str]:
    return [sys.executable, str(HERE / "traced_cli.py"), str(trace_out), "--", *args]


# ---------------------------------------------------------------------------
# preparation


def require_source() -> None:
    if not (SRC / "ekrlattice" / "cli.py").is_file():
        raise BenchError(f"no ekrlattice source tree at {SRC}")


def warm_import(env, tmp: Path) -> None:
    """Untimed first import, so bytecode caches exist as after an install."""
    proc = spawn([sys.executable, "-c", "import ekrlattice.cli as c; print(c.__file__)"], env, tmp)
    where = Path(proc.stdout.strip() or ".").resolve()
    if proc.code != 0 or SRC.resolve() not in where.parents:
        raise BenchError(f"ekrlattice does not import from {SRC}: {proc.stderr.strip() or where}")


def shuffle_rows(path: Path, rng: random.Random) -> None:
    """Shuffle a design or family file's element rows; the header stays first."""
    lines = path.read_text(encoding="utf-8").splitlines()
    head = [x for x in lines if x.startswith(("family ", "strength ", "#"))]
    rows = [x for x in lines if x and not x.startswith(("family ", "strength ", "#"))]
    rng.shuffle(rows)
    path.write_text("\n".join(head + rows) + "\n", encoding="utf-8")


def prepare(workload: Workload, rng: random.Random, env, work: Path, repeats: int) -> tuple[list[float], dict]:
    """Generate the designs `repeats` times; returns set-up times and file paths.

    One set-up is a cold `ekrlattice --version` process plus the `gen`
    processes.  Row shuffling and star files are written afterwards, untimed.
    """
    times = []
    for k in range(repeats):
        out = work / f"setup{k}"
        out.mkdir()
        proc = spawn(cli_argv(["--version"]), env, out)
        if proc.code != 0 or not proc.stdout.startswith("ekrlattice"):
            raise BenchError(f"ekrlattice --version failed: {proc.stderr.strip()}")
        total = proc.wall
        for design in workload.designs:
            proc = spawn(cli_argv(["gen", *design.gen, "-o", str(out / f"{design.name}.design")]), env, out)
            if proc.code != 0:
                raise BenchError(f"gen {design.name} failed: {proc.stderr.strip()}")
            total += proc.wall
        times.append(total)
    files = {}
    for design in workload.designs:
        files[design.name] = work / "setup0" / f"{design.name}.design"
        shuffle_rows(files[design.name], rng)
    for star in workload.stars:
        rows = files[star.design].read_text(encoding="utf-8").splitlines()
        members = [x for x in rows if x.startswith(star.prefix)]
        files[star.name] = work / "setup0" / f"{star.name}.family"
        files[star.name].write_text("\n".join([f"family {star.family}", *members]) + "\n", encoding="utf-8")
        shuffle_rows(files[star.name], rng)
    return times, files


def job_args(job: Job, files: dict) -> list[str]:
    return [str(files[a[1:]]) if a.startswith("@") else a for a in job.argv]


# ---------------------------------------------------------------------------
# the output oracle


def _ekrlattice():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ekrlattice.designs
    import ekrlattice.ekr
    import ekrlattice.families

    return ekrlattice


def report_result(stdout: str):
    """The `result` object of a `--json` report, or None."""
    try:
        return json.loads(stdout)["result"]
    except (ValueError, KeyError, TypeError):
        return None


def checked_fields(job: Job, result) -> dict:
    """The values of the fields the oracle checks, as the job reported them."""
    out = {}
    for key in job.expect:
        if key == "exit":
            continue
        if key == "all_max_count":
            out[key] = None if result.get("all_max") is None else len(result["all_max"])
        else:
            out[key] = result.get(key)
    return out


def _normal(value):
    return list(value) if isinstance(value, tuple) else value


def recheck_witness(job: Job, result, files: dict, design_cache: dict) -> list[str]:
    """The witness is a subset of the design, s-intersecting, of optimum size."""
    lib = _ekrlattice()
    s = int(job.argv[job.argv.index("--s") + 1])
    path = files[job.argv[job.argv.index("--design") + 1][1:]]
    if path not in design_cache:
        design_cache[path] = frozenset(lib.designs.read_design_file(path)[2])
    spec = lib.families.parse_family_spec(result["family"])
    members = tuple(lib.families.parse_element(spec, text) for text in result["witness"])
    problems = []
    if len(set(members)) != len(members) or len(members) != result["optimum"]:
        problems.append(f"witness has {len(set(members))} distinct members, optimum is {result['optimum']}")
    if not set(members) <= design_cache[path]:
        problems.append("witness is not a subset of the design")
    if lib.ekr.min_meet_rank(spec, members) < s:
        problems.append(f"witness is not {s}-intersecting")
    return problems


def check(job: Job, proc: Proc, files: dict, design_cache: dict) -> list[str]:
    """Problems with one job's output; empty when it is correct."""
    if proc.timed_out:
        return [f"timed out after {JOB_TIMEOUT_S} s"]
    problems = []
    if proc.code != job.expect["exit"]:
        problems.append(f"exit code {proc.code}, expected {job.expect['exit']}: {proc.stderr.strip()[-200:]}")
    if set(job.expect) == {"exit"}:
        return problems
    result = report_result(proc.stdout)
    if result is None:
        return problems + ["no JSON report on stdout"]
    for key, got in checked_fields(job, result).items():
        want = _normal(job.expect[key])
        if got != want:
            problems.append(f"{key} = {got!r}, expected {want!r}")
    if job.command == "search-max" and result.get("witness") is not None:
        try:
            problems += recheck_witness(job, result, files, design_cache)
        except ValueError as exc:  # ParseError and FamilyMismatchError are ValueErrors
            problems.append(f"witness does not parse: {exc}")
    return problems


def comparable_result(stdout: str) -> str | None:
    """The report's `result` as canonical JSON, without the audit's timings."""
    result = report_result(stdout)
    if result is None:
        return None
    for c in result.get("checks") or ():
        c.pop("elapsed", None)
    return json.dumps(result, sort_keys=True)


# ---------------------------------------------------------------------------
# runs


@dataclass
class Execution:
    job: Job
    proc: Proc
    problems: list[str]
    traced: bool = False
    ref: float | None = None  # mean of the reference times just before and after


@dataclass
class RunLog:
    workload: Workload
    seed: int
    setup_times: list[float] = field(default_factory=list)
    executions: list[Execution] = field(default_factory=list)
    rounds: int = 0
    sequence: list = field(default_factory=list)  # ("ref" or job name, wall), in run order
    traces: list = field(default_factory=list)  # (job, trace dict, t_spawn)

    @property
    def refs(self) -> list[float]:
        return [wall for name, wall in self.sequence if name == "ref"]

    @property
    def attempted(self) -> int:
        return len(self.executions)

    @property
    def failed(self) -> int:
        return sum(1 for e in self.executions if e.problems)


@contextmanager
def _prepared_run(workload: Workload, seed: int, setup_repeats: int):
    """Checked source, warm caches and generated inputs in a scratch directory."""
    require_source()
    rng = random.Random(seed)
    log = RunLog(workload, seed)
    work = WORK / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env()
    try:
        warm_import(env, work)
        log.setup_times, files = prepare(workload, rng, env, work, setup_repeats)
        yield log, rng, env, work, files
    finally:
        shutil.rmtree(work, ignore_errors=True)


def reference(log: RunLog, env, work: Path) -> None:
    proc = spawn([sys.executable, str(REFERENCE)], env, work)
    if proc.code != 0:
        raise BenchError(f"reference process failed: {proc.stderr.strip()}")
    log.sequence.append(("ref", proc.wall))


def run_workload(workload: Workload, seed: int, seconds: float) -> RunLog:
    """Untraced run: set up, then whole rounds of the job list until `seconds` pass.

    A reference process runs before every job and once after the last.  The
    run's sequence of times is left in `.perfbench/last-run-<workload>.json`.
    """
    with _prepared_run(workload, seed, SETUP_REPEATS) as (log, rng, env, work, files):
        cache: dict = {}
        start = time.perf_counter()
        while log.rounds == 0 or time.perf_counter() - start < seconds:
            jobs = list(workload.jobs)
            rng.shuffle(jobs)
            for job in jobs:
                reference(log, env, work)
                proc = spawn(cli_argv(job_args(job, files)), env, work)
                log.executions.append(Execution(job, proc, check(job, proc, files, cache)))
                log.sequence.append((job.name, proc.wall))
            log.rounds += 1
        reference(log, env, work)
        refs = log.refs
        for i, e in enumerate(log.executions):
            e.ref = (refs[i] + refs[i + 1]) / 2
        (WORK / f"last-run-{workload.name}.json").write_text(json.dumps(log.sequence), encoding="utf-8")
    return log


def trace_workload(workload: Workload, seed: int) -> RunLog:
    """Traced run: each job plainly and traced, alternating which goes first.

    The spans of every job are left in `.perfbench/last-trace-<workload>.json`.
    """
    with _prepared_run(workload, seed, 1) as (log, rng, env, work, files):
        cache: dict = {}
        jobs = list(workload.jobs)
        rng.shuffle(jobs)
        trace_path = work / "trace.json"
        for i, job in enumerate(jobs):
            args = job_args(job, files)
            pair = {}
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                trace_path.unlink(missing_ok=True)
                proc = spawn(traced_argv(trace_path, args) if traced else cli_argv(args), env, work)
                problems = check(job, proc, files, cache)
                if traced:
                    if trace_path.is_file():
                        log.traces.append((job, json.loads(trace_path.read_text(encoding="utf-8")), proc.t_spawn))
                    else:
                        problems.append("traced run wrote no trace")
                pair[traced] = (proc, problems)
            plain, traced_out = comparable_result(pair[False][0].stdout), comparable_result(pair[True][0].stdout)
            if plain != traced_out:
                pair[True][1].append("traced result differs from the untraced one")
            for traced, (proc, problems) in pair.items():
                log.executions.append(Execution(job, proc, problems, traced))
        log.rounds = 1
        spans = [{"job": job.name, "spans": trace["spans"]} for job, trace, _ in log.traces]
        (WORK / f"last-trace-{workload.name}.json").write_text(json.dumps(spans), encoding="utf-8")
    return log


# ---------------------------------------------------------------------------
# metrics


def end_to_end(log: RunLog) -> dict:
    """name -> (value or None, unit); timings are per-job means over rounds.

    Means, not medians: with the two to five rounds a run holds, the mean
    spread less from run to run in interleaved runs on a noisy 2-core host.
    """
    walls: dict[str, list[float]] = {}
    ratios: dict[str, list[float]] = {}
    for e in log.executions:
        walls.setdefault(e.job.name, []).append(e.proc.wall)
        ratios.setdefault(e.job.name, []).append(e.proc.wall / e.ref)
    per_job = {name: statistics.fmean(v) for name, v in walls.items()}
    per_job_ref = {name: statistics.fmean(v) for name, v in ratios.items()}
    search_jobs = [j.name for j in log.workload.jobs if j.command == "search-max"]
    values = {
        "wall_ref": sum(per_job_ref.values()),
        "search_max_ref": sum(per_job_ref[name] for name in search_jobs) if search_jobs else None,
        "reference_s": statistics.fmean(log.refs),
        "wall_s": sum(per_job.values()),
        "setup_s": statistics.median(log.setup_times),
        "peak_rss_mib": max(e.proc.rss_kib for e in log.executions) / 1024,
        "jobs_attempted": log.attempted,
        "jobs_failed": log.failed,
    }
    for group in ("search_max_s", "audit_s", "dr_s", "design_check_s"):
        times = [per_job[j.name] for j in log.workload.jobs if j.group == group]
        values[group] = sum(times) if times else None
    return {name: (values[name], unit) for name, unit in END_TO_END}


class _Stats:
    """Trace records summed over every traced job of a run."""

    def __init__(self, traces):
        self.rows: dict[tuple[str, str], list] = {}
        self.facts: dict[str, float] = {}
        self.errors: dict[str, int] = {layer: 0 for layer in LAYERS}
        self.error_types: dict[str, int] = {}
        for _, trace, _ in traces:
            for name, parent, calls, busy, self_ in trace["stats"]:
                rec = self.rows.setdefault((name, parent), [0, 0.0, 0.0])
                rec[0] += calls
                rec[1] += busy
                rec[2] += self_
            for key, value in trace["facts"].items():
                self.facts[key] = self.facts.get(key, 0) + value
            for layer, kind, count in trace["errors"]:
                self.errors[layer] += count
                self.error_types[f"{layer}.{kind}"] = self.error_types.get(f"{layer}.{kind}", 0) + count

    def calls(self, *names) -> int:
        return sum(r[0] for (n, _), r in self.rows.items() if n in names)

    def busy(self, *names) -> float:
        """Busy time of calls into `names` from outside them (no double counting)."""
        return sum(r[1] for (n, p), r in self.rows.items() if n in names and p not in names)

    def self_time(self, *names) -> float:
        return sum(r[2] for (n, _), r in self.rows.items() if n in names)

    def layer_names(self, layer) -> list[str]:
        return [n for n, _ in self.rows if n.split(".", 1)[0] == layer]


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else None


def per_layer(log: RunLog) -> dict:
    """name -> (value or None, unit), from the traced run's records."""
    st = _Stats(log.traces)
    plain = sum(e.proc.wall for e in log.executions if not e.traced)
    traced = sum(e.proc.wall for e in log.executions if e.traced)
    search_wall = sum(e.proc.wall for e in log.executions if e.traced and e.job.command == "search-max")
    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    for prim in ("meet", "leq", "join_bounded"):
        name = f"families.{prim}"
        put(f"{name}.calls", st.calls(name), "count")
        put(f"{name}.s", st.busy(name), "s")
        put(f"{name}.us_per_call", _ratio(st.busy(name), st.calls(name), 1e6), "us")
    put("families.leq.true_ratio", _ratio(st.facts.get("families.leq.true", 0), st.calls("families.leq")), "ratio")
    put("families.enumerate_fiber.s", st.busy("families.enumerate_fiber", "families._fiber"), "s")
    put("families.parse_element.calls", st.calls("families.parse_element"), "count")
    put("families.parse_element.s", st.busy("families.parse_element"), "s")
    gf = st.layer_names("gf")
    put("gf.calls", st.calls(*gf), "count")
    put("gf.s", st.busy(*gf), "s")
    put("gf.rref.calls", st.calls("gf.rref"), "count")
    put("gf.rref.s", st.busy("gf.rref"), "s")
    params = st.layer_names("parameters")
    put("parameters.calls", st.calls(*params), "count")
    put("parameters.s", st.busy(*params), "s")
    put("designs.load_design.s", st.busy("designs.load_design"), "s")
    put("designs.is_design.s", st.busy("designs.is_design"), "s")
    put("designs.is_design.self_s", st.self_time("designs.is_design"), "s")
    put("designs.star.calls", st.calls("designs.star"), "count")
    put("designs.star.s", st.busy("designs.star"), "s")
    nodes = st.facts.get("search.nodes", 0)
    bnb = st.self_time("search.max_intersecting")
    put("search.nodes", int(nodes), "count")
    put("search.bnb_self_s", bnb, "s")
    put("search.us_per_node", _ratio(bnb, nodes, 1e6), "us")
    for fn in ("max_intersecting", "greedy_lower_bound", "build_graph"):
        put(f"search.{fn}.s", st.busy(f"search.{fn}"), "s")
    put("search.build_graph.self_s", st.self_time("search.build_graph"), "s")
    put("ekr.calls", st.calls(*st.layer_names("ekr")), "count")
    put("ekr.compute_dr.s", st.busy("ekr.compute_dr"), "s")
    put("ekr.compute_dr.self_s", st.self_time("ekr.compute_dr"), "s")
    put("ekr.check_conditions.s", st.busy("ekr.check_conditions"), "s")
    put("ekr.verify_extremal.s", st.busy("ekr.verify_extremal"), "s")
    put("audit.calls", st.calls("audit.audit"), "count")
    put("audit.s", st.busy("audit.audit"), "s")
    put("audit.setup_s", st.facts.get("audit.setup_s", 0.0), "s")
    put("audit.checks_s", st.facts.get("audit.checks_s", 0.0), "s")
    for check_id in AUDIT_CHECKS:
        put(f"audit.check.{check_id}.s", st.facts.get(f"audit.check.{check_id}.s", 0.0), "s")
    put("audit.cases", int(st.facts.get("audit.cases", 0)), "count")
    put("audit.refusals", int(st.facts.get("audit.refusals", 0)), "count")
    put("cli.start_s", sum(t["t_imported"] - t_spawn for _, t, t_spawn in log.traces), "s")
    put("cli.run.self_s", st.self_time("cli.run"), "s")
    for layer in LAYERS:
        put(f"{layer}.self_s", st.self_time(*st.layer_names(layer)), "s")
        put(f"{layer}.errors", st.errors[layer], "count")
    for kind, count in sorted(st.error_types.items()):
        put(f"errors.{kind}", count, "count")
    put("trace.wall_s", traced, "s")
    put("trace.overhead_s", traced - plain, "s")
    # the shares the workload split is judged by, all of traced time
    put("share.bnb_of_search_max", _ratio(bnb, search_wall, 100), "%")
    put("share.bnb_of_max_intersecting", _ratio(bnb, st.busy("search.max_intersecting"), 100), "%")
    put("share.meet_leq_of_wall", _ratio(st.busy("families.meet") + st.busy("families.leq"), traced, 100), "%")
    put("share.bnb_of_wall", _ratio(bnb, traced, 100), "%")
    return m


# ---------------------------------------------------------------------------
# metadata


def git_commit() -> str:
    """HEAD of the checkout's git repository, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(log: RunLog, trace: int) -> dict:
    return {
        "workload": log.workload.name,
        "seed": log.seed,
        "trace": trace,
        "rounds": log.rounds,
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "commit": git_commit(),
    }

"""End-to-end and per-layer benchmark of the `bct` command-line program.

    python3 perfbench/run.py --workload {table,ladder,verify} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from `src/`.
Commands run serially, one fresh interpreter each (`python -m bct.cli ...`),
so load comes from a single process at a time (a closed loop with one
client).  The run is pinned to one CPU, and every timing is scaled to a
reference host speed (see SpeedProbe): on a shared host a CPU slows by up
to 2x for seconds to minutes at a time, independently of the other CPUs,
which spread raw wall times of the same code by 30-50% between runs.

A pass runs the workload's commands on an empty temporary
`--cache-dir` (the cold pass), then runs them again on the cache it left
(the warm pass).  The seed shuffles the order of the workload's command
groups.  Passes repeat until `--seconds` have elapsed, so the last one
may end past it.  Every command's stdout is checked: exit code 0, the
workload's own content check, byte-identical warm and cold output, and the
sha256 pinned in pins.json.

--trace 0 prints the end-to-end metrics:
    wall_s       cold pass wall time, spawn to exit, at the reference host
                 speed: the sum over its commands of each command's median
                 over the passes
    warm_s       the same for the warm pass
    setup_s      median wall time, at the reference host speed, of a fresh
                 interpreter running `import bct.cli`, probed SETUP_PROBES
                 times per pass
    peak_rss_mb  median over passes of the largest max-RSS of any command
--trace 1 runs one untraced pass and one traced pass (through tracer.py)
and prints the per-layer metrics summed over the traced pass's cold and
warm commands, plus trace.overhead_s, the traced minus the untraced cold
wall time at the reference host speed.  Self times are as measured.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  `attempted` counts commands run (plus the call-coverage
check of a traced run) and `failed` those with a nonzero exit or a wrong
output.  A record of each run (machine, Python, git SHA, seed, load average
at start and end, every command's raw and scaled time, host speed and
memory) is written under .perfbench-runs/, and a traced run's spans go
beside it.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".perfbench-work"
RUNS_DIR = ROOT / ".perfbench-runs"
RUN_LIMIT_S = 170  # every command of a run is killed past this point
SETUP_PROBES = 4  # `import bct.cli` probes per pass, spread over its cold commands
PROBE_PERIOD_S = 0.025  # pause between two host speed samples
PROBE_LOOPS = 120  # iterations of one speed sample's loop
PROBE_REF_S = 0.0008  # one sample's duration at the reference host speed
MIN_PROBES = 10  # a window with fewer samples also uses the ones just before it

# The rows the table workload computes, with the dimensions it must report
# (cli.EXPECTED_DIMS at the commit that defined this benchmark) as (generic,
# sixth root of unity).  Its order cap refuses G25 and G26.
TABLE_DIMS = {"G4": (56, 56), "G23": (1045, 1045)}


def check_table(cmd, doc, formulas):
    if doc.get("all_pass") is not True:
        return "all_pass is not true"
    got = {r["name"]: (r["status"], r["dim_generic"], r["dim_sixth_root"])
           for r in doc["rows"] if "dim_generic" in r}
    want = {name: ("verified", *dims) for name, dims in TABLE_DIMS.items()}
    if got != want:
        return f"computed rows {got}, want {want}"
    return None


def check_dims(cmd, doc, formulas):
    spec = next(a for a in cmd if a.startswith("gmpn:"))
    if doc.get("dimension") != formulas[spec]:
        return f"dimension {doc.get('dimension')}, closed form {formulas[spec]}"
    return None


def check_verify(cmd, doc, formulas):
    if doc.get("all_pass") is not True:
        return "all_pass is not true"
    if doc["suite"] == "freeness":
        report = doc["report"]
        if (report["verdict"], report["route"]) != ("free", "collection-dichotomy"):
            return f"{doc['group']} verdict {report['verdict']} via {report['route']}"
    return None


@dataclass(frozen=True)
class Workload:
    # Groups of commands that stay in order; the seed shuffles the groups.
    slots: tuple
    # (command, parsed stdout, closed-form dimensions) -> error text or None
    check: object
    # Wrapped names (module:qualname) that must record calls when traced.
    expect_calls: tuple
    # Layers or names that must record no calls when traced.
    expect_silent: tuple

    def commands(self, seed):
        slots = list(self.slots)
        random.Random(seed).shuffle(slots)
        return [cmd for slot in slots for cmd in slot]


def _dims_slot(spec):
    return (("dims", spec), ("dims", spec, "--mu6"))


GROUP_CORE_CALLS = (
    "cli:main",
    "cli:group_digest",
    "cli:cache_load",
    "cli:cache_store",
    "cli:GroupStore.dimension",
    "admissibility:classify_orbits",
    "transversality:transv_table",
    "transversality:collection_orbits",
    "reflection_groups:stabilizer",
    "reflection_groups:orbit",
    "reflection_groups:Group._build_hyperplanes",
    "reflection_groups:Group.hyperplane_action",
    "exact_arith:CycNumber.__mul__",
    "exact_arith:SpanBasis.add",
)

# One pass of each workload takes well under --seconds, so a run holds
# several passes and reports per-command medians over them; on a shared host
# that is what keeps run-to-run spread small.
WORKLOADS = {
    # The headline command.  The order cap leaves G4 and G23 to compute and
    # verify; G25 and G26 are refused once their closure passes the cap.
    "table": Workload(
        slots=((("--max-order", "130", "reproduce-table"),),),
        check=check_table,
        expect_calls=GROUP_CORE_CALLS + (
            "reflection_groups:packaged_group",
            "reflection_groups:build_matrix_group",
            "cli:GroupStore.rows",
        ),
        expect_silent=("brauer_modules", "freeness"),
    ),
    # Integer monomial groups: G(4,4,4) has p = m (no diagonal
    # hyperplanes), G(5,1,3) a large m, G(2,1,5) the largest order here.
    "ladder": Workload(
        slots=tuple(_dims_slot(s) for s in ("gmpn:4,4,4", "gmpn:5,1,3", "gmpn:2,1,5")),
        check=check_dims,
        expect_calls=GROUP_CORE_CALLS + ("reflection_groups:build_imprimitive",),
        expect_silent=("brauer_modules", "freeness"),
    ),
    # The only workload that runs induced modules and freeness; it never
    # touches the cache, so its warm pass repeats the cold one.
    "verify": Workload(
        slots=(
            (("verify", "--suite", "relations", "gmpn:3,1,3"),),
            (("verify", "--suite", "relations", "g4"),),
            (("verify", "--suite", "freeness", "g4"),),
        ),
        check=check_verify,
        expect_calls=(
            "brauer_modules:induce",
            "brauer_modules:quotient_regular_rep",
            "brauer_modules:verify_defining_relations",
            "brauer_modules:op_compose",
            "freeness:freeness_verdict",
            "freeness:check_F",
            "admissibility:classify_orbits",
            "reflection_groups:packaged_group",
            "reflection_groups:build_imprimitive",
            "reflection_groups:stabilizer",
            "exact_arith:LaurentScalar.__mul__",
            "exact_arith:CycNumber.__mul__",
        ),
        expect_silent=("cli:cache_load", "cli:cache_store"),
    ),
}

# Per-layer metrics: name -> (unit, names summed, what is summed).
# "self" sums self seconds and "calls" call counts of the listed wrapped
# names, where a layer name alone means every wrapped name of that module;
# "counter" sums the counters tracer.py reads from call results.
LAYER_METRICS = {
    "exact_arith.self_s": ("s", ["exact_arith"], "self"),
    "exact_arith.cyc_mul_calls": ("count", ["exact_arith:CycNumber.__mul__"], "calls"),
    "exact_arith.cyc_add_calls": ("count", ["exact_arith:CycNumber.__add__"], "calls"),
    "exact_arith.cyc_inv_calls": ("count", ["exact_arith:CycNumber.inv"], "calls"),
    "exact_arith.laurent_mul_calls": ("count", ["exact_arith:LaurentScalar.__mul__"], "calls"),
    "exact_arith.span_calls": ("count", ["exact_arith:SpanBasis.add", "exact_arith:SpanBasis.reduce",
                                         "exact_arith:SpanBasis.contains"], "calls"),
    "exact_arith.smith_calls": ("count", ["exact_arith:smith_normal_form"], "calls"),
    "reflection_groups.self_s": ("s", ["reflection_groups"], "self"),
    "reflection_groups.build_s": ("s", ["reflection_groups:packaged_group",
                                        "reflection_groups:group_from_json",
                                        "reflection_groups:build_imprimitive",
                                        "reflection_groups:build_matrix_group"], "self"),
    "reflection_groups.hyperplanes_s": ("s", ["reflection_groups:Group._build_hyperplanes"], "self"),
    "reflection_groups.actions_s": ("s", ["reflection_groups:Group.ensure_all_actions",
                                          "reflection_groups:Group.hyperplane_action"], "self"),
    "reflection_groups.stabilizer_calls": ("count", ["reflection_groups:stabilizer"], "calls"),
    "reflection_groups.stabilizer_s": ("s", ["reflection_groups:stabilizer"], "self"),
    "reflection_groups.orbit_calls": ("count", ["reflection_groups:orbit"], "calls"),
    "reflection_groups.orbit_s": ("s", ["reflection_groups:orbit"], "self"),
    "reflection_groups.closure_calls": ("count", ["reflection_groups:subgroup_closure"], "calls"),
    "reflection_groups.closure_s": ("s", ["reflection_groups:subgroup_closure"], "self"),
    "reflection_groups.elements": ("count", ["elements"], "counter"),
    "transversality.self_s": ("s", ["transversality"], "self"),
    "transversality.table_s": ("s", ["transversality:transv_table"], "self"),
    "transversality.orbits_s": ("s", ["transversality:collection_orbits"], "self"),
    "transversality.collections": ("count", ["collections"], "counter"),
    "admissibility.self_s": ("s", ["admissibility"], "self"),
    "admissibility.classify_calls": ("count", ["admissibility:classify_orbits"], "calls"),
    "admissibility.classify_s": ("s", ["admissibility:classify_orbits"], "self"),
    "admissibility.dim_s": ("s", ["admissibility:dim_brauer"], "self"),
    "brauer_modules.self_s": ("s", ["brauer_modules"], "self"),
    "brauer_modules.induce_s": ("s", ["brauer_modules:induce"], "self"),
    "brauer_modules.rep_s": ("s", ["brauer_modules:quotient_regular_rep"], "self"),
    "brauer_modules.verify_s": ("s", ["brauer_modules:verify_defining_relations"], "self"),
    "brauer_modules.module_dim": ("count", ["module_dim"], "counter"),
    "freeness.self_s": ("s", ["freeness"], "self"),
    "freeness.verdict_s": ("s", ["freeness:freeness_verdict"], "self"),
    "freeness.check_F_calls": ("count", ["freeness:check_F"], "calls"),
    "cli.self_s": ("s", ["cli"], "self"),
    "cli.digest_s": ("s", ["cli:group_digest"], "self"),
    "cli.cache_load_s": ("s", ["cli:cache_load"], "self"),
    "cli.cache_store_s": ("s", ["cli:cache_store"], "self"),
    "cli.cache_hits": ("count", ["cache_hits"], "counter"),
    "cli.cache_misses": ("count", ["cache_misses"], "counter"),
}


def probe_loop(n):
    """Fraction arithmetic on growing integers, like the program's own exact
    arithmetic: its slowdowns tracked the program's more closely than those
    of loops over small integers, dicts or large lists."""
    x = Fraction(1, 3)
    for i in range(1, n):
        x = x * Fraction(i, i + 1) + Fraction(1, i)
    return x


class SpeedProbe:
    """Samples the speed of the CPU the run is pinned to, while children run.

    A thread of the benchmark wakes every PROBE_PERIOD_S and times a short
    loop on the same CPU as the child (about 4% of that CPU).
    A window's speed is the mean over its samples of PROBE_REF_S / duration,
    so a wall time multiplied by it is the time the command would have taken
    at the reference speed.  Across CPUs the slow phases do not correlate,
    so the probe is only meaningful on the child's own CPU.
    """

    def __init__(self):
        self.samples = []  # durations, in the order they ended
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.wait(PROBE_PERIOD_S):
            start = time.perf_counter()
            probe_loop(PROBE_LOOPS)
            self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def mark(self):
        return len(self.samples)

    def speed(self, mark):
        """Mean relative speed over the samples taken since `mark`."""
        window = self.samples[min(mark, max(0, len(self.samples) - MIN_PROBES)):]
        if not window:
            return 1.0
        return statistics.fmean(PROBE_REF_S / d for d in window)


@dataclass
class Result:
    cmd: tuple
    wall_s: float
    speed: float
    rss_mb: float
    code: int
    stdout: bytes
    error: str = None
    trace: dict = None

    @property
    def scaled_s(self):
        return self.wall_s * self.speed


@dataclass
class Pass:
    cold: list
    warm: list = field(default_factory=list)
    cache_bytes: int = 0
    setup: list = field(default_factory=list)

    def commands(self):
        return self.cold + self.warm


class Runner:
    """Spawns command children and checks their outputs."""

    def __init__(self, workload, pins, formulas, workdir, deadline, probe):
        self.workload = workload
        self.probe = probe
        self.pins = pins
        self.formulas = formulas
        self.workdir = workdir
        self.deadline = deadline
        self.env = child_env(workdir)

    def spawn(self, argv):
        """Run argv to completion; wall time from spawn to exit, the host
        speed meanwhile, and the child's own max-RSS from wait4 (not the
        running maximum over all children that RUSAGE_CHILDREN gives)."""
        with tempfile.TemporaryFile(dir=self.workdir) as out, \
                tempfile.TemporaryFile(dir=self.workdir) as err:
            mark = self.probe.mark()
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # SIGTERM or Ctrl-C: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            speed = self.probe.speed(mark)
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            stdout = out.read()
            err.seek(0)
            stderr = err.read().decode(errors="replace")
        return wall, speed, usage.ru_maxrss / 1024, proc.returncode, stdout, stderr

    def setup_probe(self):
        wall, speed, _, code, _, err = self.spawn([sys.executable, "-c", "import bct.cli"])
        if code != 0:
            raise SystemExit(f"import bct.cli failed:\n{err}")
        return wall * speed

    def command(self, cmd, cache_dir, trace_out=None):
        args = ["--cache-dir", cache_dir, *cmd]
        if trace_out is None:
            argv = [sys.executable, "-m", "bct.cli", *args]
        else:
            argv = [sys.executable, str(HERE / "tracer.py"), trace_out, " ".join(cmd), "--", *args]
        wall, speed, rss, code, stdout, stderr = self.spawn(argv)
        res = Result(cmd, wall, speed, rss, code, stdout)
        res.error = self.check(cmd, code, stdout, stderr)
        if trace_out is not None and os.path.exists(trace_out):
            with open(trace_out) as fh:
                res.trace = json.load(fh)
        return res

    def check(self, cmd, code, stdout, stderr):
        if code != 0:
            return f"exit code {code}: {stderr.strip()[-500:]}"
        try:
            error = self.workload.check(cmd, json.loads(stdout), self.formulas)
        except (ValueError, KeyError, TypeError, StopIteration) as exc:
            error = f"unreadable output: {exc!r}"
        if error is not None:
            return error
        pin = self.pins.get(" ".join(cmd))
        digest = hashlib.sha256(stdout).hexdigest()
        if pin != digest:
            return f"stdout sha256 {digest}, pinned {pin}"
        return None

    def run_pass(self, commands, traced=False, probes=0):
        """A cold pass on a fresh cache, then a warm pass on the cache it
        left; `probes` setup probes are spread over the cold commands."""
        cache_dir = tempfile.mkdtemp(dir=self.workdir, prefix="cache-")
        p = Pass([])
        for phase in ("cold", "warm"):
            for i, cmd in enumerate(commands):
                while phase == "cold" and len(p.setup) < probes * (i + 1) // len(commands):
                    p.setup.append(self.setup_probe())
                trace_out = os.path.join(self.workdir, f"trace-{phase}-{i}.json") if traced else None
                getattr(p, phase).append(self.command(cmd, cache_dir, trace_out))
        for cold, warm in zip(p.cold, p.warm):
            if warm.error is None and warm.stdout != cold.stdout:
                warm.error = "warm stdout differs from cold stdout"
        p.cache_bytes = sum(f.stat().st_size for f in Path(cache_dir).rglob("*") if f.is_file())
        shutil.rmtree(cache_dir)
        return p


def child_env(workdir):
    """The children see the checkout's sources, a fixed hash seed (so call
    counts repeat exactly), no inherited BCT_CACHE_DIR, and a temporary
    directory inside the checkout."""
    env = {k: v for k, v in os.environ.items() if k not in ("BCT_CACHE_DIR", "PYTHONPATH")}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0", TMPDIR=str(workdir))
    return env


def prepare(commands, workdir):
    """One untimed child imports the program (compiling its bytecode before
    the first timed probe), confirms it comes from this checkout, and
    evaluates the closed-form dimension of every monomial group used."""
    specs = sorted({a for cmd in commands for a in cmd if a.startswith("gmpn:")})
    code = (
        "import json, sys, bct, bct.cli\n"
        "from bct.admissibility import dim_g22n_formula, dim_gmpn_formula\n"
        "out = {}\n"
        "for spec in sys.argv[1:]:\n"
        "    m, p, n = map(int, spec[5:].split(','))\n"
        "    out[spec] = dim_g22n_formula(n) if (m, p) == (2, 2) else dim_gmpn_formula(m, p, n)\n"
        "print(json.dumps({'file': bct.__file__, 'formulas': out}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *specs], cwd=ROOT, env=child_env(workdir),
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise SystemExit(f"cannot import bct from {ROOT / 'src'}:\n{proc.stderr}")
    info = json.loads(proc.stdout)
    if not Path(info["file"]).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"bct imported from {info['file']}, not from this checkout")
    return info["formulas"]


def machine_record(seed):
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "git_sha": sha,
        "seed": seed,
        "loadavg_start": loadavg(),
    }


def loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return [float(x) for x in fh.read().split()[:3]]
    except OSError:
        return None


def layer_metrics(results):
    """Sum the traced commands' per-name stats into the per-layer metrics."""
    stats, counters = {}, {}
    for res in results:
        if res.trace is None:
            continue
        for name, (calls, self_s) in res.trace["stats"].items():
            acc = stats.setdefault(name, [0, 0.0])
            acc[0] += calls
            acc[1] += self_s
        for key, value in res.trace["counters"].items():
            counters[key] = counters.get(key, 0) + value
    out = {}
    for metric, (unit, names, kind) in LAYER_METRICS.items():
        if kind == "counter":
            value = sum(counters.get(n, 0) for n in names)
        else:
            col = 0 if kind == "calls" else 1
            value = sum(
                acc[col] for name, acc in stats.items()
                if name in names or name.split(":", 1)[0] in names
            )
        out[metric] = {"value": value, "unit": unit}
    lookups = counters.get("cache_hits", 0) + counters.get("cache_misses", 0)
    out["cli.cache_hit_ratio"] = {
        "value": counters.get("cache_hits", 0) / lookups if lookups else 0.0, "unit": "ratio"}
    return out, stats


def coverage_errors(workload, stats):
    errors = []
    for name in workload.expect_calls:
        if stats.get(name, [0])[0] == 0:
            errors.append(f"{name} recorded no calls")
    for name, (calls, _) in stats.items():
        if calls and (name in workload.expect_silent
                      or name.split(":", 1)[0] in workload.expect_silent):
            errors.append(f"{name} recorded {calls} calls, predicted none")
    return errors


def run_workload(workload, seed, seconds, trace, pins, record_name=None):
    """Run one benchmark run and return its result object."""
    start = time.monotonic()
    WORK_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK_DIR)
    affinity = os.sched_getaffinity(0)
    # The children inherit the CPU, and so does the probe's thread.
    os.sched_setaffinity(0, {min(affinity)})
    try:
        with SpeedProbe() as probe:
            return measure(workload, seed, seconds, trace, pins, record_name, start, workdir, probe)
    finally:
        os.sched_setaffinity(0, affinity)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:  # another run is using it
            pass


def measure(workload, seed, seconds, trace, pins, record_name, start, workdir, probe):
    """The body of run_workload, on the pinned CPU with the probe running."""
    record = machine_record(seed)
    record["cpu"] = min(os.sched_getaffinity(0))
    commands = workload.commands(seed)
    formulas = prepare(commands, workdir)
    runner = Runner(workload, pins, formulas, workdir, start + RUN_LIMIT_S, probe)
    passes, attempted, failed, errors = [], 0, 0, []
    if trace:
        plain = runner.run_pass(commands)
        traced = runner.run_pass(commands, traced=True)
        passes = [plain, traced]
        for a, b in zip(plain.commands(), traced.commands()):
            if b.error is None and a.stdout != b.stdout:
                b.error = "traced stdout differs from untraced stdout"
        metrics, stats = layer_metrics(traced.commands())
        metrics["cli.cache_bytes"] = {"value": traced.cache_bytes, "unit": "bytes"}
        overhead = sum(r.scaled_s for r in traced.cold) - sum(r.scaled_s for r in plain.cold)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        cover = coverage_errors(workload, stats)
        attempted += 1
        if cover:
            failed += 1
            errors += [f"coverage: {e}" for e in cover]
    else:
        while not passes or time.monotonic() - start < seconds:
            passes.append(runner.run_pass(commands, probes=SETUP_PROBES))
        metrics = {
            "wall_s": sum(median(r.scaled_s for r in runs) for runs in zip(*(p.cold for p in passes))),
            "warm_s": sum(median(r.scaled_s for r in runs) for runs in zip(*(p.warm for p in passes))),
            "setup_s": median(s for p in passes for s in p.setup),
            "peak_rss_mb": median(max(r.rss_mb for r in p.commands()) for p in passes),
        }
        units = {"wall_s": "s", "warm_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    for p in passes:
        for res in p.commands():
            attempted += 1
            if res.error is not None:
                failed += 1
                errors.append(f"{' '.join(res.cmd)}: {res.error}")
    record.update(
        loadavg_end=loadavg(),
        passes=len(passes),
        commands=[
            {"cmd": " ".join(r.cmd), "wall_s": r.wall_s, "speed": r.speed,
             "scaled_s": r.scaled_s, "rss_mb": r.rss_mb,
             "code": r.code, "sha256": hashlib.sha256(r.stdout).hexdigest(),
             "error": r.error}
            for p in passes for r in p.commands()
        ],
        setup_s=[s for p in passes for s in p.setup],
        errors=errors,
    )
    if record_name is not None:
        save_record(record_name, record, passes)
    for e in errors:
        print(f"FAILED {e}", file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def median(values):
    return statistics.median(list(values))


def save_record(name, record, passes):
    RUNS_DIR.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S") + f"-{os.getpid()}"
    with open(RUNS_DIR / f"{name}-{stamp}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    spans = [s for p in passes for r in p.commands() if r.trace for s in r.trace["spans"]]
    if spans:
        with open(RUNS_DIR / f"{name}-{stamp}-spans.json", "w") as fh:
            json.dump(spans, fh)


def load_pins():
    with open(HERE / "pins.json") as fh:
        return json.load(fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    result = run_workload(
        WORKLOADS[args.workload], args.seed, args.seconds, args.trace, load_pins(),
        record_name=f"{args.workload}-seed{args.seed}-trace{args.trace}",
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

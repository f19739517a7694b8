"""tdsynth benchmark: ``generate`` and ``inspect`` wall time on three workloads.

    python3 perfbench/run.py --workload feeders-50x --seed 1 --seconds 18 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
One client in a closed loop: each operation starts when the previous one
ended, in one process, with ``jobs = 1`` and BLAS pinned to one thread.  An
operation is one ``tdsynth generate`` and one ``tdsynth inspect``, both run
in-process through ``tdsynth.cli.main`` with the argv a user types; the
workload's own command comes first (see ``WORKLOADS``).  Operations start
until ``--seconds`` have passed, and every one is checked by the gate in
``gate.py``.

``--trace 0`` reports the end-to-end metrics.  Their times are corrected
for the speed the shared host gives the process while each command runs
(``speed.py``): seconds at the reference speed.  The raw wall times are in
the run record.  ``--trace 1`` is the separate
traced run: it builds the inputs once under the tracer, runs one untraced
operation (the reference bundle and the overhead baseline), then traced
operations, and reports per-layer numbers for the workload's own command,
per operation.  The last line of standard output is the result JSON; a run
record (host, versions, thread pinning, sample counts) and the full layer
table are written under ``.perfbench/records/``.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext, redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
SETUP_REPEATS = 3        # set-ups per run; a third only while they cost under
SETUP_BUDGET_S = 15.0    # SETUP_BUDGET_S in total
SECONDARY_S = 2.0        # the other command repeats for this long per operation
JOBS = 1

# The program comes from this checkout's src/ and nowhere else.
if not (SRC / "tdsynth" / "__init__.py").is_file() or not (ROOT / "configs" / "default.conf").is_file():
    sys.exit(f"no tdsynth sources under {SRC}: run from the root of a checkout")
sys.path.insert(0, str(SRC))
import tdsynth  # noqa: E402
import tdsynth.cli  # noqa: E402

if Path(tdsynth.__file__).resolve().parent != (SRC / "tdsynth").resolve():
    sys.exit(f"tdsynth imported from {tdsynth.__file__}, not from {SRC}")

import gate  # noqa: E402
import speed  # noqa: E402
import tracer as T  # noqa: E402
import workloads as W  # noqa: E402


@dataclass
class Inputs:
    """What a workload's set-up builds: one generate and one inspect."""
    conf: Path
    templates: Path
    inspect_dir: Path | None = None   # None: inspect the bundle generate wrote
    spec: gate.GenerateSpec | None = None


def build_mini_opf(work: Path, seed: int) -> Inputs:
    conf = W.write_config(ROOT, work, "mini-opf.conf",
                          {"run_opf": True, "random": True, "rng_seed": seed})
    return _generate_inputs(conf, tdsynth.bundled_template_dir())


def build_feeders(work: Path, seed: int) -> Inputs:
    templates = W.build_templates(work / "templates-50x", W.FEEDERS_K)
    conf = W.write_config(ROOT, work, "feeders-50x.conf",
                          {"constant_load": True, "random": True, "rng_seed": seed})
    return _generate_inputs(conf, templates, W.FEEDERS_REPLICAS, W.FEEDERS_BUSES)


def build_inspect(work: Path, seed: int) -> Inputs:
    templates = W.build_templates(work / "templates-800x", W.INSPECT_K)
    buses = W.build_assembled_bundle(templates, seed, work / "bundle-800x")
    if buses != W.INSPECT_BUSES:
        raise RuntimeError(f"800x bundle has {buses} buses, expected {W.INSPECT_BUSES}")
    # the generate of this workload is the shipped default (ROADMAP "mini" row)
    conf = W.write_config(ROOT, work, "mini.conf", {"random": True, "rng_seed": seed})
    inputs = _generate_inputs(conf, tdsynth.bundled_template_dir())
    inputs.inspect_dir = work / "bundle-800x"
    return inputs


def _generate_inputs(conf: Path, templates: Path, replicas=None, buses=None) -> Inputs:
    cfg = tdsynth.cli.parse_config(conf)
    spec = gate.GenerateSpec(cfg=cfg, templates=templates, replicas=replicas, buses=buses)
    return Inputs(conf=conf, templates=templates, spec=spec)


# name -> (command timed and traced first, set-up builder)
WORKLOADS = {
    "mini-opf": ("generate", build_mini_opf),
    "feeders-50x": ("generate", build_feeders),
    "inspect-800x": ("inspect", build_inspect),
}


# ---------------------------------------------------------------------------
# operations


@dataclass
class Outcome:
    rc: int | None
    stdout: str
    seconds: float


def run_cli(argv: list[str], tracer=None) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    span = tracer.root_span() if tracer is not None else nullcontext()
    rc = None
    start = time.perf_counter()
    try:
        with span, redirect_stdout(out), redirect_stderr(err):
            rc = tdsynth.cli.main(argv)
    except Exception:
        traceback.print_exc()
    seconds = time.perf_counter() - start
    if rc != 0:
        print(f"tdsynth {argv[0]} returned {rc}: {err.getvalue().strip()}", file=sys.stderr)
    return Outcome(rc, out.getvalue(), seconds)


@dataclass
class Loop:
    primary: str
    inputs: Inputs
    work: Path
    probed: bool = False              # speed-correct the times (speed.py)
    times: dict[str, list[float]] = field(default_factory=lambda: {"generate": [], "inspect": []})
    wall_s: dict[str, list[float]] = field(default_factory=lambda: {"generate": [], "inspect": []})
    per_op: dict[str, list[float]] = field(default_factory=lambda: {"generate": [], "inspect": []})
    attempted: int = 0
    failed: int = 0
    reference: dict | None = None     # the run's first generate bundle
    bundle: Path | None = None        # the bundle the last generate wrote
    generated: int = 0

    def operation(self, tracer=None) -> float:
        """The workload's own command (traced when a tracer is given), then
        the other command as a batch that runs for SECONDARY_S.  The batch
        counts with its mean time, so that a command of a few milliseconds
        is timed over seconds.  Each of the two runs under one speed probe
        when probed.  Every command is gated; returns the own command's
        time."""
        self.attempted += 1
        other = "inspect" if self.primary == "generate" else "generate"
        commands = {"generate": self.generate, "inspect": self.inspect}
        gc.collect()
        with self._probe() as probe:
            problems, wall = commands[self.primary](tracer)
        [seconds] = self._record(self.primary, [wall], probe)
        self.per_op[self.primary].append(seconds)
        batch = []
        with self._probe() as probe:
            while sum(batch) < SECONDARY_S:
                more, took = commands[other]()
                problems += more
                if took is None:
                    break
                batch.append(took)
        if batch:
            self.per_op[other].append(statistics.fmean(self._record(other, batch, probe)))
        shutil.rmtree(self.work / "out", ignore_errors=True)
        if problems:
            self.failed += 1
            print(f"operation {self.attempted} failed: " + "; ".join(problems), file=sys.stderr)
        return seconds

    def _probe(self):
        return speed.Probe() if self.probed else nullcontext()

    def _record(self, command: str, walls: list[float], probe) -> list[float]:
        """Keep the wall times and their speed-corrected values; returns the
        latter (the wall times when not probed)."""
        factor = probe.factor if self.probed else 1.0
        seconds = [w / factor for w in walls]
        self.wall_s[command] += walls
        self.times[command] += seconds
        return seconds

    def generate(self, tracer=None) -> tuple[list[str], float]:
        self.generated += 1
        out_root = self.work / "out" / str(self.generated)
        gen = run_cli(["generate", str(self.inputs.conf), "--templates",
                       str(self.inputs.templates), "--out", str(out_root)], tracer)
        self.bundle = None
        try:
            problems, self.bundle, files = gate.check_generate(
                gen.rc, out_root, self.inputs.spec, self.reference)
        except Exception as exc:
            return [f"gate could not read the bundle: {exc!r}"], gen.seconds
        if self.reference is None and files:
            self.reference = files
        return problems, gen.seconds

    def inspect(self, tracer=None) -> tuple[list[str], float | None]:
        target = self.inputs.inspect_dir or self.bundle
        if target is None:
            return ["no bundle to inspect"], None
        ins = run_cli(["inspect", str(target)], tracer)
        return gate.check_inspect(ins.rc, ins.stdout), ins.seconds


# ---------------------------------------------------------------------------
# set-up


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing tdsynth."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import tdsynth, tdsynth.cli"],
                   env=env, cwd=ROOT, check=True)
    return time.perf_counter() - start


def setup(build, state: Path, seed: int, repeats: int,
          tracer=None) -> tuple[Inputs, list[float], list[float]]:
    """Build the inputs up to ``repeats`` times (at least twice when
    ``repeats`` allows, no third time past SETUP_BUDGET_S); each sample is a
    fresh import plus one build, speed-corrected unless traced.  Returns the
    last build's inputs, the samples and their raw wall times."""
    samples, wall_samples = [], []
    inputs = None
    for rep in range(repeats):
        if rep >= 2 and sum(samples) > SETUP_BUDGET_S:
            break
        work = state / f"setup-{rep}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        probe = speed.Probe() if tracer is None else nullcontext()
        with probe:
            imported = import_seconds() if tracer is None else 0.0
            gc.collect()
            start = time.perf_counter()
            with tracer.setup_phase() if tracer is not None else nullcontext():
                inputs = build(work, seed)
            wall = imported + time.perf_counter() - start
        wall_samples.append(wall)
        samples.append(wall / probe.factor if tracer is None else wall)
        if rep > 0:
            shutil.rmtree(state / f"setup-{rep - 1}")
    return inputs, samples, wall_samples


# ---------------------------------------------------------------------------
# metrics


def tail(values: list[float]) -> dict:
    """Median, sample count and the highest percentile with at least ten
    samples beyond it, when there are that many."""
    out = {"n": len(values), "median": _median(values), "samples": values}
    for pct in (99.9, 99, 90, 50):
        if len(values) * (100 - pct) / 100 >= 10:
            cuts = statistics.quantiles(values, n=1000, method="inclusive")
            out[f"p{pct:g}"] = cuts[round(pct * 10) - 1]
            break
    return out


def _median(values: list[float]) -> float:
    """Median; 0 when every operation failed before producing a sample (the
    run then reports ``correct: false``)."""
    return statistics.median(values) if values else 0.0


def percentile(values: list[float], pct: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def layer_metrics(tracer, n: int, untraced_s: float, traced_s: list[float]) -> dict:
    C = tracer.counts["op"]

    def get(name, phase="op"):
        return tracer.layers[phase].get(name) or T.Layer()

    small_ms = [d * 1e3 for d in get("powerflow.solve.small").durations_s]
    cust_ms = [d * 1e3 for d in get("synth.customize_dn").durations_s]
    cli = get("cli.main")
    wall = sum(tracer.op_wall_s)
    below_entry = cli.incl_s - cli.self_s
    values = {
        "powerflow.solve.calls": (get("powerflow.solve").calls / n, "count"),
        "powerflow.solve.iters": (C["solve_iters"] / n, "count"),
        "powerflow.solve.small.self_s": (get("powerflow.solve.small").self_s / n, "s"),
        "powerflow.solve.small.ms.p50": (percentile(small_ms, 50), "ms"),
        "powerflow.solve.small.ms.p99": (percentile(small_ms, 99), "ms"),
        "powerflow.solve.large.self_s": (get("powerflow.solve.large").self_s / n, "s"),
        "powerflow.apply_solution.s": (get("powerflow.apply_solution").incl_s / n, "s"),
        "oltc.regulate.calls": (get("oltc.regulate").calls / n, "count"),
        "oltc.regulate.rounds": (C["regulate_rounds"] / n, "count"),
        "oltc.regulate.self_s": (get("oltc.regulate").self_s / n, "s"),
        "synth.combined_regulate.s": (C["combined_regulate_s"] / n, "s"),
        "synth.capacity.s": (get("synth.dn_max_capacity").incl_s / n, "s"),
        "synth.capacity.solves": (get("synth.dn_max_capacity").solves / n, "count"),
        "synth.customize.calls": (get("synth.customize_dn").calls / n, "count"),
        "synth.customize.s": (get("synth.customize_dn").incl_s / n, "s"),
        "synth.customize.solves": (get("synth.customize_dn").solves / n, "count"),
        "synth.customize.ms.p50": (percentile(cust_ms, 50), "ms"),
        "synth.customize.ms.p90": (percentile(cust_ms, 90), "ms"),
        "synth.customize.distinct_keys": (len(tracer.customize_keys["op"]), "count"),
        "synth.assemble.self_s": (get("synth.assemble").self_s / n, "s"),
        "netmodel.clone.calls": (get("netmodel.clone").calls / n, "count"),
        "netmodel.clone.s": (get("netmodel.clone").incl_s / n, "s"),
        "netmodel.validate.s": (get("netmodel.validate").incl_s / n, "s"),
        "netmodel.islands.s": (get("netmodel.islands").incl_s / n, "s"),
        "caseio.load_case_dir.s": (get("caseio.load_case_dir").incl_s / n, "s"),
        "caseio.parse_case.s": (get("caseio.parse_case").incl_s / n, "s"),
        "caseio.export.s": (get("caseio.export").incl_s / n, "s"),
        "caseio.emit_case.s": (get("caseio.emit_case").incl_s / n, "s"),
        "opf.solve_with_relaxation.s": (get("opf.solve_with_relaxation").incl_s / n, "s"),
        "opf.solve_continuous.calls": (get("opf.solve_continuous").calls / n, "count"),
        "opf.solve_continuous.s": (get("opf.solve_continuous").incl_s / n, "s"),
        "opf.relaxation_rounds": (C["relaxation_rounds"] / n, "count"),
        "templates.load_bundle.s": (get("templates.load_bundle").incl_s / n, "s"),
        "cli.main.self_s": (cli.self_s / n, "s"),
        "setup.synth.customize.s": (get("synth.customize_dn", "setup").incl_s, "s"),
        "setup.synth.assemble.self_s": (get("synth.assemble", "setup").self_s, "s"),
        "setup.netmodel.validate.s": (get("netmodel.validate", "setup").incl_s, "s"),
        "setup.netmodel.clone.s": (get("netmodel.clone", "setup").incl_s, "s"),
        "setup.caseio.emit_case.s": (get("caseio.emit_case", "setup").incl_s, "s"),
        "trace.unattributed_share": ((wall - below_entry) / wall, "share"),
        "trace.overhead_s": (statistics.median(traced_s) - untraced_s, "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def run_record(args, loop: Loop, extra: dict) -> dict:
    import numpy
    import scipy

    def blas(cfg):
        return cfg["Build Dependencies"]["blas"].get("version")

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas(numpy.show_config(mode="dicts")),
        "openblas_scipy": blas(scipy.show_config(mode="dicts")),
        "blas_threads": BLAS_THREADS,
        "jobs": JOBS,
        "client": "one, closed loop",
        "attempted": loop.attempted,
        "failed": loop.failed,
        "speed_corrected": loop.probed,
        "generate_s": tail(loop.times["generate"]),
        "inspect_s": tail(loop.times["inspect"]),
        "generate_wall_s": tail(loop.wall_s["generate"]),
        "inspect_wall_s": tail(loop.wall_s["inspect"]),
        "per_operation_s": loop.per_op,
        **extra,
    }


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0 (it becomes rng_seed)")

    primary, build = WORKLOADS[args.workload]
    state = STATE / f"work-{os.getpid()}"
    shutil.rmtree(state, ignore_errors=True)
    state.mkdir(parents=True)
    try:
        if args.trace:
            result, record = traced_run(args, primary, build, state)
        else:
            result, record = timed_run(args, primary, build, state)
    finally:
        shutil.rmtree(state, ignore_errors=True)

    records = STATE / "records"
    records.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (records / name).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print("run record: " + json.dumps({k: v for k, v in record.items() if k != "layers"}))
    print(json.dumps(result))
    return 0


def timed_run(args, primary, build, state):
    inputs, setup_samples, setup_wall = setup(build, state, args.seed, SETUP_REPEATS)
    loop = Loop(primary, inputs, state, probed=True)
    start = time.perf_counter()
    while loop.attempted == 0 or time.perf_counter() - start < args.seconds:
        loop.operation()
    metrics = {
        "generate_s": (_median(loop.per_op["generate"]), "s"),
        "inspect_s": (_median(loop.per_op["inspect"]), "s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_share": ((loop.attempted - loop.failed) / loop.attempted, "share"),
    }
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, run_record(args, loop, {"setup_s": tail(setup_samples),
                                           "setup_wall_s": tail(setup_wall)})


def traced_run(args, primary, build, state):
    tracer = T.Tracer()
    tracer.install()
    try:
        inputs, _, _ = setup(build, state, args.seed, 1, tracer)
    finally:
        tracer.uninstall()
    loop = Loop(primary, inputs, state, probed=False)
    start = time.perf_counter()
    untraced_s = loop.operation()
    traced_s = []
    tracer.install()
    try:
        while not traced_s or time.perf_counter() - start < args.seconds:
            traced_s.append(loop.operation(tracer))
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer, len(traced_s), untraced_s, traced_s)
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }
    layers = {
        phase: {name: {"calls": r.calls, "incl_s": r.incl_s, "self_s": r.self_s, "solves": r.solves}
                for name, r in sorted(table.items())}
        for phase, table in tracer.layers.items()
    }
    extra = {"traced_ops": len(traced_s), "unreached_public_functions": tracer.unreached(),
             "layers": layers}
    if extra["unreached_public_functions"]:
        print("public functions no operation or set-up reached: "
              + ", ".join(extra["unreached_public_functions"]), file=sys.stderr)
    return result, run_record(args, loop, extra)


if __name__ == "__main__":
    sys.exit(main())

"""Batch front-end: read a flat key=value config, run the pipeline, report.

``tdsynth generate <config>`` writes an output bundle under
``<out>/<run-id>/`` where the run id is one digest of the configuration and
of the template files it reads, so a repeated run with the same config, seed
and templates lands on byte-identical files, and another template set on a
run directory of its own.
``tdsynth inspect <dir>`` loads a previously written bundle and prints its
health: validation findings, solved voltage range, total load, penetration
and the boundary transfers.  ``--profile PATH`` also writes, as JSON at
PATH and outside the bundle, the wall time of each stage and the solver's
work per stage: batched kernel calls, case solves, NR iterations and tap
rounds; for generate also how many OPF KKT factorizations took each path,
for inspect the linear-solve path of every Newton step.

Exit codes: 0 success, 1 pipeline failure (message carries the stage tag)
or a profile that cannot be written, 2 configuration problem (message names
the field, or the config file that cannot be read).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import fields
from pathlib import Path

from . import caseio
from .netmodel import IS_DG, penetration_level, total_load, validate
from .oltc import RegulationError, regulate
from .powerflow import Meter, PowerFlowError
from .synth import PipelineError, SynthesisConfig, boundary_transfers, config_digest, generate
from .templates import BUNDLE_FILES, bundled_template_dir


class ConfigError(ValueError):
    def __init__(self, name: str, message: str):
        super().__init__(f"config field {name!r}: {message}")
        self.field = name


def _parse_bool(text: str) -> bool:
    if text.lower() not in ("true", "false"):
        raise ValueError(text)
    return text.lower() == "true"


_PARSERS = {bool: _parse_bool, int: int, float: float, str: str}
_EXPECTED = {bool: "true or false", int: "an integer", float: "a number"}
# key -> value type, from each field's default; the voltage-limit pair is
# written as two scalar keys
_FIELD_TYPES = {
    f.name: type(f.default) for f in fields(SynthesisConfig) if f.name != "dn_v_limits"
}
_FIELD_TYPES.update(dn_v_min=float, dn_v_max=float)


def parse_config(path: Path, seed: int | None = None) -> SynthesisConfig:
    """The config in ``path``; ``seed``, if given, replaces its ``rng_seed``
    before the values are checked."""
    values: dict[str, object] = {}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(line.split()[0], f"line {lineno} is not a key=value pair")
        key, _, text = line.partition("=")
        key = key.strip()
        text = text.strip()
        if key in values:
            raise ConfigError(key, "assigned twice")
        kind = _FIELD_TYPES.get(key)
        if kind is None:
            raise ConfigError(key, "unknown field")
        try:
            values[key] = _PARSERS[kind](text)
        except ValueError:
            raise ConfigError(key, f"expected {_EXPECTED[kind]}, got {text!r}") from None

    if seed is not None:
        values["rng_seed"] = seed
    v_min = values.pop("dn_v_min", None)
    v_max = values.pop("dn_v_max", None)
    cfg = SynthesisConfig(**values)  # type: ignore[arg-type]
    if v_min is not None or v_max is not None:
        lo = v_min if v_min is not None else cfg.dn_v_limits[0]
        hi = v_max if v_max is not None else cfg.dn_v_limits[1]
        cfg.dn_v_limits = (float(lo), float(hi))
    problems = cfg.field_errors()
    if problems:
        raise ConfigError(problems[0][0], problems[0][1])
    return cfg


def _print_summary(summary: dict, out_dir: Path) -> None:
    print(
        f"buses: {summary['buses']}  branches: {summary['branches']}  "
        f"generators: {summary['generators']}"
    )
    areas = ", ".join(f"{k}: {v}" for k, v in summary["dn_instances_per_area"].items())
    print(f"DN instances: {summary['dn_instances']} ({areas})")
    pen = summary["penetration"]
    print(
        "realized penetration: "
        f"min {pen['min']:.4f} / mean {pen['mean']:.4f} / max {pen['max']:.4f}"
    )
    print(f"OLTC rounds on combined system: {summary['oltc_rounds']}")
    print(f"replica buses outside dn_v_limits: {summary['replica_buses_outside_v_limits']}")
    if "opf_objective" in summary:
        print(
            f"OPF objective: {summary['opf_objective']:.2f} "
            f"(feasible: {summary['opf_feasible']}, settled: {summary['opf_settled']} "
            f"after {summary['opf_rounds']} relaxation rounds)"
        )
    print(f"output bundle: {out_dir}")


def _cmd_generate(args) -> int:
    try:
        cfg = parse_config(Path(args.config), seed=args.seed)
    except FileNotFoundError:
        print(f"config file not found: {args.config}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read config file {args.config}: {_reason(exc)}", file=sys.stderr)
        return 2

    templates = Path(args.templates) if args.templates else bundled_template_dir()
    out_root = Path(args.out)
    run_dir = out_root / config_digest(cfg, [templates / bundle / name for bundle in
                                             ("mini-tn", "mini-dn") for name in BUNDLE_FILES])
    meter = Meter()
    meter.mark("args")
    try:
        with meter.active() if args.profile else nullcontext():
            result = generate(
                templates / "mini-tn",
                templates / "mini-dn",
                cfg,
                out_dir=run_dir,
            )
    except PipelineError as exc:
        print(str(exc), file=sys.stderr)
        return 1

    _print_summary(result.summary, run_dir)
    if args.profile:
        meter.mark("summary")
        profile = _profile(args.started, meter, GENERATE_STAGES)
        profile["kkt_solves"] = dict(sorted(Counter(meter.kkt_solves).items()))
        return _write_profile(args.profile, profile)
    return 0


# the stages of each profile; a stage's time runs from the end of the one
# before, so the work between two stages counts to the later one
GENERATE_STAGES = ("args", "load-tn", "tn-solve", "select-loads", "load-dn", "capacity",
                   "customize", "assemble", "combined-solve", "opf", "export", "summary")
INSPECT_STAGES = ("args", "load", "validate", "regulate", "print")


def _profile(started: float, meter: Meter, stages: tuple[str, ...]) -> dict:
    """Each stage's wall time and solver work from the meter's marks (a
    stage that did not run, ``opf`` of generate unless configured, reads
    0), the totals, and the replica blocks placed and solved."""
    stages_s = dict.fromkeys(stages, 0.0)
    counts = {name: dict.fromkeys(Meter.COUNTERS, 0) for name in stages}
    t0, c0 = started, dict.fromkeys(Meter.COUNTERS, 0)
    for name, t, c in meter.marks:
        stages_s[name] = t - t0
        counts[name] = {k: c[k] - c0[k] for k in Meter.COUNTERS}
        t0, c0 = t, c
    return {"stages_s": stages_s, "stage_counts": counts,
            "nr_iterations": meter.iterations, "solves": meter.solves,
            "batches": meter.batches, "tap_rounds": meter.tap_rounds,
            "opf_solves": meter.opf_solves, "opf_steps": meter.opf_steps,
            "blocks_placed": meter.blocks_placed, "blocks_solved": meter.blocks_solved}


def _reason(exc: Exception) -> str:
    """An I/O error's reason without the path it names, which the message
    that carries it gives itself."""
    return getattr(exc, "strerror", None) or str(exc)


def _write_profile(path: str, profile: dict) -> int:
    """Write ``profile`` as JSON at ``path``: exit code 0, or 1 with one
    line if it cannot be written."""
    try:
        Path(path).write_text(json.dumps(profile, indent=2) + "\n")
    except OSError as exc:
        print(f"cannot write profile {path}: {_reason(exc)}", file=sys.stderr)
        return 1
    return 0


def _cmd_inspect(args) -> int:
    meter = Meter()
    meter.mark("args")
    path = Path(args.case_dir)
    try:
        case = caseio.load_case_dir(path)
    except (OSError, ValueError) as exc:
        print(f"cannot load case bundle: {exc}", file=sys.stderr)
        return 1
    meter.mark("load")

    report = validate(case)
    if report.ok:
        print("validation: ok")
    else:
        print("validation:")
        for entry in report.entries:
            print(f"  - {entry}")
    meter.mark("validate")
    try:
        with meter.active() if args.profile else nullcontext():
            sol, _ = regulate(case)
    except (RegulationError, PowerFlowError) as exc:
        print(f"power flow failed: {exc}", file=sys.stderr)
        return 1
    meter.mark("regulate")
    print(f"power flow: converged in {sol.iterations} iterations "
          f"(mismatch {sol.max_mismatch:.2e})")
    print(f"voltage range: {sol.v_mag.min():.4f} .. {sol.v_mag.max():.4f} pu")
    p, q = total_load(case)
    print(f"total load: {p:.4f} pu / {q:.4f} pu ({p * case.base_mva:.1f} MW)")
    if IS_DG[case.generators.kind].any() and p > 0:
        print(f"penetration level: {penetration_level(case):.4f}")
    if case.oltcs:
        print("boundary transfers (per tap-changing transformer, pu):")
        refs, br = case.oltcs.branch_ref, case.branches
        rows = zip(br.from_bus[refs].tolist(), br.to_bus[refs].tolist(),
                   case.oltcs.tap.tolist(), sol.p_from[refs].tolist())
        for k, (f, t, tap, p_from) in enumerate(rows):
            print(f"  oltc {k} (bus {f} -> {t}, tap {tap:+d}): {p_from:+.4f}")
        totals = boundary_transfers(case, sol)
        for bus in sorted(totals):
            print(f"  bus {bus} total: {totals[bus]:+.4f}")
    if args.profile:
        meter.mark("print")
        profile = _profile(args.started, meter, INSPECT_STAGES)
        profile["linear_solves"] = meter.linear_solves
        return _write_profile(args.profile, profile)
    return 0


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(
        prog="tdsynth",
        description="Synthesize combined transmission-and-distribution test networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="run the synthesis pipeline from a config file")
    gen.add_argument("config", help="flat key=value config file")
    gen.add_argument("--templates", help="directory with mini-tn/ and mini-dn/ bundles")
    gen.add_argument("--out", default="output", help="output root (default: ./output)")
    gen.add_argument("--seed", type=int, help="override rng_seed from the config")
    gen.add_argument("--profile", metavar="PATH",
                     help="write stage times and solver counters as JSON to PATH")
    gen.set_defaults(func=_cmd_generate)

    ins = sub.add_parser("inspect", help="load a case bundle and print its state")
    ins.add_argument("case_dir", help="directory holding case.m (+ case.oltc.csv)")
    ins.add_argument("--profile", metavar="PATH",
                     help="write stage times and solver counters as JSON to PATH")
    ins.set_defaults(func=_cmd_inspect)

    args = parser.parse_args(argv)
    args.started = started
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

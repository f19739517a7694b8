"""The benchmark's own self-tests.

    python3 perfbench/selftest.py

Checks, in about half a minute:

* the ROADMAP baseline counts: mini, 10x and 50x at penetration 0.5 give
  3/21/103 replicas, 41/239/1,141 buses and 154/407/1,532 NR solves;
* the one-``customize_dn``-per-host shortcut the 800x bundle is built with
  gives the replicas (and, once regulated, the combined case) that
  ``generate`` gives with ``random = false``;
* the correctness gate rejects a corrupted bundle and the loop counts the
  operation as failed;
* the tracer's wrappers restore every original binding;
* the speed probe samples while a command runs and stops its thread.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import run  # puts the checkout's src/ on the path and imports tdsynth
import tdsynth
import tdsynth.cli
from tdsynth import SynthesisConfig

import gate
import speed
import tracer as T
import workloads as W

BASELINE = {  # k: (replicas, buses, NR solves)
    1: (3, 41, 154),
    10: (21, 239, 407),
    50: (103, 1141, 1532),
}


def check_baseline(work: Path) -> None:
    bundled = tdsynth.bundled_template_dir()
    for k, want in BASELINE.items():
        templates = bundled if k == 1 else W.build_templates(work / f"t{k}", k)
        conf = W.write_config(run.ROOT, work, f"base{k}.conf", {"penetration_level": 0.5})
        tracer = T.Tracer()
        tracer.install()
        try:
            out = run.run_cli(["generate", str(conf), "--templates", str(templates),
                               "--out", str(work / f"o{k}")], tracer)
        finally:
            tracer.uninstall()
        assert out.rc == 0, out
        combined = json.loads(gate.read_bundle(work / f"o{k}")[1]["manifest.json"])
        got = (len(combined["instances"]), combined["combined"]["buses"],
               tracer.layers["op"]["powerflow.solve"].calls)
        assert got == want, f"{k}x: (replicas, buses, solves) = {got}, ROADMAP says {want}"
        print(f"  {k}x: {got[0]} replicas, {got[1]} buses, {got[2]} NR solves")


def check_shortcut(work: Path) -> None:
    templates = W.build_templates(work / "shortcut", 10)
    cfg = SynthesisConfig(random=False, rng_seed=5)
    full = tdsynth.generate(templates / "mini-tn", templates / "mini-dn", cfg)
    tn, fast, _ = W.shortcut_instances(templates, cfg)
    assert len(fast) == len(full.instances) == 21, (len(fast), len(full.instances))
    for a, b in zip(full.instances, fast):
        fields = [f.name for f in dataclasses.fields(a) if f.name not in ("case", "regulation")]
        for name in fields:
            assert getattr(a, name) == getattr(b, name), (name, getattr(a, name), getattr(b, name))
        assert _text(a.case) == _text(b.case), f"replica {a.host_tn_bus}/{a.copy_index} differs"
    combined = tdsynth.assemble(tn, fast)
    sol, _ = tdsynth.regulate(combined, cfg.solver_options(), max_rounds=cfg.oltc_max_rounds)
    tdsynth.apply_solution(combined, sol)
    assert _text(combined) == _text(full.case), "regulated shortcut assembly differs from generate"
    print(f"  10x shortcut: {len(fast)} replicas and the combined case match generate")


def _text(case) -> str:
    doc, annotations = tdsynth.from_network(case)
    return tdsynth.emit_case(doc) + repr(annotations)


def check_gate(work: Path) -> None:
    conf = W.write_config(run.ROOT, work, "gate.conf", {"random": True, "rng_seed": 3})
    inputs = run._generate_inputs(conf, tdsynth.bundled_template_dir())
    loop = run.Loop("generate", inputs, work / "loop")
    loop.operation()
    assert (loop.attempted, loop.failed) == (1, 0), "a clean operation failed the gate"

    original = tdsynth.cli.main

    def corrupting_main(argv):
        rc = original(argv)
        if argv[0] == "generate":
            case_m = gate.read_bundle(Path(argv[argv.index("--out") + 1]))[0] / "case.m"
            lines = case_m.read_text().splitlines()
            row = lines.index("mpc.bus = [") + 3
            cells = lines[row].split("\t")     # a leading tab, then bus_i, type, ...
            cells[8] = repr(float(cells[8]) + 1e-3)     # Vm of the third bus
            lines[row] = "\t".join(cells)
            case_m.write_text("\n".join(lines) + "\n")
        return rc

    tdsynth.cli.main = corrupting_main
    try:
        loop.operation()
    finally:
        tdsynth.cli.main = original
    assert (loop.attempted, loop.failed) == (2, 1), "a corrupted bundle passed the gate"
    assert gate.check_inspect(0, "validation:\n  - duplicate bus id 3\n")
    print("  gate: corrupted bundle rejected and counted as failed")


def check_restore(work: Path) -> None:
    modules = T.tdsynth_modules()
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    cls = tdsynth.NetworkCase
    clone = cls.__dict__["clone"]
    tracer = T.Tracer()
    tracer.install()
    try:
        assert tdsynth.oltc.solve is not before[("tdsynth.oltc", "solve")]
        assert tdsynth.synth.solve is tdsynth.powerflow.solve, "one wrapper per function"
        assert cls.__dict__["clone"] is not clone
        patched = len(tracer._patched)
    finally:
        tracer.uninstall()
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert not changed, f"bindings not restored: {changed}"
    assert cls.__dict__["clone"] is clone
    print(f"  tracer: {patched} bindings of {len(tracer.targets)} functions restored")


def check_probe(work: Path) -> None:
    with speed.Probe() as probe:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            sum(i * i for i in range(1000))
    assert not probe._thread.is_alive(), "the probe thread outlived its block"
    assert probe.units, "the probe ran no unit in 0.3 s"
    assert probe.factor > 0
    print(f"  probe: {probe.units} units, factor {probe.factor:.2f}, thread stopped")


def main() -> int:
    run.STATE.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.STATE))
    failures = 0
    try:
        for check in (check_restore, check_probe, check_gate, check_shortcut, check_baseline):
            print(check.__name__)
            try:
                check(work)
            except AssertionError as exc:
                failures += 1
                print(f"  FAILED: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("self-test " + ("passed" if failures == 0 else f"failed ({failures})"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

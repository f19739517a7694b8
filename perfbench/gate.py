"""Per-operation correctness gate.

An operation fails if it raises, returns a non-zero exit code or fails the
checks below; failures are counted against the operations attempted.  The
checks read the files the operation wrote and recompute what they can
independently of the solver (``tdsynth.residual`` and a per-branch
pi-model), so a faster kernel cannot pass by reporting its own numbers.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tdsynth
from tdsynth import GenKind, SynthesisConfig
from tdsynth.residual import max_residual

PEN_SPREAD = 0.05        # the +-5% per-replica randomization
CONSERVATION = 0.005     # boundary import kept within 0.5% under constant_load
CAPACITY_SCALE = (0.99, 1.01)   # the mini-dn capacity contract: binds at 1.0


@dataclass
class GenerateSpec:
    cfg: SynthesisConfig
    templates: Path
    replicas: int | None = None      # pinned workload identity
    buses: int | None = None


def read_bundle(out_root: Path) -> tuple[Path, dict[str, bytes]]:
    runs = [p for p in out_root.iterdir() if p.is_dir()]
    if len(runs) != 1:
        raise ValueError(f"expected one run directory under {out_root}, found {len(runs)}")
    return runs[0], {p.name: p.read_bytes() for p in sorted(runs[0].iterdir())}


def check_generate(
    rc: int, out_root: Path, spec: GenerateSpec, reference: dict[str, bytes] | None
) -> tuple[list[str], Path | None, dict[str, bytes]]:
    """Problems found in one ``generate`` run, its bundle directory and the
    bundle's bytes."""
    if rc != 0:
        return [f"generate returned {rc}"], None, {}
    bundle, files = read_bundle(out_root)
    cfg = spec.cfg
    want = {"case.m", "case.oltc.csv", "manifest.json", "summary.json"}
    if cfg.run_opf:
        want.add("opf_trace.csv")
    problems = []
    if set(files) != want:
        problems.append(f"bundle files {sorted(files)}, expected {sorted(want)}")
    if reference is not None and files != reference:
        diff = sorted(n for n in set(files) | set(reference) if files.get(n) != reference.get(n))
        problems.append(f"bundle differs from the run's first bundle in {diff}")

    case = tdsynth.load_case_dir(bundle)
    report = tdsynth.validate(case)
    if not report.ok:
        problems.append("validate: " + "; ".join(report.entries[:3]))
    vm = np.array([b.v_mag for b in case.buses])
    va = np.array([b.v_ang for b in case.buses])
    residual = max_residual(case, vm, va)
    if not residual <= cfg.pf_tolerance:
        problems.append(f"exported state has residual {residual:.3e} > {cfg.pf_tolerance:.0e}")

    manifest = json.loads(files["manifest.json"])
    problems += _check_counts(case, manifest, spec)
    problems += _check_penetration(case, manifest, spec)
    if cfg.constant_load:
        problems += _check_conservation(case, vm, va, spec)
    if cfg.run_opf and not manifest.get("opf", {}).get("feasible"):
        problems.append("OPF is not feasible")
    return problems, bundle, files


def check_inspect(rc: int, stdout: str) -> list[str]:
    problems = []
    if rc != 0:
        problems.append(f"inspect returned {rc}")
    lines = stdout.splitlines()
    if "validation: ok" not in lines:
        problems.append("inspect did not report 'validation: ok'")
    if not any(line.startswith("power flow: converged") for line in lines):
        problems.append("inspect did not report a converged power flow")
    return problems


def _check_counts(case, manifest, spec: GenerateSpec) -> list[str]:
    problems = []
    cap = manifest["template_capacity"]
    lo, hi = CAPACITY_SCALE
    if not lo <= cap["max_scale"] <= hi:
        problems.append(f"capacity search binds at {cap['max_scale']}, not about 1.0")
    per_host: dict[int, list[int]] = {}
    for inst in manifest["instances"]:
        per_host.setdefault(inst["host_bus"], []).append(inst["copy"])
    for load in manifest["replaced_loads"]:
        want = max(1, math.ceil(load["p_load"] / (cap["p_capacity"] * spec.cfg.oversize)))
        got = per_host.pop(load["bus"], [])
        if sorted(got) != list(range(want)):
            problems.append(f"count law: host {load['bus']} has copies {sorted(got)}, expected {want}")
    if per_host:
        problems.append(f"replicas on hosts that replace no load: {sorted(per_host)}")

    n_tn = len(tdsynth.load_case_dir(spec.templates / "mini-tn").buses)
    n_dn = len(tdsynth.load_case_dir(spec.templates / "mini-dn").buses)
    n_rep = len(manifest["instances"])
    if len(case.buses) != n_tn + n_rep * (n_dn - 1):
        problems.append(f"{len(case.buses)} buses, expected {n_tn} + {n_rep} x {n_dn - 1}")
    if spec.replicas is not None and n_rep != spec.replicas:
        problems.append(f"{n_rep} replicas, workload pins {spec.replicas}")
    if spec.buses is not None and len(case.buses) != spec.buses:
        problems.append(f"{len(case.buses)} buses, workload pins {spec.buses}")
    return problems


def _check_penetration(case, manifest, spec: GenerateSpec) -> list[str]:
    """Each replica's DG output over its pre-growth demand, recomputed from
    the exported case.  With the OPF on, controllable units are re-dispatched,
    so only the PV share of the sizing is audited."""
    cfg = spec.cfg
    p_template = sum(b.p_load for b in tdsynth.load_case_dir(spec.templates / "mini-dn").buses)
    replica_of = {}
    for b in case.buses:
        if b.name.startswith("dn:"):
            host, copy, _ = b.name[3:].split(":")
            replica_of[b.id] = (int(host), int(copy))
    dg = {}
    pv = {}
    for g in case.generators:
        key = replica_of.get(g.bus_id)
        if key is None or g.kind not in (GenKind.DN_CONTROLLABLE, GenKind.DN_PV):
            continue
        dg[key] = dg.get(key, 0.0) + g.p
        if g.kind is GenKind.DN_PV:
            pv[key] = pv.get(key, 0.0) + g.p
    problems = []
    for inst in manifest["instances"]:
        key = (inst["host_bus"], inst["copy"])
        demand = inst["load_scale"] * p_template
        if cfg.run_opf:
            if inst["generation_split"] >= 1.0:
                continue
            realized = pv.get(key, 0.0) / ((1.0 - inst["generation_split"]) * demand)
        else:
            realized = dg.get(key, 0.0) / demand
        if abs(realized / cfg.penetration_level - 1.0) > PEN_SPREAD + 1e-9:
            problems.append(f"replica {key}: penetration {realized:.4f} off {cfg.penetration_level}")
    return problems


def _check_conservation(case, vm, va, spec: GenerateSpec) -> list[str]:
    """Per host bus, the import through the replicas' tap-changer root
    branches equals the aggregated load the replicas replaced."""
    original = {
        b.id: b.p_load
        for b in tdsynth.load_case_dir(spec.templates / "mini-tn").buses
        if b.p_load > 0
    }
    idx = case.bus_index()
    transfers: dict[int, float] = {}
    for t in case.oltcs:
        br = case.branches[t.branch_ref]
        transfers[br.from_bus] = transfers.get(br.from_bus, 0.0) + _p_from(br, idx, vm, va)
    problems = []
    for bus, p in sorted(transfers.items()):
        rel = abs(p - original[bus]) / original[bus]
        if rel > CONSERVATION:
            problems.append(f"host {bus}: import {p:.6f} vs replaced load {original[bus]:.6f}")
    return problems


def _p_from(br, idx, vm, va) -> float:
    """Sending-end active flow of one branch from the pi-model."""
    f, t = idx[br.from_bus], idx[br.to_bus]
    vf = vm[f] * cmath.exp(1j * va[f])
    vt = vm[t] * cmath.exp(1j * va[t])
    y = 1.0 / complex(br.r, br.x)
    tap = br.ratio * cmath.exp(1j * br.phase_shift)
    vi = vf / tap
    i_from = ((vi - vt) * y + vi * 0.5j * br.b_charging) / tap.conjugate()
    return (vf * i_from.conjugate()).real

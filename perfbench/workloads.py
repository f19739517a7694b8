"""Workload inputs: configs, k-times rescaled templates and the 800x bundle.

Everything here is built from the files of the checkout (``configs/`` and
the bundled ``mini-tn``/``mini-dn`` templates) and from public tdsynth
functions.  The workload seed reaches the program only as ``rng_seed``.

k-times rescaling: every ``mini-dn`` branch r and x is multiplied by k and
every ``mini-dn`` load divided by k.  The voltage drop is unchanged, so the
capacity search still binds at scale 1.0, while each replica carries 1/k of
the power and the replica count grows about k-fold.
"""

from __future__ import annotations

import dataclasses
import shutil
from pathlib import Path

# Library calls go through the package namespace (``tdsynth.solve``), so the
# outside-in tracer sees the set-up work as well.
import tdsynth
from tdsynth import SynthesisConfig

# Pinned identities: a workload that builds anything else is not the
# workload the numbers were recorded on.
FEEDERS_K = 50
FEEDERS_REPLICAS = 103
FEEDERS_BUSES = 1141
INSPECT_K = 800
INSPECT_REPLICAS = 1629
INSPECT_BUSES = 17927


def derive_config(base_text: str, overrides: dict[str, object]) -> str:
    """Rewrite a flat ``key = value`` config, replacing the overridden keys
    in place and appending the ones the base does not set."""
    pending = {k: _conf_value(v) for k, v in overrides.items()}
    lines = []
    for raw in base_text.splitlines():
        key = raw.split("#", 1)[0].partition("=")[0].strip()
        if key in pending:
            lines.append(f"{key} = {pending.pop(key)}")
        else:
            lines.append(raw)
    lines += [f"{k} = {v}" for k, v in pending.items()]
    return "\n".join(lines) + "\n"


def _conf_value(v: object) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def write_config(root: Path, work: Path, name: str, overrides: dict[str, object]) -> Path:
    base = (root / "configs" / "default.conf").read_text()
    path = work / name
    path.write_text(derive_config(base, overrides))
    return path


def build_templates(dest: Path, k: int) -> Path:
    """Write ``dest/mini-tn`` (shipped) and ``dest/mini-dn`` rescaled k times."""
    src = tdsynth.bundled_template_dir()
    shutil.copytree(src / "mini-tn", dest / "mini-tn")
    dn = tdsynth.load_case_dir(src / "mini-dn")
    for br in dn.branches:
        br.r *= k
        br.x *= k
    for b in dn.buses:
        b.p_load /= k
        b.q_load /= k
    tdsynth.save_case_dir(dn, dest / "mini-dn")
    for name in ("meta.csv", "README"):
        shutil.copy(src / "mini-dn" / name, dest / "mini-dn" / name)
    return dest


def shortcut_instances(templates: Path, cfg: SynthesisConfig):
    """The replicas ``generate`` builds with ``random = false``, made with one
    ``customize_dn`` per host bus and cloned per copy (without randomization
    a replica does not depend on its copy index).

    Returns (tn, instances, capacity) with ``tn`` solved, as ``generate``
    holds it right before assembly.
    """
    if cfg.random:
        raise ValueError("the per-host shortcut only holds with random = false")
    solver = cfg.solver_options()
    tn_bundle = tdsynth.load_bundle(templates / "mini-tn")
    tn = tn_bundle.case.clone()
    tn_sol = tdsynth.solve(tn, solver)
    tdsynth.apply_solution(tn, tn_sol)
    selected = tdsynth.select_replaceable_loads(tn, cfg.large_system, tn_bundle.meta.area_names)
    dn = tdsynth.load_bundle(templates / "mini-dn").case
    capacity = tdsynth.dn_max_capacity(
        dn, cfg.dn_v_limits, tolerance=cfg.capacity_tolerance,
        ceiling=cfg.capacity_ceiling, solver=solver, max_rounds=cfg.oltc_max_rounds,
    )
    idx = tn.bus_index()
    instances = []
    for bus_id, p_load, _q in selected:
        count = tdsynth.dn_count(p_load, capacity.p_capacity * cfg.oversize)
        host_v = float(tn_sol.v_mag[idx[bus_id]])
        first = tdsynth.customize_dn(
            dn, p_load / count, cfg, None, source_v=host_v, host_bus=bus_id, copy_index=0
        )
        instances.append(first)
        for copy_index in range(1, count):
            instances.append(
                dataclasses.replace(first, case=first.case.clone(), copy_index=copy_index)
            )
    return tn, instances, capacity


def build_assembled_bundle(templates: Path, seed: int, dest: Path) -> int:
    """Write the assembled, not yet regulated combined case under ``dest``:
    the state where ``generate``'s combined-solve stage starts.  Returns the
    bus count."""
    cfg = SynthesisConfig(random=False, rng_seed=seed)
    tn, instances, _ = shortcut_instances(templates, cfg)
    if len(instances) != INSPECT_REPLICAS:
        raise RuntimeError(f"800x bundle has {len(instances)} replicas, expected {INSPECT_REPLICAS}")
    combined = tdsynth.assemble(tn, instances)
    tdsynth.save_case_dir(combined, dest)
    return len(combined.buses)

import json
import shutil
from collections import Counter
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

from tdsynth import powerflow, residual
from tdsynth import synth as synth_mod
from tdsynth.caseio import emit_case, from_network, load_case_dir, save_case_dir
from tdsynth.netmodel import GenKind, penetration_level, total_load, validate
from tdsynth.oltc import regulate
from tdsynth.powerflow import _structure
from tdsynth.synth import (
    PipelineError,
    SolveCounts,
    SynthesisConfig,
    SynthesisError,
    _rng_for,
    assemble,
    boundary_transfers,
    customize,
    customize_dn,
    dn_count,
    dn_max_capacity,
    generate,
    select_replaceable_loads,
)
from tdsynth.templates import load_bundle

from helpers import scaled_templates


def test_select_replaceable_loads(tn_bundle):
    names = tn_bundle.meta.area_names
    large = select_replaceable_loads(tn_bundle.case, True, names)
    assert [bus for bus, _, _ in large] == [5, 7]  # Equiv bus 4 excluded
    small = select_replaceable_loads(tn_bundle.case, False, names)
    assert [bus for bus, _, _ in small] == [5]
    # bus 6 is a zero-load Central bus in the shipped template: not a load
    assert all(bus != 6 for bus, _, _ in large)


def test_select_requires_some_load(tn_bundle):
    case = tn_bundle.case.clone()
    equiv = next(code for code, name in tn_bundle.meta.area_names.items() if name == "Equiv")
    for b in case.buses:
        b.area = equiv
    with pytest.raises(SynthesisError, match="no replaceable loads"):
        select_replaceable_loads(case, True, tn_bundle.meta.area_names)


def test_meta_rejects_a_second_generator_classification(tmp_path, dn_bundle):
    from tdsynth.templates import read_meta

    assert read_meta(dn_bundle.path / "meta.csv").area_names == {}
    for row in ("dg,1,controllable", "feeder,1,3"):
        path = tmp_path / "meta.csv"
        path.write_text(f"record,key,value\n{row}\n")
        with pytest.raises(ValueError, match="unknown meta record type"):
            read_meta(path)


def test_dn_count_rounding():
    assert dn_count(1.0, 0.3) == 4
    assert dn_count(0.9, 0.3) == 3
    assert dn_count(0.01, 0.3) == 1


def test_capacity_binds_at_unity_scale(dn_bundle):
    # the shipped replica template is calibrated so the [0.95, 1.05] search
    # lands on 1.0; decisive direct probes one percent either side
    from tdsynth.netmodel import total_load
    from tdsynth.oltc import regulate
    from tdsynth.synth import _scale_loads, _zero_dg

    cap = dn_max_capacity(dn_bundle.case, (0.95, 1.05), tolerance=1e-3)
    assert abs(cap.max_scale - 1.0) <= 1e-3
    assert cap.binding_bus in (9, 12)  # feeder ends, per the template README
    assert cap.p_capacity == pytest.approx(
        total_load(dn_bundle.case)[0] * cap.max_scale, rel=1e-12
    )
    for scale, expect_ok in ((0.99, True), (1.01, False)):
        trial = dn_bundle.case.clone()
        _zero_dg(trial)
        _scale_loads(trial, scale)
        sol, _ = regulate(trial)
        idx = trial.bus_index()
        slack_id = trial.buses.id[_structure(trial).slack]
        ok = all(
            0.95 <= float(sol.v_mag[idx[b.id]]) <= 1.05
            for b in trial.buses
            if b.id != slack_id
        )
        assert ok == expect_ok


def test_capacity_unbounded_when_limits_removed(dn_bundle):
    # with the bounds effectively gone the search runs into its ceiling
    # (kept below the template's loadability nose, where the flow collapses)
    cap = dn_max_capacity(dn_bundle.case, (0.0, 2.0), ceiling=2.5)
    assert cap.unbounded_by_voltage
    assert cap.max_scale == 2.5
    assert cap.binding_bus is None
    # past the nose the probe diverges, which also counts as infeasible
    nose = dn_max_capacity(dn_bundle.case, (0.0, 2.0), ceiling=10.0)
    assert not nose.unbounded_by_voltage
    assert 2.5 < nose.max_scale < 10.0


def test_capacity_zero_scale_bracket_is_feasible(dn_bundle):
    # the search presumes a feasible lower bracket; a template that violates
    # limits even unloaded is rejected outright
    cap = dn_max_capacity(dn_bundle.case, (0.95, 1.05))
    assert cap.max_scale > 0.5
    with pytest.raises(SynthesisError, match="zero load"):
        dn_max_capacity(dn_bundle.case, (1.2, 1.3))


def test_capacity_is_searched_at_the_replicas_tap_setpoint(template_dir, dn_bundle):
    # the replicas regulate at oltc_v_set, not at the template's own setpoint
    cfg = SynthesisConfig(penetration_level=0.0, oltc_v_set=0.98)
    result = generate(template_dir / "mini-tn", template_dir / "mini-dn", cfg)
    at_setpoint = dn_bundle.case.clone()
    for t in at_setpoint.oltcs:
        t.v_set = cfg.oltc_v_set
    cap = dn_max_capacity(at_setpoint, cfg.dn_v_limits, tolerance=cfg.capacity_tolerance,
                          ceiling=cfg.capacity_ceiling, max_rounds=cfg.oltc_max_rounds)
    assert result.manifest["template_capacity"]["max_scale"] == cap.max_scale
    assert cap.max_scale < dn_max_capacity(dn_bundle.case, cfg.dn_v_limits).max_scale


def _cfg(**kw):
    return SynthesisConfig(**kw)


def test_customize_zero_penetration_is_pure_load_scaling(dn_bundle):
    cfg = _cfg(penetration_level=0.0)
    inst = customize_dn(dn_bundle.case, 0.4, cfg, _rng_for(cfg, 5, 0), source_v=1.0)
    assert all(
        g.p == 0.0
        for g in inst.case.generators
        if g.kind in (GenKind.DN_CONTROLLABLE, GenKind.DN_PV)
    )
    assert inst.boundary_p == pytest.approx(0.4, rel=2e-4)
    assert inst.realized_penetration == 0.0


def test_customize_exact_penetration_and_split(dn_bundle):
    cfg = _cfg(penetration_level=0.5, generation_split=0.5)
    inst = customize_dn(dn_bundle.case, 0.4, cfg, _rng_for(cfg, 5, 0), source_v=1.0)
    assert validate(inst.case).ok  # constructors hand back clean cases
    assert penetration_level(inst.case) == pytest.approx(0.5, abs=1e-14)
    ctrl = [g.p for g in inst.case.generators if g.kind is GenKind.DN_CONTROLLABLE]
    pv = [g.p for g in inst.case.generators if g.kind is GenKind.DN_PV]
    p_loads, _ = total_load(inst.case)
    assert sum(ctrl) == pytest.approx(0.5 * 0.5 * p_loads, rel=1e-12)
    assert sum(pv) == pytest.approx(0.5 * 0.5 * p_loads, rel=1e-12)
    assert len(set(np.round(ctrl, 15))) == 1  # equal shares inside each group
    assert len(set(np.round(pv, 15))) == 1
    assert all(g.q == 0.0 for g in inst.case.generators if g.kind is GenKind.DN_PV)


def test_customize_randomization_stays_within_five_percent(dn_bundle):
    cfg = _cfg(penetration_level=0.8, generation_split=0.5, random=True, rng_seed=42)
    for copy in range(6):
        inst = customize_dn(
            dn_bundle.case, 0.4, cfg, _rng_for(cfg, 5, copy), source_v=1.0,
            host_bus=5, copy_index=copy,
        )
        assert abs(inst.realized_penetration / 0.8 - 1.0) <= 0.05
        assert abs(inst.realized_split / 0.5 - 1.0) <= 0.05
        assert penetration_level(inst.case) == pytest.approx(
            inst.realized_penetration, abs=1e-14
        )


def test_customize_rng_streams_are_stable_per_replica(dn_bundle):
    cfg = _cfg(random=True, rng_seed=9)
    a = customize_dn(dn_bundle.case, 0.4, cfg, _rng_for(cfg, 5, 1), source_v=1.0)
    b = customize_dn(dn_bundle.case, 0.4, cfg, _rng_for(cfg, 5, 1), source_v=1.0)
    assert a.realized_penetration == b.realized_penetration
    other = customize_dn(dn_bundle.case, 0.4, cfg, _rng_for(cfg, 7, 1), source_v=1.0)
    assert other.realized_penetration != a.realized_penetration


def test_customize_rejects_overfull_generator(dn_bundle):
    cfg = _cfg(penetration_level=20.0)
    with pytest.raises(SynthesisError, match="exceeds p_max"):
        customize_dn(dn_bundle.case, 0.45, cfg, _rng_for(cfg, 5, 0), source_v=1.0)


def test_customize_constant_load_restores_boundary_import(dn_bundle):
    base = customize_dn(
        dn_bundle.case, 0.45, _cfg(penetration_level=0.0), _rng_for(_cfg(), 5, 0),
        source_v=1.0,
    )
    grown = customize_dn(
        dn_bundle.case, 0.45, _cfg(penetration_level=0.5, constant_load=True),
        _rng_for(_cfg(), 5, 0), source_v=1.0,
    )
    assert abs(grown.boundary_p - base.boundary_p) <= 0.005 * abs(base.boundary_p)
    # the demand grew to absorb the DG output
    assert total_load(grown.case)[0] > total_load(base.case)[0]


def test_assemble_zero_instances_is_identity(tn_bundle):
    combined = assemble(tn_bundle.case, [])
    assert combined == tn_bundle.case


def test_assemble_rejects_a_host_outside_the_transmission_case(tn_bundle, dn_bundle):
    cfg = _cfg()
    host = select_replaceable_loads(tn_bundle.case, True)[0][0]
    inst = customize_dn(dn_bundle.case, 0.4, cfg, _rng_for(cfg, host, 0), host_bus=host)
    # the first replica bus gets the id after the largest TN id
    replica_bus = max(b.id for b in tn_bundle.case.buses) + 1
    stray = replace(inst, host_tn_bus=replica_bus, copy_index=1)
    with pytest.raises(SynthesisError, match=f"host bus {replica_bus} is not a transmission bus"):
        assemble(tn_bundle.case, [inst, stray])


def test_assemble_counting_and_residual(run_pipeline, dn_bundle, tn_bundle):
    result = run_pipeline(SynthesisConfig(penetration_level=0.5))
    n_tn = len(tn_bundle.case.buses)
    per_replica = len(dn_bundle.case.buses) - 1  # boundary bus merges with host
    assert len(result.case.buses) == n_tn + per_replica * len(result.instances)
    assert validate(result.case).ok
    # combined-case residual, recomputed independently of the solver
    worst = residual.max_residual(
        result.case, result.solution.v_mag, result.solution.v_ang
    )
    assert worst <= 1e-8
    # aggregated loads replaced: host buses carry no direct demand any more
    for bus_id, _, _ in result.selected:
        host = result.case.bus(bus_id)
        assert host.p_load == 0.0 and host.q_load == 0.0
    # structured names
    names = [b.name for b in result.case.buses if b.name.startswith("dn:")]
    assert len(names) == per_replica * len(result.instances)


def test_zero_penetration_replicas_reproduce_aggregated_loads(run_pipeline, tn_bundle):
    # with no DG and no oversizing the replicas stand in for the original
    # aggregated loads: the boundary draw matches the replaced demand
    result = run_pipeline(SynthesisConfig(penetration_level=0.0))
    transfers = boundary_transfers(result.case, result.solution)
    originals = {b.id: b.p_load for b in tn_bundle.case.buses if b.p_load > 0}
    for bus, p in transfers.items():
        assert abs(p - originals[bus]) <= 0.005 * originals[bus]


def test_assembled_boundary_flows_match_instances(run_pipeline):
    result = run_pipeline(SynthesisConfig(penetration_level=0.5))
    transfers = boundary_transfers(result.case, result.solution)
    expected: dict[int, float] = {}
    for inst in result.instances:
        expected[inst.host_tn_bus] = expected.get(inst.host_tn_bus, 0.0) + inst.boundary_p
    for bus, p in expected.items():
        assert transfers[bus] == pytest.approx(p, rel=7e-3, abs=5e-4)


def test_generate_all_knobs_together(template_dir):
    cfg = SynthesisConfig(
        penetration_level=0.9,
        generation_split=0.5,
        constant_load=True,
        random=True,
        rng_seed=21,
        oversize=2.0,
        large_system=True,
    )
    result = generate(template_dir / "mini-tn", template_dir / "mini-dn", cfg)
    assert result.solution.converged
    assert validate(result.case).ok
    for inst in result.instances:
        assert abs(inst.realized_penetration / 0.9 - 1.0) <= 0.05
        assert abs(inst.realized_split / 0.5 - 1.0) <= 0.05


def test_generate_reports_equipment_ceiling(template_dir):
    # doubling replica demand while pushing 70% of 90% penetration onto two
    # controllable units breaches their output ceiling: the pipeline names
    # the offending generator instead of silently clipping
    cfg = SynthesisConfig(
        penetration_level=0.9, generation_split=0.7, oversize=2.0,
    )
    with pytest.raises(PipelineError, match="exceeds p_max .* generator 1 at bus 4"):
        generate(template_dir / "mini-tn", template_dir / "mini-dn", cfg)


def test_manifest_records_regulation_settling_and_import_residual(run_pipeline):
    result = run_pipeline(SynthesisConfig(penetration_level=0.5))
    records = result.manifest["instances"]
    assert len(records) == len(result.instances)
    for rec, inst in zip(records, result.instances):
        assert rec["regulation_settled"] is inst.regulation.settled
        assert rec["import_mismatch"] == inst.import_mismatch
        assert 0.0 <= inst.import_mismatch <= 1e-4  # the loop met its target
    assert result.manifest["combined"]["regulation_settled"] is result.regulation.settled


def test_generate_with_opf_writes_trace_and_manifest(template_dir, tmp_path):
    cfg = SynthesisConfig(penetration_level=1.2, large_system=False, run_opf=True)
    result = generate(
        template_dir / "mini-tn", template_dir / "mini-dn", cfg, out_dir=tmp_path / "run"
    )
    assert result.opf is not None and result.opf.feasible
    assert result.manifest["opf"]["objective"] == pytest.approx(result.opf.objective)
    assert result.manifest["opf"]["converged"] is True
    assert result.manifest["opf"]["settled"] is result.opf.settled
    assert result.manifest["opf"]["iterations"] == result.opf.iterations > 0
    # one step count per continuous solve, the closing one included
    per_round = result.manifest["opf"]["round_iterations"]
    assert len(per_round) == len(result.opf.trace)
    assert all(isinstance(k, int) and k > 0 for k in per_round)
    assert sum(per_round) == result.manifest["opf"]["iterations"]
    trace = (tmp_path / "run" / "opf_trace.csv").read_text().splitlines()
    assert trace[0] == "round,objective,max_violation,taps_moved"
    assert len(trace) == len(per_round) + 1
    # the exported operating point is the optimized one: every bus inside
    # its own voltage bounds
    assert result.solution.converged
    idx = result.case.bus_index()
    for b in result.case.buses:
        v = float(result.solution.v_mag[idx[b.id]])
        assert b.v_min - 1e-5 <= v <= b.v_max + 1e-5


def test_generate_stage_tags(template_dir):
    with pytest.raises(PipelineError, match=r"\[load-tn\]"):
        generate(template_dir / "missing", template_dir / "mini-dn", SynthesisConfig())
    bad = SynthesisConfig(penetration_level=-2)
    with pytest.raises(PipelineError, match=r"\[config\]"):
        generate(template_dir / "mini-tn", template_dir / "mini-dn", bad)


def _fail_the_post_opf_solve(monkeypatch) -> list:
    """Make the re-solve after the OPF report no convergence; returns the
    list of the solutions ``generate`` got from ``solve``."""
    real_solve, calls = synth_mod.solve, []

    def solve_failing_after_opf(case, opts=None):
        sol = real_solve(case, opts)
        calls.append(sol)
        # the first call is the TN solve, the second the re-solve after the OPF
        return replace(sol, converged=False) if len(calls) == 2 else sol

    monkeypatch.setattr("tdsynth.synth.solve", solve_failing_after_opf)
    return calls


def test_generate_rejects_an_unconverged_post_opf_solve(template_dir, monkeypatch):
    calls = _fail_the_post_opf_solve(monkeypatch)
    cfg = SynthesisConfig(penetration_level=1.2, large_system=False, run_opf=True)
    failed = r"^\[opf\] .* did not converge \(worst mismatch near TN bus"
    with pytest.raises(PipelineError, match=failed):
        generate(template_dir / "mini-tn", template_dir / "mini-dn", cfg)
    assert len(calls) == 2


def test_a_failed_opf_stage_leaves_no_run_directory(template_dir, tmp_path, monkeypatch):
    calls = _fail_the_post_opf_solve(monkeypatch)
    cfg = SynthesisConfig(penetration_level=1.2, large_system=False, run_opf=True)
    with pytest.raises(PipelineError, match=r"^\[opf\] "):
        generate(template_dir / "mini-tn", template_dir / "mini-dn", cfg,
                 out_dir=tmp_path / "run")
    assert len(calls) == 2
    # every file of a bundle is written in the export stage, which never ran
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("fmt, opf", [("matpower", False), ("flat", False), ("matpower", True)],
                         ids=["matpower", "flat", "run_opf"])
def test_generate_lists_every_file_it_writes(template_dir, tmp_path, fmt, opf):
    cfg = SynthesisConfig(penetration_level=1.2, large_system=False, run_opf=opf,
                          export_format=fmt)
    result = generate(template_dir / "mini-tn", template_dir / "mini-dn", cfg,
                      out_dir=tmp_path / "run")
    assert sorted(result.written) == sorted((tmp_path / "run").iterdir())


def _solved_import(dn, cfg: SynthesisConfig, scale: float) -> float:
    """The boundary import of the replica template with its loads scaled by
    ``scale``, regulated from the template's taps."""
    case = synth_mod._replica_template(dn, cfg)
    synth_mod._scale_loads(case, scale)
    sol, _ = regulate(case, cfg.solver_options(), cfg.oltc_max_rounds)
    return float(sol.p_inj[_structure(case).slack])


def test_one_import_round_keeps_the_scale_it_solved(dn_bundle, monkeypatch):
    monkeypatch.setattr(synth_mod, "IMPORT_ROUNDS", 1)
    dn, cfg = dn_bundle.case, _cfg(penetration_level=0.0, oversize=1.1)
    inst = customize_dn(dn, 0.4, cfg, None)
    target = 0.4 * cfg.oversize
    p_template, _ = total_load(synth_mod._replica_template(dn, cfg))
    # the first guess, solved once and not rescaled after
    assert inst.load_scale == target / p_template
    imported = _solved_import(dn, cfg, inst.load_scale)
    assert inst.import_mismatch == abs(imported - target) / target > synth_mod.IMPORT_TOL


def test_one_growth_round_records_the_gap_it_solved(dn_bundle, monkeypatch):
    monkeypatch.setattr(synth_mod, "IMPORT_ROUNDS", 1)
    monkeypatch.setattr(synth_mod, "GROWTH_ROUNDS", 1)
    dn, cfg = dn_bundle.case, _cfg(penetration_level=0.5, constant_load=True)
    grown = customize_dn(dn, 0.45, cfg, None)
    pre_dg = _solved_import(dn, cfg, grown.load_scale)
    assert grown.constant_load_mismatch == abs(grown.boundary_p - pre_dg) / abs(pre_dg)
    # one regulation, and the copy holds the state it solved
    report = grown.regulation
    assert grown.constant_load_counts == SolveCounts(report.solves, report.iterations,
                                                     report.rounds)
    sol, again = regulate(grown.case, cfg.solver_options(), cfg.oltc_max_rounds)
    assert again.rounds == 0
    assert float(sol.p_inj[_structure(grown.case).slack]) == pytest.approx(grown.boundary_p,
                                                                           rel=1e-9)


def test_generate_random_streams_survive_selection_change(template_dir):
    small = generate(
        template_dir / "mini-tn", template_dir / "mini-dn",
        SynthesisConfig(random=True, rng_seed=5, large_system=False),
    )
    large = generate(
        template_dir / "mini-tn", template_dir / "mini-dn",
        SynthesisConfig(random=True, rng_seed=5, large_system=True),
    )
    small_pens = {
        (i.host_tn_bus, i.copy_index): i.realized_penetration for i in small.instances
    }
    large_pens = {
        (i.host_tn_bus, i.copy_index): i.realized_penetration for i in large.instances
    }
    for key, value in small_pens.items():
        assert large_pens[key] == value


def test_generate_matches_each_host_import_once(tmp_path, monkeypatch):
    templates = scaled_templates(tmp_path, 10)
    real_batch, real_customize = synth_mod._regulate, synth_mod.customize
    sizes, start = [], []

    def recording_batch(structure, stack, *args, **kwargs):
        sizes.append(len(stack))
        return real_batch(structure, stack, *args, **kwargs)

    def marking_customize(*args, **kwargs):
        start.append(len(sizes))
        return real_customize(*args, **kwargs)

    monkeypatch.setattr(synth_mod, "_regulate", recording_batch)
    monkeypatch.setattr(synth_mod, "customize", marking_customize)
    cfg = SynthesisConfig(random=True, constant_load=True, rng_seed=6)
    result = generate(templates / "mini-tn", templates / "mini-dn", cfg)
    assert len(result.instances) == 21
    # one customize call, whose first batch is the import match of every host
    assert len(start) == 1
    assert sizes[start[0]] == len(result.selected) < len(result.instances)

    dn = load_bundle(templates / "mini-dn").case
    idx = result.case.bus_index()  # TN buses keep their positions
    copies = Counter(inst.host_tn_bus for inst in result.instances)
    p_load = {bus: p for bus, p, _q in result.selected}
    for inst in result.instances:
        host = inst.host_tn_bus
        fresh = customize_dn(
            dn, p_load[host] / copies[host], cfg, _rng_for(cfg, host, inst.copy_index),
            source_v=float(result.tn_solution.v_mag[idx[host]]),
            host_bus=host, copy_index=inst.copy_index,
        )
        assert fresh == inst, (host, inst.copy_index)


def test_manifest_records_the_constant_load_residual(run_pipeline):
    grown = run_pipeline(SynthesisConfig(penetration_level=0.5, constant_load=True))
    for rec, inst in zip(grown.manifest["instances"], grown.instances):
        assert rec["constant_load_mismatch"] == inst.constant_load_mismatch
        assert 0.0 <= inst.constant_load_mismatch <= 1e-3  # the loop met its target
    plain = run_pipeline(SynthesisConfig(penetration_level=0.5))
    assert all(rec["constant_load_mismatch"] is None for rec in plain.manifest["instances"])


def test_manifest_solve_counts_equal_a_one_copy_customization(run_pipeline, dn_bundle):
    cfg = SynthesisConfig(penetration_level=0.6, constant_load=True, random=True, rng_seed=8)
    result = run_pipeline(cfg)
    idx = result.case.bus_index()  # TN buses keep their positions
    copies = Counter(inst.host_tn_bus for inst in result.instances)
    p_load = {bus: p for bus, p, _q in result.selected}
    for rec, inst in zip(result.manifest["instances"], result.instances):
        host = inst.host_tn_bus
        alone = customize_dn(
            dn_bundle.case, p_load[host] / copies[host], cfg,
            _rng_for(cfg, host, inst.copy_index),
            source_v=float(result.tn_solution.v_mag[idx[host]]),
            host_bus=host, copy_index=inst.copy_index,
        )
        # the constant-load loop's last round closed the copy: no closing solve
        assert rec["solve_counts"] == {
            "constant_load": asdict(alone.constant_load_counts), "closing": None,
        }
        # the copy's regulation report is the loop's last round
        assert 1 <= alone.regulation.solves <= alone.constant_load_counts.solves
    # without the loop, the post-DG regulation is the closing one
    plain = run_pipeline(replace(cfg, constant_load=False))
    for rec, inst in zip(plain.manifest["instances"], plain.instances):
        closing = inst.regulation
        assert rec["solve_counts"] == {
            "constant_load": None,
            "closing": {"solves": closing.solves, "iterations": closing.iterations,
                        "tap_rounds": closing.rounds},
        }
        assert closing.solves >= 1
    capacity = result.manifest["template_capacity"]
    assert (capacity["probes"], capacity["unsettled_probes"]) == (
        result.capacity.probes, result.capacity.unsettled_probes)


def test_customize_raises_what_the_first_failing_replica_raises(dn_bundle):
    # near the DG ceilings the +-5% draws push some copies over p_max
    cfg = _cfg(penetration_level=3.0, random=True, rng_seed=2)
    outcomes = []
    for copy in range(8):
        try:
            outcomes.append(customize_dn(dn_bundle.case, 0.4, cfg, _rng_for(cfg, 5, copy),
                                         source_v=1.0, host_bus=5, copy_index=copy))
        except SynthesisError as exc:
            outcomes.append(exc)
    failing = [k for k, o in enumerate(outcomes) if isinstance(o, Exception)]
    assert 0 < len(failing) < 8
    assert str(outcomes[failing[0]]).startswith(f"host bus 5, copy {failing[0]}: DG allocation")

    def host(copies):
        return (5, 0.4, 1.0, [(k, _rng_for(cfg, 5, k)) for k in copies])

    with pytest.raises(SynthesisError) as err:
        customize(dn_bundle.case, cfg, [host(range(8))])
    assert str(err.value) == str(outcomes[failing[0]])
    good = [k for k in range(8) if k not in failing]
    assert customize(dn_bundle.case, cfg, [host(good)]) == [outcomes[k] for k in good]

    # the first host in plan order supplies the error, whichever stage it
    # failed in: this one diverges in the import match
    diverging = (7, 40.0, 1.0, [(0, _rng_for(cfg, 7, 0))])
    with pytest.raises(SynthesisError) as err:
        customize(dn_bundle.case, cfg, [host(range(8)), diverging])
    assert str(err.value) == str(outcomes[failing[0]])
    with pytest.raises(SynthesisError, match="^host bus 7: power flow diverged"):
        customize(dn_bundle.case, cfg, [diverging, host(range(8))])


def test_manifest_reports_replica_voltages_against_the_limits():
    from tdsynth.templates import bundled_template_dir

    templates = bundled_template_dir()
    cfg = SynthesisConfig(oltc_v_set=0.98, penetration_level=0.0)
    result = generate(templates / "mini-tn", templates / "mini-dn", cfg)
    case, manifest = result.case, result.manifest
    lo, hi = cfg.dn_v_limits
    # each replica's buses by their assembled names, voltages as solved
    volts: dict[tuple[int, int], list[float]] = {}
    for name, v in zip(case.buses.name, case.buses.v_mag.tolist()):
        if name.startswith("dn:"):
            host, copy = map(int, name.split(":")[1:3])
            volts.setdefault((host, copy), []).append(v)
    assert [(m["host_bus"], m["copy"]) for m in manifest["instances"]] == list(volts)
    for m in manifest["instances"]:
        v = volts[m["host_bus"], m["copy"]]
        assert (m["combined_v_min"], m["combined_v_max"]) == (min(v), max(v))
    outside = sum(v < lo or v > hi for vs in volts.values() for v in vs)
    combined = manifest["combined"]
    assert combined["replica_buses_outside_v_limits"] == outside > 0
    lowest = min(min(vs) for vs in volts.values())
    assert lowest == pytest.approx(0.9425, abs=5e-5)   # below dn_v_min = 0.95
    worst = combined["worst_replica"]
    assert min(volts[worst["host_bus"], worst["copy"]]) == pytest.approx(lowest, abs=1e-12)


def test_worst_replica_is_the_first_of_copies_tied_to_the_last_bit(run_pipeline):
    cfg = SynthesisConfig()
    result = run_pipeline(cfg)
    case = result.case.clone()
    rows: dict[tuple[int, int], list[int]] = {}   # each replica's buses, in plan order
    for i, name in enumerate(case.buses.name):
        if name.startswith("dn:"):
            rows.setdefault(tuple(map(int, name.split(":")[1:3])), []).append(i)
    first, *rest = rows.values()
    assert len(rest) >= 2
    v = case.buses.v_mag
    low, high = first[np.argmin(v[first])], first[np.argmax(v[first])]

    def worst():
        manifest = synth_mod._manifest(cfg, result.capacity, result.selected, result.instances,
                                       case, result.regulation, None)
        return tuple(manifest["combined"]["worst_replica"].values())

    # every replica a copy of the first, each later one a ulp farther out
    for r in rest:
        v[r] = v[first]
        at_low, at_high = r[first.index(low)], r[first.index(high)]
        v[at_low], v[at_high] = np.nextafter(v[at_low], 0.0), np.nextafter(v[at_high], 2.0)
    assert worst() == next(iter(rows))
    # beyond BINDING_TIE the farthest replica is the worst
    v[at_low] -= 10 * synth_mod.BINDING_TIE
    v[at_high] += 10 * synth_mod.BINDING_TIE
    assert worst() == list(rows)[-1]


def test_generate_builds_one_structure_per_network(template_dir, monkeypatch):
    from tdsynth import powerflow

    built, placed = [], []
    real_structure, real_placement = powerflow._structure, powerflow._placement

    def counting_structure(case):
        built.append(len(case.buses))
        return real_structure(case)

    def counting_placement(adm, *at):
        placed.append(id(adm))
        return real_placement(adm, *at)

    monkeypatch.setattr(powerflow, "_structure", counting_structure)
    monkeypatch.setattr(powerflow, "_placement", counting_placement)
    result = generate(template_dir / "mini-tn", template_dir / "mini-dn",
                      SynthesisConfig(constant_load=True, random=True))
    # the TN, the replica template (capacity search, import match and every
    # copy) and the combined case
    tn, dn = (len(load_bundle(template_dir / name).case.buses) for name in ("mini-tn", "mini-dn"))
    assert built == [tn, dn, len(result.case.buses)]
    assert len(set(placed)) == len(placed) <= len(built)


def test_replicas_do_not_alias(dn_bundle, tn_bundle):
    dn = dn_bundle.case.clone()
    tn = tn_bundle.case.clone()
    host, p_load, _q = select_replaceable_loads(tn, True)[0]
    cfg = SynthesisConfig(random=True, constant_load=True)
    plan = [(host, p_load / 3, 1.0, [(k, _rng_for(cfg, host, k)) for k in range(3)])]
    instances = customize(dn, cfg, plan)
    assert dn == dn_bundle.case   # the template is read, never written
    before = [inst.case.clone() for inst in instances]
    combined = assemble(tn, instances)

    first = instances[0].case
    first.buses.p_load[:] *= 2.0
    first.oltcs.tap[0] += 1
    first.sync_ratios()
    assert [inst.case for inst in instances[1:]] == before[1:]
    assert dn == dn_bundle.case
    regrown = assemble(tn, instances)
    added = total_load(regrown)[0] - total_load(combined)[0]
    assert added == pytest.approx(total_load(before[0])[0])
    assert regrown.oltcs.tap.tolist() == [first.oltcs.tap[0]] + combined.oltcs.tap[1:].tolist()

    # a copy made the way perfbench/workloads.py makes its replicas is its own
    twin = replace(instances[1], case=instances[1].case.clone())
    twin.case.buses.p_load[:] = 0.0
    twin.case.oltcs.tap[:] = 0
    assert instances[1].case == before[1]


@pytest.mark.parametrize("constant_load", [False, True])
def test_copies_without_random_are_one_solve_each_their_own(dn_bundle, constant_load):
    # without random the copies of a host have the same inputs: one row per
    # host is solved, and every copy is what a one-copy customization makes,
    # with reports and cases of its own
    dn = dn_bundle.case
    cfg = SynthesisConfig(constant_load=constant_load)
    hosts = [(5, 0.3, 1.01, [(k, None) for k in range(3)]), (7, 0.2, 0.99, [(4, None)])]
    with powerflow.Meter().active() as many:
        instances = customize(dn, cfg, hosts)
    with powerflow.Meter().active() as one:
        alone = [customize_dn(dn, target, cfg, None, source_v=v, host_bus=bus,
                              copy_index=copies[0][0]) for bus, target, v, copies in hosts]
    assert (many.solves, many.iterations) == (one.solves, one.iterations)
    assert [(inst.host_tn_bus, inst.copy_index) for inst in instances] == [
        (5, 0), (5, 1), (5, 2), (7, 4)]
    for inst, want in zip(instances, [alone[0]] * 3 + [alone[1]]):
        for f in fields(inst):
            if f.name not in ("case", "copy_index"):
                assert getattr(inst, f.name) == getattr(want, f.name), f.name
        assert inst.case == want.case
    first, *others = instances[:3]
    for inst in others:
        assert inst.regulation is not first.regulation and inst.case is not first.case
        assert not any(a is b for a, b in zip(vars(inst.regulation).values(),
                                               vars(first.regulation).values())
                       if isinstance(a, list))
        if constant_load:
            assert inst.constant_load_counts is not first.constant_load_counts
    first.regulation.final_taps.append(99)
    first.case.buses.p_load[:] = 0.0
    for inst in others:
        assert inst.regulation == alone[0].regulation and inst.case == alone[0].case


def test_customize_without_copies_builds_nothing(dn_bundle):
    cfg = SynthesisConfig(random=True, constant_load=True)
    assert customize(dn_bundle.case, cfg, []) == []
    assert customize(dn_bundle.case, cfg, [(5, 0.3, None, [])]) == []


def test_assembly_from_the_replica_stack_equals_assembly_from_plain_cases(tmp_path):
    templates = scaled_templates(tmp_path, 10)
    cfg = SynthesisConfig(random=True, constant_load=True)
    instances = generate(templates / "mini-tn", templates / "mini-dn", cfg).instances
    tn = load_bundle(templates / "mini-tn").case

    def text(replicas) -> str:
        return emit_case(from_network(assemble(tn, replicas))[0])

    assert len(instances) == 21 and all(inst._source() is not None for inst in instances)
    stacked = text(instances)
    # every other copy carries a plain case: runs of one row between plain cases
    mixed = [replace(inst, case=inst.case.clone()) if j % 2 else inst
             for j, inst in enumerate(instances)]
    assert text(mixed) == stacked
    plain = [replace(inst, case=inst.case.clone()) for inst in instances]
    assert all(inst._source() is None for inst in plain)
    assert text(plain) == stacked


def test_the_manifest_file_is_strict_json_equal_to_the_result(template_dir, tmp_path):
    def reject(token):
        raise AssertionError(f"manifest.json holds {token}")

    cfg = SynthesisConfig(random=True, constant_load=True)
    result = generate(template_dir / "mini-tn", template_dir / "mini-dn", cfg, out_dir=tmp_path)
    text = (tmp_path / "manifest.json").read_text()
    assert text.count("\n") == 1 and text.endswith("\n")   # one line
    assert json.loads(text, parse_constant=reject) == result.manifest


def test_a_failed_zero_load_probe_says_why(template_dir, dn_bundle):
    # a probe whose regulation diverged reports its own error ...
    cfg = SynthesisConfig(pf_max_iterations=1)
    with pytest.raises(PipelineError, match=(
            r"^\[capacity\] distribution template fails to solve even with zero load: "
            r"power flow diverged in regulation round 1; largest mismatch at bus 2$")):
        generate(template_dir / "mini-tn", template_dir / "mini-dn", cfg)
    # ... and one that solved outside the limits names its worst bus
    with pytest.raises(SynthesisError, match=(
            r"^distribution template violates voltage limits even with zero load "
            r"\(worst bus 2\)$")):
        dn_max_capacity(dn_bundle.case, (1.2, 1.3))


def test_an_unconverged_transmission_solve_names_its_worst_bus(template_dir, tmp_path):
    tn = load_case_dir(template_dir / "mini-tn")
    tn.buses.v_mag[:] = 1.0
    tn.buses.v_ang[:] = 0.0
    save_case_dir(tn, tmp_path / "mini-tn")
    shutil.copytree(template_dir / "mini-dn", tmp_path / "mini-dn")
    with pytest.raises(PipelineError, match=(
            r"^\[tn-solve\] transmission power flow did not converge "
            r"\(worst mismatch near TN bus 5\)$")):
        generate(tmp_path / "mini-tn", tmp_path / "mini-dn",
                 SynthesisConfig(pf_max_iterations=1))


def test_the_summary_file_is_strict_json_equal_to_the_result(template_dir, tmp_path):
    def reject(token):
        raise AssertionError(f"summary.json holds {token}")

    cfg = SynthesisConfig(run_opf=True, random=True)
    result = generate(template_dir / "mini-tn", template_dir / "mini-dn", cfg, out_dir=tmp_path)
    text = (tmp_path / "summary.json").read_text()
    assert text == json.dumps(result.summary, indent=2, sort_keys=True) + "\n"
    assert json.loads(text, parse_constant=reject) == result.summary
    assert result.summary["opf_objective"] == result.opf.objective
    assert result.summary["replica_buses_outside_v_limits"] == (
        result.manifest["combined"]["replica_buses_outside_v_limits"])

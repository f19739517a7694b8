"""Config-space properties of ``generate``: drawn penetration, split,
oversize, demand growth, randomization and seed, on the shipped templates
and on a 10x rescaled ``mini-dn``.  Only facts that hold whatever the last
bits of the solver's arithmetic are checked: the count law, the penetration
audit, boundary conservation under ``constant_load``, validation and the
independent residual of the exported state, and byte-identical bundles
from run to run."""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tdsynth.caseio import load_case_dir
from tdsynth.netmodel import GenKind, validate
from tdsynth.residual import max_residual
from tdsynth.synth import SynthesisConfig, boundary_transfers, generate
from tdsynth.templates import bundled_template_dir

from helpers import scaled_templates

PEN_SPREAD = 0.05        # the +-5% per-replica randomization
CONSERVATION = 0.005     # boundary import kept within 0.5% under constant_load


@pytest.fixture(scope="module")
def templates(tmp_path_factory):
    return {1: bundled_template_dir(), 10: scaled_templates(tmp_path_factory.mktemp("t10"), 10)}


def _bundle(templates: Path, cfg: SynthesisConfig, out: Path):
    result = generate(templates / "mini-tn", templates / "mini-dn", cfg, out_dir=out)
    return result, {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def _check_counts(result, cfg, tn, dn):
    copies: dict[int, list[int]] = {}
    for inst in result.instances:
        copies.setdefault(inst.host_tn_bus, []).append(inst.copy_index)
    capacity = result.capacity.p_capacity * cfg.oversize
    assert copies == {bus: list(range(max(1, math.ceil(p / capacity))))
                      for bus, p, _q in result.selected}
    assert len(result.case.buses) == len(tn.buses) + len(result.instances) * (len(dn.buses) - 1)


def _check_penetration(result, cfg, dn):
    """Each replica's DG output over its demand before any growth."""
    p_template = sum(b.p_load for b in dn.buses)
    for inst in result.instances:
        dg = sum(g.p for g in inst.case.generators
                 if g.kind in (GenKind.DN_CONTROLLABLE, GenKind.DN_PV))
        realized = dg / (inst.load_scale * p_template)
        spread = PEN_SPREAD * cfg.penetration_level if cfg.random else 0.0
        assert abs(realized - cfg.penetration_level) <= spread + 1e-9


def _check_conservation(result, tn, oversize: float):
    """Per host bus, the import through the replicas' root branches equals
    the aggregated load they replaced, times ``oversize``."""
    original = {b.id: oversize * b.p_load for b in tn.buses}
    for bus, p in boundary_transfers(result.case, result.solution).items():
        assert abs(p - original[bus]) <= CONSERVATION * original[bus], bus


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    k=st.sampled_from([1, 10]),
    penetration=st.floats(0.0, 0.8),
    split=st.floats(0.0, 1.0),
    oversize=st.floats(1.0, 1.2),
    constant_load=st.booleans(),
    randomize=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
def test_generate_holds_its_laws_across_the_config_space(
    templates, k, penetration, split, oversize, constant_load, randomize, seed
):
    cfg = SynthesisConfig(
        penetration_level=penetration, generation_split=split, oversize=oversize,
        constant_load=constant_load, random=randomize, rng_seed=seed,
    )
    tn = load_case_dir(templates[k] / "mini-tn")
    dn = load_case_dir(templates[k] / "mini-dn")
    with tempfile.TemporaryDirectory() as tmp:
        result, files = _bundle(templates[k], cfg, Path(tmp) / "a")
        _, again = _bundle(templates[k], cfg, Path(tmp) / "b")
        assert files == again
        exported = load_case_dir(Path(tmp) / "a")

    _check_counts(result, cfg, tn, dn)
    _check_penetration(result, cfg, dn)
    assert validate(exported).ok
    vm = np.array([b.v_mag for b in exported.buses])
    va = np.array([b.v_ang for b in exported.buses])
    assert max_residual(exported, vm, va) <= cfg.pf_tolerance
    if constant_load:
        _check_conservation(result, tn, oversize)

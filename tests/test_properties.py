"""Config-space properties of ``generate``: drawn penetration, split,
oversize, demand growth, randomization and seed, on the shipped templates
and on a 10x rescaled ``mini-dn``.  Only facts that hold whatever the last
bits of the solver's arithmetic are checked: the count law, the penetration
audit, boundary conservation under ``constant_load``, validation and the
independent residual of the exported state, and byte-identical bundles
from run to run.

Then two robustness properties, for any one config value and any one cell
of the ``mini-dn`` template replaced by a non-finite, huge, negative, zero
or tiny number: ``generate`` ends in a bundle or one line of error, never
in a traceback, a warning, a hang or a file strict JSON readers reject, and
loading, validating and solving the template raise only the case and power
flow errors."""

import io
import json
import math
import re
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tdsynth import cli
from tdsynth.caseio import CaseParseError, StructuralError, load_case_dir
from tdsynth.netmodel import GenKind, validate
from tdsynth.powerflow import PowerFlowError, solve
from tdsynth.residual import max_residual
from tdsynth.synth import SynthesisConfig, boundary_transfers, generate
from tdsynth.templates import bundled_template_dir

from helpers import scaled_templates, time_limit

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


# the values the two properties below put in: non-finite, huge, negative,
# zero and tiny; an integer field takes the integer ones
TOKENS = ["nan", "inf", "-inf", "1e300", "-1", "0", "1e-300"]
INT_TOKENS = ["-1", "0", str(10**30)]
CONFIG_EDITS = [(key, value) for key in cli._FIELD_TYPES
                for value in (INT_TOKENS if cli._FIELD_TYPES[key] is int else TOKENS)]
EXAMPLE_SECONDS = 20   # far above any example's run; only a hang reaches it


def _strict_json(path: Path):
    def reject(token):
        raise AssertionError(f"{path.name} holds {token}")

    return json.loads(path.read_text(), parse_constant=reject)


@settings(max_examples=250, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(edit=st.sampled_from(CONFIG_EDITS), randomize=st.booleans())
@example(edit=("capacity_tolerance", "1e-300"), randomize=False)   # the bisection at float spacing
@example(edit=("capacity_tolerance", "1e300"), randomize=False)    # capacity 0
@example(edit=("capacity_ceiling", "1e300"), randomize=False)      # an overflowing probe
@example(edit=("rng_seed", "-1"), randomize=True)
def test_any_one_config_value_ends_in_a_bundle_or_one_line(edit, randomize):
    key, value = edit
    lines = [f"{key} = {value}"] + ([] if key == "random" else [f"random = {str(randomize).lower()}"])
    with tempfile.TemporaryDirectory() as tmp:
        conf, out = Path(tmp) / "run.conf", Path(tmp) / "out"
        conf.write_text("\n".join(lines) + "\n")
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, redirect_stderr(err), \
                redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            with time_limit(EXAMPLE_SECONDS):
                code = cli.main(["generate", str(conf), "--out", str(out)])
        assert code in (0, 1, 2)
        assert not caught, [str(w.message) for w in caught]   # each would print to stderr
        if code:
            assert err.getvalue().count("\n") == 1, err.getvalue()
            return
        (bundle,) = out.iterdir()
        for name in ("manifest.json", "summary.json"):
            _strict_json(bundle / name)
        load_case_dir(bundle)


def _cells(texts: dict[str, str]) -> list[tuple[str, int, int]]:
    """Every numeric cell of a bundle's files as (file, start, end): each
    number of ``case.m`` outside quotes, each cell of ``case.oltc.csv``
    below its header."""
    number = re.compile(r"(?<![\w.'])-?\d+(\.\d*)?([eE][-+]?\d+)?(?![\w.'])")
    out = [("case.m", m.start(), m.end()) for m in number.finditer(texts["case.m"])]
    sidecar = texts["case.oltc.csv"]
    body = sidecar.index("\n") + 1
    out += [("case.oltc.csv", body + m.start(), body + m.end())
            for m in re.finditer(r"[^,\n]+", sidecar[body:])]
    return out


DN_TEXTS = {name: (bundled_template_dir() / "mini-dn" / name).read_text()
            for name in ("case.m", "case.oltc.csv")}
DN_CELLS = _cells(DN_TEXTS)
# the bus of the first generator, and the ratio (9th cell) of the second branch
GEN_BUS = next(c for c in DN_CELLS if c[1] > DN_TEXTS["case.m"].index("mpc.gen = ["))
BRANCH_RATIO = [c for c in DN_CELLS if c[1] > DN_TEXTS["case.m"].index("mpc.branch = [")][13 + 8]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(cell=st.sampled_from(DN_CELLS), token=st.sampled_from(TOKENS))
@example(cell=GEN_BUS, token="0")
@example(cell=GEN_BUS, token="-1")
@example(cell=BRANCH_RATIO, token="1e-300")   # the power flow divides by its square, 0
@example(cell=BRANCH_RATIO, token="1e300")    # its square and the branch flows overflow
def test_any_one_bad_cell_of_a_template_raises_a_case_error(cell, token):
    name, start, end = cell
    with tempfile.TemporaryDirectory() as tmp:
        for file, text in DN_TEXTS.items():
            (Path(tmp) / file).write_text(text[:start] + token + text[end:] if file == name else text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                case = load_case_dir(tmp)
                validate(case)
                solve(case)
            except (CaseParseError, StructuralError, PowerFlowError):
                pass
        runtime = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not runtime, runtime

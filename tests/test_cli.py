import json
import math
import re
import shutil
import time
import warnings
from dataclasses import fields
from pathlib import Path

import pytest

from tdsynth import powerflow
from tdsynth import synth as synth_mod
from tdsynth.cli import ConfigError, main, parse_config
from tdsynth.powerflow import SingularJacobianError
from tdsynth.synth import PipelineError, SynthesisConfig
from tdsynth.templates import bundled_template_dir

from helpers import MALFORMED_BUNDLES, scaled_templates, write_malformed_bundle

CONF_ROOT = Path(__file__).resolve().parent.parent / "configs" / "default.conf"


def _write(tmp_path, text):
    p = tmp_path / "run.conf"
    p.write_text(text)
    return p


def test_parse_shipped_default_config():
    cfg = parse_config(CONF_ROOT)
    assert cfg.penetration_level == 0.5
    assert cfg.large_system is True
    assert cfg.dn_v_limits == (0.95, 1.05)


def test_config_rejects_unknown_field(tmp_path):
    path = _write(tmp_path, "penetration_level = 0.5\nmystery_knob = 3\n")
    with pytest.raises(ConfigError, match="mystery_knob"):
        parse_config(path)


def test_config_rejects_bad_values(tmp_path):
    path = _write(tmp_path, "penetration_level = -0.1\n")
    with pytest.raises(ConfigError, match="penetration_level"):
        parse_config(path)
    path = _write(tmp_path, "random = maybe\n")
    with pytest.raises(ConfigError, match="random"):
        parse_config(path)
    path = _write(tmp_path, "random = true\nrng_seed = -1\n")
    with pytest.raises(ConfigError, match="^config field 'rng_seed': must be >= 0$"):
        parse_config(path)


def test_generate_smoke_and_summary(tmp_path, capsys):
    conf = _write(tmp_path, "penetration_level = 0.3\nrng_seed = 7\n")
    rc = main(["generate", str(conf), "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert rc == 0
    run_dirs = list((tmp_path / "out").iterdir())
    assert len(run_dirs) == 1
    bundle = run_dirs[0]
    assert (bundle / "case.m").exists()
    assert (bundle / "case.oltc.csv").exists()
    assert (bundle / "manifest.json").exists()
    summary = json.loads((bundle / "summary.json").read_text())
    assert summary["dn_instances"] == 3
    assert "realized penetration" in out

    manifest = json.loads((bundle / "manifest.json").read_text())
    assert manifest["config"]["penetration_level"] == 0.3
    assert manifest["seed"] == 7
    assert len(manifest["instances"]) == 3


def test_generate_exit_codes(tmp_path, capsys):
    bad = _write(tmp_path, "penetration_level = -0.1\n")
    assert main(["generate", str(bad), "--out", str(tmp_path / "o1")]) == 2
    assert "penetration_level" in capsys.readouterr().err

    unknown = _write(tmp_path, "nonsense = 1\n")
    assert main(["generate", str(unknown), "--out", str(tmp_path / "o2")]) == 2
    assert "nonsense" in capsys.readouterr().err

    conf = _write(tmp_path, "penetration_level = 0.3\n")
    rc = main(
        ["generate", str(conf), "--out", str(tmp_path / "o3"),
         "--templates", str(tmp_path / "missing")]
    )
    assert rc == 1
    assert "[load-tn]" in capsys.readouterr().err


def test_generate_is_deterministic(tmp_path):
    conf = _write(tmp_path, "penetration_level = 0.4\nrandom = true\nrng_seed = 11\n")
    assert main(["generate", str(conf), "--out", str(tmp_path / "a")]) == 0
    assert main(["generate", str(conf), "--out", str(tmp_path / "b")]) == 0
    run_a = next((tmp_path / "a").iterdir())
    run_b = next((tmp_path / "b").iterdir())
    assert run_a.name == run_b.name  # digest-stable run id
    for f in sorted(run_a.iterdir()):
        assert f.read_bytes() == (run_b / f.name).read_bytes()


def test_combined_solve_failure_is_tagged(template_dir, tmp_path, monkeypatch, capsys):
    real_regulate = synth_mod.regulate

    def regulate_failing_on_the_combined_case(case, *args, **kw):
        if any(b.name.startswith("dn:") for b in case.buses):
            raise SingularJacobianError("singular Jacobian: forced")
        return real_regulate(case, *args, **kw)

    monkeypatch.setattr("tdsynth.synth.regulate", regulate_failing_on_the_combined_case)
    with pytest.raises(PipelineError, match=r"^\[combined-solve\] singular Jacobian: forced$"):
        synth_mod.generate(template_dir / "mini-tn", template_dir / "mini-dn", SynthesisConfig())
    conf = _write(tmp_path, "penetration_level = 0.5\n")
    capsys.readouterr()
    assert main(["generate", str(conf), "--out", str(tmp_path / "out")]) == 1
    assert "[combined-solve] singular Jacobian: forced" in capsys.readouterr().err


def test_inspect_transfers_match_manifest(tmp_path, capsys):
    conf = _write(tmp_path, "penetration_level = 0.5\n")
    assert main(["generate", str(conf), "--out", str(tmp_path / "out")]) == 0
    bundle = next((tmp_path / "out").iterdir())
    manifest = json.loads((bundle / "manifest.json").read_text())
    expected = {}
    for inst in manifest["instances"]:
        expected[inst["host_bus"]] = (
            expected.get(inst["host_bus"], 0.0) + inst["boundary_import_pu"]
        )
    capsys.readouterr()
    assert main(["inspect", str(bundle)]) == 0
    out = capsys.readouterr().out
    for line in out.splitlines():
        if line.strip().startswith("bus ") and "total:" in line:
            bus = int(line.split()[1])
            total = float(line.split(":")[1])
            assert total == pytest.approx(expected[bus], rel=7e-3, abs=5e-4)


def test_seed_override_changes_run_id(tmp_path):
    conf = _write(tmp_path, "random = true\nrng_seed = 1\n")
    assert main(["generate", str(conf), "--out", str(tmp_path / "out")]) == 0
    assert main(["generate", str(conf), "--out", str(tmp_path / "out"), "--seed", "2"]) == 0
    assert len(list((tmp_path / "out").iterdir())) == 2


def _bundles(out: Path) -> dict[str, dict[str, bytes]]:
    """Each run directory under ``out`` by name: its files' bytes by name."""
    return {run.name: {f.name: f.read_bytes() for f in run.iterdir()} for run in out.iterdir()}


def test_each_template_set_gets_a_run_directory_of_its_own(tmp_path):
    # one config on the bundled and the 10x templates: into one --out the
    # two bundles land side by side, each as it is when written alone
    sets = {"bundled": bundled_template_dir(), "10x": scaled_templates(tmp_path / "t10", 10)}
    alone = {}
    for name, templates in sets.items():
        argv = ["generate", str(CONF_ROOT), "--templates", str(templates), "--out"]
        assert main([*argv, str(tmp_path / name)]) == 0
        alone.update(_bundles(tmp_path / name))
        assert main([*argv, str(tmp_path / "both")]) == 0
    assert len(alone) == 2
    assert _bundles(tmp_path / "both") == alone   # run ids and bytes
    replicas = [len(json.loads(b["manifest.json"])["instances"]) for b in alone.values()]
    assert replicas[0] < replicas[1]


def test_the_run_id_follows_the_template_bytes(tmp_path):
    # a copy of the bundled templates is the same input: one id, whatever
    # its path and however often it runs; a one-byte edit is a new input
    templates = tmp_path / "templates"
    for bundle in ("mini-tn", "mini-dn"):
        shutil.copytree(bundled_template_dir() / bundle, templates / bundle)
    out = tmp_path / "out"
    argv = ["generate", str(CONF_ROOT), "--out", str(out)]
    assert main(argv) == 0
    assert main([*argv, "--templates", str(templates)]) == 0
    assert main([*argv, "--templates", str(templates)]) == 0
    assert len(list(out.iterdir())) == 1
    case_m = templates / "mini-dn" / "case.m"
    text = case_m.read_bytes()
    assert text.count(b";\n\n") >= 1
    case_m.write_bytes(text.replace(b";\n\n", b"; \n", 1))   # a blank after the first ';'
    assert main([*argv, "--templates", str(templates)]) == 0
    assert len(list(out.iterdir())) == 2


def test_inspect_roundtrip(tmp_path, capsys):
    conf = _write(tmp_path, "penetration_level = 0.5\n")
    assert main(["generate", str(conf), "--out", str(tmp_path / "out")]) == 0
    bundle = next((tmp_path / "out").iterdir())
    capsys.readouterr()

    assert main(["inspect", str(bundle)]) == 0
    out = capsys.readouterr().out
    assert "validation: ok" in out
    # combined-system penetration sits below the per-replica setting because
    # the never-replaced Equiv load stays in the denominator
    line = next(l for l in out.splitlines() if l.startswith("penetration level:"))
    assert 0.0 < float(line.split(":")[1]) < 0.5
    assert "boundary transfers" in out

    assert main(["inspect", str(tmp_path / "nowhere")]) == 1


def test_inspect_reports_a_failed_solve_with_exit_code_1(tmp_path, capsys):
    from tdsynth import bundled_template_dir, load_case_dir, save_case_dir
    from tdsynth.netmodel import BusKind

    overloaded = load_case_dir(bundled_template_dir() / "mini-tn")
    for b in overloaded.buses:
        b.p_load *= 40
        b.q_load *= 40
    save_case_dir(overloaded, tmp_path / "overloaded")
    capsys.readouterr()
    assert main(["inspect", str(tmp_path / "overloaded")]) == 1
    assert "diverged before any tap adjustment" in capsys.readouterr().err

    two_slacks = load_case_dir(bundled_template_dir() / "mini-tn")
    next(b for b in two_slacks.buses if b.kind is BusKind.PV).kind = BusKind.SLACK
    save_case_dir(two_slacks, tmp_path / "two-slacks")
    assert main(["inspect", str(tmp_path / "two-slacks")]) == 1
    assert "exactly one slack bus" in capsys.readouterr().err

    dangling = load_case_dir(bundled_template_dir() / "mini-dn")
    dangling.generators.bus_id[0] = 99
    save_case_dir(dangling, tmp_path / "dangling")
    assert main(["inspect", str(tmp_path / "dangling")]) == 1
    out, err = capsys.readouterr()
    assert "generator 0: dangling bus reference 99" in out
    assert err == "power flow failed: no bus with id 99\n"


_WRONG = {bool: "maybe", int: "1.5", float: "abc", str: "no-such-format"}
_SCALAR_FIELDS = [f for f in fields(SynthesisConfig) if f.name != "dn_v_limits"]


@pytest.mark.parametrize("field", _SCALAR_FIELDS, ids=lambda f: f.name)
def test_config_accepts_and_type_checks_every_field(field, tmp_path):
    text = str(field.default).lower() if type(field.default) is bool else str(field.default)
    cfg = parse_config(_write(tmp_path, f"{field.name} = {text}\n"))
    assert getattr(cfg, field.name) == field.default
    with pytest.raises(ConfigError, match=field.name):
        parse_config(_write(tmp_path, f"{field.name} = {_WRONG[type(field.default)]}\n"))


def test_config_sets_voltage_limits_by_two_keys_only(tmp_path):
    cfg = parse_config(_write(tmp_path, "dn_v_min = 0.9\ndn_v_max = 1.1\n"))
    assert cfg.dn_v_limits == (0.9, 1.1)
    with pytest.raises(ConfigError, match="dn_v_limits.*unknown field"):
        parse_config(_write(tmp_path, "dn_v_limits = 0.9\n"))


def test_summary_labels_areas_without_meta_csv(tmp_path):
    templates = tmp_path / "templates"
    shutil.copytree(bundled_template_dir(), templates)
    (templates / "mini-tn" / "meta.csv").unlink()
    conf = _write(tmp_path, "penetration_level = 0.5\n")
    assert main(["generate", str(conf), "--out", str(tmp_path / "out"),
                 "--templates", str(templates)]) == 0
    summary = json.loads((next((tmp_path / "out").iterdir()) / "summary.json").read_text())
    assert summary["dn_instances_per_area"] == {"Central": 2, "North": 1}


def test_inspect_rejects_malformed_bundles_with_exit_code_1(dn_bundle, tmp_path, capsys):
    for name in sorted(MALFORMED_BUNDLES):
        bundle = write_malformed_bundle(dn_bundle.case, tmp_path / name, name)
        capsys.readouterr()
        assert main(["inspect", str(bundle)]) == 1, name
        assert "cannot load case bundle" in capsys.readouterr().err, name


def test_summary_prints_replica_buses_outside_the_voltage_limits(tmp_path, capsys):
    conf = _write(tmp_path, "oltc_v_set = 0.98\npenetration_level = 0.0\n")
    assert main(["generate", str(conf), "--out", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    manifest = json.loads(next((tmp_path / "out").iterdir()).joinpath("manifest.json").read_text())
    count = manifest["combined"]["replica_buses_outside_v_limits"]
    assert count > 0
    assert f"replica buses outside dn_v_limits: {count}\n" in out


def test_inspect_profile_accounts_for_the_wall_time(tmp_path, capsys):
    from tdsynth import apply_solution, load_case_dir, save_case_dir
    from tdsynth.synth import assemble, generate

    # an assembled, unsolved 200x combined case: the profile's own writing
    # is noise next to its inspect
    templates = scaled_templates(tmp_path, 200)
    result = generate(templates / "mini-tn", templates / "mini-dn",
                      SynthesisConfig(constant_load=True))
    tn = load_case_dir(templates / "mini-tn")
    apply_solution(tn, result.tn_solution)
    bundle = tmp_path / "bundle"
    save_case_dir(assemble(tn, result.instances), bundle)
    files = sorted(p.name for p in bundle.iterdir())
    profile = tmp_path / "profile.json"
    start = time.perf_counter()
    assert main(["inspect", str(bundle), "--profile", str(profile)]) == 0
    wall = time.perf_counter() - start
    data = json.loads(profile.read_text())
    assert list(data["stages_s"]) == ["args", "load", "validate", "regulate", "print"]
    assert abs(sum(data["stages_s"].values()) - wall) <= 0.05 * wall
    counts = data["stage_counts"]
    for name in ("batches", "solves", "tap_rounds"):
        assert sum(c[name] for c in counts.values()) == data[name]
    assert sum(c["iterations"] for c in counts.values()) == data["nr_iterations"]
    assert counts["regulate"]["solves"] == data["solves"] > 0
    assert data["nr_iterations"] == len(data["linear_solves"]) > 0
    assert set(data["linear_solves"]) == {"blocks"}
    assert sorted(p.name for p in bundle.iterdir()) == files   # the bundle is untouched


def test_generate_profile_accounts_for_the_wall_time(tmp_path, capsys):
    from tdsynth.cli import GENERATE_STAGES

    templates = scaled_templates(tmp_path, 10)
    conf = _write(tmp_path, "constant_load = true\nrandom = true\nrng_seed = 4\n")
    argv = ["generate", str(conf), "--templates", str(templates), "--out"]
    assert main(argv + [str(tmp_path / "a")]) == 0
    profile = tmp_path / "profile.json"
    start = time.perf_counter()
    assert main(argv + [str(tmp_path / "b"), "--profile", str(profile)]) == 0
    wall = time.perf_counter() - start
    run_a, run_b = (next((tmp_path / side).iterdir()) for side in "ab")
    assert sorted(p.name for p in run_a.iterdir()) == sorted(p.name for p in run_b.iterdir())
    for f in run_a.iterdir():   # the profile stays outside the bundle and changes nothing in it
        assert f.read_bytes() == (run_b / f.name).read_bytes()

    data = json.loads(profile.read_text())
    assert tuple(data["stages_s"]) == GENERATE_STAGES
    assert abs(sum(data["stages_s"].values()) - wall) <= 0.05 * wall
    counts = data["stage_counts"]
    for name in ("batches", "solves", "tap_rounds"):
        assert sum(c[name] for c in counts.values()) == data[name]
    assert sum(c["iterations"] for c in counts.values()) == data["nr_iterations"]
    assert counts["tn-solve"]["solves"] == counts["combined-solve"]["solves"] == 1
    assert counts["opf"] == dict.fromkeys(("batches", "solves", "iterations", "tap_rounds",
                                           "opf_solves", "opf_steps"), 0)
    manifest = json.loads((run_b / "manifest.json").read_text())
    assert counts["combined-solve"]["tap_rounds"] == manifest["combined"]["regulation_rounds"]
    # customize solves each copy at least as often as its manifest says
    per_copy = [c for rec in manifest["instances"] for c in rec["solve_counts"].values() if c]
    assert counts["customize"]["solves"] >= sum(c["solves"] for c in per_copy)
    assert counts["capacity"]["solves"] > counts["capacity"]["batches"] > 0


def test_the_opf_profile_counts_the_estimate_and_every_round(tmp_path):
    # the opf stage's interior-point steps are the rounds' steps, which the
    # manifest sums, plus the start estimate's
    conf = _write(tmp_path, "run_opf = true\nrandom = true\nrng_seed = 1\n")
    profile = tmp_path / "profile.json"
    assert main(["generate", str(conf), "--out", str(tmp_path / "out"),
                 "--profile", str(profile)]) == 0
    data = json.loads(profile.read_text())
    manifest = json.loads(next((tmp_path / "out").glob("*/manifest.json")).read_text())
    opf, counts = manifest["opf"], data["stage_counts"]
    assert opf["iterations"] == sum(opf["round_iterations"])
    assert counts["opf"]["opf_steps"] == opf["iterations"] + opf["start"]["iterations"]
    assert counts["opf"]["opf_solves"] == len(opf["round_iterations"]) + 1
    for name in ("opf_solves", "opf_steps"):
        assert sum(c[name] for c in counts.values()) == data[name] == counts["opf"][name]


def test_the_opf_profile_counts_kkt_factorizations_by_path(tmp_path):
    # every KKT matrix of the mini-opf run splits into replica blocks; each
    # interior-point step factors one, and a step that ends a run may too
    conf = _write(tmp_path, "run_opf = true\nrandom = true\nrng_seed = 1\n")
    profile = tmp_path / "profile.json"
    assert main(["generate", str(conf), "--out", str(tmp_path / "out"),
                 "--profile", str(profile)]) == 0
    data = json.loads(profile.read_text())
    assert list(data["kkt_solves"]) == ["blocks"]
    assert data["kkt_solves"]["blocks"] >= data["opf_steps"] > 0


@pytest.mark.parametrize("random", ["false", "true"])
def test_the_profile_counts_replica_blocks_placed_and_solved(tmp_path, random):
    # without random every copy of a host has the same inputs, and a run of
    # equal blocks is solved once; with it no two copies are equal
    templates = scaled_templates(tmp_path / "t10", 10)
    conf = _write(tmp_path, f"random = {random}\nrng_seed = 1\n")
    profile = tmp_path / "profile.json"
    assert main(["generate", str(conf), "--templates", str(templates), "--out",
                 str(tmp_path / "out"), "--profile", str(profile)]) == 0
    data = json.loads(profile.read_text())
    assert data["blocks_placed"] > 0
    if random == "true":
        assert data["blocks_solved"] == data["blocks_placed"]
    else:
        assert data["blocks_solved"] < data["blocks_placed"]


def test_an_opf_at_its_round_cap_says_so_in_the_summary(tmp_path, monkeypatch, capsys):
    # without extra rounds the shipped mini-opf run ends at the cap, one
    # round before it settles
    from tdsynth import opf

    monkeypatch.setattr(opf, "EXTRA_ROUNDS", 0)
    conf = _write(tmp_path, "run_opf = true\nrandom = true\nrng_seed = 1\n")
    assert main(["generate", str(conf), "--out", str(tmp_path / "out")]) == 0
    (run,) = (tmp_path / "out").iterdir()
    summary = json.loads((run / "summary.json").read_text())
    manifest = json.loads((run / "manifest.json").read_text())
    assert summary["opf_settled"] is False and manifest["opf"]["settled"] is False
    assert summary["opf_rounds"] == manifest["opf"]["rounds"] == 5
    assert "(feasible: True, settled: False after 5 relaxation rounds)" in capsys.readouterr().out


def test_the_capacity_search_resumes_the_tap_walks_its_brackets_share(tmp_path):
    # each batch after the first starts where its brackets' walks agree:
    # 21 batched solves on the shipped default, 46 from the template's taps
    profile = tmp_path / "profile.json"
    assert main(["generate", str(CONF_ROOT), "--out", str(tmp_path / "out"),
                 "--profile", str(profile)]) == 0
    assert json.loads(profile.read_text())["stage_counts"]["capacity"]["batches"] <= 25


def test_the_benchmarked_generate_does_the_same_solver_work(tmp_path):
    # the shipped default with random = true and rng_seed = 1, the generate
    # perfbench's inspect-800x workload times: a kernel change that adds,
    # drops or recounts a solve, an iteration or a tap round changes these
    text = CONF_ROOT.read_text()
    for line in ("random = true", "rng_seed = 1"):
        text, found = re.subn(rf"^{line.split()[0]} .*$", line, text, flags=re.M)
        assert found == 1, line
    profile = tmp_path / "profile.json"
    assert main(["generate", str(_write(tmp_path, text)), "--out", str(tmp_path / "out"),
                 "--profile", str(profile)]) == 0
    counts = json.loads(profile.read_text())["stage_counts"]
    work = {stage: [c[k] for k in ("batches", "solves", "iterations", "tap_rounds")]
            for stage, c in counts.items() if any(c.values())}
    assert work == {"tn-solve": [1, 1, 0, 0], "capacity": [21, 70, 312, 37],
                    "customize": [12, 24, 67, 15], "combined-solve": [1, 1, 3, 0]}


@pytest.mark.parametrize("line", [
    "penetration_level = nan", "generation_split = nan", "oversize = nan", "oversize = inf",
    "dn_v_min = nan", "dn_v_max = inf", "oltc_v_set = nan", "pf_tolerance = inf",
    "capacity_tolerance = nan", "capacity_ceiling = inf", "opf_v_slack = nan",
])
def test_a_non_finite_config_value_exits_2_with_one_line(line, tmp_path, capsys):
    key = line.split()[0]
    name = "dn_v_limits" if key.startswith("dn_v_") else key
    out = tmp_path / "out"
    assert main(["generate", str(_write(tmp_path, line + "\n")), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"config field {name!r}: must be finite" in err
    assert not out.exists()


def test_a_seed_option_is_checked_as_the_same_value_in_the_file(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["generate", str(CONF_ROOT), "--seed", "-1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config field 'rng_seed': must be >= 0\n"
    assert not out.exists()


# an argv whose config cannot be read (exit 2) or whose profile cannot be
# written (exit 1), and the start of its one stderr line; {tmp} is the
# test's directory and {mini_dn} a case bundle
_BAD_PATHS = {
    "config directory": (["generate", "{tmp}"], 2, "cannot read config file {tmp}: "),
    "config not utf-8": (["generate", "{tmp}/latin1.conf"], 2,
                         "cannot read config file {tmp}/latin1.conf: "),
    "config missing": (["generate", "{tmp}/missing.conf"], 2,
                       "config file not found: {tmp}/missing.conf"),
    "generate profile": (["generate", str(CONF_ROOT), "--profile", "{tmp}/missing/p.json"], 1,
                         "cannot write profile {tmp}/missing/p.json: "),
    "inspect profile": (["inspect", "{mini_dn}", "--profile", "{tmp}/missing/p.json"], 1,
                        "cannot write profile {tmp}/missing/p.json: "),
}


@pytest.mark.parametrize("name", _BAD_PATHS)
def test_a_bad_config_or_profile_path_ends_in_one_line(name, tmp_path, capsys):
    argv, code, start = _BAD_PATHS[name]
    paths = {"tmp": tmp_path, "mini_dn": bundled_template_dir() / "mini-dn"}
    argv = [arg.format(**paths) for arg in argv]
    (tmp_path / "latin1.conf").write_bytes("# d\xe9faut\nrng_seed = 2\n".encode("latin-1"))
    out = tmp_path / "out"
    if argv[0] == "generate":
        argv += ["--out", str(out)]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(start.format(**paths)) and err.count("\n") == 1, err
    if code == 2:
        assert not out.exists()
    elif argv[0] == "generate":   # only the profile failed: the bundle is whole
        (bundle,) = out.iterdir()
        assert sorted(p.name for p in bundle.iterdir()) == [
            "case.m", "case.oltc.csv", "manifest.json", "summary.json"]


def test_a_nan_that_reaches_a_json_file_fails_its_stage(tmp_path, monkeypatch, capsys):
    # both JSON files are encoded before the run directory is made
    conf = _write(tmp_path, "penetration_level = 0.5\n")
    real_manifest, real_summary = synth_mod._manifest, synth_mod._summary
    monkeypatch.setattr(synth_mod, "_manifest", lambda *a: {**real_manifest(*a), "x": math.nan})
    assert main(["generate", str(conf), "--out", str(tmp_path / "a")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("[export] Out of range float values") and err.count("\n") == 1
    assert not list((tmp_path / "a").glob("*"))
    monkeypatch.setattr(synth_mod, "_manifest", real_manifest)
    monkeypatch.setattr(synth_mod, "_summary", lambda *a: {**real_summary(*a), "x": -math.inf})
    assert main(["generate", str(conf), "--out", str(tmp_path / "b")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("[export] Out of range float values") and err.count("\n") == 1
    assert not list((tmp_path / "b").glob("*"))


@pytest.mark.parametrize("line, start", [
    # just below the template's zero-load voltage of 1.0256410256410258 pu
    ("dn_v_min = 1.0256400256410259", "[customize] capacity must be positive\n"),
    # hosts whose Newton steps overflow on the way out
    ("oversize = 1e300", "[customize] host bus 5: "),
])
def test_a_failing_stage_exits_1_with_one_line_and_no_warning(line, start, tmp_path, capsys):
    conf = _write(tmp_path, line + "\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["generate", str(conf), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(start) and err.count("\n") == 1, err
    assert not caught, [str(w.message) for w in caught]


@pytest.mark.parametrize("line", [
    # the ceiling probe's Newton run overflows after 877 iterations
    "pf_max_iterations = 1000",
    pytest.param(f"pf_max_iterations = {10**30}", id="pf_max_iterations = 10**30"),
    # every probe from the ceiling down to about 1e154 overflows
    "capacity_ceiling = 1e300",
])
def test_an_overflowing_probe_is_infeasible(line, tmp_path, monkeypatch):
    def capacity(text: str, out: Path) -> dict:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["generate", str(_write(tmp_path, text)), "--out", str(out)]) == 0
        assert not caught, [str(w.message) for w in caught]
        (bundle,) = out.iterdir()
        return json.loads((bundle / "manifest.json").read_text())["template_capacity"]

    # on the dense path, then on SuperLU: a probe that runs off meets
    # Jacobians that fail to factor (at |V| of 1e57 pu and more), and it
    # is infeasible there, not singular
    for dense_max in (powerflow.DENSE_MAX_ROWS, 0):
        monkeypatch.setattr(powerflow, "DENSE_MAX_ROWS", dense_max)
        got = capacity(line + "\n", tmp_path / f"a{dense_max}")
        default = capacity("", tmp_path / f"b{dense_max}")
        if line.startswith("pf_max_iterations"):
            assert got == default
        else:   # a bisection from other brackets ends within the tolerance
            assert got["binding_bus"] == default["binding_bus"]
            assert abs(got["max_scale"] - default["max_scale"]) <= SynthesisConfig().capacity_tolerance

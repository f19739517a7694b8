import copy

import numpy as np
import pytest

from tdsynth.netmodel import (
    Branch,
    Bus,
    BusKind,
    Generator,
    GenKind,
    NetworkCase,
    penetration_level,
    total_load,
    validate,
)

from helpers import radial_oltc_case, raw_bus_load_sums, two_bus_case


def test_validate_well_formed_two_bus_is_clean():
    assert validate(two_bus_case()).ok


def test_validate_missing_slack():
    case = two_bus_case()
    case.buses[0].kind = BusKind.PQ
    report = validate(case)
    assert any("missing slack" in e for e in report.entries)


def test_validate_dangling_branch_reference():
    case = two_bus_case()
    case.branches.append(Branch(from_bus=1, to_bus=99, r=0.01, x=0.1))
    report = validate(case)
    assert any("dangling to-bus reference 99" in e for e in report.entries)


def test_validate_duplicate_ids_and_islands():
    case = two_bus_case()
    case.buses.append(Bus(id=2, base_kv=130.0))
    report = validate(case)
    assert any("duplicate bus id 2" in e for e in report.entries)

    island = two_bus_case()
    island.buses.append(Bus(id=3, base_kv=130.0))
    report = validate(island)
    assert any("islands" in e for e in report.entries)

    named = two_bus_case()
    named.buses.append(Bus(id=3, base_kv=130.0))
    named.buses.append(Bus(id=4, base_kv=130.0))
    named.branches.append(Branch(from_bus=2, to_bus=3, x=0.1))
    named.branches.append(Branch(from_bus=3, to_bus=4, x=0.1))
    for b, name in zip(named.buses, ["z", "a", "z", "z"]):
        b.name = name
    named.buses.append(Bus(id=5, base_kv=130.0, name="a"))
    named.branches.append(Branch(from_bus=4, to_bus=5, x=0.1))
    report = validate(named)
    assert [e for e in report.entries if "name" in e] == [
        "duplicate bus name 'a'",
        "duplicate bus name 'z'",
    ]


def test_validate_oltc_ratio_out_of_sync():
    from tdsynth.netmodel import OltcTransformer

    case = two_bus_case()
    case.oltcs.append(OltcTransformer(branch_ref=0, controlled_bus=2, tap=3))
    report = validate(case)
    assert any("out of sync" in e for e in report.entries)
    case.oltcs[0].sync_branch(case)
    assert validate(case).ok
    case.oltcs[0].deadband = float("nan")
    case.oltcs[0].v_set = float("inf")
    entries = validate(case).entries
    assert any("deadband must be positive, got nan" in e for e in entries)
    assert any("v_set must be finite, got inf" in e for e in entries)


def test_total_load_sums_and_empty_case():
    case = NetworkCase()
    case.buses.append(Bus(id=1, kind=BusKind.SLACK, p_load=0.5, q_load=0.1, base_kv=1))
    case.buses.append(Bus(id=2, p_load=0.3, q_load=0.2, base_kv=1))
    assert total_load(case) == (0.8, pytest.approx(0.3))
    assert total_load(NetworkCase()) == (0.0, 0.0)


def test_total_load_matches_raw_file_sum(template_dir, dn_bundle):
    # independent oracle: sum the PD/QD columns straight out of the text file
    p_mw, q_mvar = raw_bus_load_sums((template_dir / "mini-dn" / "case.m").read_text())
    p, q = total_load(dn_bundle.case)
    assert p == pytest.approx(p_mw / 100.0, abs=1e-12)
    assert q == pytest.approx(q_mvar / 100.0, abs=1e-12)


def _case_with_dg(dg_p, load_p=1.0):
    case = NetworkCase()
    case.buses.append(Bus(id=1, kind=BusKind.SLACK, p_load=load_p, base_kv=1))
    case.generators.append(Generator(bus_id=1, kind=GenKind.TN_UNIT, p=9.9))
    case.generators.append(
        Generator(bus_id=1, kind=GenKind.DN_PV, p=dg_p, controllable=False)
    )
    return case


def test_penetration_level_direct_ratio():
    assert penetration_level(_case_with_dg(0.5)) == pytest.approx(0.5)
    assert penetration_level(_case_with_dg(0.0)) == 0.0
    # the ratio may exceed one: reverse-flow regime
    assert penetration_level(_case_with_dg(1.15)) == pytest.approx(1.15)


def test_penetration_level_undefined_without_load():
    with pytest.raises(ValueError, match="undefined penetration"):
        penetration_level(_case_with_dg(0.5, load_p=0.0))


def test_penetration_level_scale_invariant():
    rng = np.random.default_rng(7)
    for _ in range(25):
        dg, load = rng.uniform(0.1, 2.0, size=2)
        alpha = rng.uniform(0.01, 50.0)
        base = _case_with_dg(dg, load)
        scaled = _case_with_dg(dg * alpha, load * alpha)
        assert penetration_level(scaled) == pytest.approx(
            penetration_level(base), rel=1e-12
        )


def test_total_load_additive_under_disjoint_union():
    a = NetworkCase()
    a.buses.append(Bus(id=1, p_load=0.4, q_load=0.1, base_kv=1))
    b = NetworkCase()
    b.buses.append(Bus(id=2, p_load=0.3, q_load=0.05, base_kv=1))
    union = NetworkCase()
    union.buses = a.buses + b.buses
    pa, qa = total_load(a)
    pb, qb = total_load(b)
    pu, qu = total_load(union)
    assert pu == pytest.approx(pa + pb) and qu == pytest.approx(qa + qb)


def test_validate_template_bundles(tn_bundle, dn_bundle):
    assert validate(tn_bundle.case).ok
    assert validate(dn_bundle.case).ok


def test_clone_is_equal_and_independent():
    case = radial_oltc_case()
    before = copy.deepcopy(case)
    twin = case.clone()
    assert twin == case
    twin.buses[2].p_load += 0.1
    twin.branches[1].ratio = 1.05
    twin.generators[0].p = 0.7
    twin.oltcs[0].tap += 2
    twin.buses.append(Bus(id=9))
    assert twin != case
    assert case == before

import copy
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdsynth.netmodel import (
    DG_KINDS,
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
from tdsynth.synth import _zero_dg, dn_max_capacity
from tdsynth.templates import bundled_template_dir
from tdsynth.caseio import load_case_dir

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


def test_validate_reports_each_island_in_order():
    case = NetworkCase()
    slack = {1, 3, 4, 6}
    case.buses = [Bus(id=i, kind=BusKind.SLACK if i in slack else BusKind.PQ)
                  for i in (2, 1, 4, 3, 5, 6, 7)]
    case.branches = [Branch(1, 2, x=0.1), Branch(3, 4, x=0.1), Branch(6, 7, x=0.1),
                     Branch(5, 5, x=0.1, status=False)]
    assert validate(case).entries == [
        "network has 4 islands (expected a single one)",
        "multiple slack buses in one island: 4, 3",
        "missing slack bus in island containing bus 5",
    ]


def test_validate_is_linear_in_the_island_count():
    # 20,000 isolated buses: one slack scan per island would take minutes
    case = NetworkCase(buses=[Bus(id=i, kind=BusKind.SLACK if i == 1 else BusKind.PQ)
                              for i in range(1, 20_001)])
    start = time.perf_counter()
    report = validate(case)
    assert time.perf_counter() - start < 2.0
    assert len(report.entries) == 20_000
    assert report.entries[-1] == "missing slack bus in island containing bus 20000"


def test_validate_oltc_ratio_out_of_sync():
    from tdsynth.netmodel import OltcTransformer

    case = two_bus_case()
    case.oltcs.append(OltcTransformer(branch_ref=0, controlled_bus=2, tap=3))
    report = validate(case)
    assert any("out of sync" in e for e in report.entries)
    case.sync_ratios()
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
    union = NetworkCase(buses=[*a.buses, *b.buses])
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


def test_mutating_a_clone_column_by_column_leaves_its_source_unchanged():
    case = radial_oltc_case()
    case.buses[1].name = "sub"
    before = copy.deepcopy(case)
    twin = case.clone()
    twin.buses.p_load *= 2.0
    twin.buses.kind[0] = 1
    twin.buses.name[1] = "other"
    twin.branches.ratio[:] = 0.9
    twin.generators.cost[0, 1] = 7.0
    twin.oltcs.tap += 1
    twin.generators.append(Generator(bus_id=2))
    assert case == before
    assert twin != case


def test_case_equality_compares_values():
    case = radial_oltc_case()
    twin = radial_oltc_case()      # built apart from case: no array is shared
    assert twin == case and twin is not case
    assert NetworkCase(buses=[Bus(id=1, name="a")]) == NetworkCase(buses=[Bus(id=1, name="a")])
    for change in (lambda c: setattr(c.buses[2], "name", "x"),
                   lambda c: setattr(c.generators[0], "cost", (1.0, 0.0, 0.0)),
                   lambda c: setattr(c.branches[1], "status", False),
                   lambda c: setattr(c, "base_mva", 10.0)):
        other = case.clone()
        change(other)
        assert other != case
    assert case.buses[2] == Bus(id=3, p_load=0.3, q_load=0.1, base_kv=11.0)


# values of widely spread magnitude, so that summing in another order shows
_SPREAD = st.builds(lambda m, e: m * 10.0 ** e, st.floats(0.1, 1.0), st.integers(-8, 3))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_SPREAD, _SPREAD), min_size=9, max_size=40),
       st.lists(st.tuples(st.sampled_from(list(GenKind)), _SPREAD), min_size=9, max_size=30))
def test_load_and_penetration_are_sums_left_to_right_over_the_views(loads, units):
    case = NetworkCase(
        buses=[Bus(id=i, p_load=p, q_load=q) for i, (p, q) in enumerate(loads, 1)],
        generators=[Generator(bus_id=1, kind=kind, p=p) for kind, p in units])
    p_load = sum(b.p_load for b in case.buses)
    q_load = sum(b.q_load for b in case.buses)
    assert [x.hex() for x in total_load(case)] == [p_load.hex(), q_load.hex()]
    p_dg = sum(g.p for g in case.generators if g.kind in DG_KINDS)
    assert penetration_level(case).hex() == (p_dg / p_load).hex()


@settings(max_examples=8, deadline=None)
@given(st.lists(_SPREAD, min_size=12, max_size=12))
def test_capacity_template_demand_is_a_sum_left_to_right_over_the_views(factors):
    dn = load_case_dir(bundled_template_dir() / "mini-dn")
    assert len(dn.buses) > 8
    for b, f in zip(dn.buses, factors):
        b.p_load = (b.p_load or 0.01) * f
    cap = dn_max_capacity(dn, (0.9, 1.1))
    base = dn.clone()
    _zero_dg(base)
    p_template = sum(b.p_load for b in base.buses)
    assert cap.p_capacity.hex() == (p_template * cap.max_scale).hex()

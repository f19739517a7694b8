import csv
import io
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from tdsynth import caseio
from tdsynth.caseio import (
    CaseParseError,
    StructuralError,
    emit_case,
    export,
    from_network,
    load_case_dir,
    parse_case,
    register_exporter,
    to_network,
)
from tdsynth.netmodel import GenKind, OltcTransformer

from helpers import (
    MALFORMED_BUNDLES,
    random_document,
    scaled_templates,
    two_bus_case,
    write_malformed_bundle,
)

MINIMAL = """mpc.baseMVA = 100;
mpc.bus = [
\t1\t3\t0\t0\t0\t0\t1\t1\t0\t10\t1\t1.1\t0.9;
];
mpc.gen = [
\t1\t0\t0\t5\t-5\t1\t100\t1\t10\t0\t0\t0\t0\t0\t0\t0\t0\t0\t0\t0\t0;
];
mpc.branch = [
];
"""


def test_parse_minimal_file():
    doc = parse_case(MINIMAL)
    assert doc.base_mva == 100.0
    assert doc.version == "2"
    assert len(doc.matrices["bus"]) == 1
    assert doc.matrices["branch"].tolist() == []


def test_comments_are_whitespace():
    commented = "% header comment\n" + MINIMAL.replace(
        "mpc.gen", "% a table follows\nmpc.gen"
    ).replace("\t1\t3", "% a comment inside a matrix\n\t1\t3").replace(
        "0.9;\n", "0.9; % a row's end ]; ' [\n"
    ) + "% trailing\nmpc.bus_name = {\n\t'100% busy'; % one ' name }\n};\n"
    named = MINIMAL + "mpc.bus_name = {'100% busy'};\n"
    assert parse_case(commented) == parse_case(named)
    assert parse_case(commented).bus_name == ["100% busy"]
    tables = {name: t.tolist() for name, t in parse_case(named).matrices.items()}
    assert tables == {name: t.tolist() for name, t in parse_case(MINIMAL).matrices.items()}


def test_mini_tn_bus_count_matches_readme(template_dir):
    text = (template_dir / "mini-tn" / "case.m").read_text()
    doc = parse_case(text)
    assert len(doc.matrices["bus"]) == 8
    assert "8 buses" in (template_dir / "mini-tn" / "README").read_text()


def test_parse_error_carries_line_and_column():
    bad = MINIMAL.replace("\t1\t3", "\t1\tthree", 1)
    with pytest.raises(CaseParseError) as err:
        parse_case(bad)
    assert err.value.line == 3
    assert err.value.column == 4


@pytest.mark.parametrize("cell", ["1-2", "1.5.5", "1e5e5", "inf", "nan", "1_000", "0x1", "1,2"])
def test_parse_rejects_cells_that_run_together_or_are_not_plain_numbers(cell):
    # float() accepts some of these ("inf", "1_000"); the reader must not
    with pytest.raises(CaseParseError) as err:
        parse_case(MINIMAL.replace("\t1\t3\t0", f"\t1\t3\t{cell}", 1))
    assert err.value.line == 3


def test_parse_rejects_ragged_rows_and_duplicates():
    with pytest.raises(CaseParseError, match="ragged") as err:
        parse_case("mpc.bus = [\n\t1\t2;\n\t1;\n];\nmpc.gen = [];\nmpc.branch = [];\n")
    assert err.value.line == 3
    with pytest.raises(CaseParseError, match="duplicate"):
        parse_case(MINIMAL + "mpc.baseMVA = 50;\n")
    with pytest.raises(CaseParseError):
        parse_case("mpc.bus = [1 2")


def test_parse_rejects_scripting():
    with pytest.raises(CaseParseError):
        parse_case("function mpc = case1\n" + MINIMAL)


def test_missing_table_is_structural():
    with pytest.raises(StructuralError, match="mpc.branch"):
        parse_case(MINIMAL.replace("mpc.branch = [\n];\n", ""))


def test_short_rows_are_structural():
    with pytest.raises(StructuralError, match="needs at least 13"):
        parse_case(
            "mpc.bus = [\n\t1\t3\t0;\n];\nmpc.gen = [\n];\nmpc.branch = [\n];\n"
        )


def test_round_trip_random_documents():
    rng = np.random.default_rng(2024)
    for _ in range(60):
        doc = random_document(rng)
        assert parse_case(emit_case(doc)) == doc


def test_emit_is_deterministic_across_equal_documents():
    doc_a = parse_case(MINIMAL)
    doc_b = parse_case(MINIMAL)
    doc_a.matrices["zzz"] = [[1.0]]
    doc_a.matrices["aaa"] = [[2.0]]
    doc_b.matrices["aaa"] = [[2.0]]
    doc_b.matrices["zzz"] = [[1.0]]
    assert doc_a == doc_b
    assert emit_case(doc_a) == emit_case(doc_b)


def test_unknown_tables_survive_round_trip():
    text = MINIMAL + "\nmpc.custom_thing = [\n\t1\t2.5\t-3e-05;\n];\n"
    doc = parse_case(text)
    assert doc.matrices["custom_thing"].tolist() == [[1.0, 2.5, -3e-05]]
    again = parse_case(emit_case(doc))
    assert again.matrices["custom_thing"].tolist() == [[1.0, 2.5, -3e-05]]


def test_templates_reemit_byte_identically(template_dir):
    for name in ("mini-tn", "mini-dn"):
        text = (template_dir / name / "case.m").read_text()
        assert emit_case(parse_case(text)) == text


def test_to_network_per_unit_and_ratio_convention():
    doc = parse_case(MINIMAL)
    doc.matrices["bus"][0][2] = 100.0  # PD in MW
    doc.matrices["branch"] = [
        [1.0, 1.0, 0.01, 0.1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, -360.0, 360.0]
    ]
    case = to_network(doc)
    assert case.buses[0].p_load == pytest.approx(1.0)
    assert case.branches[0].ratio == 1.0  # RATIO 0 means plain line


def test_to_network_rejects_isolated_bus_type():
    doc = parse_case(MINIMAL)
    doc.matrices["bus"][0][1] = 4.0  # isolated
    with pytest.raises(StructuralError, match="type code 4"):
        to_network(doc)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("table, column", [("bus", caseio.BUS_I), ("gen", caseio.GEN_STATUS),
                                           ("branch", caseio.T_BUS)])
def test_to_network_rejects_whole_numbers_beyond_64_bits(table, column):
    doc = parse_case(MINIMAL)
    doc.matrices["branch"] = np.array(
        [[1.0, 1.0, 0.01, 0.1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, -360.0, 360.0]]
    )
    to_network(doc)
    doc.matrices[table][0][column] = 1e19
    with pytest.raises(StructuralError, match="does not fit in 64 bits"):
        to_network(doc)


def test_emit_rejects_non_finite_cells():
    doc = parse_case(MINIMAL)
    doc.matrices["bus"][0][2] = float("nan")
    with pytest.raises(StructuralError, match="non-finite"):
        emit_case(doc)


def test_oltc_annotation_passthrough_and_errors():
    doc = parse_case(MINIMAL)
    doc.matrices["branch"] = [
        [1.0, 1.0, 0.01, 0.1, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0, -360.0, 360.0]
    ]
    ann = OltcTransformer(0, 1, 1.02, 0.02, 3, -16, 16, 0.01)
    case = to_network(doc, [ann])
    assert case.oltcs[0].deadband == 0.02
    assert case.branches[0].ratio == pytest.approx(1.03)  # 1 + tap * step wins

    with pytest.raises(StructuralError, match="absent branch"):
        to_network(doc, [OltcTransformer(5, 1, 1.02, 0.02, 0, -16, 16, 0.01)])


def test_oltc_tap_emits_synced_ratio():
    case = two_bus_case()
    case.oltcs.append(
        OltcTransformer(branch_ref=0, controlled_bus=2, tap=3, tap_step=0.01)
    )
    case.oltcs[0].sync_branch(case)
    doc, annotations = from_network(case)
    assert doc.matrices["branch"][0][caseio.TAP] == pytest.approx(1.03)
    assert annotations[0].tap == 3


def test_network_round_trip_identity(tn_bundle, dn_bundle):
    for bundle in (tn_bundle, dn_bundle):
        doc, annotations = from_network(bundle.case)
        again = to_network(doc, annotations)
        assert again == bundle.case


def test_network_round_trip_on_solved_case(run_pipeline):
    # values that never passed through a file can shift by one ulp in the
    # degree/MW unit conversions; everything else must round-trip exactly
    from tdsynth.synth import SynthesisConfig

    case = run_pipeline(SynthesisConfig(penetration_level=0.5)).case
    again = to_network(*from_network(case))
    assert len(again.buses) == len(case.buses)
    for b_new, b_old in zip(again.buses, case.buses):
        assert b_new.v_ang == pytest.approx(b_old.v_ang, abs=1e-14)
        assert b_new.p_load == pytest.approx(b_old.p_load, abs=1e-16)
        b_new.v_ang = b_old.v_ang
        b_new.p_load = b_old.p_load
        b_new.q_load = b_old.q_load
        b_new.g_shunt = b_old.g_shunt
        b_new.b_shunt = b_old.b_shunt
    for g_new, g_old in zip(again.generators, case.generators):
        for name in ("p", "q", "p_min", "p_max", "q_min", "q_max"):
            assert getattr(g_new, name) == pytest.approx(getattr(g_old, name), abs=1e-15)
            setattr(g_new, name, getattr(g_old, name))
    for br_new, br_old in zip(again.branches, case.branches):
        assert br_new.phase_shift == pytest.approx(br_old.phase_shift, abs=1e-15)
        br_new.phase_shift = br_old.phase_shift
        br_new.rate_a = br_old.rate_a
    assert again == case  # nothing else moved


def test_network_round_trip_preserves_generator_kinds(dn_bundle):
    doc, annotations = from_network(dn_bundle.case)
    kinds = [g.kind for g in to_network(doc, annotations).generators]
    assert kinds.count(GenKind.DN_CONTROLLABLE) == 2
    assert kinds.count(GenKind.DN_PV) == 4


def test_matpower_export_equals_emitter(tn_bundle, tmp_path):
    files = export(tn_bundle.case, "matpower", tmp_path)
    doc, _ = from_network(tn_bundle.case)
    assert (tmp_path / "case.m").read_text() == emit_case(doc)
    assert {f.name for f in files} == {"case.m", "case.oltc.csv"}


def test_flat_export_row_counts(dn_bundle, tmp_path):
    export(dn_bundle.case, "flat", tmp_path)
    buses = (tmp_path / "buses.csv").read_text().splitlines()
    gens = (tmp_path / "generators.csv").read_text().splitlines()
    assert len(buses) - 1 == len(dn_bundle.case.buses)
    assert len(gens) - 1 == len(dn_bundle.case.generators)
    assert buses[0].startswith("id,name,kind,area,base_kv,p_load_mw")


def test_custom_exporter_registry(tn_bundle, tmp_path):
    def count_exporter(case, sink):
        p = sink / "count.txt"
        p.write_text(str(len(case.buses)))
        return [p]

    register_exporter("bus-count", count_exporter)
    files = export(tn_bundle.case, "bus-count", tmp_path)
    assert files[0].read_text() == "8"

    with pytest.raises(caseio.ExporterError, match="matpower"):
        export(tn_bundle.case, "does-not-exist", tmp_path)


def test_to_network_copies_the_tap_records_it_is_given(dn_bundle):
    doc, oltcs = from_network(dn_bundle.case)
    before = [replace(t) for t in oltcs]
    case = to_network(doc, oltcs)
    case.oltcs[0].tap += 1
    case.oltcs[0].v_set = 0.9
    assert oltcs == before
    _, again = from_network(case)
    again[0].tap -= 1
    assert case.oltcs[0].tap == before[0].tap + 1


def test_flat_oltc_csv_equals_the_sidecar(dn_bundle, tmp_path):
    export(dn_bundle.case, "flat", tmp_path / "flat")
    export(dn_bundle.case, "matpower", tmp_path / "matpower")
    flat = (tmp_path / "flat" / "oltc.csv").read_bytes()
    assert flat == (tmp_path / "matpower" / "case.oltc.csv").read_bytes()
    assert flat.startswith(b"branch_index,controlled_bus,v_set,deadband,tap,")


@pytest.mark.parametrize("name", sorted(MALFORMED_BUNDLES))
def test_malformed_bundle_is_structural(name, dn_bundle, tmp_path):
    bundle = write_malformed_bundle(dn_bundle.case, tmp_path / name, name)
    with pytest.raises(StructuralError, match=MALFORMED_BUNDLES[name][1]):
        load_case_dir(bundle)


def _long_table_text(rows: int, cell_at: tuple[int, str] | None = None, short_row: int | None = None) -> str:
    """MINIMAL with a ``rows``-row branch table; optionally one cell of one
    row replaced, or one row missing its last cell."""
    body = []
    for i in range(rows):
        cells = ["1", "1", "0.01", "0.1", "0", "0", "0", "0", "0", "0", "1", "-360", str(i)]
        if cell_at is not None and cell_at[0] == i:
            cells[2] = cell_at[1]
        if short_row == i:
            cells.pop()
        body.append("\t" + "\t".join(cells) + ";\n")
    return MINIMAL.replace("mpc.branch = [\n];\n", "mpc.branch = [\n" + "".join(body) + "];\n")


# MINIMAL's branch table starts on line 9, so row 4999 is on line 5008
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("cell", ["1-2", "1.5.5", "1e5e5", "1e", "-"])
def test_bad_cell_deep_in_a_long_table_is_placed(cell):
    assert parse_case(_long_table_text(10_000)).matrices["branch"].shape == (10_000, 13)
    with pytest.raises(CaseParseError, match=f"non-numeric cell '{re.escape(cell)}'") as err:
        parse_case(_long_table_text(10_000, cell_at=(4999, cell)))
    assert (err.value.line, err.value.column) == (5008, 6)


@pytest.mark.filterwarnings("error")
def test_ragged_row_deep_in_a_long_table_is_placed():
    short = "\t1\t1\t0.01\t0.1\t0\t0\t0\t0\t0\t0\t1\t-360"
    with pytest.raises(CaseParseError, match="ragged row in mpc.branch: 12 cells, expected 13") as err:
        parse_case(_long_table_text(10_000, short_row=4999))
    # the fault is placed at the end of the short row
    assert (err.value.line, err.value.column) == (5008, len(short) + 1)


def test_percent_inside_a_quoted_name_without_comments():
    text = MINIMAL + "mpc.bus_name = {\n\t'50% feeder';\n};\n"
    assert text.count("%") == 1
    doc = parse_case(text)
    assert doc.bus_name == ["50% feeder"]
    assert emit_case(doc).endswith("\t'50% feeder';\n};\n")


def test_empty_tables_are_zero_by_zero_and_round_trip():
    text = MINIMAL.replace("mpc.gen = [\n\t1\t0\t0\t5\t-5\t1\t100\t1\t10" + "\t0" * 12 + ";\n];",
                           "mpc.gen = [];")
    assert "mpc.gen = [];" in text
    doc = parse_case(text)
    assert doc.matrices["gen"].shape == (0, 0)
    assert doc.matrices["branch"].shape == (0, 0)
    again = parse_case(emit_case(doc))
    assert again == doc
    assert again.matrices["gen"].shape == (0, 0)
    assert "\nmpc.gen = [\n];\n" in emit_case(doc)


def test_extreme_values_read_and_write_bit_for_bit():
    values = [-0.0, 5e-324, float(2**53 + 1), 1e16, 1e16 + 2, -1e-7]
    row = "\t".join(repr(v) for v in values)
    doc = parse_case(MINIMAL + f"mpc.extra = [\n\t{row};\n];\n")
    read = doc.matrices["extra"][0]
    assert read.tobytes() == np.array(values).tobytes()
    again = parse_case(emit_case(doc)).matrices["extra"][0]
    # _fmt writes -0.0 bare as "0", so it comes back as +0.0; the rest keep every bit
    assert again[1:].tobytes() == read[1:].tobytes()
    assert again[0] == 0.0


def _reference_emit(doc) -> str:
    # the writer's contract, one cell at a time
    lines = [f"mpc.version = '{doc.version}';", f"mpc.baseMVA = {caseio._fmt(doc.base_mva)};"]
    known = ("bus", "gen", "branch", "gencost")
    order = [t for t in known if t in doc.matrices]
    order += sorted(t for t in doc.matrices if t not in known)
    for name in order:
        lines += ["", f"mpc.{name} = ["]
        rows = np.asarray(doc.matrices[name], dtype=float).tolist()
        lines += ["\t" + "\t".join(caseio._fmt(v) for v in row) + ";" for row in rows]
        lines.append("];")
    if doc.bus_name is not None:
        lines += ["", "mpc.bus_name = {"] + [f"\t'{n}';" for n in doc.bus_name] + ["};"]
    return "\n".join(lines) + "\n"


def test_emit_equals_a_per_cell_reference():
    rng = np.random.default_rng(99)
    for _ in range(60):
        doc = random_document(rng)
        doc.matrices["bus"][0][2] = -0.0
        assert emit_case(doc) == _reference_emit(doc)


def _reference_csv(header, rows) -> str:
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return out.getvalue()


def _reference_flat(case) -> dict[str, str]:
    # the flat export and the tap sidecar written one cell at a time
    fmt, base = caseio._fmt, case.base_mva
    oltc = _reference_csv(caseio.OLTC_CSV_HEADER, [
        [fmt(getattr(t, name)) for name in caseio._OLTC_FIELDS] for t in case.oltcs
    ])
    return {
        "buses.csv": _reference_csv(
            ["id", "name", "kind", "area", "base_kv", "p_load_mw", "q_load_mvar",
             "g_shunt_mw", "b_shunt_mvar", "v_mag_pu", "v_ang_deg", "v_min_pu", "v_max_pu"],
            [[b.id, b.name, b.kind.value, b.area, fmt(b.base_kv), fmt(b.p_load * base),
              fmt(b.q_load * base), fmt(b.g_shunt * base), fmt(b.b_shunt * base), fmt(b.v_mag),
              fmt(math.degrees(b.v_ang)), fmt(b.v_min), fmt(b.v_max)] for b in case.buses]),
        "branches.csv": _reference_csv(
            ["from_bus", "to_bus", "r_pu", "x_pu", "b_pu", "ratio",
             "phase_shift_deg", "rate_mva", "status"],
            [[br.from_bus, br.to_bus, fmt(br.r), fmt(br.x), fmt(br.b_charging), fmt(br.ratio),
              fmt(math.degrees(br.phase_shift)), fmt(br.rate_a * base), int(br.status)]
             for br in case.branches]),
        "generators.csv": _reference_csv(
            ["bus", "kind", "controllable", "p_mw", "q_mvar", "p_min_mw", "p_max_mw",
             "q_min_mvar", "q_max_mvar", "v_set_pu", "cost_c2", "cost_c1", "cost_c0"],
            [[g.bus_id, g.kind.value, int(g.controllable), fmt(g.p * base), fmt(g.q * base),
              fmt(g.p_min * base), fmt(g.p_max * base), fmt(g.q_min * base),
              fmt(g.q_max * base), fmt(g.v_set), *map(fmt, g.cost)] for g in case.generators]),
        "oltc.csv": oltc,
        "case.oltc.csv": oltc,
    }


def test_exports_equal_a_per_cell_reference_on_a_scaled_bundle(tmp_path):
    from tdsynth.synth import SynthesisConfig, generate

    templates = scaled_templates(tmp_path, 10)
    cfg = SynthesisConfig(random=True, constant_load=True, rng_seed=3)
    case = generate(templates / "mini-tn", templates / "mini-dn", cfg).case
    assert len(case.buses) > 200
    export(case, "flat", tmp_path / "flat")
    export(case, "matpower", tmp_path / "matpower")
    written = {p.name: p.read_text() for p in [*(tmp_path / "flat").iterdir(),
                                              tmp_path / "matpower" / "case.oltc.csv"]}
    assert written == _reference_flat(case)
    doc, _ = from_network(case)
    assert (tmp_path / "matpower" / "case.m").read_text() == _reference_emit(doc)

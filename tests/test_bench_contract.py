"""The benchmark under ``perfbench/`` only reads the program; these tests
check, from its source, that everything it reads is still there.  A renamed
function would otherwise fail the benchmark at run time or, worse, turn one
of its per-layer metrics into a silent 0."""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import enum

import pytest

import tdsynth
import tdsynth.cli  # noqa: F401  (the benchmark reaches it as tdsynth.cli)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SOURCES = sorted(PERFBENCH.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _dotted(node) -> str | None:
    """``a.b.c`` for an attribute chain rooted at a plain name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        return ".".join([node.id, *reversed(parts)])
    return None


def _resolve(dotted: str):
    """The object ``tdsynth.a.b`` names, importing submodules on the way;
    raises AttributeError or ImportError when it is gone."""
    parts = dotted.split(".")
    obj = tdsynth
    for i, part in enumerate(parts[1:], 2):
        if not hasattr(obj, part):
            importlib.import_module(".".join(parts[:i]))
        obj = getattr(obj, part)
    return obj


def _program_references(tree: ast.Module) -> set[str]:
    """Every ``tdsynth.<name>...`` chain the code touches."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            name = _dotted(node)
            if name is not None and name.startswith("tdsynth."):
                refs.add(name)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("tdsynth"):
            refs |= {f"{node.module}.{alias.name}" for alias in node.names}
        elif isinstance(node, ast.Import):
            refs |= {a.name for a in node.names if a.name.startswith("tdsynth.")}
    return refs


def _load_tracer():
    return _load("tracer")


def _load(name: str):
    # read-only: no bytecode cache is written under perfbench/
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # its dataclasses look their module up
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_program_name_the_benchmark_uses_exists(path):
    refs = _program_references(_tree(path))
    missing = []
    for ref in sorted(refs):
        try:
            _resolve(ref)
        except (AttributeError, ImportError):
            missing.append(ref)
    assert not missing, f"{path.name} uses names tdsynth no longer has: {missing}"


def test_every_layer_the_benchmark_reports_is_a_traced_function():
    tracer = _load_tracer()
    wrapped = tracer.public_functions()
    layers = set()
    for node in ast.walk(_tree(PERFBENCH / "run.py")):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "get" and node.args
                and isinstance(node.args[0], ast.Constant)):
            layers.add(node.args[0].value)
    assert "synth.customize_dn" in layers
    # powerflow.solve.small and the like are split off the powerflow.solve span
    functions = {".".join(layer.split(".")[:2]) for layer in layers}
    assert not functions - set(wrapped), sorted(functions - set(wrapped))


def test_the_benchmark_calls_bind_the_program_signatures():
    calls = []
    for path in SOURCES:
        for node in ast.walk(_tree(path)):
            if not isinstance(node, ast.Call):
                continue
            name = _dotted(node.func)
            if name is None or not name.startswith("tdsynth."):
                continue
            if any(isinstance(a, ast.Starred) for a in node.args) or any(
                    k.arg is None for k in node.keywords):
                continue
            calls.append((path.name, name, len(node.args), [k.arg for k in node.keywords]))
    assert any(name == "tdsynth.customize_dn" for _, name, _, _ in calls)
    for where, name, positional, keywords in calls:
        signature = inspect.signature(_resolve(name))
        try:
            signature.bind(*[None] * positional, **dict.fromkeys(keywords))
        except TypeError as exc:
            pytest.fail(f"{where}: {name} no longer takes this call: {exc}")
    # the tracer reads these arguments of customize_dn by name
    parameters = inspect.signature(tdsynth.customize_dn).parameters
    assert {"target_p", "source_v", "host_bus"} <= set(parameters)


TABLES = ("buses", "branches", "generators", "oltcs")
# the record attributes perfbench/ reads or writes, at the time of writing
USED = {
    "buses": {"id", "name", "v_mag", "v_ang", "p_load", "q_load"},
    "branches": {"r", "x", "ratio", "phase_shift", "b_charging", "from_bus", "to_bus"},
    "generators": {"kind", "bus_id", "p"},
    "oltcs": {"branch_ref"},
}


def _record_attributes() -> dict[str, set[str]]:
    """Per case table, every attribute the benchmark takes from one of its
    records: from a name bound by a loop over ``<case>.<table>`` or by
    ``name = <case>.<table>[...]``, anywhere in the same file."""
    used = {table: set() for table in TABLES}
    for path in SOURCES:
        tree = _tree(path)
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.For, ast.comprehension)):
                target, source = node.target, node.iter
            elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Subscript):
                target, source = node.targets[0], node.value.value
            else:
                continue
            if (isinstance(target, ast.Name) and isinstance(source, ast.Attribute)
                    and source.attr in TABLES):
                bound[target.id] = source.attr
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in bound):
                used[bound[node.value.id]].add(node.attr)
    return used


def _other(value):
    """A value of the same type that differs from ``value``."""
    if isinstance(value, enum.Enum):
        return next(member for member in type(value) if member is not value)
    if isinstance(value, bool):
        return not value
    return value + ("x" if isinstance(value, str) else 1)


def test_every_record_attribute_the_benchmark_uses_writes_through():
    used = _record_attributes()
    for table, names in USED.items():
        assert names <= used[table], (table, names - used[table])
    case = tdsynth.load_case_dir(tdsynth.bundled_template_dir() / "mini-dn")
    for table, names in used.items():
        for name in sorted(names):
            view = getattr(case, table)[-1]
            new = _other(getattr(view, name))
            setattr(view, name, new)
            # a fresh view reads the column the first one wrote
            assert getattr(getattr(case, table)[-1], name) == new, (table, name)


def test_the_benchmark_rescaling_reaches_the_saved_template(tmp_path):
    workloads = _load("workloads")
    got = workloads.build_templates(tmp_path / "got", 7) / "mini-dn"
    want = tdsynth.load_case_dir(tdsynth.bundled_template_dir() / "mini-dn")
    want.branches.r *= 7
    want.branches.x *= 7
    want.buses.p_load /= 7
    want.buses.q_load /= 7
    tdsynth.save_case_dir(want, tmp_path / "want")
    for name in ("case.m", "case.oltc.csv"):
        assert (got / name).read_bytes() == (tmp_path / "want" / name).read_bytes()
    shipped = tdsynth.bundled_template_dir() / "mini-dn" / "case.m"
    assert (got / "case.m").read_bytes() != shipped.read_bytes()

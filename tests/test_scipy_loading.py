"""Which runs load scipy.  Each run goes in a fresh interpreter, since this
one already holds scipy: importing tdsynth, and every generate and inspect
of the shipped and the 10x templates, load numpy only, the OPF included,
since it solves the combined case's KKT matrices on its replica blocks; an
OPF on a case without replica blocks, at a size placed dense, loads none
either, since numpy solves its KKT matrices whole."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tdsynth

from helpers import scaled_templates

CONF_ROOT = Path(__file__).resolve().parent.parent / "configs" / "default.conf"

# runs each argv given as JSON through the CLI under one Meter, an argument
# holding "*" as its one glob match, then prints as JSON the scipy modules
# loaded and the linear-solve paths the Newton steps took
_RUN = """
import glob, json, sys
import tdsynth, tdsynth.cli
with tdsynth.powerflow.Meter().active() as meter:
    for argv in json.loads(sys.argv[1]):
        argv = [glob.glob(a)[0] if "*" in a else a for a in argv]
        if tdsynth.cli.main(argv) != 0:
            sys.exit(f"exit status not 0: {argv}")
print(json.dumps([sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"),
                  sorted(set(meter.linear_solves))]))
"""


# solves the OPF of the three-bus case, which has no replica blocks, then
# prints as JSON the scipy modules loaded and the KKT factorization paths
_THREE_BUS = """
import json, sys
from helpers import three_bus_opf_case
from tdsynth.opf import OpfProblem, solve_continuous
from tdsynth.powerflow import Meter
with Meter().active() as meter:
    sol = solve_continuous(OpfProblem.from_case(three_bus_opf_case(), v_limits=(0.95, 1.05)))
assert sol.converged
print(json.dumps([sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"),
                  sorted(set(meter.kkt_solves))]))
"""


def _fresh(code: str, *args: str) -> tuple:
    """What ``code`` prints as JSON on its last line, run with ``args`` in
    a fresh interpreter that finds tdsynth and the tests' helpers."""
    env = dict(os.environ)
    src = str(Path(tdsynth.__file__).resolve().parents[1])
    here = str(Path(__file__).resolve().parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, here, env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code, *args], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return tuple(json.loads(run.stdout.splitlines()[-1]))


def _run(*argvs: list[str]) -> tuple[list[str], list[str]]:
    """The scipy modules a fresh interpreter holds after the CLI runs
    ``argvs``, and the linear-solve paths they took."""
    return _fresh(_RUN, json.dumps(argvs))


def test_import_loads_no_scipy():
    assert _run() == ([], [])


def test_generate_and_inspect_of_the_default_load_no_scipy(tmp_path):
    out = str(tmp_path / "out")
    scipy, paths = _run(["generate", str(CONF_ROOT), "--out", out], ["inspect", f"{out}/*/"])
    assert (scipy, paths) == ([], ["dense"])


def test_generate_and_inspect_on_replica_blocks_load_no_scipy(tmp_path):
    templates = scaled_templates(tmp_path / "t10", 10)
    out = str(tmp_path / "out")
    scipy, paths = _run(["generate", str(CONF_ROOT), "--templates", str(templates), "--out", out],
                        ["inspect", f"{out}/*/"])
    # the combined case's Newton steps solve on the replica blocks
    assert (scipy, paths) == ([], ["blocks", "dense"])


@pytest.mark.parametrize("scale", [1, 10])
def test_the_opf_of_a_combined_case_loads_no_scipy(tmp_path, scale):
    # every KKT matrix splits into replica blocks, solved by numpy alone
    conf = tmp_path / "opf.conf"
    conf.write_text(re.sub(r"^run_opf .*$", "run_opf = true", CONF_ROOT.read_text(), flags=re.M))
    argv = ["generate", str(conf), "--out", str(tmp_path / "out")]
    if scale > 1:
        argv += ["--templates", str(scaled_templates(tmp_path / "templates", scale))]
    scipy, _ = _run(argv)
    assert scipy == []


def test_an_opf_without_replica_blocks_loads_no_scipy():
    # its KKT matrix is placed dense and solved by numpy on each solve
    assert _fresh(_THREE_BUS) == ([], ["dense"])

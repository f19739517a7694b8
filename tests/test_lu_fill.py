"""The large sparse LU against last-bit noise."""

import numpy as np
from scipy.sparse.linalg import splu

from tdsynth import powerflow
from tdsynth.powerflow import apply_solution, solve
from tdsynth.synth import SynthesisConfig, assemble, generate
from tdsynth.templates import load_bundle

from helpers import scaled_templates


def test_large_lu_fill_does_not_hang_on_last_bits(tmp_path, monkeypatch):
    """Without randomization the copies of a host are identical, so the
    combined case repeats one feeder's Jacobian block and its sparse LU
    meets many ties between equal entries.  Under the module's pivot rule
    one-ulp changes to half the entries of the first Newton Jacobian move
    the fill of L+U by under 1%."""
    templates = scaled_templates(tmp_path, 50)
    result = generate(templates / "mini-tn", templates / "mini-dn",
                      SynthesisConfig(constant_load=True))
    tn = load_bundle(templates / "mini-tn").case
    apply_solution(tn, result.tn_solution)
    case = assemble(tn, result.instances)   # the state the combined solve starts from
    assert len(case.buses) == 1141

    jacobians = []
    real = powerflow._solve_linear

    def keep(A, b):
        jacobians.append(A)
        return real(A, b)

    monkeypatch.setattr(powerflow, "_solve_linear", keep)
    # the combined case solves by replica blocks; no blocks: the whole Jacobian to SuperLU
    monkeypatch.setattr(powerflow, "DENSE_MAX_ROWS", 0)
    solve(case)
    J = jacobians[0]
    assert not isinstance(J, np.ndarray)

    def fill(A) -> int:
        lu = splu(A, permc_spec=powerflow.SPARSE_LU_ORDERING,
                  diag_pivot_thresh=powerflow.SPARSE_LU_PIVOT)
        return lu.L.nnz + lu.U.nnz

    base = fill(J)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        moved = J.copy()
        half = rng.choice(moved.nnz, moved.nnz // 2, replace=False)
        away = np.where(rng.random(len(half)) < 0.5, -np.inf, np.inf)
        moved.data[half] = np.nextafter(moved.data[half], away)
        assert abs(fill(moved) - base) <= 0.01 * base, seed

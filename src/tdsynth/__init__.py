"""tdsynth: synthesize combined transmission-and-distribution test networks."""

from .caseio import (
    CaseDocument,
    CaseParseError,
    StructuralError,
    emit_case,
    export,
    from_network,
    load_case_dir,
    parse_case,
    save_case_dir,
    to_network,
)
from .netmodel import (
    Branch,
    Bus,
    BusKind,
    Generator,
    GenKind,
    NetworkCase,
    OltcTransformer,
    penetration_level,
    total_load,
    validate,
)
from .oltc import RegulationReport, regulate, tap_update
from .opf import OpfProblem, OpfSolution, RelaxationSchedule, solve_continuous, solve_with_relaxation
from .powerflow import PowerFlowSolution, SolverOptions, apply_solution, solve
from .synth import (
    CapacityResult,
    DnInstance,
    GenerateResult,
    SynthesisConfig,
    assemble,
    customize,
    customize_dn,
    dn_count,
    dn_max_capacity,
    generate,
    select_replaceable_loads,
)
from .templates import TemplateBundle, bundled_template_dir, load_bundle

__version__ = "0.1.0"

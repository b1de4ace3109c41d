"""Composite automata: sequential, cellular, probabilistic and hierarchical
machines coupled into one model, plus redundancy modeling, explicit-state and
probabilistic checking, signature detection, and a text format with a CLI.
"""

from .cellular import (
    CaRun,
    CellularAutomaton,
    Lattice,
    ProbabilisticCellularAutomaton,
    builtin_rule_table,
    ca_run,
    ca_step,
    pca_step,
    pca_step_distribution,
    point_mass_pca,
    validate_ca,
    validate_pca,
)
from .checker import (
    Action,
    CheckResult,
    Dtmc,
    Path,
    Property,
    TransitionSystem,
    build_dtmc,
    check_components,
    check_invariant,
    check_property,
    check_reach,
    flatten,
    product,
    reach_probability_exact,
    reach_probability_mc,
    replay_path,
)
from .composition import (
    Binding,
    HaUnit,
    MODE_CA_FROM_SA,
    MODE_SA_FROM_CA,
    MacroTick,
    MimicAutomaton,
    MimicConfiguration,
    NestedUnit,
    Readout,
    SaUnit,
    common_input_alphabet,
    ma_initial,
    ma_run,
    strip_clocks,
    validate_ma,
)
from .detect import DetectionReport, Signature, SignatureResult, detect, load_signatures
from .dhr import (
    DhrStepReport,
    DhrStructure,
    SerialDhr,
    SerialTick,
    VoterPolicy,
    build_dhr,
    dhr_initial,
    dhr_run,
    inject_fault,
    serial_initial,
    serial_run,
    vote,
)
from .errors import (
    ConvergenceError,
    DimensionError,
    ExplosionError,
    InputRejectedError,
    MimicError,
    ModelFormatError,
    ModelValidationError,
    NestingError,
    PropertyError,
    ReadoutError,
    SizeCapError,
    StuckError,
    Violation,
)
from .hierarchical import (
    HaConfiguration,
    HierarchicalAutomaton,
    ha_initial,
    ha_step,
    ha_step_with_output,
    validate_ha,
)
from .modelfile import Diagnostic, ModelDocument, parse, parse_files, serialize
from .props import parse_predicate, render_predicate
from .sequential import RunResult, SequentialAutomaton, sa_run, sa_step, validate_sa

__version__ = "0.1.0"

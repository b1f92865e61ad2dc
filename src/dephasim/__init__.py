"""Stationary-state entanglement and total correlation under collective dephasing."""

from .engine import (
    StationaryXForm,
    build_liouvillian,
    dephasing_fixed_point,
    evolve,
    extract_xform,
    propagators,
    stationary_state,
)
from .errors import (
    DephasimError,
    DimensionMismatchError,
    ParseError,
    StateValidationError,
    ZeroNormError,
)
from .linalg import partial_transpose
from .measures import (
    CriterionReport,
    concurrence_xform,
    min_pt_eigenvalue,
    mutual_information_xform,
    qutrit_cubic_coefficients,
    qutrit_sufficient_entangled,
)
from .states import DensityMatrix, parse_ket_expression, validate
from .sweep import (
    SweepConfig,
    SweepResult,
    WindowOverlapReport,
    compare_windows,
    detect_local_maxima,
    detect_transitions,
    read_csv,
    run_qutrit_scan,
    run_sweep,
    write_criterion_report,
    write_csv,
)

__version__ = "0.1.0"

__all__ = [
    "CriterionReport",
    "DensityMatrix",
    "DephasimError",
    "DimensionMismatchError",
    "ParseError",
    "StateValidationError",
    "StationaryXForm",
    "SweepConfig",
    "SweepResult",
    "WindowOverlapReport",
    "ZeroNormError",
    "build_liouvillian",
    "compare_windows",
    "concurrence_xform",
    "dephasing_fixed_point",
    "detect_local_maxima",
    "detect_transitions",
    "evolve",
    "extract_xform",
    "min_pt_eigenvalue",
    "mutual_information_xform",
    "parse_ket_expression",
    "partial_transpose",
    "propagators",
    "qutrit_cubic_coefficients",
    "qutrit_sufficient_entangled",
    "read_csv",
    "run_qutrit_scan",
    "run_sweep",
    "stationary_state",
    "validate",
    "write_criterion_report",
    "write_csv",
]

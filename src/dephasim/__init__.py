"""Stationary-state entanglement and total correlation under collective dephasing."""

from .engine import StationaryXForm, dephasing_fixed_point, stationary_xforms
from .errors import (
    DephasimError,
    DimensionMismatchError,
    ParseError,
    StateValidationError,
)
from .linalg import partial_transpose
from .measures import (
    CriterionReport,
    concurrence_xform,
    min_pt_eigenvalue,
    mutual_information_xform,
    qutrit_sufficient_entangled,
)
from .states import DensityMatrix, parse_ket_expression, validate
from .sweep import (
    SweepConfig,
    SweepResult,
    WindowOverlapReport,
    compare_windows,
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
    "compare_windows",
    "concurrence_xform",
    "dephasing_fixed_point",
    "min_pt_eigenvalue",
    "mutual_information_xform",
    "parse_ket_expression",
    "partial_transpose",
    "qutrit_sufficient_entangled",
    "read_csv",
    "run_qutrit_scan",
    "run_sweep",
    "stationary_xforms",
    "validate",
    "write_criterion_report",
    "write_csv",
]

"""Desk-scale experiments with additive bases of the naturals.

Structured integer sets are described by a small expression DSL, windowed
exactly onto ``[0, N]`` as interval runs or byte bitsets, and combined
by run arithmetic while the runs are few and by a bit-parallel shift-OR
sumset kernel after.  On top sit counting-function density sequences,
certified order lower bounds, and finite-stability probes.
"""

from .analysis import (
    ZERO_RATIO,
    DensityRow,
    HypothesisReport,
    SubseqSpec,
    density_sequence,
    hypothesis_probe,
    parse_subseq,
    window_extrema,
)
from .bitset import PrefixBitset, full_mask, iter_bits
from .order import (
    OrderReport,
    StabilityReport,
    VerificationError,
    order_bounds,
    random_stability_sweep,
    stability_probe,
)
from .setexpr import (
    COUNTEREXAMPLE,
    CUBES,
    SQUARES,
    BlockFamily,
    BoundCeilingError,
    Explicit,
    Interval,
    ParseError,
    Powers,
    SemanticError,
    SetExpr,
    Union,
    expr_runs,
    family_blocks,
    materialize,
    parse_set_expr,
)
from .sumset import (
    SumsetResult,
    iterate_sumset,
    pair_sumset,
    representation_count,
    run_sumset,
)
from .verify import VerifyOutcome, verify_counterexample

__version__ = "0.1.0"

__all__ = [
    "BlockFamily",
    "BoundCeilingError",
    "COUNTEREXAMPLE",
    "CUBES",
    "DensityRow",
    "Explicit",
    "HypothesisReport",
    "Interval",
    "OrderReport",
    "ParseError",
    "Powers",
    "PrefixBitset",
    "SQUARES",
    "SemanticError",
    "SetExpr",
    "StabilityReport",
    "SubseqSpec",
    "SumsetResult",
    "Union",
    "VerificationError",
    "VerifyOutcome",
    "ZERO_RATIO",
    "density_sequence",
    "expr_runs",
    "family_blocks",
    "full_mask",
    "hypothesis_probe",
    "iter_bits",
    "iterate_sumset",
    "materialize",
    "order_bounds",
    "pair_sumset",
    "parse_set_expr",
    "parse_subseq",
    "random_stability_sweep",
    "representation_count",
    "run_sumset",
    "stability_probe",
    "verify_counterexample",
    "window_extrema",
]

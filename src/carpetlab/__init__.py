"""carpetlab: dimension formulas, slice covers, and magnification dynamics
for self-affine grid carpets."""

from .carpet import (
    Carpet,
    DimensionReport,
    box_packing_dimension,
    dimension_report,
    hausdorff_chain,
    hausdorff_dimension,
    independence_check,
    marstrand_bound,
    new_carpet,
    optimize_tradeoff,
    packing_chain,
    prior_slice_bound,
    slice_dimension_bound,
    star_dimension,
)
from .io import load_carpet, parse_carpet
from .measures import (
    DiscreteMeasure,
    EntropyReport,
    GridPartition,
    condition_rescale,
    entropy,
    finite_scale_dimension,
)
from .scenery import (
    BlockTable,
    BoundChainReport,
    EmpiricalTriple,
    SceneryState,
    ScenerySummary,
    bound_chain_report,
    empirical_measures_linear,
    magnify_step,
    run_scenery,
    state_from_cell,
)
from .slicer import (
    Line,
    SliceCover,
    SliceEstimate,
    estimate_slice_dimension,
    exact_cover_cells,
    slice_counts,
    slice_cover,
)
from .symbolic import (
    ApproxSquare,
    RotationOrbit,
    SymbolWord,
    carry_shift,
    shift,
)

__version__ = "0.1.0"

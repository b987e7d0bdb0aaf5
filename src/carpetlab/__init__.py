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
from .io import dump_carpet, load_carpet, parse_carpet
from .measures import (
    DiscreteMeasure,
    EntropyReport,
    GridPartition,
    condition_rescale,
    entropy,
    finite_scale_dimension,
    gibbs_gap,
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
    star_discrepancy,
    state_from_cell,
)
from .slicer import (
    Line,
    SliceCover,
    SliceEstimate,
    cover_measure,
    estimate_slice_dimension,
    exact_cover_cells,
    slice_counts,
    slice_cover,
)
from .symbolic import (
    RETURN_CONSTANT,
    ApproxSquare,
    RotationOrbit,
    SymbolWord,
    approx_square_at,
    carry_shift,
    coding_interval,
    cylinder_cover_count,
    shift,
)

__version__ = "0.1.0"

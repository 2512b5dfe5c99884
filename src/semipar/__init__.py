"""Work-efficient parallel primitives with instrumented work/round counters.

Semisort and integer sort, randomized placement, hashing families, culled
balanced graph partitioning, MIS / (Delta+1)-coloring with boosting, tail
bound evaluators, and a seeded benchmark CLI (``semipar-bench``).
"""

from .bounds import (
    HypothesisViolated,
    bound_eval,
    chernoff_lower,
    chernoff_lower_mean,
    chernoff_upper,
    geom_sum,
    mcdiarmid,
    weighted_geom,
)
from .graph import (
    CulledPartition,
    EdgeSamplingExceeded,
    Graph,
    InvariantViolation,
    ReorganizedGraph,
    alive_degrees,
    cull_partition,
    edge_list,
    from_edges,
    generate,
    piece_edge_counts,
    reorganize,
    verify_partition,
)
from .graph_algos import (
    ColoringRoundsExceeded,
    InvalidPalette,
    PaletteDeficit,
    PaletteSet,
    UncoloredCutEndpoint,
    boosted_coloring,
    boosted_mis,
    extend_palettes,
    luby_mis,
    mis_extend_prune,
    palette_color,
    verify_coloring,
    verify_mis,
)
from .hashing import (
    TabulationHash,
    UniversalHash,
    detect_collision,
    tab_bucket,
    tab_new,
    universal_hash_array,
    universal_new,
)
from .meter import WorkMeter
from .placement import (
    InvalidInstance,
    PlacementInstance,
    PlacementResult,
    PlacementTimeout,
    default_round_cap,
    place,
    verify_placement,
)
from .records import Records, group_counts, is_semisorted, same_multiset
from .semisort import (
    ArenaExceeded,
    BucketTooLarge,
    KeyOutOfRange,
    LightArenaExceeded,
    RehashExceeded,
    RestartExceeded,
    SemisortParams,
    SemisortTrace,
    f_alloc,
    integer_sort,
    local_semisort,
    semisort,
    verify_semisort,
)

__version__ = "0.1.0"


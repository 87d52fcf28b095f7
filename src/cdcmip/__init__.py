"""Small ideal MIP formulations for combinatorial disjunctive constraints."""

__version__ = "0.1.0"

from .cdc import (
    ConflictGraph,
    IndexSetFamily,
    conflict_graph,
    ground_set,
    is_feasible_set,
    is_irredundant,
    is_pairwise_ib_representable,
    minimal_infeasible_sets,
)
from .cover import (
    Biclique,
    BicliqueCover,
    heuristic_cover,
    is_biclique,
    merge_cover,
    separation,
    verify_cover,
)
from .errors import (
    DisconnectedPartitionError,
    InputError,
    InvariantError,
    NoJunctionTreeError,
    RedundantFamilyWarning,
    SizeGuardError,
)
from .formulate import (
    LinearFormulation,
    build_extended_disjoint,
    build_extended_jtree,
    build_ib_from_cover,
    build_jeroslow_lowe,
    build_log_embedding,
    build_naive,
    build_pwl,
    build_sosk,
    build_sosk_kis,
    write_lp,
)
from .geom import PlanarPartition, dual_graph, partition_to_cdc, savings_report
from .jtree import (
    CandidateTree,
    admits_junction_tree,
    failing_index,
    is_junction_tree,
    maximum_spanning_tree_of,
)
from .oracle import (
    brute_admits_junction_tree,
    is_ideal,
    lp_vertices,
    min_biclique_cover_exact,
    support_validity,
)
from .sosk import (
    compare_bounds,
    sosk_base_cover,
    sosk_cover,
    sosk_family,
    sosk_junction_tree,
    sosk_merged_cover,
    sosk_size_identity,
)
from .transform import (
    IndexMapping,
    TransformResult,
    build_equivalent_family,
    project,
    variable_accounting,
)

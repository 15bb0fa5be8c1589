"""Short presentations for crystallographic groups and periodic-graph analysis."""

from .affine import (
    AffineIsometry,
    TranslationLattice,
    WalkKernel,
    compose,
    inverse,
    translation_of,
    hnf_lattice,
    finite_closure,
)
from .symop import (
    GeneratingSetDocument,
    parse_symop,
    format_symop,
    parse_generating_set,
)
from .words import (
    Presentation,
    evaluate,
    free_reduce,
    cyclic_reduce,
    tietze_simplify,
    parse_word,
    format_word,
)
from .cosets import (
    CosetTable,
    coset_enumerate,
    is_consequence,
    order_check,
    short_presentation_finite,
)
from .bfs import (
    BallIndex,
    GeodesicSet,
    TranslationHarvest,
    ball,
    coordination_sequence,
    geodesics,
    lattice_geodesic_count,
    odd_cycle_girth,
    shortest_translation_words,
)
from .pipeline import (
    ExtensionData,
    PipelineError,
    PresentationReport,
    VerificationFailure,
    bounded_consequence_check,
    build_extension_data,
    conjugation_relators,
    lattice_relators,
    lift_point_relators,
    ndia_generators,
    present,
    quotient_relators,
    relator_ring_census,
)
from .netgraph import (
    LabeledQuotientGraph,
    Ring,
    RingSymbol,
    catalog_load,
    catalog_names,
    extend_lattice,
    from_cayley,
    net_coordination_sequence,
    net_geodesics,
    quotient_by_sublattice,
    regular_action_check,
    ring_size_counts,
    schlafli_symbol,
    strong_rings,
    topological_density,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

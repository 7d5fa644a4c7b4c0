"""Triangle-completion (delta) convexity on finite simple graphs."""

from .graphs import (
    BlockDecomposition,
    Graph,
    GraphError,
    block_decomposition,
    diameter,
    graph_from_json,
    graph_to_json,
    is_block_graph,
    is_chordal,
    is_connected,
    is_two_connected,
    load_graph,
    save_graph,
)
from .hull import (
    HullTrace,
    delta_hull,
    delta_hull_traced,
    delta_interval,
    is_delta_convex,
    is_hull_set,
)
from .independence import (
    IndependenceVerdict,
    InvariantResult,
    cara_property_iii_violations,
    caratheodory_number,
    exchange_number,
    helly_number,
    is_c_independent,
    is_e_independent,
    is_h_independent,
    naive_caratheodory_number,
    naive_exchange_number,
    naive_helly_number,
)
from .families import (
    FamilyError,
    FamilyInstance,
    Prediction,
    ReconstructionError,
    block_chain,
    block_tree,
    complete,
    complete_bipartite,
    cycle,
    gadget_c,
    gadget_e,
    path,
    random_graph,
    two_connected_chordal,
)
from .products import (
    ProductGraph,
    cartesian_c_witness,
    cartesian_e_witness,
    g_layer,
    h_layer,
    has_edge_vertex_property,
    product,
    project_g,
    project_h,
)
from .verifier import (
    SuiteConfig,
    SuiteReport,
    TheoremCheck,
    run_suite,
    verify_family,
    verify_graph_universal,
    verify_products,
    write_report,
)

__version__ = "0.1.0"

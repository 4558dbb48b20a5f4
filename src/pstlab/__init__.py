"""Exact perfect-state-transfer analysis for quantum walks on graphs."""

from .graphs import (
    Graph,
    Graph6ParseError,
    Bipartition,
    TwinPair,
    adjacency,
    bipartition,
    construct,
    find_twins,
    laplacian,
    parse_graph6,
    signless_laplacian,
    write_graph6,
)
from .generate import (
    canonical_form,
    gen_connected_graphs,
    gen_free_trees,
    stream_from_file,
)
from .exactalg import (
    IntegerEig,
    IntPolynomial,
    QuadraticEig,
    ResidualEig,
    charpoly,
    det_bareiss,
    factor_support,
    vector_minpoly,
)
from .spectral import (
    ADJACENCY,
    LAPLACIAN,
    SIGNLESS_LAPLACIAN,
    CospectralityProfile,
    SupportProfile,
    classify_by_minpolys,
    cospectrality_profile,
    support_profile,
)
from .pst import (
    Certificate,
    PSTReport,
    adjacency_pst,
    all_pair_reports,
    decide,
    laplacian_pst,
    numeric_fidelity,
    pst_search,
)
from .harness import (
    CheckResult,
    SurveyRecord,
    check_bipartite_lmax,
    check_power_of_two_eigenvalue,
    check_trees_no_lpst,
    check_twin_theorem,
    check_unique_matching_no_apst,
    is_pedestrian,
    lmax_is_integer,
    replay_certificate,
    run_survey,
    screen_odd_odd,
    screen_power_of_two,
    spanning_tree_count,
    tree_perfect_matching,
    verify_positive_report,
)

__version__ = "0.1.0"

"""partperm — exact combinatorics, volumes and Ehrhart theory of partial
permutohedra P(m,n).

P(m,n) is the convex hull of all vectors in {0..n}^m whose nonzero entries
are pairwise distinct.  The package computes its vertices, facets, faces
(indexed by subset chains), f- and h-polynomials, normalized volumes and
Ehrhart polynomials, each by several independent exact methods that are
cross-validated against brute-force lattice-point counting.  All
arithmetic is exact (integers and rationals; no floating point).
"""

from .exactmath import (
    EngineDisagreement,
    Polynomial,
    Series,
    binomial_poly,
    double_factorial,
    eulerian,
    int_det,
    interpolate,
    solve_linear,
    stirling2,
)
from .combinat import (
    CHAIN_WORK_MAX,
    DRACONIAN_MAX_M,
    Engine,
    ORACLE_MAX_M,
    ORACLE_MAX_N,
    chain_in_family,
    descents,
    draconian_census,
    draconian_check,
    draconian_domain,
    draconian_indices,
    draconian_shape_tally,
    enumerate_chains,
    enumerate_draconian,
    missing_ranks,
    oracle_domain,
    r_set,
    r_set_and_order,
)
from .polytope import (
    CutResult,
    HRep,
    KERNEL_NAME,
    PP_COUNT_WORK_MAX,
    VERTEX_LIST_MAX,
    VRep,
    antiblocking_vertices_edges,
    bounding_box,
    contains_point,
    count_lattice_points,
    count_points,
    cut,
    hull_convert,
    pp_box,
    pp_count,
    pp_facets,
    pp_vertex_count,
    pp_vertices,
    verify_antiblocking_identity,
)
from .faces import (
    COMB_EQUIV_WORK_MAX,
    F_VECTOR_WORK_MAX,
    FaceSystem,
    H_POLY_ENGINES,
    VertexStats,
    comb_equiv_check,
    f_polynomial,
    f_vector,
    f_vector_work,
    face_from_chain,
    face_vertices,
    h_poly,
    is_palindromic,
    vertex_stats,
)
from .volume import (
    VOLUME_ENGINES,
    aux1_nvol,
    aux1_vertices,
    aux2_nvol,
    aux2_vertices,
    conj_vmn_fit,
    nvol_closed,
    nvol_draconian,
    nvol_lambda,
    nvol_of_vrep,
    nvol_oracle,
    nvol_poly,
    nvol_recursive,
    nvol_small_n,
    nvol_three_term,
)
from .ehrhart import (
    EHRHART_ENGINES,
    aux3_points,
    aux_lemma3,
    ehr_closed_small_m,
    ehr_closed_small_n,
    ehr_conjecture,
    ehr_draconian,
    ehr_interpolate,
    ehr_parking,
    ehr_recurrence,
    from_hstar,
    to_hstar,
)

__version__ = "0.1.0"

__all__ = [
    "EngineDisagreement", "Polynomial", "Series", "binomial_poly",
    "double_factorial", "eulerian", "int_det", "interpolate",
    "solve_linear", "stirling2",
    "CHAIN_WORK_MAX", "DRACONIAN_MAX_M", "Engine", "ORACLE_MAX_M", "ORACLE_MAX_N",
    "chain_in_family",
    "descents", "draconian_census",
    "draconian_check", "draconian_domain", "draconian_indices",
    "draconian_shape_tally", "enumerate_chains", "enumerate_draconian",
    "missing_ranks", "oracle_domain", "r_set", "r_set_and_order",
    "CutResult", "HRep", "KERNEL_NAME", "PP_COUNT_WORK_MAX", "VERTEX_LIST_MAX",
    "VRep", "antiblocking_vertices_edges",
    "bounding_box", "contains_point", "count_lattice_points", "count_points",
    "cut", "hull_convert", "pp_box", "pp_count", "pp_facets", "pp_vertex_count",
    "pp_vertices", "verify_antiblocking_identity",
    "COMB_EQUIV_WORK_MAX", "F_VECTOR_WORK_MAX", "FaceSystem", "H_POLY_ENGINES",
    "VertexStats", "comb_equiv_check", "f_polynomial", "f_vector", "f_vector_work",
    "face_from_chain", "face_vertices", "h_poly",
    "is_palindromic", "vertex_stats",
    "VOLUME_ENGINES", "aux1_nvol", "aux1_vertices", "aux2_nvol",
    "aux2_vertices", "conj_vmn_fit",
    "nvol_closed", "nvol_draconian", "nvol_lambda", "nvol_of_vrep",
    "nvol_oracle", "nvol_poly", "nvol_recursive", "nvol_small_n",
    "nvol_three_term",
    "EHRHART_ENGINES", "aux3_points", "aux_lemma3", "ehr_closed_small_m", "ehr_closed_small_n",
    "ehr_conjecture", "ehr_draconian", "ehr_interpolate", "ehr_parking",
    "ehr_recurrence", "from_hstar", "to_hstar",
    "__version__",
]

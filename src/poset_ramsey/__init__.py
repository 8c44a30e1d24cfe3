"""Poset Ramsey numbers against subset lattices: exact values at small
scale, certified upper-bound formulas at any scale, and certificate-emitting
extraction procedures in between.
"""

from poset_ramsey._kernels import BACKEND_NAME as _BACKEND_NAME
from poset_ramsey.bounds import (
    antichain_alpha,
    chain_bound,
    claim_holds,
    claim_sides,
    log2_interval,
    multipartite_upper_bound,
    spindle_bound_report,
    spindle_upper_bound,
)
from poset_ramsey.errors import InvariantViolation, SearchBudgetExceeded
from poset_ramsey.extract import (
    BlueChainCert,
    ChainFamily,
    RedQnCert,
    SpindleCert,
    WitnessCert,
    assemble_spindle,
    certificate_from_json,
    certificate_to_json,
    chain_or_red,
    classify_clear,
    collect_chain_family,
    distinctness_contradiction,
    pigeonhole_end_classes,
    verify_certificate,
)
from poset_ramsey.lattice import (
    Coloring,
    GroundSplit,
    YOrdering,
    all_orderings,
    coloring_from_text,
    coloring_to_text,
    pair_leq,
    prefix_mask,
    random_coloring,
    write_coloring,
)
from poset_ramsey.posets import (
    ChainCover,
    Embedding,
    MultipartiteSpec,
    Poset,
    SpindleSpec,
    are_isomorphic,
    dilworth_cover,
    find_poset_copy,
    glue,
    make_antichain,
    make_boolean_poset,
    make_chain,
    make_complete_multipartite,
    make_spindle,
    max_antichain,
    poset_from_json,
    poset_to_dot,
    poset_to_json,
)
from poset_ramsey.search import (
    RamseyResult,
    SearchBudget,
    find_colored_copy,
    find_witness,
    ramsey_exact,
    verify_witness,
)

__version__ = "0.1.0"


def kernel_backend() -> str:
    """Which search kernel implementation this process imported."""
    return _BACKEND_NAME


__all__ = [
    "BlueChainCert",
    "ChainCover",
    "ChainFamily",
    "Coloring",
    "Embedding",
    "GroundSplit",
    "InvariantViolation",
    "MultipartiteSpec",
    "Poset",
    "RamseyResult",
    "RedQnCert",
    "SearchBudget",
    "SearchBudgetExceeded",
    "SpindleCert",
    "SpindleSpec",
    "WitnessCert",
    "YOrdering",
    "all_orderings",
    "antichain_alpha",
    "are_isomorphic",
    "assemble_spindle",
    "certificate_from_json",
    "certificate_to_json",
    "chain_bound",
    "chain_or_red",
    "claim_holds",
    "claim_sides",
    "classify_clear",
    "collect_chain_family",
    "coloring_from_text",
    "coloring_to_text",
    "dilworth_cover",
    "distinctness_contradiction",
    "find_colored_copy",
    "find_poset_copy",
    "find_witness",
    "glue",
    "kernel_backend",
    "log2_interval",
    "make_antichain",
    "make_boolean_poset",
    "make_chain",
    "make_complete_multipartite",
    "make_spindle",
    "max_antichain",
    "multipartite_upper_bound",
    "pair_leq",
    "pigeonhole_end_classes",
    "poset_from_json",
    "poset_to_dot",
    "poset_to_json",
    "prefix_mask",
    "ramsey_exact",
    "random_coloring",
    "spindle_bound_report",
    "spindle_upper_bound",
    "verify_certificate",
    "verify_witness",
    "write_coloring",
]

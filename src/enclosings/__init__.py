"""Enclose edge decompositions of complete multigraphs in 2-edge-connected
r-factorizations: condition batteries, constructive pipelines, and
brute-force oracles."""

from .mgraph import Multigraph, complete_multigraph
from .decomp import (
    Decomposition,
    Enclosing,
    is_admissible,
    admissibility_violation,
    restrict,
    s_count,
    s_uv_count,
    verify_enclosing,
)
from .conditions import (
    ConditionReport,
    EnclosureParams,
    check_a_prime,
    check_b,
    check_c,
    check_regime,
    check_theorem15,
    make_params,
    pick_regime,
    theorem15_constant,
)
from .extend import (
    ExtensionTrace,
    enclose_in_mu_kn,
    replay_trace,
)
from .detach import (
    DetachmentWitness,
    build_amalgamated_triad,
    fair_detach,
    is_good_triad,
    verify_detachment,
)
from .oracle import (
    EnclosureSearchResult,
    SearchStats,
    brute_force_admissible,
    bryant_decompose,
    brute_force_enclose,
    enumerate_decompositions,
    random_admissible,
)

__all__ = [
    "Multigraph",
    "complete_multigraph",
    "Decomposition",
    "Enclosing",
    "is_admissible",
    "admissibility_violation",
    "restrict",
    "s_count",
    "s_uv_count",
    "verify_enclosing",
    "ConditionReport",
    "EnclosureParams",
    "check_a_prime",
    "check_b",
    "check_c",
    "check_regime",
    "check_theorem15",
    "make_params",
    "pick_regime",
    "theorem15_constant",
    "ExtensionTrace",
    "enclose_in_mu_kn",
    "replay_trace",
    "DetachmentWitness",
    "build_amalgamated_triad",
    "fair_detach",
    "is_good_triad",
    "verify_detachment",
    "EnclosureSearchResult",
    "SearchStats",
    "brute_force_admissible",
    "bryant_decompose",
    "brute_force_enclose",
    "enumerate_decompositions",
    "random_admissible",
]

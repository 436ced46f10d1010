"""Exact search for maximum intersecting families of integer partitions.

Partitions are nondecreasing tuples of positive integers.  Two
partitions t-intersect when they share t parts with multiplicity, and
properly t-intersect when they share t distinct values.  The library
enumerates and counts partitions, builds the star families conjectured
to be extremal, certifies maximum (properly) t-intersecting families by
exact clique search, decides star uniqueness, executes the counting
constructions behind those conjectures, and sweeps parameter grids into
reproducible reports.
"""

from .cliques import (
    DEFAULT_NODE_BUDGET,
    DEFAULT_TIME_BUDGET_SECS,
    ENGINE_VERSION,
    IntersectionGraph,
    Relation,
    SearchBudgetExceeded,
    SearchOutcome,
    SetFamilyInstance,
    Verdict,
    build_graph,
    check_uniqueness,
    max_family,
    max_family_set_system,
)
from .constructions import (
    ConstructionError,
    CoverSetReport,
    Lemma2Report,
    NotTIntersectingError,
    TriviallyTIntersectingError,
    lemma1_injection,
    lemma1_strictness_witness,
    lemma2_family,
    lemma3_cover,
    proposition_witnesses,
    sort_tuple,
)
from .harness import (
    LemmaSuiteReport,
    RowCache,
    RunConfig,
    SweepRow,
    cross_validate_ekr,
    run_lemma_suites,
    solve_instance,
    summarize_rows,
    verify_strong_form,
    verify_t_conjectures,
    verify_weak_form,
    weak_strong_consistent,
    witness_digest,
)
from .intersect import (
    distinct_common_count,
    multiset_common_count,
    properly_t_intersects,
    t_intersects,
)
from .partitions import (
    DEFAULT_MAX_VERTICES,
    CountTable,
    Partition,
    ResourceGuardError,
    count_all,
    count_partitions,
    enumerate_all,
    enumerate_partitions,
)
from .stars import fixed_set_family, star_all_lengths, star_t

__version__ = "0.1.0"

__all__ = [
    "CountTable",
    "ConstructionError",
    "CoverSetReport",
    "DEFAULT_MAX_VERTICES",
    "DEFAULT_NODE_BUDGET",
    "DEFAULT_TIME_BUDGET_SECS",
    "ENGINE_VERSION",
    "IntersectionGraph",
    "Lemma2Report",
    "LemmaSuiteReport",
    "NotTIntersectingError",
    "Partition",
    "Relation",
    "ResourceGuardError",
    "RowCache",
    "RunConfig",
    "SearchBudgetExceeded",
    "SearchOutcome",
    "SetFamilyInstance",
    "SweepRow",
    "TriviallyTIntersectingError",
    "Verdict",
    "build_graph",
    "check_uniqueness",
    "count_all",
    "count_partitions",
    "cross_validate_ekr",
    "distinct_common_count",
    "enumerate_all",
    "enumerate_partitions",
    "fixed_set_family",
    "lemma1_injection",
    "lemma1_strictness_witness",
    "lemma2_family",
    "lemma3_cover",
    "max_family",
    "max_family_set_system",
    "multiset_common_count",
    "properly_t_intersects",
    "proposition_witnesses",
    "run_lemma_suites",
    "solve_instance",
    "sort_tuple",
    "star_all_lengths",
    "star_t",
    "summarize_rows",
    "t_intersects",
    "verify_strong_form",
    "verify_t_conjectures",
    "verify_weak_form",
    "weak_strong_consistent",
    "witness_digest",
]

"""Frozen artifact schema.

Downstream plotting reads these files; the column order and field names
below are versioned and must not change without bumping SCHEMA_VERSION.
"""

SCHEMA_VERSION = "1"

# trace.csv: one row per (seed, generation), generations 1..T
TRACE_COLUMNS = ("seed", "generation", "hv_feasible", "hv_all", "feasible_count")

# archive_seed<S>.json top-level fields
ARCHIVE_FIELDS = (
    "schema_version",
    "seed",
    "solutions",  # list of gene vectors in [0, 1]^d
    "raw",  # raw objective vectors, minimization
    "penalized",  # hinge-penalized objective vectors
    "feasible",  # booleans, raw values within every bound
    "generation",  # generation index each entry was evaluated in
    "front_indices",  # non-dominated feasible entries (raw objectives)
    # NSGA-II: archive indices of the surviving population; PSL and random
    # search: the last generation's batch, which no selection chose
    "population_indices",
)

# summary.json per-generation fields (statistics across seeds)
SUMMARY_GENERATION_FIELDS = (
    "generation",
    "hv_feasible_mean",
    "hv_feasible_std",
    "hv_all_mean",
    "hv_all_std",
    "feasible_count_mean",
)

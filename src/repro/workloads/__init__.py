"""``repro.workloads`` — demo data generators, the paper's UDF corpus, and the
two buggy demo scenarios (§2.5)."""

from .csvgen import CSVWorkload, generate_csv_directory
from .scenarios import ScenarioA, ScenarioB, make_scenario_a, make_scenario_b
from .udf_corpus import (
    EXTRA_UDFS_SQL,
    FIND_BEST_CLASSIFIER_BODY,
    LOAD_NUMBERS_BUGGY_BODY,
    LOAD_NUMBERS_FIXED_BODY,
    MEAN_DEVIATION_BUGGY_BODY,
    MEAN_DEVIATION_FIXED_BODY,
    TRAIN_RNFOREST_BODY,
    DemoSetup,
    demo_server,
    find_best_classifier_create_sql,
    load_numbers_create_sql,
    mean_deviation_create_sql,
    setup_classifier_database,
    setup_mixed_catalog,
    setup_numbers_database,
    train_rnforest_create_sql,
)

__all__ = [
    "CSVWorkload",
    "DemoSetup",
    "EXTRA_UDFS_SQL",
    "FIND_BEST_CLASSIFIER_BODY",
    "LOAD_NUMBERS_BUGGY_BODY",
    "LOAD_NUMBERS_FIXED_BODY",
    "MEAN_DEVIATION_BUGGY_BODY",
    "MEAN_DEVIATION_FIXED_BODY",
    "ScenarioA",
    "ScenarioB",
    "TRAIN_RNFOREST_BODY",
    "demo_server",
    "find_best_classifier_create_sql",
    "generate_csv_directory",
    "load_numbers_create_sql",
    "make_scenario_a",
    "make_scenario_b",
    "mean_deviation_create_sql",
    "setup_classifier_database",
    "setup_mixed_catalog",
    "setup_numbers_database",
    "train_rnforest_create_sql",
]

"""Data substrate: attribute schemas, datasets and synthetic generators."""

from repro.data.agrawal import (
    AgrawalGenerator,
    DriftPoint,
    agrawal_schema,
    class_balance_report,
    generate_function_dataset,
)
from repro.data.dataset import Dataset
from repro.data.io import (
    infer_schema,
    iter_csv_records,
    iter_jsonl_records,
    load_csv,
    load_csv_with_inferred_schema,
    save_csv,
    write_csv,
    write_jsonl,
)
from repro.data.functions import (
    BATCH_FUNCTIONS,
    EVALUATED_FUNCTIONS,
    FUNCTIONS,
    GROUND_TRUTH_RULES,
    RELEVANT_ATTRIBUTES,
    SKEWED_FUNCTIONS,
    get_batch_function,
    get_function,
    ground_truth_label,
    label_batch,
)
from repro.data.schema import (
    CategoricalAttribute,
    ContinuousAttribute,
    Schema,
    make_schema,
)
from repro.data.synthetic import (
    binary_schema,
    boolean_function_dataset,
    wide_binary_dataset,
    xor_dataset,
)

__all__ = [
    "AgrawalGenerator",
    "BATCH_FUNCTIONS",
    "CategoricalAttribute",
    "ContinuousAttribute",
    "Dataset",
    "DriftPoint",
    "EVALUATED_FUNCTIONS",
    "FUNCTIONS",
    "GROUND_TRUTH_RULES",
    "RELEVANT_ATTRIBUTES",
    "SKEWED_FUNCTIONS",
    "Schema",
    "agrawal_schema",
    "binary_schema",
    "boolean_function_dataset",
    "class_balance_report",
    "generate_function_dataset",
    "get_batch_function",
    "get_function",
    "ground_truth_label",
    "infer_schema",
    "iter_csv_records",
    "iter_jsonl_records",
    "label_batch",
    "load_csv",
    "load_csv_with_inferred_schema",
    "make_schema",
    "save_csv",
    "write_csv",
    "write_jsonl",
    "wide_binary_dataset",
    "xor_dataset",
]

"""The paper's three evaluation workloads and the scaled datasets they run on.

``benchmarks/paper_tables.py`` runs them under the paper's configurations.
"""

from . import fraud, labelled_subgraph, magicrecs
from .datasets import (
    DATASETS,
    DatasetSpec,
    clear_cache,
    dataset_names,
    financial_dataset,
    labelled_dataset,
    social_dataset,
    table1_rows,
)

__all__ = [
    "DATASETS",
    "DatasetSpec",
    "clear_cache",
    "dataset_names",
    "financial_dataset",
    "fraud",
    "labelled_dataset",
    "labelled_subgraph",
    "magicrecs",
    "social_dataset",
    "table1_rows",
]

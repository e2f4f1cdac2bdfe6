"""Ray Data stages: the fused row-validate+sketch stage and the sorted-run
group checker of the sort-based wide stage."""

from .rowstage import RowValidateAndSketch, COMBINED_SCHEMA, split_combined
from .groupcheck import (
    RUN_BOUNDARY_SCHEMA,
    SortedRunChecker,
    merge_run_boundaries,
)

__all__ = [
    "RowValidateAndSketch",
    "COMBINED_SCHEMA",
    "split_combined",
    "RUN_BOUNDARY_SCHEMA",
    "SortedRunChecker",
    "merge_run_boundaries",
]

"""Ray Data stages: the fused row-validate+sketch stage (with its one-pass
group check) and the sorted-run group checker it shares with the fallback
keyed group check."""

from .rowstage import (RowValidateAndSketch, COMBINED_SCHEMA, split_combined,
                       split_group_check)
from .groupcheck import (
    RUN_BOUNDARY_SCHEMA,
    SortedRunChecker,
    local_group_check,
    merge_run_boundaries,
    split_overlapping_runs,
)

__all__ = [
    "RowValidateAndSketch",
    "COMBINED_SCHEMA",
    "split_combined",
    "split_group_check",
    "RUN_BOUNDARY_SCHEMA",
    "SortedRunChecker",
    "local_group_check",
    "merge_run_boundaries",
    "split_overlapping_runs",
]

"""Invalid arguments raise ValueError naming the bad value, also under
``python -O`` (which strips ``assert`` statements)."""

import os
import subprocess
import sys

import pyarrow as pa
import pytest

from jsonschema_validator_ray.constraints.kernels import make_row_validator
from jsonschema_validator_ray.ops.aggregates import grouped_aggregate
from jsonschema_validator_ray.ops.index import term_search
from jsonschema_validator_ray.ops.join import (asof_join,
                                               interval_overlap_join,
                                               range_agg_join,
                                               reduce_side_hash_join)
from jsonschema_validator_ray.state.bloom import BloomFilter
from jsonschema_validator_ray.state.hll import HyperLogLog

CASES = {
    "asof_join_reserved": (lambda: asof_join(
        None, None, on="k", right_on="k", left_ts="t", right_ts="t",
        left_schema=pa.schema([("k", pa.int64()), ("_ts", pa.int64())]),
        right_ts_type=pa.int64()), r"\['_ts'\]"),
    "range_agg_join_reserved": (lambda: range_agg_join(
        None, None, on="k", point_on="k", start="a", end="b", point_ts="t",
        range_schema=pa.schema([("_pv", pa.int64()), ("_k", pa.int64())])),
        r"\['_k', '_pv'\]"),
    "interval_overlap_join_reserved": (lambda: interval_overlap_join(
        None, None, on="k", a_start="s", a_end="e", b_start="s", b_end="e",
        a_schema=pa.schema([("_s", pa.int64())])), r"\['_s'\]"),
    "reduce_side_hash_join_reserved": (lambda: reduce_side_hash_join(
        None, None, "k",
        left_schema=pa.schema([("k", pa.int64()), ("_side", pa.int64())]),
        right_schema=pa.schema([("k", pa.int64()), ("v", pa.int64())])),
        r"\['_side'\]"),
    "term_search_mode": (lambda: term_search(None, ["a"], mode="xor"),
                         "'xor'"),
    "row_validator_mode": (lambda: make_row_validator(None, mode="fast"),
                           "'fast'"),
    "hll_merge_precision": (lambda: HyperLogLog(12).merge(HyperLogLog(10)),
                            "10 != 12"),
    "bloom_size": (lambda: BloomFilter(m_bits=12), "12"),
    "bloom_merge": (lambda: BloomFilter(64, k=3).merge(BloomFilter(64, k=5)),
                    r"\(64, 5\) != \(64, 3\)"),
    "grouped_aggregate_kind": (lambda: grouped_aggregate(
        None, ["k"], [("v", "median", "m")]), "'median'"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_invalid_argument_raises_value_error(name):
    call, match = CASES[name]
    with pytest.raises(ValueError, match=match):
        call()


def test_invalid_arguments_raise_under_python_O():
    """The same checks hold with assertions stripped."""
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script = (
        "import sys\n"
        f"sys.path.insert(0, {repo!r})\n"
        f"sys.path.insert(0, {os.path.dirname(os.path.abspath(__file__))!r})\n"
        "assert False, 'assertions are on'\n"
        "from test_typed_errors import CASES\n"
        "for name, (call, _) in sorted(CASES.items()):\n"
        "    try:\n"
        "        call()\n"
        "    except ValueError:\n"
        "        print('raised', name)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert proc.stdout.split("\n")[:-1] == \
        [f"raised {name}" for name in sorted(CASES)]

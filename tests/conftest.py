"""Shared pytest fixtures. Ray is initialised ONCE per session."""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="session")
def ray_session():
    import ray

    # workers must be able to import the package (PYTHONPATH propagates to them)
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.environ["PYTHONPATH"] = repo + os.pathsep + os.environ.get("PYTHONPATH", "")
    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    from jsonschema_validator_ray.rayutil import \
        quiet_empty_partition_warnings

    quiet_empty_partition_warnings()
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture
def one_bucket(monkeypatch):
    """Every keyed hash-bucket shuffle (``rayutil.bucket_groups``) uses ONE
    bucket, so all groups meet in the same in-bucket pass."""
    from jsonschema_validator_ray import rayutil

    monkeypatch.setattr(rayutil, "default_buckets", lambda: 1)


@pytest.fixture(scope="session")
def sf_dir():
    return os.environ.get("GRAFT_TEST_SF_DIR", "/root/testdata/sf0.001")

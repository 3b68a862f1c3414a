"""Shared fixtures for the test suite.

Fixtures build *small* versions of the paper's queries/workloads so the full
suite stays fast; the benchmarks exercise the full-size configurations.
"""

from __future__ import annotations

import glob
import os
import sys

import pytest

# Allow running the tests without installing the package (e.g. straight from
# a source checkout) by putting ``src`` on the path.  ``tools`` carries the
# repo's static-analysis tooling (simlint) exercised by its own tests.
_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")
_TOOLS = os.path.join(_ROOT, "tools")
for _path in (_SRC, _TOOLS):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from repro.analysis.experiments import QuerySetup, make_setup  # noqa: E402
from repro.config import JarvisConfig  # noqa: E402
from repro.query.builder import s2s_probe_query  # noqa: E402
from repro.workloads.pingmesh import PingmeshConfig, PingmeshWorkload, s2s_cost_model  # noqa: E402


SMALL_RECORDS_PER_EPOCH = 200


@pytest.fixture(scope="session", autouse=True)
def shm_leak_tripwire():
    """Fail the session if a worker-pool shm segment outlives it.

    ``ParallelBlockController`` names its arena segments
    ``repro_par_<creating pid>_<n>`` and must unlink every one on close,
    error paths included; a survivor under ``/dev/shm`` is a leak.
    """
    yield
    if not os.path.isdir("/dev/shm"):
        return
    leaked = sorted(glob.glob(f"/dev/shm/repro_par_{os.getpid()}_*"))
    if leaked:
        pytest.fail(f"shared-memory segments leaked by the test session: {leaked}")


@pytest.fixture(scope="session")
def s2s_setup() -> QuerySetup:
    """A small S2SProbe setup shared by integration-style tests."""
    return make_setup("s2s_probe", records_per_epoch=SMALL_RECORDS_PER_EPOCH)


@pytest.fixture(scope="session")
def t2t_setup() -> QuerySetup:
    """A small T2TProbe setup shared by integration-style tests."""
    return make_setup("t2t_probe", records_per_epoch=SMALL_RECORDS_PER_EPOCH)


@pytest.fixture(scope="session")
def log_setup() -> QuerySetup:
    """A small LogAnalytics setup shared by integration-style tests."""
    return make_setup("log_analytics", records_per_epoch=SMALL_RECORDS_PER_EPOCH)


@pytest.fixture()
def config() -> JarvisConfig:
    """A default configuration instance (fresh per test)."""
    return JarvisConfig()


@pytest.fixture()
def small_pingmesh() -> PingmeshWorkload:
    """A deterministic, small Pingmesh workload."""
    return PingmeshWorkload(PingmeshConfig(records_per_epoch=100, peers=500, seed=7))


@pytest.fixture()
def s2s_query():
    """A fresh S2SProbe query object."""
    return s2s_probe_query()


@pytest.fixture()
def s2s_costs():
    """Cost model calibrated for the small S2SProbe workload."""
    return s2s_cost_model(reference_records_per_second=100)

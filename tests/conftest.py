"""Shared test configuration: seed counts for the property-test layer.

The seeded property tests in ``test_properties.py`` parametrize over a
``*_seed`` fixture.  By default (CI per-commit runs and local ``pytest``)
they run a reduced seed set via ``--quick``-style counts; the nightly CI
job and ``pytest --full-seeds`` run the full 200-seed sweep the issue
specifies.
"""

from __future__ import annotations

import pytest

#: (fixture name, quick count, full count).  Plan-validity checks are
#: cheap, so they carry the bulk of the 200-seed budget; machine-level
#: and cluster-level sweeps instantiate simulators per seed and run
#: fewer, deeper cases.
SEED_FIXTURES = {
    "property_seed": (20, 200),
    "bandwidth_seed": (5, 30),
    "cluster_seed": (3, 15),
    # Differential check of the incremental fair-share allocator against
    # the from-scratch reference fill (test_fastpath_differential.py).
    "flow_seed": (30, 200),
    # Conservation under mixed machine/GPU/link fault schedules (the
    # issue's 200-seed device-fault sweep; full count nightly).
    "device_fault_seed": (3, 200),
    # Byte-conservation property of the flow engine under random
    # contended schedules (test_audit_invariants.py; full count nightly).
    "conservation_seed": (20, 200),
    # Sharded replay vs the single-process differential oracle
    # (test_shard_replay.py / test_shard_determinism.py; the issue's
    # 200-seed sharded-vs-reference sweep runs nightly).
    "shard_seed": (2, 200),
    # Crash-injected process replays vs the crash-free oracle
    # (test_shard_chaos.py; each seed spawns, kills and respawns real
    # worker processes, so the quick subset stays small).
    "chaos_seed": (2, 200),
    # Router vs epoch-broker load views into the one routing policy
    # (test_routing_equivalence.py; full count nightly).
    "routing_seed": (25, 200),
    # LoadGen's open loop vs Cluster.run over drawn fleets, policies and
    # deadlines: the one request driver behind both (test_loadgen.py;
    # full count nightly).
    "driver_seed": (3, 200),
}


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--full-seeds", action="store_true", default=False,
        help="run the property-based tests over the full seed sweep "
             "(nightly CI); the default is the quick subset")
    parser.addoption(
        "--quick", action="store_true", default=False,
        help="explicitly request the quick seed subset (the default; "
             "provided so CI invocations are self-documenting)")


def pytest_generate_tests(metafunc: pytest.Metafunc) -> None:
    full = metafunc.config.getoption("--full-seeds")
    if full and metafunc.config.getoption("--quick"):
        raise pytest.UsageError("--quick and --full-seeds are exclusive")
    for fixture, (quick_count, full_count) in SEED_FIXTURES.items():
        if fixture in metafunc.fixturenames:
            count = full_count if full else quick_count
            metafunc.parametrize(fixture, range(count))

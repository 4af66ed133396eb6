import gc
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from upgradesim.errors import EvacuationInfeasibleError, InvalidRequestError
from upgradesim.metrics import per_vm_outage_totals
from upgradesim.planner import TimingConstants
from upgradesim.rolling import RollingBaselineConfig, run_rolling_baseline
from upgradesim.scenario import build_cluster, build_timing

from conftest import rerun_logs, toy_scenario


def empty_cluster(hosts=10):
    return build_cluster(toy_scenario(host_count=hosts))


class TestDurations:
    def test_ten_empty_hosts_batch_one_is_410s(self):
        result = run_rolling_baseline(
            empty_cluster(10),
            RollingBaselineConfig(batch_size=1, order_policy="fixed-order"),
            TimingConstants(),
        )
        assert result.average_duration_s == 410.0
        assert result.average_evacuation_rounds == 0

    def test_scenario_a_batch_one_is_548s(self, scenario_a):
        cluster = build_cluster(scenario_a)
        result = run_rolling_baseline(
            cluster,
            RollingBaselineConfig(batch_size=1, order_policy="sample-n", seed=3, sample_count=40),
            build_timing(scenario_a),
        )
        assert result.average_duration_s == 548.0
        assert result.average_evacuation_rounds == 6.0

    def test_batch_size_shortens_upgrades(self):
        durations = []
        for batch in (1, 2, 5):
            result = run_rolling_baseline(
                empty_cluster(10),
                RollingBaselineConfig(batch_size=batch, order_policy="fixed-order"),
                TimingConstants(),
            )
            durations.append(result.average_duration_s)
        assert durations == sorted(durations, reverse=True)
        assert durations[-1] == 2 * 41.0


class TestOrderPolicies:
    def test_enumerate_all_small_cluster(self):
        result = run_rolling_baseline(
            empty_cluster(3),
            RollingBaselineConfig(batch_size=1, order_policy="enumerate-all"),
            TimingConstants(),
        )
        assert len(result.runs) == 6  # 3! orderings

    def test_auto_switches_to_sampling(self):
        result = run_rolling_baseline(
            empty_cluster(10),
            RollingBaselineConfig(batch_size=2, order_policy="auto", seed=1, sample_count=25),
            TimingConstants(),
        )
        assert len(result.runs) == 25

    def test_sampling_is_seeded(self):
        def orderings(seed):
            result = run_rolling_baseline(
                empty_cluster(10),
                RollingBaselineConfig(batch_size=1, order_policy="sample-n", seed=seed, sample_count=5),
                TimingConstants(),
            )
            return [r.ordering for r in result.runs]

        assert orderings(9) == orderings(9)
        assert orderings(9) != orderings(10)

    def test_unknown_policy_rejected(self):
        with pytest.raises(InvalidRequestError):
            run_rolling_baseline(
                empty_cluster(2),
                RollingBaselineConfig(batch_size=1, order_policy="bogus"),
                TimingConstants(),
            )


def test_batch_below_one_rejected():
    with pytest.raises(InvalidRequestError):
        run_rolling_baseline(
            empty_cluster(2), RollingBaselineConfig(batch_size=0), TimingConstants()
        )


def test_infeasible_evacuation_flagged():
    # a whole-cluster batch leaves nowhere to evacuate
    tenants = [
        {"id": "T1", "min_vms": 1, "max_vms": 2, "scaling_adjustment": 1,
         "cooldown_seconds": 600, "vms": [{"id": "T1.1", "host": "h1"}]},
    ]
    cluster = build_cluster(toy_scenario(host_count=2, tenants=tenants))
    with pytest.raises(EvacuationInfeasibleError):
        run_rolling_baseline(
            cluster,
            RollingBaselineConfig(batch_size=2, order_policy="fixed-order"),
            TimingConstants(),
        )


def test_per_vm_outage_reflects_migration_count(scenario_a):
    cluster = build_cluster(scenario_a)
    timing = build_timing(scenario_a)
    result = run_rolling_baseline(
        cluster,
        RollingBaselineConfig(batch_size=1, order_policy="sample-n", seed=5, sample_count=30),
        timing,
    )
    for _, log in rerun_logs(cluster, result, timing):
        totals = per_vm_outage_totals(log)
        assert set(totals.values()) <= {600, 1_200, 1_800}


@settings(max_examples=20, deadline=None)
@given(batch=st.integers(1, 5), seed=st.integers(0, 100))
def test_duration_formula_holds(batch, seed):
    # total = ceil(hosts/batch) * upgrade + rounds * migration for every run
    cluster = empty_cluster(6)
    result = run_rolling_baseline(
        cluster,
        RollingBaselineConfig(batch_size=batch, order_policy="sample-n", seed=seed, sample_count=3),
        TimingConstants(),
    )
    batches = -(-6 // batch)
    for run in result.runs:
        assert run.duration_ms == batches * 41_000 + run.evacuation_rounds * 23_000


@pytest.mark.parametrize(
    "fixture, orderings, limit_mb",
    [("scenario_a", 200, 0.5), ("scenario_burst", 720, 1.0)],
)
def test_baseline_keeps_no_event_logs(request, fixture, orderings, limit_mb):
    # measured with the result alive: the runs keep their summaries and
    # penalty reports (about 1 kB each), not the records each ordering logged
    scenario = request.getfixturevalue(fixture)
    cluster = build_cluster(scenario)
    timing = build_timing(scenario)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = run_rolling_baseline(cluster, RollingBaselineConfig(batch_size=1), timing)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(result.runs) == orderings
    assert held < limit_mb * 1e6, f"{held / 1e6:.2f} MB held"


@pytest.mark.parametrize("hosts, runs", [(6, 720), (7, 25)])
def test_auto_enumerates_up_to_720_orderings(hosts, runs):
    # 6! = 720 orderings are enumerated; 7! = 5,040 are sampled
    result = run_rolling_baseline(
        empty_cluster(hosts),
        RollingBaselineConfig(batch_size=3, order_policy="auto", sample_count=25),
        TimingConstants(),
    )
    assert len(result.runs) == runs

"""Unit tests for the synthetic workload generators and trace utilities."""

from __future__ import annotations

import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.query.records import LogRecord, PingmeshRecord
from repro.workloads.dynamics import BurstSpec, WorkloadBurst
from repro.workloads.loganalytics import LogAnalyticsConfig, LogAnalyticsWorkload
from repro.workloads.pingmesh import PingmeshConfig, PingmeshWorkload
from repro.workloads.traces import (
    Trace,
    per_pair_latency_ranges,
    pingmesh_trace_stats,
    rate_variability_across_sources,
    record_trace,
    replay_trace,
)


class TestPingmeshConfig:
    def test_validation(self):
        with pytest.raises(WorkloadError):
            PingmeshConfig(records_per_epoch=0)
        with pytest.raises(WorkloadError):
            PingmeshConfig(peers=0)
        with pytest.raises(WorkloadError):
            PingmeshConfig(error_rate=1.5)
        with pytest.raises(WorkloadError):
            PingmeshConfig(anomaly_peer_fraction=-0.1)

    @pytest.mark.parametrize(
        "field, value",
        [("records_per_epoch", 2.5), ("records_per_epoch", True), ("peers", True)],
    )
    def test_non_integer_counts_rejected(self, field, value):
        with pytest.raises(WorkloadError, match=field):
            PingmeshConfig(**{field: value})

    def test_numpy_integer_counts_accepted(self):
        cfg = PingmeshConfig(records_per_epoch=np.int64(40), peers=np.int32(30))
        assert type(cfg.records_per_epoch) is int and type(cfg.peers) is int
        assert len(PingmeshWorkload(cfg).batch_for_epoch(0)) == 40

    def test_scaled_config(self):
        cfg = PingmeshConfig(records_per_epoch=1000, peers=5000)
        half = cfg.scaled(0.5)
        assert half.records_per_epoch == 500
        assert half.peers == 2500
        with pytest.raises(WorkloadError):
            cfg.scaled(0.0)


class TestPingmeshWorkload:
    def make(self, **kwargs):
        defaults = dict(records_per_epoch=500, peers=1000, seed=5)
        defaults.update(kwargs)
        return PingmeshWorkload(PingmeshConfig(**defaults))

    def test_record_count_and_type(self):
        workload = self.make()
        records = workload.records_for_epoch(0)
        assert len(records) == 500
        assert all(isinstance(r, PingmeshRecord) for r in records)

    def test_error_rate_close_to_configuration(self):
        workload = self.make(records_per_epoch=2000, error_rate=0.14)
        records = workload.records_for_epoch(0)
        observed = sum(1 for r in records if r.err_code != 0) / len(records)
        assert observed == pytest.approx(0.14, abs=0.03)

    def test_event_times_are_monotone_within_epoch(self):
        records = self.make().records_for_epoch(3)
        times = [r.event_time for r in records]
        assert times == sorted(times)
        assert 3.0 <= times[0] < 4.0

    def test_deterministic_for_same_seed(self):
        a = self.make(seed=9).records_for_epoch(0)
        b = self.make(seed=9).records_for_epoch(0)
        assert [r.as_dict() for r in a] == [r.as_dict() for r in b]

    def test_different_seeds_differ(self):
        a = self.make(seed=1).records_for_epoch(0)
        b = self.make(seed=2).records_for_epoch(0)
        assert [r.rtt_us for r in a] != [r.rtt_us for r in b]

    def test_anomalous_peers_show_high_latency(self):
        workload = self.make(
            records_per_epoch=2000,
            anomaly_peer_fraction=0.05,
            anomaly_probability=1.0,
        )
        records = [r for epoch in range(5) for r in workload.records_for_epoch(epoch)]
        anomalous = [r for r in records if r.dst_ip in workload.anomalous_peers]
        normal = [r for r in records if r.dst_ip not in workload.anomalous_peers]
        assert anomalous, "some probes must hit anomalous peers"
        assert max(r.rtt_ms for r in anomalous) >= 5.0
        assert max(r.rtt_ms for r in normal) < 5.0

    def test_input_rate_estimate(self):
        workload = self.make(records_per_epoch=1000)
        assert workload.input_rate_mbps == pytest.approx(1000 * 86 * 8 / 1e6)

    def test_tor_table_covers_all_destinations(self):
        workload = self.make(peers=200)
        table = workload.tor_table(servers_per_tor=20)
        records = workload.records_for_epoch(0)
        assert all(table.lookup(r.dst_ip) is not None for r in records)

    def test_key_cardinality_bounded_by_peers(self):
        workload = self.make(records_per_epoch=3000, peers=100)
        records = workload.records_for_epoch(0)
        pairs = {(r.src_ip, r.dst_ip) for r in records}
        assert len(pairs) <= 100


class TestLogAnalyticsWorkload:
    def make(self, **kwargs):
        defaults = dict(lines_per_epoch=500, tenants=20, seed=5)
        defaults.update(kwargs)
        return LogAnalyticsWorkload(LogAnalyticsConfig(**defaults))

    def test_validation(self):
        with pytest.raises(WorkloadError):
            LogAnalyticsConfig(lines_per_epoch=0)
        with pytest.raises(WorkloadError):
            LogAnalyticsConfig(tenants=0)
        with pytest.raises(WorkloadError):
            LogAnalyticsConfig(noise_fraction=2.0)

    @pytest.mark.parametrize(
        "field, value",
        [("lines_per_epoch", 2.5), ("tenants", 2.5), ("tenants", True)],
    )
    def test_non_integer_counts_rejected(self, field, value):
        with pytest.raises(WorkloadError, match=field):
            LogAnalyticsConfig(**{field: value})

    def test_numpy_integer_counts_accepted(self):
        cfg = LogAnalyticsConfig(lines_per_epoch=np.int64(40), tenants=np.int16(7))
        assert type(cfg.lines_per_epoch) is int and type(cfg.tenants) is int
        assert len(LogAnalyticsWorkload(cfg).batch_for_epoch(0)) == 40

    def test_record_count_and_type(self):
        records = self.make().records_for_epoch(0)
        assert len(records) == 500
        assert all(isinstance(r, LogRecord) for r in records)

    def test_noise_fraction_roughly_respected(self):
        workload = self.make(lines_per_epoch=2000, noise_fraction=0.2)
        records = workload.records_for_epoch(0)
        noise = sum(1 for r in records if "tenant name" not in r.line.lower())
        assert noise / len(records) == pytest.approx(0.2, abs=0.05)

    def test_lines_are_parseable_by_the_query(self):
        from repro.query.builder import log_analytics_query

        query = log_analytics_query()
        records = self.make(lines_per_epoch=1000, noise_fraction=0.0,
                            malformed_fraction=0.0).records_for_epoch(0)
        current = records
        for op in query.operators[:-1]:
            current = op.process(current)
        assert len(current) >= 0.95 * len(records)

    def test_scaled_config(self):
        cfg = LogAnalyticsConfig(lines_per_epoch=1000)
        assert cfg.scaled(0.1).lines_per_epoch == 100


_STAT_NAMES = ("job running time", "cpu util", "memory util")


class _StdlibLogLines:
    """Reference log-line generator written with the stdlib's public draws.

    ``line`` uses ``randint``/``choice``/``uniform``/``round`` and f-strings
    exactly as the stream contract in ``LogAnalyticsWorkload`` states; the
    workload must reproduce its lines and its generator state exactly.
    """

    def __init__(self, config):
        self.config = config
        self._rng = random.Random(config.seed)

    def line(self) -> str:
        cfg = self.config
        if self._rng.random() < cfg.noise_fraction:
            return (
                f"INFO scheduler heartbeat node={self._rng.randint(0, 999):03d} "
                f"queue_depth={self._rng.randint(0, 64)} status=ok padding=xxxxxxxxxx"
            )
        tenant = f"tenant_{self._rng.randint(0, cfg.tenants - 1):03d}"
        stat_name = self._rng.choice(_STAT_NAMES)
        value = round(self._rng.uniform(0.0, 100.0), 2)
        if self._rng.random() < cfg.malformed_fraction:
            # Missing the value field: the parse Map drops these lines.
            return f"Tenant Name={tenant}; {stat_name}"
        return (
            f"Tenant Name={tenant}; job_id=j{self._rng.randint(0, 99999):05d}; "
            f"cluster=cosmos-east; {stat_name}={value}"
        )


class _ScriptedRandom(random.Random):
    """A seeded generator whose ``random()`` replays a script of floats."""

    # Defining getrandbits here keeps the stdlib's randrange on
    # getrandbits; a subclass defining only random() would switch it to
    # random() draws.
    getrandbits = random.Random.getrandbits

    def __init__(self, script):
        super().__init__(0)
        self._script = iter(script)

    def random(self):
        return next(self._script)


_fractions = st.one_of(
    st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0)
)


class TestLogLineStream:
    """The generated log stream is pinned draw for draw to the stdlib one."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        tenants=st.one_of(
            st.sampled_from([1, 2, 63, 64, 65, 1000, 1024]),
            st.integers(min_value=1, max_value=1500),
        ),
        noise_fraction=_fractions,
        malformed_fraction=_fractions,
        lines_per_epoch=st.integers(min_value=1, max_value=300),
    )
    def test_matches_stdlib_generator(
        self, seed, tenants, noise_fraction, malformed_fraction, lines_per_epoch
    ):
        cfg = LogAnalyticsConfig(
            lines_per_epoch=lines_per_epoch,
            tenants=tenants,
            noise_fraction=noise_fraction,
            malformed_fraction=malformed_fraction,
            seed=seed,
        )
        workload = LogAnalyticsWorkload(cfg)
        oracle = _StdlibLogLines(cfg)
        for epoch in range(3):
            batch = workload.batch_for_epoch(epoch)
            expected = [oracle.line() for _ in range(lines_per_epoch)]
            assert list(batch.columns["line"]) == expected
            assert list(batch.sizes) == [max(1, len(line)) for line in expected]
            assert np.array_equal(
                batch.columns["event_time"],
                float(epoch) + np.arange(lines_per_epoch) / lines_per_epoch,
            )
            assert workload._rng.getstate() == oracle._rng.getstate()

    def test_fixed_digest(self):
        workload = LogAnalyticsWorkload(LogAnalyticsConfig(lines_per_epoch=1250, seed=1))
        digest = hashlib.sha256()
        for epoch in range(3):
            for line in workload.batch_for_epoch(epoch).columns["line"]:
                digest.update((line + "\n").encode())
        assert digest.hexdigest() == (
            "d004413254b1f34e08644f37e357bcb6f98a6c592c04138fc3c5691bfcc2bd74"
        )

    def test_value_formatting_at_rounding_ties(self):
        # Every two-decimal tie k/200, one ulp either side, 0.0 and 100.0.
        targets = [0.0, 100.0]
        for k in range(20001):
            tie = k / 200
            targets += [math.nextafter(tie, -1.0), tie, math.nextafter(tie, 200.0)]
        # The value is 100.0 * random(); feed random() the draws nearest to
        # each target.  A line's random() calls are: noise, value, malformed.
        draws = []
        for target in targets:
            u = target / 100.0
            draws += [math.nextafter(u, -1.0), u, math.nextafter(u, 2.0)]
        # random() never returns -0.0; 1.0 stands in for the top of its range.
        draws = [0.0] + [u for u in draws if 0.0 < u <= 1.0]
        cfg = LogAnalyticsConfig(
            lines_per_epoch=len(draws), noise_fraction=0.0, malformed_fraction=0.0
        )
        workload = LogAnalyticsWorkload(cfg)
        workload._rng = _ScriptedRandom(x for u in draws for x in (0.5, u, 0.5))
        lines = workload.batch_for_epoch(0).columns["line"]
        values = [100.0 * u for u in draws]
        assert {0.0, 100.0, 0.125, 50.005} <= set(values)
        assert [line.rsplit("=", 1)[1] for line in lines] == [
            repr(round(value, 2)) for value in values
        ]


class TestWorkloadBurst:
    def test_burst_multiplies_record_count(self):
        base = PingmeshWorkload(PingmeshConfig(records_per_epoch=100, peers=200, seed=1))
        bursty = WorkloadBurst(base, [BurstSpec(5, 8, 3.0)])
        assert len(bursty.records_for_epoch(0)) == 100
        assert len(bursty.records_for_epoch(5)) == 300
        assert len(bursty.records_for_epoch(8)) == 100

    def test_fractional_multiplier(self):
        base = PingmeshWorkload(PingmeshConfig(records_per_epoch=100, peers=200, seed=1))
        bursty = WorkloadBurst(base)
        bursty.add_burst(0, 2, 1.5)
        assert len(bursty.records_for_epoch(0)) == 150

    def test_burst_validation(self):
        with pytest.raises(WorkloadError):
            BurstSpec(5, 5, 2.0)
        with pytest.raises(WorkloadError):
            BurstSpec(0, 5, 0.0)

    def test_exposes_base_rate(self):
        base = PingmeshWorkload(PingmeshConfig(records_per_epoch=100, peers=200))
        assert WorkloadBurst(base).input_rate_mbps == base.input_rate_mbps


class TestTraces:
    def test_record_and_replay_round_trip(self):
        workload = PingmeshWorkload(PingmeshConfig(records_per_epoch=50, peers=100, seed=2))
        trace = record_trace(workload, num_epochs=4)
        assert len(trace) == 4
        assert trace.total_records() == 200
        replay = replay_trace(trace)
        assert [r.as_dict() for r in replay.records_for_epoch(2)] == [
            r.as_dict() for r in trace.epochs[2]
        ]
        assert replay.records_for_epoch(10) == []

    def test_replay_loop(self):
        workload = PingmeshWorkload(PingmeshConfig(records_per_epoch=10, peers=20, seed=2))
        trace = record_trace(workload, num_epochs=2)
        replay = replay_trace(trace, loop=True)
        assert len(replay.records_for_epoch(5)) == 10

    def test_empty_trace_cannot_be_replayed(self):
        with pytest.raises(WorkloadError):
            replay_trace(Trace())

    def test_record_trace_validation(self):
        workload = PingmeshWorkload(PingmeshConfig(records_per_epoch=10, peers=20))
        with pytest.raises(WorkloadError):
            record_trace(workload, num_epochs=0)

    def test_pingmesh_trace_stats(self):
        workload = PingmeshWorkload(
            PingmeshConfig(records_per_epoch=500, peers=500, error_rate=0.14, seed=3)
        )
        trace = record_trace(workload, num_epochs=5)
        stats = pingmesh_trace_stats(trace)
        assert stats.total_records == 2500
        assert stats.error_rate == pytest.approx(0.14, abs=0.04)
        assert stats.distinct_pairs <= 500
        assert stats.mean_rate_mbps > 0
        assert 0.0 <= stats.high_latency_fraction < 0.2

    def test_trace_stats_require_pingmesh_records(self):
        trace = Trace()
        trace.append_epoch([LogRecord(0.0, "hello")])
        with pytest.raises(WorkloadError):
            pingmesh_trace_stats(trace)

    def test_per_pair_latency_ranges_skip_error_records(self):
        records = [
            PingmeshRecord(0.0, 1, 2, 1000.0, err_code=0),
            PingmeshRecord(0.0, 1, 2, 9000.0, err_code=0),
            PingmeshRecord(0.0, 1, 2, 99000.0, err_code=1),
        ]
        ranges = per_pair_latency_ranges(records)
        assert ranges[(1, 2)] == (1.0, 9.0)

    def test_rate_variability_matches_paper_style_summary(self):
        rates = [100, 40, 45, 30, 100, 20]
        summary = rate_variability_across_sources(rates)
        assert summary["fraction_at_or_below_half_peak"] == pytest.approx(4 / 6)
        assert summary["peak_rate"] == 100

    def test_rate_variability_validation(self):
        with pytest.raises(WorkloadError):
            rate_variability_across_sources([])
        with pytest.raises(WorkloadError):
            rate_variability_across_sources([0, 0])

"""Unit tests for record types and byte/rate conversion helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, JarvisError, SimulationError
from repro.query.records import (
    AggregateRecord,
    RecordBatch,
    EnrichedPingmeshRecord,
    IpToTorTable,
    JobStatsRecord,
    LogRecord,
    PingmeshRecord,
    Record,
    PINGMESH_RECORD_BYTES,
    bytes_to_mbps,
    make_log_record,
    make_probe_record,
    half_up,
    mbps_to_bytes,
    record_size_bytes,
    records_per_second,
)


class TestPingmeshRecord:
    def test_size_matches_paper(self):
        record = PingmeshRecord(0.0, 1, 2, 500.0)
        assert record.size_bytes == PINGMESH_RECORD_BYTES == 86

    def test_rtt_conversion_to_ms(self):
        record = PingmeshRecord(0.0, 1, 2, rtt_us=2500.0)
        assert record.rtt_ms == pytest.approx(2.5)

    def test_key_is_server_pair(self):
        record = PingmeshRecord(0.0, 10, 20, 100.0)
        assert record.key() == (10, 20)

    def test_as_dict_round_trip(self):
        record = PingmeshRecord(1.5, 1, 2, 300.0, err_code=1, src_cluster=3, dst_cluster=4)
        data = record.as_dict()
        assert data["event_time"] == 1.5
        assert data["err_code"] == 1
        assert data["src_cluster"] == 3
        assert data["dst_cluster"] == 4

    def test_fields_coerced_to_expected_types(self):
        record = PingmeshRecord(0, "1", "2", "10.5", err_code="0")  # type: ignore[arg-type]
        assert isinstance(record.src_ip, int)
        assert isinstance(record.rtt_us, float)
        assert isinstance(record.err_code, int)


class TestEnrichedPingmeshRecord:
    def test_key_is_tor_pair(self):
        record = EnrichedPingmeshRecord(0.0, 1, 2, 100.0, src_tor=5, dst_tor=9)
        assert record.key() == (5, 9)

    def test_projection_shrinks_record(self):
        raw = PingmeshRecord(0.0, 1, 2, 100.0)
        enriched = EnrichedPingmeshRecord(0.0, 1, 2, 100.0, 5, 9)
        assert enriched.size_bytes < raw.size_bytes

    def test_as_dict_includes_tor_fields(self):
        record = EnrichedPingmeshRecord(0.0, 1, 2, 100.0, 5, 9)
        data = record.as_dict()
        assert data["src_tor"] == 5
        assert data["dst_tor"] == 9


class TestLogAndJobStatsRecords:
    def test_log_record_size_tracks_line_length(self):
        record = LogRecord(0.0, "x" * 120)
        assert record.size_bytes == 120

    def test_empty_log_record_has_minimum_size(self):
        assert LogRecord(0.0, "").size_bytes == 1

    def test_job_stats_key(self):
        record = JobStatsRecord(0.0, "tenant_a", "cpu util", 55.0)
        assert record.key() == ("tenant_a", "cpu util", 55.0)

    def test_job_stats_smaller_than_typical_log_line(self):
        line = LogRecord(0.0, "Tenant Name=tenant_a; cpu util=55.0 pad=" + "x" * 40)
        parsed = JobStatsRecord(0.0, "tenant_a", "cpu util", 55.0)
        assert parsed.size_bytes < line.size_bytes


class TestAggregateRecord:
    def test_size_grows_with_extra_values(self):
        small = AggregateRecord(0.0, ("a",), {"avg(rtt)": 1.0})
        large = AggregateRecord(
            0.0, ("a",), {f"v{i}": float(i) for i in range(8)}
        )
        assert large.size_bytes > small.size_bytes

    def test_key_is_group_key(self):
        record = AggregateRecord(0.0, (1, 2), {"avg(rtt)": 1.0})
        assert record.key() == (1, 2)

    def test_values_are_copied(self):
        values = {"avg(rtt)": 1.0}
        record = AggregateRecord(0.0, (), values)
        values["avg(rtt)"] = 99.0
        assert record.values["avg(rtt)"] == 1.0


class TestSizeAndRateHelpers:
    def test_record_size_bytes_sums_sizes(self):
        records = [PingmeshRecord(0.0, 1, 2, 1.0) for _ in range(5)]
        assert record_size_bytes(records) == 5 * 86

    def test_drain_adds_header_overhead(self):
        records = [PingmeshRecord(0.0, 1, 2, 1.0)]
        assert record_size_bytes(records, drain=True) > record_size_bytes(records)

    def test_bytes_to_mbps_round_trip(self):
        rate = bytes_to_mbps(mbps_to_bytes(26.2, 10.0), 10.0)
        assert rate == pytest.approx(26.2)

    def test_bytes_to_mbps_rejects_zero_duration(self):
        with pytest.raises(ConfigurationError):
            bytes_to_mbps(100.0, 0.0)

    def test_mbps_to_bytes_rejects_negative_duration(self):
        with pytest.raises(ConfigurationError):
            mbps_to_bytes(1.0, -1.0)

    def test_records_per_second_matches_paper_estimate(self):
        # 26.2 Mbps of 86-byte records is roughly 38 thousand records/second.
        rate = records_per_second(26.2, 86)
        assert rate == pytest.approx(38081, rel=0.01)

    def test_records_per_second_rejects_bad_record_size(self):
        with pytest.raises(ConfigurationError):
            records_per_second(1.0, 0)

    def test_convenience_constructors(self):
        probe = make_probe_record(0.0, 1, 2, 10.0, err_code=1)
        log = make_log_record(0.0, "hello")
        assert isinstance(probe, PingmeshRecord)
        assert probe.err_code == 1
        assert isinstance(log, LogRecord)

    def test_base_record_defaults(self):
        record = Record(3.0)
        assert record.key() == ()
        assert record.size_bytes > 0
        assert record.as_dict() == {"event_time": 3.0}


class TestIpToTorTable:
    def test_dense_table_covers_all_servers(self):
        table = IpToTorTable.dense(100, servers_per_tor=10)
        assert len(table) == 100
        assert table.lookup(0) == 0
        assert table.lookup(99) == 9
        assert 55 in table

    def test_lookup_missing_ip_returns_none(self):
        table = IpToTorTable.dense(10)
        assert table.lookup(999) is None
        assert 999 not in table

    def test_dense_rejects_bad_arguments(self):
        with pytest.raises(ConfigurationError):
            IpToTorTable.dense(-1)
        with pytest.raises(ConfigurationError):
            IpToTorTable.dense(10, servers_per_tor=0)

    def test_custom_mapping(self):
        table = IpToTorTable({7: 3})
        assert table.lookup(7) == 3
        assert len(table) == 1

    @staticmethod
    def assert_bulk_matches_scalar(table, ips):
        tor_ids, found = table.lookup_many(np.asarray(ips, dtype=np.int64))
        assert tor_ids.dtype == np.int64 and found.dtype == bool
        assert len(tor_ids) == len(found) == len(ips)
        for ip, tor_id, hit in zip(ips, tor_ids.tolist(), found.tolist()):
            expected = table.lookup(ip)
            assert hit == (expected is not None), ip
            if hit:
                assert tor_id == expected, ip

    def test_lookup_many_dense(self):
        table = IpToTorTable.dense(100, servers_per_tor=10)
        # Unknown IPs on both sides of the key range; IPs 0-9 map to ToR 0.
        ips = [0, 5, 9, 10, 99, 100, -1, 1000, 42, 0]
        self.assert_bulk_matches_scalar(table, ips)
        tor_ids, found = table.lookup_many(np.asarray(ips, dtype=np.int64))
        assert found.tolist() == [True] * 5 + [False] * 3 + [True, True]
        assert tor_ids[:3].tolist() == [0, 0, 0]

    def test_lookup_many_sparse(self):
        table = IpToTorTable({3_000_000_000: 0, 17: 5, 4: 0, 900: 12})
        ips = [17, 18, 4, 3, 900, 901, 3_000_000_000, 0, 2**40]
        self.assert_bulk_matches_scalar(table, ips)
        _, found = table.lookup_many(np.asarray(ips, dtype=np.int64))
        assert found.tolist() == [True, False, True, False, True, False, True, False, False]

    def test_lookup_many_empty_inputs(self):
        tor_ids, found = IpToTorTable().lookup_many(np.asarray([1, 2], dtype=np.int64))
        assert found.tolist() == [False, False]
        assert len(tor_ids) == 2
        tor_ids, found = IpToTorTable.dense(10).lookup_many(np.empty(0, dtype=np.int64))
        assert len(tor_ids) == len(found) == 0


class TestHalfUp:
    def test_ties_round_up_not_to_even(self):
        # Builtin round() gives 0 and 2 here (half-to-even); the routing
        # arithmetic needs 1 and 2 so throughput does not depend on the
        # parity of the record count.
        assert half_up(0.5) == 1
        assert half_up(1.5) == 2
        assert half_up(2.5) == 3

    def test_matches_round_away_from_ties(self):
        for value in (0.0, 0.49, 0.51, 3.2, 7.8):
            assert half_up(value) == round(value + 1e-12) or half_up(value) == int(value + 0.5)

    def test_route_arithmetic_is_monotone_in_n(self):
        # 0.5 load factor over n records forwards ceil(n/2) for every n.
        for n in range(10):
            assert half_up(0.5 * n) == (n + 1) // 2


class TestBatchedPathErrorsAreProjectErrors:
    """Regression: batched-path validation failures must be catchable via the
    repro.errors hierarchy (they were bare ValueError before simlint SL007)."""

    def test_missing_event_time_column(self):
        with pytest.raises(SimulationError):
            RecordBatch(PingmeshRecord, {"rtt_us": [1.0]}, uniform_size_bytes=86)

    def test_ragged_columns(self):
        with pytest.raises(SimulationError):
            RecordBatch(
                PingmeshRecord,
                {"event_time": [0.0, 1.0], "rtt_us": [1.0]},
                uniform_size_bytes=86,
            )

    def test_missing_size_information(self):
        with pytest.raises(SimulationError):
            RecordBatch(PingmeshRecord, {"event_time": [0.0]})

    def test_sizes_length_mismatch(self):
        with pytest.raises(SimulationError):
            RecordBatch(
                PingmeshRecord, {"event_time": [0.0]}, sizes=[86, 86]
            )

    def test_from_records_empty(self):
        with pytest.raises(SimulationError):
            RecordBatch.from_records([])

    def test_from_records_mixed_types(self):
        records = [PingmeshRecord(0.0, 1, 2, 1.0), LogRecord(0.0, "x")]
        with pytest.raises(SimulationError):
            RecordBatch.from_records(records)

    def test_all_catchable_as_jarvis_error(self):
        with pytest.raises(JarvisError):
            RecordBatch.from_records([])
        with pytest.raises(JarvisError):
            bytes_to_mbps(1.0, 0.0)

"""Synthetic LogAnalytics workload (Scenario 2 of the paper).

A production log-processing system (Helios) streams unstructured text logs
from analytics clusters; the LogAnalytics query (Listing 3) extracts per-tenant
job latency and resource-utilisation statistics and bucketizes them into
histograms.  The synthetic generator reproduces the statistics that matter to
the query:

* log lines are ``key=value`` strings carrying a tenant name and one of three
  statistics (job running time, CPU utilisation, memory utilisation);
* most lines match the query's search patterns (the paper notes the
  filter-out rate is low, which is why Filter-Src stays network-bound);
* parsing reduces a text line to a ~40-byte structured record, so the
  Map(parse) stage is where most data reduction happens.  Generated lines
  average ~77 bytes (76.7 B over 20,000 lines at the default config, seed
  1), while :attr:`LogAnalyticsWorkload.input_rate_mbps` sizes the nominal
  rate at ~120 bytes per line, the figure the scenarios were calibrated
  with;
* the per-window group cardinality is ``tenants x statistics x buckets``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..errors import WorkloadError, require_count, require_finite
from ..query.builder import Query, log_analytics_query
from ..query.records import LogRecord, RecordBatch, half_up
from ..simulation.cost_model import CostModel, calibrate_cost_model

#: Default simulated lines per one-second epoch at "10x" scaling.
DEFAULT_LINES_PER_EPOCH = 1000

#: CPU fractions of the LogAnalytics operators at the nominal rate.  The whole
#: query uses ~31% of a core at full rate (Section VI-B); the split across
#: operators reflects that text normalisation/parsing dominates.
LOG_CPU_FRACTIONS = {
    "window": 0.0,
    "map": 0.05,        # normalize (trim + lowercase)
    "filter": 0.07,     # substring pattern matching
    "map_1": 0.11,      # key=value parsing into JobStats
    "map_2": 0.02,      # bucketization
    "group_aggregate": 0.06,
}

#: Count-based relay ratios used for calibration: ~10% of lines do not match
#: any pattern and a small fraction fail to parse.
LOG_COUNT_RELAYS = {
    "window": 1.0,
    "map": 1.0,
    "filter": 0.90,
    "map_1": 0.98,
    "map_2": 1.0,
}

_STAT_NAMES = ("job running time", "cpu util", "memory util")


@dataclass(frozen=True)
class LogAnalyticsConfig:
    """Parameters of the synthetic log stream for one data source.

    Attributes:
        lines_per_epoch: Simulated log lines generated per epoch.
        tenants: Number of distinct tenants appearing in the logs.
        noise_fraction: Fraction of lines that match none of the query's
            search patterns (these are filtered out).
        malformed_fraction: Fraction of matching lines that fail to parse.
        seed: RNG seed.
    """

    lines_per_epoch: int = DEFAULT_LINES_PER_EPOCH
    tenants: int = 50
    noise_fraction: float = 0.10
    malformed_fraction: float = 0.02
    seed: int = 0

    def __post_init__(self) -> None:
        # Counts are stored as plain ints: numpy integers are accepted, and
        # the generator relies on ``int.bit_length``.
        for name in ("lines_per_epoch", "tenants"):
            count = require_count(name, getattr(self, name), error=WorkloadError)
            object.__setattr__(self, name, count)
        require_finite(
            "noise_fraction", self.noise_fraction, error=WorkloadError
        )
        require_finite(
            "malformed_fraction", self.malformed_fraction, error=WorkloadError
        )
        if not 0.0 <= self.noise_fraction <= 1.0:
            raise WorkloadError(
                f"noise_fraction must be within [0, 1], got {self.noise_fraction!r}"
            )
        if not 0.0 <= self.malformed_fraction <= 1.0:
            raise WorkloadError(
                "malformed_fraction must be within [0, 1], "
                f"got {self.malformed_fraction!r}"
            )

    def scaled(self, factor: float) -> "LogAnalyticsConfig":
        """Return a copy with the input rate scaled by ``factor``."""
        if factor <= 0:
            raise WorkloadError(f"scale factor must be positive, got {factor!r}")
        return LogAnalyticsConfig(
            lines_per_epoch=max(1, half_up(self.lines_per_epoch * factor)),
            tenants=self.tenants,
            noise_fraction=self.noise_fraction,
            malformed_fraction=self.malformed_fraction,
            seed=self.seed,
        )


class LogAnalyticsWorkload:
    """Generates the unstructured log stream observed by one data source.

    Stream contract: the lines are exactly those of the straightforward
    stdlib generator that draws, per line, ``random() < noise_fraction``;
    for a noise line ``randint(0, 999)`` and ``randint(0, 64)``; otherwise
    ``randint(0, tenants - 1)``, ``choice`` of the three statistics,
    ``uniform(0.0, 100.0)`` (printed as ``round(value, 2)``),
    ``random() < malformed_fraction`` and, for a well-formed line,
    ``randint(0, 99999)``.  :meth:`batch_for_epoch` makes those draws in
    that order on the same ``random.Random`` through its cheaper primitives,
    so any rewrite must keep the same draws in the same order; the pin test
    in ``tests/test_workloads.py`` holds it to that stdlib generator.
    """

    def __init__(self, config: Optional[LogAnalyticsConfig] = None) -> None:
        self.config = config or LogAnalyticsConfig()
        self._rng = random.Random(self.config.seed)

    @property
    def input_rate_mbps(self) -> float:
        """Nominal input rate in Mbps, sized at 120 bytes per line.

        Generated lines average ~77 bytes (76.7 B over 20,000 lines at the
        default config, seed 1); the 120-byte sizing is kept because the
        ingress capacity of existing scenarios is derived from it.
        """
        return self.config.lines_per_epoch * 120 * 8.0 / 1e6

    def records_for_epoch(self, epoch: int) -> List[LogRecord]:
        """Log records arriving during ``epoch`` (epoch duration = 1 s)."""
        return self.batch_for_epoch(epoch).to_records()

    def batch_for_epoch(self, epoch: int) -> RecordBatch:
        """One epoch's log stream as a columnar batch.

        Line ``i`` arrives at ``epoch + i / lines_per_epoch`` and the lines
        are drawn one after another from the seeded generator, so the
        stream is deterministic per seed in every record mode.
        """
        cfg = self.config
        count = cfg.lines_per_epoch
        noise_fraction = cfg.noise_fraction
        malformed_fraction = cfg.malformed_fraction
        tenants = cfg.tenants
        tenant_bits = tenants.bit_length()
        random = self._rng.random
        getrandbits = self._rng.getrandbits
        noise = (
            "INFO scheduler heartbeat node=%03d queue_depth=%d "
            "status=ok padding=xxxxxxxxxx"
        )
        # One template per statistic, indexed by the drawn statistic.
        malformed = ["Tenant Name=tenant_%03d; " + name for name in _STAT_NAMES]
        parsed = [
            "Tenant Name=tenant_%03d; job_id=j%05d; cluster=cosmos-east; "
            + name + "=%.2f"
            for name in _STAT_NAMES
        ]
        lines: List[str] = []
        append = lines.append
        # Each ``r = getrandbits(k)`` / ``while r >= n`` pair is the stdlib's
        # randint(0, n - 1) (and, for n = 3, choice): randrange's rejection
        # loop with k = n.bit_length().  ``100.0 * random()`` is
        # uniform(0.0, 100.0).
        for _ in range(count):
            if random() < noise_fraction:
                node = getrandbits(10)
                while node >= 1000:
                    node = getrandbits(10)
                depth = getrandbits(7)
                while depth >= 65:
                    depth = getrandbits(7)
                append(noise % (node, depth))
                continue
            tenant = getrandbits(tenant_bits)
            while tenant >= tenants:
                tenant = getrandbits(tenant_bits)
            stat = getrandbits(2)
            while stat >= 3:
                stat = getrandbits(2)
            value = 100.0 * random()
            if random() < malformed_fraction:
                # Missing the value field: the parse Map drops these lines.
                append(malformed[stat] % tenant)
                continue
            job = getrandbits(17)
            while job >= 100000:
                job = getrandbits(17)
            # The value ends the line.  "%.2f" and round(value, 2) both round
            # the exact binary value half-even to two decimals; repr() of
            # the rounded float then differs only by dropping a trailing
            # zero ("5.50" -> "5.5", "5.00" -> "5.0").
            line = parsed[stat] % (tenant, job, value)
            append(line[:-1] if line[-1] == "0" else line)
        return RecordBatch(
            LogRecord,
            {
                "event_time": float(epoch) + np.arange(count) / count,
                "line": lines,
            },
            sizes=[len(line) for line in lines],
        )


def log_analytics_cost_model(
    query: Optional[Query] = None,
    reference_records_per_second: float = DEFAULT_LINES_PER_EPOCH,
) -> CostModel:
    """Cost model for the LogAnalytics query calibrated to the paper."""
    query = query or log_analytics_query()
    operators = query.logical_plan().operators
    return calibrate_cost_model(
        operators,
        cpu_fractions=LOG_CPU_FRACTIONS,
        input_records_per_second=reference_records_per_second,
        count_relay_ratios=LOG_COUNT_RELAYS,
    )

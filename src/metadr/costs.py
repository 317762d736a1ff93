"""Virtual cost accounting: the knobs and meters behind simulated time.

CostModel carries the parameters of the analytical model (hash
throughput H, cores C, bandwidth B, entry size S, WAL replay latency,
jitter, fragmentation). CostMeter accumulates virtual seconds into DR
phases plus operation counters, so petabyte-scale recovery costs can be
charged without moving petabytes.

Phase conventions:
    hash        content hashing (bytes / (H * C))
    index       index exchange transfer (bytes / B)
    delta       block delta transfer (bytes / B)
    wal_replay  crash-recovery log replay (a latency, not a transfer)

content_reads counts blocks read in order to *identify* deltas (i.e.
hashing/verification reads); the delta payload copy itself is accounted
as network bytes, not as content reads.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CostModel:
    hash_throughput: float = 5.0e8  # bytes/s per core (SHA-256 w/ acceleration)
    cores: int = 16
    bandwidth: float = 1.25e9  # bytes/s (10 GbE)
    index_entry_bytes: int = 32
    wal_replay_seconds: float = 18.0
    rto_jitter_cv: float = 0.012
    fragmentation_factor: float = 0.0

    def __post_init__(self) -> None:
        for name in ("hash_throughput", "cores", "bandwidth", "index_entry_bytes"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")
        for name in ("wal_replay_seconds", "rto_jitter_cv", "fragmentation_factor"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    def hash_seconds(self, nbytes: float) -> float:
        return nbytes / (self.hash_throughput * self.cores)

    def transfer_seconds(self, nbytes: float) -> float:
        return nbytes / self.bandwidth


@dataclass
class CostMeter:
    """Accumulates one DR event's virtual phase costs and counters."""

    model: CostModel
    t_hash: float = 0.0
    t_index: float = 0.0
    t_delta: float = 0.0
    t_wal_replay: float = 0.0
    hash_ops: int = 0
    hashed_bytes: int = 0
    content_reads: int = 0
    comparisons: int = 0
    network_bytes: int = 0

    def charge_hash(self, nbytes: float, ops: int = 0) -> float:
        seconds = self.model.hash_seconds(nbytes)
        self.t_hash += seconds
        self.hashed_bytes += int(nbytes)
        self.hash_ops += ops
        return seconds

    def charge_index_transfer(self, nbytes: float) -> float:
        seconds = self.model.transfer_seconds(nbytes)
        self.t_index += seconds
        self.network_bytes += int(nbytes)
        return seconds

    def charge_delta_transfer(self, nbytes: float) -> float:
        seconds = self.model.transfer_seconds(nbytes)
        self.t_delta += seconds
        self.network_bytes += int(nbytes)
        return seconds

    def charge_wal_replay(self, seconds: float | None = None) -> float:
        seconds = self.model.wal_replay_seconds if seconds is None else seconds
        self.t_wal_replay += seconds
        return seconds

    def add_hash_ops(self, n: int) -> None:
        self.hash_ops += n

    def add_content_reads(self, n: int) -> None:
        self.content_reads += n

    def add_comparisons(self, n: int) -> None:
        self.comparisons += n

"""The RTO model's parameters, and the meters that charge them.

CostModel holds hash throughput H, cores C, bandwidth B and entry size S
(plus WAL replay latency, jitter and fragmentation); Volumetrics holds one
DR event's data bytes D, blocks N and delta bytes. Each checks its domain
where it is built, and a NaN or an infinity is outside every domain;
`whole` is the rule for a count given from outside.
`evalmodel` evaluates the closed form over the two, and the soak charges
its per-event phases from them. CostMeter accumulates virtual seconds into
DR phases plus operation counters, so petabyte-scale recovery costs can be
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

import math
from dataclasses import dataclass


def whole(name: str, value: str | float) -> int:
    """`value`, a number or its text, as an int; raises ValueError for a
    fraction or a non-number."""
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    try:
        number = float(value)
    except ValueError:
        number = math.nan
    if not number.is_integer():
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return int(number)


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
        # chained comparisons: NaN fails each of them, and inf the upper bound
        for name in ("hash_throughput", "cores", "bandwidth", "index_entry_bytes"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be strictly positive and finite")
        for name in ("wal_replay_seconds", "rto_jitter_cv", "fragmentation_factor"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be >= 0 and finite")

    def hash_seconds(self, nbytes: float) -> float:
        return nbytes / (self.hash_throughput * self.cores)

    def transfer_seconds(self, nbytes: float) -> float:
        return nbytes / self.bandwidth


@dataclass(frozen=True)
class Volumetrics:
    """One DR event's inventory: D, N and delta of the RTO model."""

    data_bytes: float  # D
    blocks: int  # N
    delta_bytes: float  # delta

    def __post_init__(self) -> None:
        if not 0 < self.data_bytes < math.inf:
            raise ValueError("data_bytes must be strictly positive and finite")
        for name in ("delta_bytes", "blocks"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be >= 0 and finite")
        if self.delta_bytes > self.data_bytes:
            raise ValueError("delta_bytes cannot exceed data_bytes")


# The published 100 TB example; with CostModel's defaults (16 cores, 10 GbE)
# its RTO is 13,750 + 25.6 + 800 s.
PAPER_VOLUMETRICS = Volumetrics(data_bytes=1.1e14, blocks=1_000_000_000, delta_bytes=1.0e12)


@dataclass
class CostMeter:
    """Accumulates one DR event's virtual phase costs and counters; the
    `charge_*` methods return nothing, so a caller reads the fields."""

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

    def charge_hash(self, *nbytes: float, ops: int = 0) -> None:
        """Charge each length's `hash_seconds` to t_hash, one addition per
        length in the given order, so one call over a run of blocks
        leaves t_hash bit-identical to one call per block; `ops` counts
        the run's SHA-256 calls."""
        rate = self.model.hash_throughput * self.model.cores  # as hash_seconds divides
        t_hash = self.t_hash
        for n in nbytes:
            t_hash += n / rate
        self.t_hash = t_hash
        self.hashed_bytes += sum(map(int, nbytes))
        self.hash_ops += ops

    def charge_index_transfer(self, nbytes: float) -> None:
        self.t_index += self.model.transfer_seconds(nbytes)
        self.network_bytes += int(nbytes)

    def charge_delta_transfer(self, nbytes: float) -> None:
        self.t_delta += self.model.transfer_seconds(nbytes)
        self.network_bytes += int(nbytes)

    def charge_wal_replay(self, seconds: float | None = None) -> None:
        self.t_wal_replay += self.model.wal_replay_seconds if seconds is None else seconds

    def add_content_reads(self, n: int) -> None:
        self.content_reads += n

    def add_comparisons(self, n: int) -> None:
        self.comparisons += n

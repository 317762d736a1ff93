"""Node discovery: CNAME-aware resolution over a simulated record set.

The record set is an in-memory zone mutable by fault scripts (real DNS
and RPC transport are out of scope). Resolution follows CNAME chains to
an endpoint record with exact loop detection; a node is reached by its
*service name*, resolved when needed, so routing stays correct across
rebinds during failover.

Zone snippets in scenario files use one record per line:
``CNAME <name> <target>`` or ``ENDPT <name> <address>``.
"""

from __future__ import annotations

from dataclasses import dataclass


class NameNotFound(KeyError):
    pass


class ChainTooDeep(RuntimeError):
    pass


class CnameLoop(RuntimeError):
    pass


class DnsRecordSet:
    """Simulated zone: a name maps to at most one record kind."""

    def __init__(self) -> None:
        self.cname_records: dict[str, str] = {}
        self.endpoint_records: dict[str, str] = {}

    def add_cname(self, name: str, target: str) -> None:
        if name in self.endpoint_records:
            raise ValueError(f"{name!r} already has an endpoint record")
        self.cname_records[name] = target

    def add_endpoint(self, name: str, address: str) -> None:
        if name in self.cname_records:
            raise ValueError(f"{name!r} already has a CNAME record")
        self.endpoint_records[name] = address

    @classmethod
    def from_zone_lines(cls, lines) -> "DnsRecordSet":
        records = cls()
        for raw in lines:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3 or parts[0] not in ("CNAME", "ENDPT"):
                raise ValueError(f"bad zone line: {raw!r}")
            kind, name, value = parts
            if kind == "CNAME":
                records.add_cname(name, value)
            else:
                records.add_endpoint(name, value)
        return records


@dataclass(frozen=True)
class Resolution:
    endpoint: str
    chain_length: int


def resolve(records: DnsRecordSet, name: str, max_depth: int = 10) -> Resolution:
    """Follow CNAME links until an endpoint record.

    chain_length counts CNAME hops (0 for a direct endpoint). Cycles are
    detected exactly with a visited set, before the depth limit can
    trigger.
    """
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    visited = set()
    current = name
    hops = 0
    while True:
        endpoint = records.endpoint_records.get(current)
        if endpoint is not None:
            return Resolution(endpoint=endpoint, chain_length=hops)
        target = records.cname_records.get(current)
        if target is None:
            raise NameNotFound(f"no record for {current!r} (from {name!r})")
        if current in visited:
            raise CnameLoop(f"CNAME cycle at {current!r} (from {name!r})")
        visited.add(current)
        hops += 1
        if hops > max_depth:
            raise ChainTooDeep(f"chain from {name!r} exceeds max_depth={max_depth}")
        current = target


def rebind_cname(records: DnsRecordSet, name: str, new_target: str) -> None:
    """Repoint an existing CNAME. Validation is lazy: a rebind that
    forms a loop succeeds, and later resolves raise CnameLoop."""
    if name not in records.cname_records:
        raise NameNotFound(f"no CNAME record for {name!r}")
    records.cname_records[name] = new_target

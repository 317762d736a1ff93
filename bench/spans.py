"""Spans and counts recorded around the program's public functions.

The benchmark does not change the program. For a traced episode it
replaces each measured public function with a wrapper, at every place
the function is bound: the defining module, every ``metadr`` module that
imported it by name, or the class that owns a method. Each wrapper
records one span per call, and each span's self time is its duration
minus the duration of the wrapped calls it made. Work a wrapper does to
count (sizes, entry counts) is timed and kept out of every self time;
the inclusive times of the spans around it still contain it.

Layers and the functions measured in each:

identity   LogicalClock.next_id, recover_clock
crc32c     crc32c
index      IdentifierIndex.insert, IdentifierIndex.get, set_difference,
           serialize_index
node       StorageNode.ingest, .replicate_in, .read_verify, .restart, .scrub
sync       execute_failover, execute_failback, converge,
           compute_delta_meta, verify_superset,
           ensure_baseline_consistent, sync_pair_hash
hashline   payload_digest, rebuild_index, merkle_build, hash_delta,
           pipeline_tick
costs      CostMeter.charge_hash
simnet     soak, SimRuntime.ingest_batch, SimRuntime.apply_fault
discovery  resolve
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
from contextlib import contextmanager
from time import perf_counter

import metadr
from metadr import costs, crc32c, discovery, hashline, identity, index, node, simnet, sync


class Span:
    """Totals for one measured function over the traced calls."""

    __slots__ = ("calls", "total_s", "self_s", "counts")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.counts: dict[str, float] = {}

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount


class Tracer:
    """Installs the wrappers for one episode and removes them after it.

    Uninstalled, the program runs its own functions untouched, so an
    untraced episode pays nothing for the tracer. Paused, the wrappers
    call straight through, so the benchmark's own checks are not
    counted as the workload's.
    """

    def __init__(self) -> None:
        self.spans: dict[str, Span] = {}
        self.stack: list[float] = []  # child time of each open span
        self.active = True
        self.patches: list[tuple[object, str, object]] = []
        # import every module now: one imported while a wrapper is
        # installed would keep the wrapper after the episode
        for info in pkgutil.iter_modules(metadr.__path__):
            importlib.import_module(f"metadr.{info.name}")

    # -- installation --------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.spans = {}
        self.stack = []
        for name, owner, attr, before, after in measured_functions():
            self.install(name, owner, attr, before, after)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches = []

    @contextmanager
    def paused(self):
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def install(self, name, owner, attr, before, after) -> None:
        original = getattr(owner, attr)
        wrapper = self.wrap(name, original, before, after)
        if isinstance(owner, type):
            self.patch(owner, attr, original, wrapper)
            return
        for module_name, module in list(sys.modules.items()):
            if module_name != "metadr" and not module_name.startswith("metadr."):
                continue
            for bound, value in list(vars(module).items()):
                if value is original:
                    self.patch(module, bound, original, wrapper)

    def patch(self, owner, attr, original, wrapper) -> None:
        self.patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def wrap(self, name, fn, before, after):
        span = self.spans.setdefault(name, Span())
        stack = self.stack
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            note = None
            if before is not None:
                t0 = perf_counter()
                note = before(*args, **kwargs)
                tracer.exclude(perf_counter() - t0)
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                child = stack.pop()
                span.calls += 1
                span.total_s += elapsed
                span.self_s += elapsed - child
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                t0 = perf_counter()
                after(span, result, note, *args, **kwargs)
                tracer.exclude(perf_counter() - t0)
            return result

        return traced

    def exclude(self, seconds: float) -> None:
        """Keep counting time out of the enclosing span's self time."""
        if self.stack:
            self.stack[-1] += seconds

    def span(self, name: str) -> Span:
        return self.spans.get(name) or Span()


# ---------------------------------------------------------------------------
# counting hooks: `before` runs ahead of the call, `after` sees its result


def count_bytes(span, result, note, data, *args, **kwargs):
    span.add("bytes", len(data))


def count_result_bytes(span, result, note, *args, **kwargs):
    span.add("bytes", len(result))


def count_set_difference_entries(span, result, note, a, b, *args, **kwargs):
    span.add("entries", a.entry_count + b.entry_count)


def entry_count_before(node_self, *args, **kwargs):
    return node_self.id_index.entry_count


def count_new_entries(span, result, note, node_self, *args, **kwargs):
    span.add("new_entries", node_self.id_index.entry_count - note)


def wal_records(wal):
    return len(wal.data()) // identity.WAL_RECORD_BYTES


def count_wal_records(span, result, note, wal, *args, **kwargs):
    span.add("records", note)


def count_scrubbed_blocks(span, result, note, node_self, budget_blocks):
    span.add("blocks", min(max(budget_blocks, 0), node_self.physical_block_count))


def window_entries(local, peer_checkpoint, peer_index, meter=None, scope_nids=None):
    total = 0
    for idx in (local, peer_index):
        nids = idx.nids() if scope_nids is None else scope_nids
        for nid in nids:
            total += len(idx.entries_above(nid, peer_checkpoint.watermark(nid)))
    return total


def count_delta(span, result, note, *args, **kwargs):
    span.add("window_entries", note)
    span.add("delta_ids", len(result.ids_to_pull) + len(result.ids_to_push))


def count_bytes_hashed(span, result, note, *args, **kwargs):
    span.add("bytes_hashed", result)


def count_delta_bytes(span, result, note, *args, **kwargs):
    span.add("delta_bytes", result.content_bytes_to_transfer)


def count_rebuilt_blocks(span, result, note, *args, **kwargs):
    span.add("blocks", len(result[0].by_locator))


def count_leaves(span, result, note, leaves, *args, **kwargs):
    span.add("leaves", len(leaves))


def measured_functions():
    """(span name, owner, attribute, before hook, after hook) per function.

    A module owner means the function is wrapped wherever a ``metadr``
    module binds it; a class owner means the method is wrapped on the
    class.
    """
    return [
        ("identity.next_id", identity.LogicalClock, "next_id", None, None),
        ("identity.recover_clock", identity, "recover_clock", wal_records, count_wal_records),
        ("crc32c", crc32c, "crc32c", None, count_bytes),
        ("index.insert", index.IdentifierIndex, "insert", None, None),
        ("index.get", index.IdentifierIndex, "get", None, None),
        ("index.set_difference", index, "set_difference", None, count_set_difference_entries),
        ("index.serialize_index", index, "serialize_index", None, count_result_bytes),
        ("node.ingest", node.StorageNode, "ingest", None, None),
        ("node.replicate_in", node.StorageNode, "replicate_in",
         entry_count_before, count_new_entries),
        ("node.read_verify", node.StorageNode, "read_verify", None, None),
        ("node.restart", node.StorageNode, "restart", None, None),
        ("node.scrub", node.StorageNode, "scrub", None, count_scrubbed_blocks),
        ("sync.execute_failover", sync, "execute_failover", None, None),
        ("sync.execute_failback", sync, "execute_failback", None, None),
        ("sync.converge", sync, "converge", None, None),
        ("sync.compute_delta_meta", sync, "compute_delta_meta", window_entries, count_delta),
        ("sync.verify_superset", sync, "verify_superset", None, None),
        ("sync.ensure_baseline_consistent", sync, "ensure_baseline_consistent",
         None, count_bytes_hashed),
        ("sync.sync_pair_hash", sync, "sync_pair_hash", None, count_delta_bytes),
        ("hashline.payload_digest", hashline, "payload_digest", None, None),
        ("hashline.rebuild_index", hashline, "rebuild_index", None, count_rebuilt_blocks),
        ("hashline.merkle_build", hashline, "merkle_build", None, count_leaves),
        ("hashline.hash_delta", hashline, "hash_delta", None, None),
        ("hashline.pipeline_tick", hashline, "pipeline_tick", None, None),
        ("costs.charge_hash", costs.CostMeter, "charge_hash", None, None),
        ("simnet.soak", simnet, "soak", None, None),
        ("simnet.ingest_batch", simnet.SimRuntime, "ingest_batch", None, None),
        ("simnet.apply_fault", simnet.SimRuntime, "apply_fault", None, None),
        ("discovery.resolve", discovery, "resolve", None, None),
    ]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, names, scale: float = 1.0) -> dict[str, float]:
    """The per-layer metrics `names` of one traced episode.

    Every span gives ``<span>.calls``, ``<span>.self_s``, ``<span>.s``
    (inclusive time) and ``<span>.<count>`` for each count its hook
    keeps; a count of a span never called is 0. The ratios are written
    out. Times are multiplied by `scale`, which turns them into
    reference seconds.
    """
    out: dict[str, float] = {}
    for name, span in tracer.spans.items():
        out[f"{name}.calls"] = span.calls
        out[f"{name}.self_s"] = span.self_s * scale
        out[f"{name}.s"] = span.total_s * scale
        out.update({f"{name}.{key}": amount for key, amount in span.counts.items()})

    def count(name: str) -> float:
        return out.get(name, 0)

    out.update({
        "identity.recover_clock.records_per_call": ratio(
            count("identity.recover_clock.records"), count("identity.recover_clock.calls")),
        "crc32c.MBps": ratio(count("crc32c.bytes") / 1e6, count("crc32c.self_s")),
        "node.replicate_in.useful_ratio": ratio(
            count("node.replicate_in.new_entries"), count("node.replicate_in.calls")),
        "sync.delta_per_window_entry": ratio(
            count("sync.compute_delta_meta.delta_ids"),
            count("sync.compute_delta_meta.window_entries")),
        "sync.bytes_hashed_per_delta_byte": ratio(
            count("sync.ensure_baseline_consistent.bytes_hashed"),
            count("sync.sync_pair_hash.delta_bytes")),
    })
    values = {}
    for name in names:
        span = tracer.spans.get(name.rpartition(".")[0])
        if name not in out and not (span is not None and span.calls == 0):
            raise KeyError(f"no per-layer metric {name!r}")
        values[name] = out.get(name, 0)
    return values

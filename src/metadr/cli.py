"""Command-line entry point.

Verbs: rto, table2, tco, sensitivity, simulate, soak, verify. Formats:
text (aligned), csv, md. Exit codes: 0 success, 1 verification failure,
2 usage or validation error, 3 runtime invariant violation. The
METADR_SEED environment variable supplies the default seed. Byte flags
take raw numbers (scientific notation accepted); no unit suffixes are
parsed, which sidesteps decimal/binary ambiguity at the interface.
Count flags, --seed and METADR_SEED take whole numbers, integral
floats such as 1.6e1 included; a fraction or a non-number exits 2,
never truncated or ignored.
"""

from __future__ import annotations

import argparse
import os
import sys
from importlib import resources
from pathlib import Path

from . import evalmodel, simnet, verify
from .costs import PAPER_VOLUMETRICS, CostModel, Volumetrics, whole
from .report import FORMATS, ReportDocument, render

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_VIOLATION = 3


def _emit(doc: ReportDocument, fmt: str, out_dir: str | None, filename: str) -> None:
    text = render(doc, fmt)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        ext = {"text": "txt", "csv": "csv", "md": "md"}[fmt]
        with open(os.path.join(out_dir, f"{filename}.{ext}"), "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
        sys.stdout.write("\n")


def _bundled_scenario(name: str) -> str | None:
    """A bundled scenario's YAML text, read as package data, so it loads
    from a zipped install too; None if there is no such scenario."""
    candidate = resources.files("metadr").joinpath("scenarios", f"{name}.yaml")
    if candidate.is_file():
        return candidate.read_text(encoding="utf-8")
    return None


def cmd_rto(args) -> int:
    try:
        vol = Volumetrics(data_bytes=args.D, blocks=whole("--N", args.N), delta_bytes=args.delta)
        model = CostModel(
            hash_throughput=args.H,
            cores=whole("--C", args.C),
            bandwidth=args.B,
            index_entry_bytes=whole("--S", args.S),
        )
        bd = evalmodel.rto_breakdown(model, vol)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    doc = ReportDocument(
        title="Recovery-time decomposition",
        columns=["t_hash_s", "t_index_s", "t_delta_s", "rto_hash_s", "rto_meta_s",
                 "factor", "annotation"],
        rows=[[
            bd.t_hash, bd.t_index, bd.t_delta, bd.rto_hash, bd.rto_meta,
            round(bd.improvement_factor, 2),
            "published reference example rounds to 14,576 / 826 / 17.6",
        ]],
    )
    _emit(doc, args.format, args.out, "rto")
    return EXIT_OK


def cmd_table2(args) -> int:
    rows = evalmodel.table2(CostModel(), PAPER_VOLUMETRICS)
    doc = ReportDocument(
        title="Analytical RTO vs capacity (delta fixed at 1 TB, C=16, 10 GbE)",
        columns=[
            "scale", "direct_hash_hr", "direct_meta_min", "direct_factor",
            "conv_hash_hr", "conv_meta_min", "conv_factor",
            "published_hash_hr", "published_meta_min", "published_factor",
            "annotation",
        ],
        rows=[
            [
                r.label,
                round(r.direct.rto_hash / 3600.0, 2),
                round(r.direct.rto_meta / 60.0, 1),
                round(r.direct.improvement_factor, 2),
                round(r.conv_hash_s / 3600.0, 2),
                round(r.conv_meta_s / 60.0, 1),
                round(r.conv_factor, 2),
                r.published_hash if r.published_hash is not None else "",
                r.published_meta_min if r.published_meta_min is not None else "",
                r.published_factor if r.published_factor is not None else "",
                r.annotation,
            ]
            for r in rows
        ],
        notes=[
            "conv_* columns follow the published presentation convention: the hash "
            "column scales the rounded base-row hours linearly and the meta column "
            "holds the base value"
        ],
    )
    _emit(doc, args.format, args.out, "table2")
    return EXIT_OK


def cmd_tco(args) -> int:
    try:
        params = evalmodel.TcoParams(
            events_per_week=whole("--events", args.events),
            node_cores=whole("--cores", args.cores),
            meta_core_fraction=args.meta_core_fraction,
            rto_hash_seconds=args.rto_hash,
            rto_meta_seconds=args.rto_meta,
            price_per_core_hour=args.price_core_hour,
            capacity_bytes=args.capacity,
            dedup_rate=args.dedup_rate,
            price_per_gb_month=args.price_gb_month,
        )
        result = evalmodel.tco(params)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    doc = ReportDocument(
        title="Total cost of ownership",
        columns=["core_hours_hash_per_event", "core_hours_meta_per_event",
                 "weekly_core_hours_saved", "annual_compute_saving_usd",
                 "annual_storage_saving_usd", "annotation"],
        rows=[[
            round(result.core_hours_hash_per_event, 1),
            round(result.core_hours_meta_per_event, 1),
            round(result.weekly_core_hours_saved, 1),
            round(result.annual_compute_saving_usd, 2),
            round(result.annual_storage_saving_usd, 2),
            result.annotation,
        ]],
    )
    _emit(doc, args.format, args.out, "tco")
    return EXIT_OK


def cmd_sensitivity(args) -> int:
    try:
        parameter, _, values_raw = args.sweep.partition("=")
        values = [float(v) for v in values_raw.split(",") if v]
        if not values:
            raise ValueError("empty sweep value list")
        points = evalmodel.sensitivity(CostModel(), PAPER_VOLUMETRICS, parameter.strip(), values)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    doc = ReportDocument(
        title=f"Sensitivity sweep: {parameter}",
        columns=[parameter, "t_hash_s", "rto_hash_s", "rto_meta_s", "factor"],
        rows=[
            [p.value, p.breakdown.t_hash, p.breakdown.rto_hash,
             p.breakdown.rto_meta, round(p.factor, 2)]
            for p in points
        ],
    )
    _emit(doc, args.format, args.out, "sensitivity")
    return EXIT_OK


def _metrics_docs(metrics) -> list[tuple[str, ReportDocument]]:
    events_doc = ReportDocument(
        title=f"DR events ({metrics.scenario}, seed {metrics.seed})",
        columns=["at_hours", "event", "framework", "t_hash_s", "t_index_s",
                 "t_delta_s", "t_wal_replay_s", "rto_s", "hash_ops",
                 "content_reads", "comparisons", "network_bytes", "note"],
    )
    for event in metrics.events:
        for r in event.reports:
            events_doc.rows.append([
                event.at_hours, event.label, r.framework, r.t_hash, r.t_index,
                r.t_delta, r.t_wal_replay, r.virtual_rto_seconds, r.hash_ops,
                r.content_reads, r.comparisons, r.network_bytes, r.note,
            ])
    summary_doc = ReportDocument(
        title="Run summary",
        columns=["ingests", "total_entries", "physical_index_bytes",
                 "converge_rounds", "lcv_reuse", "immutability", "corruption"],
        rows=[[
            metrics.ingests, metrics.total_entries, metrics.physical_index_bytes,
            ";".join(str(r) for r in metrics.converge_rounds) or "-",
            metrics.violations.lcv_reuse, metrics.violations.immutability,
            metrics.violations.corruption,
        ]],
        notes=list(metrics.notes),
    )
    return [("events", events_doc), ("summary", summary_doc)]


def cmd_simulate(args) -> int:
    source = Path(args.scenario)
    if not source.exists():
        source = _bundled_scenario(args.scenario)
        if source is None:
            print(f"error: scenario {args.scenario!r} not found", file=sys.stderr)
            return EXIT_USAGE
    try:
        scenario = simnet.load_scenario(source)
    except simnet.ScenarioValidation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.seed is not None:
        scenario.seed = args.seed
    metrics = simnet.run_scenario(scenario)
    for name, doc in _metrics_docs(metrics):
        _emit(doc, args.format, args.out, name)
    if metrics.violations.total:
        print(f"violations detected: {metrics.violations}", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_soak(args) -> int:
    source = Path(args.config) if args.config else _bundled_scenario(args.preset)
    if source is None:
        print(f"error: unknown preset {args.preset!r}", file=sys.stderr)
        return EXIT_USAGE
    try:
        config = simnet.load_soak_config(source)
    except simnet.ScenarioValidation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.seed is not None:
        config.seed = args.seed
    report = simnet.soak(config)

    events_doc = ReportDocument(
        title=f"Per-event recovery time ({report.config_name}, seed {report.seed})",
        columns=["event", "day", "type", "meta_s", "hash_s", "factor"],
        rows=[
            [r.event_no, r.day, r.kind, round(r.meta_seconds, 1),
             round(r.hash_seconds, 1), round(r.factor, 2)]
            for r in report.events
        ],
    )
    drift_doc = ReportDocument(
        title="Volumetric drift",
        columns=["day", "entries", "physical_gb", "growth_gb_per_hr",
                 "assign_rate_per_s", "lcv_violations", "modeled_assign_latency_us"],
        rows=[
            [d.day, d.entries, round(d.physical_gb, 6), round(d.growth_gb_per_hour, 6),
             round(d.assign_rate_per_s, 3), d.lcv_violations, d.modeled_assign_latency_us]
            for d in report.drift
        ],
        notes=["live desk-scale volumes; physical size is exactly "
               "(1 + fragmentation) x 32 x entries"],
    )
    resources_doc = ReportDocument(
        title="Resource consumption per DR event",
        columns=["resource", "hash_framework", "meta_framework", "annotation"],
        rows=[[r.resource, r.hash_value, r.meta_value, r.annotation]
              for r in report.resources],
        notes=list(report.annotations),
    )
    for name, doc in (("soak-events", events_doc), ("soak-drift", drift_doc),
                      ("soak-resources", resources_doc)):
        _emit(doc, args.format, args.out, name)
    s = report.summary
    print(
        f"mean meta {s.mean_meta_s:.1f} s (cv {100 * s.cv_meta:.1f}%), "
        f"mean hash {s.mean_hash_s:.1f} s, factor range "
        f"[{s.factor_min:.2f}, {s.factor_max:.2f}], violations {s.violations.total}"
    )
    if s.violations.total:
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_verify(args) -> int:
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    ok, lines = verify.run_suites(names, seed=args.seed if args.seed is not None else 0)
    for line in lines:
        print(line)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metadr",
        description="metadata-driven DR engine: analytical models, simulator, soak",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=FORMATS, default="text")
        p.add_argument("--out", default=None, help="directory for report files")

    p = sub.add_parser("rto", help="recovery-time decomposition for given parameters")
    p.add_argument("--D", type=float, required=True, help="total data bytes")
    p.add_argument("--delta", type=float, required=True, help="delta bytes")
    p.add_argument("--H", type=float, default=CostModel.hash_throughput,
                   help="hash bytes/s per core")
    p.add_argument("--C", type=float, default=CostModel.cores, help="cores")
    p.add_argument("--B", type=float, default=CostModel.bandwidth, help="bandwidth bytes/s")
    p.add_argument("--S", type=float, default=CostModel.index_entry_bytes, help="index entry bytes")
    p.add_argument("--N", type=float, required=True, help="block count")
    add_common(p)
    p.set_defaults(func=cmd_rto)

    p = sub.add_parser("table2", help="capacity-scaling table with annotations")
    add_common(p)
    p.set_defaults(func=cmd_table2)

    p = sub.add_parser("tco", help="total-cost-of-ownership arithmetic")
    tco = evalmodel.TcoParams
    p.add_argument("--events", type=float, default=tco.events_per_week)
    p.add_argument("--cores", type=float, default=tco.node_cores)
    p.add_argument("--meta-core-fraction", type=float, default=tco.meta_core_fraction)
    p.add_argument("--rto-hash", type=float, default=tco.rto_hash_seconds)
    p.add_argument("--rto-meta", type=float, default=tco.rto_meta_seconds)
    p.add_argument("--price-core-hour", type=float, default=tco.price_per_core_hour)
    p.add_argument("--capacity", type=float, default=tco.capacity_bytes, help="bytes, decimal")
    p.add_argument("--dedup-rate", type=float, default=tco.dedup_rate)
    p.add_argument("--price-gb-month", type=float, default=tco.price_per_gb_month)
    add_common(p)
    p.set_defaults(func=cmd_tco)

    p = sub.add_parser("sensitivity", help="sweep one parameter, e.g. --sweep C=16,32,64,128")
    p.add_argument("--sweep", required=True)
    add_common(p)
    p.set_defaults(func=cmd_sensitivity)

    p = sub.add_parser("simulate", help="run a scenario file (or bundled name)")
    p.add_argument("scenario")
    p.add_argument("--seed", default=None)
    add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("soak", help="run the soak driver")
    p.add_argument("--preset", default="paper-soak")
    p.add_argument("--config", default=None, help="soak config YAML (overrides preset)")
    p.add_argument("--seed", default=None)
    add_common(p)
    p.set_defaults(func=cmd_soak)

    p = sub.add_parser("verify", help="run property suites")
    p.add_argument("--suite", choices=[*verify.SUITES, "all"], default="all")
    p.add_argument("--seed", default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("simulate", "soak", "verify"):
        name, raw_seed = "--seed", args.seed
        if raw_seed is None:
            name, raw_seed = "METADR_SEED", os.environ.get("METADR_SEED") or None
        if raw_seed is not None:
            try:
                args.seed = whole(name, raw_seed)
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_USAGE
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

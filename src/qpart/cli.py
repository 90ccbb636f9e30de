"""Command-line surface: count, enumerate, series, bijection, verify, report.

Every command is deterministic; output is byte-identical across runs once
``--no-timestamp`` suppresses the generation timestamp and wall times.
Exit status: 0 on success or verification pass, 1 on a verification or
round-trip mismatch (the witness is printed), 2 on usage errors, including
a request past the 64-bit coefficient range of the series engine and a
round-trip sweep of a weight class that lies outside the map's domain.

The default truncation order for series output can be overridden with the
``QPART_DEFAULT_ORDER`` environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import datetime, timezone

from . import bijections
from .counting import (
    c_family_ambiguity,
    count_by_enumeration,
    count_by_series,
    count_table,
    enumerate_class,
    gf,
)
from .partitions import AnchoredPartition, ClassSpec, Partition, PartitionError
from .series import CoefficientOverflowError
from .verify import TASKS, run_all, run_task, reports_to_junit

DEFAULT_ORDER_ENV = "QPART_DEFAULT_ORDER"


def _default_order(parser: argparse.ArgumentParser) -> int:
    value = os.environ.get(DEFAULT_ORDER_ENV, "200")
    try:
        return int(value)
    except ValueError:
        parser.error(f"{DEFAULT_ORDER_ENV} must be an integer, got {value!r}")


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _make_spec(parser: argparse.ArgumentParser, class_id: str, k: int | None) -> ClassSpec:
    try:
        return ClassSpec(class_id, k)
    except PartitionError as err:
        parser.error(str(err))


def _parse_partition(parser, text: str, anchor: int | None):
    try:
        parts = Partition.from_parts(int(x) for x in text.split(",") if x.strip() != "")
        if anchor is not None:
            return AnchoredPartition(anchor, parts)
        return parts
    except (ValueError, PartitionError) as err:
        parser.error(f"bad --parts value: {err}")


def _series_or_exit(parser, spec: ClassSpec, order: int):
    """gf(spec, order); on a coefficient overflow, exit 2 naming the largest
    order that builds for the class, found by bisecting below `order`."""
    try:
        return gf(spec, order)
    except CoefficientOverflowError as err:
        fits, overflows = 0, order
        while overflows - fits > 1:
            mid = (fits + overflows) // 2
            try:
                gf(spec, mid)
                fits = mid
            except CoefficientOverflowError:
                overflows = mid
        parser.error(f"{err}; the largest order that builds for {spec} is {fits}")


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_count(parser, args) -> int:
    spec = _make_spec(parser, args.klass, args.k)
    if args.n is None and args.nmax is None:
        parser.error("count needs --n or --nmax")
    methods = ("enumeration", "series") if args.method == "both" else (args.method,)
    if args.raw_diagnostic:
        if spec.class_id not in ("Ck_e", "Ck_o"):
            parser.error("--raw-diagnostic applies to the anchored Ck classes")
        report = c_family_ambiguity(spec.k, args.n if args.n is not None else args.nmax)
        _emit(json.dumps(report.to_json_dict(), indent=2))
        return 0
    if "series" in methods:
        # the order count_by_series and count_table build
        _series_or_exit(parser, spec, max(args.n if args.n is not None else args.nmax,
                                          args.order or 0))
    if args.n is not None:
        values = {}
        for method in methods:
            if method == "enumeration":
                values[method] = count_by_enumeration(spec, args.n)
            else:
                values[method] = count_by_series(spec, args.n, args.order)
        if len(set(values.values())) > 1:
            _emit(f"path disagreement for {spec} at n={args.n}: {values}")
            return 1
        value = next(iter(values.values()))
        if args.format == "json":
            _emit(json.dumps({"class": spec.class_id, "k": spec.k,
                              "n": args.n, "count": value,
                              "methods": sorted(values)}))
        else:
            _emit(str(value))
        return 0
    tables = [count_table(spec, args.nmax, m, args.order) for m in methods]
    if len(tables) == 2 and tables[0].values != tables[1].values:
        diff = {n for n in tables[0].values
                if tables[0].values[n] != tables[1].values[n]}
        _emit(f"path disagreement for {spec} at n in {sorted(diff)}")
        return 1
    table = tables[0]
    if args.format == "json":
        _emit(json.dumps(table.to_json_dict(), indent=2))
    elif args.format == "csv":
        _emit(table.to_csv())
    else:
        _emit(table.to_markdown())
    return 0


def _cmd_enumerate(parser, args) -> int:
    spec = _make_spec(parser, args.klass, args.k)
    members = enumerate_class(spec, args.n)
    if args.format == "json":
        _emit(json.dumps({"class": spec.class_id, "k": spec.k, "n": args.n,
                          "count": len(members),
                          "members": [m.to_json() for m in members]}, indent=2))
    else:
        lines = [f"| # | member of {spec} at n={args.n} |", "| --- | --- |"]
        lines.extend(f"| {i} | {m} |" for i, m in enumerate(members, 1))
        lines.append(f"\n{len(members)} member(s)")
        _emit("\n".join(lines))
    return 0


def _cmd_series(parser, args) -> int:
    spec = _make_spec(parser, args.klass, args.k)
    order = args.order if args.order is not None else _default_order(parser)
    series = _series_or_exit(parser, spec, order)
    if args.format == "csv":
        lines = ["n,coefficient"]
        lines.extend(f"{i},{c}" for i, c in enumerate(series.coeffs))
        _emit("\n".join(lines))
    elif args.format == "markdown":
        _emit(f"generating function of {spec} up to q^{order}:\n\n{series}")
    else:
        _emit(json.dumps(series.to_json_dict()))
    return 0


def _apply_named_bijection(args, value):
    name = args.name
    if name == "glaisher":
        image = bijections.glaisher_merge(value)
        return image, ("binary-merge",)
    if name == "akdk":
        out = bijections.akdk_map(args.k, value)
        return out.image, out.case_tag
    if name == "dk-recurrence":
        out = bijections.dk_recurrence_map(args.k, value, args.source)
        return out.image, out.case_tag
    if name == "base-bc":
        if isinstance(value, AnchoredPartition):
            return bijections.base_bc_inverse(value, args.strategy), (f"base[{args.strategy}]",)
        return bijections.base_bc_map(value, args.strategy), (f"base[{args.strategy}]",)
    if name == "bkck":
        if isinstance(value, AnchoredPartition):
            out = bijections.bkck_inverse(args.k, args.parity, value, args.strategy)
        else:
            out = bijections.bkck_map(args.k, args.parity, value, args.strategy)
        return out.image, out.case_tag
    if name == "ef-shift":
        return bijections.ef_shift(args.direction, value), (args.direction,)
    raise AssertionError(name)


def _roundtrip_cases(parser, args):
    """(source value, forward callable, inverse callable) triples at weight n."""
    n, k, parity, strategy = args.n, args.k, args.parity, args.strategy
    name = args.name
    if name == "glaisher":
        for p in enumerate_class(ClassSpec("B"), n):
            yield p, bijections.glaisher_merge, bijections.glaisher_split
    elif name == "akdk":
        for p in enumerate_class(ClassSpec("Dk", k), n):
            yield p, lambda v: bijections.akdk_map(k, v), \
                lambda out: bijections.akdk_inverse(k, out)
    elif name == "dk-recurrence":
        for source, mult in ((bijections.SOURCE_DK, k), (bijections.SOURCE_DK_MINUS_1, k - 1)):
            for p in enumerate_class(ClassSpec("Dk", mult), n):
                yield p, (lambda v, s=source: bijections.dk_recurrence_map(k, v, s)), \
                    (lambda out, s=source: bijections.dk_recurrence_inverse(k, out)[0])
    elif name == "base-bc":
        for p in enumerate_class(ClassSpec("B"), n):
            yield p, (lambda v: bijections.base_bc_map(v, strategy)), \
                (lambda image: bijections.base_bc_inverse(image, strategy))
    elif name == "bkck":
        for p in enumerate_class(ClassSpec(f"Bk_{parity}", k), n):
            yield p, (lambda v: bijections.bkck_map(k, parity, v, strategy)), \
                (lambda out: bijections.bkck_inverse(k, parity, out.image, strategy).image)
    elif name == "ef-shift":
        for p in enumerate_class(ClassSpec("B"), n):
            yield p, (lambda v: bijections.ef_shift("B->F", v)), \
                (lambda image: bijections.ef_shift("F->B", image))
            yield p, (lambda v: bijections.ef_shift("B->E", v)), \
                (lambda image: bijections.ef_shift("E->B", image))
    else:
        parser.error(f"unknown bijection {name!r}")


def _sweep_domain_error(args) -> str | None:
    """Why no member of the swept weight class is in the map's domain, or
    None.  A negative weight is left to the enumeration's own message."""
    if args.n < 0:
        return None
    if args.name == "akdk" and args.n < 2:
        return "map defined for weight >= 2"
    if args.name == "dk-recurrence":
        if args.k < 2:
            return "recurrence needs k >= 2"
        if args.n <= args.k - 1:
            return "weight must exceed k-1"
    return None


def _cmd_bijection(parser, args) -> int:
    needs_k = args.name in ("akdk", "dk-recurrence", "bkck")
    if needs_k and args.k is None:
        parser.error(f"bijection {args.name} needs --k")
    if args.name == "bkck" and args.parity is None:
        parser.error("bijection bkck needs --parity")
    if args.name == "ef-shift" and args.parts and args.direction is None:
        parser.error("ef-shift on explicit --parts needs --direction")

    if args.parts:
        value = _parse_partition(parser, args.parts, args.anchor)
        try:
            image, tags = _apply_named_bijection(args, value)
        except bijections.BijectionError as err:
            _emit(f"bijection failed: {err}")
            return 1
        record = {"source": value.to_json(), "image": image.to_json()}
        if args.trace:
            record["case_tag"] = list(tags)
        _emit(json.dumps(record, indent=2))
        return 0

    if args.n is None:
        parser.error("bijection needs --parts or --n")
    if not args.roundtrip:
        parser.error("without --parts, use --roundtrip to sweep a weight class")
    reason = _sweep_domain_error(args)
    if reason:
        parser.error(f"{args.name} --k {args.k} --n {args.n} is outside the map's domain: "
                     f"{reason}")

    if args.name == "base-bc" and args.strategy == bijections.AKY_SKETCH:
        report = bijections.sketch_harness(args.n)
        _emit(json.dumps(report.to_json_dict(), indent=2))
        _emit(f"sketch harness: {report.succeeded}/{report.attempted} members mapped; "
              f"{len(report.failures)} flagged")
        return 0

    checked = 0
    traces = []
    for source, forward, inverse in _roundtrip_cases(parser, args):
        checked += 1
        try:
            out = forward(source)
            back = inverse(out)
        except bijections.BijectionError as err:
            _emit(f"FAIL at {source}: {err}")
            return 1
        if back != source:
            _emit(f"FAIL round-trip at {source}: came back as {back}")
            return 1
        if args.trace:
            image = out.image if isinstance(out, bijections.BijectionOutcome) else out
            tags = out.case_tag if isinstance(out, bijections.BijectionOutcome) else ()
            traces.append({"source": source.to_json(), "image": image.to_json(),
                           "case_tag": list(tags)})
    if args.trace:
        _emit(json.dumps(traces, indent=2))
    _emit(f"round-trip OK over {checked} member(s) at weight {args.n}")
    return 0


def _render_reports(reports, args) -> int:
    include_timing = not args.no_timestamp
    if args.format == "json":
        payload = {"reports": [r.to_json_dict(include_timing) for r in reports]}
        if include_timing:
            payload["generated_at"] = _timestamp()
        _emit(json.dumps(payload, indent=2))
    else:
        lines = []
        if include_timing:
            lines.append(f"generated at {_timestamp()}\n")
        lines.extend(r.to_markdown(include_timing) for r in reports)
        total = sum(r.checked_cells for r in reports)
        failed = [r.task_id for r in reports if not r.passed]
        verdict = "ALL PASS" if not failed else f"FAILED: {', '.join(failed)}"
        lines.append(f"## {verdict} ({len(reports)} task(s), {total} cells)\n")
        _emit("\n".join(lines))
    if args.junit:
        with open(args.junit, "w", encoding="utf-8") as fh:
            fh.write(reports_to_junit(reports))
    return 0 if all(r.passed for r in reports) else 1


def _cmd_verify(parser, args) -> int:
    if args.task not in TASKS:
        parser.error(f"unknown task {args.task!r}; known: {', '.join(TASKS)}")
    overrides = {"nmax": args.nmax, "kmax": args.kmax, "order": args.order}
    for flag, value in overrides.items():
        if value is not None and flag not in TASKS[args.task].parameters:
            parser.error(f"task {args.task} takes no --{flag}")
    report = run_task(args.task, **overrides)
    return _render_reports([report], args)


def _cmd_report(parser, args) -> int:
    if not args.all:
        parser.error("report currently supports --all")
    reports = run_all()
    return _render_reports(reports, args)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_format(p, choices=("markdown", "json", "csv"), default="markdown"):
    p.add_argument("--format", choices=choices, default=default,
                   help=f"output format (default {default})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpart",
        description="Exact partition-class counting, bijections, and identity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="count class members")
    p_count.add_argument("--class", dest="klass", required=True)
    p_count.add_argument("--k", type=int)
    weights = p_count.add_mutually_exclusive_group()
    weights.add_argument("--n", type=int, help="one weight")
    weights.add_argument("--nmax", type=int, help="every weight from 0 to this one")
    p_count.add_argument("--method", choices=("enumeration", "series", "both"),
                         default="enumeration")
    p_count.add_argument("--order", type=int)
    p_count.add_argument("--raw-diagnostic", action="store_true",
                         help="anchored vs raw multiset counts for Ck classes")
    _add_format(p_count)
    p_count.set_defaults(handler=_cmd_count)

    p_enum = sub.add_parser("enumerate", help="list class members of one weight")
    p_enum.add_argument("--class", dest="klass", required=True)
    p_enum.add_argument("--k", type=int)
    p_enum.add_argument("--n", type=int, required=True)
    _add_format(p_enum, choices=("markdown", "json"))
    p_enum.set_defaults(handler=_cmd_enumerate)

    p_series = sub.add_parser("series", help="print a class generating function")
    p_series.add_argument("--class", dest="klass", required=True)
    p_series.add_argument("--k", type=int)
    p_series.add_argument("--order", type=int,
                          help=f"truncation order (default {DEFAULT_ORDER_ENV} or 200)")
    _add_format(p_series, default="json")
    p_series.set_defaults(handler=_cmd_series)

    p_bij = sub.add_parser("bijection", help="apply or round-trip a bijection")
    p_bij.add_argument("--name", required=True,
                       choices=("glaisher", "akdk", "dk-recurrence", "base-bc",
                                "bkck", "ef-shift"))
    p_bij.add_argument("--k", type=int)
    p_bij.add_argument("--parity", choices=("e", "o"))
    p_bij.add_argument("--n", type=int, help="weight class to sweep")
    p_bij.add_argument("--parts", help="comma-separated parts of a single input")
    p_bij.add_argument("--anchor", type=int,
                       help="anchor when --parts gives an anchored input")
    p_bij.add_argument("--source", choices=(bijections.SOURCE_DK, bijections.SOURCE_DK_MINUS_1),
                       default=bijections.SOURCE_DK,
                       help="source class tag for dk-recurrence on --parts")
    p_bij.add_argument("--direction", choices=("B->F", "F->B", "B->E", "E->B"))
    p_bij.add_argument("--strategy", choices=bijections.STRATEGIES,
                       default=bijections.RANK)
    p_bij.add_argument("--roundtrip", action="store_true")
    p_bij.add_argument("--trace", action="store_true",
                       help="print case-tag chains as JSON")
    p_bij.set_defaults(handler=_cmd_bijection)

    p_verify = sub.add_parser("verify", help="run one registered identity task")
    p_verify.add_argument("--task", required=True)
    p_verify.add_argument("--nmax", type=int)
    p_verify.add_argument("--kmax", type=int)
    p_verify.add_argument("--order", type=int)
    p_verify.add_argument("--junit", help="write a JUnit XML summary to this path")
    p_verify.add_argument("--no-timestamp", action="store_true",
                          help="suppress timestamps and wall times for byte-stable output")
    _add_format(p_verify, choices=("markdown", "json"))
    p_verify.set_defaults(handler=_cmd_verify)

    p_report = sub.add_parser("report", help="run every registered task")
    p_report.add_argument("--all", action="store_true")
    p_report.add_argument("--junit", help="write a JUnit XML summary to this path")
    p_report.add_argument("--no-timestamp", action="store_true")
    _add_format(p_report, choices=("markdown", "json"))
    p_report.set_defaults(handler=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(parser, args)
    except (PartitionError, CoefficientOverflowError) as err:
        parser.error(str(err))


if __name__ == "__main__":
    sys.exit(main())

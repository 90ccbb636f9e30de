"""Command-line surface: count, enumerate, series, bijection, verify, report.

Every command is deterministic; output is byte-identical across runs once
``--no-timestamp`` suppresses the generation timestamp and wall times.
Exit status: 0 on success or verification pass, 1 on a verification or
round-trip mismatch (the witness is printed), 2 on usage errors, including
a request past the 64-bit coefficient range of the series engine (the
library's message names the largest order that builds), a round-trip sweep
of a weight class that lies outside the map's domain or has no member, and
a flag that the command or the map does not read.

The default truncation order for series output can be overridden with the
``QPART_DEFAULT_ORDER`` environment variable.
"""

from __future__ import annotations

import argparse
import inspect
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

# every grid parameter some task takes, in registry order -> its `verify` flag
VERIFY_GRID_FLAGS = {p: "--" + p.replace("_", "-")
                     for t in TASKS.values() for p in t.parameters}


def _default_order(parser: argparse.ArgumentParser) -> int:
    value = os.environ.get(DEFAULT_ORDER_ENV, "200")
    try:
        return int(value)
    except ValueError:
        parser.error(f"{DEFAULT_ORDER_ENV} must be an integer, got {value!r}")


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _parse_partition(parser, text: str, anchor: int | None):
    try:
        parts = Partition.from_parts(int(x) for x in text.split(",") if x.strip() != "")
        if anchor is not None:
            return AnchoredPartition(anchor, parts)
        return parts
    except (ValueError, PartitionError) as err:
        parser.error(f"bad --parts value: {err}")


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_count(parser, args) -> int:
    spec = ClassSpec(args.klass, args.k)
    if args.n is None and args.nmax is None:
        parser.error("count needs --n or --nmax")
    if args.raw_diagnostic:
        if spec.class_id not in ("Ck_e", "Ck_o"):
            parser.error("--raw-diagnostic applies to the anchored Ck classes")
        for flag in ("nmax", "method", "format"):
            if getattr(args, flag) is not None:
                parser.error(f"count --raw-diagnostic takes no --{flag}")
        report = c_family_ambiguity(spec.k, args.n)
        _emit(json.dumps(report.to_json_dict(), indent=2))
        return 0
    method, fmt = args.method or "enumeration", args.format or "markdown"
    methods = ("enumeration", "series") if method == "both" else (method,)
    if "series" in methods:
        # the series count_by_series and count_table read, built before any
        # walk; a negative weight is left for the count to refuse
        gf(spec, max(args.n if args.n is not None else args.nmax, 0))
    if args.n is not None:
        values = {}
        for method in methods:
            if method == "enumeration":
                values[method] = count_by_enumeration(spec, args.n)
            else:
                values[method] = count_by_series(spec, args.n)
        if len(set(values.values())) > 1:
            _emit(f"path disagreement for {spec} at n={args.n}: {values}")
            return 1
        value = next(iter(values.values()))
        if fmt == "json":
            _emit(json.dumps({"class": spec.class_id, "k": spec.k,
                              "n": args.n, "count": value,
                              "methods": sorted(values)}))
        else:
            _emit(str(value))
        return 0
    tables = [count_table(spec, args.nmax, m) for m in methods]
    if len(tables) == 2 and tables[0].values != tables[1].values:
        diff = {n for n in tables[0].values
                if tables[0].values[n] != tables[1].values[n]}
        _emit(f"path disagreement for {spec} at n in {sorted(diff)}")
        return 1
    table = tables[0]
    if fmt == "json":
        _emit(json.dumps(table.to_json_dict(), indent=2))
    elif fmt == "csv":
        _emit(table.to_csv())
    else:
        _emit(table.to_markdown())
    return 0


def _cmd_enumerate(parser, args) -> int:
    spec = ClassSpec(args.klass, args.k)
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
    spec = ClassSpec(args.klass, args.k)
    order = args.order if args.order is not None else _default_order(parser)
    series = gf(spec, order)
    if args.format == "csv":
        lines = ["n,coefficient"]
        lines.extend(f"{i},{c}" for i, c in enumerate(series.coeffs))
        _emit("\n".join(lines))
    elif args.format == "markdown":
        _emit(f"generating function of {spec} up to q^{order}:\n\n{series}")
    else:
        _emit(json.dumps(series.to_json_dict()))
    return 0


def _flags(function) -> dict[str, inspect.Parameter]:
    """The flags a ``bijections.MAPS`` function reads: its parameters besides
    its input (``value`` of apply, ``n`` of domain)."""
    return {name: param for name, param in inspect.signature(function).parameters.items()
            if name not in ("value", "n")}


def _call(function, flags: dict, *inputs):
    """``function(*inputs)`` with those of the given flags that it reads."""
    return function(*inputs, **{f: flags[f] for f in _flags(function) if f in flags})


# every flag some bijection reads, in table order
BIJECTION_FLAGS = tuple(dict.fromkeys(
    flag for row in bijections.MAPS.values() for fn in row for flag in _flags(fn)))


def _cmd_bijection(parser, args) -> int:
    row = bijections.MAPS[args.name]
    reads = _flags(row.apply) if args.parts else {**_flags(row.sweep), **_flags(row.domain)}
    for flag in BIJECTION_FLAGS:
        given = getattr(args, flag) is not None
        if given and flag not in reads:
            parser.error(f"bijection {args.name} takes no --{flag}"
                         + (" without --parts" if flag in _flags(row.apply) else ""))
        if not given and flag in reads and reads[flag].default is inspect.Parameter.empty:
            parser.error(f"bijection {args.name} needs --{flag}")
    flags = {flag: getattr(args, flag) for flag in reads if getattr(args, flag) is not None}

    if args.parts:
        value = _parse_partition(parser, args.parts, args.anchor)
        try:
            image, tags = _call(row.apply, flags, value)
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
    # a negative weight is left to the enumeration's own message
    reason = _call(row.domain, flags, args.n) if args.n >= 0 else None
    if reason:
        shown = "".join(f"--{f} {v} " for f, v in flags.items())
        parser.error(f"{args.name} {shown}--n {args.n} is outside the map's domain: {reason}")
    sweeps = [(spec, enumerate_class(spec, args.n), directions)
              for spec, directions in _call(row.sweep, flags)]
    checked = sum(len(members) * len(directions) for _, members, directions in sweeps)
    if not checked:
        parser.error(f"bijection {args.name} --n {args.n} checks nothing: no member of "
                     f"{' or '.join(str(spec) for spec, _, _ in sweeps)} has weight {args.n}")

    if args.name == "base-bc" and args.strategy == bijections.AKY_SKETCH:
        report = bijections.sketch_harness(args.n)
        _emit(json.dumps(report.to_json_dict(), indent=2))
        _emit(f"sketch harness: {report.succeeded}/{report.attempted} members mapped; "
              f"{len(report.failures)} flagged")
        return 0

    traces = []
    cases = ((source, forward, inverse) for _, members, directions in sweeps
             for source in members for forward, inverse in directions)
    for source, forward, inverse in cases:
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
    task = TASKS[args.task]
    overrides = {name: getattr(args, name) for name in VERIFY_GRID_FLAGS}
    for name, value in overrides.items():
        if value is None:
            continue
        flag = VERIFY_GRID_FLAGS[name]
        if name not in task.parameters:
            parser.error(f"task {args.task} takes no {flag}")
        if value < task.least[name]:
            parser.error(f"task {args.task} takes {flag} >= {task.least[name]}, not {value}")
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
    # --method and --format default to None, so that --raw-diagnostic, which
    # reads neither, can refuse them when given
    p_count.add_argument("--method", choices=("enumeration", "series", "both"),
                         help="counting path (default enumeration)")
    p_count.add_argument("--raw-diagnostic", action="store_true",
                         help="anchored vs raw multiset counts for Ck classes, as JSON")
    p_count.add_argument("--format", choices=("markdown", "json", "csv"),
                         help="output format (default markdown)")
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
    p_bij.add_argument("--name", required=True, choices=tuple(bijections.MAPS))
    p_bij.add_argument("--k", type=int)
    p_bij.add_argument("--parity", choices=("e", "o"))
    p_bij.add_argument("--n", type=int, help="weight class to sweep")
    p_bij.add_argument("--parts", help="comma-separated parts of a single input")
    p_bij.add_argument("--anchor", type=int,
                       help="anchor when --parts gives an anchored input")
    p_bij.add_argument("--source", choices=(bijections.SOURCE_DK, bijections.SOURCE_DK_MINUS_1),
                       help="source class tag for dk-recurrence on --parts")
    p_bij.add_argument("--direction", choices=bijections.EF_DIRECTIONS)
    p_bij.add_argument("--strategy", choices=bijections.STRATEGIES)
    p_bij.add_argument("--roundtrip", action="store_true")
    p_bij.add_argument("--trace", action="store_true",
                       help="print case-tag chains as JSON")
    p_bij.set_defaults(handler=_cmd_bijection)

    p_verify = sub.add_parser("verify", help="run one registered identity task")
    p_verify.add_argument("--task", required=True)
    for flag in VERIFY_GRID_FLAGS.values():
        p_verify.add_argument(flag, type=int)
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

"""Command-line surface: count, enumerate, series, bijection, verify, report.

Every command is deterministic; output is byte-identical across runs once
``--no-timestamp`` suppresses the generation timestamp and wall times.
Exit status: 0 on success or verification pass, 1 on a verification or
round-trip mismatch (the witness is printed), 2 on usage errors, including
a request past the 64-bit coefficient range of the series engine (the
library's message names the largest order that builds), a weight past the
largest that a row walk takes or whose members are built (the message names
the limit), a ``--junit`` path that cannot be written (the message names
it), a round-trip sweep of a weight class that lies outside the map's
domain or has no member, and a flag that the command or the map does not
read.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bijections
from .counting import PATHS, c_family_ambiguity, count_table, enumerate_class, gf
from .partitions import AnchoredPartition, ClassSpec, Partition, PartitionError
from .series import CoefficientOverflowError
from .verify import TASKS, reports_to_junit, run_all, run_task, task_grid

# every grid parameter some task takes, in registry order -> its `verify` flag
VERIFY_GRID_FLAGS = {p: "--" + p.replace("_", "-")
                     for t in TASKS.values() for p in t.parameters}


def _timestamp() -> str:
    from datetime import datetime, timezone  # here, so that start-up does not load it

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
    hi = args.n if args.n is not None else args.nmax
    # both paths in PATHS order, which builds the series before any walk
    methods = tuple(PATHS) if method == "both" else (method,)
    tables = {m: count_table(spec, hi, m) for m in methods}
    # the paths compare at the weights printed, and print as the first by name
    table, *rest = (tables[m] for m in sorted(tables))
    shown = [hi] if args.n is not None else range(hi + 1)
    diff = [n for n in shown if any(t.values[n] != table.values[n] for t in rest)]
    if diff:
        values = {m: tables[m].values[hi] for m in sorted(tables)}
        _emit(f"path disagreement for {spec} at n={hi}: {values}" if args.n is not None
              else f"path disagreement for {spec} at n in {diff}")
        return 1
    if args.n is not None and fmt == "json":
        _emit(json.dumps({"class": spec.class_id, "k": spec.k, "n": hi,
                          "count": table.values[hi], "methods": sorted(tables)}))
    elif args.n is not None:
        _emit(str(table.values[hi]))
    elif fmt == "json":
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
    series = gf(spec, args.order)
    if args.format == "csv":
        lines = ["n,coefficient"]
        lines.extend(f"{i},{c}" for i, c in enumerate(series.coeffs))
        _emit("\n".join(lines))
    elif args.format == "markdown":
        _emit(f"generating function of {spec} up to q^{args.order}:\n\n{series}")
    else:
        _emit(json.dumps(series.to_json_dict()))
    return 0


def _flags(function) -> dict[str, bool]:
    """The flags a ``bijections.MAPS`` function reads, each mapped to
    whether it has a default: its parameters besides its input (``value`` of
    apply, ``n`` of domain), read off its code object."""
    code = function.__code__
    names = code.co_varnames[:code.co_argcount]
    required = len(names) - len(function.__defaults__ or ())
    return {name: i >= required for i, name in enumerate(names) if name not in ("value", "n")}


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
        if not given and flag in reads and not reads[flag]:
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


def _render_reports(parser, reports, args) -> int:
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
        try:
            with open(args.junit, "w", encoding="utf-8") as fh:
                fh.write(reports_to_junit(reports))
        except OSError as err:
            parser.error(f"cannot write the JUnit summary to {args.junit}: {err.strerror}")
    return 0 if all(r.passed for r in reports) else 1


def _cmd_verify(parser, args) -> int:
    overrides = {name: getattr(args, name) for name in VERIFY_GRID_FLAGS}
    try:
        grid = task_grid(args.task, overrides, VERIFY_GRID_FLAGS.__getitem__)
    except (KeyError, TypeError, ValueError) as err:
        parser.error(err.args[0])
    report = run_task(args.task, **grid)
    return _render_reports(parser, [report], args)


def _cmd_report(parser, args) -> int:
    if not args.all:
        parser.error("report currently supports --all")
    reports = run_all()
    return _render_reports(parser, reports, args)


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
    p_series.add_argument("--order", type=int, default=200,
                          help="truncation order (default 200)")
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

"""Command-line surface.

Commands: sequence, ppt, classify, qfs-height, fpt, criteria, corpus.
Exit codes: 0 success, 2 invalid input, 3 resource limit, 4 internal
assertion failure (including corpus mismatches).  With ``--json`` the
result record (or a machine-readable error object) goes to stdout;
records are schema-stable and byte-identical across runs apart from the
timings block.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import __version__
from .cache import ResultCache, content_hash
from .corpus import run_corpus
from .delta import validate
from .errors import (
    CorpusMismatchError,
    InputError,
    InternalCheckError,
    PptlabError,
    ResourceLimitError,
    UsageError,
)
from .ladder import compute_ladder
from .parser import expand_var_spec, parse_poly
from .pipeline import Analysis, analyze
from .ring import DEFAULT_MAX_GENERATORS, DEFAULT_MAX_WORKSPACE_MONOMIALS, Context, render
from .verdict import QfsResult, QuickCriteria, check_quick_criteria, nu_table, regularity_test

SCHEMA_ID = "pptlab/result/1"
# Raised whenever what a record says for an input changes while
# ``__version__`` and the schema stay.  Cache lines are keyed by both, so a
# line written under an earlier revision misses.  2: proven repeats and
# F-pure read-offs are certified (basis "repeat" / "fpure").
RECORD_REVISION = 2

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_RESOURCE_LIMIT = 3
EXIT_INTERNAL = 4

ANALYSIS_COMMANDS = ("sequence", "ppt", "classify", "qfs-height")


def _rational(value: Fraction | None) -> dict | None:
    if value is None:
        return None
    return {
        "num": str(value.numerator),
        "den": str(value.denominator),
        "approx": float(value),
    }


def _sequence_block(analysis: Analysis) -> dict:
    seq = analysis.seq
    return {
        "values": list(seq.values),
        "depth": seq.depth,
        "terminated_at_p": seq.terminated_at_p,
    }


def _ppt_block(analysis: Analysis) -> dict:
    return {
        "partial": _rational(analysis.partial),
        "exact": _rational(analysis.exact),
        "preperiod": analysis.preperiod,
        "period": analysis.period,
        "conjectural": analysis.conjectural,
    }


def _criteria_block(criteria: QuickCriteria) -> dict:
    return {**vars(criteria), "fired": sorted(criteria.fired)}


def build_record(args: argparse.Namespace, ctx: Context, f, inp: dict, input_hash: str) -> dict:
    """Compute one analysis request, f parsed in ctx, into a schema-stable
    record around its ``_input_block`` and that block's ``input_hash``."""
    h = validate(ctx, f)

    record = {
        "schema": SCHEMA_ID,
        "tool_version": __version__,
        "command": args.command,
        "input": inp,
        "input_hash": input_hash,
        "sequence": None,
        "verdict": None,
        "ppt": None,
        "qfs_height": None,
        "nu_table": None,
        "fpt": None,
        "criteria": None,
        "annotations": [],
        "timings": {"per_depth_ms": [], "total_ms": 0.0},
    }

    t0 = time.perf_counter()
    if args.command in ANALYSIS_COMMANDS:
        analysis = analyze(h, args.depth, strict_r1=args.strict_r1)
        # verdict, qfs_height and criteria are their result types' fields:
        # a field added to one of those types is a record change
        v = analysis.verdict
        record["sequence"] = _sequence_block(analysis)
        record["verdict"] = {**vars(v), "certified": v.certified}
        record["ppt"] = _ppt_block(analysis)
        record["qfs_height"] = dict(vars(analysis.qfs))
        record["criteria"] = _criteria_block(analysis.criteria)
        record["timings"]["per_depth_ms"] = [
            round(ms, 3) for ms in analysis.seq.per_depth_ms or ()
        ]
        if args.trace:
            seq = analysis.seq
            record["trace"] = [
                [str(g) for g in compute_ladder(h, seq.values[1 : n + 1]).gens]
                for n in range(1, (seq.terminated_at_p or seq.depth) + 1)
            ]
    elif args.command == "fpt":
        table = nu_table(h.f_res, args.emax)
        record["nu_table"] = {str(e): v for e, v in table.items()}
        record["fpt"] = {
            "e_max": args.emax,
            "approx": _rational(Fraction(table[args.emax], ctx.p**args.emax)),
            "regular": regularity_test(h),
        }
    elif args.command == "criteria":
        record["criteria"] = _criteria_block(check_quick_criteria(h))
    record["timings"]["total_ms"] = round((time.perf_counter() - t0) * 1000.0, 3)
    return record


def _flags_dict(args: argparse.Namespace) -> dict:
    return {
        "strict_r1": args.strict_r1,
        "trace": args.trace,
        "emax": args.emax if args.command == "fpt" else None,
        "max_workspace_monomials": args.max_monomials,
        "max_generators": args.max_generators,
    }


def _input_block(args: argparse.Namespace, ctx: Context, f) -> dict:
    """The record's ``input`` block; ``input_hash`` hashes it with the command."""
    return {
        "p": ctx.p,
        "vars": list(ctx.var_names),
        "f": render(f),
        "depth": args.depth,
        "flags": _flags_dict(args),
    }


def _print_human(record: dict) -> None:
    inp = record["input"]
    print(f"p = {inp['p']}, vars = {','.join(inp['vars'])}")
    print(f"f = {inp['f']}")
    if record["sequence"]:
        values = record["sequence"]["values"]
        print(f"sequence (depth {record['sequence']['depth']}): {tuple(values)}")
    if record["verdict"]:
        v = record["verdict"]
        line = f"verdict: {v['kind']}"
        if v["basis"]:
            line += f" [basis: {v['basis']}]"
        if v["up_to_depth"] is not None:
            line += f" (up to depth {v['up_to_depth']})"
        if v["flagged_r1"]:
            line += " (flagged: run of p-1 has length 1)"
        if v["reason"]:
            line += f" (reason: {v['reason']})"
        print(line)
    if record["ppt"]:
        ppt = record["ppt"]
        if ppt["partial"]:
            print(f"ppt partial: {ppt['partial']['num']}/{ppt['partial']['den']}")
        if ppt["exact"]:
            label = "conjectural" if ppt["conjectural"] else "certified"
            print(
                f"ppt exact: {ppt['exact']['num']}/{ppt['exact']['den']} "
                f"(preperiod {ppt['preperiod']}, period {ppt['period']}, {label})"
            )
    if record["qfs_height"]:
        print(f"quasi-F-split height: {QfsResult(**record['qfs_height'])}")
    if record["criteria"]:
        c = record["criteria"]
        fired = ", ".join(c["fired"]) or "none"
        print(f"quick criteria: {fired}" + (f" ({c['note']})" if c["note"] else ""))
    if record["nu_table"]:
        pairs = ", ".join(f"nu(p^{e})={v}" for e, v in sorted(record["nu_table"].items(), key=lambda kv: int(kv[0])))
        print(f"nu: {pairs}")
    if record["fpt"]:
        fr = record["fpt"]["approx"]
        reg = "regular" if record["fpt"]["regular"] else "not regular"
        print(f"fpt approximant (e={record['fpt']['e_max']}): {fr['num']}/{fr['den']} ({reg})")
    if record.get("trace"):
        for step, gens in enumerate(record["trace"], start=1):
            inside = ", ".join(gens) or "0"
            print(f"ladder ideal at step {step}: ({inside})")


def _run_corpus(args: argparse.Namespace) -> None:
    outcomes = run_corpus(args.filter)
    mismatches: list[str] = []
    rows = []
    for outcome in outcomes:
        status = "PASS" if outcome.passed else "FAIL"
        mismatches.extend(outcome.mismatches)
        row = outcome.row
        values = outcome.analysis.seq.values
        rows.append(
            {
                "name": row.name,
                "p": row.p,
                "depth": row.depth,
                "values": list(values),
                "verdict": outcome.analysis.verdict.kind,
                "status": status,
                "annotation": row.annotation,
            }
        )
    if args.json:
        print(json.dumps({"schema": "pptlab/corpus/1", "rows": rows}, indent=2, sort_keys=True))
    else:
        if not rows:
            print("no corpus rows match the filter")
        for row in rows:
            line = (
                f"{row['status']}  {row['name']:32s} p={row['p']} "
                f"depth={row['depth']} values={tuple(row['values'])} {row['verdict']}"
            )
            print(line)
            if row["annotation"]:
                print(f"      note: {row['annotation']}")
        for m in mismatches:
            print(f"MISMATCH  {m}")
    if mismatches:
        raise CorpusMismatchError(mismatches)


class _Parser(argparse.ArgumentParser):
    """Raises ``UsageError`` on a bad command line instead of printing
    usage and exiting, so ``main`` reports it like any other input error;
    subcommand parsers are built from the same class."""

    def error(self, message: str):
        raise UsageError(message, self.prog, self.format_usage())


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pptlab",
        description=(
            "Splitting-order sequences and perfectoid pure thresholds of "
            "hypersurfaces presented mod p^2"
        ),
    )
    parser.add_argument("--version", action="version", version=f"pptlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(cmd):
        cmd.add_argument("--p", type=int, required=True, help="the prime")
        cmd.add_argument(
            "--vars",
            required=True,
            help="comma-separated variable names; ranges like x1..x5 expand",
        )
        cmd.add_argument("--f", required=True, help="polynomial expression")
        cmd.add_argument("--depth", type=int, default=8, help="sequence depth (default 8, max 24)")
        cmd.add_argument("--json", action="store_true", help="emit the JSON record")
        cmd.add_argument("--trace", action="store_true", help="include per-step ideals")
        cmd.add_argument(
            "--strict-r1",
            dest="strict_r1",
            action="store_true",
            help="report the run-length-1 pattern as inconclusive instead of not pure",
        )
        cmd.add_argument("--emax", type=int, default=5, help="nu-function depth (fpt)")
        cmd.add_argument(
            "--max-monomials", type=int, default=DEFAULT_MAX_WORKSPACE_MONOMIALS,
            help="cap on distinct monomials per workspace, nu root steps included;"
            " past it theta falls back to the scan instead of failing",
        )
        cmd.add_argument(
            "--max-generators", type=int, default=DEFAULT_MAX_GENERATORS,
            help="generator cap per step of the exact ladder, which only --trace runs",
        )
        cmd.add_argument("--cache-dir", default=None, help="result cache directory (or $PPTLAB_CACHE)")

    for name, blurb in [
        ("sequence", "compute the splitting-order sequence"),
        ("ppt", "compute the perfectoid pure threshold"),
        ("classify", "classify perfectoid purity"),
        ("qfs-height", "compute the quasi-F-split height"),
        ("fpt", "compute nu-functions and the F-pure threshold approximant"),
        ("criteria", "evaluate the quick congruence criteria"),
    ]:
        add_common(sub.add_parser(name, help=blurb))

    corpus_cmd = sub.add_parser("corpus", help="run the built-in example corpus")
    corpus_cmd.add_argument("--filter", default=None, help="substring filter on row names/tags")
    corpus_cmd.add_argument("--json", action="store_true")
    return parser


def run(args: argparse.Namespace) -> dict | None:
    """Dispatch one request; returns its record (None for ``corpus``)."""
    if args.command == "corpus":
        _run_corpus(args)
        return None
    if args.depth < 1 or args.depth > 24:
        raise InputError(f"depth must be in 1..24, got {args.depth}")
    if args.command == "fpt" and args.emax < 1:
        raise InputError(f"emax must be >= 1, got {args.emax}")

    cache = ResultCache.from_environment(args.cache_dir)
    ctx = Context(
        args.p,
        expand_var_spec(args.vars),
        max_workspace_monomials=args.max_monomials,
        max_generators=args.max_generators,
    )
    f = parse_poly(args.f, ctx)
    inp = _input_block(args, ctx, f)
    input_hash = content_hash({**inp, "command": args.command})
    version = f"{__version__}+r{RECORD_REVISION}"
    if cache is not None:
        cached = cache.get(input_hash, version)
        if cached is not None:
            return cached
    record = build_record(args, ctx, f, inp, input_hash)
    if cache is not None:
        cache.put(input_hash, version, record)
    return record


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = None
    try:
        args = make_parser().parse_args(argv)
        record = run(args)
    except PptlabError as exc:
        # a rejected command line leaves no args to read --json from
        as_json = "--json" in argv if args is None else args.json
        if as_json and not isinstance(exc, CorpusMismatchError):
            print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}, sort_keys=True))
        elif isinstance(exc, UsageError):
            print(f"{exc.usage}{exc.prog}: error: {exc}", file=sys.stderr)
        else:
            print(f"pptlab: error: {exc}", file=sys.stderr)
        return _exit_code_for(exc)
    if record is not None:
        if args.json:
            print(json.dumps(record, indent=2, sort_keys=True))
        else:
            _print_human(record)
    return EXIT_OK


def _exit_code_for(exc: PptlabError) -> int:
    if isinstance(exc, ResourceLimitError):
        return EXIT_RESOURCE_LIMIT
    if isinstance(exc, InternalCheckError):
        return EXIT_INTERNAL
    return EXIT_INVALID_INPUT


if __name__ == "__main__":
    raise SystemExit(main())

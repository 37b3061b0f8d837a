"""Command-line interface.

Verbs:

* ``analyze``    — restriction-structure report of a polynomial
* ``construct``  — build a complementary set from a polynomial
* ``verify``     — check a sequence file for the complementary-set property
* ``pmepr``      — aperiodic-autocorrelation / PMEPR report per sequence
* ``random``     — generate a random qualifying polynomial (seeded)
* ``enumerate``  — list the members of a codebook family
* ``tables``     — codebook-rate table (CSV) or golden comparison report

Exit codes: 0 success; 1 the input is well-formed but fails the mathematical
hypothesis being tested (wrong restriction shape, unbalanced couplings, a
sequence set that is not complementary, an unexpected golden mismatch);
2 malformed input, unsupported parameters, or I/O trouble.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from typing import Sequence

from . import codebook
from .construct import (
    balanced_cs,
    cs_meta_from_text,
    cs_to_text,
    doubled_cs,
    golay_candidate,
    offset_set,
    path_restriction_cs,
    quadratic_cs,
    random_qualifying_gbf,
)
from .correlation import aacf_report, read_sequences, set_report, write_sequences
from .errors import BalanceError, CskitError, DegreeError, GraphShapeError, MixedCouplingError, ParseError
from .gbf import GbfPoly, _require_power_of_two, gbf_to_json, parse_gbf, render_gbf
from .graphs import analyze

HYPOTHESIS_ERRORS = (DegreeError, GraphShapeError, MixedCouplingError, BalanceError)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _load_gbf(args: argparse.Namespace) -> GbfPoly:
    """The polynomial comes either inline (``--gbf``) or from a file/stdin."""
    if args.gbf is not None:
        return parse_gbf(args.gbf)
    if args.path is None:
        raise ParseError("no polynomial given: pass --gbf 'q=..;m=..; ...' or a file path")
    return parse_gbf(_read_text(args.path))


def _dump_json(obj, out: str | None) -> None:
    _write_text(out, json.dumps(obj, indent=2, sort_keys=True))


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.replace(",", " ").split()]
    except ValueError as exc:
        raise ParseError(f"expected a comma-separated list of integers, got {text!r}") from exc


# -- verb implementations ---------------------------------------------------------


def _cmd_analyze(args: argparse.Namespace) -> int:
    f = _load_gbf(args)
    profile = analyze(f, args.restrict or [])
    _dump_json(profile.to_json(), args.out)
    return 0


def _cmd_construct(args: argparse.Namespace) -> int:
    f = _load_gbf(args)
    restricted = args.restrict or []
    kind = args.type
    if kind == "golay":
        if restricted:
            raise ParseError("golay takes no --restrict (it uses the whole path)")
        cand = golay_candidate(f, add0=args.add0, add1=args.add1)
    elif kind == "offset":
        cand = offset_set(f, restricted=restricted)
    elif kind == "balanced":
        cand = balanced_cs(f, restricted=restricted)
    elif kind == "doubled":
        cand = doubled_cs(f, restricted=restricted)
    elif kind == "quadratic":
        cand = quadratic_cs(f, restricted)
    elif kind == "path-restriction":
        cand = path_restriction_cs(f, restricted)
    else:  # pragma: no cover - argparse restricts choices
        raise ParseError(f"unknown construction {kind!r}")
    if args.format == "json":
        _dump_json(cand.to_json(), args.out)
    else:
        _write_text(args.out, cs_to_text(cand))
    return 0


def _resolve_q(args: argparse.Namespace, text: str) -> int:
    if args.q is not None:
        return args.q
    meta = cs_meta_from_text(text)
    if meta and "q" in meta:
        return meta["q"]
    raise ParseError("cannot determine the modulus: pass --q or use a file with a 'CS q=..' header")


def _cmd_verify(args: argparse.Namespace) -> int:
    text = _read_text(args.path)
    q = _resolve_q(args, text)
    seqs = read_sequences(text, q)
    report = set_report(seqs)
    _dump_json(report, args.out)
    return 0 if report["is_cs"] else 1


def _cmd_pmepr(args: argparse.Namespace) -> int:
    text = _read_text(args.path)
    q = _resolve_q(args, text)
    seqs = read_sequences(text, q)
    reports = [aacf_report(s, oversample=args.oversample) for s in seqs]
    _dump_json(reports, args.out)
    return 0


def _cmd_random(args: argparse.Namespace) -> int:
    groups = tuple(_parse_int_list(args.groups)) if args.groups else ()
    f, restricted = random_qualifying_gbf(
        args.m, args.k, args.q, group_sizes=groups, balanced=args.balanced, seed=args.seed
    )
    profile = analyze(f, restricted)
    out = {
        "gbf": render_gbf(f),
        "gbf_json": gbf_to_json(f),
        "restricted": list(restricted),
        "profile": profile.to_json(),
    }
    if args.construct:
        builder = {"offset": offset_set, "balanced": balanced_cs, "doubled": doubled_cs}[args.construct]
        cand = builder(f, profile)
        out["construction"] = cand.to_json()
    _dump_json(out, args.out)
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    h = _require_power_of_two(args.q, "enumerate")
    sizes = tuple(_parse_int_list(args.sizes)) if args.sizes else ()
    polys = codebook.enumerate_codebook(args.family, args.m, h, r=args.r, k=args.k, sizes=sizes)
    if args.count_only:
        n = sum(1 for _ in polys)
        _write_text(args.out, str(n))
        return 0
    lines = []
    for i, f in enumerate(polys):
        if args.limit is not None and i >= args.limit:
            lines.append(f"# ... truncated at {args.limit}")
            break
        lines.append(render_gbf(f))
    _write_text(args.out, "\n".join(lines))
    return 0


def _rows_to_csv(rows: list[dict]) -> str:
    import io

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _cmd_tables(args: argparse.Namespace) -> int:
    if args.golden:
        report = codebook.golden_report()
        entries = []
        unexpected = 0
        for e in report:
            rec = e.to_json()
            if e.ok is False:
                key = (e.table, e.key, e.column)
                rec["documented"] = key in codebook.KNOWN_DISCREPANCIES
                if rec["documented"]:
                    rec["note"] = codebook.KNOWN_DISCREPANCIES[key]
                else:
                    unexpected += 1
            entries.append(rec)
        summary = {
            "entries": entries,
            "total": len(report),
            "matching": sum(1 for e in report if e.ok is True),
            "printed_only": sum(1 for e in report if e.ok is None),
            "documented_discrepancies": sum(1 for e in report if e.ok is False) - unexpected,
            "unexpected_discrepancies": unexpected,
        }
        _dump_json(summary, args.out)
        return 1 if unexpected else 0
    rows = codebook.rate_rows()
    if args.format == "json":
        _dump_json(rows, args.out)
    else:
        _write_text(args.out, _rows_to_csv(rows))
    return 0


# -- parser -----------------------------------------------------------------------


def _add_gbf_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("path", nargs="?", help="file with a polynomial ('-' for stdin)")
    p.add_argument("--gbf", help="inline polynomial, e.g. 'q=2;m=3; x0*x1 + x1*x2'")
    p.add_argument("--out", help="write output here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cskit",
        description="complementary sequence sets from generalized Boolean functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="restriction-structure report")
    _add_gbf_source(p)
    p.add_argument("-r", "--restrict", type=int, action="append", help="restricted variable index (repeatable)")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("construct", help="build a complementary set")
    _add_gbf_source(p)
    p.add_argument("-r", "--restrict", type=int, action="append", help="restricted variable index (repeatable)")
    p.add_argument(
        "--type",
        default="offset",
        choices=["offset", "balanced", "doubled", "golay", "quadratic", "path-restriction"],
        help="construction to apply (default: offset)",
    )
    p.add_argument("--add0", type=int, default=0, help="constant added to the first golay member")
    p.add_argument("--add1", type=int, default=0, help="constant added to the second golay member")
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="check a sequence file for the complementary-set property")
    p.add_argument("path", help="sequence file ('-' for stdin)")
    p.add_argument("--q", type=int, help="phase modulus (read from the file header when omitted)")
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("pmepr", help="autocorrelation / PMEPR report per sequence")
    p.add_argument("path", help="sequence file ('-' for stdin)")
    p.add_argument("--q", type=int, help="phase modulus (read from the file header when omitted)")
    p.add_argument("--oversample", type=int, default=64, help="envelope grid oversampling factor")
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(func=_cmd_pmepr)

    p = sub.add_parser("random", help="generate a random qualifying polynomial")
    p.add_argument("-m", type=int, required=True, help="number of variables")
    p.add_argument("-k", type=int, required=True, help="number of restricted variables")
    p.add_argument("--q", type=int, required=True, help="phase modulus (power of two)")
    p.add_argument("--groups", help="isolated-group sizes, e.g. '2,1' (default: none, all paths)")
    p.add_argument("--balanced", action="store_true", help="make the isolated couplings balanced")
    p.add_argument("--seed", type=int, required=True, help="RNG seed (results are reproducible)")
    p.add_argument("--construct", choices=["offset", "balanced", "doubled"], help="also build this set")
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(func=_cmd_random)

    p = sub.add_parser("enumerate", help="list the members of a codebook family")
    p.add_argument(
        "--family",
        required=True,
        choices=["erm", "a", "a1", "r", "r1", "r2", "c4", "c8", "golay"],
        help="codebook family",
    )
    p.add_argument("-m", type=int, required=True, help="number of variables")
    p.add_argument("--q", type=int, required=True, help="phase modulus (power of two)")
    p.add_argument("-r", type=int, help="effective-degree bound")
    p.add_argument("-k", type=int, help="number of restricted variables")
    p.add_argument("--sizes", help="restriction-block sizes for family r2, e.g. '2,1,1'")
    p.add_argument("--count-only", action="store_true", help="print only the number of members")
    p.add_argument("--limit", type=int, help="stop after this many members")
    p.add_argument("--out", help="write output here")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("tables", help="codebook-rate tables")
    p.add_argument("--format", default="csv", choices=["csv", "json"])
    p.add_argument("--golden", action="store_true", help="compare against the printed reference values")
    p.add_argument("--out", help="write output here")
    p.set_defaults(func=_cmd_tables)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except HYPOTHESIS_ERRORS as exc:
        print(f"cskit: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (CskitError, ValueError) as exc:
        print(f"cskit: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cskit: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Verbs:

* ``analyze``    — restriction-structure report of a polynomial
* ``construct``  — build a complementary set from a polynomial: the offset
  family, its balanced or doubled refinement, or the all-paths
  (path-restriction) set, which is the Golay pair when no variable is
  restricted
* ``verify``     — check a sequence file for the complementary-set property
* ``pmepr``      — aperiodic-autocorrelation / PMEPR report per sequence
* ``random``     — generate a random qualifying polynomial (seeded), and
  optionally build one of the ``construct`` sets from it
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
import math
import sys
from typing import Sequence

from . import codebook
from .construct import (
    balanced_cs,
    cs_to_text,
    doubled_cs,
    offset_set,
    path_restriction_cs,
    random_qualifying_gbf,
)
from .correlation import aacf_report, read_sequences, set_report
from .errors import BalanceError, CskitError, DegreeError, GraphShapeError, ParseError
from .gbf import GbfPoly, _require_power_of_two, gbf_to_json, parse_gbf, render_gbf
from .graphs import analyze

HYPOTHESIS_ERRORS = (DegreeError, GraphShapeError, BalanceError)

# the constructions of ``construct --type`` and ``random --construct``
BUILDERS = {
    "offset": offset_set,
    "balanced": balanced_cs,
    "doubled": doubled_cs,
    "path-restriction": path_restriction_cs,
}


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(path: str | None, text: str) -> None:
    text = text if text.endswith("\n") else text + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_gbf(args: argparse.Namespace) -> GbfPoly:
    """The polynomial comes either inline (``--gbf``) or from a file/stdin."""
    if args.gbf is not None:
        return parse_gbf(args.gbf)
    if args.path is None:
        raise ParseError("no polynomial given: pass --gbf 'q=..;m=..; ...' or a file path")
    return parse_gbf(_read_text(args.path))


# what json.dumps writes for a str key or value (ensure_ascii, its default)
_quote = json.encoder.encode_basestring_ascii


def _json_text(obj, pad: str = "") -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` byte for byte, for a
    value that starts at the indent ``pad``, without the pure-Python encoder
    that ``indent`` selects.

    A scalar reads the same at every indent: an exact str is quoted as the
    encoder quotes it, an exact int or finite float is its ``repr``
    (``int.__repr__`` and ``float.__repr__``, as in the encoder), and any
    other goes to the C encoder.  A dict with str keys and a list are walked,
    a list of records (:func:`_record_values`) by one ``%`` template over all
    their values, whose ``%r`` is that ``repr``.  Any other container goes to
    ``json.dumps`` with each newline re-indented, which is exact as JSON text
    holds no raw newline inside a string.  A value the encoder refuses raises
    the same exception type here, but for a cyclic one, which no verb builds:
    it recurses until RecursionError where the encoder raises ValueError.
    """
    kind = type(obj)
    if kind is str:
        return _quote(obj)
    if kind is int or (kind is float and math.isfinite(obj)):
        return repr(obj)
    inner = pad + "  "
    if kind is dict and obj and all(type(key) is str for key in obj):
        fields = [f"{inner}{_quote(key)}: {_json_text(obj[key], inner)}" for key in sorted(obj)]
        return "{\n%s\n%s}" % (",\n".join(fields), pad)
    if kind is list and obj:
        table = _record_values(obj)
        if table is None:
            return "[\n%s\n%s]" % (",\n".join([inner + _json_text(value, inner) for value in obj]), pad)
        keys, lengths, values = table
        field_pad, entry_pad = inner + "  ", inner + "    "
        fields = []
        for key, n in zip(keys, lengths):
            name = _quote(key).replace("%", "%%")
            if n is None:
                fields.append(f"{field_pad}{name}: %r")
            elif n == 0:
                fields.append(f"{field_pad}{name}: []")
            else:
                fields.append(f"{field_pad}{name}: [\n{entry_pad}" + f",\n{entry_pad}".join(["%r"] * n) + f"\n{field_pad}]")
        record = "%s{\n%s\n%s}" % (inner, ",\n".join(fields), inner)
        return ("[\n%s\n%s]" % (",\n".join([record] * len(obj)), pad)) % values
    if isinstance(obj, (dict, list, tuple)):
        return json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n" + pad)
    return json.dumps(obj)


def _record_values(rows: list) -> tuple[list[str], list[int | None], tuple] | None:
    """The sorted keys of a list of records, the length of each key's value
    list (None for a number) and every value, record by record in key order;
    None unless ``rows`` is such a list.  Records are dicts with one set of
    str keys, each key holding an exact int or finite float in every record,
    or in every record a list of as many of them."""
    first = rows[0]
    if type(first) is not dict or not first or not all(type(key) is str for key in first):
        return None
    keys = sorted(first)
    lengths = [len(first[key]) if type(first[key]) is list else None for key in keys]
    values = []
    for row in rows:
        if type(row) is not dict or row.keys() != first.keys():
            return None
        for key, n in zip(keys, lengths):
            value = row[key]
            if n is None:
                values.append(value)
            elif type(value) is list and len(value) == n:
                values += value
            else:
                return None
    if not {*map(type, values)} <= {int, float}:
        return None
    # nan and inf carry through a sum, and a sum that overflows only costs the template
    if not math.isfinite(sum(value for value in values if type(value) is float)):
        return None
    return keys, lengths, tuple(values)


def _dump_json(obj, out: str | None) -> None:
    _write_text(out, _json_text(obj))


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
    cand = BUILDERS[args.type](f, restricted=args.restrict or [])
    if args.format == "json":
        _dump_json(cand.to_json(), args.out)
    else:
        _write_text(args.out, cs_to_text(cand))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report = set_report(read_sequences(_read_text(args.path), args.q))
    _dump_json(report, args.out)
    return 0 if report["is_cs"] else 1


def _cmd_pmepr(args: argparse.Namespace) -> int:
    reports = [aacf_report(s, oversample=args.oversample) for s in read_sequences(_read_text(args.path), args.q)]
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
        cand = BUILDERS[args.construct](f, profile)
        out["construction"] = cand.to_json()
    _dump_json(out, args.out)
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    if args.limit is not None and args.limit < 0:
        raise ValueError(f"--limit must be >= 0, got {args.limit}")
    h = _require_power_of_two(args.q, "enumerate")
    sizes = tuple(_parse_int_list(args.sizes)) if args.sizes else ()
    if args.count_only:
        n = codebook.count_codebook(args.family, args.m, h, r=args.r, k=args.k, sizes=sizes)
        _write_text(args.out, str(n))
        return 0
    polys = codebook.enumerate_codebook(args.family, args.m, h, r=args.r, k=args.k, sizes=sizes)
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
        choices=list(BUILDERS),
        help="construction to apply (default: offset)",
    )
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
    p.add_argument("--construct", choices=list(BUILDERS), help="also build this set")
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

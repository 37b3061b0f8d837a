"""The four benchmark workloads.

Each workload turns a seed into one *pass*: a fixed list of ops.  The run
repeats whole passes, so every run of one seed does the same work in the same
order, and the mix of sizes inside a pass is fixed by the workload.  The seed
draws the isolated-group shapes, the polynomials, the family variant of a
slot, the moduli where they do not change the cost, and one small wildcard
slot whose size it also picks, so that the per-pass counts change with the
seed while the cost of a pass barely does.

An op is a ``work`` callable, timed and traced, and a ``check`` callable that
inspects its result untimed.  ``check`` raises :class:`CheckFailed` for a
wrong output, and returns a note, which the run prints once, when the op
ended in a typed refusal; a refused op did none of the workload's work, so
it stays out of the latency percentiles.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import resource
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from cskit import (
    BalanceError,
    CycloValue,
    EnumerationError,
    analyze,
    balanced_cs,
    cs_to_text,
    doubled_cs,
    enumerate_codebook,
    erm_distance_formulas,
    erm_min_distances,
    gbf_from_json,
    golden_report,
    offset_set,
    parse_gbf,
    pmepr,
    random_qualifying_gbf,
    rate_rows,
    render_gbf,
    set_aacf,
    union_code_size_pmepr4,
    union_code_size_pmepr8,
)
from cskit.codebook import KNOWN_DISCREPANCIES, TABLE_UNION4, TABLE_UNION8

FAMILIES = {"offset": offset_set, "balanced": balanced_cs, "doubled": doubled_cs}
PMEPR_SLACK = 1e-9  # the grid PMEPR is a float; the bound is exact


class CheckFailed(Exception):
    """An op returned a wrong result."""


@dataclass
class Op:
    label: str
    work: Callable[[Any], Any]
    check: Callable[[Any], str | None]


@dataclass
class Workload:
    ops: list[Op]
    peak_rss_kb: Callable[[], int] = field(default=lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _group_sizes(rng: random.Random, k: int, even: bool) -> tuple[int, ...]:
    """One or two isolated groups of at most four restrictions, all even or all odd.

    An odd group never balances, and an odd number of 2^h-th roots of unity
    never sums to zero, so odd groups make ``balanced_cs`` refuse and give an
    offset family a nonzero residual at every isolated vertex.
    """
    sizes: list[int] = []
    for _ in range(rng.randint(1, 2)):
        room = min((1 << k) - sum(sizes), 4)
        choices = [n for n in ((2, 4) if even else (1, 3)) if n <= room]
        if not choices:
            break
        sizes.append(rng.choice(choices))
    return tuple(sizes)


def _qualifying(rng: random.Random, m: int, k: int, family: str, q: int):
    """A random polynomial for ``family``: balanced groups for a balanced family, odd ones otherwise."""
    even = family == "balanced"
    sizes = _group_sizes(rng, k, even) if m - k >= 3 else ()
    return random_qualifying_gbf(m, k, q, sizes, balanced=even, seed=rng.randrange(1 << 31))


# -- verify-large ---------------------------------------------------------------

# (m, ((k, family), ...)): the seed picks one (k, family) per slot; every choice
# in a slot has the same member count, so the same correlation cost.  Sizes:
# three sets of 8 members at L = 2^10, five of 16 (one of them the wildcard,
# which the seed may shrink to 8, so the counts move with the seed), then
# 64 members at L = 2^10 and 8 members at L = 2^11 and 2^12.  The median op
# falls inside the 16-member class whatever the wildcard is.
N16 = ((3, "offset"), (3, "balanced"), (2, "doubled"))
VERIFY_SLOTS = [  # the 16-member slots are spread over the pass, so their samples are too
    (10, N16),
    (10, ((2, "offset"),)),
    (10, N16),
    (10, ((5, "offset"), (5, "balanced"), (4, "doubled"))),
    (10, N16),
    (10, ((2, "balanced"),)),
    (11, ((2, "offset"), (2, "balanced"))),
    (10, N16),
    (10, ((2, "offset"),)),
    (12, ((2, "offset"), (2, "balanced"))),
    (10, N16 + ((2, "offset"), (2, "balanced"))),  # the wildcard
]


def _verify_op(text: str, restricted: tuple[int, ...], m: int, k: int, family: str) -> Op:
    def work(tr):
        with tr.span("gbf.parse"):
            f = parse_gbf(text)
        with tr.span("graphs.analyze"):
            profile = analyze(f, restricted)
        tr.count("graphs.restrictions", 1 << k)
        with tr.span("construct.build"):
            cand = FAMILIES[family](f, profile)
        tr.count("construct.members", cand.size)
        with tr.span("gbf.psi"):
            seqs = cand.sequences()
        tr.count("gbf.psi_positions", sum(len(s) for s in seqs))
        with tr.span("correlation.set_aacf"):
            measured = set_aacf(seqs)
        tr.count("correlation.shift_rows", len(seqs) * measured.L)
        with tr.span("cyclo.compare"):
            exact = measured == cand.predicted
            residual = measured.nonzero_shifts()
        with tr.span("correlation.pmepr"):
            peaks = [pmepr(s) for s in seqs]
        tr.count("correlation.pmepr_seqs", len(seqs))
        return cand, exact, residual, peaks

    def check(result) -> None:
        cand, exact, residual, peaks = result
        _require(cand.size == 1 << (k + 1 + (family == "doubled")), f"{family} family has {cand.size} members")
        _require(exact, "summed autocorrelation differs from the exact prediction")
        _require(bool(residual) == (family == "offset"), f"off-peak support {residual} wrong for a {family} family")
        _require(max(peaks) <= cand.pmepr_bound + PMEPR_SLACK, f"PMEPR {max(peaks)} above the bound {cand.pmepr_bound}")

    return Op(f"verify {family} m={m} k={k}", work, check)


def build_verify_large(seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    ops = []
    for m, choices in VERIFY_SLOTS:
        k, family = rng.choice(choices)
        f, restricted = _qualifying(rng, m, k, family, rng.choice((2, 4, 8)))
        ops.append(_verify_op(render_gbf(f), restricted, m, k, family))
    return Workload(ops)


# -- design-sweep ---------------------------------------------------------------

# every (m, k) with m in 6..12 and k <= 5 appears four times per pass (two
# instances asked for balanced groups, two not); the heavy k = 6, 7 strata
# twice each.  Many instances per stratum keep the seed's draw of polynomials
# and group shapes from moving the median and mean op cost of a pass.
SWEEP_STRATA = [(m, k) for m in range(6, 13) for k in range(min(5, m - 1) + 1) for _ in range(4)] + [
    (m, k) for m in (8, 9) for k in (6, 7) for _ in range(2)
]


def _sweep_op(m: int, k: int, q: int, sizes: tuple[int, ...], balanced: bool, instance_seed: int) -> Op:
    checked_json: list[bytes] = []  # digest of the export once it passed the full check

    def work(tr):
        with tr.span("construct.random"):
            f, restricted = random_qualifying_gbf(m, k, q, sizes, balanced=balanced, seed=instance_seed)
        with tr.span("graphs.analyze"):
            profile = analyze(f, restricted)
        tr.count("graphs.restrictions", 1 << k)
        with tr.span("construct.build"):
            try:
                bal = balanced_cs(f, profile)
            except BalanceError:
                bal = None
            dbl = doubled_cs(f, profile)
        tr.count("construct.balance_attempts")
        tr.count("construct.balance_accepts", bal is not None)
        tr.count("construct.members", dbl.size + (bal.size if bal else 0))
        with tr.span("construct.to_json"):
            text = json.dumps(dbl.to_json())
        tr.count("construct.json_bytes", len(text))
        return profile, bal, dbl, text

    def check(result) -> None:
        profile, bal, dbl, text = result
        L, n = 1 << m, 1 << (k + 2)
        _require((bal is not None) == profile.is_balanced(), "balanced_cs accepted or refused against the profile")
        if bal is not None:
            _require(bal.size == n // 2 and bal.is_complementary_prediction(), "balanced family is not a predicted CS")
        _require(dbl.size == n and dbl.is_complementary_prediction(), "doubled family is not a predicted CS")
        _require(dbl.predicted.peak == CycloValue.from_int(q, n * L), "doubled peak is not n*L")
        _require(dbl.pmepr_bound == n - 2 * profile.M, "doubled PMEPR bound is not 2^(k+2) - 2M")
        digest = hashlib.sha256(text.encode()).digest()
        if checked_json:  # later passes repeat the instance: the export must repeat byte for byte
            _require(digest == checked_json[0], "JSON export differs from the first pass")
            return
        obj = json.loads(text)
        _require(obj["size"] == n and len(obj["members"]) == n, "JSON export lost members")
        _require(gbf_from_json(obj["members"][-1]) == dbl.members[-1], "JSON member does not round-trip")
        checked_json.append(digest)

    return Op(f"sweep m={m} k={k} q={q} groups={sizes}", work, check)


def build_design_sweep(seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    wild_m = rng.randrange(6, 13)
    strata = SWEEP_STRATA + [(wild_m, rng.randrange(0, 4))]  # the wildcard: one cheap random stratum
    ops = []
    for i, (m, k) in enumerate(strata):
        balanced = i % 2 == 0  # the odd groups of the other instance make balanced_cs refuse
        q = (2, 4, 8)[i // 2 % 3]  # fixed by the slot, not the seed: q sets the term count, so the export cost
        sizes = _group_sizes(rng, k, balanced) if m - k >= 3 else ()
        ops.append(_sweep_op(m, k, q, sizes, balanced, rng.randrange(1 << 31)))
    return Workload(ops)


# -- codebook -------------------------------------------------------------------

# (m, h) of the standard path codebook: both take far longer than the median
# codebook op, so the choice does not move the median
GOLAY_CHOICES = [(4, 2), (5, 1)]


def _enumerate_op(family: str, m: int, h: int, r: int | None, expected: int) -> Op:
    def work(tr):
        with tr.span("codebook.enumerate"):
            n = sum(1 for _ in enumerate_codebook(family, m, h, r=r))
        tr.count("codebook.codewords", n)
        return n

    def check(n: int) -> None:
        _require(n == expected, f"{family}(m={m}, h={h}, r={r}) enumerates {n} words, closed form {expected}")

    return Op(f"enumerate {family} m={m} h={h} r={r}", work, check)


def _distance_op(m: int, h: int, r: int) -> Op:
    def work(tr):
        with tr.span("codebook.distance"):
            try:
                return erm_min_distances(r, m, h)
            except EnumerationError as exc:
                tr.count("codebook.distance_refused")
                return exc

    def check(result) -> str | None:
        if isinstance(result, EnumerationError):
            return f"erm_min_distances refused (m,h,r)=({m},{h},{r}): EnumerationError: {result}"
        lee, euc = result
        want_lee, want_euc = erm_distance_formulas(r, m, h)
        _require(lee == want_lee, f"(m,h,r)=({m},{h},{r}): Lee distance {lee}, formula {want_lee}")
        _require(math.isclose(euc, want_euc, rel_tol=1e-9), f"(m,h,r)=({m},{h},{r}): d_E^2 {euc}, formula {want_euc}")
        return None

    return Op(f"distance m={m} h={h} r={r}", work, check)


def _reports_op() -> Op:
    """The golden report and the rate rows: one op, as each takes milliseconds."""

    def work(tr):
        with tr.span("codebook.golden"):
            report = golden_report()
        with tr.span("codebook.rates"):
            rows = rate_rows()
        return report, rows

    def check(result) -> None:
        report, rows = result
        unexpected = [e for e in report if e.ok is False and (e.table, e.key, e.column) not in KNOWN_DISCREPANCIES]
        _require(not unexpected, f"golden report has unexpected discrepancies: {unexpected}")
        _require(len(rows) == 78, f"rate_rows gave {len(rows)} rows")
        for row in rows:
            _require(abs(row["rate"] - row["log2_size"] / (1 << row["m"])) < 2e-6, f"rate row {row} inconsistent")

    return Op("golden report and rate rows", work, check)


def build_codebook(seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    gm, gh = rng.choice(GOLAY_CHOICES)
    ops = [
        _enumerate_op("C4", 4, 2, 1, union_code_size_pmepr4(4, 1, 2)),
        _enumerate_op("C8", 5, 1, 2, union_code_size_pmepr8(5, 2, 1)),
        _enumerate_op("GOLAY", gm, gh, None, math.factorial(gm) // 2 * (1 << gh) ** (gm + 1)),
    ]
    rows = sorted({(m, h, r) for m, h, r, *_ in TABLE_UNION4 + TABLE_UNION8})
    ops += [_distance_op(m, h, r) for m, h, r in rows]
    ops.append(_reports_op())
    return Workload(ops)


# -- cli-chain ------------------------------------------------------------------

# (m, q, ((k, family), ...)) per chain; both choices of a chain give the same
# set size.  q is fixed because it sets the size of the pmepr report.
CLI_CHAINS = [
    (9, 4, ((3, "balanced"), (2, "doubled"))),
    (10, 8, ((2, "balanced"), (1, "doubled"))),
]


class _Cli:
    """Runs ``python -m cskit.cli`` children one at a time in a work directory."""

    def __init__(self, workdir: Path, src: Path) -> None:
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.peak_rss_kb = 0

    def __call__(self, tr, layer: str, args: list[str], stdout_name: str, extra_out: str | None = None):
        out = self.workdir / stdout_name
        with tr.span(layer):
            with open(out, "wb") as fh, open(self.workdir / "stderr.txt", "wb") as err:
                proc = subprocess.Popen(
                    [sys.executable, "-m", "cskit.cli", *args], stdout=fh, stderr=err, cwd=self.workdir, env=self.env
                )
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        produced = out.stat().st_size + ((self.workdir / extra_out).stat().st_size if extra_out else 0)
        tr.count("cli.bytes_out", produced)
        return proc.returncode

    def stdout(self, name: str) -> str:
        return (self.workdir / name).read_text()

    def stderr(self) -> str:
        return (self.workdir / "stderr.txt").read_text()[-500:]


def _chain_ops(cli: _Cli, tag: str, m: int, k: int, q: int, sizes: tuple[int, ...], family: str, seed: int) -> list[Op]:
    state: dict[str, Any] = {}
    setfile = f"{tag}.txt"
    n = 1 << (k + 1 + (family == "doubled"))
    random_args = ["random", "-m", str(m), "-k", str(k), "--q", str(q), "--seed", str(seed)]
    if sizes:
        random_args += ["--groups", ",".join(map(str, sizes))]
    if family == "balanced":
        random_args.append("--balanced")

    def expect_rc(rc: int, want: int, what: str) -> None:
        _require(rc == want, f"cskit {what} exited {rc}, expected {want}: {cli.stderr()}")

    def check_random(rc) -> None:
        expect_rc(rc, 0, "random")
        obj = json.loads(cli.stdout(f"{tag}-random.json"))
        state["gbf"], state["restricted"] = obj["gbf"], obj["restricted"]
        _require(len(state["restricted"]) == k, "random returned the wrong number of restricted variables")

    def work_construct(tr):
        restrict = [a for j in state["restricted"] for a in ("-r", str(j))]
        args = ["construct", "--gbf", state["gbf"], *restrict, "--type", family, "--out", setfile]
        return cli(tr, "cli.construct", args, f"{tag}-construct.out", extra_out=setfile)

    def check_construct(rc) -> None:
        expect_rc(rc, 0, "construct")
        header = (cli.workdir / setfile).read_text().split("\n", 1)[0]
        _require(f"size={n} " in header, f"construct header {header!r} does not announce {n} members")
        state["bound"] = float(header.split("bound=")[1].split()[0])

    def check_verify(rc) -> None:
        expect_rc(rc, 0, "verify")
        report = json.loads(cli.stdout(f"{tag}-verify.json"))
        _require(report["is_cs"] and report["n"] == n and not report["offpeak"], "verify did not confirm the set")

    def check_pmepr(rc) -> None:
        expect_rc(rc, 0, "pmepr")
        reports = json.loads(cli.stdout(f"{tag}-pmepr.json"))
        _require(len(reports) == n, f"pmepr reported {len(reports)} of {n} sequences")
        worst = max(r["pmepr_grid"] for r in reports)
        _require(worst <= state["bound"] + PMEPR_SLACK, f"PMEPR {worst} above the bound {state['bound']}")

    label = f"chain m={m} k={k} {family}"
    return [
        Op(f"{label}: random", lambda tr: cli(tr, "cli.random", random_args, f"{tag}-random.json"), check_random),
        Op(f"{label}: construct", work_construct, check_construct),
        Op(f"{label}: verify", lambda tr: cli(tr, "cli.verify", ["verify", setfile], f"{tag}-verify.json"), check_verify),
        Op(f"{label}: pmepr", lambda tr: cli(tr, "cli.pmepr", ["pmepr", setfile], f"{tag}-pmepr.json"), check_pmepr),
    ]


def build_cli_chain(seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    cli = _Cli(workdir, Path(__file__).resolve().parents[1] / "src")
    ops = []
    for i, (m, q, choices) in enumerate(CLI_CHAINS):
        k, family = rng.choice(choices)
        sizes = _group_sizes(rng, k, family == "balanced")
        ops += _chain_ops(cli, f"chain{i}", m, k, q, sizes, family, rng.randrange(1 << 31))

    f, restricted = _qualifying(rng, 10, 2, "offset", 4)
    (workdir / "noncs.txt").write_text(cs_to_text(offset_set(f, restricted=restricted)))

    def check_noncs(rc) -> None:
        _require(rc == 1, f"verify of a non-complementary set exited {rc}, expected 1: {cli.stderr()}")
        report = json.loads(cli.stdout("noncs-verify.json"))
        _require(not report["is_cs"] and report["offpeak"], "verify missed the off-peak residual")

    def check_golden(rc) -> None:
        _require(rc == 0, f"tables --golden exited {rc}, expected 0: {cli.stderr()}")
        _require(json.loads(cli.stdout("golden.json"))["unexpected_discrepancies"] == 0, "golden mismatch")

    def check_rates(rc) -> None:
        _require(rc == 0, f"tables exited {rc}, expected 0: {cli.stderr()}")
        _require(len(cli.stdout("rates.csv").splitlines()) == 79, "tables lost rate rows")

    ops += [
        Op("verify non-CS offset set", lambda tr: cli(tr, "cli.verify", ["verify", "noncs.txt"], "noncs-verify.json"), check_noncs),
        Op("tables --golden", lambda tr: cli(tr, "cli.tables", ["tables", "--golden"], "golden.json"), check_golden),
        Op("tables", lambda tr: cli(tr, "cli.tables", ["tables"], "rates.csv"), check_rates),
    ]
    return Workload(ops, peak_rss_kb=lambda: cli.peak_rss_kb)


WORKLOADS = {
    "verify-large": build_verify_large,
    "design-sweep": build_design_sweep,
    "codebook": build_codebook,
    "cli-chain": build_cli_chain,
}

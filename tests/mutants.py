"""Mutants of the exactness guards, the codebook's closed forms, the CLI's
contract and the family export, and a runner that checks each is killed.

    python tests/mutants.py           # the named tests of each row
    python tests/mutants.py --full    # the whole suite for each row

Each row of ``MUTANTS`` names a source file, a text that occurs in it exactly
once, its replacement and the tests that must fail once it is applied.  The
runner exports HEAD with ``git archive`` and, per mutant, extracts it into a
fresh temporary directory, applies the row and runs pytest there: on the
named tests, or with ``--full`` on the whole suite, stopping at the first
failure.  A mutant is killed when the tests fail (pytest exit code 1); any
other outcome, a pass or a collection error, is a survivor.  First the
unmutated export must pass the tests it will run.  ``EQUIVALENT`` lists
mutants that change no result, each with the reason; none is listed today.

Pytest does not collect this file.  ``tests/test_package.py`` checks, in the
tier-1 suite, that every ``old`` text occurs exactly once and that every named
test exists; it does not run the mutants.
"""

from __future__ import annotations

import argparse
import io
import os
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
CORRELATION = "src/cskit/correlation.py"
CLI = "src/cskit/cli.py"
CODEBOOK = "src/cskit/codebook.py"
CYCLO = "src/cskit/cyclo.py"
GBF = "src/cskit/gbf.py"
GRAPHS = "src/cskit/graphs.py"


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    # the q = 2 transform choice: a complex fft of the +-1 embedding gives the
    # same correlations (irfft reads the first N/2 + 1 values) but not the
    # halved memory, nor the grid's bits
    Mutant(
        "complex transform at q = 2",
        CORRELATION,
        "    real = a.q == 2\n",
        "    real = False\n",
        ("tests/test_correlation.py::test_aacf_peak_memory_at_q_2", "tests/test_correlation.py::test_pmepr_grid_is_pinned"),
    ),
    Mutant(
        "complex inverse at q = 2",
        CORRELATION,
        "np.fft.irfft(spectra, n) if q == 2 else",
        "np.fft.irfft(spectra, n) if q == 1 else",
        ("tests/test_properties.py::test_fft_core_matches_the_shift_loop", "tests/test_correlation.py::test_pmepr_grid_is_pinned"),
    ),
    Mutant(
        "masked entries not zeroed",
        CORRELATION,
        "    roots[..., ~a.mask] = 0\n",
        "",
        ("tests/test_correlation.py::test_fft_core_takes_no_fallback_when_proven", "tests/test_correlation.py::test_pmepr_grid_is_pinned"),
    ),
    Mutant(
        "rounding margin 3/4",
        CORRELATION,
        "np.abs(estimate - coeffs).max() < 0.25",
        "np.abs(estimate - coeffs).max() < 0.75",
        ("tests/test_correlation.py::test_fft_core_falls_back_on_a_perturbed_estimate[rounding-margin]",),
    ),
    Mutant(
        "row-0 check dropped",
        CORRELATION,
        " and np.array_equal(coeffs[0], row0):",
        ":",
        ("tests/test_correlation.py::test_fft_core_falls_back_on_a_perturbed_estimate[row-0]",),
    ),
    Mutant(
        "FFT size limit 2^28",
        CORRELATION,
        "FFT_SIZE_LIMIT = 1 << 25",
        "FFT_SIZE_LIMIT = 1 << 28",
        ("tests/test_correlation.py::test_fft_size_limit_meets_the_error_bound",),
    ),
    Mutant(
        "isolated residual negated",
        "src/cskit/construct.py",
        "coeffs[1 << g.l] = _fold(",
        "coeffs[1 << g.l] = -_fold(",
        ("tests/test_acceptance.py::test_criterion_2_prediction_oracle",),
    ),
    Mutant(
        "Bernstein term halved",
        CORRELATION,
        "(oversample * len(a))) ** 2 / 2",
        "(oversample * len(a))) ** 2 / 4",
        ("tests/test_correlation.py::test_pmepr_upper_is_its_derivation[nothing-binds]",),
    ),
    Mutant(
        "grid base step 2 at every oversample",
        CORRELATION,
        "        step = 4 if span % 4 == 0 else 2\n",
        "        step = 2\n",
        ("tests/test_correlation.py::test_pmepr_grid_is_the_autocorrelation_polynomial",),
    ),
    Mutant(
        "no partner for row 0",
        CORRELATION,
        "    if not lo:  # row 0 pairs v_0 = 1 with v_(S/2)\n",
        "    if False:\n",
        ("tests/test_correlation.py::test_pmepr_grid_is_the_autocorrelation_polynomial",),
    ),
    # read_sequences' header rule: the last q= of the first '# CS' line before
    # any sequence
    Mutant(
        "header: the first q= of the line",
        CORRELATION,
        "value = tokens[-1][2:]",
        "value = tokens[0][2:]",
        ("tests/test_construct.py::test_header_modulus_rules",),
    ),
    Mutant(
        "header: a later '# CS' line",
        CORRELATION,
        "                    q = int(value)\n                break\n",
        "                    q = int(value)\n",
        ("tests/test_construct.py::test_header_modulus_rules",),
    ),
    Mutant(
        "header: after a sequence",
        CORRELATION,
        "            if body and not body.startswith(\"#\"):\n                break\n",
        "",
        ("tests/test_construct.py::test_header_modulus_rules",),
    ),
    # the CLI's exit codes: 1 for a failed hypothesis, 2 for any other error
    Mutant(
        "exit 2 on a failed hypothesis",
        CLI,
        "        return 1\n    except (CskitError, ValueError) as exc:",
        "        return 2\n    except (CskitError, ValueError) as exc:",
        ("tests/test_cli.py::test_analyze_rejects_bad_shape", "tests/test_cli.py::test_construct_balance_violation_exit_1"),
    ),
    Mutant(
        "BalanceError not a hypothesis error",
        CLI,
        "HYPOTHESIS_ERRORS = (DegreeError, GraphShapeError, BalanceError)",
        "HYPOTHESIS_ERRORS = (DegreeError, GraphShapeError)",
        ("tests/test_cli.py::test_construct_balance_violation_exit_1",),
    ),
    Mutant(
        "exit 1 on malformed input",
        CLI,
        "        return 2\n    except OSError as exc:",
        "        return 1\n    except OSError as exc:",
        ("tests/test_cli.py::test_analyze_parse_error_exit_2",),
    ),
    Mutant(
        "exit 1 on I/O trouble",
        CLI,
        '        print(f"cskit: {exc}", file=sys.stderr)\n        return 2\n',
        '        print(f"cskit: {exc}", file=sys.stderr)\n        return 1\n',
        ("tests/test_cli.py::test_missing_file_exit_2",),
    ),
    # the JSON walk's key order
    Mutant(
        "JSON keys unsorted",
        CLI,
        " for key in sorted(obj)]",
        " for key in obj]",
        ("tests/test_cli.py::test_json_bytes_pinned", "tests/test_cli.py::test_json_writer_is_json_dumps"),
    ),
    # the integer options' reader: int() without the ASCII check reads ٣ as 3
    Mutant(
        "integer text beyond ASCII digits",
        GBF,
        "    if digits.isascii() and digits.isdigit():\n",
        "    if digits.isdigit():\n",
        ("tests/test_gbf.py::test_ascii_int_refuses_what_int_reads_beyond_ascii_digits", "tests/test_cli.py::test_integer_options_read_ascii_digits_only"),
    ),
    # the codebook's closed forms: every junta factor on the indicator of word
    # 0 sums path classes that repeat, e.g. C4(4,1,3) has 2,368 rows but only
    # 1,024 distinct ones, while the raw count still equals the closed form;
    # only the distinctness of the rows sees it
    Mutant(
        "junta paths all on restriction word 0",
        CODEBOOK,
        "_indicator_anf(prefix, [w], q)",
        "_indicator_anf(prefix, [0], q)",
        ("tests/test_codebook.py::test_enumerable_union_rows_are_distinct",),
    ),
    Mutant(
        "doubled PMEPR bound 2^(k+2) - M",
        CODEBOOK,
        "(1 << (k + 2)) - 2 * M",
        "(1 << (k + 2)) - M",
        ("tests/test_codebook.py::test_golden_report_reconciles_exactly",),
    ),
    # the shared (mask, coefficient) pairs of a chunk: a key that drops the
    # column stride maps distinct pairs to one cell and decodes it wrongly
    Mutant(
        "shared pair index without the column stride",
        GBF,
        "keys = col * q + rows.ravel()[flat]",
        "keys = col + rows.ravel()[flat]",
        ("tests/test_properties.py::test_enumerators_match_the_reference",),
    ),
    # the family export from factor runs: a one-factor run joined for the
    # other value of its member bit, and a column of several factors that
    # reads their bits in reverse (every family holds q/2 in each factor
    # there, so only arbitrary factor rows see it)
    Mutant(
        "one-factor run reads the other member bit",
        GBF,
        'pieces += ["".join(plain[a:b]), "".join(picked[a:b])] if d',
        'pieces += ["".join(picked[a:b]), "".join(plain[a:b])] if d',
        ("tests/test_construct_properties.py::test_export_writes_each_member_as_render_gbf", "tests/test_cli.py::test_json_bytes_pinned"),
    ),
    Mutant(
        "several-factor column reads its bits reversed",
        GBF,
        "np.arange(len(d))) & 1",
        "np.arange(len(d))[::-1]) & 1",
        ("tests/test_restriction_table.py::test_member_text_from_factor_rows",),
    ),
    # omega^e = -omega^(e - q/2) for the upper half of a histogram
    Mutant(
        "fold adds the upper half",
        CYCLO,
        "counts[..., :half] - counts[..., half:]",
        "counts[..., :half] + counts[..., half:]",
        ("tests/test_cyclo.py::test_from_counts",),
    ),
    # C_a(0) of a masked sequence is its live count, not its length
    Mutant(
        "row 0 from the length",
        CORRELATION,
        "    row[0] = a.mask.sum()\n",
        "    row[0] = len(a)\n",
        ("tests/test_correlation.py::test_fft_core_takes_no_fallback_when_proven",),
    ),
    # a path plus one isolated vertex takes three vertices
    Mutant(
        "isolated vertex only from four vertices",
        GRAPHS,
        "(lone <= (n >= 3))",
        "(lone <= (n >= 4))",
        ("tests/test_restriction_table.py::test_classify_equals_the_reference_on_every_small_graph",),
    ),
    # operator.index reads a bool as 0 or 1
    Mutant(
        "bools read as integers",
        GBF,
        "    if not isinstance(n, bool):\n",
        "    if True:\n",
        ("tests/test_refusals.py::test_refusal_of_a_non_integer",),
    ),
    # the on-grid values of an FFT row of the PMEPR grid
    Mutant(
        "mirrored rows' on-grid slice",
        CORRELATION,
        "return (slice(x % 4 + u % 2, None, 4),)",
        "return (slice(x % 4, None, 4),)",
        ("tests/test_correlation.py::test_pmepr_grid_is_the_autocorrelation_polynomial", "tests/test_correlation.py::test_pmepr_grid_is_pinned"),
    ),
    Mutant(
        "row 0's on-grid slice at an odd oversample",
        CORRELATION,
        "return step, rows, (slice(0, None, 4),), tuple(",
        "return step, rows, (slice(0, None, 2),), tuple(",
        ("tests/test_correlation.py::test_pmepr_grid_is_the_autocorrelation_polynomial", "tests/test_correlation.py::test_pmepr_grid_is_pinned"),
    ),
)

EQUIVALENT: dict[str, str] = {}


def _pytest(where: Path, tests: tuple[str, ...]) -> int:
    """pytest's exit code on ``tests`` in the export at ``where``; no tests
    runs the whole suite."""
    env = dict(os.environ, PYTHONPATH=str(where / "src"))
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=where, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def _export(archive: bytes, where: Path) -> None:
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(where, filter="data")


def main() -> int:
    parser = argparse.ArgumentParser(description="Run each mutant of MUTANTS and check that it is killed.")
    parser.add_argument("--full", action="store_true", help="run the whole suite for each mutant, not its named tests")
    full = parser.parse_args().full
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", "HEAD"], check=True, capture_output=True).stdout
    start, survivors = time.perf_counter(), []
    with tempfile.TemporaryDirectory() as tmp:
        _export(archive, Path(tmp))
        named = () if full else tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        if _pytest(Path(tmp), named):
            print("the unmutated export fails a test it runs", file=sys.stderr)
            return 2
    for m in MUTANTS:
        t0 = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            _export(archive, Path(tmp))
            path = Path(tmp, m.file)
            text = path.read_text()
            if text.count(m.old) != 1:
                print(f"{m.name}: the old text occurs {text.count(m.old)} times in {m.file}", file=sys.stderr)
                return 2
            path.write_text(text.replace(m.old, m.new))
            killed = _pytest(Path(tmp), () if full else m.tests) == 1
        if not killed and m.name not in EQUIVALENT:
            survivors.append(m.name)
        print(f"{'killed' if killed else 'SURVIVED'}  {time.perf_counter() - t0:6.1f} s  {m.name}")
    print(f"{len(MUTANTS)} mutants, {len(survivors)} surviving, {time.perf_counter() - start:.1f} s in all")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end CLI checks, driven through main(argv) for speed."""

import json

import pytest

from cskit.cli import build_parser, main

EX1 = "q=2;m=4; x0*x1*x3 + x0*x2*x3 + x0*x1*x2 + x1*x2"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_json(capsys):
    code, out, _ = run(capsys, "analyze", "--gbf", EX1, "-r", "0")
    assert code == 0
    blob = json.loads(out)
    assert blob["q"] == 2 and blob["m"] == 4 and blob["k"] == 1
    assert blob["M"] == 1


def test_analyze_rejects_bad_shape(capsys):
    code, _, err = run(capsys, "analyze", "--gbf", "q=2;m=4; x0*x1")
    assert code == 1
    assert err.strip()


def test_analyze_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "analyze", "--gbf", "q=2;m=4; x9")
    assert code == 2
    assert err.strip()


def test_construct_text_and_verify_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "set.txt"
    code, _, _ = run(
        capsys, "construct", "--gbf", EX1, "-r", "0", "--type", "doubled", "--out", str(out_file)
    )
    assert code == 0
    text = out_file.read_text()
    assert text.startswith("#")
    assert len([l for l in text.splitlines() if l and not l.startswith("#")]) == 8

    code, out, _ = run(capsys, "verify", str(out_file))
    assert code == 0
    report = json.loads(out)
    assert report["is_cs"] is True and report["n"] == 8 and report["offpeak"] == []


def test_construct_json(capsys):
    code, out, _ = run(capsys, "construct", "--gbf", EX1, "-r", "0", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["size"] == 4 and blob["provenance"] == "offset"


def test_construct_balance_violation_exit_1(capsys):
    code, _, err = run(capsys, "construct", "--gbf", EX1, "-r", "0", "--type", "balanced")
    assert code == 1
    assert "balance" in err.lower()


def test_construct_golay(capsys):
    code, out, _ = run(
        capsys, "construct", "--gbf", "q=4;m=3; 2*x0*x1 + 2*x1*x2 + x0", "--type", "golay",
        "--add0", "1", "--format", "json",
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["size"] == 2 and blob["pmepr_bound"] == 2.0


def test_construct_golay_rejects_restrict(capsys):
    code, _, err = run(
        capsys, "construct", "--gbf", "q=4;m=3; 2*x0*x1 + 2*x1*x2", "--type", "golay", "-r", "0"
    )
    assert code == 2
    assert err.strip()


def test_verify_detects_non_cs(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 0 0 0\n")
    code, out, _ = run(capsys, "verify", str(bad), "--q", "2")
    assert code == 1
    assert json.loads(out)["is_cs"] is False


def test_verify_needs_q(tmp_path, capsys):
    f = tmp_path / "seqs.txt"
    f.write_text("0 1 0 1\n")
    code, _, err = run(capsys, "verify", str(f))
    assert code == 2
    assert "modulus" in err.lower() or "q" in err.lower()


def test_pmepr_report(tmp_path, capsys):
    f = tmp_path / "seq.txt"
    f.write_text("# CS q=2 m=2 size=1 bound=4 provenance=manual\n0 0 0 1\n")
    code, out, _ = run(capsys, "pmepr", str(f), "--oversample", "16")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 1
    assert reports[0]["q"] == 2 and reports[0]["oversample"] == 16
    assert reports[0]["pmepr_grid"] <= reports[0]["pmepr_bound"]


def test_random_reproducible(capsys):
    args = ["random", "-m", "5", "-k", "1", "--q", "4", "--groups", "2", "--balanced",
            "--seed", "7", "--construct", "balanced"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    blob = json.loads(out1)
    assert len(blob["restricted"]) == 1
    assert blob["construction"]["size"] == 4
    assert blob["construction"]["provenance"] == "balanced"


def test_random_different_seeds_differ(capsys):
    base = ["random", "-m", "6", "-k", "1", "--q", "2", "--seed"]
    _, out1, _ = run(capsys, *base, "1")
    _, out2, _ = run(capsys, *base, "2")
    assert json.loads(out1)["gbf"] != json.loads(out2)["gbf"]


def test_enumerate_count_golay(capsys):
    code, out, _ = run(capsys, "enumerate", "--family", "golay", "-m", "3", "--q", "4",
                       "--count-only")
    assert code == 0
    assert out.strip() == "768"


def test_enumerate_limit(capsys):
    code, out, _ = run(capsys, "enumerate", "--family", "erm", "-m", "2", "--q", "2",
                       "-r", "1", "--limit", "5")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip() and not l.startswith("#")]
    assert len(lines) == 5
    assert "truncated" in out


def test_enumerate_rejects_bad_q(capsys):
    code, _, err = run(capsys, "enumerate", "--family", "erm", "-m", "2", "--q", "6", "-r", "1")
    assert code == 2
    assert err.strip()


def test_tables_csv(capsys):
    code, out, _ = run(capsys, "tables")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",")[:3] == ["family", "m", "q_or_h"]
    assert len(lines) == 1 + 12 + 14 + 4 + 24 + 24


def test_tables_golden_documented_only(capsys):
    code, out, _ = run(capsys, "tables", "--golden")
    assert code == 0
    blob = json.loads(out)
    assert blob["unexpected_discrepancies"] == 0
    assert blob["documented_discrepancies"] == 15
    assert blob["printed_only"] == 16
    assert blob["total"] == 180
    assert blob["matching"] == 149
    assert len(blob["entries"]) == 180


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "verify", "/nonexistent/nope.txt")
    assert code == 2
    assert err.strip()


def test_parser_help_lists_verbs():
    parser = build_parser()
    text = parser.format_help()
    for verb in ("analyze", "construct", "verify", "pmepr", "random", "enumerate", "tables"):
        assert verb in text


@pytest.mark.parametrize("verb", ["verify", "pmepr"])
def test_non_power_of_two_modulus_exit_2(tmp_path, capsys, verb):
    seq_file = tmp_path / "q6.txt"
    seq_file.write_text("0 1 2 3\n0 1 5 3\n")
    code, out, err = run(capsys, verb, str(seq_file), "--q", "6")
    assert code == 2
    assert not out and "ModulusError" in err

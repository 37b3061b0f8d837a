"""End-to-end CLI checks, driven through main(argv) for speed."""

import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cskit import doubled_cs, gbf, gbf_from_json, parse_gbf
from cskit.cli import _json_text, build_parser, main

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


def test_analyze_repeated_restriction_exit_2(capsys):
    code, out, err = run(capsys, "analyze", "--gbf", "q=4;m=3; 2*x0*x1", "-r", "0", "-r", "0")
    assert code == 2 and out == ""
    assert "ValueError" in err


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
    # the Golay pair is the path-restriction set with no restricted variable
    code, out, _ = run(
        capsys, "construct", "--gbf", "q=4;m=3; 2*x0*x1 + 2*x1*x2 + x0", "--type", "path-restriction", "--format", "json",
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["size"] == 2 and blob["pmepr_bound"] == 2.0 and blob["provenance"] == "golay"
    assert [m["text"] for m in blob["members"]] == ["q=4;m=3; 2*x0*x1 + 2*x1*x2 + x0", "q=4;m=3; 2*x0*x1 + 2*x1*x2 + x0 + 2*x2"]
    code, out, _ = run(capsys, "construct", "--gbf", "q=4;m=3; 2*x0*x1 + 2*x1*x2 + x0", "--type", "path-restriction")
    assert code == 0
    assert out == "# CS q=4 m=3 size=2 bound=2 provenance=golay\n0 1 0 3 0 1 2 1\n0 1 0 3 2 3 0 3\n"


def test_golay_is_no_construction_choice():
    parser = build_parser()
    for argv in (["construct", "--gbf", "q=2;m=2; x0*x1", "--type", "golay"], ["random", "-m", "3", "-k", "0", "--q", "2", "--seed", "1", "--construct", "golay"]):
        with pytest.raises(SystemExit) as caught:
            parser.parse_args(argv)
        assert caught.value.code == 2


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


@pytest.mark.parametrize("verb", ["verify", "pmepr"])
def test_modulus_from_the_flag_or_the_header(tmp_path, capsys, verb):
    set_file = tmp_path / "set.txt"
    assert run(capsys, "construct", "--gbf", "q=4;m=3; 2*x0*x1 + 2*x1*x2", "--type", "path-restriction", "--out", str(set_file))[0] == 0
    with_header = run(capsys, verb, str(set_file))
    assert with_header[0] == 0 and with_header == run(capsys, verb, str(set_file), "--q", "4")
    set_file.write_text("\n".join(set_file.read_text().splitlines()[1:]) + "\n")
    code, out, err = run(capsys, verb, str(set_file))
    assert code == 2 and out == ""
    assert err == "cskit: ParseError: cannot determine the modulus: pass --q or use a file with a 'CS q=..' header\n"


def test_pmepr_report(tmp_path, capsys):
    f = tmp_path / "seq.txt"
    f.write_text("# CS q=2 m=2 size=1 bound=4 provenance=manual\n0 0 0 1\n")
    code, out, _ = run(capsys, "pmepr", str(f), "--oversample", "16")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 1
    assert reports[0]["q"] == 2 and reports[0]["oversample"] == 16
    assert reports[0]["pmepr_grid"] <= reports[0]["pmepr_bound"]
    assert reports[0]["pmepr_grid"] <= reports[0]["pmepr_upper"] <= reports[0]["pmepr_bound"] + 1e-12
    code, out, err = run(capsys, "pmepr", str(f), "--oversample", "0")
    assert code == 2 and not out and "oversample" in err


def test_pmepr_refuses_an_oversized_grid(tmp_path, capsys):
    f = tmp_path / "s.txt"
    f.write_text("0 1 2 3\n")
    code, out, err = run(capsys, "pmepr", str(f), "--q", "4", "--oversample", "10000000000")
    assert code == 2 and not out and "SizeLimitError" in err


def test_verify_and_pmepr_refuse_an_overlong_line(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(gbf, "MAX_VALUE_VECTOR_M", 2)
    f = tmp_path / "s.txt"
    f.write_text("0 1 2 3 0\n")
    for verb in ("verify", "pmepr"):
        code, out, err = run(capsys, verb, str(f), "--q", "4")
        assert code == 2 and not out and "SizeLimitError" in err


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


def test_random_doubled_members_reload(capsys):
    code, out, _ = run(capsys, "random", "-m", "8", "-k", "2", "--q", "4", "--groups", "1,1",
                       "--seed", "3", "--construct", "doubled")
    assert code == 0
    blob = json.loads(out)
    f = parse_gbf(blob["gbf"])
    assert gbf_from_json(blob["gbf_json"]) == f
    members = doubled_cs(f, restricted=blob["restricted"]).members
    assert [gbf_from_json(member) for member in blob["construction"]["members"]] == list(members)
    assert len(members) == 16


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


def test_enumerate_limit_lines(capsys):
    # the first words of a union code and of the standard path codebook, as
    # the GbfPoly-algebra enumerators printed them
    code, out, _ = run(capsys, "enumerate", "--family", "c8", "-m", "5", "-r", "2", "--q", "2", "--limit", "5")
    assert code == 0
    assert out.splitlines() == [
        "q=2;m=5; x0*x1 + x1*x2",
        "q=2;m=5; x0*x1 + x1*x2 + x3*x4",
        "q=2;m=5; x0*x1 + x1*x2 + x4",
        "q=2;m=5; x0*x1 + x1*x2 + x3*x4 + x4",
        "q=2;m=5; x0*x1 + x1*x2 + x3",
        "# ... truncated at 5",
    ]
    code, out, _ = run(capsys, "enumerate", "--family", "golay", "-m", "3", "--q", "4", "--limit", "5")
    assert code == 0
    assert out.splitlines() == [
        "q=4;m=3; 2*x0*x1 + 2*x1*x2",
        "q=4;m=3; 2*x0*x1 + 2*x1*x2 + 1",
        "q=4;m=3; 2*x0*x1 + 2*x1*x2 + 2",
        "q=4;m=3; 2*x0*x1 + 2*x1*x2 + 3",
        "q=4;m=3; 2*x0*x1 + 2*x1*x2 + x0",
        "# ... truncated at 5",
    ]


@pytest.mark.parametrize(
    "args",
    [
        pytest.param(["--family", "golay", "-m", "9", "--q", "4"], id="golay"),
        pytest.param(["--family", "r", "-m", "10", "-k", "3", "-r", "3", "--q", "8"], id="r"),
    ],
)
def test_enumerate_refuses_oversized_family(capsys, args):
    # both families are counted in closed form and refused before any word
    # is built
    tracemalloc.start()
    try:
        code, _, err = run(capsys, "enumerate", *args, "--count-only")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "EnumerationError" in err
    assert peak < 1 << 20


def test_enumerate_rejects_bad_q(capsys):
    code, _, err = run(capsys, "enumerate", "--family", "erm", "-m", "2", "--q", "6", "-r", "1")
    assert code == 2
    assert err.strip()


@pytest.mark.parametrize("m", ["-1", "0"])
def test_enumerate_rejects_a_degenerate_domain(capsys, m):
    # m = -1 printed 'q=2;m=-1; 0', which parse_gbf refuses, and exited 0
    for extra in ([], ["--count-only"]):
        code, out, err = run(capsys, "enumerate", "--family", "erm", "-m", m, "--q", "2", "-r", "1", *extra)
        assert code == 2 and out == ""
        assert f"ValueError: need at least one variable, got m={m}" in err


def test_tables_csv(capsys):
    code, out, _ = run(capsys, "tables")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",")[:3] == ["family", "m", "q_or_h"]
    assert len(lines) == 1 + 12 + 14 + 4 + 24 + 24


# sha256 of the stdout of each tables form: the tables reproduce printed
# results, so any change to the code behind them must keep them byte for byte
TABLES_DIGESTS = {
    (): "98e7999edd0348d43c048539f20789f49fc1fa20a62b6d568e48fa7af8058bd8",
    ("--format", "json"): "a8f5345704dddcd864f27e0b8594b0ae3158bcf701dd1c469ec4b02d14e92d6a",
    ("--golden",): "f67e31c6681b7111ebaad1d77c41651bffbcbe2fd3fbbb2b4ac36f49a58a4f37",
}


@pytest.mark.parametrize("extra", list(TABLES_DIGESTS))
def test_tables_bytes_pinned(capsys, extra):
    code, out, _ = run(capsys, "tables", *extra)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TABLES_DIGESTS[extra]


# the sequence files read by JSON_DIGESTS: a doubled q = 8 complementary set of
# 8 members of length 32, and an offset q = 4 set whose sum keeps two
# off-peak terms
SET_FILES = {
    "cs.txt": ["--gbf", "q=8;m=5; 4*x0*x1*x4 + 4*x0*x2*x3 + 4*x0*x2*x4 + 4*x0*x3*x4 + 4*x1*x2 + 4*x1*x4 + 4*x2*x3 + 2*x0 + 6*x1 + 6*x2 + 5*x3 + 7*x4 + 4", "-r", "0", "--type", "doubled"],
    "noncs.txt": ["--gbf", "q=4;m=5; 2*x0*x1*x2*x4 + 2*x0*x1*x3*x4 + 2*x0*x2*x3 + 3*x0*x3*x4 + 2*x2*x3*x4 + x0*x3 + 2*x1*x2 + x3*x4 + 2*x0 + 2*x1 + 2*x3 + x4", "-r", "0", "-r", "4"],
}

# exit code and sha256 of the stdout of every JSON verb beyond tables: the
# JSON layout is json.dumps(indent=2, sort_keys=True), byte for byte
JSON_DIGESTS = {
    "analyze": (["analyze", "--gbf", EX1, "-r", "0"], 0, "888732b7906e39398232c5b185f6bb58a161d053baab28b0c0ff75f07ec80dcb"),
    "construct-offset": (["construct", "--gbf", EX1, "-r", "0", "--format", "json"], 0, "c4aaa1df1d37d85154453c9a2113493179d91d96d2c61febadabab1dda3bfa22"),
    "construct-doubled": (["construct", "--gbf", EX1, "-r", "0", "--type", "doubled", "--format", "json"], 0, "7057068c5ec1a0187be372cf3329187fb6a49c2e3867cb5dfb8fa2f742511572"),
    "random-doubled": (["random", "-m", "6", "-k", "2", "--q", "4", "--seed", "7", "--construct", "doubled"], 0, "cd35d70116206689e11b6a88b41af532f4eb8f664a7785e8f6c2ef0832cd8895"),
    "verify-cs": (["verify", "cs.txt"], 0, "aa0637a3e58b39cdd692420545169bece931ed24ca7909f860282b383c540a5c"),
    "verify-noncs": (["verify", "noncs.txt"], 1, "a12e63d501abea8a28d48b2281f06c6aa54c8b32396c36cddb08f5a77cd5b950"),
    "pmepr": (["pmepr", "cs.txt"], 0, "fddf0a98a5d8e0bb48864f50ebd03bb13e06dc3800d8c6ee6489472cffe05c8c"),
    "pmepr-oversample-3": (["pmepr", "cs.txt", "--oversample", "3"], 0, "6b2189f9e537bbd5d6a4aece7d87b838484014585e81611e00cd805870281db5"),
}


@pytest.mark.parametrize("name", list(JSON_DIGESTS))
def test_json_bytes_pinned(tmp_path, capsys, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    for path, source in SET_FILES.items():
        assert main(["construct", *source, "--out", path]) == 0
    argv, want_code, digest = JSON_DIGESTS[name]
    code, out, _ = run(capsys, *argv)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (want_code, digest)


def written(write, obj):
    """What ``write`` makes of ``obj``: its text, or the type of its error."""
    try:
        return write(obj)
    except Exception as exc:  # the type is compared, whatever it is
        return type(exc)


KEYS = st.text(max_size=4) | st.sampled_from(["%r", "%", "100%s", 'a"b', "\\", "\n", "é", " ", "\ud800", "\U0001f600"])
NUMBERS = st.integers() | st.integers(-(1 << 80), 1 << 80) | st.floats(allow_nan=False, allow_infinity=False)
ODD = st.sampled_from([True, False, None, math.nan, math.inf, -math.inf, "x", np.float64(0.5)])
SCALARS = NUMBERS | st.floats() | st.sampled_from([-0.0, 5e-324, 1e16, 1e-7, math.nan, math.inf, -math.inf]) | ODD | st.text(max_size=4)
# keys json.dumps writes as strings, or refuses to sort among others
NON_STR_KEYS = st.integers() | st.floats() | st.booleans() | st.none()
# values json.dumps refuses, with TypeError or ValueError
REFUSED = st.sampled_from([np.int64(1), np.float32(0.5), object(), {1, 2}, {(1, 2): 3}, {1: 2, "a": 3}, 10**5000])


@st.composite
def record_tables(draw):
    """A list of records with numbers or equal-length number lists under
    one key set, perturbed at most once so that it is no such list."""
    keys = draw(st.lists(KEYS, min_size=1, max_size=3, unique=True))
    lengths = {key: draw(st.none() | st.integers(0, 3)) for key in keys}

    def value(key):
        n = lengths[key]
        return draw(NUMBERS) if n is None else draw(st.lists(NUMBERS, min_size=n, max_size=n))

    rows = [{key: value(key) for key in keys} for _ in range(draw(st.sampled_from([1, 2, 3, 5])))]
    at = draw(st.sampled_from([0, -1]))
    row, key = rows[at], draw(st.sampled_from(keys))
    spoil = draw(st.none() | st.sampled_from(["odd value", "odd entry", "not finite", "length", "missing key", "extra key", "renamed key", "empty row", "list row", "refused"]))
    odd = st.sampled_from([math.nan, math.inf, -math.inf]) if spoil == "not finite" else ODD
    if spoil in ("odd value", "not finite") and lengths[key] is None:
        row[key] = draw(odd)
    elif spoil in ("odd entry", "not finite") and lengths[key]:
        row[key][0] = draw(odd)
    elif spoil == "length":
        row[key] = draw(st.lists(NUMBERS, max_size=4).filter(lambda v: len(v) != lengths[key]))
    elif spoil == "missing key":
        del row[key]
    elif spoil in ("extra key", "renamed key"):
        row[draw(KEYS.filter(lambda k: k not in row))] = row.pop(key) if spoil == "renamed key" else draw(NUMBERS)
    elif spoil == "empty row":
        rows[at] = {}
    elif spoil == "list row":
        rows[at] = []
    elif spoil == "refused":
        row[key] = draw(REFUSED)
    return rows


JSON_VALUES = st.recursive(
    SCALARS | record_tables(),
    lambda children: st.lists(children, max_size=4) | st.tuples(children) | st.dictionaries(KEYS | NON_STR_KEYS, children, max_size=4),
    max_leaves=12,
)


@settings(max_examples=250, deadline=None, derandomize=True)
@example({"a": [{"v": [1, 2], "%s": 0.5}, {"v": [3], "%s": 1}], "b": (1, [2, {3: None}])})
@example([{"x": 1, "y": [5e-324]}, {"z": 1, "y": [-0.0]}, {"x": math.nan, "y": [1e16]}, {"x": True, "y": [2]}])
@given(JSON_VALUES | record_tables() | st.lists(record_tables() | REFUSED, min_size=1, max_size=3) | st.dictionaries(KEYS, record_tables() | REFUSED, min_size=1, max_size=2))
def test_json_writer_is_json_dumps(obj):
    assert written(_json_text, obj) == written(lambda v: json.dumps(v, indent=2, sort_keys=True), obj)


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


@pytest.mark.parametrize(
    "gbf",
    [
        pytest.param("q=6;m=3; 3*x0*x1 + 3*x1*x2", id="all-paths"),
        pytest.param("q=6;m=3; 3*x0*x1", id="isolated-vertex"),
    ],
)
def test_construct_non_power_of_two_modulus_exit_2(capsys, gbf):
    # Z[omega_6] has no power-of-two basis: no family is built, whether or
    # not a restriction isolates a vertex
    code, out, err = run(capsys, "construct", "--gbf", gbf, "--format", "json")
    assert code == 2
    assert not out and "ModulusError" in err


def test_enumerate_count_only_builds_no_polynomial(capsys, monkeypatch):
    # 2^22 words counted from the factor sizes; C4/C8 from their distinct rows
    monkeypatch.setattr("cskit.codebook.polys_from_rows", None)
    code, out, _ = run(capsys, "enumerate", "--family", "erm", "-m", "6", "-r", "2", "--q", "2", "--count-only")
    assert code == 0 and out.strip() == str(1 << 22)
    code, out, _ = run(capsys, "enumerate", "--family", "c8", "-m", "5", "-r", "2", "--q", "2", "--count-only")
    assert code == 0 and out.strip() == "36864"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_oversized_domain_exit_2(capsys, fmt):
    # a Golay path on 64 variables parses, but its 2^64-entry sequence is refused
    path = " + ".join(f"x{i}*x{i + 1}" for i in range(63))
    code, out, err = run(capsys, "construct", "--gbf", f"q=2;m=64; {path}", "--type", "path-restriction", "--format", fmt)
    assert code == 2
    assert not out and "SizeLimitError" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        # died in the conjugate solve, asking for 2 TiB, with exit 1
        pytest.param(["verify", "--q", str(1 << 40)], "a polyphase sequence with q=1099511627776", id="verify"),
        # died in the prediction, asking for 16 GiB, with exit 1
        pytest.param(
            ["construct", "--gbf", "q=1073741824;m=2; 536870912*x0*x1", "--type", "path-restriction"],
            "a complementary-set construction with q=1073741824",
            id="construct",
        ),
    ],
)
def test_modulus_above_the_size_limit_exit_2(tmp_path, capsys, argv, message):
    seq_file = tmp_path / "pair.txt"
    seq_file.write_text("0 1\n1 0\n")
    code, out, err = run(capsys, *argv, *([str(seq_file)] if argv[0] == "verify" else []))
    assert code == 2 and out == ""
    assert err == f"cskit: SizeLimitError: {message} exceeds the modulus limit of 2^24\n"



def test_modulus_products_above_the_budget_exit_2(tmp_path, capsys):
    # each modulus is under 2^24, but the prediction of a q = 2^20 path on 10
    # variables asked for 4 GiB and the exponent table of two 1024-symbol
    # lines at q = 2^24 for 32 GiB; both died with exit 1
    half = 1 << 19
    path = f"q={1 << 20};m=10; " + " + ".join(f"{half}*x{i}*x{i + 1}" for i in range(9))
    seq_file = tmp_path / "pair.txt"
    seq_file.write_text("".join(" ".join(str(i * j * 40503 % (1 << 24)) for i in range(1024)) + "\n" for j in (1, 2)))
    tracemalloc.start()
    try:
        results = [
            run(capsys, "construct", "--gbf", path, "--type", "path-restriction"),
            run(capsys, "verify", "--q", str(1 << 24), str(seq_file)),
        ]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    budget = "above the budget of 1073741824 bytes\n"
    assert results == [
        (2, "", f"cskit: SizeLimitError: the prediction at q=1048576, m=10 would take {1 << 32} bytes, {budget}"),
        (2, "", f"cskit: SizeLimitError: the spectra at q=16777216, L=1024 would take {1 << 37} bytes, {budget}"),
    ]
    assert peak < 1 << 20


def test_enumerate_refuses_a_negative_limit(capsys):
    # --limit -1 printed only '# ... truncated at -1' and exited 0
    code, out, err = run(capsys, "enumerate", "--family", "golay", "-m", "3", "--q", "4", "--limit", "-1")
    assert code == 2 and out == ""
    assert err == "cskit: ValueError: --limit must be >= 0, got -1\n"
    code, out, _ = run(capsys, "enumerate", "--family", "golay", "-m", "3", "--q", "4", "--limit", "0")
    assert code == 0 and out == "# ... truncated at 0\n"

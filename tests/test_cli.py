import hashlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from codefam import bridge as br
from codefam import cli
from codefam import graphcode as gc
from codefam import symmetric as sym
from codefam.gf import make_field

f2 = make_field(2, 1)

FAMILY_ARGS = ["build-family", "--q", "2", "--delta", "1/8", "--eta", "3/7",
               "--epsilon", "1/2", "--N", "16", "--M", "4", "--D", "8",
               "--inner-size", "2", "--seed", "123"]


@pytest.fixture(scope="module")
def fam_manifest(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "fam.json"
    assert cli.main(FAMILY_ARGS + ["--out", str(path)]) == 0
    return path


def test_build_and_verify_family(fam_manifest, tmp_path):
    out = tmp_path / "report.json"
    rc = cli.main(["verify-family", "--manifest", str(fam_manifest),
                   "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["passed"] is True
    assert rep["worst_fail_fraction"] == "0"
    assert rep["patterns_tested"] == 120


def test_verify_family_failure_exit_code(fam_manifest, tmp_path):
    man = json.loads(fam_manifest.read_text())
    # members have minimum distance exactly 8 (Griesmer-tight for [16,3]),
    # so some size-8 pattern must fail once epsilon is squeezed to zero
    man["family"]["epsilon"] = "0"
    man["family"]["delta"] = "1/2"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(man))
    out = tmp_path / "rep.json"
    rc = cli.main(["verify-family", "--manifest", str(bad), "--out", str(out)])
    assert rc == 2
    rep = json.loads(out.read_text())
    assert rep["passed"] is False
    assert rep["worst_pattern"]  # witness present


def test_family_encode_decode_roundtrip(fam_manifest, tmp_path):
    msg = tmp_path / "msg.txt"
    cli.write_matrix_file(str(msg), f2, [[1, 0, 1]])
    cw = tmp_path / "cw.txt"
    assert cli.main(["encode", "--code", str(fam_manifest), "--in", str(msg),
                     "--out", str(cw), "--z", "2", "--member", "1"]) == 0
    word = cli.read_matrix_file(str(cw))[0]
    word[3] = None
    word[9] = None
    rcv = tmp_path / "rcv.txt"
    cli.write_matrix_file(str(rcv), f2, [word])
    dec = tmp_path / "dec.txt"
    assert cli.main(["decode", "--code", str(fam_manifest), "--in", str(rcv),
                     "--out", str(dec), "--z", "2", "--member", "1"]) == 0
    assert cli.read_matrix_file(str(dec))[0] == [1, 0, 1]


def test_decode_failure_exit_code(fam_manifest, tmp_path):
    msg = tmp_path / "msg.txt"
    cli.write_matrix_file(str(msg), f2, [[1, 0, 1]])
    cw = tmp_path / "cw.txt"
    cli.main(["encode", "--code", str(fam_manifest), "--in", str(msg),
              "--out", str(cw)])
    word = cli.read_matrix_file(str(cw))[0]
    rcv = tmp_path / "rcv.txt"
    cli.write_matrix_file(str(rcv), f2, [[None] * len(word)])
    rc = cli.main(["decode", "--code", str(fam_manifest), "--in", str(rcv),
                   "--out", str(tmp_path / "dec.txt")])
    assert rc == 2


def test_bipartite_build_verify_encode_decode(tmp_path):
    man = tmp_path / "bp.json"
    rc = cli.main(["build-graph", "--kind", "bipartite", "--q", "2",
                   "--M", "4", "--N", "8", "--drow", "1/4", "--dcol", "1/4",
                   "--eta", "1/4", "--seed", "1", "--ell", "2", "--ell0", "2",
                   "--k-row", "2", "--family-size", "4", "--eps-fam", "1/4",
                   "--out", str(man)])
    assert rc == 0
    assert json.loads(man.read_text())["rate"] == "1/8"
    rep = tmp_path / "rep.json"
    assert cli.main(["verify-graph", "--code", str(man),
                     "--out", str(rep)]) == 0
    assert json.loads(rep.read_text())["passed"] is True
    msg = tmp_path / "msg.txt"
    cli.write_matrix_file(str(msg), f2, [[1, 0, 1, 1]])
    cw = tmp_path / "cw.txt"
    assert cli.main(["encode", "--code", str(man), "--in", str(msg),
                     "--out", str(cw)]) == 0
    dec = tmp_path / "dec.txt"
    assert cli.main(["decode", "--code", str(man), "--in", str(cw),
                     "--out", str(dec), "--erased-rows", "0",
                     "--erased-cols", "3,6"]) == 0
    assert cli.read_matrix_file(str(dec))[0] == [1, 0, 1, 1]


def test_nearly_mds_cli(tmp_path):
    man = tmp_path / "nmi.json"
    assert cli.main(["build-graph", "--kind", "nearly-mds-improved", "--q", "2",
                     "--N", "12", "--M_b", "2", "--D", "4", "--delta", "1/4",
                     "--eta", "1/2", "--seed", "7", "--out", str(man)]) == 0
    assert json.loads(man.read_text())["rate"] == "1/3"
    assert cli.main(["verify-graph", "--code", str(man),
                     "--delta", "1/4"]) == 0


def test_bridge_and_check_source(fam_manifest, tmp_path):
    ext = tmp_path / "ext.json"
    assert cli.main(["bridge", "--family", str(fam_manifest),
                     "--as", "extractor", "--out", str(ext)]) == 0
    man = json.loads(ext.read_text())
    assert man["seeds"] == 16 and man["m"] == 3 and man["n"] == 16
    out = tmp_path / "src.json"
    rc = cli.main(["check-source", "--bridge", str(ext),
                   "--free", "1,2,3,5,8,9,10,12,13,14",
                   "--epsilon", "1/2", "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["passed"] is True
    con = tmp_path / "con.json"
    assert cli.main(["bridge", "--family", str(fam_manifest),
                     "--as", "condenser", "--out", str(con)]) == 0
    assert cli.main(["check-source", "--bridge", str(con),
                     "--free", "0,4", "--epsilon", "1/2"]) == 0


def test_bridge_seed_length_is_exact_past_float_precision(fam_manifest, tmp_path, monkeypatch):
    """seed_length_bits is ceil(log2 D) in integers: D = 2^49 + 1 needs 50
    bits, where a float log2 rounds to 49."""
    class Seeds:
        n, m, D, maps = 16, 3, 2 ** 49 + 1, []
    monkeypatch.setattr(br, "family_to_extractor", lambda fam: Seeds)
    out = tmp_path / "ext.json"
    assert cli.main(["bridge", "--family", str(fam_manifest), "--as", "extractor",
                     "--out", str(out)]) == 0
    assert json.loads(out.read_text())["seed_length_bits"] == 50


def test_report_runs(fam_manifest, capsys):
    assert cli.main(["report", "--manifest", str(fam_manifest)]) == 0
    text = capsys.readouterr().out
    assert "rate: 3/16" in text
    assert "plotkin_bound" in text


def test_infeasible_exit_code(tmp_path):
    rc = cli.main(["build-family", "--q", "2", "--delta", "1/2", "--eta",
                   "1/2", "--epsilon", "1/4", "--N", "16",
                   "--out", str(tmp_path / "x.json")])
    assert rc == 3


def test_io_error_exit_code(tmp_path):
    rc = cli.main(["verify-family", "--manifest", str(tmp_path / "nope.json")])
    assert rc == 4


def test_rebuild_is_byte_identical(fam_manifest, tmp_path):
    again = tmp_path / "fam2.json"
    assert cli.main(FAMILY_ARGS + ["--out", str(again)]) == 0
    assert again.read_bytes() == fam_manifest.read_bytes()
    workers = tmp_path / "fam3.json"
    assert cli.main(["--workers", "4"] + FAMILY_ARGS + ["--out", str(workers)]) == 0
    assert workers.read_bytes() == fam_manifest.read_bytes()


def test_build_family_round_robin_takes_no_D(tmp_path, capsys):
    """A round_robin shuffler has one seed: --D exits 4 and writes nothing."""
    rr = [a for a in FAMILY_ARGS if a not in ("--D", "8", "--seed", "123")]
    rr += ["--shuffler", "round_robin"]
    out = tmp_path / "rr.json"
    assert cli.main(rr + ["--D", "3", "--out", str(out)]) == 4
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "InputError"
    assert "--D" in json.loads(lines[0])["detail"]
    assert not out.exists()
    assert cli.main(rr + ["--out", str(out)]) == 0
    assert json.loads(out.read_text())["shuffler"].startswith("16 1 4 round_robin")


def test_build_family_round_robin_takes_no_seed(tmp_path, capsys):
    """A round_robin shuffler draws nothing: --seed exits 4 and writes
    nothing, and without it the manifest records seed 0."""
    rr = [a for a in FAMILY_ARGS if a not in ("--D", "8", "--seed", "123")]
    rr += ["--shuffler", "round_robin"]
    out = tmp_path / "rr.json"
    assert cli.main(rr + ["--seed", "5", "--out", str(out)]) == 4
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "InputError"
    assert "--seed" in json.loads(lines[0])["detail"]
    assert not out.exists()
    assert cli.main(rr + ["--out", str(out)]) == 0
    man = json.loads(out.read_text())
    assert man["params"]["rng_seed"] == man["family"]["provenance"]["rng_seed"] == 0


@pytest.mark.parametrize("flag,value", [
    ("--N", "0"), ("--M", "0"), ("--M", "-2"), ("--D", "0"), ("--D", "-3"),
    ("--inner-size", "0"), ("--inner-size", "-1")])
def test_build_family_count_below_one_exit_code(flag, value, tmp_path, capsys):
    """--N, --M, --D and --inner-size are counts: below 1 exits 4 with one
    JSON line and writes nothing."""
    argv = list(FAMILY_ARGS)
    argv[argv.index(flag) + 1] = value
    out = tmp_path / "fam.json"
    assert cli.main(argv + ["--out", str(out)]) == 4
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "InputError"
    assert flag in json.loads(lines[0])["detail"]
    assert not out.exists()



def test_nearly_mds_improved_skips_outer_field_too_small(tmp_path):
    """At delta = 1/6 the highest-rate inner dimension (k_inner = 1 over GF(4))
    leaves the outer code over GF(4) with 8 blocks to cover; the planner
    passes it over for k_inner = 2, whose outer code is over GF(16)."""
    man, rep = tmp_path / "nmi.json", tmp_path / "rep.json"
    assert cli.main(["build-graph", "--kind", "nearly-mds-improved", "--q", "2", "--N", "12",
                     "--delta", "1/6", "--eta", "1/2", "--out", str(man)]) == 0
    assert json.loads(man.read_text())["rate"] == "1/3"
    assert cli.main(["verify-graph", "--code", str(man), "--out", str(rep)]) == 0
    assert json.loads(rep.read_text())["patterns_tested"] == 66  # every 2 of 12 columns

BIPARTITE_ARGS = ["build-graph", "--kind", "bipartite", "--q", "2", "--M", "4",
                  "--N", "8", "--drow", "1/4", "--dcol", "1/4", "--eta", "1/4",
                  "--seed", "1", "--ell", "2", "--ell0", "2", "--k-row", "2",
                  "--family-size", "4", "--eps-fam", "1/4"]
NEARLY_MDS_ARGS = {
    "nearly-mds": ["--q", "2", "--N", "12", "--M", "4", "--delta", "1/4",
                   "--eta", "1/2", "--seed", "3", "--ell", "4", "--ell0", "2",
                   "--k-row", "3", "--eps-fam", "1/4"],
    "nearly-mds-improved": ["--q", "2", "--N", "12", "--M_b", "2", "--D", "4",
                            "--delta", "1/4", "--eta", "1/2", "--seed", "7"],
}


@pytest.fixture(scope="module")
def bp_manifest(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "bp.json"
    assert cli.main(BIPARTITE_ARGS + ["--out", str(path)]) == 0
    return path


@pytest.mark.parametrize("kind", sorted(NEARLY_MDS_ARGS))
def test_nearly_mds_verify_graph_uses_manifest_delta(kind, tmp_path):
    man = tmp_path / "nm.json"
    assert cli.main(["build-graph", "--kind", kind] + NEARLY_MDS_ARGS[kind]
                    + ["--out", str(man)]) == 0
    rep = tmp_path / "rep.json"
    assert cli.main(["verify-graph", "--code", str(man), "--out", str(rep)]) == 0
    out = json.loads(rep.read_text())
    assert out["passed"] is True
    assert out["patterns_tested"] == 220  # every 3 of 12 column symbols


def test_verify_graph_honours_mode_and_budget(bp_manifest, tmp_path):
    rep = tmp_path / "rep.json"
    assert cli.main(["verify-graph", "--code", str(bp_manifest), "--mode",
                     "montecarlo", "--budget", "3", "--seed", "5",
                     "--out", str(rep)]) == 0
    out = json.loads(rep.read_text())
    assert (out["mode"], out["patterns_tested"], out["passed"]) == ("montecarlo", 3, True)
    # the exhaustive scan needs 112 rank checks
    assert cli.main(["verify-graph", "--code", str(bp_manifest),
                     "--budget", "100"]) == 3


@pytest.mark.parametrize("budget", ["0", "-1"])
@pytest.mark.parametrize("command,flag,manifest", [
    ("verify-family", "--manifest", "fam_manifest"),
    ("verify-graph", "--code", "bp_manifest"),
])
def test_montecarlo_budget_below_one_exit_code(command, flag, manifest, budget, request,
                                               tmp_path, capsys):
    """A Monte Carlo scan that draws no pattern is no certificate: exit 3, no report."""
    rep = tmp_path / "rep.json"
    assert cli.main([command, flag, str(request.getfixturevalue(manifest)), "--mode",
                     "montecarlo", "--budget", budget, "--seed", "5",
                     "--out", str(rep)]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "BudgetExceeded"
    assert not rep.exists()


@pytest.mark.parametrize("mode,seed", [("exhaustive", ["--seed", "3"]), ("montecarlo", [])])
@pytest.mark.parametrize("command,flag,manifest", [
    ("verify-family", "--manifest", "fam_manifest"),
    ("verify-graph", "--code", "bp_manifest"),
    ("verify-graph", "--code", "sym_manifest"),
])
def test_verify_seed_is_not_ignored(command, flag, manifest, mode, seed, request, tmp_path,
                                    capsys):
    """Exhaustive mode draws nothing and Monte Carlo mode draws from --seed:
    a seed given to the one or missing from the other is an input error."""
    rep = tmp_path / "rep.json"
    assert cli.main([command, flag, str(request.getfixturevalue(manifest)), "--mode", mode,
                     *seed, "--out", str(rep)]) == 4
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "InputError"
    assert not rep.exists()


@pytest.mark.parametrize("case", ["family-empty", "graph-no-params", "bad-rows",
                                  "bad-cols"])
def test_malformed_input_exit_code(case, bp_manifest, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    if case == "family-empty":
        bad.write_text("{}")
        argv = ["verify-family", "--manifest", str(bad)]
    elif case == "graph-no-params":
        bad.write_text(json.dumps({"kind": "bipartite"}))
        argv = ["verify-graph", "--code", str(bad)]
    else:
        rcv = tmp_path / "rcv.txt"
        cli.write_matrix_file(str(rcv), f2, [[0] * 8 for _ in range(4)])
        flag = "--erased-rows" if case == "bad-rows" else "--erased-cols"
        argv = ["decode", "--code", str(bp_manifest), "--in", str(rcv),
                "--out", str(tmp_path / "dec.txt"), flag, "1,x"]
    assert cli.main(argv) == 4
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and "error" in json.loads(lines[0])


# the flag that names the manifest, and any other flag a command requires
MANIFEST_FLAGS = {"verify-family": ["--manifest"], "verify-graph": ["--code"],
                  "bridge": ["--as", "extractor", "--out", "out.json", "--family"],
                  "report": ["--manifest"], "check-source": ["--epsilon", "1/2", "--bridge"]}


def _bad_matrix(case, path):
    """A 4 x 8 matrix file spoiled in one way."""
    cli.write_matrix_file(str(path), f2, [[0] * 8 for _ in range(4)])
    lines = path.read_text().splitlines()
    if case == "token":
        lines[2] = lines[2][:-1] + "x"
    elif case == "short-row":
        lines[2] = lines[2][:-2]
    elif case == "few-rows":
        lines = lines[:-1]
    elif case == "extra-row":
        lines.append(lines[-1])
    elif case == "entry":
        lines[2] = "7" + lines[2][1:]
    elif case == "field":
        lines[0] = lines[0].replace("field 2 1", "field 3 1")
    else:
        lines = []
    path.write_text("\n".join(lines) + "\n")


# messages that are no GF(2) message of the bipartite code
BAD_MESSAGES = {"message-entry": [[1, 2, 0, 1]], "message-erasure": [[1, None, 0, 1]],
                "message-2x2": [[1, 0], [1, 1]]}

# kind -> (manifest fixture, message length, codeword columns)
CODE_SHAPES = {"family": ("fam_manifest", 3, 16), "bipartite": ("bp_manifest", 4, 8),
               "nearly-mds": ("nm_manifest", 12, 12),
               "nearly-mds-improved": ("nmi_manifest", 16, 12),
               "symmetric": ("sym_manifest", 10, 16)}
# a 1 x (columns - 1) received file, and a message one entry too long
WRONG_SHAPES = [f"{test}-{kind}" for test in ("shape", "length") for kind in CODE_SHAPES]


@pytest.fixture(scope="module")
def nmi_manifest(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "nmi.json"
    assert cli.main(["build-graph", "--kind", "nearly-mds-improved"]
                    + NEARLY_MDS_ARGS["nearly-mds-improved"] + ["--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def sym_manifest(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "sym.json"
    assert cli.main(["build-graph", "--kind", "symmetric", "--q", "2",
                     "--out", str(path)]) == 0
    return path


@pytest.mark.parametrize("case", [*MANIFEST_FLAGS, "token", "short-row", "few-rows",
                                  "extra-row", "empty", "entry", "field", *BAD_MESSAGES,
                                  *WRONG_SHAPES])
def test_malformed_file_exit_code(case, bp_manifest, request, tmp_path, capsys):
    """A manifest that is not a JSON object, a broken matrix file, one
    whose header or entries are not the code's field, or a received word
    or message whose shape is not the code's, exits 4."""
    bad = tmp_path / "bad"
    if case in MANIFEST_FLAGS:
        bad.write_text("[]")
        argv = [case, *MANIFEST_FLAGS[case], str(bad)]
    elif case in WRONG_SHAPES:
        test, kind = case.split("-", 1)
        fixture, k, cols = CODE_SHAPES[kind]
        cli.write_matrix_file(str(bad), f2, [[0] * (cols - 1 if test == "shape" else k + 1)])
        argv = ["decode" if test == "shape" else "encode", "--code",
                str(request.getfixturevalue(fixture)), "--in", str(bad),
                "--out", str(tmp_path / "out")]
    elif case in BAD_MESSAGES:
        cli.write_matrix_file(str(bad), f2, BAD_MESSAGES[case])
        argv = ["encode", "--code", str(bp_manifest), "--in", str(bad),
                "--out", str(tmp_path / "out")]
    else:
        _bad_matrix(case, bad)
        argv = ["decode", "--code", str(bp_manifest), "--in", str(bad),
                "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 4
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "InputError"


@pytest.fixture(scope="module")
def nm_manifest(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "nm.json"
    assert cli.main(["build-graph", "--kind", "nearly-mds"] + NEARLY_MDS_ARGS["nearly-mds"]
                    + ["--out", str(path)]) == 0
    return path


def _zero_codeword(manifest, k_total, tmp_path):
    """The file of the codeword of the all-zero message."""
    msg, cw = tmp_path / "zero.msg", tmp_path / "zero.cw"
    cli.write_matrix_file(str(msg), f2, [[0] * k_total])
    assert cli.main(["encode", "--code", str(manifest), "--in", str(msg),
                     "--out", str(cw)]) == 0
    return cw


# (manifest fixture, message length, decode flag, its value)
DECODE_FLAGS = {
    "row-out-of-range": ("bp_manifest", 4, "--erased-rows", "99"),
    "col-out-of-range": ("bp_manifest", 4, "--erased-cols", "-3"),
    "family-cols": ("fam_manifest", 3, "--erased-cols", "0"),
    "family-rows": ("fam_manifest", 3, "--erased-rows", "0"),
    "nearly-mds-rows": ("nm_manifest", 12, "--erased-rows", "0"),
    "family-member-past-end": ("fam_manifest", 3, "--member", "2"),
    "family-member-negative": ("fam_manifest", 3, "--member", "-1"),
    "family-z-past-end": ("fam_manifest", 3, "--z", "9"),
}


@pytest.mark.parametrize("case", sorted(DECODE_FLAGS))
def test_decode_flag_exit_code(case, request, tmp_path, capsys):
    """An erased row or column out of range, one the code kind has no rows
    or columns for, or a family member out of range, exits 4 instead of
    being ignored."""
    fixture, k_total, flag, value = DECODE_FLAGS[case]
    manifest = request.getfixturevalue(fixture)
    cw = _zero_codeword(manifest, k_total, tmp_path)
    capsys.readouterr()
    assert cli.main(["decode", "--code", str(manifest), "--in", str(cw),
                     "--out", str(tmp_path / "dec.txt"), flag, value]) == 4
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "InputError"


@pytest.mark.parametrize("flag,value", [("--member", "2"), ("--member", "-1"),
                                        ("--z", "9")])
def test_encode_member_flag_exit_code(flag, value, fam_manifest, tmp_path, capsys):
    """A family member out of range exits 4 instead of wrapping or crashing."""
    msg = tmp_path / "msg.txt"
    cli.write_matrix_file(str(msg), f2, [[1, 0, 1]])
    assert cli.main(["encode", "--code", str(fam_manifest), "--in", str(msg),
                     "--out", str(tmp_path / "cw.txt"), flag, value]) == 4
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "InputError"


USAGE_ERRORS = {
    "budget": (["verify-family", "--manifest"], "fam_manifest", ["--budget", "abc"]),
    "delta": (["verify-graph", "--code"], "bp_manifest", ["--delta", "abc"]),
    "delta-zero-denominator": (["verify-graph", "--code"], "bp_manifest",
                               ["--delta", "1/0"]),
    "epsilon": (["check-source", "--bridge"], "bridge_file", ["--epsilon", "abc"]),
    "no-command": ([], None, []),
}


@pytest.fixture
def bridge_file(fam_manifest, tmp_path):
    path = tmp_path / "ext.json"
    assert cli.main(["bridge", "--family", str(fam_manifest), "--as", "extractor",
                     "--out", str(path)]) == 0
    return path


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_usage_error_exit_code(case, request, capsys):
    """A bad command line exits 4 with one JSON line, not argparse's 2 or 3."""
    head, fixture, tail = USAGE_ERRORS[case]
    argv = head + ([str(request.getfixturevalue(fixture))] if fixture else []) + tail
    capsys.readouterr()
    assert cli.main(argv) == 4
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "InputError"


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert "usage" in capsys.readouterr().out


def test_verify_graph_delta_on_bipartite_exit_code(bp_manifest, tmp_path, capsys):
    """A bipartite code is verified at its manifest's delta_row and
    delta_col: --delta exits 4 and writes no report."""
    rep = tmp_path / "rep.json"
    assert cli.main(["verify-graph", "--code", str(bp_manifest), "--delta", "7/8",
                     "--out", str(rep)]) == 4
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "InputError"
    assert "--delta" in json.loads(lines[0])["detail"]
    assert not rep.exists()


def test_verify_graph_delta_zero_means_zero(nm_manifest, tmp_path):
    """--delta 0 erases no column symbol; it does not fall back to the manifest."""
    rep = tmp_path / "rep.json"
    assert cli.main(["verify-graph", "--code", str(nm_manifest), "--delta", "0",
                     "--out", str(rep)]) == 0
    assert json.loads(rep.read_text())["patterns_tested"] == 1


GRAPH_FIXTURES = {"bipartite": ("bp_manifest", 4), "nearly-mds": ("nm_manifest", 12),
                  "nearly-mds-improved": ("nmi_manifest", 16), "symmetric": ("sym_manifest", 10)}


@pytest.mark.parametrize("command", ["encode", "decode"])
@pytest.mark.parametrize("flag,value", [("--z", "0"), ("--member", "5")])
@pytest.mark.parametrize("kind", sorted(GRAPH_FIXTURES))
def test_member_flags_on_graph_code_exit_code(kind, flag, value, command, request, tmp_path,
                                              capsys):
    """--z and --member name a family member; any other kind exits 4, also
    when the value given is the family default."""
    fixture, k_total = GRAPH_FIXTURES[kind]
    manifest = request.getfixturevalue(fixture)
    infile = tmp_path / "in.txt"
    if command == "encode":
        cli.write_matrix_file(str(infile), f2, [[0] * k_total])
    else:
        infile = _zero_codeword(manifest, k_total, tmp_path)
    capsys.readouterr()
    assert cli.main([command, "--code", str(manifest), "--in", str(infile),
                     "--out", str(tmp_path / "out.txt"), flag, value]) == 4
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and flag in json.loads(lines[0])["detail"]


@pytest.mark.parametrize("kind,flags", [
    ("nearly-mds-improved", ["--M", "7"]),
    ("nearly-mds-improved", ["--M", "7", "--drow", "1/2", "--ell", "9"]),
    ("bipartite", ["--dprime", "1/3"]),
])
def test_build_graph_foreign_flag_exit_code(kind, flags, tmp_path, capsys):
    """A build-graph flag that the kind does not take exits 4 and writes nothing."""
    out = tmp_path / "man.json"
    assert cli.main(["build-graph", "--kind", kind, "--q", "2", *flags,
                     "--out", str(out)]) == 4
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "InputError"
    assert flags[0] in json.loads(lines[0])["detail"]
    assert not out.exists()


COUNT_FLAGS = ["--M", "--N", "--n", "--M_b", "--D", "--D_in", "--ell", "--ell0",
               "--inner-ell0", "--k-row", "--inner-k-row", "--family-size"]


@pytest.mark.parametrize("flag", COUNT_FLAGS)
@pytest.mark.parametrize("value", ["0", "-1"])
def test_build_graph_count_flag_below_one_is_a_usage_error(flag, value):
    """Every build-graph count flag rejects a value below 1 as it is parsed
    (nearly-mds with --N 0 used to draw generators forever)."""
    with pytest.raises(cli.InputError, match=flag):
        cli.build_parser().parse_args(["build-graph", "--kind", "nearly-mds", "--q", "2",
                                       flag, value, "--out", "man.json"])
    assert getattr(cli.build_parser().parse_args(
        ["build-graph", "--kind", "nearly-mds", "--q", "2", flag, "1", "--out", "man.json"]),
        flag.lstrip("-").replace("-", "_")) == 1


@pytest.mark.parametrize("kind,flag", [("bipartite", "--M"), ("symmetric", "--n"),
                                       ("nearly-mds-improved", "--D")])
def test_build_graph_count_below_one_exit_code(kind, flag, tmp_path, capsys):
    """A count flag below 1 exits 4 with one JSON line and writes nothing
    (it exited 3 from the builders)."""
    out = tmp_path / "man.json"
    assert cli.main(["build-graph", "--kind", kind, "--q", "2", flag, "0",
                     "--out", str(out)]) == 4
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "InputError"
    assert flag in json.loads(lines[0])["detail"]
    assert not out.exists()


def test_manifest_count_below_one_is_an_input_error():
    """A graph manifest's count parameter below 1 is rejected as it is read;
    the seed, a plain integer, is not a count."""
    for _, name, typ, _ in cli.GRAPH_FLAGS:
        if typ is cli._count:
            with pytest.raises(cli.InputError, match=name):
                cli._param({name: 0}, name)
            assert cli._param({name: 1}, name) == 1
    assert cli._param({"rng_seed": 0}, "rng_seed") == 0
    assert sorted(name for _, name, typ, _ in cli.GRAPH_FLAGS if typ is cli._count) == sorted(
        f.lstrip("-").replace("-", "_") for f in COUNT_FLAGS)


@pytest.mark.parametrize("fixture,name", [("bp_manifest", "M"), ("nmi_manifest", "D")])
@pytest.mark.parametrize("command", ["verify-graph", "encode", "decode"])
def test_manifest_count_below_one_exit_code(fixture, name, command, request, tmp_path, capsys):
    """A hand-edited manifest with a count of 0 exits 4 (it exited 3)."""
    man = json.loads(request.getfixturevalue(fixture).read_text())
    man["params"][name] = 0
    bad, word = tmp_path / "bad.json", tmp_path / "word.txt"
    bad.write_text(json.dumps(man))
    cli.write_matrix_file(str(word), f2, [[0]])
    argv = [command, "--code", str(bad)]
    if command != "verify-graph":
        argv += ["--in", str(word), "--out", str(tmp_path / "out.txt")]
    capsys.readouterr()
    assert cli.main(argv) == 4
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "InputError"
    assert name in json.loads(lines[0])["detail"]


# sha256 prefixes of each graph kind's manifest and of its codeword of the
# message [1, 0, 0, 1, 0, 0, ...], recorded before the kinds shared one codec
GRAPH_PINS = {"bipartite": ("7c03a508bafb2f68", "2120207feec2ec25"),
              "nearly-mds": ("7a69d678c6936a72", "78f91b2ee7e0fdbf"),
              "nearly-mds-improved": ("676f049c4fb8b932", "d483406d2a1cbc2f"),
              "symmetric": ("e35d1716fc794618", "113cf97069a39ba8")}


@pytest.mark.parametrize("kind", sorted(GRAPH_PINS))
def test_graph_manifest_and_codeword_pinned(kind, request, tmp_path):
    fixture, k_total = GRAPH_FIXTURES[kind]
    manifest = request.getfixturevalue(fixture)
    msg, cw = tmp_path / "msg.txt", tmp_path / "cw.txt"
    cli.write_matrix_file(str(msg), f2, [[int(i % 3 == 0) for i in range(k_total)]])
    assert cli.main(["encode", "--code", str(manifest), "--in", str(msg),
                     "--out", str(cw)]) == 0
    digest = [hashlib.sha256(f.read_bytes()).hexdigest()[:16] for f in (manifest, cw)]
    assert tuple(digest) == GRAPH_PINS[kind]


# kind -> (message length, sha256 prefixes as in GRAPH_PINS) of the build-graph
# run that takes every default (`--kind K --q 2` only), recorded while the
# builders still had defaults of their own; None: the defaults are infeasible
DEFAULT_GRAPH_PINS = {"bipartite": (4, ("958edb1131a4518d", "b2496f99fc2a7eea")),
                      "nearly-mds": None,
                      "nearly-mds-improved": (32, ("88de6cf0685ba16f", "3a28fb66e70e36e9")),
                      "symmetric": (10, GRAPH_PINS["symmetric"])}


@pytest.mark.parametrize("kind", sorted(DEFAULT_GRAPH_PINS))
def test_default_graph_manifest_and_codeword_pinned(kind, tmp_path, capsys):
    manifest, msg, cw = tmp_path / "man.json", tmp_path / "msg.txt", tmp_path / "cw.txt"
    rc = cli.main(["build-graph", "--kind", kind, "--q", "2", "--out", str(manifest)])
    if DEFAULT_GRAPH_PINS[kind] is None:
        assert rc == 3
        assert json.loads(capsys.readouterr().out)["detail"] == \
            "instance rate 1/8 below target 3/4"
        return
    assert rc == 0
    k_total, pins = DEFAULT_GRAPH_PINS[kind]
    cli.write_matrix_file(str(msg), f2, [[int(i % 3 == 0) for i in range(k_total)]])
    assert cli.main(["encode", "--code", str(manifest), "--in", str(msg),
                     "--out", str(cw)]) == 0
    digest = [hashlib.sha256(f.read_bytes()).hexdigest()[:16] for f in (manifest, cw)]
    assert tuple(digest) == pins


def _stdout_pin(argv, capsys) -> tuple[int, str]:
    """(exit code, sha256 prefix of stdout) of one command."""
    capsys.readouterr()
    rc = cli.main(argv)
    return rc, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16]


# sha256 prefixes, as in GRAPH_PINS, of report's stdout on each fixture manifest
REPORT_PINS = {"family": "1cf3430512990f33", "bipartite": "21eabaee0b6ddcb0",
               "nearly-mds": "e374432bcdf86177", "nearly-mds-improved": "cc8790aac917ea8a",
               "symmetric": "2342b76400508a0a"}


@pytest.mark.parametrize("kind", sorted(REPORT_PINS))
def test_report_pinned(kind, request, capsys):
    fixture = "fam_manifest" if kind == "family" else GRAPH_FIXTURES[kind][0]
    manifest = str(request.getfixturevalue(fixture))
    assert _stdout_pin(["report", "--manifest", manifest], capsys) == (0, REPORT_PINS[kind])


# (kind, --delta or None for the manifest's) -> (exit code, sha256 prefix of
# verify-graph's report on stdout)
VERIFY_GRAPH_PINS = {("bipartite", None): (0, "ca906c30f4fb0180"),
                     ("nearly-mds", None): (0, "ea02795ab011629c"),
                     ("nearly-mds", "1/2"): (2, "e92005e32b66dd8f"),
                     ("nearly-mds-improved", None): (0, "ea02795ab011629c"),
                     ("nearly-mds-improved", "1/2"): (2, "e92005e32b66dd8f"),
                     ("symmetric", None): (0, "48f9b36ab316d4cc"),
                     ("symmetric", "1/2"): (2, "3c28eaa2cd595df4")}


@pytest.mark.parametrize("kind,delta", sorted(VERIFY_GRAPH_PINS, key=str))
def test_verify_graph_report_pinned(kind, delta, request, capsys):
    manifest = str(request.getfixturevalue(GRAPH_FIXTURES[kind][0]))
    flags = [] if delta is None else ["--delta", delta]
    assert (_stdout_pin(["verify-graph", "--code", manifest, *flags], capsys)
            == VERIFY_GRAPH_PINS[kind, delta])


BUILDERS ={"bipartite": gc.build_bipartite, "nearly-mds": gc.build_nearly_mds,
            "nearly-mds-improved": gc.build_nearly_mds_improved,
            "symmetric": sym.build_symmetric}


@pytest.mark.parametrize("kind", sorted(cli.GRAPH_KINDS))
def test_builder_takes_every_parameter_from_build_graph(kind):
    """GRAPH_FLAGS holds the only default of a construction parameter: a
    kind's builder takes exactly the parameters its GRAPH_KINDS row names,
    and gives none of them a default."""
    params = inspect.signature(BUILDERS[kind]).parameters
    assert sorted(params) == sorted(["q", *cli.GRAPH_KINDS[kind][1]])
    assert [n for n, v in params.items() if v.default is not inspect.Parameter.empty] == []


# kind -> (manifest fixture, message length, member flags, erased rows, erased columns)
ROUND_TRIPS = {
    "family": ("fam_manifest", 3, ["--z", "2", "--member", "1"], [], [3, 9]),
    "bipartite": ("bp_manifest", 4, [], [0], [3, 6]),
    "nearly-mds": ("nm_manifest", 12, [], [], [0, 5, 11]),
    "nearly-mds-improved": ("nmi_manifest", 16, [], [], [1, 4, 9]),
    "symmetric": ("sym_manifest", 10, [], [3], [9]),
}


@pytest.mark.parametrize("kind", sorted(ROUND_TRIPS))
def test_cli_round_trip(kind, request, tmp_path):
    """encode, erase within the design radius, decode: the message comes back.

    Erased cells hold a wrong digit, not "?": the erasures reach the
    decoder through the flags alone.  A family has no erasable rows or
    columns, so its erased columns are single cells marked "?" instead."""
    fixture, k_total, member, rows, cols = ROUND_TRIPS[kind]
    manifest = str(request.getfixturevalue(fixture))
    msg, cw, rcv, dec = (tmp_path / f for f in ("msg", "cw", "rcv", "dec"))
    sent = [[int(v) for v in np.random.default_rng(k_total).integers(0, 2, size=k_total)]]
    cli.write_matrix_file(str(msg), f2, sent)
    assert cli.main(["encode", "--code", manifest, "--in", str(msg), "--out", str(cw)]
                    + member) == 0
    family = kind == "family"
    word = [[(None if family else 1 - v) if i in rows or j in cols else v
             for j, v in enumerate(row)] for i, row in enumerate(cli.read_matrix_file(str(cw)))]
    cli.write_matrix_file(str(rcv), f2, word)
    flags = [] if family else ["--erased-rows", ",".join(map(str, rows)),
                               "--erased-cols", ",".join(map(str, cols))]
    assert cli.main(["decode", "--code", manifest, "--in", str(rcv), "--out", str(dec)]
                    + member + flags) == 0
    assert cli.read_matrix_file(str(dec)) == sent


def _header(text, header):
    """A code text with its field header line replaced."""
    return header + text[text.index("\n"):]


def _set_member(man, header):
    man["family"]["codes"][0] = _header(man["family"]["codes"][0], header)


# case -> (manifest fixture, command, edit).  Graph manifests go to
# verify-graph; family manifests to verify-family, which reads the member
# codes and fractions, or to encode, which rebuilds the construction from
# the outer code, inner family, shuffler and parameters.
MANIFEST_EDITS = {
    "unknown-kind": ("bp_manifest", "verify-graph", lambda m: m.update(kind="foo", params={})),
    "kind-list": ("bp_manifest", "verify-graph", lambda m: m.update(kind=["bipartite"])),
    "params-list": ("bp_manifest", "verify-graph", lambda m: m.update(params=[])),
    "q-string": ("bp_manifest", "verify-graph", lambda m: m["params"].update(q="2")),
    "M-float": ("bp_manifest", "verify-graph", lambda m: m["params"].update(M=4.0)),
    "delta_row-float": ("bp_manifest", "verify-graph",
                        lambda m: m["params"].update(delta_row=0.25)),
    "delta_row-text": ("bp_manifest", "verify-graph",
                       lambda m: m["params"].update(delta_row="a quarter")),
    "rng_seed-bool": ("bp_manifest", "verify-graph", lambda m: m["params"].update(rng_seed=True)),
    "symmetric-delta-float": ("sym_manifest", "verify-graph", lambda m: m.update(delta=0.0625)),
    "eta-negative": ("bp_manifest", "verify-graph", lambda m: m["params"].update(eta="-1")),
    "delta_col-above-one": ("bp_manifest", "verify-graph",
                            lambda m: m["params"].update(delta_col="5/4")),
    "member-field-token": ("fam_manifest", "verify-family",
                           lambda m: _set_member(m, "field 2 x")),
    "member-non-monic": ("fam_manifest", "verify-family",
                         lambda m: _set_member(m, "field 2 1 1 0")),
    "family-delta-float": ("fam_manifest", "verify-family",
                           lambda m: m["family"].update(delta=0.125)),
    "outer-field-token": ("fam_manifest", "encode",
                          lambda m: m.update(outer=_header(m["outer"], "field 2 x"))),
    "inner-delta-float": ("fam_manifest", "encode", lambda m: m["inner"].update(delta=0.125)),
    "shuffler-token": ("fam_manifest", "encode",
                       lambda m: m.update(shuffler="16 8 4 seeded_random x")),
    "params-delta-float": ("fam_manifest", "encode", lambda m: m["params"].update(delta=0.125)),
    "params-epsilon-above-one": ("fam_manifest", "encode",
                                 lambda m: m["params"].update(epsilon="3/2")),
    "report-rate-float": ("bp_manifest", "report", lambda m: m.update(rate=0.125)),
    "report-delta-float": ("fam_manifest", "report", lambda m: m["params"].update(delta=0.125)),
}


@pytest.mark.parametrize("case", sorted(MANIFEST_EDITS))
def test_malformed_manifest_field_exit_code(case, request, tmp_path, capsys):
    """An unknown kind, a parameter not of its build-graph flag's type (an
    integer that is a float, string or bool; a fraction not written as a
    string, which report checks too), a fraction outside [0, 1], or a code
    or shuffler text that does not parse exits 4."""
    fixture, command, edit = MANIFEST_EDITS[case]
    man = json.loads(request.getfixturevalue(fixture).read_text())
    edit(man)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(man))
    if command == "encode":
        msg = tmp_path / "msg.txt"
        cli.write_matrix_file(str(msg), f2, [[1, 0, 1]])
        argv = ["encode", "--code", str(bad), "--in", str(msg), "--out", str(tmp_path / "cw")]
    else:
        argv = [command, MANIFEST_FLAGS[command][0], str(bad)]
    capsys.readouterr()
    assert cli.main(argv) == 4
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "InputError"


@pytest.mark.parametrize("kind", ["family2", None])
def test_report_unknown_kind_exit_code(kind, fam_manifest, tmp_path, capsys):
    """report reads the kind as the other commands do: an unknown or
    missing kind exits 4 and prints the error alone."""
    man = json.loads(fam_manifest.read_text())
    del man["kind"]
    if kind is not None:
        man["kind"] = kind
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(man))
    capsys.readouterr()
    assert cli.main(["report", "--manifest", str(bad)]) == 4
    lines = capsys.readouterr().out.splitlines()
    assert [json.loads(line) for line in lines] == [
        {"error": "InputError", "detail": f"unknown manifest kind {kind!r}"}]


# case -> (manifest fixture or None, command line with "{}" for its path):
# each gives a fraction flag a value outside [0, 1]
FRACTION_FLAGS = {
    "verify-graph-delta-2": ("nm_manifest", ["verify-graph", "--code", "{}", "--delta", "2"]),
    "verify-graph-delta-13/12": ("nm_manifest",
                                 ["verify-graph", "--code", "{}", "--delta", "13/12"]),
    "verify-graph-montecarlo-delta-2": (
        "nm_manifest", ["verify-graph", "--code", "{}", "--delta", "2",
                        "--mode", "montecarlo", "--seed", "1"]),
    "verify-graph-montecarlo-delta-13/12": (
        "nm_manifest", ["verify-graph", "--code", "{}", "--delta", "13/12",
                        "--mode", "montecarlo", "--seed", "1"]),
    "verify-graph-delta-negative": ("nm_manifest",
                                    ["verify-graph", "--code", "{}", "--delta=-1/4"]),
    "build-graph-bipartite-drow-negative": (
        None, ["build-graph", "--kind", "bipartite", "--q", "2", "--drow=-1"]),
    "build-graph-bipartite-eta-negative": (
        None, ["build-graph", "--kind", "bipartite", "--q", "2", "--eta=-1"]),
    "build-graph-symmetric-eta-negative": (
        None, ["build-graph", "--kind", "symmetric", "--q", "2", "--eta=-1"]),
    "check-source-epsilon-2": ("bridge_file", ["check-source", "--bridge", "{}",
                                               "--free", "0,4", "--epsilon", "2"]),
    **{f"build-family-{flag[2:]}-{name}": (None, FAMILY_ARGS + [f"{flag}={value}"])
       for flag in ("--delta", "--eta", "--epsilon")
       for name, value in (("negative", "-1/8"), ("above-one", "9/8"))},
}


@pytest.mark.parametrize("case", sorted(FRACTION_FLAGS))
def test_fraction_flag_outside_unit_interval_exit_code(case, request, tmp_path, capsys):
    """Every fraction flag reads a value in [0, 1]: a value outside exits
    4 and writes nothing."""
    fixture, argv = FRACTION_FLAGS[case]
    path = fixture and str(request.getfixturevalue(fixture))
    out = tmp_path / "out.json"
    capsys.readouterr()
    assert cli.main([path if a == "{}" else a for a in argv] + ["--out", str(out)]) == 4
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "InputError"
    assert json.loads(lines[0])["detail"].endswith("is not in [0, 1]")
    assert not out.exists()


def _drop_row(man):
    man["maps"][1] = man["maps"][1][:-1]


# case -> edit of an extractor bridge file that check-source must reject
BRIDGE_EDITS = {
    "role-unknown": lambda b: b.update(role="foo"),
    "field-p-string": lambda b: b["field"].update(p="2"),
    "irreducible-not-of-field": lambda b: b["field"].update(irreducible=[1, 0, 1]),
    "entry-outside-field": lambda b: b["maps"][0][0].__setitem__(0, 2),
    "entry-string": lambda b: b["maps"][0][0].__setitem__(0, "1"),
    "map-missing-row": _drop_row,
}


@pytest.mark.parametrize("case", sorted(BRIDGE_EDITS))
def test_check_source_malformed_bridge_exit_code(case, bridge_file, tmp_path, capsys):
    """A bridge file with an unknown role, a field that is not integers or
    whose irreducible does not fit it, or maps that are not integer
    matrices of one shape in that field exits 4 with one JSON line."""
    man = json.loads(bridge_file.read_text())
    BRIDGE_EDITS[case](man)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(man))
    capsys.readouterr()
    assert cli.main(["check-source", "--bridge", str(bad), "--free", "0,1,2,3",
                     "--epsilon", "1/2"]) == 4
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "InputError"


@pytest.mark.parametrize("free", ["1,99", "1,-3"])
def test_check_source_free_out_of_range_exit_code(free, bridge_file, capsys):
    """--free positions outside [0, n) are malformed input and exit 4, as an
    out-of-range decode --erased-rows does, not the infeasible-parameters 3."""
    capsys.readouterr()
    assert cli.main(["check-source", "--bridge", str(bridge_file), "--free", free,
                     "--epsilon", "1/2"]) == 4
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "InputError"


def test_check_source_without_epsilon_exit_code(bridge_file, tmp_path, capsys):
    """check-source has no default error bound (a fraction never exceeds 1,
    so a bound of 1 passes every source): without --epsilon it exits 4 and
    writes nothing."""
    out = tmp_path / "src.json"
    capsys.readouterr()
    assert cli.main(["check-source", "--bridge", str(bridge_file), "--free", "0",
                     "--out", str(out)]) == 4
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "InputError"
    assert "--epsilon" in json.loads(lines[0])["detail"]
    assert not out.exists()


def test_check_source_huge_field_prime_exits_at_once(bridge_file, tmp_path):
    """A bridge field whose p is the prime 2^61 - 1 exits 4 on its order,
    without first testing p for primality by trial division (minutes)."""
    man = json.loads(bridge_file.read_text())
    man["field"]["p"] = 2 ** 61 - 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(man))
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", "import sys; from codefam.cli import main; "
                          "sys.exit(main(sys.argv[1:]))", "check-source", "--bridge", str(bad),
                          "--free", "0,1", "--epsilon", "1/2"],
                         capture_output=True, text=True, timeout=30, env=env)
    assert run.returncode == 4
    assert json.loads(run.stdout.splitlines()[-1])["error"] == "InputError"


@pytest.mark.parametrize("flags", [["--kind", "bipartite", "--N", "1", "--ell", "2"],
                                   ["--kind", "nearly-mds", "--N", "1", "--ell", "2"],
                                   ["--kind", "nearly-mds", "--N", "2", "--ell", "4"]],
                         ids=["bipartite-N1-ell2", "nearly-mds-N1-ell2", "nearly-mds-N2-ell4"])
def test_build_graph_ell_above_N_exits_at_once(flags, tmp_path):
    """No [N, ell] column code exists when ell > N: build-graph exits 3 and
    writes nothing, instead of drawing ell x N generators forever."""
    out = tmp_path / "man.json"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", "import sys; from codefam.cli import main; "
                          "sys.exit(main(sys.argv[1:]))", "build-graph", *flags, "--q", "2",
                          "--out", str(out)], capture_output=True, text=True, timeout=30, env=env)
    assert run.returncode == 3
    assert json.loads(run.stdout.splitlines()[-1])["error"] == "InfeasibleAtDeskScale"
    assert not out.exists()

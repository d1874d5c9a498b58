import hashlib
import json

import numpy as np
import pytest

from codefam import cli
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
                  "report": ["--manifest"], "check-source": ["--bridge"]}


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

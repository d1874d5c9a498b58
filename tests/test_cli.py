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

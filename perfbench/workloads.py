"""The three benchmark workloads: certify, decode and construct.

A workload's `setup(seed, workdir)` builds every fixture and input from
the workload seed and returns `round_at(r)`, the ops of round r; a round is
a list of `Op`s with the same mix in every round.  The harness runs whole
rounds in a closed loop (one client, one thread).  `decode` cycles through
a pool of rounds and `construct` repeats its one round; `certify` builds
each round past the first from (seed, r) when it is asked for, outside the
timed ops, so no certificate repeats however many rounds a run takes.

An op's `call` is the timed call into codefam's public API.  Library
functions are always looked up through their module at call time, so a
tracer that rebinds them sees the call.  `collect` (untimed, library-free)
captures outputs that a later op may overwrite, and `check` validates the
outcome and returns its canonical text, which the harness digests.
`check` uses no codefam code: ranks are recomputed by `ref_rank`.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np

from codefam import cli
from codefam import code as cd
from codefam import ensemble as ens
from codefam import family_construct as fc
from codefam import graphcode as gc
from codefam import shuffler as sf
from codefam import symmetric as sym
from codefam.gf import make_field


class CheckFailed(Exception):
    pass


def expect(cond, msg: str):
    if not cond:
        raise CheckFailed(msg)


class Op:
    """One closed-loop operation; `seed_free` ops give the same output for
    every workload seed, so their reference digest is checked on all seeds."""

    __slots__ = ("key", "call", "check", "collect", "seed_free")

    def __init__(self, key, call, check, collect=None, seed_free=False):
        self.key = key
        self.call = call
        self.check = check
        self.collect = collect
        self.seed_free = seed_free


def ref_rank(p: int, rows) -> int:
    """Rank over the prime field GF(p) by plain Gaussian elimination.

    Independent of codefam: the reference that witnesses are re-checked with.
    """
    m = [[int(v) % p for v in row] for row in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], p - 2, p)
        m[rank] = [(v * inv) % p for v in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                f = m[r][c]
                m[r] = [(a - f * b) % p for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def _fails(p: int, generators, erased) -> int:
    """Members whose generator loses rank when `erased` columns are removed."""
    erased = set(erased)
    out = 0
    for G in generators:
        keep = [[int(v) for j, v in enumerate(row) if j not in erased] for row in G]
        if ref_rank(p, keep) < len(G):
            out += 1
    return out


def _vec(x) -> str:
    return " ".join(str(int(v)) for v in np.asarray(x).reshape(-1))


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _subset(rng, n: int, size: int) -> list[int]:
    return sorted(int(v) for v in rng.choice(n, size=size, replace=False))


# ----------------------------------------------------------------------
# certify: no-reuse read path
# ----------------------------------------------------------------------

# GF(2) family certificates at the existence-bound size (q=2,
# delta=eta=eps=1/4, t=32): (n, mode) slots of one round.  The machine's
# speed moves between a fast and a slow regime, and a percentile inside a
# cluster of like ops reads the fast value once that share of the cluster
# ran fast.  The counts, with the RS ops below, put the median op at the
# middle of the n=14 cluster and the 90th percentile at the middle of the
# n=16 cluster, and give the GF(q) share about a third of the time.
CERTIFY_SLOTS = ([(16, "exhaustive")] * 6 + [(14, "exhaustive")] * 2
                 + [(12, "exhaustive")] * 4 + [(10, "exhaustive")] * 6
                 + [(16, "montecarlo")] * 2)
QUARTER = Fraction(1, 4)
FAMILY_T = 32
MC_BUDGET = 200
# Reed-Solomon MDS certificates: (p, m, n, k, certificates per round),
# each on its own random evaluation points and run as two ops.  GF(13)
# uses mod-p arithmetic, GF(9) the add-table and GF(16) XOR.
RS_CODES = [(13, 1, 12, 6, 2), (2, 4, 12, 6, 2), (3, 2, 9, 4, 1)]


def _check_family_report(gens, n, t, mode, budget, rng_seed):
    s = math.floor(QUARTER * n)

    def check(rep):
        expect(not isinstance(rep, BaseException), f"raised {rep!r}")
        expect(rep.mode == mode, f"mode {rep.mode}")
        tested = math.comb(n, s) if mode == "exhaustive" else budget
        expect(rep.patterns_tested == tested, f"patterns_tested {rep.patterns_tested} != {tested}")
        expect(rep.rng_seed == rng_seed, f"rng_seed {rep.rng_seed} != {rng_seed}")
        worst = Fraction(rep.worst_fail_fraction)
        if mode == "exhaustive" and worst == 0:
            expect(tuple(rep.worst_pattern) == (), "witness without failures")
        else:
            w = tuple(rep.worst_pattern)
            expect(len(w) == s and len(set(w)) == s and all(0 <= x < n for x in w),
                   f"bad witness {w}")
            got = Fraction(_fails(2, gens, w), t)
            expect(got == worst, f"witness {w} fails {got}, report says {worst}")
        expect(rep.passed == (worst <= QUARTER), "passed flag disagrees with epsilon")
        return (f"{worst}|{','.join(map(str, rep.worst_pattern))}|"
                f"{rep.patterns_tested}|{rep.passed}|{rep.mode}|{rep.rng_seed}")
    return check


def _rs_corrects_call(C, pats):
    return lambda: [cd.corrects_pattern(C, p) for p in pats]


def _rs_decode_call(C, words):
    def call():
        out = []
        for w in words:
            try:
                out.append(cd.erasure_decode(C, w))
            except cd.DecodingFailure:
                out.append(None)
        return out
    return call


def _check_rs_corrects(npats):
    def check(res):
        expect(not isinstance(res, BaseException), f"raised {res!r}")
        expect(len(res) == npats + 1, "wrong result count")
        expect(all(res[:-1]), "an MDS pattern of size n-k was reported uncorrectable")
        expect(res[-1] is False, "a pattern of size n-k+1 was reported correctable")
        return "".join("1" if r else "0" for r in res)
    return check


def _check_rs_decode(msg, npats):
    def check(res):
        expect(not isinstance(res, BaseException), f"raised {res!r}")
        expect(len(res) == npats + 1, "wrong result count")
        for x in res[:-1]:
            expect(x is not None and np.array_equal(x, msg),
                   "decode of an n-k erasure pattern did not return the message")
        expect(res[-1] is None, "decode of an n-k+1 erasure pattern did not fail")
        return _vec(msg) + f"|{npats}|fail"
    return check


def certify_round(seed: int, r: int) -> list[Op]:
    """Round r: fresh families and Reed-Solomon codes drawn from (seed, r)."""
    f2 = make_field(2, 1)
    rng = _rng(seed, 1, r)
    ops = []
    for i, (n, mode) in enumerate(CERTIFY_SLOTS):
        fam = ens.sample_random_family(f2, n, QUARTER, QUARTER, QUARTER,
                                       FAMILY_T, rng_seed=int(rng.integers(2 ** 31)))
        gens = [c.G for c in fam.codes]
        if mode == "exhaustive":
            call = (lambda F=fam: ens.verify_family(F))
            mc_seed = None
        else:
            mc_seed = int(rng.integers(2 ** 31))
            call = (lambda F=fam, s=mc_seed: ens.verify_family(
                F, mode="montecarlo", budget=MC_BUDGET, rng_seed=s))
        ops.append(Op(f"r{r}/gf2-n{n}-{mode}-{i}", call,
                      _check_family_report(gens, n, FAMILY_T, mode, MC_BUDGET, mc_seed)))
    for p, m, n, k, per_round in RS_CODES:
        spec = make_field(p, m)
        pats = list(combinations(range(n), n - k))
        for j in range(per_round):
            # fresh evaluation points, so no (code, pattern) key repeats
            C = cd.reed_solomon(spec, k, n, points=rng.permutation(spec.q)[:n])
            beyond = tuple(_subset(rng, n, n - k + 1))
            tag = f"r{r}/gf{spec.q}-{j}"
            ops.append(Op(f"{tag}-corrects", _rs_corrects_call(C, pats + [beyond]),
                          _check_rs_corrects(len(pats))))
            msg = rng.integers(0, spec.q, size=k, dtype=np.int64)
            cw = cd.encode(C, msg)
            words = [[None if x in pat else int(cw[x]) for x in range(n)]
                     for pat in pats + [beyond]]
            ops.append(Op(f"{tag}-decode", _rs_decode_call(C, words),
                          _check_rs_decode(msg, len(pats))))
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def setup_certify(seed: int, workdir: Path):
    first = certify_round(seed, 0)
    return lambda r: first if r == 0 else certify_round(seed, r)


# ----------------------------------------------------------------------
# decode: high-reuse read path on the frozen acceptance fixtures
# ----------------------------------------------------------------------

def decode_fixtures():
    """The criterion 4-7 fixtures, with the acceptance suite's parameters."""
    f2 = make_field(2, 1)
    delta, eta, eps = Fraction(1, 8), Fraction(3, 7), Fraction(1, 2)
    plan = fc.plan_parameters(2, delta, eta, eps)
    inner = ens.exhaustive_inner_search(f2, 4, plan.delta_in, plan.mu, 2)
    family = fc.ShuffledFamilyParams(cd.gv_search(f2, 4, 2), inner,
                                     sf.make_seeded_random(16, 4, 8, rng_seed=123),
                                     delta, eta, eps)
    bip = gc.build_bipartite(2, 4, 8, QUARTER, QUARTER, QUARTER, rng_seed=1, ell=2,
                             ell0=2, k_row=2, family_size=4, eps_fam=QUARTER)
    nm = gc.build_nearly_mds(2, 12, QUARTER, Fraction(1, 2), M=4, rng_seed=3,
                             ell=4, ell0=2, k_row=3, eps_fam=QUARTER)
    imp = gc.build_nearly_mds_improved(2, 12, QUARTER, Fraction(1, 2), M_b=2, D=4,
                                       rng_seed=7)
    outer = sym.build_outer_graph(2, 4, 2, QUARTER)
    sym_inner = gc.build_bipartite(2, 4, 4, QUARTER, QUARTER, QUARTER, rng_seed=5,
                                   ell=2, ell0=2, k_row=2, family_size=4,
                                   eps_fam=QUARTER)
    return family, bip, nm, imp, sym.concat_graph(outer, sym_inner)


# (decoder, ops per round, of which beyond the design radius).  Weighted
# so that no decoder takes more than half of the round's time.
DECODE_MIX = [("family", 20, 2), ("bipartite", 20, 2), ("nearly-mds", 12, 1),
              ("nearly-mds-improved", 12, 1), ("symmetric", 5, 1)]
DECODE_POOL = 16


def _erase_matrix(X, rows=(), cols=()):
    rows, cols = set(rows), set(cols)
    return [[None if (i in rows or j in cols or v is None) else int(v)
             for j, v in enumerate(r)] for i, r in enumerate(X)]


def _check_decoded(msg, beyond):
    def check(out):
        if isinstance(out, cd.DecodingFailure):
            expect(beyond, f"DecodingFailure within the design radius: {out}")
            return "DecodingFailure"
        expect(not isinstance(out, BaseException), f"raised {out!r}")
        expect(np.array_equal(np.asarray(out).reshape(-1), msg),
               "decoded message differs from the one sent")
        return _vec(out)
    return check


def _decode_op(kind, fx, rng):
    """(call, msg) for one decode input; `beyond` picks the erasure size."""
    family, bip, nm, imp, sgc = fx

    def op(beyond):
        if kind == "family":
            z, ci = int(rng.integers(family.D)), int(rng.integers(len(family.inner)))
            msg = rng.integers(0, 2, size=family.k_total, dtype=np.int64)
            cw = fc.encode_member(family, z, ci, msg)
            size = int(rng.integers(8, 13)) if beyond else int(rng.integers(0, 3))
            erased = set(_subset(rng, family.N, size))
            word = [None if j in erased else int(v) for j, v in enumerate(cw)]
            return (lambda: fc.decode_member(family, z, ci, word)), msg
        if kind == "bipartite":
            msg = rng.integers(0, 2, size=bip.k_total, dtype=np.int64)
            S = _subset(rng, bip.M, 2 if beyond else int(rng.integers(0, 2)))
            T = _subset(rng, bip.N, 3 if beyond else int(rng.integers(0, 3)))
            X = _erase_matrix(bip.encode_matrix(msg), S, T)
            return (lambda: bip.decode_matrix(X, S=S, T=T)), msg
        if kind in ("nearly-mds", "nearly-mds-improved"):
            code = nm if kind == "nearly-mds" else imp
            msg = rng.integers(0, 2, size=code.k_total, dtype=np.int64)
            T = _subset(rng, code.N, 6 if beyond else int(rng.integers(0, 4)))
            X = _erase_matrix(code.encode_columns(msg), (), T)
            return (lambda: code.decode_columns(X, T=T)), msg
        msg = rng.integers(0, 2, size=sgc.dim, dtype=np.int64)
        E = _subset(rng, sgc.N, 3 if beyond else int(rng.integers(0, 2)))
        F = _subset(rng, sgc.N, 3 if beyond else int(rng.integers(0, 2)))
        X = _erase_matrix(sgc.encode(msg), E, F)
        return (lambda: sym.decode_graph(sgc, X, E, F)), msg
    return op


def setup_decode(seed: int, workdir: Path):
    fx = decode_fixtures()
    rng = _rng(seed, 2)
    makers = {kind: _decode_op(kind, fx, rng) for kind, _, _ in DECODE_MIX}
    rounds = []
    for r in range(DECODE_POOL):
        ops = []
        for kind, count, beyond in DECODE_MIX:
            for j in range(count):
                far = j < beyond
                call, msg = makers[kind](far)
                ops.append(Op(f"r{r}/{kind}-{j}", call, _check_decoded(msg, far)))
        order = rng.permutation(len(ops))
        rounds.append([ops[i] for i in order])
    return lambda r: rounds[r % len(rounds)]


# ----------------------------------------------------------------------
# construct: CLI pipeline and inner-ensemble searches
# ----------------------------------------------------------------------

FAMILY_ARGS = ["--q", "2", "--delta", "1/8", "--eta", "3/7", "--epsilon", "1/2",
               "--N", "16", "--M", "4", "--D", "8", "--inner-size", "2"]
# build-graph arguments of the criterion 5, 6 and 7 fixtures, plus the
# verify-graph --delta each needs (nearly-MDS manifests carry no delta)
# and the expected number of patterns tested.
GRAPH_KINDS = {
    "bipartite": (["--q", "2", "--M", "4", "--N", "8", "--drow", "1/4", "--dcol", "1/4",
                   "--eta", "1/4", "--seed", "1", "--ell", "2", "--ell0", "2",
                   "--k-row", "2", "--family-size", "4", "--eps-fam", "1/4"], None, 112),
    "nearly-mds": (["--q", "2", "--N", "12", "--M", "4", "--delta", "1/4", "--eta", "1/2",
                    "--seed", "3", "--ell", "4", "--ell0", "2", "--k-row", "3",
                    "--eps-fam", "1/4"], "1/4", 220),
    "nearly-mds-improved": (["--q", "2", "--N", "12", "--M_b", "2", "--D", "4",
                             "--delta", "1/4", "--eta", "1/2", "--seed", "7"], "1/4", 220),
    "symmetric": (["--q", "2", "--n", "4", "--ell", "2", "--dprime", "1/4", "--D_in", "4",
                   "--eta", "1/4", "--seed", "5", "--inner-ell0", "2",
                   "--inner-k-row", "2", "--eps-fam", "1/4"], None, 17),
}
# Inner searches that succeed: (q, L, delta_in, mu, family size, k).
# Those over GF(3) spend most of their time in the RREF scan, those with
# family size 3 in the ensemble product loop.
INNER_SEARCHES = [
    (2, 6, Fraction(1, 2), Fraction(1, 2), 2, 2),
    (2, 5, Fraction(1, 5), Fraction(0), 2, 3),
    (3, 5, Fraction(2, 5), Fraction(1, 2), 2, 2),
    (3, 4, Fraction(1, 2), Fraction(1, 2), 2, 2),
    (3, 4, Fraction(1, 4), Fraction(0), 2, 2),
    (2, 5, Fraction(2, 5), Fraction(1, 3), 3, 2),
    (2, 7, Fraction(2, 7), Fraction(1, 3), 3, 2),
]
# The CLI ops span 3-60 ms; the many cheap check-source and family
# encode/decode ops put the median op inside the dense 3-7 ms cluster.
PIPELINE_SEEDS = 2
SOURCE_CHECKS = 8
FAMILY_MEMBERS = [(0, 0), (1, 1), (3, 1), (4, 0), (5, 0), (7, 1)]
K_TOTAL = {"family": 3, "bipartite": 4, "nearly-mds": 12, "nearly-mds-improved": 16,
           "symmetric": 10}


def run_cli(argv):
    """cli.main in-process with --workers pinned to 1 (the flag is ignored)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["--workers", "1"] + argv)
    return rc, buf.getvalue()


class _CliOp:
    """A CLI call whose output file is read right after it returns."""

    def __init__(self, argv, out: Path):
        self.argv = argv
        self.out = out

    def call(self):
        self.out.unlink(missing_ok=True)  # the op must write it afresh
        return run_cli(self.argv)

    def collect(self, outcome):
        if isinstance(outcome, BaseException):
            return outcome
        rc, stdout = outcome
        return rc, stdout, self.out.read_bytes() if self.out.exists() else None


def output_bytes(outcome) -> int:
    """Bytes of the output file a CLI op wrote (0 for other ops)."""
    if isinstance(outcome, tuple) and len(outcome) == 3 and isinstance(outcome[2], bytes):
        return len(outcome[2])
    return 0


def _cli_check(semantic):
    def check(outcome):
        expect(not isinstance(outcome, BaseException), f"raised {outcome!r}")
        rc, stdout, data = outcome
        expect(rc == 0, f"exit code {rc}: {stdout.strip()[:200]}")
        expect(data is not None, "no output file written")
        semantic(data)
        return f"rc={rc}\n{stdout}\n" + data.decode()
    return check


def _json_check(fn):
    return lambda data: fn(json.loads(data))


def _check_inner_family(q, L, delta_in, mu, size, k):
    s = math.floor(delta_in * L)

    def check(F):
        expect(not isinstance(F, BaseException), f"raised {F!r}")
        expect(len(F.codes) == size, "wrong family size")
        gens = [c.G for c in F.codes]
        expect(all(G.shape == (k, L) for G in gens), "wrong member shape")
        for pat in combinations(range(L), s):
            expect(Fraction(_fails(q, gens, pat), size) <= mu,
                   f"pattern {pat} fails more than mu members")
        return ";".join(_vec(G) for G in gens)
    return check


def _codec_inputs(tag, kind, man: Path, extra, fixed: Path, rng):
    """Message file, fixture codeword bytes, received file and decode flags.

    The codeword comes from `encode` on a fixture manifest; erasures stay
    within the code's design radius, so the decode must return the message.
    """
    f2 = make_field(2, 1)
    msg_file = fixed / f"{tag}.msg"
    cli.write_matrix_file(str(msg_file), f2,
                          [[int(v) for v in rng.integers(0, 2, size=K_TOTAL[kind])]])
    cw_file = fixed / f"{tag}.cw"
    rc, _ = run_cli(["encode", "--code", str(man), "--in", str(msg_file),
                     "--out", str(cw_file)] + extra)
    expect(rc == 0, f"fixture encode {tag} failed")
    rows = cli.read_matrix_file(str(cw_file))
    erased_rows, erased_cols = [], []
    if kind == "family":
        drop = set(_subset(rng, len(rows[0]), 2))
        rows = [[None if j in drop else v for j, v in enumerate(rows[0])]]
    elif kind in ("bipartite", "symmetric"):
        erased_rows = _subset(rng, len(rows), 1)
        erased_cols = _subset(rng, len(rows[0]), 2 if kind == "bipartite" else 1)
    else:
        erased_cols = _subset(rng, len(rows[0]), 3)
    rcv_file = fixed / f"{tag}.rcv"
    cli.write_matrix_file(str(rcv_file), f2, _erase_matrix(rows, erased_rows, erased_cols))
    flags = list(extra)
    if erased_rows:
        flags += ["--erased-rows", ",".join(map(str, erased_rows))]
    if erased_cols:
        flags += ["--erased-cols", ",".join(map(str, erased_cols))]
    return msg_file, cw_file.read_bytes(), rcv_file, flags


def setup_construct(seed: int, workdir: Path):
    if workdir.exists():
        shutil.rmtree(workdir)
    fixed = workdir / "fixtures"
    out = workdir / "out"
    fixed.mkdir(parents=True)
    out.mkdir()
    rng = _rng(seed, 3)
    seeds = [int(v) for v in rng.choice(10 ** 6, size=PIPELINE_SEEDS, replace=False)]
    ops = []

    def add(key, argv, out_file, semantic, seed_free=False):
        c = _CliOp(argv, out_file)
        ops.append(Op(key, c.call, _cli_check(semantic), c.collect, seed_free))

    def add_codec(tag, man, msg_file, cw_bytes, rcv_file, dflags, eflags):
        cw = out / f"{tag}.cw"
        add(f"encode-{tag}", ["encode", "--code", str(man), "--in", str(msg_file),
                              "--out", str(cw)] + eflags,
            cw, lambda data: expect(data == cw_bytes, "codeword differs from fixture"))
        dec = out / f"{tag}.dec"
        sent = msg_file.read_bytes()
        add(f"decode-{tag}", ["decode", "--code", str(man), "--in", str(rcv_file),
                              "--out", str(dec)] + dflags,
            dec, lambda data: expect(data == sent, "decoded message differs from the one sent"))

    # Fixture manifests and codewords.  The ops rebuild the same manifests,
    # so their encode must reproduce these codewords byte for byte.
    fixtures = {}
    fam_fixture = fixed / "family.json"
    rc, _ = run_cli(["build-family"] + FAMILY_ARGS + ["--seed", str(seeds[0]),
                                                      "--out", str(fam_fixture)])
    expect(rc == 0, "fixture build-family failed")
    for z, member in FAMILY_MEMBERS:
        extra = ["--z", str(z), "--member", str(member)]
        fixtures[f"family-z{z}-m{member}"] = (
            "family", out / f"family-{seeds[0]}.json", extra,
            _codec_inputs(f"family-z{z}-m{member}", "family", fam_fixture, extra, fixed, rng))
    for kind, (args, _, _) in GRAPH_KINDS.items():
        man = fixed / f"{kind}.json"
        rc, _ = run_cli(["build-graph", "--kind", kind] + args + ["--out", str(man)])
        expect(rc == 0, f"fixture build-graph {kind} failed")
        fixtures[kind] = (kind, out / f"{kind}.json", [],
                          _codec_inputs(kind, kind, man, [], fixed, rng))

    exact_flags = {}
    for s in seeds:
        fam = out / f"family-{s}.json"

        def manifest_ok(m, s=s):
            expect(m["kind"] == "family" and m["params"]["rng_seed"] == s, "bad manifest")
            expect(len(m["family"]["codes"]) == 16 and m["rate"] == "3/16", "bad family")
        add(f"build-family-{s}", ["build-family"] + FAMILY_ARGS + ["--seed", str(s), "--out", str(fam)],
            fam, _json_check(manifest_ok))
        rep = out / f"verify-{s}.json"
        add(f"verify-family-{s}", ["verify-family", "--manifest", str(fam), "--out", str(rep)],
            rep, _json_check(lambda r: expect(
                r["passed"] and r["patterns_tested"] == 120 and r["worst_fail_fraction"] == "0",
                f"exhaustive report {r}")))
        mc = out / f"verify-mc-{s}.json"
        add(f"verify-family-mc-{s}", ["verify-family", "--manifest", str(fam), "--mode", "montecarlo",
                                      "--budget", "200", "--seed", str(s), "--out", str(mc)],
            mc, _json_check(lambda r, s=s: expect(
                r["passed"] and r["patterns_tested"] == 200 and r["rng_seed"] == s,
                f"montecarlo report {r}")))
        for role, m_rows in (("extractor", 3), ("condenser", 13)):
            br_file = out / f"{role}-{s}.json"
            add(f"bridge-{role}-{s}", ["bridge", "--family", str(fam), "--as", role,
                                       "--out", str(br_file)],
                br_file, _json_check(lambda b, m_rows=m_rows: expect(
                    b["seeds"] == 16 and b["n"] == 16 and b["m"] == m_rows, f"bridge shape {b['m']}")))
        for i in range(SOURCE_CHECKS):
            erased = _subset(rng, 16, 2)
            free = [x for x in range(16) if x not in erased]
            # the extractor is checked on F, the condenser on its complement
            for role, src_free in (("extractor", free), ("condenser", erased)):
                cs = out / f"check-{role}-{s}-{i}.json"

                def source_ok(c, role=role, key=(s, i)):
                    expect(c["passed"], f"check-source {role} failed: {c}")
                    if role == "extractor":
                        exact_flags[key] = c["per_seed_exact"]
                    else:
                        # exact on F <=> dual lossless on the complement
                        expect(c["per_seed_lossless"] == exact_flags.get(key),
                               "extractor/condenser duality broken")
                add(f"check-source-{role}-{s}-{i}",
                    ["check-source", "--bridge", str(out / f"{role}-{s}.json"), "--free",
                     ",".join(map(str, src_free)), "--epsilon", "1/2", "--out", str(cs)],
                    cs, _json_check(source_ok))

    for tag, (kind, man, extra, (msg_file, cw_bytes, rcv_file, dflags)) in fixtures.items():
        if kind in GRAPH_KINDS:
            args, delta, tested = GRAPH_KINDS[kind]
            add(f"build-graph-{kind}", ["build-graph", "--kind", kind] + args + ["--out", str(man)],
                man, _json_check(lambda m, kind=kind: expect(m["kind"] == kind, "bad kind")),
                seed_free=True)
            vg = out / f"verify-graph-{kind}.json"
            add(f"verify-graph-{kind}", ["verify-graph", "--code", str(man), "--out", str(vg)]
                + (["--delta", delta] if delta else []),
                vg, _json_check(lambda r, tested=tested: expect(
                    r["passed"] and r["patterns_tested"] == tested, f"verify-graph {r}")),
                seed_free=True)
        add_codec(tag, man, msg_file, cw_bytes, rcv_file, dflags, extra)

    for q, L, d, mu, size, k in INNER_SEARCHES:
        ops.append(Op(f"inner-search-q{q}-L{L}-k{k}-d{d}-mu{mu}-t{size}".replace("/", "_"),
                      (lambda q=q, L=L, d=d, mu=mu, size=size, k=k: ens.exhaustive_inner_search(
                          make_field(q, 1), L, d, mu, size, k=k)),
                      _check_inner_family(q, L, d, mu, size, k), seed_free=True))
    return lambda r: ops


WORKLOADS = {
    "certify": setup_certify,
    "decode": setup_decode,
    "construct": setup_construct,
}
# Rounds whose seed-0 digests reference.json records.
REFERENCE_ROUNDS = {"certify": 8, "decode": DECODE_POOL, "construct": 1}

"""
Command-line front end: build and verify families and graph codes,
encode/decode files, and run the extractor/condenser bridge.

All randomness flows from the recorded --seed; reruns with the same
config produce byte-identical output files.  Exit codes: 0 pass,
2 verification or decoding failure, 3 infeasible parameters, 4 I/O,
malformed input or a bad command line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from codefam import code as cd
from codefam import ensemble as ens
from codefam import family_construct as fc
from codefam import graphcode as gc
from codefam import shuffler as sf
from codefam import symmetric as sym
from codefam import bridge as br
from codefam.gf import make_field

EXIT_PASS = 0
EXIT_VERIFY_FAIL = 2
EXIT_INFEASIBLE = 3
EXIT_IO = 4


class InputError(Exception):
    """Malformed input: a bad command line, a manifest that is not an object
    or lacks a key, a bad integer list, a malformed matrix file."""


class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors (exit 4), not argparse's exit 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(message)


class _Manifest(dict):
    """A JSON object whose missing keys are input errors, not KeyErrors."""

    def __missing__(self, key):
        raise InputError(f"manifest has no key {key!r}")


def _frac(s: str) -> Fraction:
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None


def _ints(text: str) -> list[int]:
    """Comma-separated integers; the empty string is the empty list."""
    try:
        return [int(x) for x in text.split(",")] if text else []
    except ValueError:
        raise InputError(f"not a comma-separated integer list: {text!r}") from None


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _report(path: str | None, obj) -> None:
    """Write a report to `path`, or to stdout when no path is given."""
    if path:
        _write_json(path, obj)
    else:
        json.dump(obj, sys.stdout, indent=1, sort_keys=True)
        print()


def _error(exc: Exception, rc: int) -> int:
    """Print an error as one JSON line and return the exit code."""
    json.dump({"error": type(exc).__name__, "detail": str(exc)}, sys.stdout,
              sort_keys=True)
    print()
    return rc


def _read_json(path: str):
    with open(path) as fh:
        man = json.load(fh, object_hook=_Manifest)
    if not isinstance(man, dict):
        raise InputError(f"{path}: top level is not a JSON object")
    return man


# ----------------------------------------------------------------------
# Matrix files: header "M N field p m <coeffs>", then M rows, "?" = erasure.
# ----------------------------------------------------------------------

def write_matrix_file(path: str, spec, rows) -> None:
    lines = [f"{len(rows)} {len(rows[0])} field {spec.p} {spec.m} "
             + " ".join(map(str, spec.irreducible))]
    for row in rows:
        lines.append(" ".join("?" if v is None else str(int(v)) for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_matrix_file(path: str, spec=None):
    """Rows of a matrix file, None marking an erasure.  Given the code's
    field `spec`, the header must name that field and every entry lie in it."""
    with open(path) as fh:
        lines = [ln.split() for ln in fh.read().splitlines() if ln.strip()]
    try:
        M, N = int(lines[0][0]), int(lines[0][1])
        rows = [[None if t == "?" else int(t) for t in ln] for ln in lines[1:]]
    except (IndexError, ValueError):
        raise InputError(f"{path}: not a matrix file") from None
    if len(rows) != M or any(len(row) != N for row in rows):
        raise InputError(f"{path}: expected {M} rows of {N} entries")
    if spec is not None:
        field = ["field", *map(str, (spec.p, spec.m, *spec.irreducible))]
        if lines[0][2:] != field:
            raise InputError(f"{path}: header names {' '.join(lines[0][2:])!r}, "
                             f"the code is over {' '.join(field)!r}")
        if any(v is not None and not 0 <= v < spec.q for row in rows for v in row):
            raise InputError(f"{path}: entry outside GF({spec.q})")
    return rows


# ----------------------------------------------------------------------
# Manifest reconstruction (codes are rebuilt deterministically from the
# recorded parameters rather than serialized wholesale).
# ----------------------------------------------------------------------

def _rebuild(man: dict):
    kind = man["kind"]
    p = man["params"]
    if kind == "bipartite":
        return gc.build_bipartite(
            p["q"], p["M"], p["N"], _frac(p["delta_row"]), _frac(p["delta_col"]),
            _frac(p["eta"]), rng_seed=p["rng_seed"], ell=p["ell"], ell0=p["ell0"],
            k_row=p["k_row"], family_size=p["family_size"],
            eps_fam=_frac(p["eps_fam"]))
    if kind == "nearly-mds":
        return gc.build_nearly_mds(
            p["q"], p["N"], _frac(p["delta"]), _frac(p["eta"]), M=p["M"],
            rng_seed=p["rng_seed"], ell=p["ell"], ell0=p["ell0"],
            k_row=p["k_row"], eps_fam=_frac(p["eps_fam"]))
    if kind == "nearly-mds-improved":
        return gc.build_nearly_mds_improved(
            p["q"], p["N"], _frac(p["delta"]), _frac(p["eta"]),
            M_b=p["M_b"], D=p["D"], rng_seed=p["rng_seed"])
    if kind == "symmetric":
        outer = sym.build_outer_graph(p["q"], p["n"], p["ell"],
                                      _frac(p["delta_prime"]))
        inner = gc.build_bipartite(
            p["q"], p["D_in"], p["D_in"], _frac(p["delta_prime"]),
            _frac(p["delta_prime"]), _frac(p["eta"]), rng_seed=p["rng_seed"],
            ell=p["ell"], ell0=p["inner_ell0"], k_row=p["inner_k_row"],
            family_size=p["D_in"], eps_fam=_frac(p["eps_fam"]))
        return sym.concat_graph(outer, inner)
    if kind == "family":
        outer = cd.code_from_text(man["outer"])
        inner = ens.family_from_manifest(man["inner"])
        shuf = sf.shuffler_from_text(man["shuffler"])
        return fc.ShuffledFamilyParams(outer, inner, shuf, _frac(p["delta"]),
                                       _frac(p["eta"]), _frac(p["epsilon"]))
    raise ValueError(f"unknown manifest kind {kind!r}")


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def cmd_build_family(a) -> int:
    plan = fc.plan_parameters(a.q, a.delta, a.eta, a.epsilon)
    if a.N % a.M != 0:
        raise fc.InfeasibleAtDeskScale(f"M = {a.M} must divide N = {a.N}")
    L = a.N // a.M
    inner = ens.exhaustive_inner_search(make_field(a.q, 1), L, plan.delta_in,
                                        plan.mu, a.inner_size)
    ell = inner.k
    outer_spec = make_field(a.q, ell)
    d_needed = math.floor(a.eta * a.M) + 1
    if outer_spec.q >= a.M and a.M - d_needed + 1 >= 1:
        outer = cd.reed_solomon(outer_spec, a.M - d_needed + 1, a.M)
    else:
        outer = cd.gv_search(outer_spec, a.M, d_needed)
        if outer.k < 1:
            raise fc.InfeasibleAtDeskScale("no outer code fits eta at this M")
    if a.shuffler == "round_robin":
        shuf = sf.make_round_robin(a.N, a.M)
    else:
        shuf = sf.make_seeded_random(a.N, a.M, a.D, a.seed)
    params = fc.ShuffledFamilyParams(outer, inner, shuf, a.delta, a.eta, a.epsilon)
    fam = fc.build_family(params)
    size_cert = sf.check_size_balance(shuf, *plan.balance_triple)
    man = {
        "kind": "family",
        "params": {"q": a.q, "delta": str(a.delta), "eta": str(a.eta),
                   "epsilon": str(a.epsilon), "N": a.N, "M": a.M,
                   "rng_seed": a.seed, "shuffler": a.shuffler},
        "outer": cd.code_to_text(outer),
        "inner": ens.family_to_manifest(inner, {"mode": "exhaustive_search"}),
        "shuffler": sf.shuffler_to_text(shuf),
        "family": ens.family_to_manifest(fam, {"mode": "construction",
                                               "rng_seed": a.seed}),
        "certificates": {
            "size_balance_pass": size_cert.overall_pass,
            "outer_distance": params.outer_distance_certificate(),
            "mu": str(plan.mu),
            "balance_triple": [str(x) for x in plan.balance_triple],
        },
        "rate": str(params.rate),
        "singleton_bound": str(1 - Fraction(a.delta)),
    }
    _write_json(a.out, man)
    return EXIT_PASS


def cmd_verify_family(a) -> int:
    fam = ens.family_from_manifest(_read_json(a.manifest))
    rep = ens.verify_family(fam, mode=a.mode, budget=a.budget, rng_seed=a.seed)
    out = {
        "mode": rep.mode,
        "patterns_tested": rep.patterns_tested,
        "worst_fail_fraction": str(rep.worst_fail_fraction),
        "worst_pattern": list(rep.worst_pattern),
        "epsilon": str(fam.epsilon),
        "passed": rep.passed,
        "rng_seed": rep.rng_seed,
    }
    _report(a.out, out)
    return EXIT_PASS if rep.passed else EXIT_VERIFY_FAIL


def cmd_build_graph(a) -> int:
    if a.kind == "bipartite":
        params = {"q": a.q, "M": a.M, "N": a.N,
                  "delta_row": str(Fraction(a.drow)),
                  "delta_col": str(Fraction(a.dcol)),
                  "eta": str(Fraction(a.eta)), "rng_seed": a.seed,
                  "ell": a.ell, "ell0": a.ell0, "k_row": a.k_row,
                  "family_size": a.family_size,
                  "eps_fam": str(Fraction(a.eps_fam))}
        bounds = {"capacity_bound": str((1 - Fraction(a.drow)) * (1 - Fraction(a.dcol)))}
    elif a.kind == "nearly-mds":
        params = {"q": a.q, "N": a.N, "M": a.M,
                  "delta": str(Fraction(a.delta)),
                  "eta": str(Fraction(a.eta)), "rng_seed": a.seed,
                  "ell": a.ell, "ell0": a.ell0, "k_row": a.k_row,
                  "eps_fam": str(Fraction(a.eps_fam))}
        bounds = {"singleton_bound": str(1 - Fraction(a.delta))}
    elif a.kind == "nearly-mds-improved":
        params = {"q": a.q, "N": a.N, "M_b": a.M_b, "D": a.D,
                  "delta": str(Fraction(a.delta)),
                  "eta": str(Fraction(a.eta)), "rng_seed": a.seed}
        bounds = {"singleton_bound": str(1 - Fraction(a.delta))}
    else:  # symmetric
        params = {"q": a.q, "n": a.n, "ell": a.ell,
                  "delta_prime": str(Fraction(a.dprime)),
                  "D_in": a.D_in, "eta": str(Fraction(a.eta)),
                  "rng_seed": a.seed, "inner_ell0": a.inner_ell0,
                  "inner_k_row": a.inner_k_row,
                  "eps_fam": str(Fraction(a.eps_fam))}
        bounds = {"delta": str(Fraction(a.dprime) ** 2)}
    # the code is built from the manifest, exactly as later commands rebuild it
    man = {"kind": a.kind, "params": params, **bounds}
    man["rate"] = str(_rebuild(man).rate)
    _write_json(a.out, man)
    return EXIT_PASS


def _graph_patterns(kind: str, code, delta: Fraction):
    """A graph code's erasure units and the pattern axes verify-graph scans:
    rows with columns, up to delta*N vertices, or delta*N column symbols."""
    if kind == "bipartite":
        s = math.floor(code.delta_row * code.M)
        t = math.floor(code.delta_col * code.N)
        return code.unit_code, [(code.M, s, s), (code.N, t, t)]
    if kind == "symmetric":
        return code.unit_code, [(code.N, 0, math.floor(delta * code.N))]
    if kind in ("nearly-mds", "nearly-mds-improved"):
        f = math.floor(delta * code.N)
        return code.unit_code, [(code.N, f, f)]
    raise InputError(f"manifest kind {kind!r} is not a graph code")


def cmd_verify_graph(a) -> int:
    man = _read_json(a.code)
    code = _rebuild(man)
    delta = a.delta if a.delta is not None else Fraction(
        man.get("delta") or man["params"].get("delta", "0"))
    units, axes = _graph_patterns(man["kind"], code, delta)
    rep = ens.verify_units(units, axes, a.mode, a.budget, a.seed)
    witness = ens.split_pattern(rep.worst_pattern, axes)
    out = {"passed": rep.passed, "patterns_tested": rep.patterns_tested,
           "witness": witness if len(witness) > 1 else witness[0],
           "mode": rep.mode}
    # symmetric reports carry the seed and an empty witness on a pass;
    # the other kinds have no seed and a null witness
    if man["kind"] == "symmetric":
        out["rng_seed"] = rep.rng_seed
    elif rep.passed:
        out["witness"] = None
    _report(a.out, out)
    return EXIT_PASS if rep.passed else EXIT_VERIFY_FAIL


def _layout(kind: str, code):
    """A code's field, message length, and the rows and columns of its codewords."""
    if kind == "family":
        return code.q_spec, code.k_total, 1, code.N
    if kind == "symmetric":
        return code.spec, code.dim, code.N, code.N
    if kind == "bipartite":
        return code.q_spec, code.k_total, code.M, code.N
    return code.q_spec, code.k_total, code.M_rows, code.N


def _erasure_units(kind: str, code):
    """How many rows and columns decode's --erased-rows and --erased-cols
    may name; None where the kind has no such units."""
    if kind == "bipartite":
        return code.M, code.N
    if kind == "symmetric":
        return code.N, code.N
    if kind in ("nearly-mds", "nearly-mds-improved"):
        return None, code.N
    return None, None


def _units(text: str, n: int | None, flag: str, kind: str) -> list[int]:
    units = _ints(text)
    if units and n is None:
        raise InputError(f"{flag}: a {kind} code has no such units")
    if any(not 0 <= u < n for u in units):
        raise InputError(f"{flag}: {units} not all in [0, {n})")
    return units


def _member(a, fam) -> tuple[int, int]:
    """The family member that --z and --member name."""
    for flag, v, n in (("--z", a.z, fam.D), ("--member", a.member, len(fam.inner))):
        if not 0 <= v < n:
            raise InputError(f"{flag}: {v} not in [0, {n})")
    return a.z, a.member


def cmd_encode(a) -> int:
    man = _read_json(a.code)
    kind = man["kind"]
    code = _rebuild(man)
    spec, k, _, _ = _layout(kind, code)
    rows = read_matrix_file(a.infile, spec)
    if any(v is None for row in rows for v in row):
        raise InputError(f"{a.infile}: a message has no erased entries")
    msg = np.array([v for row in rows for v in row], dtype=np.int64)
    if len(msg) != k:
        raise InputError(f"{a.infile}: a message of {len(msg)} entries, the code takes {k}")
    if kind == "family":
        out = [fc.encode_member(code, *_member(a, code), msg)]
    elif kind == "bipartite":
        out = code.encode_matrix(msg)
    elif kind in ("nearly-mds", "nearly-mds-improved"):
        out = code.encode_columns(msg)
    else:
        out = code.encode(msg)
    write_matrix_file(a.out, spec, [list(r) for r in out])
    return EXIT_PASS


def cmd_decode(a) -> int:
    man = _read_json(a.code)
    kind = man["kind"]
    code = _rebuild(man)
    spec, _, *shape = _layout(kind, code)
    rows = read_matrix_file(a.infile, spec)
    if [len(rows), len(rows[0]) if rows else 0] != shape:
        raise InputError(f"{a.infile}: a {kind} codeword is {shape[0]} x {shape[1]}")
    n_rows, n_cols = _erasure_units(kind, code)
    erased_rows = _units(a.erased_rows, n_rows, "--erased-rows", kind)
    erased_cols = _units(a.erased_cols, n_cols, "--erased-cols", kind)
    try:
        if kind == "family":
            msg = fc.decode_member(code, *_member(a, code), rows[0])
        elif kind == "bipartite":
            msg = code.decode_matrix(rows, S=erased_rows, T=erased_cols)
        elif kind in ("nearly-mds", "nearly-mds-improved"):
            msg = code.decode_columns(rows, T=erased_cols)
        else:
            msg = sym.decode_graph(code, rows, erased_rows, erased_cols)
    except cd.DecodingFailure as exc:
        return _error(exc, EXIT_VERIFY_FAIL)
    write_matrix_file(a.out, spec, [list(msg)])
    return EXIT_PASS


def cmd_bridge(a) -> int:
    fam = ens.family_from_manifest(_read_json(a.family))
    if a.role == "extractor":
        lsm = br.family_to_extractor(fam)
    else:
        lsm = br.family_to_condenser(fam)
    out = {
        "role": a.role,
        "field": {"p": fam.spec.p, "m": fam.spec.m,
                  "irreducible": list(fam.spec.irreducible)},
        "n": lsm.n, "m": lsm.m, "seeds": lsm.D,
        "seed_length_bits": math.ceil(math.log2(lsm.D)) if lsm.D > 1 else 0,
        "maps": [[[int(v) for v in row] for row in G] for G in lsm.maps],
    }
    _write_json(a.out, out)
    return EXIT_PASS


def cmd_check_source(a) -> int:
    man = _read_json(a.bridge)
    spec = make_field(man["field"]["p"], man["field"]["m"])
    lsm = br.LinearSeededMap(spec, [np.array(G, dtype=np.int64)
                                    for G in man["maps"]])
    free = _ints(a.free)
    if man["role"] == "extractor":
        res = br.extractor_error_on_source(lsm, free)
        out = {"role": "extractor", "free": free,
               "per_seed_exact": res["exact"],
               "failing_fraction": str(res["failing_fraction"])}
    else:
        res = br.condenser_lossless_check(lsm, free)
        out = {"role": "condenser", "free": free,
               "per_seed_lossless": res["lossless"],
               "failing_fraction": str(res["failing_fraction"])}
    passed = res["failing_fraction"] <= a.epsilon
    out["passed"] = passed
    _report(a.out, out)
    return EXIT_PASS if passed else EXIT_VERIFY_FAIL


def cmd_report(a) -> int:
    man = _read_json(a.manifest)
    kind = man.get("kind", "?")
    print(f"kind: {kind}")
    if "rate" in man:
        rate = Fraction(man["rate"])
        print(f"rate: {man['rate']} ({float(rate):.4f})")
    for key in ("singleton_bound", "capacity_bound", "delta"):
        if key in man:
            print(f"{key}: {man[key]}")
    if kind == "family":
        p = man["params"]
        print(f"q={p['q']} N={p['N']} M={p['M']} delta={p['delta']} "
              f"eta={p['eta']} epsilon={p['epsilon']}")
        print(f"family size: {len(man['family']['codes'])}")
        plot = cd.plotkin_rate_bound(p["q"], Fraction(p["delta"]))
        print(f"plotkin_bound: {plot}")
        certs = man["certificates"]
        print(f"size_balance_pass: {certs['size_balance_pass']}")
        print(f"outer_distance: {certs['outer_distance']}")
    return EXIT_PASS


# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="codefam")
    ap.add_argument("--workers", type=int,
                    default=int(os.environ.get("CODEFAM_WORKERS", "1")),
                    help="worker count (results are independent of it)")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("build-family")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--delta", type=_frac, required=True)
    p.add_argument("--eta", type=_frac, required=True)
    p.add_argument("--epsilon", type=_frac, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--M", type=int, default=4)
    p.add_argument("--D", type=int, default=8)
    p.add_argument("--inner-size", type=int, default=2)
    p.add_argument("--shuffler", choices=["round_robin", "seeded_random"],
                   default="seeded_random")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_family)

    p = sub.add_parser("verify-family")
    p.add_argument("--manifest", required=True)
    p.add_argument("--mode", choices=["exhaustive", "montecarlo"],
                   default="exhaustive")
    p.add_argument("--budget", type=int, default=10 ** 7)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify_family)

    p = sub.add_parser("build-graph")
    p.add_argument("--kind", choices=["bipartite", "symmetric", "nearly-mds",
                                      "nearly-mds-improved"], required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--M", type=int, default=4)
    p.add_argument("--N", type=int, default=8)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--M_b", type=int, default=2)
    p.add_argument("--D", type=int, default=4)
    p.add_argument("--D_in", type=int, default=4)
    p.add_argument("--drow", type=_frac, default=Fraction(0))
    p.add_argument("--dcol", type=_frac, default=Fraction(0))
    p.add_argument("--delta", type=_frac, default=Fraction(0))
    p.add_argument("--dprime", type=_frac, default=Fraction(1, 4))
    p.add_argument("--eta", type=_frac, default=Fraction(1, 4))
    p.add_argument("--ell", type=int, default=2)
    p.add_argument("--ell0", type=int, default=2)
    p.add_argument("--inner-ell0", type=int, default=2)
    p.add_argument("--k-row", type=int, default=2)
    p.add_argument("--inner-k-row", type=int, default=2)
    p.add_argument("--family-size", type=int, default=4)
    p.add_argument("--eps-fam", type=_frac, default=Fraction(1, 4))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_graph)

    p = sub.add_parser("verify-graph")
    p.add_argument("--code", required=True)
    p.add_argument("--delta", type=_frac, default=None)
    p.add_argument("--mode", choices=["exhaustive", "montecarlo"],
                   default="exhaustive")
    p.add_argument("--budget", type=int, default=10 ** 5)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify_graph)

    p = sub.add_parser("encode")
    p.add_argument("--code", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--z", type=int, default=0)
    p.add_argument("--member", type=int, default=0)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode")
    p.add_argument("--code", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--z", type=int, default=0)
    p.add_argument("--member", type=int, default=0)
    p.add_argument("--erased-rows", default="")
    p.add_argument("--erased-cols", default="")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("bridge")
    p.add_argument("--family", required=True)
    p.add_argument("--as", dest="role", choices=["extractor", "condenser"],
                   required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bridge)

    p = sub.add_parser("check-source")
    p.add_argument("--bridge", required=True)
    p.add_argument("--free", default="")
    p.add_argument("--epsilon", type=_frac, default=Fraction(1))
    p.add_argument("--out")
    p.set_defaults(func=cmd_check_source)

    p = sub.add_parser("report")
    p.add_argument("--manifest", required=True)
    p.set_defaults(func=cmd_report)
    return ap


def main(argv=None) -> int:
    try:
        a = build_parser().parse_args(argv)
        return a.func(a)
    except (OSError, json.JSONDecodeError, InputError) as exc:
        return _error(exc, EXIT_IO)
    except ValueError as exc:
        # InfeasibleAtDeskScale, SearchExhausted, and every other
        # parameter-level error in the library subclasses ValueError.
        return _error(exc, EXIT_INFEASIBLE)


if __name__ == "__main__":
    sys.exit(main())

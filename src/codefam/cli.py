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
import functools
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

# build-graph flags: (flag, manifest parameter, type, default)
GRAPH_FLAGS = [
    ("--M", "M", int, 4), ("--N", "N", int, 8), ("--n", "n", int, 4),
    ("--M_b", "M_b", int, 2), ("--D", "D", int, 4), ("--D_in", "D_in", int, 4),
    ("--drow", "delta_row", _frac, Fraction(0)), ("--dcol", "delta_col", _frac, Fraction(0)),
    ("--delta", "delta", _frac, Fraction(0)),
    ("--dprime", "delta_prime", _frac, Fraction(1, 4)), ("--eta", "eta", _frac, Fraction(1, 4)),
    ("--ell", "ell", int, 2), ("--ell0", "ell0", int, 2), ("--inner-ell0", "inner_ell0", int, 2),
    ("--k-row", "k_row", int, 2), ("--inner-k-row", "inner_k_row", int, 2),
    ("--family-size", "family_size", int, 4), ("--eps-fam", "eps_fam", _frac, Fraction(1, 4)),
    ("--seed", "rng_seed", int, 0),
]
_FRACTIONS = {name for _, name, typ, _ in GRAPH_FLAGS if typ is _frac}


def _exactly(n: int, delta) -> tuple[int, int, int]:
    """The pattern axis of every floor(delta * n) of n units."""
    f = math.floor(delta * n)
    return n, f, f


# kind -> (builder, the manifest parameters it takes besides q, its rate
# bound, and the pattern axes verify-graph scans at erasure fraction delta:
# rows with columns, up to delta*N vertices, or delta*N column symbols).
# Builders look their function up at call time, as main does the handlers.
GRAPH_KINDS = {
    "bipartite": (
        lambda **p: gc.build_bipartite(**p),
        "M N delta_row delta_col eta rng_seed ell ell0 k_row family_size eps_fam".split(),
        lambda p: {"capacity_bound": (1 - p["delta_row"]) * (1 - p["delta_col"])},
        lambda c, delta: [_exactly(c.M, c.delta_row), _exactly(c.N, c.delta_col)]),
    "symmetric": (
        lambda **p: sym.build_symmetric(**p),
        "n ell delta_prime D_in eta rng_seed inner_ell0 inner_k_row eps_fam".split(),
        lambda p: {"delta": p["delta_prime"] ** 2},
        lambda c, delta: [(c.N, 0, math.floor(delta * c.N))]),
    "nearly-mds": (
        lambda **p: gc.build_nearly_mds(**p),
        "N M delta eta rng_seed ell ell0 k_row eps_fam".split(),
        lambda p: {"singleton_bound": 1 - p["delta"]},
        lambda c, delta: [_exactly(c.N, delta)]),
    "nearly-mds-improved": (
        lambda **p: gc.build_nearly_mds_improved(**p),
        "N M_b D delta eta rng_seed".split(),
        lambda p: {"singleton_bound": 1 - p["delta"]},
        lambda c, delta: [_exactly(c.N, delta)]),
}


def _rebuild(man: dict):
    kind = man["kind"]
    p = man["params"]
    if kind == "family":
        outer = cd.code_from_text(man["outer"])
        inner = ens.family_from_manifest(man["inner"])
        shuf = sf.shuffler_from_text(man["shuffler"])
        return fc.ShuffledFamilyParams(outer, inner, shuf, _frac(p["delta"]),
                                       _frac(p["eta"]), _frac(p["epsilon"]))
    if kind not in GRAPH_KINDS:
        raise ValueError(f"unknown manifest kind {kind!r}")
    build, names, _, _ = GRAPH_KINDS[kind]
    return build(q=p["q"], **{n: _frac(p[n]) if n in _FRACTIONS else p[n] for n in names})


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
    _, names, bound, _ = GRAPH_KINDS[a.kind]
    params = {"q": a.q}
    for flag, name, _, default in GRAPH_FLAGS:
        given = getattr(a, name)
        if name in names:
            params[name] = default if given is None else given
        elif given is not None:
            raise InputError(f"{flag}: a {a.kind} code does not take it")
    man = {"kind": a.kind, **{k: str(v) for k, v in bound(params).items()},
           "params": {k: str(v) if k in _FRACTIONS else v for k, v in params.items()}}
    # the code is built from the manifest, exactly as later commands rebuild it
    man["rate"] = str(_rebuild(man).rate)
    _write_json(a.out, man)
    return EXIT_PASS


def cmd_verify_graph(a) -> int:
    man = _read_json(a.code)
    code = _rebuild(man)
    if man["kind"] not in GRAPH_KINDS:
        raise InputError(f"manifest kind {man['kind']!r} is not a graph code")
    delta = a.delta if a.delta is not None else Fraction(
        man.get("delta") or man["params"].get("delta", "0"))
    axes = GRAPH_KINDS[man["kind"]][3](code, delta)
    rep = ens.verify_units(code.unit_code, axes, a.mode, a.budget, a.seed)
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


def _grid_code(a, man) -> cd.GridCode:
    """The code that --code names; for a family, the member --z and --member name."""
    code = _rebuild(man)
    if man["kind"] != "family":
        for flag, v in (("--z", a.z), ("--member", a.member)):
            if v is not None:
                raise InputError(f"{flag}: a {man['kind']} code has no members")
        return code
    z, ci = a.z or 0, a.member or 0
    for flag, v, n in (("--z", z, code.D), ("--member", ci, len(code.inner))):
        if not 0 <= v < n:
            raise InputError(f"{flag}: {v} not in [0, {n})")
    return fc.member(code, z, ci)


def _read_grid(path: str, code: cd.GridCode, shape, what: str):
    """A matrix file in the code's field with the given shape."""
    rows = read_matrix_file(path, code.core.spec)
    if (len(rows), len(rows[0]) if rows else 0) != shape:
        raise InputError(f"{path}: {what} is {shape[0]} x {shape[1]}")
    return rows


def _units(text: str, code: cd.GridCode, axis: str, flag: str) -> list[int]:
    """The rows or the columns (axis) that an erasure flag names."""
    units = _ints(text)
    if units and axis not in code.axes:
        raise InputError(f"{flag}: the code has no erasable {axis}")
    n = code.shape[0 if axis == "rows" else 1]
    if any(not 0 <= u < n for u in units):
        raise InputError(f"{flag}: {units} not all in [0, {n})")
    return units


def cmd_encode(a) -> int:
    code = _grid_code(a, _read_json(a.code))
    rows = _read_grid(a.infile, code, (1, code.core.k), "a message")
    if None in rows[0]:
        raise InputError(f"{a.infile}: a message has no erased entries")
    out = code.encode(np.array(rows[0], dtype=np.int64))
    write_matrix_file(a.out, code.core.spec, [list(r) for r in out])
    return EXIT_PASS


def cmd_decode(a) -> int:
    code = _grid_code(a, _read_json(a.code))
    rows = _read_grid(a.infile, code, code.shape, "a codeword")
    S = _units(a.erased_rows, code, "rows", "--erased-rows")
    T = _units(a.erased_cols, code, "cols", "--erased-cols")
    try:
        msg = code.decode(rows, S, T)
    except cd.DecodingFailure as exc:
        return _error(exc, EXIT_VERIFY_FAIL)
    write_matrix_file(a.out, code.core.spec, [list(msg)])
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

@functools.cache
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

    p = sub.add_parser("verify-family")
    p.add_argument("--manifest", required=True)
    p.add_argument("--mode", choices=["exhaustive", "montecarlo"],
                   default="exhaustive")
    p.add_argument("--budget", type=int, default=10 ** 7)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out")

    p = sub.add_parser("build-graph")
    p.add_argument("--kind", choices=list(GRAPH_KINDS), required=True)
    p.add_argument("--q", type=int, required=True)
    for flag, name, typ, _ in GRAPH_FLAGS:  # None: not given, the kind's default applies
        p.add_argument(flag, dest=name, type=typ, default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("verify-graph")
    p.add_argument("--code", required=True)
    p.add_argument("--delta", type=_frac, default=None)
    p.add_argument("--mode", choices=["exhaustive", "montecarlo"],
                   default="exhaustive")
    p.add_argument("--budget", type=int, default=10 ** 5)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out")

    for name in ("encode", "decode"):
        p = sub.add_parser(name)
        p.add_argument("--code", required=True)
        p.add_argument("--in", dest="infile", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--z", type=int, default=None)  # None: not given
        p.add_argument("--member", type=int, default=None)
    p.add_argument("--erased-rows", default="")  # decode only
    p.add_argument("--erased-cols", default="")

    p = sub.add_parser("bridge")
    p.add_argument("--family", required=True)
    p.add_argument("--as", dest="role", choices=["extractor", "condenser"],
                   required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("check-source")
    p.add_argument("--bridge", required=True)
    p.add_argument("--free", default="")
    p.add_argument("--epsilon", type=_frac, default=Fraction(1))
    p.add_argument("--out")

    p = sub.add_parser("report")
    p.add_argument("--manifest", required=True)
    return ap


def main(argv=None) -> int:
    try:
        a = build_parser().parse_args(argv)
        # the parser is built once; the handler is looked up by name on each call
        return globals()["cmd_" + a.cmd.replace("-", "_")](a)
    except (OSError, json.JSONDecodeError, InputError) as exc:
        return _error(exc, EXIT_IO)
    except ValueError as exc:
        # InfeasibleAtDeskScale, SearchExhausted, and every other
        # parameter-level error in the library subclasses ValueError.
        return _error(exc, EXIT_INFEASIBLE)


if __name__ == "__main__":
    sys.exit(main())

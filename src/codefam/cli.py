"""
Command-line front end: build and verify families and graph codes,
encode/decode files, and run the extractor/condenser bridge.

All randomness flows from the recorded --seed; reruns with the same
config produce byte-identical output files.  `GRAPH_FLAGS` holds the only
default of each graph construction parameter: `build-graph` passes every
parameter of its kind to the builder and records it in the manifest.
The top-level --workers flag is accepted and ignored.  Exit codes: 0 pass,
2 verification or decoding failure, 3 infeasible parameters, 4 I/O,
malformed input (a fraction outside [0, 1], a manifest of unknown kind)
or a bad command line.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
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


def _frac(text) -> Fraction:
    """A fraction flag's or manifest fraction's value: a fraction in [0, 1]."""
    x = ens.fraction_from_text(text)
    if not 0 <= x <= 1:
        raise InputError(f"fraction {x} is not in [0, 1]")
    return x


def _count(text: str) -> int:
    """A count flag's value: an integer of at least 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"{n} is below 1")
    return n


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
    ("--M", "M", _count, 4), ("--N", "N", _count, 8), ("--n", "n", _count, 4),
    ("--M_b", "M_b", _count, 2), ("--D", "D", _count, 4), ("--D_in", "D_in", _count, 4),
    ("--drow", "delta_row", _frac, Fraction(0)), ("--dcol", "delta_col", _frac, Fraction(0)),
    ("--delta", "delta", _frac, Fraction(0)),
    ("--dprime", "delta_prime", _frac, Fraction(1, 4)), ("--eta", "eta", _frac, Fraction(1, 4)),
    ("--ell", "ell", _count, 2), ("--ell0", "ell0", _count, 2),
    ("--inner-ell0", "inner_ell0", _count, 2),
    ("--k-row", "k_row", _count, 2), ("--inner-k-row", "inner_k_row", _count, 2),
    ("--family-size", "family_size", _count, 4), ("--eps-fam", "eps_fam", _frac, Fraction(1, 4)),
    ("--seed", "rng_seed", int, 0),
]
_FRACTIONS = {name for _, name, typ, _ in GRAPH_FLAGS if typ is _frac}
_COUNTS = {name for _, name, typ, _ in GRAPH_FLAGS if typ is _count}


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


def _parsed(parse, *args):
    """parse(*args) on a manifest field; what it rejects is malformed input."""
    try:
        return parse(*args)
    except (ValueError, TypeError, IndexError, AttributeError) as exc:
        raise InputError(f"{type(exc).__name__}: {exc}") from None


def _param(params: dict, name: str):
    """A graph manifest parameter, of its build-graph flag's type: a fraction
    written as a string, or else a JSON integer (not a bool), of at least 1
    for a count."""
    v = params[name]
    if name in _FRACTIONS:
        return _parsed(_frac, v)
    if type(v) is not int:
        raise InputError(f"manifest parameter {name!r} is not an integer: {v!r}")
    if name in _COUNTS and v < 1:
        raise InputError(f"manifest parameter {name!r} is a count below 1: {v}")
    return v


def _known_kind(kind):
    """`kind` if it is "family" or a GRAPH_KINDS key; else an input error."""
    if kind != "family" and not (isinstance(kind, str) and kind in GRAPH_KINDS):
        raise InputError(f"unknown manifest kind {kind!r}")
    return kind


def _rebuild(man: dict):
    kind, p = man["kind"], man["params"]
    if not isinstance(p, dict):
        raise InputError("manifest params are not a JSON object")
    if _known_kind(kind) == "family":
        return fc.ShuffledFamilyParams(
            _parsed(cd.code_from_text, man["outer"]),
            _parsed(ens.family_from_manifest, man["inner"]),
            _parsed(sf.shuffler_from_text, man["shuffler"]),
            *(_parsed(_frac, p[n]) for n in ("delta", "eta", "epsilon")))
    build, names, _, _ = GRAPH_KINDS[kind]
    return build(**{n: _param(p, n) for n in ["q", *names]})


def _read_family(path: str) -> ens.ErasureFamily:
    return _parsed(ens.family_from_manifest, _read_json(path))


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def cmd_build_family(a) -> int:
    if a.shuffler == "round_robin" and a.D is not None:
        raise InputError("--D: a round_robin shuffler has one seed")
    if a.shuffler == "round_robin" and a.seed is not None:
        raise InputError("--seed: a round_robin shuffler draws nothing")
    seed = 0 if a.seed is None else a.seed
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
        shuf = sf.make_seeded_random(a.N, a.M, 8 if a.D is None else a.D, seed)
    params = fc.ShuffledFamilyParams(outer, inner, shuf, a.delta, a.eta, a.epsilon)
    fam = fc.build_family(params)
    size_cert = sf.check_size_balance(shuf, *plan.balance_triple)
    man = {
        "kind": "family",
        "params": {"q": a.q, "delta": str(a.delta), "eta": str(a.eta),
                   "epsilon": str(a.epsilon), "N": a.N, "M": a.M,
                   "rng_seed": seed, "shuffler": a.shuffler},
        "outer": cd.code_to_text(outer),
        "inner": ens.family_to_manifest(inner, {"mode": "exhaustive_search"}),
        "shuffler": sf.shuffler_to_text(shuf),
        "family": ens.family_to_manifest(fam, {"mode": "construction",
                                               "rng_seed": seed}),
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


def _scan_seed(a) -> int | None:
    """A verify command's --seed, which only Monte Carlo mode draws from."""
    if (a.seed is None) == (a.mode == "montecarlo"):
        raise InputError("--seed: montecarlo mode needs one, exhaustive mode draws nothing")
    return a.seed


def cmd_verify_family(a) -> int:
    seed = _scan_seed(a)
    fam = _read_family(a.manifest)
    rep = ens.verify_family(fam, mode=a.mode, budget=a.budget, rng_seed=seed)
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
    seed = _scan_seed(a)
    man = _read_json(a.code)
    if man["kind"] == "family":
        raise InputError("a family manifest is not a graph code")
    if man["kind"] == "bipartite" and a.delta is not None:
        raise InputError("--delta: a bipartite code is verified at its "
                         "manifest's delta_row and delta_col")
    code = _rebuild(man)
    delta = a.delta if a.delta is not None else _parsed(
        _frac, man.get("delta") or man["params"].get("delta", "0"))
    axes = GRAPH_KINDS[man["kind"]][3](code, delta)
    rep = ens.verify_units(code.unit_code, axes, a.mode, a.budget, seed)
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
    fam = _read_family(a.family)
    if a.role == "extractor":
        lsm = br.family_to_extractor(fam)
    else:
        lsm = br.family_to_condenser(fam)
    out = {
        "role": a.role,
        "field": {"p": fam.spec.p, "m": fam.spec.m,
                  "irreducible": list(fam.spec.irreducible)},
        "n": lsm.n, "m": lsm.m, "seeds": lsm.D,
        "seed_length_bits": (lsm.D - 1).bit_length(),
        "maps": [[[int(v) for v in row] for row in G] for G in lsm.maps],
    }
    _write_json(a.out, out)
    return EXIT_PASS


def _int_array(value, ndim: int, what: str) -> np.ndarray:
    """A JSON array of integers, nested ndim deep and not ragged."""
    try:
        arr = np.array(value)
    except ValueError:
        raise InputError(f"{what} is a ragged array") from None
    if arr.ndim != ndim or (arr.size and arr.dtype.kind != "i"):
        raise InputError(f"{what} is not a {ndim}-d array of integers")
    return arr.astype(np.int64)


def _bridge_map(man) -> br.LinearSeededMap:
    """The seeded map of a bridge file: one matrix per seed, all of one
    shape, with entries in the field the file names with its irreducible."""
    field = man["field"]
    p, m = field["p"], field["m"]
    if type(p) is not int or type(m) is not int:
        raise InputError(f"bridge field p = {p!r}, m = {m!r} are not integers")
    irreducible = _int_array(field["irreducible"], 1, "bridge field irreducible")
    spec = _parsed(make_field, p, m, tuple(irreducible.tolist()))
    return _parsed(br.LinearSeededMap, spec, list(_int_array(man["maps"], 3, "bridge maps")))


def cmd_check_source(a) -> int:
    man = _read_json(a.bridge)
    if man["role"] not in ("extractor", "condenser"):
        raise InputError(f"bridge role {man['role']!r} is not extractor or condenser")
    lsm = _bridge_map(man)
    free = _ints(a.free)
    if any(not 0 <= x < lsm.n for x in free):
        raise InputError(f"--free: {free} not all in [0, {lsm.n})")
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
    kind = _known_kind(man.get("kind"))
    lines = [f"kind: {kind}"]  # printed once all are read, so an error prints alone
    if "rate" in man:
        lines.append(f"rate: {man['rate']} ({float(_parsed(_frac, man['rate'])):.4f})")
    lines += [f"{key}: {man[key]}" for key in ("singleton_bound", "capacity_bound", "delta")
              if key in man]
    if kind == "family":
        p, certs = man["params"], man["certificates"]
        lines += [f"q={p['q']} N={p['N']} M={p['M']} delta={p['delta']} "
                  f"eta={p['eta']} epsilon={p['epsilon']}",
                  f"family size: {len(man['family']['codes'])}",
                  f"plotkin_bound: {cd.plotkin_rate_bound(p['q'], _parsed(_frac, p['delta']))}",
                  f"size_balance_pass: {certs['size_balance_pass']}",
                  f"outer_distance: {certs['outer_distance']}"]
    print("\n".join(lines))
    return EXIT_PASS


# ----------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="codefam")
    ap.add_argument("--workers", type=int, default=1,
                    help="ignored: every command runs in one process")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("build-family")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--delta", type=_frac, required=True)
    p.add_argument("--eta", type=_frac, required=True)
    p.add_argument("--epsilon", type=_frac, required=True)
    p.add_argument("--N", type=_count, required=True)
    p.add_argument("--M", type=_count, default=4)
    p.add_argument("--D", type=_count, default=None)  # None: 8 seeds for seeded_random
    p.add_argument("--inner-size", type=_count, default=2)
    p.add_argument("--shuffler", choices=["round_robin", "seeded_random"],
                   default="seeded_random")
    p.add_argument("--seed", type=int, default=None)  # None: seed 0 for seeded_random
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
    p.add_argument("--epsilon", type=_frac, required=True)
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

"""Closed-loop runner, output checks, metrics and result files."""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from codefam import (bridge, cli, code, ensemble, family_construct, gf, graphcode,
                     matrix, shuffler, symmetric)

import workloads as wl
from tracer import ROOT_SPAN, SpanTable, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 0
# Set-ups per untraced run: one before the timed loop and the rest spread
# evenly over it (discarded), so that setup_s samples the same stretch of
# machine time as the ops.
SETUP_REPS = 15
MIN_OPS = 100
# Stop looping after this much wall time even if MIN_OPS is not reached,
# so that a run always ends well inside its 180 s limit.
HARD_LIMIT_S = 100.0
# Rounds re-run under tracing; fixed so that traced counts repeat exactly.
TRACE_ROUNDS = {"certify": 1, "decode": 20, "construct": 1}
MODULES = [gf, matrix, code, ensemble, shuffler, family_construct, graphcode,
           symmetric, bridge, cli]
# ROADMAP item 1 baselines (cProfile on criteria 3 and 7).
BASELINE_WRAPPER_SHARE = 0.55
BASELINE_SOLVE_SHARE = 10.7 / 13.8
BASELINE_SYM_DECODE_KEYS = 20
BASELINE_SYM_REUSE = 46505 / 20


class Checker:
    """Checks each op's outcome, its rerun stability and its reference digest."""

    def __init__(self, workload: str, seed: int, reference: dict):
        ref = reference.get("workloads", {}).get(workload, {})
        self.seed_free = ref.get("seed_free", {})
        self.seeded = ref.get("seeded", {}) if seed == reference.get("seed") else {}
        self.seen: dict[str, tuple[str, bool]] = {}
        self.failures: list[str] = []
        self.reference_checked = 0

    def __call__(self, op, outcome) -> bool:
        try:
            canon = op.check(outcome)
        except wl.CheckFailed as exc:
            return self._fail(op, str(exc))
        except Exception as exc:  # a malformed outcome must not stop the run
            return self._fail(op, f"check raised {exc!r}")
        digest = hashlib.sha256(canon.encode()).hexdigest()[:16]
        first, _ = self.seen.setdefault(op.key, (digest, op.seed_free))
        if first != digest:
            return self._fail(op, "output differs from an earlier run of the same op")
        ref = (self.seed_free if op.seed_free else self.seeded).get(op.key)
        if ref is not None:
            self.reference_checked += 1
            if ref != digest:
                return self._fail(op, f"digest {digest} != reference {ref}")
        return True

    def _fail(self, op, msg: str) -> bool:
        self.failures.append(f"{op.key}: {msg}")
        return False


def _call(op):
    try:
        out = op.call()
    except Exception as exc:  # an op that raises is a failed op, not a crash
        out = exc
    return out


def _collect(op, out):
    if op.collect is None:
        return out
    try:
        return op.collect(out)
    except Exception as exc:
        return exc


def timed_pass(round_at, first: int, checker, seconds: float, resetup=None):
    """Whole rounds from round `first` until the ops took `seconds` and
    MIN_OPS ran.  Every op is checked after its round.  `resetup`, if given,
    is called SETUP_REPS - 1 times between rounds, evenly over the op time."""
    clock = time.perf_counter
    lat: list[float] = []
    round_busy: list[float] = []
    pending = SETUP_REPS - 1 if resetup else 0
    start = clock()
    r = first
    while True:
        ops = round_at(r)
        outcomes = []
        busy = 0.0
        for op in ops:
            t0 = clock()
            out = _call(op)
            dt = clock() - t0
            outcomes.append(_collect(op, out))
            lat.append(dt)
            busy += dt
        for op, out in zip(ops, outcomes):
            checker(op, out)
        round_busy.append(busy)
        r += 1
        busy_s = sum(round_busy)
        while pending and busy_s >= seconds * (SETUP_REPS - pending) / SETUP_REPS:
            resetup()
            pending -= 1
        if busy_s >= seconds and len(lat) >= MIN_OPS:
            break
        if clock() - start > HARD_LIMIT_S:
            break
    for _ in range(pending):
        resetup()
    return lat, round_busy


def traced_pass(round_at, checker, tracer: Tracer, n_rounds: int):
    """Run the first n_rounds rounds with spans; check the outcomes after
    unwrapping."""
    clock = time.perf_counter
    done = []
    busy = 0.0
    tracer.install()
    try:
        for r in range(n_rounds):
            for op in round_at(r):
                t0 = clock()
                out = tracer.run_op(len(done), lambda op=op: _call(op))
                busy += clock() - t0
                done.append((op, _collect(op, out)))
    finally:
        tracer.uninstall()
    for op, out in done:
        checker(op, out)
    return done, busy


def run_setup(workload: str, seed: int, workdir: Path):
    """(round_at, seconds) of one set-up of the workload in `workdir`."""
    gc.collect()
    t0 = time.perf_counter()
    round_at = wl.WORKLOADS[workload](seed, workdir)
    return round_at, time.perf_counter() - t0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(workload: str, seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(),
        "platform": platform.platform(),
        "threads_env": {v: os.environ.get(v) for v in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def git_commit() -> str | None:
    """HEAD of the enclosing git checkout, read from .git; None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metric_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def load_reference() -> dict:
    try:
        return json.loads(REFERENCE.read_text())
    except FileNotFoundError:
        return {}


def _pick(spec, values: dict) -> dict:
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics not computed: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def _print_metrics(picked: dict, notes: dict | None = None):
    notes = notes or {}
    width = max(len(n) for n in picked)
    for name, m in picked.items():
        extra = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<{width}}  {m['value']:.6g} {m['unit']}{extra}")


def _write_result(workload, seed, trace, record):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return path


def run(workload: str, seed: int, seconds: float, trace: int) -> int:
    e2e_spec, layer_spec = metric_spec()
    checker = Checker(workload, seed, load_reference())
    workdir = OUT / f"work-{workload}"
    if trace:
        # traced set-up and rounds first, so the traced rounds see no reuse
        # from the untraced loop, which carries on from the next round
        k = TRACE_ROUNDS[workload]
        tracer = Tracer(MODULES)
        tracer.install()
        try:
            round_at, setup_s = run_setup(workload, seed, workdir)
        finally:
            tracer.uninstall()
        examined0 = ensemble.SEARCH_STATS.get("ensembles_examined", 0)
        done, traced_s = traced_pass(round_at, checker, tracer, k)
        examined = ensemble.SEARCH_STATS.get("ensembles_examined", 0) - examined0
        setup_times = [setup_s]
        lat, round_busy = timed_pass(round_at, k, checker, seconds)
    else:
        round_at, setup_s = run_setup(workload, seed, workdir)
        setup_times = [setup_s]

        def resetup():
            setup_times.append(run_setup(workload, seed, OUT / f"work-{workload}-setup")[1])
        lat, round_busy = timed_pass(round_at, 0, checker, seconds, resetup)
    attempted = len(lat)
    ops_per_round = len(lat) // len(round_busy)
    record = {
        "environment": environment(workload, seed),
        "trace": trace,
        "seconds": seconds,
        "ops": len(lat),
        "rounds": len(round_busy),
        "ops_per_round": ops_per_round,
        "round_busy_s": round_busy,
        "setup_s_reps": setup_times,
    }
    if trace:
        attempted += len(done)
        # every round runs the same mix: compare with k mean untraced rounds
        untraced_s = k * sum(round_busy) / len(round_busy)
        values, detail = layer_metrics(tracer, traced_s, untraced_s, examined,
                                       sum(wl.output_bytes(out) for _, out in done))
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"spans-{workload}.npz", [op.key for op, _ in done])
        picked = _pick(layer_spec, values)
        record.update(per_layer=values, layers=detail["layers"],
                      roadmap_item1=detail["roadmap_item1"], traced_rounds=k,
                      self_s_sum=detail["self_s_sum"],
                      traced_ops=len(done))
    else:
        values = {
            "ops_per_s": len(lat) / sum(lat),
            "op_p50_ms": float(np.percentile(lat, 50)) * 1e3,
            "op_p90_ms": float(np.percentile(lat, 90)) * 1e3,
            "setup_s": statistics.median(setup_times),
            "ok_frac": (attempted - len(checker.failures)) / attempted,
            "peak_rss_mb": peak_rss_mb(),
        }
        picked = _pick(e2e_spec, values)
        record["metrics"] = values
    failed = len(checker.failures)
    record.update(attempted=attempted, failed=failed, fail_frac=failed / attempted,
                  peak_rss_mb=peak_rss_mb(),
                  failures=checker.failures[:50],
                  reference_checked=checker.reference_checked)
    path = _write_result(workload, seed, trace, record)

    print(f"perfbench {workload} seed={seed} trace={trace}: {attempted} ops, "
          f"{failed} failed (fail_frac {failed / attempted:.6g}), "
          f"{checker.reference_checked} reference digests checked")
    for msg in checker.failures[:10]:
        print(f"  FAIL {msg}", file=sys.stderr)
    if trace:
        print_trace(record, picked)
    else:
        _print_metrics(picked, {
            "op_p50_ms": f"{len(lat)} samples",
            "op_p90_ms": f"{len(lat)} samples, {len(lat) - int(0.9 * len(lat))} beyond",
            "setup_s": f"median of {len(setup_times)} set-ups spread over the run",
            "ops_per_s": f"{len(round_busy)} rounds of {ops_per_round} ops",
        })
    print(f"  result file: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": picked}))
    return 0


# ----------------------------------------------------------------------
# per-layer metrics from the traced pass
# ----------------------------------------------------------------------

def layer_metrics(tracer: Tracer, traced_s: float, untraced_s: float,
                  examined: int, bytes_written: int):
    st = SpanTable(tracer)
    loop = st.op >= 0
    layers = st.per_name(loop)
    v: dict[str, float] = {}
    for name in st.names:
        v[f"{name}.calls"], v[f"{name}.self_s"] = layers.get(name, (0, 0.0))

    def calls(name):
        return layers.get(name, (0, 0.0))[0]

    def self_s(name):
        return layers.get(name, (0, 0.0))[1]

    def total(mask):
        return float(st.dur[mask].sum())

    def ratio(a, b):
        return a / b if b else 0.0

    is_ = st.is_
    parent_is = {n: st.parent_name == st.nid(n) for n in
                 ("code.corrects_pattern", "symmetric.decode_graph",
                  "ensemble.sample_random_family")}

    # gf
    v["gf.mul.elems"] = int(st.val[loop & is_("gf.mul")].sum())
    v["gf.add_sub.calls"] = calls("gf.add") + calls("gf.sub")
    v["gf.add_sub.self_s"] = self_s("gf.add") + self_s("gf.sub")
    # matrix
    v["matrix.solve.cells"] = int(st.val[loop & is_("matrix.solve")].sum())
    # code: the wrapper share is corrects_pattern time outside its rank_packed child
    packed_child = loop & is_("matrix.rank_packed") & parent_is["code.corrects_pattern"]
    packed_parents = np.unique(st.parent[packed_child])
    cp_time = float(st.dur[packed_parents].sum()) if len(packed_parents) else 0.0
    rp_time = total(packed_child)
    n_packed = int(packed_child.sum())
    v["code.corrects_pattern.wrapper_share"] = ratio(cp_time - rp_time, cp_time)
    dec = loop & is_("code.erasure_decode")
    keys = np.unique(st.val[dec])
    v["code.erasure_decode.distinct_keys"] = len(keys)
    v["code.erasure_decode.reuse_ratio"] = ratio(int(dec.sum()), len(keys))
    v["code.erasure_decode.failures"] = int(st.raised[dec].sum())
    # ensemble; sampling happens in set-up, so these ratios count every phase
    v["ensemble.patterns_tested"] = int(st.val[loop & is_("ensemble.verify_family")].sum())
    kept = int(st.val[is_("ensemble.sample_random_family")].sum())
    # each kept code costs one rank test when drawn and one in LinearCode()
    rank_tests = int((is_("matrix.rank") & parent_is["ensemble.sample_random_family"]).sum())
    v["ensemble.sample_random_family.rank_rejects"] = ratio(rank_tests - kept, kept)
    v["ensemble.ensembles_examined"] = examined
    v["ensemble.inner_search.rref_yield"] = ratio(
        int(st.val[loop & is_("ensemble._rref_generators")].sum()), tracer.rref_scanned)
    # graphcode
    builds = is_("graphcode.build_bipartite")
    v["graphcode.build_bipartite.accept_ratio"] = ratio(int(builds.sum()),
                                                        int(st.val[builds].sum()))
    # symmetric
    under_dg = st.under("symmetric.decode_graph")
    v["symmetric.inner_decode_failures"] = int(
        (loop & is_("graphcode.decode_matrix") & st.raised
         & parent_is["symmetric.decode_graph"]).sum())
    outer_solve = loop & is_("matrix.solve") & parent_is["symmetric.decode_graph"]
    v["symmetric.outer_solve.self_s"] = float(st.self_s[outer_solve].sum())
    dg_time = total(loop & is_("symmetric.decode_graph"))
    solve_in_dg = total(loop & is_("matrix.solve") & under_dg)
    v["symmetric.decode_graph.solve_share"] = ratio(solve_in_dg, dg_time)
    sym_dec = dec & under_dg
    sym_keys = len(np.unique(st.val[sym_dec]))
    # cli
    v["cli.bytes_written"] = bytes_written
    # the trace itself; a bench.op root span's self time is op time that no
    # codefam span covers (the benchmark's own call glue)
    v["trace.traced_s"] = traced_s
    v["trace.untraced_s"] = untraced_s
    v["trace.overhead_s"] = traced_s - untraced_s
    v["trace.overhead_frac"] = ratio(traced_s - untraced_s, untraced_s)
    v["trace.layer_covered_frac"] = 1.0 - ratio(self_s(ROOT_SPAN), traced_s)
    v["trace.spans"] = int(loop.sum())

    item1 = {
        "corrects_pattern_wrapper_share": {
            "measured": v["code.corrects_pattern.wrapper_share"],
            "rank_packed_us_per_call": ratio(rp_time, n_packed) * 1e6,
            "gf2_corrects_pattern_calls": n_packed,
            "baseline": BASELINE_WRAPPER_SHARE,
        },
        "decode_graph_solve_share": {
            "measured": v["symmetric.decode_graph.solve_share"],
            "decode_graph_calls": calls("symmetric.decode_graph"),
            "baseline": BASELINE_SOLVE_SHARE,
        },
        "erasure_decode_reuse": {
            "reuse_ratio": v["code.erasure_decode.reuse_ratio"],
            "calls": int(dec.sum()),
            "distinct_keys": len(keys),
            "under_decode_graph_calls": int(sym_dec.sum()),
            "under_decode_graph_distinct_keys": sym_keys,
            "under_decode_graph_reuse_ratio": ratio(int(sym_dec.sum()), sym_keys),
            "baseline_distinct_keys": BASELINE_SYM_DECODE_KEYS,
            "baseline_reuse_ratio": BASELINE_SYM_REUSE,
        },
    }
    detail = {
        "layers": {n: {"calls": c, "self_s": s} for n, (c, s) in sorted(layers.items())},
        "roadmap_item1": item1,
        "self_s_sum": float(st.self_s[loop].sum()),
    }
    return v, detail


def print_trace(record, picked):
    print("  per-layer metrics (traced rounds):")
    _print_metrics(picked)
    pl = record["per_layer"]
    print(f"  tracing overhead: traced {pl['trace.traced_s']:.4f} s - untraced "
          f"{pl['trace.untraced_s']:.4f} s = {pl['trace.overhead_s']:.4f} s "
          f"({pl['trace.overhead_frac']:.1%}) over {record['traced_rounds']} round(s), "
          f"{record['traced_ops']} ops, {pl['trace.spans']} spans")
    print(f"  self times sum to {record['self_s_sum']:.4f} s of {pl['trace.traced_s']:.4f} s "
          f"traced op time; codefam spans cover {pl['trace.layer_covered_frac']:.1%} of it")
    print("  ROADMAP item 1 cross-check:")
    i1 = record["roadmap_item1"]
    w = i1["corrects_pattern_wrapper_share"]
    if w["gf2_corrects_pattern_calls"]:
        print(f"    corrects_pattern wrapper share {w['measured']:.3f} vs baseline "
              f"{w['baseline']:.2f}; rank_packed {w['rank_packed_us_per_call']:.2f} us/call")
    s = i1["decode_graph_solve_share"]
    if s["decode_graph_calls"]:
        print(f"    matrix.solve share of decode_graph {s['measured']:.3f} vs baseline "
              f"{s['baseline']:.3f}")
    r = i1["erasure_decode_reuse"]
    if r["calls"]:
        print(f"    erasure_decode: {r['calls']} calls over {r['distinct_keys']} keys "
              f"(reuse {r['reuse_ratio']:.1f}); under decode_graph "
              f"{r['under_decode_graph_calls']} calls over "
              f"{r['under_decode_graph_distinct_keys']} keys vs baseline "
              f"{r['baseline_distinct_keys']} keys")
    print("  every layer: see 'layers' in the result file")


# ----------------------------------------------------------------------
# reference digests
# ----------------------------------------------------------------------

def write_reference(workload: str) -> int:
    """Run the first REFERENCE_ROUNDS rounds once at the default seed and
    record their digests."""
    round_at, _ = run_setup(workload, DEFAULT_SEED, OUT / f"work-{workload}")
    checker = Checker(workload, DEFAULT_SEED, {})
    for r in range(wl.REFERENCE_ROUNDS[workload]):
        ops = round_at(r)
        outcomes = [_collect(op, _call(op)) for op in ops]
        for op, out in zip(ops, outcomes):
            checker(op, out)
    if checker.failures:
        for msg in checker.failures:
            print(f"FAIL {msg}", file=sys.stderr)
        return 1
    ref = load_reference()
    ref["seed"] = DEFAULT_SEED
    entry = {"seeded": {}, "seed_free": {}}
    for key, (digest, seed_free) in sorted(checker.seen.items()):
        entry["seed_free" if seed_free else "seeded"][key] = digest
    ref.setdefault("workloads", {})[workload] = entry
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(checker.seen)} digests for {workload}")
    return 0

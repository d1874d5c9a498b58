"""Span tracing of codefam's public API, installed from outside the library.

`Tracer.install` rebinds every public function of every codefam module in
each module that holds a reference to it (so `ensemble.corrects_pattern`
and `graphcode.erasure_decode` are traced as well as `code.*`), and every
public method on the classes the modules define (`FieldSpec.mul`,
`BipartiteGraphCode.decode_matrix`, ...).  `uninstall` restores the
originals.  No library file is touched.

Each call records one span: name, start and end (perf_counter_ns), parent
span, op id, whether it raised, and one integer from a per-name hook (an
element count, a decode key, ...).  Spans are kept in flat typed arrays
and analysed with numpy when the run ends.

Span names are `<module>.<function>` and `<module>.<method>`; a method is
named `<module>.<Class>.<method>` only when the module also has a function
of that name (`code.BundledCode.encode` next to `code.encode`).  CLI
subcommand handlers are named after the subcommand (`cli.verify-graph`).
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from array import array

import numpy as np

ROOT_SPAN = "bench.op"


def _mul_elems(args, kwargs, result):
    a, b = args[1], args[2]
    return math.prod(np.broadcast_shapes(np.shape(a), np.shape(b)))


def _solve_cells(args, kwargs, result):
    return int(np.size(args[1]))


def _patterns_tested(args, kwargs, result):
    return result.patterns_tested if result is not None else 0


def _codes_kept(args, kwargs, result):
    return len(result.codes) if result is not None else 0


def _sampling_attempts(args, kwargs, result):
    return result.provenance.get("sampling_attempts", 0) if result is not None else 0


class Tracer:
    """Wraps codefam's public callables and records one span per call."""

    def __init__(self, modules):
        self.modules = list(modules)
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object, object]] = []
        self._decode_keys: dict[tuple, int] = {}
        self.rref_scanned = 0  # q^(kL) generator matrices scanned inside ops
        self.name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("q")
        self.end = array("q")
        self.raised = array("b")
        self.val = array("q")
        self.stack: list[int] = []
        self.op_id = -1
        self.hooks = {
            "gf.mul": _mul_elems,
            "matrix.solve": _solve_cells,
            "code.erasure_decode": self._decode_key,
            "ensemble.verify_family": _patterns_tested,
            "ensemble.sample_random_family": _codes_kept,
            "ensemble._rref_generators": self._rref_kept,
            "graphcode.build_bipartite": _sampling_attempts,
        }
        self._root = self._wrap(ROOT_SPAN, lambda fn: fn())

    # -- hooks that need tracer state ----------------------------------

    def _decode_key(self, args, kwargs, result):
        """Intern (code contents, erased positions) as one integer key."""
        C, received = args[0], args[1]
        key = (C.spec.p, C.spec.m, C.G.shape, C.G.tobytes(),
               tuple(i for i, v in enumerate(received) if v is None))
        return self._decode_keys.setdefault(key, len(self._decode_keys))

    def _rref_kept(self, args, kwargs, result):
        spec, k, L = args[0], args[1], args[2]
        if self.op_id >= 0:
            self.rref_scanned += spec.q ** (k * L)
        return len(result) if result is not None else 0

    # -- wrapping ------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name, fn):
        nid = self._name_id(name)
        hook = self.hooks.get(name)
        names, parents, ops = self.name, self.parent, self.op
        starts, ends, raised, vals = self.start, self.end, self.raised, self.val
        stack = self.stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op_id)
            starts.append(0)
            ends.append(0)
            raised.append(1)
            vals.append(0)
            stack.append(idx)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                raised[idx] = 0
                return result
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
                if hook is not None:
                    vals[idx] = hook(args, kwargs, result)

        return functools.wraps(fn)(traced)

    def _targets(self):
        """(span name, owner, attribute, function) for every traced callable."""
        out = []
        for mod in self.modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            funcs = {a: v for a, v in vars(mod).items()
                     if inspect.isfunction(v) and v.__module__ == mod.__name__
                     and not a.startswith("_")}
            if "_rref_generators" in vars(mod):
                # private, but its result length is the RREF scan yield
                funcs["_rref_generators"] = vars(mod)["_rref_generators"]
            for a, fn in funcs.items():
                name = f"{short}.{a}"
                if short == "cli" and a.startswith("cmd_"):
                    name = "cli." + a[4:].replace("_", "-")
                out.append((name, mod, a, fn))
            for cname, cls in vars(mod).items():
                if not (isinstance(cls, type) and cls.__module__ == mod.__name__
                        and not issubclass(cls, BaseException)):
                    continue
                for a, fn in vars(cls).items():
                    if inspect.isfunction(fn) and not a.startswith("_"):
                        name = (f"{short}.{cname}.{a}" if a in funcs
                                else f"{short}.{a}")
                        out.append((name, cls, a, fn))
        return out

    def install(self):
        if self._patches:
            return
        holders = [m for n, m in sorted(sys.modules.items())
                   if n == "codefam" or n.startswith("codefam.")]
        for name, owner, attr, fn in self._targets():
            wrapper = self._wrap(name, fn)
            if isinstance(owner, type):
                self._patches.append((owner, attr, fn, wrapper))
                continue
            for mod in holders:
                for a, v in list(vars(mod).items()):
                    if v is fn:
                        self._patches.append((mod, a, fn, wrapper))
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, fn, _ in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches = []

    def run_op(self, op_id: int, fn):
        """Call fn() inside a root span that carries the op id."""
        self.op_id = op_id
        try:
            return self._root(fn)
        finally:
            self.op_id = -1

    # -- analysis ------------------------------------------------------

    def arrays(self):
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "raised": np.frombuffer(self.raised, dtype=np.int8).copy(),
            "val": np.frombuffer(self.val, dtype=np.int64).copy(),
        }

    def save(self, path, op_keys):
        np.savez_compressed(path, names=np.array(self.names), op_keys=np.array(op_keys),
                            **self.arrays())


class SpanTable:
    """Numpy view of recorded spans with self times and ancestry queries."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = tracer.names
        self.ids = {n: i for i, n in enumerate(self.names)}
        self.name = a["name"]
        self.parent = a["parent"]
        self.op = a["op"]
        self.raised = a["raised"].astype(bool)
        self.val = a["val"]
        self.dur = (a["end"] - a["start"]).astype(np.float64) * 1e-9
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                            minlength=len(self.dur))
        self.self_s = self.dur - child
        self.parent_name = np.where(has_parent, self.name[np.maximum(self.parent, 0)], -1)

    def nid(self, name: str) -> int:
        return self.ids.get(name, -1)

    def is_(self, name: str) -> np.ndarray:
        return self.name == self.nid(name)

    def under(self, name: str) -> np.ndarray:
        """True for spans with an ancestor called `name`."""
        target = self.nid(name)
        out = np.zeros(len(self.name), dtype=bool)
        up = self.parent.copy()
        live = up >= 0
        while live.any():
            idx = np.nonzero(live)[0]
            out[idx] |= self.name[up[idx]] == target
            up[idx] = self.parent[up[idx]]
            live = up >= 0
        return out

    def per_name(self, mask: np.ndarray) -> dict[str, tuple[int, float]]:
        n = len(self.names)
        calls = np.bincount(self.name[mask], minlength=n)
        self_s = np.bincount(self.name[mask], weights=self.self_s[mask], minlength=n)
        return {self.names[i]: (int(calls[i]), float(self_s[i]))
                for i in range(n) if calls[i]}

"""Timing wrappers installed from outside the package, and the spans they keep.

A span is (name, start, end, parent, op id).  Spans are kept in flat arrays
while the run goes and written out once at the end.  A span's self time is
its duration minus the durations of its direct children.

Spans are recorded on the client thread only.  Work a wrapped function does
in another thread (the census worker pool calls no wrapped function today)
counts toward the self time of the span that waits for it.
"""

from __future__ import annotations

import functools
import gzip
import threading
import time
from array import array

# (module, attribute or Class.method, span name) for every wrapped function.
# `cli`, `census`, `canonical` and `centralizer` import functions by name, so
# each function is replaced at every module-level binding that holds it.
TARGETS = (
    ("cli", "run", "cli.run"),
    ("census", "census_bruteforce", "census.census_bruteforce"),
    ("census", "verify_partition", "census.verify_partition"),
    ("census", "count_with_charpoly", "census.count_with_charpoly"),
    ("census", "count_irreducible_case", "census.count_irreducible_case"),
    ("census", "gl_order", "census.gl_order"),
    ("census", "orbit_stabilizer_report", "census.orbit_stabilizer_report"),
    ("factor", "factorize", "factor.factorize"),
    ("factor", "is_irreducible", "factor.is_irreducible"),
    ("canonical", "rcf", "canonical.rcf"),
    ("centralizer", "centralizer", "centralizer.centralizer"),
    ("centralizer", "centralizer_unit_count",
     "centralizer.centralizer_unit_count"),
    ("centralizer", "is_polynomial_centralizer",
     "centralizer.is_polynomial_centralizer"),
    ("matrix", "row_echelon", "matrix.row_echelon"),
    ("matrix", "SquareMatrix.charpoly", "matrix.charpoly"),
    ("matrix", "SquareMatrix.minpoly", "matrix.minpoly"),
    ("matrix", "SquareMatrix.__mul__", "matrix.mul"),
    ("matrix", "SquareMatrix.invert", "matrix.invert"),
    ("poly", "Polynomial.__mul__", "poly.mul"),
    ("poly", "Polynomial.__divmod__", "poly.divmod"),
    ("poly", "Polynomial.__pow__", ("poly.pow", "poly.powmod")),
    ("poly", "Polynomial.gcd", "poly.gcd"),
)


class Tracer:
    def __init__(self):
        self.names = []
        self.name_ix = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.op = array("l")
        self.op_id = -1
        self._stack = [-1]
        self._main = threading.get_ident()

    def _name(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, fn, name: str):
        ix = self._name(name)
        names, start, end, parent, ops = (self.name_ix, self.start, self.end,
                                          self.parent, self.op)
        stack, main = self._stack, self._main
        clock, ident = time.perf_counter_ns, threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if ident() != main:
                return fn(*args, **kwargs)
            i = len(names)
            names.append(ix)
            parent.append(stack[-1])
            ops.append(self.op_id)
            start.append(0)
            end.append(0)
            stack.append(i)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                start[i] = t0
                stack.pop()
        return traced

    def install(self, modules: dict) -> None:
        """Wrap every TARGETS entry; `modules` maps short names to modules."""
        for mod_name, attr, name in TARGETS:
            mod = modules[mod_name]
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                if isinstance(name, tuple):
                    setattr(cls, meth, self._split_pow(orig, *name))
                else:
                    setattr(cls, meth, self.wrap(orig, name))
                continue
            orig = getattr(mod, attr)
            wrapped = self.wrap(orig, name)
            for m in modules.values():
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)

    def _split_pow(self, orig, plain_name, mod_name):
        """Polynomial.__pow__ as two spans: with and without a modulus."""
        plain = self.wrap(orig, plain_name)
        modular = self.wrap(orig, mod_name)

        @functools.wraps(orig)
        def __pow__(self_, e, mod=None):
            return plain(self_, e) if mod is None else modular(self_, e, mod)
        return __pow__

    def summary(self) -> dict:
        """{name: (calls, self_ns, total_ns)} over every span recorded."""
        n = len(self.name_ix)
        child = [0] * n
        dur = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        out = {name: [0, 0, 0] for name in self.names}
        for i, ix in enumerate(self.name_ix):
            row = out[self.names[ix]]
            row[0] += 1
            row[1] += dur[i] - child[i]
            row[2] += dur[i]
        return {k: tuple(v) for k, v in out.items()}

    def write(self, path) -> None:
        """Gzipped tab-separated spans: name, start_ns, end_ns, parent row,
        op id."""
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\top\n")
            names = self.names
            fh.writelines(
                f"{names[ix]}\t{s}\t{e}\t{p}\t{o}\n" for ix, s, e, p, o in zip(
                    self.name_ix, self.start, self.end, self.parent, self.op))

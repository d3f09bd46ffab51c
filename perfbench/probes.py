"""Field and polynomial kernel probes at fixed sizes.

Wrapping per-element field calls would swamp the trace, so the field layer is
measured here instead, once per representation the package has: dense
tables over a prime field (GF(2), GF(101)), dense tables over an extension
(GF(8)), modular arithmetic over a prime past the table cap (GF(257)) and
decode/encode over an extension past it (GF(256)).  The census worker pool,
which the timed census runs without, is probed here against one worker.
"""

from __future__ import annotations

import os
import random
import statistics
import time

PROBE_FIELDS = (("gf2", 2), ("gf8", 8), ("gf101", 101), ("gf256", 256),
                ("gf257", 257))
REPS = 5


def _ns_per_call(fn, pairs) -> float:
    times = []
    for _ in range(REPS):
        t0 = time.perf_counter_ns()
        for a, b in pairs:
            fn(a, b)
        times.append((time.perf_counter_ns() - t0) / len(pairs))
    return statistics.median(times)


def run(mc) -> dict:
    """Probe metrics for the imported package `mc`: {name: (value, unit)}."""
    out = {}
    rng = random.Random(0)
    for name, q in PROBE_FIELDS:
        F = mc.field_from_order(q)
        pairs = [(rng.randrange(1, q), rng.randrange(1, q))
                 for _ in range(1000)]
        out[f"field.mul_ns.{name}"] = (_ns_per_call(F.mul, pairs), "ns")
        out[f"field.add_ns.{name}"] = (_ns_per_call(F.add, pairs), "ns")
    builds = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        mc.FieldSpec(2, 8)
        builds.append((time.perf_counter() - t0) * 1e3)
    out["field.build_ms.gf256"] = (statistics.median(builds), "ms")

    # one modular squaring at degree 200 over GF(2), the inner step of the
    # distinct-degree and irreducibility loops
    F2 = mc.make_field(2)
    f = mc.Polynomial(F2, [rng.randrange(2) for _ in range(200)] + [1])
    a = mc.Polynomial(F2, [rng.randrange(2) for _ in range(199)] + [1])
    times = []
    for _ in range(20):
        t0 = time.perf_counter()
        pow(a, 2, f)
        times.append((time.perf_counter() - t0) * 1e6)
    out["poly.powmod_us.gf2_d200"] = (statistics.median(times), "us")
    return out


# census cell for the worker-pool probe: 65536 matrices in four chunks
POOL_CELL = (2, 4)
POOL_REPS = 3


def _census_s(mc, spec, n, threads) -> float:
    times = []
    for _ in range(POOL_REPS):
        t0 = time.perf_counter()
        mc.census_bruteforce(spec, n, threads=threads)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def census_pool(mc) -> dict:
    """One-worker census time over the time with os.cpu_count() workers,
    the CLI default, on POOL_CELL: above 1 the pool helps."""
    q, n = POOL_CELL
    spec = mc.field_from_order(q)
    one = _census_s(mc, spec, n, 1)
    return {"census.pool_speedup":
            (one / _census_s(mc, spec, n, os.cpu_count() or 1), "ratio")}

"""Benchmark for the matrix-census CLI: census, partition and algebra.

    python3 perfbench/run.py --workload census --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; the package is imported from `src/`.
Each workload is a seeded list of real CLI command lines, run in this
process through `matrix_census.cli.run` with stdout captured.  One client
runs them in a closed loop, one op at a time, and repeats the whole list
("a pass") until the time is spent.  Every output is checked by the
benchmark's own arithmetic outside the timed region.  Before each op the
package's caches are emptied, as a fresh CLI process would have them; the
interpreter start and import are set-up, measured apart.

--trace 0 prints the end-to-end metrics: set-up time (median of fresh
interpreters importing the package and building the workload's fields, run
between passes), the time for one pass of the op list, work per second
(matrices on census, polynomials on partition, ops on algebra), op latency
percentiles over the op list and peak memory.  Every timing but set-up is
built from each op's latency scaled to a reference host pace (see Pace and
op_latencies), its median over the passes.
--trace 1 spends half the time on untraced passes and half on passes with
timing wrappers around each layer's public functions, and prints per-layer
metrics: calls and self time per pass for each wrapped function, kernel
probes, and the tracing overhead.  The last line of output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.

Run records and spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import probes
import ref
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
ENV_THREADS = "MATRIX_CENSUS_THREADS"
SETUP_PER_PASS = 2  # set-up samples taken after each pass
# Host pace taken as the reference: Pace.sample() on a loaded 2-vCPU VM
# (Intel Xeon, 2.0 GHz, Python 3.11).  Timings are reported at this pace.
PACE_REF_S = 0.002

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import matrix_census.cli
from matrix_census.field import field_from_order
for q in sys.argv[2:]:
    field_from_order(int(q))
print(time.perf_counter() - t0)
"""

def run_record() -> dict:
    head = ROOT / ".git" / "HEAD"
    rev = "unknown"
    if head.is_file():
        text = head.read_text().strip()
        head_ref = ROOT / ".git" / text[5:] if text.startswith("ref: ") else None
        rev = (head_ref.read_text().strip() if head_ref and head_ref.is_file()
               else text)
    lines = sum(len(p.read_text().splitlines())
                for p in sorted(SRC.rglob("*.py")))
    return {"git_rev": rev, "python": sys.version.split()[0],
            "cpu_count": os.cpu_count(), "src_lines": lines}


class Setup:
    """Seconds for a fresh interpreter to import the CLI and build the
    workload's fields, sampled in child processes spread over the run."""

    def __init__(self, qs):
        self.argv = [sys.executable, "-c", SETUP_CODE, str(SRC), *map(str, qs)]
        self.env = {k: v for k, v in os.environ.items()
                    if k not in (ENV_THREADS, "PYTHONPATH")}
        self.times = []
        self._child()  # compiles bytecode; not timed

    def _child(self) -> float:
        done = subprocess.run(self.argv, cwd=ROOT, env=self.env,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        return float(done.stdout)

    def sample(self) -> None:
        self.times.extend(self._child() for _ in range(SETUP_PER_PASS))


def peak_rss_mb() -> float:
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024


class Client:
    """Runs the op list pass after pass and checks every output."""

    def __init__(self, cli, ops, fields, cache_clears=()):
        self.cli = cli
        self.ops = ops
        self.fields = fields
        self.cache_clears = cache_clears
        self.verified = {}  # argv -> result JSON already checked correct
        self.attempted = 0
        self.failures = []  # (op, reason)
        self.pace = Pace()

    def run_op(self, op, tracer=None):
        out, err = io.StringIO(), io.StringIO()
        if tracer:
            tracer.op_id = self.attempted
        for clear in self.cache_clears:
            clear()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.cli.run(op.argv)
        return time.perf_counter() - t0, rc, out.getvalue(), err.getvalue()

    def check(self, op, rc, out, err):
        """None if correct; results equal to one already verified pass."""
        result = None
        if rc == 0:
            try:
                result = json.dumps(json.loads(out)["result"], sort_keys=True)
            except (ValueError, KeyError, TypeError):
                pass
            if result is not None and self.verified.get(op.key) == result:
                return None
        reason = checks.check(op, rc, out, err, self.fields[op.q])
        if reason is None:
            self.verified[op.key] = result
        return reason

    def passes(self, seconds, tracer=None, between=None) -> list:
        """Run passes until `seconds` of timed work, calling `between` after
        each; [(wall, [(op, latency, ok, pace)])], with `pace` the mean of
        the host pace samples taken right before and right after the op."""
        done = []
        spent = 0.0
        while not done or spent + statistics.median(w for w, _ in done) <= seconds:
            raw = []
            t0 = time.perf_counter()
            before = self.pace.sample()
            for op in self.ops:
                raw.append((op, *self.run_op(op, tracer)))
                after = self.pace.sample()
                raw[-1] += ((before + after) / 2,)
                before = after
                self.attempted += 1
            wall = time.perf_counter() - t0
            spent += wall
            rows = []
            for op, lat, rc, out, err, pace in raw:
                reason = self.check(op, rc, out, err)
                if reason:
                    self.failures.append((op, reason))
                rows.append((op, lat, reason is None, pace))
            done.append((wall, rows))
            if between:
                between()
        return done


class Pace:
    """The host's pace: seconds a fixed piece of the benchmark's own GF(7)
    arithmetic takes (row-reducing one 12x12 matrix twice, about 2 ms).

    On a shared host the speed of a core moves by half within seconds and
    can stay changed for minutes as neighbours come and go.  Measured on a
    2-vCPU VM, the median pace of a 36 s run varied by 45% (IQR over
    median) across ten runs, and median op-list times by 17-29%.  Scaled
    by the pace measured around each op, the same workloads spread by
    2-6%.  The pace code is the benchmark's, so a change to the program
    moves the scaled times as much as the raw ones."""

    def __init__(self):
        rng = random.Random(0)
        self.field = ref.RefField(7)
        self.matrix = [[rng.randrange(7) for _ in range(12)]
                       for _ in range(12)]
        self.samples = []

    def sample(self) -> float:
        t0 = time.perf_counter()
        ref.rank(self.field, self.matrix)
        ref.rank(self.field, self.matrix)
        self.samples.append(time.perf_counter() - t0)
        return self.samples[-1]


def op_latencies(done) -> list:
    """Each op's latency at the reference pace, in seconds, in op-list order:
    the median over the passes of latency * PACE_REF_S / pace.  An op that
    failed in any pass ranks with the slowest."""
    per_op = [([lat * PACE_REF_S / pace for _, lat, _, pace in repeats],
               all(ok for _, _, ok, _ in repeats))
              for repeats in zip(*(rows for _, rows in done))]
    worst = max(max(lats) for lats, _ in per_op)
    return [statistics.median(lats) if ok else worst for lats, ok in per_op]


def matrices_per_pass(ops) -> int:
    """Matrices enumerated by the brute-force census in one pass."""
    return sum(op.q ** (op.info["n"] ** 2) for op in ops
               if op.kind == "verify" and "formula" not in op.argv)


def polys_per_pass(ops) -> int:
    """Polynomials counted by the partition identity in one pass."""
    return sum(op.q ** op.info["n"] for op in ops
               if op.kind == "verify" and "bruteforce" not in op.argv)


def items_per_pass(workload, ops) -> int:
    """Matrices (census), polynomials (partition) or ops (algebra) per pass."""
    if workload == "census":
        return matrices_per_pass(ops)
    if workload == "partition":
        return polys_per_pass(ops)
    return len(ops)


def end_to_end(workload, ops, done, setup_s) -> dict:
    lats = op_latencies(done)
    wall = sum(lats)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "items_per_s": (items_per_pass(workload, ops) / wall, "1/s"),
        "op_p50_ms": (statistics.median(lats) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(lats, n=10, method="inclusive")[-1]
                      * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def per_layer(ops, untraced, traced, tracer, client, probe_metrics) -> dict:
    npass = len(traced)
    nops = npass * len(ops)
    table = tracer.summary()
    out = {}
    for _, _, names in spans.TARGETS:
        for name in names if isinstance(names, tuple) else (names,):
            calls, self_ns, _ = table.get(name, (0, 0, 0))
            out[f"{name}.calls"] = (calls / npass, "count")
            out[f"{name}.self_s"] = (self_ns / 1e9 / npass, "s")
    out["cli.self_ms_per_op"] = (table.get("cli.run", (0, 0))[1] / 1e6 / nops,
                                 "ms")
    for kind, _ in workloads.ALGEBRA_MIX:
        lats = [lat for _, rows in untraced for op, lat, _, _ in rows
                if op.kind == kind]
        out[f"cli.{kind}.p50_ms"] = (
            statistics.median(lats) * 1e3 if lats else 0.0, "ms")
    matrices, polys = matrices_per_pass(ops), polys_per_pass(ops)
    total_ns = {name: row[2] for name, row in table.items()}
    out["census.matrices"] = (matrices, "count")
    out["census.polys"] = (polys, "count")
    out["census.us_per_matrix"] = (
        total_ns.get("census.census_bruteforce", 0) / 1e3 / npass / matrices
        if matrices else 0.0, "us")
    out["census.us_per_poly"] = (
        total_ns.get("census.verify_partition", 0) / 1e3 / npass / polys
        if polys else 0.0, "us")
    out.update(probe_metrics)
    # time inside the ops only: a pass also holds the pace samples
    op_s = [sum(lat for _, lat, _, _ in rows) for _, rows in traced]
    self_sum = sum(row[1] for row in table.values()) / 1e9
    out["trace.self_sum_frac"] = (self_sum / sum(op_s), "ratio")
    out["trace.overhead_frac"] = (
        sum(op_latencies(traced)) / sum(op_latencies(untraced)) - 1, "ratio")
    out["ops.attempted"] = (client.attempted, "count")
    out["ops.failed"] = (len(client.failures), "count")
    return out


def run_defect_probes(client, probe_ops) -> int:
    """Run ops that fail today, untimed; the number that failed.  A wrong
    answer from one of them is a correctness failure like any other."""
    failed = 0
    for op in probe_ops:
        _, rc, out, err = client.run_op(op)
        if rc != 0:
            failed += 1
            print(f"defect probe {' '.join(op.argv)}: exit {rc}: "
                  f"{err.strip()[:120]}")
            continue
        reason = checks.check(op, rc, out, err, client.fields[op.q])
        if reason:
            client.failures.append((op, reason))
    return failed


def import_package():
    if not (SRC / "matrix_census" / "cli.py").is_file():
        raise SystemExit(f"error: no package source at {SRC}")
    sys.path.insert(0, str(SRC))
    import matrix_census
    if SRC not in Path(matrix_census.__file__).resolve().parents:
        raise SystemExit(f"error: imported {matrix_census.__file__}, "
                         f"not the package under {SRC}")
    # by module path: the package re-exports functions named like modules
    names = ("cli", "census", "canonical", "centralizer", "factor", "field",
             "matrix", "poly")
    modules = {name: importlib.import_module(f"matrix_census.{name}")
               for name in names}
    modules["package"] = matrix_census
    return matrix_census, modules


def cache_clears(modules) -> list:
    """cache_clear of every functools cache bound in the package."""
    found = {id(v): v for m in modules.values() for v in vars(m).values()
             if callable(getattr(v, "cache_clear", None))}
    return [v.cache_clear for v in found.values()]


def run_all(args) -> int:
    """Each workload in a fresh interpreter; their outputs, then one JSON
    line mapping workload to result."""
    results = {}
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], capture_output=True, text=True, check=False)
        lines = done.stdout.strip().splitlines()
        for line in lines[:-1] + done.stderr.strip().splitlines():
            print(f"[{name}] {line}")
        if done.returncode:
            print(f"[{name}] exit {done.returncode}")
            return done.returncode
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"),
                    required=True,
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    os.environ.pop(ENV_THREADS, None)
    mc, modules = import_package()
    record = run_record()
    ops, probe_ops = workloads.make_ops(args.workload, args.seed)
    qs = workloads.WORKLOAD_FIELDS[args.workload]
    client = Client(modules["cli"], ops, {q: ref.RefField(q) for q in qs},
                    cache_clears(modules))

    defects = run_defect_probes(client, probe_ops)
    if args.trace:
        probe_metrics = probes.run(mc)
        probe_metrics.update(probes.census_pool(mc))
        untraced = client.passes(args.seconds / 2)
        tracer = spans.Tracer()
        tracer.install(modules)
        traced = client.passes(args.seconds / 2, tracer)
        metrics = per_layer(ops, untraced, traced, tracer, client,
                            probe_metrics)
        walls = {"untraced": [w for w, _ in untraced],
                 "traced": [w for w, _ in traced]}
    else:
        setup = Setup(qs)
        setup.sample()
        done = client.passes(args.seconds, between=setup.sample)
        metrics = end_to_end(args.workload, ops, done,
                             statistics.median(setup.times))
        untraced = done
        walls = {"untraced": [w for w, _ in done], "setup": setup.times}
    if args.trace:
        metrics["defect.count_over_limit.failed"] = (defects, "count")

    failed = len(client.failures)
    for op, reason in client.failures[:20]:
        print(f"FAILED {' '.join(op.argv)[:160]}: {reason}")
    for key, val in sorted(record.items()):
        print(f"record {key} = {val}")
    print(f"ops attempted {client.attempted}, failed {failed}, "
          f"failed_frac {failed / client.attempted:.6f}")
    for name, times in walls.items():
        print(f"{name} times (s): {' '.join(f'{t:.4g}' for t in times)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-trace{args.trace}"
    if args.trace:
        tracer.write(OUT / f"{stem}.spans.tsv.gz")
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed,
         "seconds": args.seconds, "record": record,
         "attempted": client.attempted, "failed": failed,
         "times_s": walls, "pace_s": client.pace.samples,
         "op_latencies_s": [[lat for _, lat, _, _ in repeats] for repeats
                            in zip(*(rows for _, rows in untraced))],
         "metrics": metrics}, indent=1) + "\n")
    print(json.dumps({
        "correct": failed == 0, "attempted": client.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

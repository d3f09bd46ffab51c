"""Self-test: corrupted CLI results must be counted as failed.

    python3 perfbench/selftest.py

Runs a small seeded op of every class through the real CLI, then feeds the
client a corrupted copy of each output (a count off by one, a dropped factor,
a dropped basis element, ...) and checks that every corrupted op lands in the
failure count while every genuine one passes.  Exits non-zero otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys

import ref
import run
import workloads


def _small_ops() -> list:
    """One op per class, sized to run in well under a second."""
    rng = random.Random(7)
    fields = {q: ref.RefField(q) for q in workloads.ALGEBRA_FIELDS}
    ops = []
    for kind in ("rcf", "rcf_noncyclic", "centralizer", "orbit", "factor",
                 "count_poly"):
        ops.append(workloads._algebra_op(kind, 1, fields, rng))  # GF(3)
    ops.append(workloads._count_n_op(3, 5))
    ops.append(workloads.census_ops(0)[0])
    ops.append(workloads.partition_ops(0)[0])
    return ops


def _corrupt(kind: str, env: dict) -> None:
    """Make one wrong-answer edit to the envelope's result, in place."""
    res = env["result"]
    if kind == "verify":
        res["total"] = str(int(res["total"]) + 1)
    elif kind in ("rcf", "rcf_noncyclic"):
        rows = ref.parse_matrix(res["transition"])
        rows[0][0] = (rows[0][0] + 1) % env["params"]["field"]["q"]
        res["transition"] = ref.format_matrix(rows)
    elif kind == "centralizer":
        res["basis"] = res["basis"][:-1]
        res["dimension"] -= 1
        res["order"] = str(env["params"]["field"]["q"] ** res["dimension"])
    elif kind == "orbit":
        res["orbit_size"] = str(int(res["orbit_size"]) + 1)
    elif kind == "factor":
        res["factors"] = res["factors"][:-1]
    elif kind in ("count_poly", "count_n"):
        res["count"] = str(int(res["count"]) + 1)
    else:
        raise ValueError(kind)


class _CorruptingCli:
    """Stands in for the CLI module: runs the real one, edits its answer."""

    def __init__(self, cli, ops):
        self.cli = cli
        self.kind = {op.key: op.kind for op in ops}

    def run(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.cli.run(argv)
        env = json.loads(buf.getvalue())
        _corrupt(self.kind[tuple(argv)], env)
        sys.stdout.write(json.dumps(env) + "\n")
        return rc


def main() -> int:
    _, modules = run.import_package()
    ops = _small_ops()
    fields = {op.q: ref.RefField(op.q) for op in ops}
    genuine = run.Client(modules["cli"], ops, fields)
    genuine.passes(0)
    corrupted = run.Client(_CorruptingCli(modules["cli"], ops), ops, fields)
    corrupted.passes(0)
    caught = {op.kind for op, _ in corrupted.failures}
    for op, reason in genuine.failures:
        print(f"genuine output rejected: {op.kind}: {reason}")
    missed = sorted({op.kind for op in ops} - caught)
    for kind in missed:
        print(f"corrupted {kind} output was counted correct")
    for op, reason in corrupted.failures:
        print(f"caught corrupted {op.kind}: {reason}")
    ok = not genuine.failures and not missed and len(corrupted.failures) == len(ops)
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

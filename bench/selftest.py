"""Self-test of the benchmark, kept apart from the project's test suite.

    python3 bench/selftest.py

Runs every kind of operation once at tiny sizes, untraced and traced, and
checks that the runs pass, that counts repeat from pass to pass, that the
tracer puts every wrapped function back, that deliberately wrong expected
values are counted as failed, that the oracles give the numbers stated for
the full workloads, and that the benchmark refuses to run without the
program's sources.  Exits 1 on the first failed check.
"""
from __future__ import annotations

import importlib
import itertools
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as w  # noqa: E402


def expect(cond: bool, what: str) -> None:
    if not cond:
        print(f"FAIL: {what}")
        sys.exit(1)
    print(f"ok: {what}")


def tiny_workloads() -> list[w.Workload]:
    return [w.sr_flat(depth=2), w.run_resolve(7, trees=2, nodes=4, mk_n=5),
            w.tp_ground(depth=1), w.check_criteria()]


def wrong_workload() -> w.Workload:
    """Operations whose expected values are deliberately wrong."""
    mk = w.run_resolve(7, trees=0, mk_n=5)
    mk.ops[0].check = w.run_answer_check("Xs", [5, 4, 3, 2], 6)
    tp = w.tp_ground(depth=1)
    tp.ops[0].check = w.tp_ground(depth=2).ops[0].check
    return w.Workload("wrong", mk.ops + tp.ops, [])


def flipping_workload() -> w.Workload:
    """An operation whose work changes from one call to the next."""
    depths = itertools.cycle(["1", "2"])
    argv = ["sr", str(w.PROGRAMS / "flat.tlp"), "--query", "flat(T, L)", "--depth"]
    op = w.Op("sr flat at depth 1 or 2", lambda: w.run_cli(argv + [next(depths)]),
              lambda outcome: None)
    return w.Workload("flipping", [op], [])


def traced_twice(wl: w.Workload) -> run.Run:
    """An untraced pass and two traced ones."""
    tracer = tracing.Tracer()
    result = run.measure(wl, 0, tracer)
    tracer.install()
    try:
        run.one_pass(wl, result, tracer)
    finally:
        tracer.uninstall()
    return result


def main() -> int:
    run.import_tlpc()
    cli = importlib.import_module("tlpc.cli")
    expect(w.flat_skeleton_count(3) == 4207, "skeleton oracle gives 4207 for flat at depth 3")
    expect(len(w.append_fixpoint(3)) == 5172, "fixpoint oracle gives 5172 atoms for append")
    expect(w.normalize("p(X_7) :- r(X_7), q(X_2).") == w.normalize("p(X_1) :- r(X_1), q(X_9).")
           and w.normalize("r(X_1, X_1)") != w.normalize("r(X_1, X_2)"),
           "normalize renumbers fresh names and keeps them apart")

    originals = {name: getattr(cli, name) for name in ("most_general_type", "render", "main")}
    for wl in tiny_workloads():
        plain = run.measure(wl, 0)
        expect(plain.unexpected == [] and plain.attempted == len(wl.ops),
               f"{wl.name}: untraced pass gives the expected results")
        traced = traced_twice(wl)
        expect(traced.unexpected == [] and traced.counts_repeat
               and len(traced.layer_passes) == 2,
               f"{wl.name}: traced passes give the expected results and repeat their counts")
    expect(all(getattr(cli, n) is f for n, f in originals.items()),
           "the tracer restores the functions it wrapped")

    bad = wrong_workload()
    plain = run.measure(bad, 0)
    errors = sorted(err.split()[0] for _, err in plain.failures)
    expect(plain.failed == 2 and errors == ["wrong-atom-count", "wrong-output"],
           f"wrong answers count as failed untraced: {errors}")
    traced = traced_twice(bad)
    expect(traced.failed == 6 and traced.unexpected,
           f"wrong answers count as failed traced: {traced.failed} of {traced.attempted}")
    expect(not traced_twice(flipping_workload()).counts_repeat,
           "counts that differ between passes are detected")

    bare = w.ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(w.BENCH_DIR, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(w.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "tp-ground",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180, check=False)
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "without the sources the benchmark exits non-zero and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())

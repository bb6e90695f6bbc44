"""Benchmark of tlpc: four workloads, each a closed loop on one thread.

    python3 bench/run.py --workload sr-flat --seed 1 --seconds 30 --trace 0

Each operation is a call a user makes: `tlpc.cli.main([...])` with its
output captured, or `tp_fixpoint`.  The next operation starts when the one
before it ends; passes over the workload's operations repeat until the
next one would not fit in `--seconds`.  Every result is checked against a
known answer (see workloads.py).

With `--trace 0` the last line of output reports the end-to-end metrics:
wall_s (seconds per pass: the operations' time over the number of passes,
the inverse of throughput), setup_s (median over fresh processes of
importing tlpc and parsing the workload's inputs), peak_rss_mb and
ok_share (operations that gave the expected result, over those attempted).
wall_s is a mean and not a median because a shared machine's speed can
switch between levels for tens of seconds at a time: the median of a run's
passes then jumps from one level to the other, while the mean moves with
the share of time spent at each.
With `--trace 1` it reports per-layer metrics from a run whose first half
is untraced and whose second half wraps each layer's public functions
(tracing.py); trace.overhead_s is the traced minus the untraced wall_s.
Details, and with tracing the spans of one pass, go to `.bench_out/`.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import KNOWN_DEFECTS, ROOT, Workload  # noqa: E402

SETUP_PROBES = 9
OUT_DIR = ROOT / ".bench_out"


def import_tlpc():
    """Import tlpc from this checkout's sources and nowhere else."""
    src = ROOT / "src"
    if not (src / "tlpc" / "__init__.py").is_file():
        raise SystemExit(f"error: no tlpc sources under {src}")
    sys.path.insert(0, str(src))
    import tlpc
    if Path(tlpc.__file__).resolve().parent != (src / "tlpc").resolve():
        raise SystemExit(f"error: imported tlpc from {tlpc.__file__}, not from {src}")
    return tlpc


def commit() -> str:
    """The checked-out commit, read from .git when there is one."""
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
    return "unknown"


def measure_setup(name: str, seed: int, probes: int) -> list[float]:
    """Set-up seconds from fresh interpreter processes."""
    out = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        out.append(float(proc.stdout.split()[-1]))
    return out


def run_op(op, tracer=None):
    """Run one operation: seconds, error class or None, and with a tracer
    the operation's self times and counters."""
    frame = tracer.enter(tracer.name_id(tracing.ROOT_SPAN)) if tracer else None
    t0 = time.perf_counter()
    try:
        outcome = op.call()
        error = None
    except Exception as e:  # a crash of the program is a failed operation
        outcome, error = None, f"exception {type(e).__name__}: {e}"
    seconds = time.perf_counter() - t0
    if tracer:
        tracer.exit(frame)
    if error is None:
        error = op.check(outcome)
    self_s, counts = tracer.take_op() if tracer else ({}, Counter())
    return seconds, error, self_s, counts


class Run:
    """Outcome of the passes of one run."""

    def __init__(self):
        self.pass_s: list[float] = []
        self.untraced_pass_s: list[float] = []
        self.op_s: dict[str, list[float]] = {}
        self.attempted = 0
        self.failures: Counter = Counter()  # (op name, error class) -> times
        self.layer_passes: list[dict[str, float]] = []
        self.op_counts: dict[str, dict[str, int]] = {}
        self.counts_repeat = True

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def unexpected(self) -> list[str]:
        return sorted({op for op, _ in self.failures if op not in KNOWN_DEFECTS})


def one_pass(wl: Workload, run: Run, tracer=None) -> None:
    gc.collect()
    total = 0.0
    self_s: Counter = Counter()
    counts: Counter = Counter()
    for op in wl.ops:
        seconds, error, op_self, op_counts = run_op(op, tracer)
        total += seconds
        run.attempted += 1
        run.op_s.setdefault(op.name, []).append(seconds)
        if error is not None:
            run.failures[(op.name, error)] += 1
        if tracer:
            self_s.update(op_self)
            counts.update(op_counts)
            got = dict(sorted(op_counts.items()))
            if run.op_counts.setdefault(op.name, got) != got:
                run.counts_repeat = False
    run.pass_s.append(total)
    if tracer:
        layers = tracing.layer_metrics(self_s, counts)
        if run.layer_passes and any(layers[m] != run.layer_passes[0][m]
                                    for m in tracing.EXACT):
            run.counts_repeat = False
        run.layer_passes.append(layers)


def measure(wl: Workload, seconds: float, tracer=None) -> Run:
    """Passes until the next would end after `seconds`; at least one.  With
    a tracer, the first half of the time runs untraced passes and the rest
    traced ones (at least one each); only the first traced pass keeps its
    spans, and the two halves give the tracing overhead."""
    run = Run()
    start = time.perf_counter()

    def more(until: float) -> bool:
        return time.perf_counter() - start + statistics.median(run.pass_s) <= until

    one_pass(wl, run)
    if tracer is None:
        while more(seconds):
            one_pass(wl, run)
        return run
    while more(seconds / 2):
        one_pass(wl, run)
    run.untraced_pass_s, run.pass_s = run.pass_s, []
    tracer.install()
    try:
        one_pass(wl, run, tracer)
        tracer.keep_spans = False
        while more(seconds):
            one_pass(wl, run, tracer)
    finally:
        tracer.uninstall()
    overhead = statistics.fmean(run.pass_s) - statistics.fmean(run.untraced_pass_s)
    for layers in run.layer_passes:
        layers["trace.overhead_s"] = overhead
    return run


def tail(values: list[float]) -> dict[int, float]:
    """The highest percentile with at least ten samples above it, if any."""
    p = int(100 * (1 - 10 / len(values)))
    return {p: statistics.quantiles(values, n=100)[p - 1]} if p >= 50 else {}


def report(wl: Workload, seed: int, trace: bool, run: Run, setup: list[float] | None,
           tracer) -> dict:
    if trace:
        first = run.layer_passes[0]
        metrics = {}
        for name, unit, _ in tracing.PER_LAYER:
            value = (first[name] if name in tracing.EXACT
                     else statistics.fmean(p[name] for p in run.layer_passes))
            metrics[name] = {"value": value, "unit": unit}
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "wall_s": {"value": statistics.fmean(run.pass_s), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": rss_kib / 1024, "unit": "MiB"},
            "ok_share": {"value": 1 - run.failed / run.attempted, "unit": "ratio"},
        }
    detail = {
        "workload": wl.name, "seed": seed, "trace": int(trace),
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "commit": commit(),
        "passes": len(run.pass_s), "pass_s": run.pass_s,
        "pass_median_s": statistics.median(run.pass_s), "pass_tail_s": tail(run.pass_s),
        "op_median_s": {k: statistics.median(v) for k, v in run.op_s.items()},
        "attempted": run.attempted, "failed": run.failed,
        "failed_share": run.failed / run.attempted,
        "failures": [{"op": op, "error": err, "times": n}
                     for (op, err), n in sorted(run.failures.items())],
        "known_defects": sorted(KNOWN_DEFECTS),
        "setup_s": setup,
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{seed}-trace{int(trace)}"
    if trace:
        detail["untraced_pass_s"] = run.untraced_pass_s
        detail["op_counts"] = run.op_counts
        detail["baseline_counts"] = {
            op.name: {k: {"baseline": v, "measured": run.op_counts[op.name].get(k, 0)}
                      for k, v in op.baseline.items()}
            for op in wl.ops if op.baseline}
        detail["counts_repeat"] = run.counts_repeat
        detail["spans"] = tracer.write_spans(OUT_DIR / f"{stem}-spans.tsv.gz")
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=2)
    return detail


def print_detail(detail: dict) -> None:
    print(f"workload {detail['workload']}  seed {detail['seed']}  trace {detail['trace']}  "
          f"python {detail['python']}  nproc {detail['nproc']}  commit {detail['commit']}")
    print(f"passes {detail['passes']}  attempted {detail['attempted']}  "
          f"failed {detail['failed']}  failed_share {detail['failed_share']:.4f}")
    print(f"pass median {detail['pass_median_s']:.4f} s" + "".join(
        f"  p{p} {v:.4f} s" for p, v in detail["pass_tail_s"].items()))
    for op, s in detail["op_median_s"].items():
        print(f"  op {op:<28} median {s:.4f} s")
    for f in detail["failures"]:
        known = " (known defect)" if f["op"] in detail["known_defects"] else ""
        print(f"  FAILED {f['op']} x{f['times']}{known}: {f['error']}")
    for op, counts in detail.get("op_counts", {}).items():
        print(f"  counts {op}: " + ", ".join(f"{k}={v}" for k, v in counts.items()))
    for op, counts in detail.get("baseline_counts", {}).items():
        print(f"  baseline {op}: " + ", ".join(
            f"{k}={c['measured']} (baseline {c['baseline']})" for k, c in counts.items()))
    if "counts_repeat" in detail:
        print(f"counts repeat across passes: {detail['counts_repeat']}  "
              f"spans written: {detail['spans']}")
    for name, m in detail["metrics"].items():
        print(f"  {name:<30} {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    os.environ["TLPC_COLOR"] = "0"
    if args.probe:
        wl = workloads.build(args.workload, args.seed)
        sys.path.insert(0, str(ROOT / "src"))
        print(workloads.setup_probe(wl))
        return 0

    import_tlpc()  # also compiles the byte code before the probes time imports
    wl = workloads.build(args.workload, args.seed)
    tracer = tracing.Tracer() if args.trace else None
    # probes before and after the passes sample the machine over the run
    setup = None if args.trace else measure_setup(args.workload, args.seed, SETUP_PROBES // 2)
    run = measure(wl, args.seconds, tracer)
    if setup is not None:
        setup += measure_setup(args.workload, args.seed, SETUP_PROBES - len(setup))
    detail = report(wl, args.seed, bool(args.trace), run, setup, tracer)
    print_detail(detail)
    correct = not run.unexpected and run.counts_repeat
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": detail["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

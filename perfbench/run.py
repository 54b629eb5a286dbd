#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload block --seed 1 --seconds 10 --trace 0

Workloads: ``block`` (the scan core on a 16 MB block, in-process) and
``flow_policy`` (tenant FLOW packets against a pooled ``repro serve``,
open loop with dictionary and policy swaps, and closed-loop capacity).
See README.md.

With ``--trace 0`` the run measures the end-to-end metrics untraced;
with ``--trace 1`` it measures the per-layer metrics, timing spans
around each layer call the benchmark makes.  Every output is checked;
a wrong one fails the run.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Run metadata (versions, parameters, per-metric quartiles and sample
counts) and, for traced runs, every span are written to
``perfbench/out/``.

Exit codes: 0 all outputs correct; 1 a wrong output or a failed
operation (the result line says which); 2 the repository sources are
missing or the arguments are bad; 3 the run is void (set-up failed or
the daemon misbehaved).  A run whose open-loop sender fell behind its
schedule still exits 0; it is flagged on standard error and in its
metadata.

While a workload runs, one ``SCHED_IDLE`` spinner per CPU keeps the
CPUs from halting (see ``idle.py``).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("block", "flow_policy")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _catalogue(section: str):
    """(name, unit) of every metric ``BENCHMARK.json`` lists under
    ``section``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[section]]


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import numpy

    from perfbench.idle import cpus, idle_spinners
    from perfbench.metrics import REPORTED
    from perfbench.stats import tail_supported

    wl = importlib.import_module(f"perfbench.wl_{args.workload}")
    out_dir = HERE / "out"
    workdir = out_dir / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    try:
        with idle_spinners(cpus()):
            res = wl.run(args.seed, args.seconds, bool(args.trace),
                         workdir)
    except Exception as exc:  # any set-up or daemon failure voids the run
        print(f"error: {args.workload} run void: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    elapsed = time.perf_counter() - t0
    if res.flag:
        print(f"warning: {args.workload}: {res.flag}", file=sys.stderr)

    catalogue = _catalogue("per_layer" if args.trace else "end_to_end")
    source = res.per_layer if args.trace else res.end_to_end
    metrics = {name: {"value": source.get(name, 0), "unit": unit}
               for name, unit in catalogue}
    tally = res.tally
    tracer = res.notes.pop("tracer", None)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    meta = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "idle_spinners": cpus(),
        "python": platform.python_version(),
        "numpy": numpy.__version__, "platform": platform.platform(),
        "params": res.params,
        "elapsed_s": elapsed,
        "attempted": tally.attempted, "failed": tally.failed,
        "flag": res.flag,
        "error_frac": tally.error_frac, "failures": tally.failures,
        "failure_examples": tally.examples,
        "samples": res.sample_summary(),
        "end_to_end": res.end_to_end, "per_layer": res.per_layer,
        "notes": res.notes,
    }
    with open(out_dir / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=1, default=str)
        fh.write("\n")
    if tracer is not None:
        tracer.dump(out_dir / f"{stem}-spans.json",
                    extra={"workload": args.workload, "seed": args.seed})

    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={os.cpu_count()} ({elapsed:.1f}s)")
    for name, m in metrics.items():
        line = f"  {name:<30} {_fmt(m['value']):>12} {m['unit']}"
        print(line)
    if not args.trace:
        n = len(res.samples["latency_ms"])
        for (name, unit), q in zip(REPORTED, (0.95, 0.99)):
            flag = "" if tail_supported(n, q) else ", <10 beyond"
            print(f"  {name:<30} {_fmt(res.end_to_end[name]):>12} {unit} "
                  f"(not gated; {n} samples{flag})")
    print(f"  {'error_frac':<30} {_fmt(tally.error_frac):>12} ratio "
          f"({tally.failed} of {tally.attempted})")
    if tracer is not None:
        print("  spans (count, median ms, median self ms):")
        for name, row in tracer.layer_table().items():
            print(f"    {name:<40} {row['count']:>6} "
                  f"{row['p50_ms']:>10.4f} {row['self_p50_ms']:>10.4f}")
    for example in tally.examples:
        print(f"  failure: {example}")
    print(f"  metadata: {out_dir / (stem + '.json')}")
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

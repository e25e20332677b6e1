"""Benchmark entry point: one workload, one seed, one fresh process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is read from
``src/``).  The inputs are generated from the seed, written under
``.bench_out/``, and handed to ``bench/workload.py`` in fresh
single-threaded Python processes.  The list holds about
``seconds / LIST_SHARE`` seconds of work.  With ``--trace 0`` the list
runs again and again, each time in a fresh process, until ``--seconds``
have passed (at least ``MIN_PASSES`` times); every operation counts with
the median of its times, and the run reports the end-to-end metrics.
Set-up is measured in more fresh processes before and after the first
pass, and its median reported.  With ``--trace 1`` the list runs once
with spans around every call into the package's modules, and the
per-layer metrics are reported; the spans are written to
``.bench_out/trace-<workload>-<seed>.{bin,json}``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exits 2 without a result
when the checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402

SETUP_PROCESSES = 2  # set-up-only processes before and again after the first pass
CHILD_TIMEOUT_S = 80
LIST_SHARE = 12  # the operation list holds 1/LIST_SHARE of --seconds of work
MIN_PASSES, MAX_PASSES = 4, 24  # fresh-process passes over the list in a run

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mib": "MiB",
    "output_kib": "KiB",
}
LAYER_SPANS = sorted(set(spans.SPANS.values()) | set(spans.JSON_SPANS.values()))
PER_LAYER = {
    **{f"{name}{suffix}": "s" for name in LAYER_SPANS for suffix in ("_s", "_self_s")},
    **{count: "count" for count in spans.COUNTS},
    "cli.import_s": "s",
    "trace.ops_per_s": "1/s",
    "trace.spans": "count",
}


def child(script_args: list) -> dict:
    """Run bench/workload.py in a fresh interpreter and return its summary."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH="")
    # Set-up is timed as a user meets it after the first call, with the
    # package's bytecode cached, so the first child must be able to write it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    proc = subprocess.run([sys.executable, str(HERE / "workload.py"), *script_args],
                          capture_output=True, text=True, env=env,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quantile(values: list, q: float) -> float:
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def timing(latencies_ns: list, failed: list) -> dict:
    """Throughput over all timed operations, latency over the completed ones."""
    failed = set(failed)
    done = [t for i, t in enumerate(latencies_ns) if i not in failed]
    return {"ops_per_s": len(done) / (sum(latencies_ns) / 1e9),
            "latency_p50_ms": quantile(done, 0.5) / 1e6,
            "latency_p90_ms": quantile(done, 0.9) / 1e6}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / "lericone" / "cli.py").is_file():
        print(f"error: no program to measure under {src}", file=sys.stderr)
        return 2
    reference.self_check()

    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    inputs = out_dir / f"{args.workload}-{args.seed}.jsonl"
    ops = gen.generate(args.workload, args.seed, args.seconds / LIST_SHARE)
    inputs.write_text("".join(json.dumps(op) + "\n" for op in ops))
    common = ["--src", str(src), "--input", str(inputs), "--workload", args.workload]

    child(common + ["--setup-only"])  # byte-compiles the package once, untimed
    if args.trace:
        stem = out_dir / f"trace-{args.workload}-{args.seed}"
        result = child(common + ["--trace-out", str(stem)])
        timed = timing(result["latencies_ns"], result["failed"])
        metrics = {**result["layers"], "cli.import_s": result["import_s"],
                   "trace.ops_per_s": timed["ops_per_s"], "trace.spans": result["spans"]}
        units = PER_LAYER
    else:
        setups = [child(common + ["--setup-only"])["setup_s"] for _ in range(SETUP_PROCESSES)]
        start = time.monotonic()
        result = child(common)
        setups += [child(common + ["--setup-only"])["setup_s"] for _ in range(SETUP_PROCESSES)]
        passes = [result]
        last = 0.0  # wall time of the latest pass, process start included
        while len(passes) < MIN_PASSES or (
                len(passes) < MAX_PASSES and time.monotonic() - start + last <= args.seconds):
            began = time.monotonic()
            passes.append(child(common + ["--no-check"]))
            last = time.monotonic() - began
        if any(p["failed"] != result["failed"] or p["output_bytes"] != result["output_bytes"]
               for p in passes):
            result["problems"].append("the passes differ in failed operations or output")
        typical = [statistics.median(times) for times in zip(*(p["latencies_ns"] for p in passes))]
        result["pass_s"] = [sum(p["latencies_ns"]) / 1e9 for p in passes]
        metrics = {**timing(typical, result["failed"]),
                   "setup_s": statistics.median(setups + [p["setup_s"] for p in passes]),
                   "peak_rss_mib": max(p["peak_rss_mib"] for p in passes),
                   "output_kib": result["output_bytes"] / 1024}
        units = END_TO_END

    (out_dir / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({k: v for k, v in dict(result, metrics=metrics).items()
                    if k != "latencies_ns"}, indent=1))
    for problem in result["problems"]:
        print(f"check failed: {problem}")
    for name, unit in units.items():
        print(f"{args.workload:>15}  {name:<36} {metrics[name]:>14.6g} {unit}")
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": len(result["latencies_ns"]),
        "failed": len(result["failed"]),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0

if __name__ == "__main__":
    sys.exit(main())

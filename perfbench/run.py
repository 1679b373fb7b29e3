"""Benchmark entry point: one workload per run, from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of certify_shrunk, sample_deep, build_export, tables, or ``all``
(every workload in turn, order rotated by the seed).  The library is run
from ``src`` in place; there is nothing to build.

A run starts one timed worker process (a fresh interpreter that sets up,
prepares, then repeats the workload's unit for S seconds) and a few set-up
probes (fresh interpreters that only set up), interleaved, so ``setup_s``
is a median of several set-ups.  Timings in the metrics are CPU seconds
(wall seconds for the jobs=2 certification) scaled to nominal machine speed
(see worker.py and speed.py).  The line before last is a record of the
run: environment, the workload's own stage timings and the failures seen.
The last line is the result: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with --trace 0, the per-layer ones with
--trace 1), each metric as ``{"value": ..., "unit": ...}``.

Exit status: 0 with a result; 2 without one (library not found, a worker
that crashed or timed out).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())  # metric names and units
WORKLOAD_NAMES = ("certify_shrunk", "sample_deep", "build_export", "tables")
SETUP_PROBES = 5  # set-up samples a run, from fresh processes around the timed worker
DEADLINE_S = 170.0  # a single-workload run must end within 180 s

class HarnessError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _worker(workload: str, seed: int, seconds: float, trace: int, scale: str,
            deadline: float, setup_only: bool = False) -> dict:
    """Run one worker process to completion and return its JSON object."""
    cmd = [sys.executable, str(HERE / "worker.py"), workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--scale", scale]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = str(seed % 2**32)  # set and dict order follow the seed too
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the worker and any pool it started
        proc.communicate()
        raise HarnessError(f"{workload} worker passed the run's deadline") from None
    if proc.returncode != 0:
        tail = err.strip().splitlines()[-1:] or ["no output"]
        raise HarnessError(f"{workload} worker exited {proc.returncode}: {tail[0]}")
    return json.loads(out.strip().splitlines()[-1])


def _p75(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=4)[2] if len(samples) > 1 else samples[0]


def stage_metrics(stages: dict[str, list[float]]) -> dict[str, dict]:
    """The workload's own stage timings, as medians (orig_s as p50 and p75,
    where p75 has at least ten samples beyond it once n >= 40)."""
    out = {}
    for stage, samples in sorted(stages.items()):
        if not samples:
            continue
        if stage == "orig_s":
            out["orig_p50_s"] = {"value": statistics.median(samples), "unit": "s", "n": len(samples)}
            out["orig_p75_s"] = {"value": _p75(samples), "unit": "s", "n": len(samples)}
        else:
            out[stage] = {"value": statistics.median(samples), "unit": "s", "n": len(samples)}
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: int, scale: str,
                 deadline: float) -> tuple[dict, dict]:
    """Set-up probes around one timed worker; returns (result, record)."""
    probe = lambda: _worker(workload, seed, seconds, trace, scale, deadline, setup_only=True)
    setups = [probe() for _ in range(SETUP_PROBES // 2)]
    main = _worker(workload, seed, seconds, trace, scale, deadline)
    setups += [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]

    attempted, failed = main["attempted"], main["failed"]
    if trace:
        values = main["layers"]
    else:
        # the workload's operation: the sum of its stages' median scaled times
        # (a stage that never ran because an earlier one failed shows in ok_ratio)
        op_s = sum(statistics.median(main["scaled"][stage])
                   for stage in main["op_stages"] if stage in main["scaled"])
        values = {"setup_s": statistics.median(s["setup_scaled_s"] for s in setups),
                  "op_s": op_s,
                  "peak_rss_mb": main["peak_rss_kb"] / 1024,
                  "ok_ratio": (attempted - failed) / attempted}
    units = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "scale": scale, "ops": attempted, "failed_ratio": failed / attempted,
        "units": main["units"], "setup_samples_s": [s["setup_s"] for s in setups],
        "setup_scaled_samples_s": [s["setup_scaled_s"] for s in setups],
        "import_s": main["import_s"], "prepare_s": main["prepare_s"],
        "stages": stage_metrics(main["stages"]), "errors": main["errors"],
    }
    if not trace:
        record["stages_scaled"] = stage_metrics(main["scaled"])
        record["speed_factor"] = main["speed_factor"]
    if trace:
        layers = main["layers"]
        certify = (layers["scheme.make_schedule_s"] + layers["verify.check_schedule_s"]
                   + layers["verify.certify_overhead_s"])
        if certify:
            record["certify_covered_by_schedule_and_check"] = (
                (layers["scheme.make_schedule_s"] + layers["verify.check_schedule_s"]) / certify)
        record["absent"] = main["absent"]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, record


def _git_commit() -> str | None:
    git_dir = ROOT / ".git"
    if not git_dir.exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, env={**os.environ, "GIT_DIR": str(git_dir)})
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(seed: int) -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {"commit": _git_commit(), "src_sha256": src.hexdigest(), "seed": seed,
            "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model()}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="broadcastnet benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny (t=7) instances, for the harness self-test")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "broadcastnet" / "__init__.py").is_file():
        print(f"error: library sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = monotonic()
    env = environment(args.seed)
    if args.workload != "all":
        names = [args.workload]
        deadline = start + DEADLINE_S
    else:
        shift = args.seed % len(WORKLOAD_NAMES)
        names = list(WORKLOAD_NAMES[shift:] + WORKLOAD_NAMES[:shift])
        deadline = start + DEADLINE_S * len(names)
    results = {}
    try:
        for name in names:
            result, record = run_workload(name, args.seed, args.seconds, args.trace,
                                          args.scale, deadline)
            print(json.dumps({"record": {**record, "env": env}}), flush=True)
            results[name] = (result, record)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.workload != "all":
        print(json.dumps(results[args.workload][0]))
        return 0
    # all workloads: one line with each workload's metrics, stage timings and
    # failed share, named "<workload>/<metric>"
    metrics = {}
    for name, (result, record) in results.items():
        named = {**result["metrics"],
                 **{stage: {"value": m["value"], "unit": m["unit"]}
                    for stage, m in record["stages"].items()},
                 "failed_ratio": {"value": record["failed_ratio"], "unit": "ratio"}}
        metrics.update({f"{name}/{metric}": m for metric, m in named.items()})
    print(json.dumps({
        "correct": all(r["correct"] for r, _ in results.values()),
        "attempted": sum(r["attempted"] for r, _ in results.values()),
        "failed": sum(r["failed"] for r, _ in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

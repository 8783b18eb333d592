#!/usr/bin/env python3
"""Benchmark of the ``feedopt`` command line on three workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {study,audit,envelopes} --seed N \\
        --seconds S --trace {0,1}

With ``--trace 0`` it reports the end-to-end metrics ``setup_s``,
``work_per_s`` and ``peak_rss_mb``; with ``--trace 1`` the per-layer
metrics of a traced run.  Either way it checks every output file, and the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The run pins itself and its child processes to
one CPU, and the end-to-end times are wall times corrected for that CPU's
speed at the time (reference seconds, see ``cpuprobe.py``).  Scratch files
go to ``.perfbench/`` in the checkout.  See ``perfbench/README.md`` for the
design.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import THREAD_VARS  # noqa: E402

for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import cpuprobe  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402

ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench"
# Fresh set-up-only processes, half before the worker and half after it, so
# that the set-up samples (the worker's own is one more) span the whole run
# rather than one phase of the host's speed.
SETUP_RUNS = 2
DEADLINE_S = 170.0     # the whole run, set-up runs and checks included


class BenchError(Exception):
    pass


def _spawn(args: list[str]) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )


def _await_ready(proc: subprocess.Popen, deadline: float) -> float:
    """Block until the process prints ``ready``; return when that happened
    (``time.perf_counter``)."""
    ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.perf_counter()))
    line = proc.stdout.readline() if ready else ""
    if line.strip() != "ready":
        raise BenchError("worker failed during set-up")
    return time.perf_counter()


def _finish(proc: subprocess.Popen, deadline: float) -> None:
    try:
        proc.wait(timeout=max(0.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker exceeded the run deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")


def _setup_run(common, deadline) -> tuple[float, float]:
    """One fresh set-up-only process; returns its set-up interval."""
    t0 = time.perf_counter()
    proc = _spawn([*common, "--setup-only"])
    try:
        ready = _await_ready(proc, deadline)
        _finish(proc, deadline)
    finally:
        _stop(proc)
    return t0, ready


def _run_worker(workload, run_dir, seconds, trace, deadline) -> tuple[list[tuple[float, float]], dict]:
    """The worker, between set-up-only runs (untraced runs only); returns the
    set-up intervals and the worker's result."""
    common = ["--workload", workload, "--run-dir", str(run_dir)]
    n_setup = 0 if trace else SETUP_RUNS // 2
    setups = [_setup_run(common, deadline) for _ in range(n_setup)]
    t0 = time.perf_counter()
    proc = _spawn([*common, "--seconds", str(seconds), "--trace", str(trace)])
    try:
        setups.append((t0, _await_ready(proc, deadline)))
        _finish(proc, deadline)
    finally:
        _stop(proc)
    setups += [_setup_run(common, deadline) for _ in range(n_setup)]
    return setups, json.loads((run_dir / "worker.json").read_text())


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def _digest(directory: Path) -> dict:
    return {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(directory.iterdir()) if f.is_file()
    }


def _envelope_instance(run_dir: Path) -> dict:
    """The envelopes' instance, written by ``feedopt run-scenario`` on the same
    scenario config (a one-run study), outside the timed blocks."""
    sys.path.insert(0, str(ROOT / "src"))
    from feedopt import cli

    inst_dir = run_dir / "instance"
    config = run_dir / "instance.ini"
    config.write_text(workloads.envelope_instance_ini())
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["run-scenario", "--config", str(config), "--out", str(inst_dir), "--jobs", "1"])
    if rc != 0:
        raise BenchError(f"run-scenario for the envelopes' instance exited with code {rc}")
    import checks

    return checks.load_instance(inst_dir / "scenario_instance.json")


def _check_blocks(workload: str, blocks: list[dict], run_dir: Path) -> list[tuple[str, list[str]]]:
    """Check every block's files.  A block that repeats an earlier block's seed
    must reproduce its files byte for byte and inherits its check results."""
    import checks

    if workload == "study":
        check = checks.check_study
    elif workload == "audit":
        check = checks.check_audit
    else:
        check = checks.EnvelopeChecker(_envelope_instance(run_dir))
    n_ops = workloads.ops_per_block(workload)
    first: dict[int, tuple[dict, list]] = {}
    ops = []
    for blk in blocks:
        out = Path(blk["dir"])
        digest = _digest(out) if out.is_dir() else {}
        if blk["seed"] in first:
            ref_digest, ref_results = first[blk["seed"]]
            same = digest == ref_digest and blk["rc"] == 0
            ops += [(n, f if same else ["not byte-identical to an earlier block with the same config"])
                    for n, f in ref_results]
            continue
        try:
            results = check(out)
        except (OSError, ValueError, IndexError, KeyError, RuntimeError) as exc:
            results = [(f"block {out.name}", [f"unreadable output: {type(exc).__name__}: {exc}"])] * n_ops
        if blk["rc"] != 0:
            results = [(n, [f"exit code {blk['rc']}", *f]) for n, f in results]
        first[blk["seed"]] = (digest, results)
        ops += results
    return ops


def _plan(workload: str, seed: int, run_dir: Path) -> None:
    make_ini = workloads.WORKLOADS[workload][1]
    blocks = []
    for s in workloads.block_seeds(workload, seed):
        path = run_dir / f"config_{s}.ini"
        path.write_text(make_ini(s))
        blocks.append({"seed": s, "config": str(path)})
    setup = run_dir / "setup.ini"
    setup.write_text(workloads.setup_ini(workload, blocks[0]["seed"]))
    (run_dir / "plan.json").write_text(json.dumps({"blocks": blocks, "setup_config": str(setup)}))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S
    if not (ROOT / "src" / "feedopt" / "cli.py").is_file():
        print(f"error: no feedopt package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run_dir = SCRATCH / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    _plan(args.workload, args.seed, run_dir)
    cpuprobe.pin_to_one_cpu()
    try:
        with cpuprobe.SpeedProbe() as probe:
            setups, result = _run_worker(args.workload, run_dir, args.seconds, args.trace, deadline)
        blocks = result["blocks"]
        setup_s = [probe.ref_seconds(t0, t1) for t0, t1 in setups]
        for blk in blocks:
            blk["ref_seconds"] = probe.ref_seconds(blk["t0"], blk["t1"])
        ops = _check_blocks(args.workload, blocks, run_dir)
    except (BenchError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for blk in blocks:
        shutil.rmtree(blk["dir"], ignore_errors=True)
    shutil.rmtree(run_dir / "instance", ignore_errors=True)
    shutil.rmtree(run_dir / "setup", ignore_errors=True)

    import checks

    failed = [(n, f) for n, f in ops if f]
    correct = all(checks.is_known_fault(n, f) for n, f in failed)
    for name, fails in dict(failed).items():
        print(f"FAILED {name}: {'; '.join(fails)}")

    _, _, work, unit_of_work = workloads.WORKLOADS[args.workload]
    print(f"workload {args.workload}: {len(blocks)} blocks of {work} x {unit_of_work}")
    print(f"block wall seconds {[round(b['t1'] - b['t0'], 3) for b in blocks]}, "
          f"reference seconds {[round(b['ref_seconds'], 3) for b in blocks]}")
    print(f"set-up wall seconds {[round(t1 - t0, 3) for t0, t1 in setups]}, "
          f"reference seconds {[round(s, 3) for s in setup_s]}")
    if args.trace:
        layers = result["layers"]
        plain = [work / b["ref_seconds"] for b in blocks if not b["traced"]]
        traced = [work / b["ref_seconds"] for b in blocks if b["traced"]]
        overhead = 100.0 * (1.0 - statistics.median(traced) / statistics.median(plain)) if traced else 0.0
        metrics = {
            name: {"value": layers["values"][name], "unit": unit}
            for name, (unit, _span) in LAYER_METRICS.items()
        }
        metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
        for name, status in layers["status"].items():
            if status != "measured":
                print(f"layer {name}: {status}")
        print(f"spans written to {run_dir / 'spans.jsonl'}")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "work_per_s": {"value": statistics.median(work / b["ref_seconds"] for b in blocks), "unit": "1/s"},
            "peak_rss_mb": {"value": result["peak_rss_kb"] * 1024 / 1e6, "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"operations: {len(ops)} attempted, {len(failed)} failed")
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One fresh benchmark process: set-up, then timed CLI blocks.

Started by ``run.py``; it is not meant to be run by hand.  The process pins
the BLAS and OpenMP thread pools to one thread before NumPy is imported,
imports ``feedopt.cli`` from ``src/`` and makes the set-up call: a
``bound-curve`` call on the first block's instance with the shortest
envelope (``workloads.setup_ini``), which loads the config and builds the
instance and its oracle.  Then it prints ``ready`` on stdout.  With
``--setup-only`` it stops there.  Otherwise it calls ``feedopt.cli.main``
once per block, with ``--jobs 1``, until ``--seconds`` have passed, and
writes ``worker.json`` (and, when traced, ``spans.jsonl``) into the run
directory.
"""

from __future__ import annotations

import os

from workloads import THREAD_VARS

for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--run-dir", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    run_dir = Path(args.run_dir)
    plan = json.loads((run_dir / "plan.json").read_text())

    sys.path.insert(0, str(ROOT / "src"))
    from feedopt import cli

    setup_argv = ["bound-curve", "--config", plan["setup_config"], "--out", str(run_dir / "setup"),
                  "--jobs", "1", "--overwrite"]
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(setup_argv)
    if rc != 0:
        print(f"set-up call exited with code {rc}", file=sys.stderr)
        return 1
    print("ready", flush=True)
    if args.setup_only:
        return 0

    command = workloads.WORKLOADS[args.workload][0]
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer(args.workload)
    blocks = []
    start = time.perf_counter()
    while True:
        b = len(blocks)
        spec = plan["blocks"][b % len(plan["blocks"])]
        out = run_dir / f"block{b:03d}"
        argv = [command, "--config", spec["config"], "--out", str(out), "--jobs", "1"]
        # in a traced run, odd blocks are traced and even ones give the untraced rate
        traced = tracer is not None and b % 2 == 1
        gc.collect()
        captured = io.StringIO()
        if traced:
            tracer.install()
            root = tracer.begin_block(b)
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(captured):
            rc = cli.main(argv)
        t1 = time.perf_counter()
        if traced:
            tracer.end_block(root)
            tracer.uninstall()
        blocks.append({
            "seed": spec["seed"], "dir": str(out), "rc": rc, "t0": t0, "t1": t1,
            "traced": traced, "stdout": captured.getvalue(),
        })
        if rc != 0:
            break
        done = time.perf_counter() - start >= args.seconds
        if done and (tracer is None or len(blocks) % 2 == 0):
            break

    result = {
        "blocks": blocks,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        n_traced = sum(1 for blk in blocks if blk["traced"])
        values, status = tracing.layer_metrics(tracer, n_traced)
        result["layers"] = {"values": values, "status": status, "absent": tracer.absent}
        tracer.write_jsonl(run_dir / "spans.jsonl")
    (run_dir / "worker.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

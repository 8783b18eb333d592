"""Span tracer for the traced benchmark run.

The tracer wraps public functions of ``feedopt`` from outside the program
(module and class attributes are replaced while a traced block runs and
restored afterwards).  Every wrapped call of a layer records a span: name,
start, end, parent span, workload and block.  Calls made several times per
simulated step (``ErrorSampler.sample``, ``estimate_U_gradient``) are folded
into the innermost open span as a call count and a total time, which keeps
the trace small; self time subtracts them like child spans.  Spans stay in
memory and are written as JSON lines when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import time

# (module, attribute path, folded)
CALLS = (
    ("feedopt.cli", "load_config", False),
    ("feedopt.scenario", "build_scenario", False),
    ("feedopt.problem", "TimeVaryingProblem.optimal_points", False),
    ("feedopt.algorithm", "run", False),
    ("feedopt.algorithm", "Trajectory.to_csv", False),
    ("feedopt.gplearn", "GPPosterior.add_observation", False),
    ("feedopt.validation", "run_trials", False),
    ("feedopt.validation", "validate_moment_identity", False),
    ("feedopt.validation", "validate_sampler_declarations", False),
    ("feedopt.validation", "validate_closure_ops", False),
    ("feedopt.bounds", "bound_inputs_from_problem", False),
    ("feedopt.bounds", "expectation_bound", False),
    ("feedopt.bounds", "expectation_bound_asymptotic", False),
    ("feedopt.bounds", "hp_bound_trajectory", False),
    ("feedopt.bounds", "BoundCurve.to_csv", False),
    ("feedopt.scenario", "ExperimentResult.to_csv", False),
    ("feedopt.subweibull", "ErrorSampler.sample", True),
    ("feedopt.gplearn", "estimate_U_gradient", True),
)

ROOT_SPAN = "cli.main"


def span_name(module: str, attr: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{attr}"


def _run_attrs(bound, result):
    return {"steps": int(result.n_steps), "gp": bound.arguments.get("input_grad") is not None}


def _run_trials_attrs(bound, result):
    return {"trial_steps": int(result.shape[0]) * (int(result.shape[1]) - 1)}


def _csv_attrs(bound, result):
    return {"bytes": os.path.getsize(bound.arguments["path"])}


# span name -> function(bound arguments, result) -> attributes to record
ANNOTATE = {
    "algorithm.run": _run_attrs,
    "validation.run_trials": _run_trials_attrs,
    "algorithm.Trajectory.to_csv": _csv_attrs,
}


class Tracer:
    """Records spans around the calls in :data:`CALLS` while installed."""

    def __init__(self, workload: str):
        self.workload = workload
        self.origin = time.perf_counter_ns()
        # each span: [name, start_ns, end_ns, parent index, block, folded, attrs]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._folded_top: dict | None = None
        self.block = -1
        self._patches = []
        self.absent: list[str] = []
        for module, attr, folded in CALLS:
            owner, leaf = self._resolve(module, attr)
            if owner is None:
                self.absent.append(span_name(module, attr))
                continue
            original = owner.__dict__[leaf]
            name = span_name(module, attr)
            wrap = self._fold(name, original) if folded else self._span(name, original)
            self._patches.append((owner, leaf, original, wrap))

    @staticmethod
    def _resolve(module: str, attr: str):
        try:
            owner = importlib.import_module(module)
        except ImportError:
            return None, None
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return None, None
        if leaf not in getattr(owner, "__dict__", {}):
            return None, None
        return owner, leaf

    def install(self) -> None:
        for owner, leaf, _, wrap in self._patches:
            setattr(owner, leaf, wrap)

    def uninstall(self) -> None:
        for owner, leaf, original, _ in self._patches:
            setattr(owner, leaf, original)

    # -- spans -------------------------------------------------------------------

    def _push(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        folded: dict = {}
        self.spans.append([name, time.perf_counter_ns(), None, parent, self.block, folded, None])
        index = len(self.spans) - 1
        self._stack.append(index)
        self._folded_top = folded
        return index

    def _pop(self, index: int, attrs=None) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter_ns()
        span[6] = attrs
        self._stack.pop()
        self._folded_top = self.spans[self._stack[-1]][5] if self._stack else None

    def begin_block(self, block: int) -> int:
        self.block = block
        return self._push(ROOT_SPAN)

    def end_block(self, index: int) -> None:
        self._pop(index)

    def _span(self, name: str, fn):
        annotate = ANNOTATE.get(name)
        signature = inspect.signature(fn) if annotate else None
        tracer = self

        def wrapper(*args, **kwargs):
            index = tracer._push(name)
            attrs = None
            try:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    attrs = annotate(signature.bind(*args, **kwargs), result)
                return result
            finally:
                tracer._pop(index, attrs)

        return wrapper

    def _fold(self, name: str, fn):
        tracer = self
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            elapsed = clock() - start
            top = tracer._folded_top
            if top is not None:
                acc = top.get(name)
                if acc is None:
                    top[name] = [1, elapsed]
                else:
                    acc[0] += 1
                    acc[1] += elapsed
            return result

        return wrapper

    # -- results -------------------------------------------------------------------

    def self_times_ns(self) -> list[int]:
        """Each span's duration minus its child spans and folded calls."""
        self_ns = [s[2] - s[1] - sum(acc[1] for acc in s[5].values()) for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                self_ns[s[3]] -= s[2] - s[1]
        return self_ns

    def write_jsonl(self, path) -> None:
        self_ns = self.self_times_ns()
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, block, folded, attrs) in enumerate(self.spans):
                row = {
                    "id": i, "name": name, "parent": parent,
                    "workload": self.workload, "block": block,
                    "start_s": (start - self.origin) / 1e9, "end_s": (end - self.origin) / 1e9,
                    "self_s": self_ns[i] / 1e9,
                }
                if folded:
                    row["folded"] = {k: {"calls": c, "s": ns / 1e9} for k, (c, ns) in folded.items()}
                if attrs:
                    row["attrs"] = attrs
                fh.write(json.dumps(row) + "\n")


# per-layer metric -> (unit, span it reads)
LAYER_METRICS = {
    "config.load_s": ("s", "cli.load_config"),
    "scenario.build_s": ("s", "scenario.build_scenario"),
    "problem.oracle_s": ("s", "problem.TimeVaryingProblem.optimal_points"),
    "algorithm.exact_step_us": ("us", "algorithm.run"),
    "algorithm.gp_step_us": ("us", "algorithm.run"),
    "algorithm.run_calls": ("count", "algorithm.run"),
    "algorithm.csv_s": ("s", "algorithm.Trajectory.to_csv"),
    "algorithm.csv_mb": ("MB", "algorithm.Trajectory.to_csv"),
    "subweibull.sample_calls_per_step": ("count", "subweibull.ErrorSampler.sample"),
    "subweibull.sample_us": ("us", "subweibull.ErrorSampler.sample"),
    "gplearn.grad_us": ("us", "gplearn.estimate_U_gradient"),
    "gplearn.refit_us": ("us", "gplearn.GPPosterior.add_observation"),
    "validation.trial_step_us": ("us", "validation.run_trials"),
    "validation.moment_check_s": ("s", "validation.validate_moment_identity"),
    "validation.sampler_check_s": ("s", "validation.validate_sampler_declarations"),
    "validation.closure_check_s": ("s", "validation.validate_closure_ops"),
    "bounds.inputs_s": ("s", "bounds.bound_inputs_from_problem"),
    "bounds.expectation_s": ("s", "bounds.expectation_bound"),
    "bounds.asymptotic_s": ("s", "bounds.expectation_bound_asymptotic"),
    "bounds.hp_s": ("s", "bounds.hp_bound_trajectory"),
    "bounds.csv_s": ("s", "bounds.BoundCurve.to_csv"),
    "scenario.summary_csv_s": ("s", "scenario.ExperimentResult.to_csv"),
}


def layer_metrics(tracer: Tracer, n_blocks: int) -> tuple[dict, dict]:
    """Per-layer values over ``n_blocks`` traced blocks, and each metric's
    status: ``measured``, ``not called`` (the value is 0) or ``absent`` (the
    public function no longer exists; the value is 0)."""
    self_ns = tracer.self_times_ns()
    calls: dict[str, list] = {}   # span name -> [count, duration ns]
    run = {"exact": [0, 0, 0], "gp": [0, 0, 0]}  # mode -> [steps, duration ns, self ns]
    sample_in_run = [0, 0]
    grad = [0, 0]
    trial = [0, 0]
    csv_bytes = 0
    for i, (name, start, end, _parent, _block, folded, attrs) in enumerate(tracer.spans):
        acc = calls.setdefault(name, [0, 0])
        acc[0] += 1
        acc[1] += end - start
        # attrs is None when the call raised
        if name == "algorithm.run" and attrs:
            mode = run["gp" if attrs["gp"] else "exact"]
            mode[0] += attrs["steps"]
            mode[1] += end - start
            mode[2] += self_ns[i]
            c, ns = folded.get("subweibull.ErrorSampler.sample", (0, 0))
            sample_in_run[0] += c
            sample_in_run[1] += ns
        elif name == "validation.run_trials" and attrs:
            trial[0] += attrs["trial_steps"]
            trial[1] += end - start
        elif name == "algorithm.Trajectory.to_csv" and attrs:
            csv_bytes += attrs["bytes"]
        c, ns = folded.get("gplearn.estimate_U_gradient", (0, 0))
        grad[0] += c
        grad[1] += ns

    def ratio(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    def mean_s(span):
        count, ns = calls.get(span, (0, 0))
        return ratio(ns, count, 1e-9)

    steps = run["exact"][0] + run["gp"][0]
    n_csv = calls.get("algorithm.Trajectory.to_csv", (0, 0))[0]
    values = {
        "config.load_s": mean_s("cli.load_config"),
        "scenario.build_s": mean_s("scenario.build_scenario"),
        "problem.oracle_s": ratio(calls.get("problem.TimeVaryingProblem.optimal_points", (0, 0))[1], n_blocks, 1e-9),
        "algorithm.exact_step_us": ratio(run["exact"][1], run["exact"][0], 1e-3),
        "algorithm.gp_step_us": ratio(run["gp"][2], run["gp"][0], 1e-3),
        "algorithm.run_calls": ratio(calls.get("algorithm.run", (0, 0))[0], n_blocks),
        "algorithm.csv_s": mean_s("algorithm.Trajectory.to_csv"),
        "algorithm.csv_mb": ratio(csv_bytes, n_csv, 1e-6),
        "subweibull.sample_calls_per_step": ratio(sample_in_run[0], steps),
        "subweibull.sample_us": ratio(sample_in_run[1], sample_in_run[0], 1e-3),
        "gplearn.grad_us": ratio(grad[1], grad[0], 1e-3),
        "gplearn.refit_us": mean_s("gplearn.GPPosterior.add_observation") * 1e6,
        "validation.trial_step_us": ratio(trial[1], trial[0], 1e-3),
    }
    for metric, (_unit, span) in LAYER_METRICS.items():
        if metric not in values:
            values[metric] = mean_s(span)
    status = {}
    for metric, (_unit, span) in LAYER_METRICS.items():
        if span in tracer.absent:
            status[metric] = "absent"
        elif values[metric] == 0:
            status[metric] = "not called"
        else:
            status[metric] = "measured"
    return values, status

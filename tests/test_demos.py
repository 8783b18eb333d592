"""The narrated demos under ``demos/`` run end to end on the current API."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_learned_cost_gradient_demo():
    out = run_demo("learned_cost_gradient.py")
    rows = re.findall(r"^\s+(\d+)\s+([\d.]+)\s+([\d.]+)$", out, flags=re.M)
    assert [int(n) for n, _, _ in rows] == list(range(0, 49, 8))
    # the prior's variance to start with, then the posterior tightens
    assert float(rows[0][2]) == 25.0 and float(rows[-1][2]) < 0.01
    dev = float(re.search(r"max deviation (\S+)", out).group(1))
    assert dev < 1e-6


def test_demand_response_study_demo():
    out = run_demo("demand_response_study.py", "--horizon", "360", "--experiments", "1")
    assert "horizon 360, switches at (120, 240), 1 experiments" in out
    plateaus = re.findall(r"^\s+([\d.]+)\s+([\d.]+)\s+([\d.]+)$", out, flags=re.M)
    assert [p for p, _, _ in plateaus] == ["0.4", "0.6", "0.8", "1"]
    assert len(re.findall(r"^\s+(exact|gp) @ t=\d+: ", out, flags=re.M)) == 4


def test_tracking_envelopes_demo():
    out = run_demo("tracking_envelopes.py", "--trials", "50")
    assert "instance: 6 inputs, availability p=0.7, T=500" in out
    rows = re.findall(r"^\s*(\d+)" + r"\s+([\d.]+)" * 5 + "$", out, flags=re.M)
    assert [int(r[0]) for r in rows] == [1, 10, 50, 150, 300, 500]
    for _, mean, upper, _, q90, hp in rows:
        assert float(mean) <= float(upper)
        assert float(q90) <= float(hp)
    exceed = re.search(
        r"^final-step exceedance of the hp envelope: ([\d.]+) \(allowed 0\.1\)$", out, flags=re.M
    )
    assert exceed is not None and 0.0 <= float(exceed.group(1)) <= 1.0

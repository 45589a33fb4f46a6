"""Smoke test of the benchmark: each workload at its tiny size, untraced
and traced, plus the tracer's hook handling and the speed probe.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run_benchmark(workload: str, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1729",
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, table", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_reported_with_its_unit(workload, trace, table):
    result, stdout = run_benchmark(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert "\nfail_ratio = 0 fraction" in stdout
    expected = {m["name"]: m["unit"] for m in BENCHMARK[table]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    if table == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tracer_patches_every_binding_and_records_absent_hooks():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import tracer as tracing
    from gridepi import cli, dynamics, harness, planner, scenario  # noqa: F401 (hooked)
    from gridepi.assets import asset_path

    original = dynamics.step_inplace
    original_census = dynamics.census
    hooks = tracing.HOOKS + (
        ("planner", "no_such_function", "planner.no_such_function"),
        ("planner", "census", "planner.census"),  # defined in dynamics
    )
    tracer = tracing.Tracer(hooks=hooks)
    tracer.install()
    try:
        assert planner.step_inplace is dynamics.step_inplace is not original
        assert tracer.absent == ["planner.no_such_function"]
        assert dynamics.census is not original_census
        validated = scenario.validate(scenario.load_scenario(asset_path("small_space.scn")))
        settings = scenario.PlannerSettings(rounds=1, horizon=3)
        planner.run_episode(validated, settings, "random", 0)
        assert tracer.stats["dynamics.step_inplace"].calls == 3
        assert tracer.stats["planner.apply_action_inplace"].calls == 3
        assert tracer.stats["planner.no_such_function"].calls == 0
    finally:
        tracer.uninstall()
    assert planner.step_inplace is dynamics.step_inplace is original
    assert dynamics.census is original_census
    wrappers = {id(w) for w, _ in tracer._wrappers.values()}
    for module in (dynamics, planner):
        assert not any(id(value) in wrappers for value in vars(module).values())


def test_speed_probe_scales_each_stretch_by_the_probe_that_ends_it():
    sys.path.insert(0, str(HERE))
    import speed

    probe = speed.SpeedProbe()
    ref = speed.REFERENCE_S
    probe.starts, probe.ends, probe.cpu_s = [1.0, 2.0, 3.0], [1.1, 2.1, 3.1], [ref, 2 * ref, ref]
    # 0.5 s at full speed, 0.9 s at half speed, then 0.4 s priced by the
    # probe at 3.0; the probes' own time is left out
    assert probe.scaled(0.5, 2.5) == pytest.approx(0.5 + 0.45 + 0.4)
    # an interval without a probe inside takes the next probe's speed
    assert probe.scaled(1.2, 1.6) == pytest.approx(0.2)


def test_speed_probe_samples_while_running_and_restores_the_handler():
    sys.path.insert(0, str(HERE))
    import speed

    previous = signal.getsignal(signal.SIGALRM)
    probe = speed.SpeedProbe()
    probe.start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 0.1:
        pass
    probe.stop()
    assert len(probe.cpu_s) >= 3
    assert signal.getsignal(signal.SIGALRM) == previous
    assert probe.scaled(t0, t0 + 0.1) > 0

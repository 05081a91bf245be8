"""Smoke test of the benchmark itself, at minimal size (about a minute).

    python3 perfbench/smoke.py

Checks, for every workload shrunk to its minimum repeat counts:

* an untimed and a traced run emit every metric ``BENCHMARK.json`` names,
  with the unit it names, as finite numbers;
* the result digests repeat across two runs with the same seed;
* a deliberately perturbed campaign or sweep result trips the digest check.

Exits 0 when every check passes.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import ROOT, bench_env  # noqa: E402

# the same host set-up as run.py, applied before numpy is imported
os.environ.update(bench_env())
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402

#: per-workload overrides that make one run take a few seconds
TINY = {
    "resnet18-bfp-neuron": dict(injections=1, sweep_images=16),
    "cnn-fp16-parallel": dict(injections=4, sweep_images=16),
    "deit-format-sweep": dict(sweep_images=16),
}


def declared() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return e2e, layer


def check_metrics(report: dict, expected: dict, what: str) -> None:
    got = report["metrics"]
    if set(got) != set(expected):
        raise AssertionError(f"{what}: metrics {sorted(set(got) ^ set(expected))} "
                             "missing or undeclared")
    for name, value in got.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise AssertionError(f"{what}: {name} = {value!r}")


def check_perturbation(report: dict, units) -> None:
    campaign = units[0].result
    bad = copy.deepcopy(campaign)
    layer = next(iter(bad.per_layer.values()))
    layer.delta_losses[0] = float(layer.delta_losses[0]) + 1e-6
    tripped = 0
    try:
        bench.check_equal("perturbed campaign", bench.campaign_vector(campaign),
                          bench.campaign_vector(bad))
    except bench.GateError:
        tripped += 1
    if bench.digest(bench.campaign_vector(bad)) == report["digests"]["campaign"]:
        raise AssertionError("perturbed campaign kept its digest")
    accs = {"fp32": 0.5, "fp16": 0.5}
    try:
        bench.check_equal("perturbed sweep", accs, {**accs, "fp16": 0.505})
    except bench.GateError:
        tripped += 1
    if tripped != 2:
        raise AssertionError("a perturbed result passed the digest check")


def main() -> int:
    e2e, layer = declared()
    if e2e != bench.END_TO_END_UNITS or layer != bench.PER_LAYER_UNITS:
        raise AssertionError("BENCHMARK.json and bench.py name different "
                             "metrics or units")
    bench.warm()
    for name, overrides in TINY.items():
        workload = dataclasses.replace(bench.WORKLOADS[name], **overrides)
        digests = []
        for trace in (False, True):
            runner = bench.Bench(workload, seed=3, seconds=0.0, trace=trace)
            report = runner.run()
            check_metrics(report, layer if trace else e2e,
                          f"{name} trace={int(trace)}")
            digests.append(report["digests"])
        if digests[0] != digests[1]:
            raise AssertionError(f"{name}: digests differ across runs "
                                 f"{digests}")
        check_perturbation(report, runner.campaign_units)
        print(f"ok {name} {digests[0]}")
    print("smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

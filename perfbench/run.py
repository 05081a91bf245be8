"""Entry point of the GoldenEye benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The benchmark uses the checkout's own
``src/repro`` (never an installed copy) and refuses to run without it.

Before any numpy import it fixes the host set-up every run shares: the BLAS
and OpenMP thread count (at most ``nproc``), a weight cache owned by the
benchmark (``perfbench/.cache`` through ``REPRO_CACHE_DIR``) and no
campaign ledger from the environment.  It then runs two child processes:

1. ``bench.py --warm`` trains the zoo models on a cold cache (minutes, once
   per checkout) or loads them, so training never lands in a timed region;
2. ``bench.py --workload ...`` measures, checks correctness and prints the
   result; its last stdout line is the result object.

Measuring in a fresh process keeps the warm-up's memory out of
``peak_rss_mb``.  The exit code is the measuring process's.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: BLAS threads per process.  One: the GEMMs here are small, and an idle
#: multi-threaded OpenBLAS pool in the parent keeps spinning on the cores the
#: campaign's worker pool needs (measured on 2 cores: 65 inj/s with two
#: threads against 114 inj/s with one on cnn-fp16-parallel).
MAX_BLAS_THREADS = 1

WARM_TIMEOUT_S = 840
MEASURE_TIMEOUT_S = 170


def bench_env() -> dict[str, str]:
    threads = str(max(1, min(os.cpu_count() or 1, MAX_BLAS_THREADS)))
    env = dict(os.environ)
    env.pop("REPRO_LEDGER", None)
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        "REPRO_CACHE_DIR": str(HERE / ".cache"),
        "OPENBLAS_NUM_THREADS": threads,
        "OMP_NUM_THREADS": threads,
        "MKL_NUM_THREADS": threads,
        "PYTHONHASHSEED": "0",
    })
    return env


def main(argv: list[str]) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    if "--workload" not in argv:
        print("perfbench: --workload is required", file=sys.stderr)
        return 2
    env = bench_env()
    bench = [sys.executable, str(HERE / "bench.py")]
    try:
        warm = subprocess.run(bench + ["--warm"], env=env, cwd=ROOT,
                              stdout=subprocess.DEVNULL,
                              timeout=WARM_TIMEOUT_S)
        if warm.returncode != 0:
            print("perfbench: model warm-up failed", file=sys.stderr)
            return warm.returncode or 1
        return subprocess.run(bench + argv, env=env, cwd=ROOT,
                              timeout=MEASURE_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

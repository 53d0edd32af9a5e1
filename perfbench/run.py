"""Benchmark entry point.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 25 --trace 0

Runs one workload from ``BENCHMARK.json`` against the sources under
``src/`` of the checkout this file sits in, for ``--seconds`` of host
time.  Times are scaled to a reference host (``calibrate.py``).
Prints a provenance line, a readable metric table, and as the
last line the result object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end with ``--trace 0``, per-layer with
``--trace 1``).  Exits 2 without a result when the sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    with open(os.path.join(HERE, "spec.json"), "r", encoding="utf-8") as handle:
        default_seed = json.load(handle)["default_seed"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=default_seed)
    parser.add_argument("--seconds", type=float, default=25.0)  # run_seconds
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [src, HERE]
    import bench  # after the path set-up: it imports repro from src/

    if args.workload not in bench.workloads.WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; choose from "
            f"{sorted(bench.workloads.WORKLOADS)}"
        )
    scratch_root = os.path.join(ROOT, ".perfbench_tmp")
    scratch = os.path.join(scratch_root, str(os.getpid()))
    try:
        out = bench.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), scratch
        )
    finally:
        # The fleet supervisor starts multiprocessing's resource tracker,
        # which would outlive this process briefly; stop it and wait.
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(scratch_root)
        except OSError:
            pass  # another run still uses it
    result, provenance = out["result"], out["provenance"]
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    print(
        "times are scaled to the reference host: calibration kernel "
        f"{provenance['calibration_ns'] / 1e3:.0f} us here, "
        f"{provenance['reference_calibration_ns'] / 1e3:.0f} us there"
    )
    for name, metric in result["metrics"].items():
        print(f"{name:28s} {metric['value']:16.6f} {metric['unit']}")
    print(
        f"{'error_frac':28s} {result['failed'] / result['attempted']:16.6f} "
        f"({result['failed']} of {result['attempted']} operations failed)"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fewshot-desk --seed 1 --seconds 30 --trace 0

Run from the repository root: lsner is imported from ``src/`` next to this
directory. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; with ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones. The
lines before it record the machine and each timing's sample count, median
and tail percentile. The exit code is 0 only when every check passed.
"""

import os

# BLAS must see its thread count before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".bench_work"
TRACE_DIR = ROOT / ".bench_out"


def machine():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = blas.get("openblas configuration") or f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "loadavg": list(os.getloadavg()),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.strip(), "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lsner" / "__init__.py").is_file():
        print(f"error: no lsner sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")

    print("machine " + json.dumps(machine()), flush=True)
    workdir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    trace_path = None
    if args.trace:
        TRACE_DIR.mkdir(exist_ok=True)
        trace_path = TRACE_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
    try:
        result, run = workloads.run_workload(args.workload, args.seed, args.seconds,
                                             args.trace, workdir, trace_path=trace_path)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()  # only when no other run is using it

    for metric, (n, median, p, tail, raw) in run.distributions().items():
        tail_text = f"p{p:g}={tail:.6g}" if p is not None else "no tail (n<20)"
        print(f"samples {metric}: n={n} median={median:.6g} {tail_text} raw_median={raw:.6g}")
    for name, (runs, fails) in run.checks.items():
        print(f"check {name}: {runs - fails}/{runs} passed")
    for key, value in run.info.items():
        print(f"info {key}={value}")
    for metric, m in result["metrics"].items():
        print(f"metric {metric} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

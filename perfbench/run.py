"""Benchmark of the irsmimo Monte Carlo link simulator.

Run from the repository root:

    python3 perfbench/run.py --workload rate-n32 --seed 1 --seconds 30 --trace 0

Workloads: rate-n32, rate-n64 and tables (see workloads.py). With `--trace 0`
the last stdout line is a JSON object with the end-to-end metrics; with
`--trace 1` it holds the per-layer metrics of a traced run, and a table of
every span goes to stderr. The line before it records the run details and
the environment. The program is imported from `src/` next to this directory;
without it the benchmark exits with code 2 and prints no result.
"""

import os

BLAS_THREADS = 1
# Pinned before numpy loads, so BLAS starts no threads beyond this one.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def blas_version() -> str:
    import numpy

    try:  # `mode=` is new in numpy 1.25
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version(),
        "blas_threads": BLAS_THREADS,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not os.path.isfile(os.path.join(SRC, "irsmimo", "__init__.py")):
        print(f"error: no irsmimo package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import irsmimo
    if os.path.dirname(os.path.dirname(os.path.abspath(irsmimo.__file__))) != SRC:
        print(f"error: irsmimo was imported from {irsmimo.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    result, details = workloads.measure(workloads.WORKLOADS[args.workload](),
                                        args.seed, args.seconds,
                                        bool(args.trace))
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace,
                      **details, "environment": environment()}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

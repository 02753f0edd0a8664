"""prelab benchmark: one workload, one process, one closed loop.

    python3 perfbench/run.py --workload train-paper --seed 0 --seconds 25 --trace 0

Run from the repository root. The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}: with --trace 0 the metrics are
the end-to-end ones in BENCHMARK.json (tracing off), with --trace 1 the
per-layer ones. The lines before it give every metric by name and unit, the
correctness checks and the environment. The full record (and, traced, the
spans) goes to .perfbench-out/ under the repository root. See
perfbench/README.md.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, so BLAS starts single-threaded.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "PRELAB_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
sys.path.insert(0, str(HERE))


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")
    except TypeError:  # numpy older than 1.26 prints instead
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny model and data, for the smoke test only")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "prelab" / "__init__.py").is_file():
        print(f"error: no prelab sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import numpy  # noqa: F401 - loaded before set-up, which times prelab alone
    import scipy.special  # noqa: F401
    from workloads import make_workload

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    reference = json.loads((HERE / "reference.json").read_text())
    try:
        wl = make_workload(args.workload, args.seed, args.tiny, SRC, work)
        outcome = wl.run(args.seconds, bool(args.trace), reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment()
    checks_ok = all(ok is not False for ok, _ in outcome.checks.values())
    correct = checks_ok and outcome.failed == 0
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}{' tiny' if args.tiny else ''}")
    print("sizes " + json.dumps(outcome.record["sizes"], sort_keys=True))
    print("env " + json.dumps({k: v for k, v in env.items() if k != "blas"}, sort_keys=True))
    for name, value, unit, note in outcome.table:
        print(f"metric {name} {value:.6g} {unit}  ({note})")
    print(f"metric fail_frac {outcome.failed / max(outcome.attempted, 1):.6g} ratio  "
          f"({outcome.failed} failed / {outcome.attempted} attempted)")
    for name, (ok, detail) in outcome.checks.items():
        status = "skipped" if ok is None else ("ok" if ok else "FAILED")
        print(f"check {name} {status}  {detail}")

    if args.trace:
        for k, (v, u) in outcome.per_layer.items():
            print(f"layer {k} {v:.6g} {u}")
        outcome.tracer.write(OUT / f"{tag}-spans.jsonl.gz")
    chosen = outcome.per_layer if args.trace else outcome.e2e
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "env": env,
              "table": outcome.table, "checks": outcome.checks, "metrics": metrics,
              **outcome.record}
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

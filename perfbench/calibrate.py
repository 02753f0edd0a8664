"""Record the reference losses the benchmark checks against.

    python3 perfbench/calibrate.py

For each workload and seed it runs the workload briefly, untraced, and keeps
the loss its reference check reads: on train-* the mean LM loss over steps
21-30, on analyze the mean LM loss of the set-up training run. The
reference is the median over the seeds; the tolerance is TOL_FACTOR times
the largest distance of any seed from it. Writes perfbench/reference.json.
Rerun it whenever a change to the program is meant to change training.
"""

from __future__ import annotations

import json
import shutil
import statistics
import sys

import run  # pins the BLAS threads before numpy loads
from workloads import REF_STEPS, REF_WINDOW, WORKLOADS, make_workload

SEEDS = range(10)
TOL_FACTOR = 3.0
WHAT = {
    "train": f"mean LM loss over steps {REF_STEPS - REF_WINDOW + 1}-{REF_STEPS}",
    "analyze": "mean LM loss over the set-up training run's steps",
}


def main() -> None:
    sys.path.insert(0, str(run.SRC))
    out = {}
    for name, spec in WORKLOADS.items():
        values = []
        for seed in SEEDS:
            work = run.OUT / f"calibrate-{name}-{seed}"
            try:
                outcome = make_workload(name, seed, False, run.SRC, work).run(0.1, False, {})
            finally:
                shutil.rmtree(work, ignore_errors=True)
            values.append(outcome.record["reference_loss_value"])
            print(name, seed, repr(values[-1]), flush=True)
        median = statistics.median(values)
        out[name] = {"what": WHAT[spec["kind"]], "median": median,
                     "tol": TOL_FACTOR * max(abs(v - median) for v in values),
                     "seeds": list(SEEDS), "values": values}
    (run.HERE / "reference.json").write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()

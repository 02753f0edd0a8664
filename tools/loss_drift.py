"""Record the training losses of the first 100 steps at three train shapes,
or compare two such records.

    python3 tools/loss_drift.py OUT.json
    python3 tools/loss_drift.py --compare A.json B.json

The record mode generates an n=400 dataset (seed 0) at grid 8 and grid 10
and trains the default model (8 blocks, d_l 64, 4 heads, batch 8, run seed
0, the 500-step lr schedule) for 100 steps on each: the benchmark's
`train-paper` shape (lambda 0.5, pre-llm anchor, target layer 4) and
`train-long-lm` shape (lambda 0), where the last block computes only the
answer row, and `train-paper-last-layer`, `train-paper` with the target
layer at 8, where the prediction loss reads the whole last layer. It
writes the per-step lm_loss, pre_loss, total_loss and grad_norm columns as
JSON. It runs the prelab package of the checkout this script lives in, so
record a parent by copying the script into the parent's tools/.

The compare mode prints, per shape and column, the largest relative
difference |a - b| / max(|a|, |b|) and the step where it occurs (NaN equal
to NaN, as in pre_loss at lambda 0; a value non-finite on one side only
counts as infinitely far). It exits 1 if any exceeds BOUND, 1e-5.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from prelab.data import DataSpec, generate_dataset, load_dataset  # noqa: E402
from prelab.model import MllmConfig  # noqa: E402
from prelab.training import Trainer, train_step  # noqa: E402

SHAPES = {"train-paper": {"grid": 8, "lam": 0.5, "target_layer": 4},
          "train-long-lm": {"grid": 10, "lam": 0.0, "target_layer": 4},
          "train-paper-last-layer": {"grid": 8, "lam": 0.5, "target_layer": 8}}
N_EXAMPLES, SEED, STEPS, SCHEDULE_STEPS, BATCH = 400, 0, 100, 500, 8
COLUMNS = ("lm_loss", "pre_loss", "total_loss", "grad_norm")
BOUND = 1e-5  # the largest relative difference --compare accepts


def record(grid: int, lam: float, target_layer: int, work: Path) -> dict:
    data = work / f"data-grid{grid}"
    if not data.exists():
        generate_dataset(N_EXAMPLES, SEED, data, DataSpec(grid=grid))
    cfg = MllmConfig(grid=grid, lam=lam, target_layer=target_layer, seed=SEED)
    trainer = Trainer(cfg, load_dataset(data), steps=SCHEDULE_STEPS, batch_size=BATCH)
    reports = [train_step(trainer.params, trainer.opt, trainer.sample_batch())
               for _ in range(STEPS)]
    return {name: [getattr(r, attr) for r in reports]
            for name, attr in zip(COLUMNS, ("lm", "pre", "total", "grad_norm"))}


def rel_diff(a: float, b: float) -> float:
    """|a - b| / max(|a|, |b|): 0 for equal values (NaN equal to NaN), inf
    when only one side is finite."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf  # NaN or Inf on one side only
    return abs(a - b) / max(abs(a), abs(b))


def compare(a: dict, b: dict) -> int:
    worst_overall = 0.0
    for shape in SHAPES:
        for col in COLUMNS:
            diffs = [rel_diff(x, y) for x, y in zip(a[shape][col], b[shape][col], strict=True)]
            step = max(range(len(diffs)), key=diffs.__getitem__)
            worst_overall = max(worst_overall, diffs[step])
            print(f"{shape:22s} {col:10s} max rel diff {diffs[step]:.3g} at step {step + 1} "
                  f"({a[shape][col][step]!r} vs {b[shape][col][step]!r})")
    verdict = "within" if worst_overall <= BOUND else "OVER"
    print(f"largest {worst_overall:.3g}: {verdict} the bound {BOUND:g}")
    return 0 if worst_overall <= BOUND else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", nargs="?", help="JSON file to write (record mode)")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"), help="two records to compare")
    args = ap.parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(p).read_text()) for p in args.compare)
        return compare(a, b)
    if not args.out:
        ap.error("give OUT.json, or --compare A B")
    with tempfile.TemporaryDirectory() as work:
        result = {name: record(**shape, work=Path(work)) for name, shape in SHAPES.items()}
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

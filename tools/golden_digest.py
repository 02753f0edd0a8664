"""Run the golden check pipeline and print one sha256 line per artifact.

    python3 tools/golden_digest.py WORK_DIR > digest.txt

The pipeline: gen-data (n=800, grid 8, seed 5); three 10-step runs (lambda
0; lambda 0.5 with --diag-every 5; pre-proj anchor with --no-schedule); a
dump and metrics for each run; and two reports, each against the lambda-0
run. It runs the prelab package of the checkout this script lives in.

Each output line is "<sha256>  <path relative to WORK_DIR>", sorted by path.
train_time.csv holds wall times, so it is skipped. config.json records
--data and --out as given, so two checkouts compare only when both run at
the same WORK_DIR; WORK_DIR must not exist or be empty.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from prelab.cli import main  # noqa: E402

RUNS = {
    "base": ["--lambda", "0"],
    "aux": ["--lambda", "0.5", "--diag-every", "5"],
    "proj": ["--lambda", "0.5", "--anchor", "pre-proj", "--no-schedule"],
}
SKIPPED = {"train_time.csv"}


def run(argv) -> None:
    argv = [str(a) for a in argv]
    with contextlib.redirect_stdout(sys.stderr):
        rc = main(argv)
    if rc != 0:
        raise SystemExit(f"prelab {' '.join(argv)} exited {rc}")


def pipeline(w: Path) -> None:
    data = w / "data"
    run(["gen-data", "--n", 800, "--grid", 8, "--seed", 5, "--out", data])
    for name, flags in RUNS.items():
        run(["train", "--data", data, "--out", w / name, "--steps", 10, *flags])
        run(["dump", "--run", w / name, "--data", data, "--out", w / f"{name}.prea"])
        run(["metrics", "--hidden", w / f"{name}.prea", "--data", data, "--run", w / name,
             "--out", w / f"{name}-metrics"])
    for name in ("aux", "proj"):
        run(["report", "--baseline", w / "base-metrics", "--pre", w / f"{name}-metrics",
             "--out", w / f"report-{name}"])


def digest(w: Path) -> list:
    return [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(w)}"
            for p in sorted(w.rglob("*")) if p.is_file() and p.name not in SKIPPED]


def main_digest(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("work", type=Path, help="work directory (absent or empty)")
    work = parser.parse_args(argv).work
    if work.exists() and any(work.iterdir()):
        parser.error(f"{work} is not empty")
    pipeline(work)
    print("\n".join(digest(work)))
    return 0


if __name__ == "__main__":
    sys.exit(main_digest())

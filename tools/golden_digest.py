"""Run the golden check pipeline and print one sha256 line per artifact.

    python3 tools/golden_digest.py WORK_DIR > digest.txt
    python3 tools/golden_digest.py WORK_DIR --check digest.txt

The pipeline: gen-data (n=800, grid 8, seed 5); three 10-step runs (lambda
0; lambda 0.5 with --diag-every 5; lambda 0.5 with the pre-proj anchor); a
dump and metrics for each run; and two reports, each against the lambda-0
run. It runs the prelab package of the checkout this script lives in.

Each output line is "<sha256>  <path relative to WORK_DIR>", sorted by path.
With --check, nothing is printed for an artifact whose sha256 matches the
digest file's line; every other path is listed as "differs", "missing" (in
the file, not produced) or "extra" (produced, not in the file), and the exit
code is 1 if any path is listed.
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
    "proj": ["--lambda", "0.5", "--anchor", "pre-proj"],
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


def _sha_by_path(lines) -> dict:
    return {path: sha for sha, path in (line.split("  ", 1) for line in lines if line)}


def compare(want_lines, have_lines) -> list:
    """The paths whose sha256 differs between two digests, or that only one
    of them lists, as "<status>  <path>" lines sorted by path."""
    want, have = _sha_by_path(want_lines), _sha_by_path(have_lines)
    status = {path: "differs" for path in want.keys() & have.keys() if want[path] != have[path]}
    status.update({path: "missing" for path in want.keys() - have.keys()})
    status.update({path: "extra" for path in have.keys() - want.keys()})
    return [f"{status[path]}  {path}" for path in sorted(status)]


def main_digest(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("work", type=Path, help="work directory (absent or empty)")
    parser.add_argument("--check", type=Path, metavar="DIGEST_FILE",
                        help="compare with a saved digest instead of printing one")
    args = parser.parse_args(argv)
    work = args.work
    if work.exists() and any(work.iterdir()):
        parser.error(f"{work} is not empty")
    want = args.check.read_text().splitlines() if args.check else None
    pipeline(work)
    lines = digest(work)
    if want is None:
        print("\n".join(lines))
        return 0
    diffs = compare(want, lines)
    print("\n".join(diffs) if diffs else f"all {len(lines)} artifacts match {args.check}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main_digest())

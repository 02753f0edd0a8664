"""Run the golden check pipeline and print one sha256 line per artifact.

    python3 tools/golden_digest.py WORK_DIR > digest.txt
    python3 tools/golden_digest.py WORK_DIR --check digest.txt
    python3 tools/golden_digest.py --diff-values WORK_A WORK_B

The pipeline: gen-data (n=800, grid 8, seed 5); three 10-step runs (lambda
0; lambda 0.5 with --diag-every 5; lambda 0.5 with the pre-proj anchor); a
dump and metrics for each run; and two reports, each against the lambda-0
run. It runs the prelab package of the checkout this script lives in.

Each output line is "<sha256>  <path relative to WORK_DIR>", sorted by path.
With --check, nothing is printed for an artifact whose sha256 matches the
digest file's line; every other path is listed as "differs", "missing" (in
the file, not produced) or "extra" (produced, not in the file), and the exit
code is 1 if any path is listed.
train_time.csv holds wall times, so it is skipped. The pipeline runs inside
WORK_DIR with paths relative to it, so the paths that config.json and the
summaries record, and so the digest, do not depend on where WORK_DIR is.
WORK_DIR must not exist or be empty. tests/golden.sha256 is the digest that
tests/test_golden_digest.py checks.

--diff-values compares two finished work directories, say two checkouts'
runs. It runs nothing.
For each artifact it prints the largest relative change among its numeric
fields: |a - b| / max(|a|, |b|) for each number in the text of a file, and
max |a - b| / max(|a|, |b|) over each whole tensor of a .prea archive,
whose entries near 0 would otherwise read as large changes. "identical"
means the same bytes, "text differs" that the text around the numbers
differs, and "only in A" or "only in B" a file that the other directory
lacks. A logitlens.csv line also says whether its layer, rank and token
columns match.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import os
import re
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from prelab.archive import read_archive  # noqa: E402
from prelab.cli import main  # noqa: E402
from loss_drift import rel_diff  # noqa: E402

RUNS = {
    "base": ["--lambda", "0"],
    "aux": ["--lambda", "0.5", "--diag-every", "5"],
    "proj": ["--lambda", "0.5", "--anchor", "pre-proj"],
}
SKIPPED = {"train_time.csv"}
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf)")


def run(argv) -> None:
    argv = [str(a) for a in argv]
    with contextlib.redirect_stdout(sys.stderr):
        rc = main(argv)
    if rc != 0:
        raise SystemExit(f"prelab {' '.join(argv)} exited {rc}")


def pipeline(w: Path) -> None:
    """Run the pipeline inside w, every path relative to it, so that the
    paths its artifacts record are the same wherever w is."""
    w.mkdir(parents=True, exist_ok=True)
    cwd = os.getcwd()
    os.chdir(w)
    try:
        run(["gen-data", "--n", 800, "--grid", 8, "--seed", 5, "--out", "data"])
        for name, flags in RUNS.items():
            run(["train", "--data", "data", "--out", name, "--steps", 10, *flags])
            run(["dump", "--run", name, "--data", "data", "--out", f"{name}.prea"])
            run(["metrics", "--hidden", f"{name}.prea", "--data", "data", "--run", name,
                 "--out", f"{name}-metrics"])
        for name in ("aux", "proj"):
            run(["report", "--baseline", "base-metrics", "--pre", f"{name}-metrics",
                 "--out", f"report-{name}"])
    finally:
        os.chdir(cwd)


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


def _max_rel(xs, ys) -> float:
    return max((rel_diff(float(x), float(y)) for x, y in zip(xs, ys)), default=0.0)


def _tensor_change(a: np.ndarray, b: np.ndarray) -> float:
    if np.array_equal(a, b, equal_nan=True):
        return 0.0
    a, b = a.astype(np.float64), b.astype(np.float64)
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(a)), np.max(np.abs(b))))


def value_change(a: Path, b: Path):
    """The largest relative change between the numeric fields of two files,
    or None when their entry names or the text around the numbers differ."""
    if a.suffix == ".prea":
        ra, rb = read_archive(a), read_archive(b)
        if list(ra) != list(rb) or any(ra[k].shape != rb[k].shape for k in ra):
            return None
        return max((_tensor_change(ra[k], rb[k]) for k in ra), default=0.0)
    ta, tb = a.read_text(), b.read_text()
    if NUMBER.split(ta) != NUMBER.split(tb):
        return None
    return _max_rel(NUMBER.findall(ta), NUMBER.findall(tb))


def _lens_ranks(path: Path) -> list:
    with open(path, newline="") as fh:
        return [(row["layer"], row["rank"], row["token"]) for row in csv.DictReader(fh)]


def diff_values(work_a: Path, work_b: Path) -> list:
    """One "<change>  <path>" line per artifact of either directory, sorted
    by path; see the module docstring."""
    def files(w):
        return {str(p.relative_to(w)) for p in w.rglob("*")
                if p.is_file() and p.name not in SKIPPED}
    in_a, in_b = files(work_a), files(work_b)
    lines = []
    for rel in sorted(in_a | in_b):
        a, b = work_a / rel, work_b / rel
        if rel not in in_b or rel not in in_a:
            lines.append(f"only in {'A' if rel in in_a else 'B'}  {rel}")
            continue
        if a.read_bytes() == b.read_bytes():
            change = "identical"
        else:
            change = value_change(a, b)
            change = "text differs" if change is None else f"{change:.2e}"
        if a.name == "logitlens.csv":
            same = _lens_ranks(a) == _lens_ranks(b)
            change += "  tokens and ranks " + ("match" if same else "differ")
        lines.append(f"{change}  {rel}")
    return lines


def main_digest(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("work", type=Path, nargs="?", help="work directory (absent or empty)")
    parser.add_argument("--check", type=Path, metavar="DIGEST_FILE",
                        help="compare with a saved digest instead of printing one")
    parser.add_argument("--diff-values", type=Path, nargs=2, metavar=("WORK_A", "WORK_B"),
                        help="compare the values of two finished work directories")
    args = parser.parse_args(argv)
    if args.diff_values:
        if args.work or args.check:
            parser.error("--diff-values takes no WORK_DIR or --check")
        for w in args.diff_values:
            if not w.is_dir():
                parser.error(f"{w} is not a directory")
        print("\n".join(diff_values(*args.diff_values)))
        return 0
    work = args.work
    if work is None:
        parser.error("a WORK_DIR is required")
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

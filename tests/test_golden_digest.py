"""tools/golden_digest.py: the pipeline's artifacts against the committed
digest, tests/golden.sha256. --check: every path whose sha256 differs, that
the saved digest lists but the run did not produce, or that the run produced
but the saved digest does not list. --diff-values: the largest relative
change of each artifact's numbers, and whether the logit lens kept its
tokens and ranks."""

import importlib.util
from pathlib import Path

import numpy as np

from prelab.archive import write_archive

TOOL = Path(__file__).resolve().parents[1] / "tools" / "golden_digest.py"
spec = importlib.util.spec_from_file_location("golden_digest", TOOL)
golden_digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(golden_digest)
GOLDEN = Path(__file__).with_name("golden.sha256")


def test_pipeline_artifacts_match_the_committed_digest(tmp_path):
    """Every artifact of the pipeline, byte for byte. The bytes depend on
    numpy's and the BLAS's rounding, so the digest holds for the numpy/BLAS
    build it was made on. A change that alters artifacts on purpose
    regenerates it (python3 tools/golden_digest.py WORK > tests/golden.sha256)
    and names the changed files in CHANGES.md."""
    golden_digest.pipeline(tmp_path / "work")
    have = golden_digest.digest(tmp_path / "work")
    assert golden_digest.compare(GOLDEN.read_text().splitlines(), have) == []


def test_compare_lists_every_path_that_differs_or_is_missing():
    want = ["aa  same.csv", "bb  changed.csv", "cc  gone.csv", ""]
    have = ["aa  same.csv", "BB  changed.csv", "dd  new dir/new.csv"]
    assert golden_digest.compare(want, have) == [
        "differs  changed.csv", "missing  gone.csv", "extra  new dir/new.csv"]


def test_compare_of_equal_digests_is_empty():
    lines = ["aa  a/x.csv", "bb  b.prea"]
    assert golden_digest.compare(lines, list(reversed(lines))) == []


LENS = "layer,rank,token,token_name,mass\n0,1,57,<unused57>,{}\n0,2,{},x,0.25\n"


def work_dir(root, files, archive):
    root.mkdir()
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    write_archive(root / "hidden.prea", {"ex/hv": np.array(archive, dtype=np.float32)})
    return root


def test_diff_values_reports_the_largest_relative_change_of_each_artifact(tmp_path):
    a = work_dir(tmp_path / "a", {
        "same.csv": "x,1.5\n", "m/metrics.csv": "layer,v\n0,2.0\n1,-4.0\n",
        "note.txt": "mid 1\n", "m/logitlens.csv": LENS.format(0.5, 16),
        "r/logitlens.csv": LENS.format(0.5, 16), "only.txt": "1\n",
        "train_time.csv": "1.0\n"}, [1.0, -8.0])
    b = work_dir(tmp_path / "b", {
        "same.csv": "x,1.5\n", "m/metrics.csv": "layer,v\n0,2.0\n1,-4.00004\n",
        "note.txt": "end 1\n", "m/logitlens.csv": LENS.format(0.5000005, 16),
        "r/logitlens.csv": LENS.format(0.5, 12), "train_time.csv": "2.0\n"},
        [1.0, -6.0])
    assert golden_digest.diff_values(a, b) == [
        "2.50e-01  hidden.prea",  # |-8 - -6| / 8, over the whole tensor
        "1.00e-06  tokens and ranks match  m/logitlens.csv",
        "1.00e-05  m/metrics.csv",
        "text differs  note.txt",
        "only in A  only.txt",
        "2.50e-01  tokens and ranks differ  r/logitlens.csv",
        "identical  same.csv"]


def test_diff_values_counts_nan_equal_and_one_sided_inf_as_infinite(tmp_path):
    assert golden_digest.rel_diff(float("nan"), float("nan")) == 0.0
    assert golden_digest.rel_diff(1.0, float("inf")) == float("inf")
    a = work_dir(tmp_path / "a", {"v.csv": "nan,1e-05\n"}, [0.0])
    b = work_dir(tmp_path / "b", {"v.csv": "nan,-1e-05\n"}, [0.0])
    assert golden_digest.diff_values(a, b) == ["identical  hidden.prea", "2.00e+00  v.csv"]

"""tools/golden_digest.py --check: every path whose sha256 differs, that the
saved digest lists but the run did not produce, or that the run produced but
the saved digest does not list."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "golden_digest.py"
spec = importlib.util.spec_from_file_location("golden_digest", TOOL)
golden_digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(golden_digest)


def test_compare_lists_every_path_that_differs_or_is_missing():
    want = ["aa  same.csv", "bb  changed.csv", "cc  gone.csv", ""]
    have = ["aa  same.csv", "BB  changed.csv", "dd  new dir/new.csv"]
    assert golden_digest.compare(want, have) == [
        "differs  changed.csv", "missing  gone.csv", "extra  new dir/new.csv"]


def test_compare_of_equal_digests_is_empty():
    lines = ["aa  a/x.csv", "bb  b.prea"]
    assert golden_digest.compare(lines, list(reversed(lines))) == []

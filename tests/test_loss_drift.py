"""tools/loss_drift.py --compare: the largest relative difference between
two loss records, NaN equal to NaN and a value non-finite on one side only
infinitely far, and exit 1 once it exceeds the bound."""

import importlib.util
import math
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "loss_drift.py"
spec = importlib.util.spec_from_file_location("loss_drift", TOOL)
loss_drift = importlib.util.module_from_spec(spec)
spec.loader.exec_module(loss_drift)


def loss_record(values):
    """A record with `values` as every column of every shape."""
    return {shape: {col: list(values) for col in loss_drift.COLUMNS}
            for shape in loss_drift.SHAPES}


def test_rel_diff_counts_nan_equal_and_one_sided_non_finite_as_infinite():
    assert loss_drift.rel_diff(2.0, 2.0) == 0.0
    assert loss_drift.rel_diff(float("nan"), float("nan")) == 0.0
    assert loss_drift.rel_diff(-4.0, -3.0) == 0.25
    for a, b in [(1.0, float("inf")), (float("nan"), 1.0), (float("inf"), float("-inf"))]:
        assert loss_drift.rel_diff(a, b) == math.inf


def test_compare_exits_0_within_the_bound_and_1_over_it(capsys):
    base = loss_record([1.0, float("nan"), 3.0])
    assert loss_drift.compare(base, loss_record([1.0, float("nan"), 3.0])) == 0
    assert loss_drift.compare(base, loss_record([1.0, float("nan"), 3.0 * (1 + 5e-6)])) == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith("within the bound 1e-05")
    assert loss_drift.compare(base, loss_record([1.0, float("nan"), 3.0 * (1 + 2e-5)])) == 1
    assert loss_drift.compare(base, loss_record([1.0, 2.0, 3.0])) == 1
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == "largest inf: OVER the bound 1e-05"

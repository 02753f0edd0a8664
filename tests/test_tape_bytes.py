"""tools/tape_bytes.py: the bytes a train step's tape holds after the
forward pass, per op, split into node values and backward-closure arrays,
with each buffer counted once and parameter storage left out, and a warm
step's traced peak after the live bytes it starts from."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from prelab import autodiff as ad
from prelab.autodiff import Parameter
from prelab.model import MllmConfig

TOOL = Path(__file__).resolve().parents[1] / "tools" / "tape_bytes.py"
spec = importlib.util.spec_from_file_location("tape_bytes", TOOL)
tape_bytes = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tape_bytes)


def test_a_buffer_counts_once_and_parameters_not_at_all():
    f32 = np.float32
    w, gamma, beta, w2 = (Parameter(n, np.ones(s, f32))
                          for n, s in (("w", (4, 3)), ("g", 3), ("b", 3), ("w2", (3, 2))))
    x = ad.constant(np.ones((5, 4), f32))  # 80 bytes
    y = ad.linear(ad.linear(x, w.node()), w2.node(), norm=(gamma.node(), beta.node()))
    per_op = tape_bytes.tape_bytes(ad.sum_all(ad.reshape(y, (10,))))
    # the linear op's closure holds views of x and w alone; the norm_linear
    # op's holds a view of its input, the 1/d vector (12 bytes), the row
    # means and the 1/sigma column (20 bytes each), and no normed rows;
    # reshape's value is a view of y
    assert per_op == {"const": [1, 80, 0], "param": [4, 0, 0], "linear": [1, 60, 0],
                      "norm_linear": [1, 40, 52], "reshape": [1, 0, 0], "sum": [1, 4, 0]}


@pytest.mark.parametrize("scaled, backward_bytes", [(False, 0), (True, 12)])
def test_an_empty_closure_cell_counts_nothing(scaled, backward_bytes):
    # backward reads k, which the forward binds on one branch alone
    def op(a):
        if scaled:
            k = np.full(3, 2.0, np.float32)

        def bk(g):
            return (g * k if scaled else g,)

        return ad.record("op", a.value * 2.0, (a,), bk)

    per_op = tape_bytes.tape_bytes(ad.sum_all(op(Parameter("x", np.ones(3, np.float32)).node())))
    assert per_op["op"] == [1, 12, backward_bytes]


@pytest.mark.parametrize("target_layer, want", [(1, (62, 14116, 5752)), (2, (61, 17476, 8224))])
def test_train_step_tape_totals_at_a_tiny_shape(target_layer, want):
    # (nodes, value bytes, backward bytes), with the answer-row last block
    # (target layer 1) and with the prediction loss reading the whole last
    # layer (target layer 2). A change to what the tape keeps moves these,
    # and names the new totals in CHANGES.md.
    cfg = MllmConfig(grid=2, d_l=8, layers=2, heads=2, lam=0.5, target_layer=target_layer)
    per_op = tape_bytes.step_tape_bytes(cfg, batch_size=3)
    assert tuple(sum(column) for column in zip(*per_op.values())) == want


def test_table_lists_the_largest_op_first_and_the_totals_last():
    lines = tape_bytes.format_table({"small": [2, 1000, 0], "big": [1, 2_000_000, 500_000]})
    assert [line.split()[0] for line in lines] == ["op", "big", "small", "total"]
    assert lines[-1].split() == ["total", "3", "2.001", "0.500", "2.501"]


def test_peak_lines_follow_the_table(capsys):
    assert tape_bytes.format_peak(4_843_000, 30_535_000) == [
        "live before a warm step          4.843 MB", "peak of that step               30.535 MB"]
    assert tape_bytes.main(["train-paper"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[0] == "op" and lines[-3].split()[0] == "total"
    assert [line[:30].rstrip() for line in lines[-2:]] == ["live before a warm step",
                                                           "peak of that step"]


def test_a_warm_step_peaks_above_what_it_starts_with():
    # the parameters, gradients and AdamW moments, then the tape on top
    cfg = MllmConfig(grid=2, d_l=8, layers=2, heads=2, lam=0.5, target_layer=1)
    live, peak = tape_bytes.step_peak_bytes(cfg, batch_size=3)
    n_values = sum(p.value.size for p in tape_bytes.fresh_step(cfg, 3)[0].trainable())
    assert 4 * 4 * n_values <= live < peak

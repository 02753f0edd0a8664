"""Print how many bytes one train step's tape holds after the forward pass,
per op, and how many bytes a warm train step holds at its peak.

    python3 tools/tape_bytes.py [SHAPE]

SHAPE is one of tools/loss_drift.py's train shapes: `train-paper` (grid 8,
lambda 0.5, target layer 4; the default), `train-long-lm` (grid 10,
lambda 0) or `train-paper-last-layer` (target layer 8), each the default
model (8 blocks, d_l 64, 4 heads). The step runs training.train_step on a
random batch of 8 (seed 0) and is measured as it enters backward, so the
forward is the train step's own, answer-row shortcut included.

Each op's line splits its bytes into node values (what the op returned)
and backward arrays (what its backward closure captures, lists and tuples
looked into). A numpy view counts as the buffer it views, and each buffer
counts once: node values are attributed first, in tape order, then the
closures' arrays, so a closure that captures its input's own buffer adds
nothing. Parameter storage is not the tape's and is left out. The tape is
every node reachable from the loss along parents.

The two lines after the table come from tracemalloc over a second model
built the same way: the bytes live before its second train step
(parameters, gradients, AdamW's moments and the batch), and that step's
peak, live bytes included. numpy reports its array buffers to tracemalloc,
so these count what the program allocates, not the interpreter or the
allocator's free pages that peak RSS also holds.
"""

from __future__ import annotations

import argparse
import sys
import tracemalloc
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from prelab import autodiff as ad  # noqa: E402
from prelab.data import PROMPT_LEN, VOCAB_SIZE  # noqa: E402
from prelab.model import D_V, MllmConfig, MllmParams  # noqa: E402
from prelab.optim import AdamW, WarmupCosine  # noqa: E402
from prelab.training import Batch, train_step  # noqa: E402
from loss_drift import SHAPES  # noqa: E402

BATCH, SEED = 8, 0


def _buffer(a: np.ndarray) -> np.ndarray:
    """The array that owns a's memory."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def _arrays(obj):
    """The numpy arrays in a closure cell's contents, looking into lists and
    tuples; a Node's value is a node value, not the closure's."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _arrays(item)


def _contents(cell):
    """A closure cell's contents, or None for an empty cell: a name the
    closure reads that was bound on a branch the op did not take."""
    try:
        return cell.cell_contents
    except ValueError:
        return None


def tape_bytes(loss: ad.Node) -> dict:
    """{op: [nodes, value bytes, backward bytes]} of the tape behind loss."""
    nodes, seen, stack = [], set(), [loss]
    while stack:
        node = stack.pop()
        if node.id not in seen:
            seen.add(node.id)
            nodes.append(node)
            stack.extend(node.parents)
    nodes.sort(key=lambda n: n.id)
    counted = {id(_buffer(n.value)) for n in nodes if n.param is not None}
    out = {}

    def claim(op, arrays, column):
        for a in arrays:
            buf = _buffer(a)
            if id(buf) not in counted:
                counted.add(id(buf))
                out[op][column] += buf.nbytes

    for node in nodes:
        out.setdefault(node.op, [0, 0, 0])[0] += 1
        if node.param is None:
            claim(node.op, [node.value], 1)
    for node in nodes:
        cells = getattr(node.backward_fn, "__closure__", None) or ()
        claim(node.op, [a for c in cells for a in _arrays(_contents(c))], 2)
    return out


def fresh_step(cfg: MllmConfig, batch_size: int) -> tuple:
    """A fresh model at cfg, its AdamW and a random batch."""
    params = MllmParams(cfg)
    opt = AdamW(params.trainable(), WarmupCosine(1e-3, 500))
    rng = np.random.default_rng(SEED)
    batch = Batch(z=rng.normal(size=(batch_size, cfg.n_patches, D_V)),
                  prompts=rng.integers(0, VOCAB_SIZE, size=(batch_size, PROMPT_LEN)),
                  answers=rng.integers(0, VOCAB_SIZE, size=batch_size))
    return params, opt, batch


def step_tape_bytes(cfg: MllmConfig, batch_size: int) -> dict:
    """tape_bytes of one train step of a fresh model at cfg, on a random
    batch, measured when the step calls backward."""
    params, opt, batch = fresh_step(cfg, batch_size)
    measured = {}
    backward = ad.backward

    def measuring_backward(loss):
        measured.update(tape_bytes(loss))
        backward(loss)

    ad.backward = measuring_backward
    try:
        train_step(params, opt, batch)
    finally:
        ad.backward = backward
    return measured


def step_peak_bytes(cfg: MllmConfig, batch_size: int) -> tuple:
    """(live bytes, peak bytes) by tracemalloc of the second train step of a
    fresh model at cfg on a random batch: what is live as it starts, and the
    most that is live during it."""
    tracemalloc.start()
    try:
        params, opt, batch = fresh_step(cfg, batch_size)
        train_step(params, opt, batch)
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        train_step(params, opt, batch)
        return live, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def format_peak(live: int, peak: int) -> list:
    """The two lines of step_peak_bytes, in MB."""
    return [f"{'live before a warm step':<30}{live / 1e6:>8.3f} MB",
            f"{'peak of that step':<30}{peak / 1e6:>8.3f} MB"]


def format_table(per_op: dict) -> list:
    """One line per op, largest first, then the totals; sizes in MB."""
    rows = sorted(per_op.items(), key=lambda kv: -(kv[1][1] + kv[1][2]))
    total = [sum(col) for col in zip(*per_op.values())]
    lines = [f"{'op':<18}{'nodes':>6}{'values MB':>11}{'backward MB':>13}{'total MB':>10}"]
    for op, (n, values, closure) in rows + [("total", total)]:
        lines.append(f"{op:<18}{n:>6}{values / 1e6:>11.3f}{closure / 1e6:>13.3f}"
                     f"{(values + closure) / 1e6:>10.3f}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("shape", nargs="?", choices=sorted(SHAPES), default="train-paper")
    args = ap.parse_args(argv)
    cfg = MllmConfig(**SHAPES[args.shape])
    print("\n".join(format_table(step_tape_bytes(cfg, BATCH))))
    print("\n".join(format_peak(*step_peak_bytes(cfg, BATCH))))
    return 0


if __name__ == "__main__":
    sys.exit(main())

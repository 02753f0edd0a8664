"""Training tests: byte-identical losses for a fixed seed, the prediction
loss reported as NaN when lambda is 0, and a non-finite loss or gradient
norm stopping the step, before any parameter changes, with an error that
names the component, a dataset that does not match the model refused, a
warm train step faulting in no fresh memory, a train step that runs in
float32 throughout while a float64 model stays float64, a checkpoint that
round-trips the trained parameters bit for bit, a checkpoint missing a
parameter, with an entry the model has no parameter for, or with an entry of
another shape refused, a checkpoint load that draws only the encoder matrix,
a dump that encodes images with the encoder matrix training used and
whose states are, bit for bit, one trace of all its examples, and a
backward that leaves every node value of the train step's tape as it was."""

import json
import math
import platform
import re

import numpy as np
import pytest

from prelab import autodiff as ad
from prelab import cli, model, training
from prelab.archive import read_archive, write_archive
from prelab.cli import main
from prelab.data import PATCH, VOCAB_SIZE, DataSpec, generate_dataset, load_dataset
from prelab.model import (MllmConfig, MllmParams, NonFiniteLossError, llm_forward,
                          load_checkpoint, save_checkpoint, total_loss)
from prelab.numerics import RngStream
from prelab.training import LOG_HEADER, Trainer, make_batch, train_step
from gradcheck import cast_to_float64

_backward = ad.backward  # the real one, for tests that patch ad.backward


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data")
    generate_dataset(40, 2, path, DataSpec(grid=4))
    return load_dataset(path)


def trainer(dataset, lam=0.5):
    cfg = MllmConfig(grid=4, d_l=16, layers=2, heads=2, target_layer=1, lam=lam, seed=3)
    return Trainer(cfg, dataset, steps=3, batch_size=4)


def losses(reports):
    return [(r.step, r.lm, r.pre, r.total, r.grad_norm) for r in reports]


def test_same_seed_gives_identical_losses(dataset, tmp_path):
    seen = []
    first = trainer(dataset).run(tmp_path / "a.csv", seen.append)
    second = trainer(dataset).run(tmp_path / "b.csv", lambda report: None)
    assert seen == first and [r.step for r in first] == [1, 2, 3]
    assert losses(first) == losses(second)
    assert all(math.isfinite(r.pre) for r in first)
    log = (tmp_path / "a.csv").read_text()
    assert log.splitlines()[0] == LOG_HEADER
    assert log == (tmp_path / "b.csv").read_text()


def test_trainer_refuses_a_mismatched_dataset(dataset):
    cfg = MllmConfig(grid=5, d_l=16, layers=2, heads=2, target_layer=1)
    with pytest.raises(ValueError, match="^dataset has grid 4, the run has 5$"):
        Trainer(cfg, dataset, steps=3, batch_size=4)


def test_lambda_zero_reports_pre_as_nan(dataset, tmp_path):
    reports = trainer(dataset, lam=0.0).run(tmp_path / "log.csv", lambda report: None)
    assert all(math.isnan(r.pre) and r.total == r.lm for r in reports)


@pytest.mark.parametrize("component", ["language-model", "prediction"])
def test_non_finite_loss_names_the_component(dataset, monkeypatch, component):
    t = trainer(dataset)
    if component == "language-model":
        t.params.head.b.value[0] = np.nan
    else:
        monkeypatch.setattr(model, "pre_loss", lambda trace, params: ad.constant(np.inf))
    with pytest.raises(NonFiniteLossError, match=f"^{component} loss is non-finite"):
        train_step(t.params, t.opt, t.sample_batch())
    assert t.opt.step_count == 0


def parameter_bytes(t):
    return [p.value.tobytes() for p in t.params.trainable()]


def test_nan_prediction_head_stops_the_step_before_the_update(dataset):
    t = trainer(dataset)
    t.params.pred_head.fc2.w.value[0, 0] = np.nan
    before = parameter_bytes(t)
    with pytest.raises(NonFiniteLossError, match="^prediction loss is non-finite"):
        train_step(t.params, t.opt, t.sample_batch())
    assert t.opt.step_count == 0
    assert parameter_bytes(t) == before


def test_non_finite_gradient_norm_stops_the_step_before_the_update(dataset, monkeypatch):
    t = trainer(dataset)
    monkeypatch.setattr(training, "grad_norm", lambda params: float("nan"))
    before = parameter_bytes(t)
    with pytest.raises(NonFiniteLossError, match="^gradient norm is non-finite"):
        train_step(t.params, t.opt, t.sample_batch())
    assert t.opt.step_count == 0
    assert parameter_bytes(t) == before


@pytest.mark.parametrize("lam, target_layer, last_rows", [(0.5, 2, 20), (0.5, 1, 1), (0.0, 2, 1)])
def test_train_step_builds_the_last_layer_rows_a_loss_reads(dataset, monkeypatch, lam,
                                                              target_layer, last_rows):
    # T = 4 + 16: only a prediction loss at layer L reads its other rows
    t = trainer(dataset, lam=lam)
    t.params.cfg.target_layer = target_layer
    batch = t.sample_batch()
    want = total_loss(llm_forward(t.params, batch.z, batch.prompts), batch.answers, t.params)
    traces = []

    def spy(*args, **kwargs):
        traces.append(llm_forward(*args, **kwargs))
        return traces[-1]

    monkeypatch.setattr(training, "llm_forward", spy)
    report = train_step(t.params, t.opt, batch)
    assert traces[0].layers[-1].value.shape == (4, last_rows, 16)
    if last_rows > 1:  # the full forward's losses, bit for bit
        assert (report.lm, report.pre) == (float(want[1].value), float(want[2].value))


def test_lm_loss_above_ten_times_chance_is_divergence(dataset):
    t = trainer(dataset)
    t.params.head.w.value *= 1e4  # finite, but far from chance
    with pytest.raises(NonFiniteLossError, match="^language-model loss diverged: .* > 10 ln"):
        train_step(t.params, t.opt, t.sample_batch())
    assert t.opt.step_count == 0


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the malloc policy is set through glibc's mallopt only")
def test_train_step_does_not_refault_freed_memory(tmp_path):
    # The train-paper size: grid 8, the default model, B 8. With glibc's
    # default policy each step faults its freed tape back in: 16k minor
    # faults per step in a fresh process, 9k here. With the policy that
    # importing autodiff sets, 0.
    import resource  # POSIX only, like the policy

    generate_dataset(40, 5, tmp_path, DataSpec(grid=8))
    t = Trainer(MllmConfig(grid=8, seed=5), load_dataset(tmp_path), steps=500, batch_size=8)
    batches = [t.sample_batch() for _ in range(6)]
    for batch in batches[:3]:
        train_step(t.params, t.opt, batch)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for batch in batches[3:]:
        train_step(t.params, t.opt, batch)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults / 3 < 500


def tape(loss) -> list:
    """Every node reachable from loss along parents."""
    nodes, stack = {}, [loss]
    while stack:
        node = stack.pop()
        if node.id not in nodes:
            nodes[node.id] = node
            stack.extend(node.parents)
    return list(nodes.values())


@pytest.mark.parametrize("lam, target_layer", [(0.5, 1), (0.5, 2), (0.0, 2)])
def test_backward_leaves_every_node_value_on_the_tape_bitwise(dataset, monkeypatch, lam,
                                                              target_layer):
    # Backward closures keep views of their inputs, and linear's rebuilds
    # the normed rows or the GELU output from its, so no op may write into a
    # node value, in the forward or in backward: each value, copied when its
    # node is made, must be the same once backward has run.
    t = trainer(dataset, lam=lam)
    t.params.cfg.target_layer = target_layer
    made, after = {}, {}
    init = ad.Node.__init__

    def copying_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made[self.id] = self.value.tobytes()

    def checking_backward(loss):
        nodes = tape(loss)
        _backward(loss)
        after.update((n.id, n.value.tobytes()) for n in nodes)

    monkeypatch.setattr(ad.Node, "__init__", copying_init)
    monkeypatch.setattr(ad, "backward", checking_backward)
    train_step(t.params, t.opt, t.sample_batch())
    assert len(after) > 40 and after == {i: made[i] for i in after}


def backward_dtypes(loss) -> set:
    """Run ad.backward(loss) and return the dtypes met on its tape, as
    {(what, dtype)}: every node value, and every gradient a backward
    closure returns."""
    seen, nodes = set(), tape(loss)

    def watched(op, fn):
        def bk(g):
            grads = fn(g)
            seen.update((f"{op} gradient", pg.dtype) for pg in grads if pg is not None)
            return grads
        return bk

    for node in nodes:
        seen.add((f"{node.op} value", node.value.dtype))
        if node.backward_fn is not None:
            node.backward_fn = watched(node.op, node.backward_fn)
    _backward(loss)
    return seen


def off_dtype(seen, dtype) -> list:
    return sorted(f"{what}: {d}" for what, d in seen if d != dtype)


def test_train_step_runs_in_float32_throughout(tmp_path, monkeypatch):
    # The train-paper size: grid 8, the default model (lambda 0.5, pre-llm), B 8.
    generate_dataset(40, 6, tmp_path, DataSpec(grid=8))
    t = Trainer(MllmConfig(grid=8, seed=6), load_dataset(tmp_path), steps=500, batch_size=8)
    seen = set()
    monkeypatch.setattr(ad, "backward", lambda loss: seen.update(backward_dtypes(loss)))
    report = train_step(t.params, t.opt, t.sample_batch())
    assert math.isfinite(report.pre) and len(seen) > 10
    assert off_dtype(seen, np.float32) == []
    for p in t.params.trainable():
        assert (p.value.dtype, p.grad.dtype) == (np.float32, np.float32), p.name
    assert t.opt.flat_m.dtype == t.opt.flat_v.dtype == np.float32


def test_float64_model_stays_float64(dataset):
    cfg = MllmConfig(grid=4, d_l=16, layers=2, heads=2, target_layer=1, seed=3)
    params = MllmParams(cfg)
    cast_to_float64(params.trainable())
    batch = make_batch(params, dataset.splits["train"][:4])
    total = total_loss(llm_forward(params, batch.z, batch.prompts),
                       batch.answers, params)[0]
    assert off_dtype(backward_dtypes(total), np.float64) == []
    assert all(p.grad.dtype == np.float64 and p.grad.any() for p in params.trainable())


def test_checkpoint_round_trips_trained_parameters_bitwise(dataset, tmp_path):
    t = trainer(dataset)
    t.run(tmp_path / "log.csv", lambda report: None)
    save_checkpoint(t.params, tmp_path / "checkpoint.prea")
    loaded = load_checkpoint(t.params.cfg, tmp_path / "checkpoint.prea")
    for trained, back in zip(t.params.trainable(), loaded.trainable()):
        assert back.name == trained.name
        assert back.value.dtype == trained.value.dtype == np.float32
        assert back.value.tobytes() == trained.value.tobytes(), trained.name


def edited_checkpoint(tmp_path, edit):
    """The checkpoint of an untrained tiny model, after edit(entries)."""
    cfg = MllmConfig(grid=4, d_l=16, layers=2, heads=2, target_layer=1, seed=3)
    path = tmp_path / "checkpoint.prea"
    save_checkpoint(MllmParams(cfg), path)
    entries = read_archive(path)
    edit(entries)
    write_archive(path, entries)
    return cfg, path


def test_checkpoint_missing_a_parameter_is_refused(tmp_path):
    cfg, path = edited_checkpoint(tmp_path, lambda entries: entries.pop("head.w"))
    with pytest.raises(ValueError, match=r"^missing entry 'head\.w' \(1 missing in all\)$"):
        load_checkpoint(cfg, path)


def test_checkpoint_entry_without_a_parameter_is_refused(tmp_path):
    def add(entries):
        entries["block2.attn.o.w"] = entries["block1.attn.o.w"]

    cfg, path = edited_checkpoint(tmp_path, add)
    with pytest.raises(ValueError, match=re.escape(
            "unexpected entry 'block2.attn.o.w' (1 unexpected in all)")):
        load_checkpoint(cfg, path)


def test_checkpoint_entry_of_another_shape_is_refused(tmp_path):
    def narrow(entries):
        entries["head.w"] = entries["head.w"][:, :-1]

    cfg, path = edited_checkpoint(tmp_path, narrow)
    with pytest.raises(ValueError, match=re.escape(
            f"entry 'head.w' has shape (16, {VOCAB_SIZE - 1}), not (16, {VOCAB_SIZE})")):
        load_checkpoint(cfg, path)


def test_checkpoint_load_draws_only_the_encoder_matrix(tmp_path, monkeypatch):
    cfg, path = edited_checkpoint(tmp_path, lambda entries: None)
    drawn, normal = [], RngStream.normal

    def record_normal(self, shape, std=1.0):
        drawn.append(shape)
        return normal(self, shape, std)

    def refuse(*args, **kwargs):
        raise AssertionError("load_checkpoint drew an initial weight")

    monkeypatch.setattr(RngStream, "truncated_normal", refuse)
    monkeypatch.setattr(RngStream, "normal", record_normal)
    loaded = load_checkpoint(cfg, path)
    monkeypatch.undo()
    assert drawn == [(PATCH * PATCH, model.D_V)]
    assert loaded.wv.tobytes() == MllmParams(cfg).wv.tobytes()


def trained_run(tmp_path, n=40):
    """A 3-step tiny run on an n-example grid-4 dataset, with its config.json
    and checkpoint written as `train` writes them."""
    data, run = tmp_path / "data", tmp_path / "run"
    generate_dataset(n, 2, data, DataSpec(grid=4))
    dataset = load_dataset(data)
    cfg = MllmConfig(grid=4, d_l=16, layers=2, heads=2, target_layer=1, seed=3,
                     dataset=str(data), out_dir=str(run), steps=3, batch_size=4)
    t = Trainer(cfg, dataset, steps=cfg.steps, batch_size=cfg.batch_size)
    t.run(run / "train_log.csv", lambda report: None)
    (run / "config.json").write_text(json.dumps(cfg.to_dict()))
    save_checkpoint(t.params, run / "checkpoint.prea")
    return data, run, dataset, t


def test_dump_encodes_with_the_encoder_matrix_training_used(tmp_path):
    # The checkpoint holds no encoder matrix: loading draws the frozen float64
    # matrix from the run seed, bit for bit the one training used.
    data, run, dataset, t = trained_run(tmp_path)
    cfg = t.params.cfg
    loaded = load_checkpoint(cfg, run / "checkpoint.prea")
    assert loaded.wv.dtype == t.params.wv.dtype == np.float64
    assert loaded.wv.tobytes() == t.params.wv.tobytes()

    assert main(["dump", "--run", str(run), "--data", str(data),
                 "--out", str(tmp_path / "hidden.prea")]) == 0
    dumped = read_archive(tmp_path / "hidden.prea")
    examples = dataset.splits["probe-train"] + dataset.splits["probe-test"]
    want = make_batch(t.params, examples).z.astype(np.float32)
    for ex, z in zip(examples, want):
        assert dumped[f"ex{ex.id:08d}/z"].tobytes() == z.tobytes(), ex.id


@pytest.mark.parametrize("batch", [3, cli.DUMP_BATCH])
def test_dump_states_are_one_trace_of_all_examples(tmp_path, monkeypatch, batch):
    # 100 examples give more probe examples than DUMP_BATCH, and 3 an uneven
    # last batch: the batch size must not move a bit of any state
    data, run, dataset, t = trained_run(tmp_path, n=100)
    examples = dataset.splits["probe-train"] + dataset.splits["probe-test"]
    assert len(examples) > cli.DUMP_BATCH
    monkeypatch.setattr(cli, "DUMP_BATCH", batch)
    assert main(["dump", "--run", str(run), "--data", str(data),
                 "--out", str(tmp_path / "hidden.prea")]) == 0
    dumped = read_archive(tmp_path / "hidden.prea")
    params = load_checkpoint(t.params.cfg, run / "checkpoint.prea")
    with ad.no_grad():
        b = make_batch(params, examples)
        trace = llm_forward(params, b.z, b.prompts)
    for layer in range(t.params.cfg.layers + 1):
        states = trace.visual(layer).value.astype(np.float32)
        for ex, want in zip(examples, states):
            assert dumped[f"ex{ex.id:08d}/hv{layer:02d}"].tobytes() == want.tobytes()

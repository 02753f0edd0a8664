"""Training tests: byte-identical losses for a fixed seed, the prediction
loss reported as NaN when lambda is 0, and a non-finite loss or gradient
norm stopping the step, before any parameter changes, with an error that
names the component, a dataset that does not match the model refused, a
warm train step faulting in no fresh memory, a train step that runs in
float32 throughout while a float64 model stays float64, a checkpoint that
round-trips the trained parameters bit for bit, and a dump that encodes
images with the encoder matrix training used."""

import json
import math
import platform

import numpy as np
import pytest

from prelab import autodiff as ad
from prelab import model, training
from prelab.archive import read_archive
from prelab.cli import RunConfig, main
from prelab.data import DataSpec, generate_dataset, load_dataset
from prelab.model import (MllmConfig, MllmParams, NonFiniteLossError, llm_forward,
                          load_checkpoint, save_checkpoint, total_loss)
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


@pytest.mark.parametrize("field, value, message", [
    ("grid", 5, "dataset has grid 4, the run has 5"),
    ("patch", 2, "dataset has patch 4, the run has 2"),
    ("vocab", 65, "dataset has vocab 64, the run has 65"),
])
def test_trainer_refuses_a_mismatched_dataset(dataset, field, value, message):
    cfg = MllmConfig(grid=4, d_l=16, layers=2, heads=2, target_layer=1)
    setattr(cfg, field, value)
    with pytest.raises(ValueError, match=f"^{message}$"):
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
    return [p.value.tobytes() for p in t.opt.params]


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


def backward_dtypes(loss) -> set:
    """Run ad.backward(loss) and return the dtypes met on its tape, as
    {(what, dtype)}: every node value, and every gradient a backward
    closure returns."""
    seen, nodes, stack = set(), {}, [loss]
    while stack:
        node = stack.pop()
        if node.id not in nodes:
            nodes[node.id] = node
            stack.extend(node.parents)

    def watched(op, fn):
        def bk(g):
            grads = fn(g)
            seen.update((f"{op} gradient", pg.dtype) for pg in grads if pg is not None)
            return grads
        return bk

    for node in nodes.values():
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
    for p in t.opt.params:
        arrays = (p.value, p.grad, t.opt.m[p.name], t.opt.v[p.name])
        assert [a.dtype for a in arrays] == [np.float32] * 4, p.name


def test_float64_model_stays_float64(dataset):
    cfg = MllmConfig(grid=4, d_l=16, layers=2, heads=2, target_layer=1, seed=3)
    params = MllmParams(cfg)
    cast_to_float64(params.trainable())
    batch = make_batch(params, cfg, dataset.splits["train"][:4])
    total = total_loss(llm_forward(params, batch.z, batch.prompts, batch.answers),
                       batch.answers, params)[0]
    assert off_dtype(backward_dtypes(total), np.float64) == []
    assert all(p.grad.dtype == np.float64 and p.grad.any() for p in params.trainable())


def test_checkpoint_round_trips_trained_parameters_bitwise(dataset, tmp_path):
    t = trainer(dataset)
    t.run(tmp_path / "log.csv", lambda report: None)
    save_checkpoint(t.params, tmp_path / "checkpoint.prea")
    loaded = load_checkpoint(t.cfg, tmp_path / "checkpoint.prea")
    for trained, back in zip(t.params.trainable(), loaded.trainable()):
        assert back.name == trained.name
        assert back.value.dtype == trained.value.dtype == np.float32
        assert back.value.tobytes() == trained.value.tobytes(), trained.name


def test_dump_encodes_with_the_encoder_matrix_training_used(tmp_path):
    # The checkpoint holds no encoder matrix: loading draws the frozen float64
    # matrix from the run seed, bit for bit the one training used.
    data, run = tmp_path / "data", tmp_path / "run"
    generate_dataset(40, 2, data, DataSpec(grid=4))
    dataset = load_dataset(data)
    cfg = RunConfig(grid=4, d_l=16, layers=2, heads=2, target_layer=1, seed=3,
                    dataset=str(data), out_dir=str(run), steps=3, batch_size=4)
    t = Trainer(cfg, dataset, steps=cfg.steps, batch_size=cfg.batch_size)
    t.run(run / "train_log.csv", lambda report: None)
    (run / "config.json").write_text(json.dumps(cfg.to_dict()))
    save_checkpoint(t.params, run / "checkpoint.prea")
    loaded = load_checkpoint(cfg, run / "checkpoint.prea")
    assert loaded.wv.dtype == t.params.wv.dtype == np.float64
    assert loaded.wv.tobytes() == t.params.wv.tobytes()

    assert main(["dump", "--run", str(run), "--data", str(data),
                 "--out", str(tmp_path / "hidden.prea")]) == 0
    dumped = read_archive(tmp_path / "hidden.prea")
    examples = dataset.splits["probe-train"] + dataset.splits["probe-test"]
    want = make_batch(t.params, cfg, examples).z.astype(np.float32)
    for ex, z in zip(examples, want):
        assert dumped[f"ex{ex.id:08d}/z"].tobytes() == z.tobytes(), ex.id

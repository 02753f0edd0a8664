"""Training tests: byte-identical losses for a fixed seed, the prediction
loss reported as NaN when lambda is 0, and a non-finite loss or gradient
norm stopping the step, before any parameter changes, with an error that
names the component, a dataset that does not match the model refused, and
a warm train step faulting in no fresh memory."""

import math
import platform

import numpy as np
import pytest

from prelab import autodiff as ad
from prelab import model, training
from prelab.data import DataSpec, generate_dataset, load_dataset
from prelab.model import MllmConfig, NonFiniteLossError
from prelab.training import LOG_HEADER, Trainer, train_step


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

"""Training loop: batch assembly, the regularized training step, and the
per-step CSV log (losses only, so it is byte-deterministic for a fixed
seed; step wall times are reported on each StepReport)."""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .data import VOCAB_SIZE, Dataset
from .model import (MllmConfig, MllmParams, NonFiniteLossError, encode_image, llm_forward,
                    total_loss)
from .numerics import RngStream
from .optim import AdamW, WarmupCosine, grad_norm

LOG_HEADER = "step,lm_loss,pre_loss,total_loss,grad_norm"
DIVERGED_LM_FACTOR = 10.0


@dataclass
class Batch:
    z: np.ndarray        # [B, N_p, D_V]
    prompts: np.ndarray  # [B, PROMPT_LEN]
    answers: np.ndarray  # [B], one answer token each


@dataclass
class StepReport:
    step: int
    lm: float
    pre: float  # nan when the auxiliary loss is disabled
    total: float
    grad_norm: float
    wall_time: float

    def csv_row(self) -> str:
        return (f"{self.step},{self.lm!r},{self.pre!r},{self.total!r},"
                f"{self.grad_norm!r}")


def make_batch(params: MllmParams, examples) -> Batch:
    images = np.stack([ex.image for ex in examples])
    z = encode_image(params, images)
    prompts = np.stack([ex.prompt for ex in examples])
    answers = np.concatenate([ex.answer for ex in examples])
    return Batch(z=z, prompts=prompts, answers=answers)


def _check_losses(lm: ad.Node, pre, total: ad.Node) -> None:
    if not np.isfinite(lm.value):
        raise NonFiniteLossError(f"language-model loss is non-finite: {float(lm.value)}")
    lm_limit = DIVERGED_LM_FACTOR * np.log(VOCAB_SIZE)
    if lm.value > lm_limit:
        raise NonFiniteLossError(f"language-model loss diverged: {float(lm.value)!r} > "
                                 f"{DIVERGED_LM_FACTOR:g} ln(vocab) = {lm_limit:.4g}")
    for what, loss in (("prediction", pre), ("total", total)):
        if loss is not None and not np.isfinite(loss.value):
            raise NonFiniteLossError(f"{what} loss is non-finite: {float(loss.value)}")


def train_step(params: MllmParams, opt: AdamW, batch: Batch) -> StepReport:
    """One optimization step: forward, both losses, backward, AdamW update.

    Raises NonFiniteLossError, naming the offending quantity, before any
    parameter changes. The checks run in this order:
      1. the LM loss is NaN or Inf;
      2. the LM loss exceeds DIVERGED_LM_FACTOR * ln(vocab) (41.6 at vocab
         64), ten times chance level, which only a diverged run reaches;
      3. the prediction loss, then the total loss, is NaN or Inf;
      4. the gradient norm is NaN or Inf.
    The LM loss comes first because a diverging float32 run can overflow its
    prediction loss to NaN at the step its LM loss explodes, and the error
    should name the cause. The CLI exits 1.
    """
    if batch.z.shape[0] == 0:
        raise ValueError("empty batch")
    t0 = time.perf_counter()
    reads_last_layer = params.cfg.lam > 0 and params.cfg.target_layer == params.cfg.layers
    trace = llm_forward(params, batch.z, batch.prompts, answer_row_only=not reads_last_layer)
    total, lm, pre = total_loss(trace, batch.answers, params)
    _check_losses(lm, pre, total)
    opt.zero_grad()
    ad.backward(total)
    gnorm = grad_norm(opt.flat_grad)
    if not np.isfinite(gnorm):
        raise NonFiniteLossError(f"gradient norm is non-finite: {gnorm!r}")
    opt.step()
    wall = time.perf_counter() - t0
    return StepReport(step=opt.step_count, lm=float(lm.value),
                      pre=float(pre.value) if pre is not None else float("nan"),
                      total=float(total.value), grad_norm=gnorm, wall_time=wall)


def check_dataset_matches(dataset: Dataset, cfg: MllmConfig) -> None:
    """Raise ValueError if the dataset's grid is not cfg's."""
    if dataset.spec.grid != cfg.grid:
        raise ValueError(f"dataset has grid {dataset.spec.grid}, the run has {cfg.grid}")


class Trainer:
    """Deterministic single-threaded trainer over a generated dataset.

    The optimizer is AdamW with no weight decay, at a warmup + cosine
    schedule from cfg.lr that spans `steps`. Batch sampling draws uniformly
    (with replacement) from the train split using a stream keyed only by the
    run seed, so two configs with the same seed see identical batches.
    """

    def __init__(self, cfg: MllmConfig, dataset: Dataset, steps: int, batch_size: int):
        check_dataset_matches(dataset, cfg)
        self.steps = steps
        self.batch_size = batch_size
        self.params = MllmParams(cfg)
        self.opt = AdamW(self.params.trainable(), WarmupCosine(cfg.lr, steps))
        self.batch_rng = RngStream(cfg.seed).split("batches")
        self.train_examples = dataset.splits["train"]
        if not self.train_examples:
            raise ValueError("train split is empty")

    def sample_batch(self) -> Batch:
        idx = self.batch_rng.integers(0, len(self.train_examples), size=self.batch_size)
        return make_batch(self.params, [self.train_examples[i] for i in idx])

    def run(self, log_path, on_step) -> list:
        """Run self.steps optimization steps, streaming each StepReport to the
        CSV log at log_path and to on_step; returns the reports."""
        reports = []
        Path(log_path).parent.mkdir(parents=True, exist_ok=True)
        with open(log_path, "w") as log_file:
            log_file.write(LOG_HEADER + "\n")
            for _ in range(self.steps):
                report = train_step(self.params, self.opt, self.sample_batch())
                reports.append(report)
                log_file.write(report.csv_row() + "\n")
                on_step(report)
        return reports

"""Command-line surface: gen-data, train, dump, metrics, report.

Exit codes: 0 success, 2 validation error (bad flags or config, or a
dataset that does not match the run), 1 runtime error. Every output is
byte-deterministic for fixed inputs and seeds, except train_time.csv,
which holds the per-step wall times of a training run.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from . import autodiff as ad
from .data import DataSpec, Dataset, generate_dataset, load_dataset, token_name
from .diagnostics import (linear_probe, logit_lens, patch_metrics_over_images,
                          pca_effective_dim, pool_global, redundancy, similarity_map)
from .model import (ANCHOR_PRE_LLM, ANCHOR_PRE_PROJ, MllmConfig, llm_forward,
                    load_checkpoint, lm_loss, dump_hidden_states, read_hidden_states,
                    save_checkpoint)
from .reports import MetricsReport, config_hash, read_metrics_csv, write_comparison
from .training import Trainer, check_dataset_matches, make_batch


class ConfigError(ValueError):
    """Invalid run configuration or command arguments."""


@dataclass
class RunConfig(MllmConfig):
    """Everything a training run needs: the model fields it inherits plus
    the run fields below; serialized flat next to its outputs."""

    dataset: str = ""
    out_dir: str = ""
    steps: int = 500
    batch_size: int = 8
    lr: float = 3e-4
    weight_decay: float = 0.0
    warmup_frac: float = 0.03
    use_schedule: bool = True
    diag_every: int = 0

    def validate(self) -> None:
        try:
            super().validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.steps < 1:
            raise ConfigError(f"steps must be >= 1, got {self.steps}")
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be >= 1, got {self.batch_size}")
        if self.lr < 0:
            raise ConfigError(f"learning rate must be >= 0, got {self.lr}")
        if not 0 <= self.warmup_frac < 1:
            raise ConfigError(f"warmup fraction must be in [0, 1), got {self.warmup_frac}")
        if self.diag_every < 0:
            raise ConfigError(f"diag cadence must be >= 0, got {self.diag_every}")


_RUN_FIELDS = {f.name for f in fields(RunConfig)}


def run_config_from_dict(raw: dict) -> RunConfig:
    """Strict constructor: unknown keys are rejected, never ignored (a typo
    in a knob name must not silently run a different experiment)."""
    unknown = set(raw) - _RUN_FIELDS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    cfg = RunConfig(**raw)
    cfg.validate()
    return cfg


def load_run_config(path) -> RunConfig:
    return run_config_from_dict(json.loads(Path(path).read_text()))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_gen_data(args) -> int:
    if args.n < 1:
        raise ConfigError(f"--n must be >= 1, got {args.n}")
    spec = DataSpec(grid=args.grid, patch=args.patch, num_classes=args.classes,
                    min_objects=args.min_objects, max_objects=args.max_objects)
    try:
        spec.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    out = Path(args.out)
    manifest = generate_dataset(args.n, args.seed, out, spec)
    print(f"dataset written to {out}")
    print(f"  n={manifest['n']} seed={manifest['seed']} "
          f"splits={manifest['counts']}")
    return 0


# Run fields whose flag is not "--" + the field name with dashes, or that
# take more than a type and a default. Every other field but _NO_FLAG gets
# a plain flag typed and defaulted from RunConfig.
_FLAG_SPECS = {
    "dataset": {"flag": "--data", "required": True, "metavar": "DATA",
                "help": "dataset directory"},
    "out_dir": {"flag": "--out", "required": True, "metavar": "OUT",
                "help": "run output directory"},
    "lam": {"flag": "--lambda", "type": float, "default": RunConfig.lam,
            "help": "auxiliary loss weight; 0 runs the pure baseline"},
    "anchor": {"choices": [ANCHOR_PRE_LLM, ANCHOR_PRE_PROJ], "default": RunConfig.anchor},
    "use_schedule": {"flag": "--no-schedule", "action": "store_false",
                     "help": "constant learning rate instead of warmup+cosine"},
}
_NO_FLAG = ("vocab", "prompt_len")


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    model_fields = fields(MllmConfig)
    for f in fields(RunConfig)[len(model_fields):] + model_fields:  # run flags first
        if f.name in _NO_FLAG:
            continue
        spec = dict(_FLAG_SPECS.get(f.name, {"type": type(f.default), "default": f.default}))
        flag = spec.pop("flag", "--" + f.name.replace("_", "-"))
        p.add_argument(flag, dest=f.name, **spec)


def _run_config_from_args(args) -> RunConfig:
    return run_config_from_dict({k: v for k, v in vars(args).items() if k in _RUN_FIELDS})


def _load_dataset_checked(path, run_cfg: RunConfig) -> Dataset:
    """Load a dataset, refusing (exit 2) one whose patch grid, patch size or
    vocabulary differ from the run's."""
    path = Path(path)
    if not (path / "manifest.json").exists():
        raise ConfigError(f"no dataset manifest in {path}")
    dataset = load_dataset(path)
    try:
        check_dataset_matches(dataset, run_cfg)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return dataset


def cmd_train(args) -> int:
    run_cfg = _run_config_from_args(args)
    dataset = _load_dataset_checked(run_cfg.dataset, run_cfg)
    out = Path(run_cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(
        json.dumps(run_cfg.to_dict(), indent=2, sort_keys=True) + "\n")

    trainer = Trainer(run_cfg, dataset, steps=run_cfg.steps,
                      batch_size=run_cfg.batch_size, lr=run_cfg.lr,
                      weight_decay=run_cfg.weight_decay,
                      warmup_frac=run_cfg.warmup_frac,
                      use_schedule=run_cfg.use_schedule)

    eval_rows = []

    def on_step(report):
        if run_cfg.diag_every and report.step % run_cfg.diag_every == 0:
            eval_rows.append((report.step, _held_out_lm(trainer, dataset)))

    reports = trainer.run(log_path=out / "train_log.csv", on_step=on_step)
    save_checkpoint(trainer.params, out / "checkpoint.prea")
    lines = ["step,wall_time"] + [f"{r.step},{r.wall_time:.6f}" for r in reports]
    (out / "train_time.csv").write_text("\n".join(lines) + "\n")
    if eval_rows:
        lines = ["step,eval_lm"] + [f"{s},{v!r}" for s, v in eval_rows]
        (out / "eval.csv").write_text("\n".join(lines) + "\n")
    last = reports[-1]
    print(f"run {config_hash(run_cfg.to_dict())} finished: {len(reports)} steps, "
          f"final lm {last.lm:.4f}, total {last.total:.4f}")
    print(f"  log {out / 'train_log.csv'}  checkpoint {out / 'checkpoint.prea'}")
    return 0


def _held_out_lm(trainer, dataset, limit: int = 64) -> float:
    examples = dataset.splits["probe-train"][:limit]
    if not examples:
        return float("nan")
    batch = make_batch(trainer.params, trainer.cfg, examples)
    with ad.no_grad():
        trace = llm_forward(trainer.params, batch.z, batch.prompts, batch.answers)
        return float(lm_loss(trace, batch.answers).value)


def _load_run(run_dir):
    run_dir = Path(run_dir)
    cfg_path = run_dir / "config.json"
    ckpt_path = run_dir / "checkpoint.prea"
    if not cfg_path.exists():
        raise ConfigError(f"no config.json in {run_dir}")
    if not ckpt_path.exists():
        raise ConfigError(f"no checkpoint.prea in {run_dir}")
    run_cfg = load_run_config(cfg_path)
    params = load_checkpoint(run_cfg, ckpt_path)
    return run_cfg, params


def cmd_dump(args) -> int:
    """Trace both probe splits, the examples `metrics` reads."""
    run_cfg, params = _load_run(args.run)
    dataset = _load_dataset_checked(args.data, run_cfg)
    examples = dataset.splits["probe-train"] + dataset.splits["probe-test"]
    if not examples:
        raise ConfigError(f"the probe splits of {args.data} have no examples")
    traces, ids = [], []
    with ad.no_grad():
        for i in range(0, len(examples), 50):
            chunk = examples[i : i + 50]
            batch = make_batch(params, run_cfg, chunk)
            traces.append(llm_forward(params, batch.z, batch.prompts, batch.answers))
            ids.extend(ex.id for ex in chunk)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    dump_hidden_states(traces, ids, out, grid=run_cfg.grid)
    print(f"dumped {len(ids)} examples x {run_cfg.layers + 2} visual tensors to {out}")
    return 0


def _default_sim_choice(dataset, ids):
    """First probe-test example (by id) with >= 2 distinct classes; probe
    patch is the first object patch in row-major order."""
    by_id = {ex.id: ex for ex in dataset.splits["probe-test"]}
    for ex_id in ids:
        ex = by_id.get(ex_id)
        if ex is None:
            continue
        classes = np.unique(ex.labels[ex.labels > 0])
        if classes.size >= 2:
            flat = ex.labels.ravel()
            return ex_id, int(np.nonzero(flat > 0)[0][0])
    return ids[0], 0


def cmd_metrics(args) -> int:
    run_cfg, params = _load_run(args.run)
    dataset = _load_dataset_checked(args.data, run_cfg)
    grid, hidden = read_hidden_states(args.hidden)
    if grid != run_cfg.grid:
        raise ConfigError(f"hidden states grid {grid} != run grid {run_cfg.grid}")
    ids = sorted(hidden)
    n_layers = len(hidden[ids[0]]["layers"])

    split_of = {}
    meta_of = {}
    for name in ("probe-train", "probe-test"):
        for ex in dataset.splits[name]:
            split_of[ex.id] = name
            meta_of[ex.id] = ex
    missing = [i for i in ids if i not in meta_of]
    if missing:
        raise ConfigError(f"{len(missing)} dumped examples not in the dataset's probe "
                          f"splits (first: {missing[0]})")

    labels_per_image = [meta_of[i].labels for i in ids]
    probe_labels = np.array([meta_of[i].probe_label for i in ids])
    train_idx = np.array([k for k, i in enumerate(ids) if split_of[i] == "probe-train"])
    test_idx = np.array([k for k, i in enumerate(ids) if split_of[i] == "probe-test"])
    if train_idx.size == 0 or test_idx.size == 0:
        raise ConfigError("metrics needs examples from both probe splits")

    # the probe patch of the similarity maps
    sim_id = args.sim_example
    sim_patch = args.sim_patch
    if sim_id is None:
        sim_id, default_patch = _default_sim_choice(dataset, ids)
        if sim_patch is None:
            sim_patch = default_patch
    elif sim_patch is None:
        sim_patch = 0
    if sim_id not in hidden:
        raise ConfigError(f"similarity example {sim_id} not in the hidden archive")
    if not 0 <= sim_patch < grid * grid:
        raise ConfigError(f"--sim-patch {sim_patch} outside [0, {grid * grid}) "
                          f"for a {grid}x{grid} grid")

    def layer_features(layer):
        return [hidden[i]["layers"][layer] for i in ids]

    pooled_by_layer = [np.stack([pool_global(f) for f in layer_features(l)])
                       for l in range(n_layers)]
    probe_accs = linear_probe(pooled_by_layer, probe_labels, train_idx, test_idx)

    patch_metrics = [patch_metrics_over_images(layer_features(l), labels_per_image)
                     for l in range(n_layers)]

    rows = []
    for layer, (pm, pooled) in enumerate(zip(patch_metrics, pooled_by_layer)):
        rows.append({"layer": layer, "probe_acc": probe_accs[layer],
                     "cohesion": pm.cohesion, "coupling": pm.coupling,
                     "contrast": pm.contrast, "eff_dim": pca_effective_dim(pooled),
                     "redundancy": redundancy(pooled)})

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for layer in range(n_layers):
        grid_vals = similarity_map(hidden[sim_id]["layers"][layer], sim_patch, grid=grid)
        lines = [" ".join(repr(float(v)) for v in row) for row in grid_vals]
        (out / f"simmap_layer{layer:02d}.txt").write_text("\n".join(lines) + "\n")

    # logit lens through the run's output head
    lens = logit_lens([np.concatenate(layer_features(l)) for l in range(n_layers)],
                      params.ln_f.gamma.value, params.ln_f.beta.value,
                      params.head.w.value, params.head.b.value)
    lens_rows = [{"layer": d.layer,
                  "top": [(tok, token_name(tok), mass) for tok, mass in d.top_tokens]}
                 for d in lens]
    with open(out / "logitlens.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["layer", "rank", "token", "token_name", "mass"])
        for entry in lens_rows:
            for rank, (tok, name, mass) in enumerate(entry["top"], 1):
                writer.writerow([entry["layer"], rank, tok, name, repr(float(mass))])

    meta = {
        "version": __version__,
        "config": run_cfg.to_dict(),
        "config_hash": config_hash(run_cfg.to_dict()),
        "seed": run_cfg.seed,
        "n_examples": len(ids),
        "n_layers": n_layers,
        "sim_example": int(sim_id),
        "sim_patch": int(sim_patch),
        "floored_images_per_layer": [pm.n_floored for pm in patch_metrics],
        "coupling_images_per_layer": [pm.n_coupling_images for pm in patch_metrics],
    }
    MetricsReport(rows=rows, meta=meta).write(out)
    print(f"metrics for {len(ids)} examples x {n_layers} layers -> {out / 'metrics.csv'}")
    return 0


def _read_metrics_dir(path):
    path = Path(path)
    for name in ("metrics.csv", "summary.json", "logitlens.csv"):
        if not (path / name).exists():
            raise ConfigError(f"no {name} in {path}")
    rows = read_metrics_csv(path / "metrics.csv")
    meta = json.loads((path / "summary.json").read_text())
    if config_hash(meta["config"]) != meta["config_hash"]:
        raise ConfigError(f"config hash mismatch in {path / 'summary.json'}")
    by_layer = {}
    with open(path / "logitlens.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            by_layer.setdefault(int(row["layer"]), []).append(
                (int(row["token"]), row["token_name"], float(row["mass"])))
    lens_rows = [{"layer": layer, "top": tops}
                 for layer, tops in sorted(by_layer.items())]
    sims = {}
    for f in sorted(path.glob("simmap_layer*.txt")):
        layer = int(f.stem.replace("simmap_layer", ""))
        sims[layer] = np.array([[float(v) for v in line.split()]
                                for line in f.read_text().splitlines() if line])
    return rows, meta, lens_rows, sims


def cmd_report(args) -> int:
    b_rows, b_meta, b_lens, b_sims = _read_metrics_dir(args.baseline)
    p_rows, p_meta, p_lens, p_sims = _read_metrics_dir(args.pre)
    if len(b_rows) != len(p_rows):
        raise ConfigError("metric tables have different layer counts")
    for key in ("sim_example", "sim_patch"):
        if b_meta[key] != p_meta[key]:
            raise ConfigError(f"similarity maps probe different patches: {key} "
                              f"{b_meta[key]} (baseline) vs {p_meta[key]} (+aux)")
    common = sorted(set(b_sims) & set(p_sims))
    sim_layers = args.sim_layers or common
    absent = [l for l in sim_layers if l not in common]
    if absent:
        raise ConfigError(f"--sim-layers {absent} have no similarity map in both metrics "
                          f"directories (layers with one: {common})")
    out = Path(args.out)
    write_comparison(
        b_rows, p_rows, out,
        baseline_sim={l: b_sims[l] for l in sim_layers},
        pre_sim={l: p_sims[l] for l in sim_layers},
        sim_probe_index=b_meta["sim_patch"],
        baseline_lens=b_lens, pre_lens=p_lens,
    )
    mid = len(b_rows) // 2
    lines = [
        f"comparison of {b_meta['config_hash']} (baseline) vs {p_meta['config_hash']} (+aux)",
        f"layers: {len(b_rows) - 1} + input; mid layer = {mid}",
        "",
        f"probe accuracy  L0 {b_rows[0]['probe_acc']:.3f} -> mid "
        f"{b_rows[mid]['probe_acc']:.3f} (baseline), {p_rows[mid]['probe_acc']:.3f} (+aux)",
        f"contrast        L0 {b_rows[0]['contrast']:.3f} -> mid "
        f"{b_rows[mid]['contrast']:.3f} (baseline), {p_rows[mid]['contrast']:.3f} (+aux)",
        f"mid-layer degradation (baseline contrast, L0 - mid): "
        f"{b_rows[0]['contrast'] - b_rows[mid]['contrast']:+.3f}",
        f"mid-layer aux effect (contrast, +aux - baseline): "
        f"{p_rows[mid]['contrast'] - b_rows[mid]['contrast']:+.3f}",
    ]
    (out / "summary.txt").write_text("\n".join(lines) + "\n")
    print(f"report written to {out}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prelab",
        description="toy multimodal decoder lab: train with or without "
                    "predictive patch regularization and measure per-layer "
                    "visual representation quality")
    parser.add_argument("--version", action="version", version=f"prelab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--grid", type=int, default=8)
    p.add_argument("--patch", type=int, default=4)
    p.add_argument("--classes", type=int, default=10)
    p.add_argument("--min-objects", type=int, default=1)
    p.add_argument("--max-objects", type=int, default=4)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train", help="train the toy model")
    _add_run_flags(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("dump", help="dump per-layer visual hidden states of the probe splits")
    p.add_argument("--run", required=True, help="training run directory")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output archive file")
    p.set_defaults(fn=cmd_dump)

    p = sub.add_parser("metrics", help="compute per-layer diagnostics")
    p.add_argument("--hidden", required=True, help="hidden-state archive")
    p.add_argument("--data", required=True)
    p.add_argument("--run", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--sim-example", type=int, default=None)
    p.add_argument("--sim-patch", type=int, default=None)
    p.set_defaults(fn=cmd_metrics)

    p = sub.add_parser("report", help="compare two metric reports")
    p.add_argument("--baseline", required=True, help="baseline metrics directory")
    p.add_argument("--pre", required=True, help="regularized metrics directory")
    p.add_argument("--out", required=True)
    p.add_argument("--sim-layers", type=int, nargs="*", default=None)
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

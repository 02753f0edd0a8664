"""Command-line surface: gen-data, train, dump, metrics, report.

Exit codes: 0 success, 2 validation error (bad flags or config, a
config.json that is not a JSON object, a dataset that does not match the
run, a dump that is not the run's, or a metrics directory that lacks a
file, a layer's map or metrics row included, or whose similarity map is
not the run's grid), 1 runtime error. Every output is byte-deterministic
for fixed inputs and seeds, except train_time.csv, which holds the
per-step wall times of a training run.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from . import autodiff as ad
from .data import PROBE_SPLITS, DataSpec, Dataset, generate_dataset, load_dataset
from .diagnostics import layer_metrics, logit_lens, similarity_map
from .model import (ANCHORS, D_V, MllmConfig, llm_forward, load_checkpoint,
                    dump_hidden_states, read_hidden_states, save_checkpoint)
from .numerics import ConfigError
from .reports import (MetricsDirError, config_hash, read_metrics, write_comparison,
                      write_metrics)
from .training import Trainer, check_dataset_matches, make_batch

DUMP_BATCH = 16  # examples per forward: [16, 68, 128] float32 temporaries (0.6 MB) fit a 2 MB L2
HELD_OUT_LM_EXAMPLES = 64  # probe-train examples behind --diag-every's eval_lm


_RUN_FIELDS = {f.name: type(f.default) for f in fields(MllmConfig)}


def run_config_from_dict(raw: dict) -> MllmConfig:
    """Strict constructor: unknown keys are rejected, never ignored (a typo
    in a knob name must not silently run a different experiment), and so is
    a value of another type than its field's: an int field takes an int, a
    float field a float or an int, read as a float (1 and 1.0 hash as one
    config), a str field a str, and no field a bool."""
    unknown = raw.keys() - _RUN_FIELDS.keys()
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    values = {}
    for key, value in raw.items():
        want = _RUN_FIELDS[key]
        if type(value) not in ((int, float) if want is float else (want,)):  # a bool is no int
            raise ConfigError(f"config key {key!r} must be {want.__name__}, got {value!r}")
        try:
            values[key] = want(value)
        except OverflowError:
            raise ConfigError(
                f"config key {key!r} must be float, got an int too large for one") from None
    cfg = MllmConfig(**values)
    cfg.validate()
    return cfg


def load_run_config(path) -> MllmConfig:
    """The config of a run's config.json; ConfigError, naming the file, for
    one that is not a JSON object."""
    try:
        raw = json.loads(Path(path).read_text())
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError alike
        raise ConfigError(f"{path}: not a JSON config: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: the config is not a JSON object")
    return run_config_from_dict(raw)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_gen_data(args) -> int:
    out = Path(args.out)
    manifest = generate_dataset(args.n, args.seed, out, DataSpec(grid=args.grid))
    print(f"dataset written to {out}")
    print(f"  n={manifest['n']} seed={manifest['seed']} "
          f"splits={manifest['counts']}")
    return 0


# Config fields whose flag is not "--" + the field name with dashes, or
# that take more than a type and a default. Every other field gets a plain
# flag typed and defaulted from MllmConfig.
_FLAG_SPECS = {
    "dataset": {"flag": "--data", "required": True, "metavar": "DATA",
                "help": "dataset directory"},
    "out_dir": {"flag": "--out", "required": True, "metavar": "OUT",
                "help": "run output directory"},
    "lam": {"flag": "--lambda", "type": float, "default": MllmConfig.lam,
            "help": "auxiliary loss weight; 0 runs the pure baseline"},
    "anchor": {"choices": ANCHORS, "default": MllmConfig.anchor},
}


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    for f in fields(MllmConfig):
        spec = dict(_FLAG_SPECS.get(f.name, {"type": type(f.default), "default": f.default}))
        flag = spec.pop("flag", "--" + f.name.replace("_", "-"))
        p.add_argument(flag, dest=f.name, **spec)


def _run_config_from_args(args) -> MllmConfig:
    return run_config_from_dict({k: v for k, v in vars(args).items() if k in _RUN_FIELDS})


def _load_dataset_checked(path, run_cfg: MllmConfig, splits) -> Dataset:
    """Load the named splits of a dataset, refusing (exit 2) one whose patch
    grid differs from the run's."""
    path = Path(path)
    if not (path / "manifest.json").exists():
        raise ConfigError(f"no dataset manifest in {path}")
    dataset = load_dataset(path, splits)
    try:
        check_dataset_matches(dataset, run_cfg)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return dataset


def cmd_train(args) -> int:
    run_cfg = _run_config_from_args(args)
    # only the held-out LM loss of --diag-every reads probe-train
    splits = ("train", "probe-train") if run_cfg.diag_every else ("train",)
    dataset = _load_dataset_checked(run_cfg.dataset, run_cfg, splits)
    out = Path(run_cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # an earlier run's outputs must not pass as this run's if it fails;
    # Trainer.run rewrites train_log.csv from its first step
    for name in ("checkpoint.prea", "train_time.csv", "eval.csv"):
        (out / name).unlink(missing_ok=True)
    (out / "config.json").write_text(
        json.dumps(run_cfg.to_dict(), indent=2, sort_keys=True) + "\n")

    trainer = Trainer(run_cfg, dataset, steps=run_cfg.steps, batch_size=run_cfg.batch_size)

    eval_rows = []

    def on_step(report):
        if run_cfg.diag_every and report.step % run_cfg.diag_every == 0:
            eval_rows.append((report.step, _held_out_lm(trainer.params, dataset)))

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


def _held_out_lm(params, dataset) -> float:
    examples = dataset.splits["probe-train"][:HELD_OUT_LM_EXAMPLES]
    if not examples:
        return float("nan")
    batch = make_batch(params, examples)
    with ad.no_grad():
        trace = llm_forward(params, batch.z, batch.prompts, answer_row_only=True)
        return float(ad.cross_entropy(trace.logits, batch.answers).value)


def _load_run(run_dir):
    run_dir = Path(run_dir)
    cfg_path = run_dir / "config.json"
    ckpt_path = run_dir / "checkpoint.prea"
    if not cfg_path.exists():
        raise ConfigError(f"no config.json in {run_dir}")
    if not ckpt_path.exists():
        raise ConfigError(f"no checkpoint.prea in {run_dir}")
    run_cfg = load_run_config(cfg_path)
    try:
        return run_cfg, load_checkpoint(run_cfg, ckpt_path)
    except ValueError as exc:
        raise ValueError(f"{ckpt_path}: {exc}") from None


def _probe_splits(path, run_cfg: MllmConfig) -> tuple:
    """The probe-train and probe-test examples, each in id order, that dump
    writes and metrics reads; exit 2 if either split is empty."""
    dataset = _load_dataset_checked(path, run_cfg, PROBE_SPLITS)
    empty = [name for name in PROBE_SPLITS if not dataset.splits[name]]
    if empty:
        raise ConfigError(f"the {' and '.join(empty)} split of {path} has no examples; "
                          f"metrics needs both probe splits")
    return dataset.splits["probe-train"], dataset.splits["probe-test"]


def _trace_examples(params, examples) -> tuple:
    """Trace `examples` DUMP_BATCH at a time: their encoder features z
    [N, N_p, D_V] and visual states hv [L+1, N, N_p, d_l], in float32.
    The BLAS may round a row apart in a batch of another size, so the
    states are bit for bit those of another trace only over the same
    batches."""
    cfg = params.cfg
    z = np.empty((len(examples), cfg.n_patches, D_V), dtype=np.float32)
    hv = np.empty((cfg.layers + 1, *z.shape[:2], cfg.d_l), dtype=np.float32)
    with ad.no_grad():
        for i in range(0, len(examples), DUMP_BATCH):
            batch = make_batch(params, examples[i : i + DUMP_BATCH])
            trace = llm_forward(params, batch.z, batch.prompts)
            z[i : i + DUMP_BATCH] = trace.z
            for layer, states in enumerate(hv):
                states[i : i + DUMP_BATCH] = trace.visual(layer).value
    return z, hv


def cmd_dump(args) -> int:
    """Trace both probe splits, probe-train first, the examples `metrics`
    reads, through _trace_examples."""
    run_cfg, params = _load_run(args.run)
    probe_train, probe_test = _probe_splits(args.data, run_cfg)
    examples = probe_train + probe_test
    z, hv = _trace_examples(params, examples)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    dump_hidden_states(out, run_cfg.grid, [ex.id for ex in examples], z, hv)
    print(f"dumped {len(examples)} examples x {run_cfg.layers + 2} visual tensors to {out}")
    return 0


def _sim_probe(probe_test, ids):
    """The similarity maps' probe: the probe-test example of smallest id with
    >= 2 distinct classes, and its first object patch in row-major order;
    without one, the smallest probe id and patch 0."""
    for ex in probe_test:
        if np.unique(ex.labels[ex.labels > 0]).size >= 2:
            return ex.id, int(np.flatnonzero(ex.labels.ravel() > 0)[0])
    return ids[0], 0


def _check_dump_traces_the_run(params, first_batch, ids, hv) -> None:
    """Trace dump's first batch as dump did and raise ValueError unless each
    example's visual states are bit for bit its rows of hv [L+1, N, N_p,
    d_l], whose examples are in the order of ids. A dump of another run or
    dataset of the same shape passes every other check."""
    _, traced = _trace_examples(params, first_batch)
    for row, example in enumerate(first_batch):
        for layer, states in enumerate(hv[:, ids.index(example.id)]):
            if traced[layer, row].tobytes() != states.tobytes():
                raise ValueError(f"entry 'ex{example.id:08d}/hv{layer:02d}' differs from "
                                 f"the run's trace of that example")


def cmd_metrics(args) -> int:
    run_cfg, params = _load_run(args.run)
    probe_train, probe_test = _probe_splits(args.data, run_cfg)
    examples = sorted(probe_train + probe_test, key=lambda ex: ex.id)
    ids = [ex.id for ex in examples]
    n_layers = run_cfg.layers + 1
    try:
        hv = read_hidden_states(args.hidden, ids, run_cfg.layers,
                                (run_cfg.n_patches, run_cfg.d_l))
        _check_dump_traces_the_run(params, (probe_train + probe_test)[:DUMP_BATCH], ids, hv)
    except ValueError as exc:
        raise ConfigError(f"{args.hidden} is not the dump of run {args.run} on the probe "
                          f"splits of {args.data}: {exc}") from None

    labels_per_image = [ex.labels for ex in examples]
    probe_labels = np.array([ex.probe_label for ex in examples])
    in_probe_train = np.isin(ids, [ex.id for ex in probe_train])
    train_idx, test_idx = np.flatnonzero(in_probe_train), np.flatnonzero(~in_probe_train)

    sim_id, sim_patch = _sim_probe(probe_test, ids)
    rows, patch_metrics = layer_metrics(hv, labels_per_image, probe_labels, train_idx, test_idx)

    sims = [similarity_map(states, sim_patch, grid=run_cfg.grid)
            for states in hv[:, ids.index(sim_id)]]
    # logit lens through the run's output head, over every patch of every example
    lens = logit_lens(hv.reshape(n_layers, -1, run_cfg.d_l), params.head)
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
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_metrics(out, rows, meta, lens, sims)
    print(f"metrics for {len(ids)} examples x {n_layers} layers -> {out / 'metrics.csv'}")
    return 0


def cmd_report(args) -> int:
    runs = []
    for path in (args.baseline, args.pre):
        try:
            runs.append(read_metrics(path))
        except MetricsDirError as exc:
            raise ConfigError(str(exc)) from None
        meta = runs[-1][1]
        if config_hash(meta["config"]) != meta["config_hash"]:
            raise ConfigError(f"config hash mismatch in {Path(path) / 'summary.json'}")
    (b_rows, b_meta, *_), (p_rows, p_meta, *_) = runs
    if len(b_rows) != len(p_rows):
        raise ConfigError("metric tables have different layer counts")
    for key in ("sim_example", "sim_patch"):
        if b_meta[key] != p_meta[key]:
            raise ConfigError(f"similarity maps probe different patches: {key} "
                              f"{b_meta[key]} (baseline) vs {p_meta[key]} (+aux)")
    out = Path(args.out)
    write_comparison(*runs, out)
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

    p = sub.add_parser("gen-data", help="write the manifest of a synthetic dataset, "
                                        "whose examples every load generates")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--grid", type=int, default=8)
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
    p.set_defaults(fn=cmd_metrics)

    p = sub.add_parser("report", help="compare two metric reports")
    p.add_argument("--baseline", required=True, help="baseline metrics directory")
    p.add_argument("--pre", required=True, help="regularized metrics directory")
    p.add_argument("--out", required=True)
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

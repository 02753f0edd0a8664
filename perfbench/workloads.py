"""The benchmark's workloads: set-up, the closed measurement loop, and the
correctness checks, for `train-paper`, `train-long-lm` and `analyze`.

Every workload runs in one process on a closed loop: one client, one
thread, each train step or pipeline stage starting after the previous one
ends. Inputs come from the workload seed only.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import io
import math
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from speed import REFERENCE_S, SpeedProbe, at_reference_speed
from tracer import Tracer

PRELAB_MODULES = ("numerics", "autodiff", "layers", "archive", "data", "model",
                  "optim", "training", "diagnostics", "reports", "cli")

BATCH = 8
SCHEDULE_STEPS = 500      # the CLI's default run length; fixes the lr schedule
WARMUP_STEPS = 3          # train steps left out of percentiles and per-step means
WARMUP_PASSES = 1         # analyze passes left out likewise
REF_STEPS = 30            # every train run reaches at least this many steps
REF_WINDOW = 10           # reference loss: mean LM loss over the last steps of REF_STEPS
VERIFY_STEPS = 10         # length of the same-seed re-run in an untraced run
SETUP_REPS = 5            # set-ups per run; setup_s is their median
ANALYZE_SETUP_STEPS = 10  # training steps behind the analyze checkpoint
MIN_PASSES = 3

# Model sizes: the paper's default config, and a tiny one for the smoke test.
FULL_MODEL = {"layers": 8, "d_l": 64, "heads": 4, "target_layer": 4}
TINY_MODEL = {"layers": 2, "d_l": 16, "heads": 2, "target_layer": 1}

# grid 10 is the largest the data generator allows: T = 4 + 100 + 12 = 116.
WORKLOADS = {
    "train-paper": {"kind": "train", "grid": 8, "lam": 0.5, "n": 400},
    "train-long-lm": {"kind": "train", "grid": 10, "lam": 0.0, "n": 400},
    "analyze": {"kind": "analyze", "grid": 8, "lam": 0.5, "n": 800},
}
TINY = {
    "train-paper": {"grid": 4, "n": 40},
    "train-long-lm": {"grid": 5, "n": 40},
    "analyze": {"grid": 4, "n": 80},
}

ANALYZE_STAGES = ("gen_data", "dump", "metrics", "report")


class StopRun(Exception):
    """Raised from Trainer.run's on_step callback to end a timed run."""


@dataclass
class Outcome:
    """What a workload hands back to run.py."""

    e2e: dict                                   # name -> (value, unit), untraced
    table: list                                 # (name, value, unit, note), printed
    per_layer: dict = field(default_factory=dict)  # name -> (value, unit), traced
    attempted: int = 0
    failed: int = 0
    checks: dict = field(default_factory=dict)  # name -> (ok or None if skipped, detail)
    record: dict = field(default_factory=dict)  # extra raw data for the result file
    tracer: Tracer = None


def import_prelab(src: Path) -> dict:
    """Import prelab afresh from `src` and return its modules by short name.

    Previously imported prelab modules are dropped first, so each set-up pays
    the package's own import cost (numpy and scipy stay loaded).
    """
    for name in [k for k in sys.modules if k == "prelab" or k.startswith("prelab.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module(f"prelab.{name}") for name in PRELAB_MODULES}
    origin = Path(sys.modules["prelab"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise RuntimeError(f"prelab imported from {origin}, not from {src}")
    return mods


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail_percentile(values):
    """(value, percentile, n): p90, or the highest nearest-rank percentile that
    still has at least ten samples above it; value None below 11 samples."""
    xs = sorted(values)
    n = len(xs)
    if n < 11:
        return None, None, n
    k = min(math.ceil(0.9 * n) - 1, n - 11)
    return xs[k], 100.0 * (k + 1) / n, n


def loss_columns(log_path: Path) -> list:
    """Rows of train_log.csv without the wall_time column ([] if absent)."""
    if not log_path.is_file():
        return []
    with open(log_path, newline="") as fh:
        return [tuple(v for k, v in row.items() if k != "wall_time")
                for row in csv.DictReader(fh)]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    return path


# ---------------------------------------------------------------------------
# per-layer metrics from a traced run
# ---------------------------------------------------------------------------

AUTODIFF_OPS = ("matmul", "masked_softmax", "layer_norm", "gelu", "add", "narrow",
                "reshape", "transpose", "log_softmax", "cosine_rows")
LAYER_CLASSES = ("DecoderBlock", "CausalSelfAttention", "Mlp", "LayerNorm", "PredictionHead")
MS_SPANS = ("model.llm_forward", "model.total_loss", "model.pre_loss", "optim.AdamW.step",
            "optim.grad_norm", "training.train_step", "training.make_batch")
S_SPANS = ("data.generate_dataset", "data.load_dataset", "archive.write_archive",
           "archive.read_archive", "model.dump_hidden_states", "model.read_hidden_states",
           "model.load_checkpoint", "diagnostics.pca_effective_dim",
           "diagnostics.patch_metrics_over_images", "diagnostics.redundancy",
           "diagnostics.linear_probe", "diagnostics.logit_lens", "numerics.covariance",
           "numerics.pearson_corr", "reports.write_comparison")
SETUP_PHASES = ("import", "generate_dataset", "load_dataset", "model_init", "train")


def per_layer_metrics(tracer: Tracer, scale: dict, setup_phases: dict, overhead: tuple) -> dict:
    """Per-unit means (per train step, or per analyze pass) over the units in
    `scale`, times at reference speed: `scale` maps each unit to its factor
    REFERENCE_S / probe, and `setup_phases` are already scaled."""
    units = list(scale)
    totals = tracer.totals(scale)
    n = max(len(units), 1)

    def get(name, i):
        return totals.get(name, (0, 0.0, 0.0))[i] / n

    out = {}
    for op in AUTODIFF_OPS:
        out[f"autodiff.{op}.calls"] = (get(f"autodiff.{op}", 0), "count")
        out[f"autodiff.{op}.fwd_ms"] = (1e3 * get(f"autodiff.{op}", 2), "ms")
        out[f"autodiff.{op}.bwd_ms"] = (1e3 * get(f"autodiff.{op}.bwd", 1), "ms")
    named = {f"autodiff.{op}" for op in AUTODIFF_OPS} | {f"autodiff.{op}.bwd" for op in AUTODIFF_OPS}
    other = [k for k in totals if k.startswith("autodiff.") and k not in named
             and k != "autodiff.backward"]
    fwd = [k for k in other if not k.endswith(".bwd")]
    out["autodiff.other.calls"] = (sum(get(k, 0) for k in fwd), "count")
    out["autodiff.other.fwd_ms"] = (1e3 * sum(get(k, 2) for k in fwd), "ms")
    out["autodiff.other.bwd_ms"] = (1e3 * sum(get(k, 1) for k in other if k.endswith(".bwd")), "ms")
    out["autodiff.backward.ms"] = (1e3 * get("autodiff.backward", 1), "ms")
    out["autodiff.tape_nodes"] = (tracer.count_total("autodiff.tape_nodes", units) / n, "count")
    out["autodiff.tape_bytes"] = (tracer.count_total("autodiff.tape_bytes", units) / n, "bytes")
    for cls in LAYER_CLASSES:
        out[f"layers.{cls}.calls"] = (get(f"layers.{cls}", 0), "count")
        out[f"layers.{cls}.fwd_ms"] = (1e3 * get(f"layers.{cls}", 1), "ms")
    for name in MS_SPANS:
        out[f"{name}.ms"] = (1e3 * get(name, 1), "ms")
    out["model.pre_loss.calls"] = (get("model.pre_loss", 0), "count")
    for name in S_SPANS:
        out[f"{name}.s"] = (get(name, 1), "s")
    out["archive.bytes_written"] = (tracer.count_total("archive.bytes_written", units) / n, "bytes")
    for stage in ANALYZE_STAGES:
        out[f"cli.{stage}.s"] = (get(f"cli.{stage}", 1), "s")
    for phase in SETUP_PHASES:
        out[f"setup.{phase}.s"] = (setup_phases.get(phase, 0.0), "s")
    delta_ms, pct = overhead
    out["tracing.unit_ms_p50_delta"] = (delta_ms, "ms")
    out["tracing.overhead_pct"] = (pct, "%")
    return out


def setup_at_reference_speed(setup_raw: list, probes: list) -> float:
    """Median set-up time at reference speed. Set-ups are too short and too
    few for a probe pair each to be steady, so the median set-up is scaled
    by the median of the probes taken between them."""
    return statistics.median(setup_raw) * REFERENCE_S / statistics.median(probes)


def _median_phases(reps: list, probes: list) -> dict:
    """Median set-up phases at reference speed."""
    factor = REFERENCE_S / statistics.median(probes)
    return {k: factor * statistics.median(r.get(k, 0.0) for r in reps) for k in SETUP_PHASES}


def _overhead(untraced: list, traced: list) -> tuple:
    """Traced minus untraced median unit time at reference speed:
    (ms, % of untraced)."""
    a, b = statistics.median(untraced), statistics.median(traced)
    return 1e3 * (b - a), 100.0 * (b - a) / a


# ---------------------------------------------------------------------------
# training workloads
# ---------------------------------------------------------------------------

class Workload:
    """One named workload at full or tiny size; `work` is its working dir."""

    def __init__(self, name: str, seed: int, tiny: bool, src: Path, work: Path):
        spec = dict(WORKLOADS[name])
        spec.update(TINY[name] if tiny else {})
        spec.update(TINY_MODEL if tiny else FULL_MODEL)
        self.name, self.seed, self.tiny, self.src, self.work = name, seed, tiny, src, work
        self.spec = spec
        self.m = None  # prelab modules of the latest set-up

    def sizes(self) -> dict:
        # T = prompt (4) + patches + answer block (12); the schedule is the
        # measured run's on train-*, the set-up training run's on analyze
        steps = SCHEDULE_STEPS if self.spec["kind"] == "train" else ANALYZE_SETUP_STEPS
        return dict(self.spec, batch=BATCH, seq_len=4 + self.spec["grid"] ** 2 + 12,
                    schedule_steps=steps, seed=self.seed)


class TrainWorkload(Workload):
    def __init__(self, *args):
        super().__init__(*args)
        self.dataset = None

    def make_trainer(self):
        s = self.spec
        cfg = self.m["model"].MllmConfig(grid=s["grid"], lam=s["lam"], layers=s["layers"],
                                         d_l=s["d_l"], heads=s["heads"],
                                         target_layer=s["target_layer"], seed=self.seed)
        return self.m["training"].Trainer(cfg, self.dataset, steps=SCHEDULE_STEPS,
                                          batch_size=BATCH)

    def setup(self) -> tuple:
        """Import, generate and load the data, build the model. Returns
        (trainer, phase seconds)."""
        data_dir = _fresh_dir(self.work / "data")
        perf = time.perf_counter
        t0 = perf()
        self.m = import_prelab(self.src)
        t1 = perf()
        data = self.m["data"]
        data.generate_dataset(self.spec["n"], self.seed, data_dir,
                              data.DataSpec(grid=self.spec["grid"]))
        t2 = perf()
        self.dataset = data.load_dataset(data_dir)
        t3 = perf()
        trainer = self.make_trainer()
        t4 = perf()
        return trainer, {"import": t1 - t0, "generate_dataset": t2 - t1,
                         "load_dataset": t3 - t2, "model_init": t4 - t3}

    def train(self, trainer, tracer: Tracer, probe: SpeedProbe, log: Path, min_steps: int,
              deadline: float, max_steps: int = None) -> dict:
        """Trainer.run until `deadline` (but at least min_steps, at most
        max_steps). Step times come from the tracer's train_step spans; the
        tracer probes the speed before each step, and this once more after
        the last."""
        reports = []

        def on_step(report):
            reports.append(report)
            n = len(reports)
            if (max_steps is not None and n >= max_steps) or (
                    n >= min_steps and time.perf_counter() >= deadline):
                raise StopRun

        error = None
        t0 = time.perf_counter()
        try:
            trainer.run(log_path=log, on_step=on_step)
        except StopRun:
            pass
        except Exception as exc:  # noqa: BLE001 - a failed step is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0 - sum(probe.samples)
        probe()
        return {"reports": reports, "wall": wall, "error": error,
                "steps_s": tracer.durations("training.train_step")[:len(reports)],
                "probes": probe.samples[:len(reports) + 1]}

    def step_ok(self, r) -> bool:
        finite = math.isfinite(r.lm) and math.isfinite(r.total)
        if self.spec["lam"] == 0.0:
            return finite and repr(r.total) == repr(r.lm)  # lam=0: total IS the lm loss
        return finite and math.isfinite(r.pre)

    def run(self, seconds: float, trace: bool, reference: dict) -> Outcome:
        setup_probe = SpeedProbe()
        reps = []
        for _ in range(SETUP_REPS):
            setup_probe()
            trainer, phases = self.setup()
            reps.append(phases)
        setup_probe()
        setup_raw = [sum(p.values()) for p in reps]
        setup_s = setup_at_reference_speed(setup_raw, setup_probe.samples)

        def timed_run(trainer, log, min_steps, deadline, max_steps=None, traced=False):
            tracer, probe = Tracer(), SpeedProbe()
            if traced:
                tracer.install_all(self.m, before=lambda args: probe())
            else:
                tracer.install_unit_timer(self.m["training"], before=lambda args: probe())
            try:
                run = self.train(trainer, tracer, probe, log, min_steps, deadline, max_steps)
            finally:
                tracer.uninstall()
            run["tracer"] = tracer
            return run

        # run A: the measured, untraced run
        budget = seconds / 2 if trace else seconds
        a = timed_run(trainer, self.work / "a.csv", REF_STEPS, time.perf_counter() + budget)
        rss = peak_rss_mb()
        # run B: the same seed again, traced over all of A's steps, or
        # untraced over a short prefix
        n_b = len(a["reports"]) if trace else min(VERIFY_STEPS, len(a["reports"]))
        b = timed_run(self.make_trainer(), self.work / "b.csv", n_b, 0.0, n_b, trace)

        attempted = failed = 0
        for run in (a, b):
            attempted += len(run["reports"]) + (run["error"] is not None)
            failed += sum(not self.step_ok(r) for r in run["reports"])
            failed += run["error"] is not None

        checks = {}
        checks["losses_finite"] = (failed == 0, a["error"] or b["error"] or "")
        rows_a, rows_b = loss_columns(self.work / "a.csv"), loss_columns(self.work / "b.csv")
        checks["same_seed_loss_columns"] = (
            len(rows_b) == n_b and rows_a[:n_b] == rows_b,
            f"train_log.csv loss columns, first {n_b} steps of two same-seed runs")
        if trace:
            def bits(run):
                return [(repr(r.lm), repr(r.pre), repr(r.total), repr(r.grad_norm))
                        for r in run["reports"]]
            checks["traced_losses_bitwise_equal"] = (bits(a) == bits(b),
                                                     f"{len(a['reports'])} steps")
        lms = [r.lm for r in a["reports"][REF_STEPS - REF_WINDOW:REF_STEPS]]
        ref_value = statistics.fmean(lms) if len(lms) == REF_WINDOW else float("nan")
        checks["reference_loss"] = _reference_check(reference, self.name, self.tiny, ref_value)

        raw = a["steps_s"][WARMUP_STEPS:] or [float("nan")]
        adjusted = at_reference_speed(raw, a["probes"][WARMUP_STEPS:]) or [float("nan")]
        step_ms = 1e3 * statistics.median(adjusted)
        tail, tail_p, n = tail_percentile(raw)
        samples_per_s = len(a["reports"]) * BATCH / a["wall"]
        probe_ms = 1e3 * statistics.median(a["probes"] or [float("nan")])
        out = Outcome(
            e2e={"setup_s": (setup_s, "s"), "step_ms_p50": (step_ms, "ms"),
                 "peak_rss_mb": (rss, "MB")},
            table=[("setup_s", setup_s, "s", f"median of {SETUP_REPS} set-ups, at reference speed"),
                   ("step_ms_p50", step_ms, "ms", f"n={n} steps after {WARMUP_STEPS} warm-up, "
                    "at reference speed"),
                   ("train_step_ms_p50", 1e3 * statistics.median(raw), "ms", f"n={n}, as measured"),
                   ("train_step_ms_p90", 1e3 * tail if tail else float("nan"), "ms",
                    f"p{tail_p:.1f}, n={n}, as measured" if tail else f"n={n}: too few samples"),
                   ("train_samples_per_s", samples_per_s, "samples/s",
                    f"{len(a['reports'])} steps x B={BATCH} / Trainer.run wall {a['wall']:.3f} s "
                    "less probes, as measured"),
                   ("peak_rss_mb", rss, "MB", "after the measured run"),
                   ("probe_ms", probe_ms, "ms", "median speed probe; reference "
                    f"{1e3 * REFERENCE_S:g} ms")],
            attempted=attempted, failed=failed, checks=checks,
            record={"setup_phases": reps, "setup_probe_s": setup_probe.samples,
                    "step_s": a["steps_s"], "probe_s": a["probes"],
                    "reference_loss_value": ref_value, "sizes": self.sizes()})
        if trace:
            traced = at_reference_speed(b["steps_s"][WARMUP_STEPS:], b["probes"][WARMUP_STEPS:])
            probes = b["probes"]  # probes[k - 1] and probes[k] bracket step k (from 1)
            scale = {k: 2.0 * REFERENCE_S / (probes[k - 1] + probes[k])
                     for k in range(WARMUP_STEPS + 1, len(b["reports"]) + 1)}
            out.per_layer = per_layer_metrics(b["tracer"], scale,
                                              _median_phases(reps, setup_probe.samples),
                                              _overhead(adjusted, traced))
            out.tracer = b["tracer"]
            out.record["traced_step_s"] = b["steps_s"]
            out.record["missing_wrappers"] = b["tracer"].missing
        return out


def _reference_check(reference: dict, name: str, tiny: bool, value: float) -> tuple:
    if tiny:
        return None, "no reference at the tiny size"
    ref = reference.get(name)
    if ref is None:
        return False, "no recorded reference"
    ok = abs(value - ref["median"]) <= ref["tol"]
    return ok, f"{value!r} vs {ref['median']!r} +- {ref['tol']!r} ({ref['what']})"


# ---------------------------------------------------------------------------
# analyze workload
# ---------------------------------------------------------------------------

def _quiet(fn):
    """Call a CLI entry point with its stdout and stderr captured."""
    def call(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            rc = fn(argv)
        return rc, out.getvalue()
    return call


class AnalyzeWorkload(Workload):
    def __init__(self, *args):
        super().__init__(*args)
        self.read_archive = None  # the untraced reader, for output checks
        self.dataset_ids = []

    def _model_flags(self) -> list:
        s = self.spec
        return ["--grid", str(s["grid"]), "--layers", str(s["layers"]),
                "--d-l", str(s["d_l"]), "--heads", str(s["heads"]),
                "--target-layer", str(s["target_layer"])]

    def _gen_argv(self, out: Path) -> list:
        return ["gen-data", "--n", str(self.spec["n"]), "--seed", str(self.seed),
                "--out", str(out), "--grid", str(self.spec["grid"])]

    def setup(self) -> dict:
        """Import, gen-data, and a short `prelab train` that writes the
        checkpoint the passes analyze. Returns phase seconds."""
        data_dir = _fresh_dir(self.work / "data")
        run_dir = _fresh_dir(self.work / "run")
        perf = time.perf_counter
        t0 = perf()
        self.m = import_prelab(self.src)
        t1 = perf()
        main = _quiet(self.m["cli"].main)
        rc_gen, msg_gen = main(self._gen_argv(data_dir))
        t2 = perf()
        rc_train, msg_train = main(
            ["train", "--data", str(data_dir), "--out", str(run_dir), "--seed", str(self.seed),
             "--steps", str(ANALYZE_SETUP_STEPS), "--lambda", str(self.spec["lam"]),
             "--batch-size", str(BATCH)] + self._model_flags())
        t3 = perf()
        if rc_gen != 0 or rc_train != 0:
            raise RuntimeError(f"analyze set-up failed: {msg_gen}{msg_train}")
        return {"import": t1 - t0, "generate_dataset": t2 - t1, "train": t3 - t2}

    def passes(self, tracer: Tracer, min_passes: int, deadline: float,
               max_passes: int = None) -> list:
        """gen-data -> dump -> metrics -> report, repeated; pass i is unit i.
        Returns per pass {stage: (ok, detail)}, {stage: seconds}, the speed
        probes before each stage and after the last, and the output hashes."""
        probe = SpeedProbe()
        main = _quiet(self.m["cli"].main)
        stage_fns = {s: tracer.wrap(f"cli.{s}", main) for s in ANALYZE_STAGES}
        p = self.work / "pass"
        data, hidden, metrics, report = p / "data", p / "hidden.prea", p / "metrics", p / "report"
        run = str(self.work / "run")
        argv = {
            "gen_data": self._gen_argv(data),
            "dump": ["dump", "--run", run, "--data", str(data), "--out", str(hidden)],
            "metrics": ["metrics", "--hidden", str(hidden), "--data", str(data),
                        "--run", run, "--out", str(metrics)],
            "report": ["report", "--baseline", str(metrics), "--pre", str(metrics),
                       "--out", str(report)],
        }
        n_layers = self.spec["layers"]
        results = []
        while True:
            _fresh_dir(p)
            tracer.unit = 1 + len(results)
            res, times = {}, {}
            probe.samples.clear()
            for stage in ANALYZE_STAGES:
                probe()
                rc, msg = stage_fns[stage](argv[stage])
                _, _, _, _, t0, t1 = tracer.spans[-1]  # the stage span ends last
                times[stage] = t1 - t0
                res[stage] = (rc == 0, msg.strip().rpartition("\n")[2] if rc else "")
                if rc != 0:
                    break
            probe()
            probes = list(probe.samples)
            if res.get("gen_data", (False,))[0]:
                same = all((data / f.name).read_bytes() == f.read_bytes()
                           for f in sorted((self.work / "data").iterdir()))
                res["gen_data"] = (same, "" if same else "dataset differs from the set-up's")
            if res.get("dump", (False,))[0]:
                try:
                    entries = self.read_archive(hidden)
                    want = 1 + len(self.dataset_ids) * (n_layers + 2)
                    ok = len(entries) == want
                    res["dump"] = (ok, "" if ok else f"{len(entries)} entries, want {want}")
                except Exception as exc:  # noqa: BLE001 - a corrupt archive is a failed stage
                    res["dump"] = (False, f"read-back failed: {exc}")
            if res.get("metrics", (False,))[0]:
                ok, detail = _metrics_csv_ok(metrics / "metrics.csv", n_layers + 1)
                res["metrics"] = (ok, detail)
            if res.get("report", (False,))[0]:
                summary = report / "summary.txt"
                ok = summary.is_file() and summary.stat().st_size > 0
                res["report"] = (ok, "" if ok else "summary.txt missing or empty")
            outputs = [sha256(f) for f in (hidden, metrics / "metrics.csv") if f.is_file()]
            results.append({"stages": res, "times": times, "probes": probes,
                            "outputs": outputs})
            n = len(results)
            if (max_passes is not None and n >= max_passes) or (
                    n >= min_passes and time.perf_counter() >= deadline):
                return results

    def run(self, seconds: float, trace: bool, reference: dict) -> Outcome:
        setup_probe = SpeedProbe()
        reps = []
        logs = []
        for _ in range(SETUP_REPS):
            setup_probe()
            reps.append(self.setup())
            logs.append(loss_columns(self.work / "run" / "train_log.csv"))
        setup_probe()
        setup_raw = [sum(p.values()) for p in reps]
        setup_s = setup_at_reference_speed(setup_raw, setup_probe.samples)
        self.read_archive = self.m["archive"].read_archive
        ds = self.m["data"].load_dataset(self.work / "data")
        self.dataset_ids = [ex.id for ex in ds.splits["probe-train"] + ds.splits["probe-test"]]

        tracer_a = Tracer()
        budget = seconds / 2 if trace else seconds
        a = self.passes(tracer_a, MIN_PASSES - 1 if trace else MIN_PASSES,
                        time.perf_counter() + budget)
        rss = peak_rss_mb()
        b = []
        if trace:
            tracer_b = Tracer()
            tracer_b.install_all(self.m)
            try:
                b = self.passes(tracer_b, len(a), 0.0, max_passes=len(a))
            finally:
                tracer_b.uninstall()

        attempted = sum(len(r["stages"]) for r in a + b)
        failed = sum(not ok for r in a + b for ok, _ in r["stages"].values())
        failed_detail = [f"{s}: {d}" for r in a + b for s, (ok, d) in r["stages"].items() if not ok]
        checks = {"stages_ok": (failed == 0 and all(len(r["stages"]) == 4 for r in a + b),
                                "; ".join(failed_detail[:3]))}
        lm_cols = [[row[1] for row in log] for log in logs]  # lm_loss column
        finite = all(math.isfinite(float(v)) for col in lm_cols for v in col)
        checks["losses_finite"] = (finite, "set-up train_log.csv lm_loss")
        checks["same_seed_loss_columns"] = (all(log == logs[0] for log in logs),
                                            f"train_log.csv of {SETUP_REPS} same-seed set-ups")
        outs = [r["outputs"] for r in a + b]
        checks["outputs_identical_across_passes"] = (
            all(o == outs[0] and len(o) == 2 for o in outs),
            "hidden-state archive and metrics.csv, sha256" +
            (", traced passes included" if trace else ""))
        mean_lm = statistics.fmean(map(float, lm_cols[0])) if lm_cols[0] else float("nan")
        checks["reference_loss"] = _reference_check(reference, self.name, self.tiny, mean_lm)

        def pass_seconds(passes):
            """Per pass after warm-up: (as measured, at reference speed)."""
            out = []
            for r in passes[WARMUP_PASSES:]:
                times = list(r["times"].values())
                out.append((sum(times), sum(at_reference_speed(times, r["probes"]))))
            return out or [(float("nan"), float("nan"))]

        measured = pass_seconds(a)
        pass_ms = 1e3 * statistics.median(adj for _, adj in measured)
        per_stage = {st: [r["times"][st] for r in a[WARMUP_PASSES:] if st in r["times"]]
                     for st in ANALYZE_STAGES}
        med = {st: statistics.median(v or [float("nan")]) for st, v in per_stage.items()}
        raw_s = [raw for raw, _ in measured]
        examples_per_s = len(self.dataset_ids) * len(raw_s) / sum(raw_s)
        probes = [p for r in a for p in r["probes"]]
        n = len(raw_s)
        out = Outcome(
            e2e={"setup_s": (setup_s, "s"), "step_ms_p50": (pass_ms, "ms"),
                 "peak_rss_mb": (rss, "MB")},
            table=[("setup_s", setup_s, "s", f"median of {SETUP_REPS} set-ups, at reference speed"),
                   ("step_ms_p50", pass_ms, "ms", f"n={n} passes after {WARMUP_PASSES} warm-up, "
                    "at reference speed"),
                   ("gen_data_s", med["gen_data"], "s", f"median of {n} passes, as measured"),
                   ("dump_s", med["dump"], "s", f"median of {n} passes, as measured"),
                   ("metrics_s", med["metrics"], "s", f"median of {n} passes, as measured"),
                   ("report_s", med["report"], "s", f"median of {n} passes, as measured"),
                   ("analyze_pass_ms_p50", 1e3 * statistics.median(raw_s), "ms",
                    f"n={n}, as measured"),
                   ("analyze_examples_per_s", examples_per_s, "samples/s",
                    f"{len(self.dataset_ids)} dumped examples per pass, as measured"),
                   ("peak_rss_mb", rss, "MB", "after the measured passes"),
                   ("probe_ms", 1e3 * statistics.median(probes), "ms",
                    f"median speed probe; reference {1e3 * REFERENCE_S:g} ms")],
            attempted=attempted, failed=failed, checks=checks,
            record={"setup_phases": reps, "setup_probe_s": setup_probe.samples,
                    "pass_times": [r["times"] for r in a],
                    "pass_probes": [r["probes"] for r in a],
                    "reference_loss_value": mean_lm, "sizes": self.sizes()})
        if trace:
            traced = [adj for _, adj in pass_seconds(b)]
            scale = {unit: REFERENCE_S / statistics.median(r["probes"])
                     for unit, r in enumerate(b, 1) if unit > WARMUP_PASSES}
            out.per_layer = per_layer_metrics(tracer_b, scale,
                                              _median_phases(reps, setup_probe.samples),
                                              _overhead([adj for _, adj in measured], traced))
            out.tracer = tracer_b
            out.record["missing_wrappers"] = tracer_b.missing
        return out


def _metrics_csv_ok(path: Path, rows_wanted: int) -> tuple:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != rows_wanted:
        return False, f"metrics.csv has {len(rows)} rows, want {rows_wanted}"
    bad = [(row["layer"], k) for row in rows for k, v in row.items()
           if not math.isfinite(float(v))]
    return not bad, f"non-finite values at {bad[:3]}" if bad else ""


def make_workload(name: str, seed: int, tiny: bool, src: Path, work: Path):
    cls = TrainWorkload if WORKLOADS[name]["kind"] == "train" else AnalyzeWorkload
    return cls(name, seed, tiny, src, work)

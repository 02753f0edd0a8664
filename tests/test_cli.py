"""CLI tests: a golden tiny pipeline, the run config round trip, exit code
2, with nothing written, for a dataset that does not match the run, a
similarity patch or layer that does not exist, two reports whose similarity
maps probe different patches, or a metrics directory missing a file, and
exit code 1, with no checkpoint, for a run that diverges."""

import json
import re
import shutil
from dataclasses import fields

import pytest

from prelab.cli import (RunConfig, _run_config_from_args, build_parser, load_run_config,
                        main)

TINY_MODEL = ["--grid", "4", "--layers", "2", "--d-l", "16", "--heads", "2",
              "--target-layer", "1"]


def run_ok(argv):
    assert main([str(a) for a in argv]) == 0


def tiny_pipeline(w):
    data, run = w / "data", w / "run"
    run_ok(["gen-data", "--n", 80, "--seed", 1, "--out", data, "--grid", 4])
    run_ok(["train", "--data", data, "--out", run, "--steps", 3, "--batch-size", 4,
            "--diag-every", 2, "--seed", 1] + TINY_MODEL)
    run_ok(["dump", "--run", run, "--data", data, "--out", w / "hidden.prea"])
    run_ok(["metrics", "--hidden", w / "hidden.prea", "--data", data, "--run", run,
            "--out", w / "metrics"])
    run_ok(["report", "--baseline", w / "metrics", "--pre", w / "metrics",
            "--out", w / "report"])


def file_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    """The tiny pipeline run twice at the same paths (config.json records
    --data and --out as given); returns the work dir and both file sets."""
    w = tmp_path_factory.mktemp("golden") / "w"
    tiny_pipeline(w)
    first = file_bytes(w)
    shutil.rmtree(w)
    tiny_pipeline(w)
    return w, first, file_bytes(w)


def test_golden_pipeline_is_byte_identical(golden):
    _, first, second = golden
    assert sorted(first) == sorted(second)
    for name in ("run/eval.csv", "metrics/metrics.csv", "metrics/logitlens.csv",
                 "report/summary.txt", "hidden.prea", "run/checkpoint.prea"):
        assert name in first
    differ = [name for name in first if first[name] != second[name]]
    assert differ in ([], ["run/train_time.csv"])


def test_wall_time_only_in_train_time(golden):
    w, _, _ = golden
    log = (w / "run" / "train_log.csv").read_text().splitlines()
    assert log[0] == "step,lm_loss,pre_loss,total_loss,grad_norm"
    times = (w / "run" / "train_time.csv").read_text().splitlines()
    assert times[0] == "step,wall_time"
    assert [row.split(",")[0] for row in times[1:]] == ["1", "2", "3"]


def test_config_json_round_trips(golden):
    w, _, _ = golden
    path = w / "run" / "config.json"
    cfg = load_run_config(path)
    assert json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n" == path.read_text()
    assert cfg.grid == 4 and cfg.steps == 3 and cfg.dataset == str(w / "data")


def test_unknown_config_key_exits_2(golden, tmp_path, capsys):
    w, _, _ = golden
    run = tmp_path / "run"
    shutil.copytree(w / "run", run)
    raw = json.loads((run / "config.json").read_text())
    raw["bogus"] = 1
    (run / "config.json").write_text(json.dumps(raw))
    rc = main(["dump", "--run", str(run), "--data", str(w / "data"),
               "--out", str(tmp_path / "h.prea")])
    assert rc == 2
    assert "unknown config keys: ['bogus']" in capsys.readouterr().err


def test_flags_cover_every_run_field():
    defaults = _run_config_from_args(build_parser().parse_args(
        ["train", "--data", "d", "--out", "o"]))
    assert defaults == RunConfig(dataset="d", out_dir="o")
    argv = ["train", "--data", "d2", "--out", "o2", "--steps", "7", "--batch-size", "3",
            "--lr", "0.01", "--lambda", "0.25", "--target-layer", "2",
            "--anchor", "pre-proj", "--seed", "9", "--weight-decay", "0.1",
            "--warmup-frac", "0.5", "--no-schedule", "--grid", "5", "--patch", "3",
            "--d-v", "12", "--d-l", "24", "--layers", "3", "--heads", "3",
            "--mlp-ratio", "4", "--max-answer", "10", "--diag-every", "2"]
    cfg = _run_config_from_args(build_parser().parse_args(argv))
    unset = [f.name for f in fields(RunConfig)
             if getattr(cfg, f.name) == getattr(defaults, f.name)]
    assert unset == ["vocab", "prompt_len"]  # the two fields without a flag
    assert (cfg.dataset, cfg.out_dir, cfg.lam, cfg.use_schedule) == ("d2", "o2", 0.25, False)


def test_train_on_mismatched_dataset_exits_2_and_writes_nothing(golden, tmp_path, capsys):
    w, _, _ = golden
    out = tmp_path / "run8"
    rc = main(["train", "--data", str(w / "data"), "--out", str(out), "--steps", "1"])
    assert rc == 2
    assert "grid 4, the run has 8" in capsys.readouterr().err
    assert not out.exists()


def test_dump_on_mismatched_dataset_exits_2(golden, tmp_path, capsys):
    w, _, _ = golden
    data8, run8 = tmp_path / "data8", tmp_path / "run8"
    run_ok(["gen-data", "--n", 10, "--out", data8])
    run_ok(["train", "--data", data8, "--out", run8, "--steps", 1, "--layers", 1,
            "--target-layer", 1, "--d-l", 16, "--heads", 2])
    capsys.readouterr()
    rc = main(["dump", "--run", str(run8), "--data", str(w / "data"),
               "--out", str(tmp_path / "h.prea")])
    assert rc == 2
    assert "grid 4, the run has 8" in capsys.readouterr().err
    assert not (tmp_path / "h.prea").exists()


def test_metrics_with_sim_patch_outside_the_grid_exits_2(golden, tmp_path, capsys):
    w, _, _ = golden
    out = tmp_path / "metrics"
    rc = main(["metrics", "--hidden", str(w / "hidden.prea"), "--data", str(w / "data"),
               "--run", str(w / "run"), "--out", str(out), "--sim-patch", "16"])
    assert rc == 2
    assert "--sim-patch 16 outside [0, 16) for a 4x4 grid" in capsys.readouterr().err
    assert not out.exists()


def test_report_with_sim_layer_not_dumped_exits_2(golden, tmp_path, capsys):
    w, _, _ = golden
    out = tmp_path / "report"
    rc = main(["report", "--baseline", str(w / "metrics"), "--pre", str(w / "metrics"),
               "--out", str(out), "--sim-layers", "1", "99"])
    assert rc == 2
    assert "--sim-layers [99] have no similarity map" in capsys.readouterr().err
    assert not out.exists()


def test_report_on_different_similarity_probes_exits_2(golden, tmp_path, capsys):
    w, _, _ = golden
    sim_patch = json.loads((w / "metrics" / "summary.json").read_text())["sim_patch"]
    other = tmp_path / "metrics"
    run_ok(["metrics", "--hidden", w / "hidden.prea", "--data", w / "data", "--run", w / "run",
            "--out", other, "--sim-patch", (sim_patch + 1) % 16])
    capsys.readouterr()
    out = tmp_path / "report"
    rc = main(["report", "--baseline", str(w / "metrics"), "--pre", str(other),
               "--out", str(out)])
    assert rc == 2
    assert (f"sim_patch {sim_patch} (baseline) vs {(sim_patch + 1) % 16} (+aux)"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("name", ["metrics.csv", "summary.json", "logitlens.csv"])
def test_report_on_metrics_dir_missing_a_file_exits_2(golden, tmp_path, capsys, name):
    w, _, _ = golden
    pre = tmp_path / "metrics"
    shutil.copytree(w / "metrics", pre)
    (pre / name).unlink()
    out = tmp_path / "report"
    rc = main(["report", "--baseline", str(w / "metrics"), "--pre", str(pre),
               "--out", str(out)])
    assert rc == 2
    assert f"no {name} in {pre}" in capsys.readouterr().err
    assert not out.exists()


def test_dump_takes_only_run_data_and_out(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dump", "--help"])
    assert exc.value.code == 0
    assert set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) == {
        "--help", "--run", "--data", "--out"}


def test_diverged_training_exits_1_without_a_checkpoint(golden, tmp_path, capsys):
    # At lr 1e6 the LM loss jumps from 4.2 to about 5e12 at step 2.
    w, _, _ = golden
    out = tmp_path / "run"
    rc = main(["train", "--data", str(w / "data"), "--out", str(out), "--steps", "6",
               "--batch-size", "4", "--seed", "1", "--lr", "1e6"] + TINY_MODEL)
    assert rc == 1
    assert "language-model loss diverged" in capsys.readouterr().err
    assert not (out / "checkpoint.prea").exists()
    assert len((out / "train_log.csv").read_text().splitlines()) == 2  # header, step 1

"""CLI tests: a golden tiny pipeline, the run config round trip, exit code
2, with nothing written, for a config key or flag that does not exist, a
config value of another type than its field's, a config.json that is not a
JSON object, a model width or head count below 1, a NaN or infinite
learning rate or lambda, a negative train seed, a gen-data seed, size or
grid out of range, with the library's message, a dataset that does not
match the run, a dump of a dataset with an empty probe split, metrics on an archive
that is not the run's dump of the dataset's probe examples (a dump of
another model shape or seed, of no examples or without one example, a dump
with an entry added, dropped or narrowed, or a checkpoint), two reports
whose similarity maps probe different patches, or a metrics directory
missing a file, a similarity map included, or a layer's metrics.csv row,
or with a map cut to 2 of its 4 rows, exit code 1, with no checkpoint, for a
run that diverges, even into the directory of an earlier run, exit code 1
for a checkpoint with an entry the model has no parameter for, dump and
metrics that never generate a train example, and train that never
generates a probe-test example, nor a probe-train one without --diag-every,
and metrics that accepts its own run's dump at shapes where a batch of 1
and dump's batch of 16 round apart."""

import json
import re
import shutil
from dataclasses import fields

import numpy as np
import pytest

from prelab.cli import (_run_config_from_args, build_parser, load_run_config, main,
                        run_config_from_dict)
from prelab.archive import read_archive, write_archive
from prelab.data import split_ids
from prelab.model import MllmConfig, dump_hidden_states
from prelab.reports import config_hash
from test_data import record_generated_ids

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


def dump_with_config_edit(golden, tmp_path, key, value) -> int:
    """dump's exit code on a copy of the golden run whose config.json has
    key set to value."""
    w, _, _ = golden
    run = tmp_path / "run"
    shutil.copytree(w / "run", run)
    raw = json.loads((run / "config.json").read_text())
    raw[key] = value
    (run / "config.json").write_text(json.dumps(raw))
    return main(["dump", "--run", str(run), "--data", str(w / "data"),
                 "--out", str(tmp_path / "h.prea")])


# weight_decay and patch stand for run directories written while they were run fields
@pytest.mark.parametrize("key", ["bogus", "weight_decay", "patch"])
def test_unknown_config_key_exits_2(golden, tmp_path, capsys, key):
    assert dump_with_config_edit(golden, tmp_path, key, 1) == 2
    assert f"unknown config keys: ['{key}']" in capsys.readouterr().err
    assert not (tmp_path / "h.prea").exists()


@pytest.mark.parametrize("text", ["[]", '"x"', '{"anchor": "pre-llm", "batch_size": 4'],
                         ids=["list", "string", "truncated"])
def test_a_config_json_that_is_not_a_json_object_exits_2(golden, tmp_path, capsys, text):
    w, _, _ = golden
    run = tmp_path / "run"
    shutil.copytree(w / "run", run)
    (run / "config.json").write_text(text)
    for command, args in (("dump", []), ("metrics", ["--hidden", w / "hidden.prea"])):
        out = tmp_path / command
        argv = [command, "--run", run, "--data", w / "data", "--out", out] + args
        assert main([str(a) for a in argv]) == 2
        assert capsys.readouterr().err.startswith(f"error: {run / 'config.json'}: ")
        assert not out.exists()


@pytest.mark.parametrize("key, value", [("lam", "0.5"), ("layers", 2.0), ("lam", True),
                                        ("target_layer", 1.0), ("seed", 0.0),
                                        pytest.param("lam", 10 ** 400, id="lam-10**400")])
def test_a_config_value_of_another_type_exits_2(golden, tmp_path, capsys, key, value):
    # a float field takes an int a float can hold or a float, an int field
    # an int, and no field a bool, though Python counts a bool as an int
    assert dump_with_config_edit(golden, tmp_path, key, value) == 2
    assert f"config key '{key}' must be" in capsys.readouterr().err
    assert not (tmp_path / "h.prea").exists()


@pytest.mark.parametrize("key", ["lam", "lr"])
def test_a_float_field_reads_an_int_as_a_float(key):
    # one experiment, one config hash, whether its file says 1 or 1.0
    as_int, as_float = (run_config_from_dict({"dataset": "d", "out_dir": "o", key: value})
                        for value in (1, 1.0))
    assert type(getattr(as_int, key)) is float
    assert config_hash(as_int.to_dict()) == config_hash(as_float.to_dict())


REMOVED_FLAGS = [
    ("train", "--weight-decay", "0.1"), ("train", "--warmup-frac", "0.1"),
    ("train", "--no-schedule", None), ("gen-data", "--patch", "3"),
    ("gen-data", "--classes", "5"), ("gen-data", "--min-objects", "2"),
    ("gen-data", "--max-objects", "3"), ("metrics", "--sim-example", "0"),
    ("metrics", "--sim-patch", "0"), ("report", "--sim-layers", "1"),
    ("train", "--patch", "4"), ("train", "--d-v", "32"), ("train", "--mlp-ratio", "2"),
]


@pytest.mark.parametrize("command, flag, value", REMOVED_FLAGS,
                         ids=[f"{command} {flag}" for command, flag, _ in REMOVED_FLAGS])
def test_a_removed_flag_exits_2_and_writes_nothing(golden, tmp_path, capsys, command, flag,
                                                   value):
    w, _, _ = golden
    argv = {"gen-data": ["--n", "5"],
            "train": ["--data", w / "data", "--steps", "1"] + TINY_MODEL,
            "metrics": ["--hidden", w / "hidden.prea", "--data", w / "data", "--run", w / "run"],
            "report": ["--baseline", w / "metrics", "--pre", w / "metrics"]}[command]
    argv += ["--out", tmp_path / "out", flag] + ([value] if value else [])
    with pytest.raises(SystemExit) as exc:
        main([command] + [str(a) for a in argv])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_flags_cover_every_run_field():
    defaults = _run_config_from_args(build_parser().parse_args(
        ["train", "--data", "d", "--out", "o"]))
    assert defaults == MllmConfig(dataset="d", out_dir="o")
    argv = ["train", "--data", "d2", "--out", "o2", "--steps", "7", "--batch-size", "3",
            "--lr", "0.01", "--lambda", "0.25", "--target-layer", "2",
            "--anchor", "pre-proj", "--seed", "9", "--grid", "5", "--d-l", "24",
            "--layers", "3", "--heads", "3", "--diag-every", "2"]
    cfg = _run_config_from_args(build_parser().parse_args(argv))
    unset = [f.name for f in fields(MllmConfig)
             if getattr(cfg, f.name) == getattr(defaults, f.name)]
    assert unset == []
    assert (cfg.dataset, cfg.out_dir, cfg.lam) == ("d2", "o2", 0.25)


def test_train_on_mismatched_dataset_exits_2_and_writes_nothing(golden, tmp_path, capsys):
    w, _, _ = golden
    out = tmp_path / "run8"
    rc = main(["train", "--data", str(w / "data"), "--out", str(out), "--steps", "1"])
    assert rc == 2
    assert "grid 4, the run has 8" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--heads", "0"), ("--heads", "-2"), ("--d-l", "0"),
                                         ("--d-l", "1")])
def test_train_with_a_width_below_1_exits_2_and_writes_nothing(golden, tmp_path, capsys,
                                                               flag, value):
    # a layer norm over one feature outputs beta whatever its input, so d_l
    # needs 2
    w, _, _ = golden
    out = tmp_path / "run"
    rc = main(["train", "--data", str(w / "data"), "--out", str(out), "--steps", "1"]
              + TINY_MODEL + [flag, value])
    name, least = flag[2:].replace("-", "_"), 2 if flag == "--d-l" else 1
    assert rc == 2
    assert f"{name} must be >= {least}, got {value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value, found", [
    ("--lr", "nan", "learning rate must be finite and >= 0, got nan"),
    ("--lr", "inf", "learning rate must be finite and >= 0, got inf"),
    ("--lambda", "nan", "lambda must be finite and >= 0, got nan"),
    ("--lambda", "inf", "lambda must be finite and >= 0, got inf"),
    ("--seed", "-1", "seed must be >= 0, got -1"),
])
def test_train_with_a_non_finite_or_negative_setting_exits_2_and_writes_nothing(
        golden, tmp_path, capsys, flag, value, found):
    w, _, _ = golden
    out = tmp_path / "run"
    rc = main(["train", "--data", str(w / "data"), "--out", str(out), "--steps", "1"]
              + TINY_MODEL + [flag, value])
    assert rc == 2
    assert found in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value, found", [
    ("--seed", "-1", "seed must be >= 0, got -1"),
    ("--n", "0", "dataset size must be >= 1, got 0"),
    ("--grid", "1", "grid must be an int in [2, 10], got 1"),
    ("--grid", "11", "grid must be an int in [2, 10], got 11"),
])
def test_gen_data_with_a_setting_out_of_range_exits_2_and_writes_nothing(
        tmp_path, capsys, flag, value, found):
    out = tmp_path / "data"
    rc = main(["gen-data", "--n", "5", "--out", str(out), flag, value])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {found}\n"
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


def test_dump_and_metrics_never_read_the_train_split(golden, tmp_path, monkeypatch):
    w, _, _ = golden
    ids = record_generated_ids(monkeypatch)
    run_ok(["dump", "--run", w / "run", "--data", w / "data", "--out", tmp_path / "hidden.prea"])
    run_ok(["metrics", "--hidden", tmp_path / "hidden.prea", "--data", w / "data",
            "--run", w / "run", "--out", tmp_path / "metrics"])
    assert ids and not set(ids) & set(split_ids(80)["train"])
    assert (tmp_path / "hidden.prea").read_bytes() == (w / "hidden.prea").read_bytes()
    assert file_bytes(tmp_path / "metrics") == file_bytes(w / "metrics")


def test_train_never_reads_the_probe_test_split(golden, tmp_path, monkeypatch):
    w, _, _ = golden
    ids = record_generated_ids(monkeypatch)
    run_ok(["train", "--data", w / "data", "--out", tmp_path / "run", "--steps", 3,
            "--batch-size", 4, "--diag-every", 2, "--seed", 1] + TINY_MODEL)
    assert sorted(ids) == sorted(split_ids(80)["train"] + split_ids(80)["probe-train"])
    for name in ("checkpoint.prea", "train_log.csv", "eval.csv"):
        assert (tmp_path / "run" / name).read_bytes() == (w / "run" / name).read_bytes()


def test_train_without_diag_every_generates_only_the_train_split(golden, tmp_path, monkeypatch):
    # only the held-out LM loss of --diag-every reads probe-train; it changes no training bit
    w, _, _ = golden
    ids = record_generated_ids(monkeypatch)
    run_ok(["train", "--data", w / "data", "--out", tmp_path / "run", "--steps", 3,
            "--batch-size", 4, "--seed", 1] + TINY_MODEL)
    assert ids == split_ids(80)["train"]
    assert not (tmp_path / "run" / "eval.csv").exists()
    for name in ("checkpoint.prea", "train_log.csv"):
        assert (tmp_path / "run" / name).read_bytes() == (w / "run" / name).read_bytes()


def test_a_checkpoint_of_a_deeper_model_exits_1(golden, tmp_path, capsys):
    # a --layers 4 checkpoint in a --layers 2 run directory: blocks 2 and 3 have no parameter
    w, _, _ = golden
    deep, run = tmp_path / "deep", tmp_path / "run"
    run_ok(["train", "--data", w / "data", "--out", deep, "--steps", 1]
           + TINY_MODEL + ["--layers", "4"])
    shutil.copytree(w / "run", run)
    shutil.copy(deep / "checkpoint.prea", run / "checkpoint.prea")
    capsys.readouterr()
    for argv in (["dump", "--run", run, "--data", w / "data", "--out", tmp_path / "h.prea"],
                 ["metrics", "--hidden", w / "hidden.prea", "--data", w / "data", "--run", run,
                  "--out", tmp_path / "metrics"]):
        assert main([str(a) for a in argv]) == 1
        assert capsys.readouterr().err == (f"error: {run / 'checkpoint.prea'}: unexpected entry "
                                           f"'block2.attn.o.w' (20 unexpected in all)\n")
    assert not (tmp_path / "h.prea").exists() and not (tmp_path / "metrics").exists()


def test_dump_with_an_empty_probe_split_exits_2_and_writes_nothing(tmp_path, capsys):
    # n=5 splits 4 / 0 / 1: metrics would refuse any dump without probe-train
    data, run = tmp_path / "data", tmp_path / "run"
    run_ok(["gen-data", "--n", 5, "--grid", 4, "--out", data])
    run_ok(["train", "--data", data, "--out", run, "--steps", 1] + TINY_MODEL)
    capsys.readouterr()
    rc = main(["dump", "--run", str(run), "--data", str(data),
               "--out", str(tmp_path / "h.prea")])
    assert rc == 2
    assert "the probe-train split of" in capsys.readouterr().err
    assert not (tmp_path / "h.prea").exists()


# the golden dataset's 16 probe ids, the examples its dump holds, in id order
PROBE_IDS = sorted(split_ids(80)["probe-train"] + split_ids(80)["probe-test"])


def assert_metrics_refuses_the_dump(w, hidden, out, capsys, found):
    rc = main(["metrics", "--hidden", str(hidden), "--data", str(w / "data"),
               "--run", str(w / "run"), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (f"error: {hidden} is not the dump of run {w / 'run'} "
                                       f"on the probe splits of {w / 'data'}: {found}\n")
    assert not out.exists()


@pytest.mark.parametrize("flags, found", [
    (["--layers", "4"], f"unexpected entry 'ex{PROBE_IDS[0]:08d}/hv03' (32 unexpected in all)"),
    (["--d-l", "8"], f"entry 'ex{PROBE_IDS[0]:08d}/hv00' has shape (16, 8), not (16, 16)"),
    (["--seed", "2"], f"entry 'ex{PROBE_IDS[0]:08d}/hv00' differs from the run's trace of "
                      f"that example"),
])
def test_metrics_on_a_dump_of_another_model_shape_exits_2(golden, tmp_path, capsys,
                                                          flags, found):
    # a dump of a deeper or narrower model of the same grid, or of a model of
    # the same shape and another seed, read with the golden run
    w, _, _ = golden
    other, hidden = tmp_path / "other", tmp_path / "h.prea"
    run_ok(["train", "--data", w / "data", "--out", other, "--steps", 1]
           + TINY_MODEL + flags)
    run_ok(["dump", "--run", other, "--data", w / "data", "--out", hidden])
    capsys.readouterr()
    assert_metrics_refuses_the_dump(w, hidden, tmp_path / "metrics", capsys, found)


@pytest.mark.parametrize("grid, d_l", [(8, 24), (3, 8)])
def test_metrics_accepts_its_own_runs_dump_where_batch_sizes_round_apart(tmp_path, grid, d_l):
    # at these shapes the BLAS rounds an example's states apart when it is
    # traced alone and in dump's batch of 16
    data, run, hidden = tmp_path / "data", tmp_path / "run", tmp_path / "h.prea"
    run_ok(["gen-data", "--n", 80, "--seed", 1, "--grid", grid, "--out", data])
    run_ok(["train", "--data", data, "--out", run, "--steps", 2, "--grid", grid,
            "--layers", 2, "--d-l", d_l, "--heads", 2, "--target-layer", 1])
    run_ok(["dump", "--run", run, "--data", data, "--out", hidden])
    run_ok(["metrics", "--hidden", hidden, "--data", data, "--run", run,
            "--out", tmp_path / "metrics"])


def test_metrics_on_a_dump_with_no_examples_exits_2(golden, tmp_path, capsys):
    w, _, _ = golden
    hidden = tmp_path / "h.prea"
    dump_hidden_states(hidden, 4, [], np.zeros((0, 16, 32)), np.zeros((3, 0, 16, 16)))
    assert_metrics_refuses_the_dump(w, hidden, tmp_path / "metrics", capsys,
                                    f"missing entry 'ex{PROBE_IDS[0]:08d}/z' (64 missing in all)")


def _not_a_dump(w, tmp_path, case):
    """An archive metrics must refuse: another archive of the golden pipeline,
    or the golden dump with entries added, removed, narrowed or changed."""
    if case == "checkpoint":
        return w / "run/checkpoint.prea"
    entries = read_archive(w / "hidden.prea")
    first, last = f"ex{PROBE_IDS[0]:08d}/", f"ex{PROBE_IDS[-1]:08d}/hv02"
    if case == "foreign entry":
        entries["ex00000001/y"] = np.zeros(2)
    elif case == "missing layer":
        del entries[last]
    elif case == "missing example":
        entries = {name: a for name, a in entries.items() if not name.startswith(first)}
    elif case == "train example":  # id 0 is in the train split
        entries.update({name.replace(first, "ex00000000/"): a
                        for name, a in entries.items() if name.startswith(first)})
    elif case == "other grid":
        entries["meta/grid"] = np.array([5.0, 5.0])
    elif case == "narrower z":
        entries[first + "z"] = entries[first + "z"][:, :8]
    else:
        entries[last] = entries[last][:, :8]
    write_archive(tmp_path / "h.prea", entries)
    return tmp_path / "h.prea"


@pytest.mark.parametrize("case, found", [
    ("checkpoint", "missing entry 'meta/grid' (65 missing in all)"),
    ("foreign entry", "unexpected entry 'ex00000001/y' (1 unexpected in all)"),
    ("missing layer", f"missing entry 'ex{PROBE_IDS[-1]:08d}/hv02' (1 missing in all)"),
    ("narrower layer", f"entry 'ex{PROBE_IDS[-1]:08d}/hv02' has shape (16, 8), not (16, 16)"),
    ("narrower z", f"entry 'ex{PROBE_IDS[0]:08d}/z' has shape (16, 8), not (16, 32)"),
    ("missing example", f"missing entry 'ex{PROBE_IDS[0]:08d}/z' (4 missing in all)"),
    ("train example", "unexpected entry 'ex00000000/hv00' (4 unexpected in all)"),
    ("other grid", "meta/grid [5.0, 5.0] is not 16 patches"),
])
def test_metrics_on_an_archive_that_is_not_a_dump_exits_2(golden, tmp_path, capsys,
                                                          case, found):
    w, _, _ = golden
    assert_metrics_refuses_the_dump(w, _not_a_dump(w, tmp_path, case), tmp_path / "metrics",
                                    capsys, found)


def test_report_on_different_similarity_probes_exits_2(golden, tmp_path, capsys):
    w, _, _ = golden
    other = tmp_path / "metrics"
    shutil.copytree(w / "metrics", other)
    meta = json.loads((other / "summary.json").read_text())
    sim_patch = meta["sim_patch"]
    meta["sim_patch"] = (sim_patch + 1) % 16  # outside the config hash
    (other / "summary.json").write_text(json.dumps(meta))
    out = tmp_path / "report"
    rc = main(["report", "--baseline", str(w / "metrics"), "--pre", str(other),
               "--out", str(out)])
    assert rc == 2
    assert (f"sim_patch {sim_patch} (baseline) vs {(sim_patch + 1) % 16} (+aux)"
            in capsys.readouterr().err)
    assert not out.exists()


def _delete(path):
    path.unlink()
    return f"no {path.name} in {path.parent}"


def _keep_two_rows(path):
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:2]))
    return f"{path.name} in {path.parent} has shape (2, 4), not (4, 4)"


def _drop_layer_1(path):
    path.write_text("".join(line for line in path.read_text().splitlines(keepends=True)
                            if not line.startswith("1,")))
    return f"metrics.csv in {path.parent} has layers [0, 2], not 0..2"


def _keep_header(path):
    path.write_text(path.read_text().splitlines(keepends=True)[0])
    return f"metrics.csv in {path.parent} has layers [], not 0..2"


@pytest.mark.parametrize("name, mutate", [
    pytest.param(name, _delete, id=name)
    for name in ("metrics.csv", "summary.json", "logitlens.csv", "simmap_layer01.txt")
] + [pytest.param("simmap_layer01.txt", _keep_two_rows, id="simmap_layer01.txt-2-rows"),
     pytest.param("metrics.csv", _drop_layer_1, id="metrics.csv-no-layer-1"),
     pytest.param("metrics.csv", _keep_header, id="metrics.csv-header-only")])
def test_report_on_metrics_dir_missing_a_file_exits_2(golden, tmp_path, capsys, name, mutate):
    w, _, _ = golden
    pre = tmp_path / "metrics"
    shutil.copytree(w / "metrics", pre)
    found = mutate(pre / name)
    out = tmp_path / "report"
    rc = main(["report", "--baseline", str(w / "metrics"), "--pre", str(pre),
               "--out", str(out)])
    assert rc == 2
    assert found in capsys.readouterr().err
    assert not out.exists()


def test_dump_takes_only_run_data_and_out(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dump", "--help"])
    assert exc.value.code == 0
    assert set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) == {
        "--help", "--run", "--data", "--out"}


def test_diverged_training_exits_1_without_a_checkpoint(golden, tmp_path, capsys):
    # At lr 1e6 the LM loss jumps from 4.2 to about 6.0e12 at step 2.
    w, _, _ = golden
    out = tmp_path / "run"
    rc = main(["train", "--data", str(w / "data"), "--out", str(out), "--steps", "6",
               "--batch-size", "4", "--seed", "1", "--lr", "1e6"] + TINY_MODEL)
    assert rc == 1
    assert "language-model loss diverged" in capsys.readouterr().err
    assert not (out / "checkpoint.prea").exists()
    assert len((out / "train_log.csv").read_text().splitlines()) == 2  # header, step 1


def test_failed_training_leaves_no_output_of_an_earlier_run(golden, tmp_path, capsys):
    # a diverged run into the directory of a finished one: dump must not
    # take the earlier run's checkpoint for this run's
    w, _, _ = golden
    out = tmp_path / "run"
    shutil.copytree(w / "run", out)
    assert (out / "eval.csv").exists()
    rc = main(["train", "--data", str(w / "data"), "--out", str(out), "--steps", "6",
               "--batch-size", "4", "--seed", "5", "--lr", "1e6"] + TINY_MODEL)
    assert rc == 1
    assert "language-model loss diverged" in capsys.readouterr().err
    assert json.loads((out / "config.json").read_text())["seed"] == 5
    assert sorted(p.name for p in out.iterdir()) == ["config.json", "train_log.csv"]
    assert main(["dump", "--run", str(out), "--data", str(w / "data"),
                 "--out", str(tmp_path / "hidden.prea")]) == 2
    assert "no checkpoint.prea" in capsys.readouterr().err

"""Dataset tests: byte-determinism of generation, answers that follow from the
label map, the archive round trip of every field, and refusal of split
archives or manifests that the loader cannot trust, including token ids and
labels outside the manifest's vocabulary and classes."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import ndimage

from prelab.archive import read_archive, write_archive
from prelab.cli import main
from prelab.data import (CLASS_BASE, DIGIT_BASE, SPLIT_NAMES, TOK_COUNT, TOK_DOMINANT,
                         TOK_WHAT, DataSpec, DatasetError, generate_dataset, generate_image,
                         generate_qa, load_dataset)
from prelab.numerics import RngStream


def dataset_files(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


@st.composite
def specs(draw):
    max_objects = draw(st.integers(1, 4))
    return DataSpec(grid=draw(st.integers(2, 10)), patch=draw(st.integers(1, 4)),
                    num_classes=draw(st.integers(1, 10)),
                    min_objects=draw(st.integers(1, max_objects)), max_objects=max_objects)


@given(n=st.integers(1, 20), seed=st.integers(0, 2**32 - 1), spec=specs())
@settings(max_examples=20, deadline=None)
def test_generation_is_byte_deterministic(tmp_path_factory, n, seed, spec):
    a, b = tmp_path_factory.mktemp("a"), tmp_path_factory.mktemp("b")
    generate_dataset(n, seed, a, spec)
    generate_dataset(n, seed, b, spec)
    first = dataset_files(a)
    assert sorted(first) == ["manifest.json"] + sorted(f"{s}.bin" for s in SPLIT_NAMES)
    assert first == dataset_files(b)


def expected_answer(labels, prompt):
    """The answer token recomputed from the label map alone; the first prompt
    token names the template."""
    if prompt[0] == TOK_WHAT:  # class at patch (r, c)
        r, c = prompt[2] - DIGIT_BASE, prompt[3] - DIGIT_BASE
        assert labels[r, c] > 0
        return CLASS_BASE + labels[r, c] - 1
    if prompt[0] == TOK_COUNT:  # objects of class c = its 4-connected components
        _, count = ndimage.label(labels == prompt[2] - CLASS_BASE + 1)
        return DIGIT_BASE + count
    assert prompt[0] == TOK_DOMINANT  # most patches, ties to the smallest id
    return CLASS_BASE + np.argmax(np.bincount(labels.ravel())[1:])


@pytest.mark.parametrize("spec", [DataSpec(), DataSpec(grid=4, num_classes=3, patch=2)])
def test_every_answer_follows_from_the_label_map(tmp_path, spec):
    generate_dataset(300, 7, tmp_path, spec)
    templates = set()
    for ex in (ex for split in load_dataset(tmp_path).splits.values() for ex in split):
        expected = expected_answer(ex.labels, ex.prompt)
        assert ex.answer.tolist() == [expected]
        if ex.prompt[0] == TOK_DOMINANT:
            assert ex.probe_label == expected - CLASS_BASE + 1
        templates.add(int(ex.prompt[0]))
    assert templates == {TOK_WHAT, TOK_COUNT, TOK_DOMINANT}


def test_load_returns_the_generated_arrays(tmp_path):
    spec = DataSpec(grid=5, patch=3)
    generate_dataset(40, 3, tmp_path, spec)
    ds = load_dataset(tmp_path)
    assert sum(len(ds.splits[s]) for s in SPLIT_NAMES) == 40
    root = RngStream(3)
    for ex in (ex for split in ds.splits.values() for ex in split):
        ex_rng = root.split(ex.id)
        img = generate_image(ex_rng.split("image"), spec)
        qa = generate_qa(img, ex_rng.split("qa"))
        assert ex.image.dtype == np.float64
        assert ex.image.tobytes() == img.pixels.astype(np.float32).astype(np.float64).tobytes()
        for got, want in ((ex.labels, img.labels), (ex.prompt, qa.prompt),
                          (ex.answer, qa.answer)):
            assert got.dtype == np.int64 and got.shape == want.shape
            assert np.array_equal(got, want)
        assert ex.probe_label == qa.probe_label


def set_first_entry(path, field, value):
    entries = read_archive(path)
    name = next(n for n in entries if n.endswith("/" + field))
    entries[name].flat[0] = value
    write_archive(path, entries)


@pytest.mark.parametrize("field", ["labels", "prompt", "answer", "probe"])
@pytest.mark.parametrize("value", [2.5, -1.0, 65536.0, np.nan])
def test_integer_entry_out_of_range_is_refused(tmp_path, field, value):
    generate_dataset(20, 0, tmp_path, DataSpec(grid=4))
    path = tmp_path / "train.bin"
    set_first_entry(path, field, value)
    with pytest.raises(DatasetError, match=re.escape(f"{path}: an integer entry")):
        load_dataset(tmp_path)


@pytest.mark.parametrize("field,value,bounds", [
    ("prompt", 70, "[0, 63]"), ("answer", 64, "[0, 63]"),
    ("labels", 99, "[0, 10]"), ("probe", 0, "[1, 10]"), ("probe", 11, "[1, 10]")])
def test_entry_outside_vocabulary_or_classes_is_refused(tmp_path, field, value, bounds):
    generate_dataset(20, 0, tmp_path, DataSpec(grid=4))  # vocabulary 64, 10 classes
    path = tmp_path / "train.bin"
    set_first_entry(path, field, value)
    with pytest.raises(DatasetError, match=re.escape(
            f"{path}: an integer entry of {field!r} lies outside {bounds}")):
        load_dataset(tmp_path)


def test_train_on_out_of_vocabulary_token_exits_1_and_writes_nothing(tmp_path, capsys):
    data, out = tmp_path / "data", tmp_path / "run"
    generate_dataset(20, 0, data, DataSpec(grid=4))
    set_first_entry(data / "train.bin", "prompt", 70)
    rc = main(["train", "--data", str(data), "--out", str(out), "--steps", "1",
               "--grid", "4", "--layers", "2", "--target-layer", "1"])
    assert rc == 1
    assert "'prompt' lies outside [0, 63]" in capsys.readouterr().err
    assert not out.exists()


def test_old_manifest_format_is_refused(tmp_path):
    generate_dataset(10, 0, tmp_path, DataSpec(grid=4))
    manifest_path = tmp_path / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert manifest["format"] == "prelab-dataset/2"
    manifest["format"] = "prelab-dataset/1"
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(DatasetError, match="unknown dataset format.*prelab gen-data"):
        load_dataset(tmp_path)

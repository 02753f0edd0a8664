"""Dataset tests: a dataset directory that is its manifest alone, examples
that load bit for bit the same every time and match a digest pinned per
dataset format, the shared read-only class textures, the dominant class's
tie and empty rules, answers that follow from the label map, generated
entries of the shapes and inside the vocabulary and classes the model takes,
loads that generate only the named splits, and refusal of a manifest that
is not a UTF-8 JSON object, of another format, missing a key, or with a
field the generator cannot take."""

import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import ndimage

import prelab.data
from prelab.cli import main
from prelab.data import (CLASS_BASE, DATASET_FORMAT, DIGIT_BASE, NUM_CLASSES, PROMPT_LEN,
                         SPLIT_NAMES, TOK_COUNT, TOK_DOMINANT, TOK_QMARK, TOK_WHAT, DataSpec,
                         DatasetError, class_pattern, dominant_class, generate_dataset,
                         generate_image, generate_qa, load_dataset)
from prelab.numerics import RngStream


def dataset_files(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def example_arrays(ds):
    """Every array of every loaded example, split by split in load order
    (SPLIT_NAMES by default), then in id order. The float32 image comes
    widened to float64, as the encoder widens it: bit for bit the array
    that datasets held as float64 before, so the pinned digests still hold."""
    return [arr for split in ds.splits.values() for ex in split
            for arr in (np.int64(ex.id), ex.image.astype(np.float64), ex.labels, ex.prompt,
                        ex.answer, np.int64(ex.probe_label))]


def record_generated_ids(monkeypatch):
    """The ids of the examples generated from now on, in order."""
    ids, generate = [], prelab.data.generate_example

    def recording(seed, i, spec):
        ids.append(i)
        return generate(seed, i, spec)

    monkeypatch.setattr(prelab.data, "generate_example", recording)
    return ids


@given(n=st.integers(1, 20), seed=st.integers(0, 2**32 - 1),
       spec=st.builds(DataSpec, grid=st.integers(2, 10)))
@settings(max_examples=20, deadline=None)
def test_generation_is_byte_deterministic(tmp_path_factory, n, seed, spec):
    a, b = tmp_path_factory.mktemp("a"), tmp_path_factory.mktemp("b")
    generate_dataset(n, seed, a, spec)
    generate_dataset(n, seed, b, spec)
    assert list(dataset_files(a)) == ["manifest.json"]
    assert dataset_files(a) == dataset_files(b)
    first, second = example_arrays(load_dataset(a)), example_arrays(load_dataset(b))
    assert len(first) == 6 * n
    for x, y in zip(first, second):
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


# sha256 of the manifest of generate_dataset(30, 3, DataSpec(grid)), and one
# sha256 fed every loaded example's arrays (example_arrays), by dataset
# format. The examples are generated on load, so a generator change fails this
# test until both the format string and its digests change. The format 4
# content digests are those of format 3 at patch 4, whose grid-8 digest is
# that of the split archives format 2 stored.
PINNED_SHA256 = {
    "prelab-dataset/4": {
        5: ("316a1237555b4494e0d3916a9e2d79578c64005df3962ffb521c20a3f35a63d5",
            "0381ccb09bb7d932448863b14aa4622649a0c657241b0994116f08582d2bb758"),
        8: ("3ce8d53b69978b99cef34f956868eeadbec5576d978f1bbb4593ab9d3704a3b9",
            "d95ac350ca072556667386bc8e55e27cd64174e2732582381d9a553bd793d9bc"),
    },
}


@pytest.mark.parametrize("grid", [5, 8])
def test_generation_matches_the_pinned_bytes(tmp_path, grid):
    generate_dataset(30, 3, tmp_path, DataSpec(grid=grid))
    content = hashlib.sha256()
    for arr in example_arrays(load_dataset(tmp_path)):
        assert arr.dtype in (np.float64, np.int64)
        content.update(arr.tobytes())
    manifest = hashlib.sha256((tmp_path / "manifest.json").read_bytes())
    assert (manifest.hexdigest(), content.hexdigest()) == PINNED_SHA256[DATASET_FORMAT][grid]


def test_class_pattern_is_drawn_once_and_read_only():
    tile = class_pattern(3)
    assert class_pattern(3) is tile and tile.shape == (4, 4)
    with pytest.raises(ValueError, match="read-only"):
        tile[0, 0] = 0.0


def test_class_pattern_of_a_numpy_integer_is_the_same_texture():
    assert np.array_equal(class_pattern(np.int64(7)), class_pattern(7))


@pytest.mark.parametrize("labels, dominant", [
    ([[0, 0], [0, 0]], 0),          # no objects
    ([[3, 3], [0, 5]], 3),
    ([[5, 5], [2, 2]], 2),          # a tie goes to the smallest class id
    ([[9, 9, 4], [9, 4, 4]], 4),
    ([[0, 0, 0], [0, 0, 10]], 10),
])
def test_dominant_class(labels, dominant):
    assert dominant_class(np.array(labels, dtype=np.int64)) == dominant


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


@pytest.mark.parametrize("spec", [DataSpec(), DataSpec(grid=4)])
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
    spec = DataSpec(grid=5)
    generate_dataset(40, 3, tmp_path, spec)
    ds = load_dataset(tmp_path)
    assert sum(len(ds.splits[s]) for s in SPLIT_NAMES) == 40
    root = RngStream(3)
    for ex in (ex for split in ds.splits.values() for ex in split):
        ex_rng = root.split(ex.id)
        img = generate_image(ex_rng.split("image"), spec)
        qa = generate_qa(img, ex_rng.split("qa"))
        assert ex.image.dtype == np.float32
        assert ex.image.tobytes() == img.pixels.astype(np.float32).tobytes()
        for got, want in ((ex.labels, img.labels), (ex.prompt, qa.prompt),
                          (ex.answer, qa.answer)):
            assert got.dtype == np.int64 and got.shape == want.shape
            assert np.array_equal(got, want)
        assert ex.probe_label == qa.probe_label
    for split in ds.splits.values():  # views of one image and one label array per split
        assert all(ex.image.base is split[0].image.base and ex.labels.base is split[0].labels.base
                   for ex in split)


@pytest.mark.parametrize("spec", [DataSpec(grid=2), DataSpec(grid=4), DataSpec(grid=10)],
                         ids=["grid2", "grid4", "grid10"])
@pytest.mark.parametrize("field", ["labels", "prompt", "answer", "probe"])
def test_generated_entries_lie_inside_the_vocabulary_and_classes(tmp_path, field, spec):
    # what the model and the probes take: class ids and non-pad tokens of the
    # fixed vocabulary, every prompt PROMPT_LEN tokens and every answer one
    shape, low, high = {"labels": ((spec.grid, spec.grid), 0, NUM_CLASSES),
                        "prompt": ((PROMPT_LEN,), CLASS_BASE, TOK_QMARK),
                        "answer": ((1,), CLASS_BASE, DIGIT_BASE + 9),
                        "probe": ((), 1, NUM_CLASSES)}[field]
    generate_dataset(60, 5, tmp_path, spec)
    for ex in (ex for split in load_dataset(tmp_path).splits.values() for ex in split):
        value = np.asarray(ex.probe_label if field == "probe" else getattr(ex, field))
        assert value.dtype == np.int64 and value.shape == shape, ex.id
        assert low <= value.min() and value.max() <= high, ex.id


def test_load_reads_only_the_named_splits(tmp_path, monkeypatch):
    generate_dataset(40, 3, tmp_path, DataSpec(grid=4))
    full = load_dataset(tmp_path)
    ids = record_generated_ids(monkeypatch)
    probe = load_dataset(tmp_path, ("probe-train", "probe-test"))
    assert list(probe.splits) == ["probe-train", "probe-test"]
    assert ids == [ex.id for name in probe.splits for ex in probe.splits[name]]
    assert not set(ids) & {ex.id for ex in full.splits["train"]}
    for a, b in zip(example_arrays(probe), example_arrays(full)[6 * len(full.splits["train"]):]):
        assert a.tobytes() == b.tobytes()


def test_old_manifest_format_is_refused(tmp_path):
    generate_dataset(10, 0, tmp_path, DataSpec(grid=4))
    manifest_path = tmp_path / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert manifest["format"] == "prelab-dataset/4"
    manifest["format"] = "prelab-dataset/3"
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(DatasetError, match="unknown dataset format.*prelab gen-data"):
        load_dataset(tmp_path)


@pytest.mark.parametrize("key, value, found", [
    ("n", 0, "got 0 and 0"), ("n", "5", "got '5' and 0"), ("seed", -1, "got 20 and -1"),
    ("seed", 1.5, "got 20 and 1.5"), ("grid", 11, "grid must be an int in [2, 10], got 11"),
    ("grid", 4.0, "grid must be an int in [2, 10], got 4.0"),
    ("colour", "red", "unexpected keyword argument 'colour'"), ("n", True, "got True and 0"),
    ("seed", "3", "got 20 and '3'"), ("patch", 4, "unexpected keyword argument 'patch'"),
    ("num_classes", 10, "unexpected keyword argument 'num_classes'"),
    ("max_objects", 4, "unexpected keyword argument 'max_objects'")])
def test_manifest_field_the_generator_cannot_take_is_refused(tmp_path, capsys, key, value,
                                                            found):
    data, out = tmp_path / "data", tmp_path / "run"
    generate_dataset(20, 0, data, DataSpec(grid=4))
    manifest = json.loads((data / "manifest.json").read_text())
    (manifest if key in ("n", "seed") else manifest["spec"])[key] = value
    (data / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(DatasetError, match=re.escape(f"{data / 'manifest.json'}: ")) as exc:
        load_dataset(data)
    assert found in str(exc.value)
    assert_train_exits_1_and_writes_nothing(data, out, capsys, found)


def assert_train_exits_1_and_writes_nothing(data, out, capsys, found):
    rc = main(["train", "--data", str(data), "--out", str(out), "--steps", "1",
               "--grid", "4", "--layers", "2", "--target-layer", "1"])
    assert rc == 1
    assert found in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("raw, found", [
    (b"{", "not a UTF-8 JSON manifest: Expecting property name"),
    (b"\xff", "not a UTF-8 JSON manifest: 'utf-8' codec can't decode byte 0xff"),
    (b"[]", "the manifest is not a JSON object"), (b"3", "the manifest is not a JSON object")],
    ids=["{", "xff", "[]", "3"])
def test_manifest_that_is_not_a_utf8_json_object_is_refused(tmp_path, capsys, raw, found):
    data, out = tmp_path / "data", tmp_path / "run"
    generate_dataset(20, 0, data, DataSpec(grid=4))
    (data / "manifest.json").write_bytes(raw)
    found = f"{data / 'manifest.json'}: {found}"
    with pytest.raises(DatasetError, match=re.escape(found)):
        load_dataset(data)
    assert_train_exits_1_and_writes_nothing(data, out, capsys, found)


@pytest.mark.parametrize("key, found", [
    ("format", "unknown dataset format"), ("n", "got None and 0"), ("seed", "got 20 and None"),
    ("spec", "must be a mapping, not NoneType")])
def test_manifest_missing_a_key_is_refused(tmp_path, key, found):
    generate_dataset(20, 0, tmp_path, DataSpec(grid=4))
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    del manifest[key]
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(DatasetError, match=re.escape(found)):
        load_dataset(tmp_path)

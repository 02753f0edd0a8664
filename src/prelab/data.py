"""Synthetic multimodal examples: patch-grid images of colored rectangles,
exact per-patch class labels, and templated question/answer token pairs.

Images are a single-channel scalar field of g*g patches, each patch p*p
pixels. Objects are axis-aligned rectangles in patch units (so patch labels
are exact, with zero annotation noise), filled with a class-specific base
intensity modulated by a fixed per-class texture pattern (mean exactly 1, so
the mean pixel value inside an object stays its base intensity) plus
per-pixel Gaussian noise. The texture gives each class its own direction in
patch-feature space; a flat fill would make all patch contents collinear and
no pooled feature could tell classes apart. Same-class objects are never
placed 4-adjacent to each other, so "number of objects of class c" equals
the number of connected components of that class in the label map and every
answer is verifiable from the label map alone.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .archive import read_archive, write_archive
from .numerics import RngStream

# ---------------------------------------------------------------------------
# vocabulary: fixed 64 symbols, no learned tokenizer
# ---------------------------------------------------------------------------

VOCAB_SIZE = 64
PAD_ID = 0
IGNORE_ID = 1  # answer padding, excluded from the language-model loss
CLASS_BASE = 2  # class id c (1..10) -> token CLASS_BASE + c - 1
DIGIT_BASE = 12  # digit n (0..9) -> token DIGIT_BASE + n
TOK_WHAT = 22
TOK_AT = 23
TOK_COUNT = 24
TOK_OF = 25
TOK_DOMINANT = 26
TOK_CLASS = 27
TOK_QMARK = 28

PROMPT_LEN = 4
MAX_CLASSES = 10


def class_token(class_id: int) -> int:
    return CLASS_BASE + class_id - 1


def digit_token(n: int) -> int:
    if not 0 <= n <= 9:
        raise ValueError(f"digit token out of range: {n}")
    return DIGIT_BASE + n


def token_name(tok: int) -> str:
    """Human-readable symbol for a token id (for reports and logs)."""
    fixed = {PAD_ID: "<pad>", IGNORE_ID: "<ignore>", TOK_WHAT: "what", TOK_AT: "at",
             TOK_COUNT: "count", TOK_OF: "of", TOK_DOMINANT: "dominant",
             TOK_CLASS: "class", TOK_QMARK: "?"}
    if tok in fixed:
        return fixed[tok]
    if CLASS_BASE <= tok < CLASS_BASE + MAX_CLASSES:
        return f"cls{tok - CLASS_BASE + 1}"
    if DIGIT_BASE <= tok < DIGIT_BASE + 10:
        return str(tok - DIGIT_BASE)
    return f"<unused{tok}>"


# ---------------------------------------------------------------------------
# image generation
# ---------------------------------------------------------------------------

@dataclass
class DataSpec:
    grid: int = 8
    patch: int = 4
    num_classes: int = 10
    min_objects: int = 1
    max_objects: int = 4
    max_extent: int = 4  # max rectangle side, in patches
    noise_sigma: float = 0.05

    def validate(self) -> None:
        if not 2 <= self.grid <= 10:
            raise ValueError(f"grid must be in [2, 10], got {self.grid}")
        if self.patch < 1:
            raise ValueError(f"patch must be >= 1, got {self.patch}")
        if not 1 <= self.num_classes <= MAX_CLASSES:
            raise ValueError(f"num_classes must be in [1, {MAX_CLASSES}], got {self.num_classes}")
        if not 1 <= self.min_objects <= self.max_objects <= 4:
            raise ValueError("object count bounds must satisfy 1 <= min <= max <= 4")

    def class_intensity(self, class_id: int) -> float:
        if self.num_classes == 1:
            return 0.6
        return 0.2 + 0.8 * (class_id - 1) / (self.num_classes - 1)


_PATTERN_SEED = 0x7E0C1A55
_PATTERN_AMPLITUDE = 0.5


def class_pattern(class_id: int, patch: int) -> np.ndarray:
    """Fixed texture tile for a class: 1 + a*u with u zero-mean uniform, so
    the tile's mean is exactly 1. Deterministic in (class_id, patch)."""
    rng = RngStream(_PATTERN_SEED).split(class_id).split(patch)
    u = rng.uniform(-1.0, 1.0, (patch, patch))
    u -= u.mean()
    return 1.0 + _PATTERN_AMPLITUDE * u


@dataclass
class ObjectSpec:
    class_id: int
    row: int  # top-left corner, patch units
    col: int
    height: int
    width: int
    intensity: float


@dataclass
class SyntheticImage:
    pixels: np.ndarray  # [g*p, g*p] float64
    labels: np.ndarray  # [g, g] int, 0 = background
    objects: list


@dataclass
class QaPair:
    prompt: np.ndarray  # [PROMPT_LEN] token ids
    answer: np.ndarray  # [1..K] token ids
    probe_label: int  # dominant object class, the linear-probe target


def _adjacent_same_class(labels: np.ndarray, r0, c0, h, w, class_id) -> bool:
    # 4-adjacency only: same-class objects may touch diagonally and still
    # count as separate connected components
    g = labels.shape[0]
    if r0 > 0 and np.any(labels[r0 - 1, c0 : c0 + w] == class_id):
        return True
    if r0 + h < g and np.any(labels[r0 + h, c0 : c0 + w] == class_id):
        return True
    if c0 > 0 and np.any(labels[r0 : r0 + h, c0 - 1] == class_id):
        return True
    if c0 + w < g and np.any(labels[r0 : r0 + h, c0 + w] == class_id):
        return True
    return False


def generate_image(rng: RngStream, spec: DataSpec) -> SyntheticImage:
    """Rejection-sample 1-4 non-overlapping rectangles (each >= 2 patches)
    onto the patch grid. A placement failing 100 attempts is dropped, never
    an error. Multi-object images always carry >= 2 distinct classes."""
    spec.validate()
    g, p = spec.grid, spec.patch
    n_obj = int(rng.integers(spec.min_objects, spec.max_objects + 1))
    classes = rng.integers(1, spec.num_classes + 1, size=n_obj)
    if n_obj >= 2 and spec.num_classes >= 2:
        while len(set(classes.tolist())) < 2:
            classes = rng.integers(1, spec.num_classes + 1, size=n_obj)

    labels = np.zeros((g, g), dtype=np.int64)
    objects = []
    max_side = min(spec.max_extent, g)
    for class_id in classes.tolist():
        placed = False
        for _ in range(100):
            h = int(rng.integers(1, max_side + 1))
            w = int(rng.integers(1, max_side + 1))
            if h * w < 2:
                continue
            r0 = int(rng.integers(0, g - h + 1))
            c0 = int(rng.integers(0, g - w + 1))
            block = labels[r0 : r0 + h, c0 : c0 + w]
            if np.any(block != 0):
                continue
            if _adjacent_same_class(labels, r0, c0, h, w, class_id):
                continue
            labels[r0 : r0 + h, c0 : c0 + w] = class_id
            objects.append(ObjectSpec(class_id, r0, c0, h, w, spec.class_intensity(class_id)))
            placed = True
            break
        if not placed:
            continue

    pixels = np.zeros((g * p, g * p))
    for obj in objects:
        r, c = obj.row * p, obj.col * p
        hh, ww = obj.height * p, obj.width * p
        tile = np.tile(class_pattern(obj.class_id, p), (obj.height, obj.width))
        noise = rng.normal((hh, ww), std=spec.noise_sigma)
        pixels[r : r + hh, c : c + ww] = obj.intensity * tile + noise
    return SyntheticImage(pixels=pixels, labels=labels, objects=objects)


def dominant_class(labels: np.ndarray) -> int:
    """Class covering the most patches; ties break to the smallest id."""
    ids, counts = np.unique(labels[labels > 0], return_counts=True)
    if ids.size == 0:
        return 0
    return int(ids[np.argmax(counts)])  # np.argmax returns first max -> smallest id


def generate_qa(image: SyntheticImage, rng: RngStream) -> QaPair:
    """One templated question about the image with its exact answer.

    Templates: class-at-patch, count-of-class, dominant-class. Answers
    depend on the image content, so the language loss cannot be satisfied
    while ignoring the visual tokens.
    """
    if not image.objects:
        raise ValueError("generate_qa needs an image with at least one object")
    labels = image.labels
    probe = dominant_class(labels)
    template = int(rng.integers(0, 3))
    if template == 0:  # what class at patch (r, c)?
        rows, cols = np.nonzero(labels)
        k = int(rng.integers(0, rows.size))
        r, c = int(rows[k]), int(cols[k])
        prompt = [TOK_WHAT, TOK_AT, digit_token(r), digit_token(c)]
        answer = [class_token(int(labels[r, c]))]
    elif template == 1:  # count of class c?
        present = sorted({o.class_id for o in image.objects})
        if rng.uniform() < 0.7:
            c = present[int(rng.integers(0, len(present)))]
        else:
            c = int(rng.integers(1, MAX_CLASSES + 1))
        count = sum(1 for o in image.objects if o.class_id == c)
        prompt = [TOK_COUNT, TOK_OF, class_token(c), TOK_QMARK]
        answer = [digit_token(count)]
    else:  # dominant class?
        prompt = [TOK_DOMINANT, TOK_CLASS, TOK_QMARK, TOK_QMARK]
        answer = [class_token(probe)]
    return QaPair(prompt=np.array(prompt, dtype=np.int64),
                  answer=np.array(answer, dtype=np.int64),
                  probe_label=probe)


# ---------------------------------------------------------------------------
# dataset splits: one tensor archive each. Label maps and token ids are stored
# as whole-number float32 (exact up to 2**24); loading refuses values that are
# not whole numbers or that the manifest's vocabulary and classes rule out.
# ---------------------------------------------------------------------------

DATASET_FORMAT = "prelab-dataset/2"


class DatasetError(RuntimeError):
    pass


@dataclass
class Example:
    id: int
    image: np.ndarray
    labels: np.ndarray
    prompt: np.ndarray
    answer: np.ndarray
    probe_label: int


@dataclass
class Dataset:
    spec: DataSpec
    seed: int
    vocab_size: int
    splits: dict = field(default_factory=dict)  # split name -> list[Example]


SPLIT_NAMES = ("train", "probe-train", "probe-test")


def split_ids(n: int) -> dict:
    """Deterministic 80/10/10 split: ids ordered by CRC32 of their zero-padded
    name, then sliced, so fractions are exact to rounding (+-1 example)."""
    order = sorted(range(n), key=lambda i: (zlib.crc32(f"ex{i:08d}".encode()), i))
    n_train = int(round(0.8 * n))
    n_ptrain = int(round(0.1 * n))
    return {
        "train": sorted(order[:n_train]),
        "probe-train": sorted(order[n_train : n_train + n_ptrain]),
        "probe-test": sorted(order[n_train + n_ptrain :]),
    }


def generate_dataset(n: int, seed: int, out_dir, spec: DataSpec = None) -> dict:
    """Generate n examples and write one archive per split plus a manifest.

    Each example draws from its own RNG substream keyed by id, so the output
    is byte-identical for a given (n, seed, spec) regardless of generation
    order. Returns the manifest dict.
    """
    if n < 1:
        raise ValueError(f"dataset size must be >= 1, got {n}")
    spec = spec or DataSpec()
    spec.validate()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    root = RngStream(seed)
    examples = {}
    for i in range(n):
        ex_rng = root.split(i)
        img = generate_image(ex_rng.split("image"), spec)
        qa = generate_qa(img, ex_rng.split("qa"))
        examples[i] = (img, qa)
    splits = split_ids(n)
    for split_name, ids in splits.items():
        items = []
        for i in ids:
            img, qa = examples[i]
            key = f"{i:08d}"
            items += [(f"{key}/image", img.pixels), (f"{key}/labels", img.labels),
                      (f"{key}/prompt", qa.prompt), (f"{key}/answer", qa.answer),
                      (f"{key}/probe", [qa.probe_label])]
        write_archive(out_dir / f"{split_name}.bin", items)
    manifest = {
        "format": DATASET_FORMAT,
        "seed": int(seed),
        "n": int(n),
        "vocab_size": VOCAB_SIZE,
        "prompt_len": PROMPT_LEN,
        "spec": asdict(spec),
        "counts": {name: len(ids) for name, ids in splits.items()},
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


def _read_split(path, bounds: dict) -> dict:
    """Read one split archive; bounds maps each integer field to the
    inclusive range (lo, hi) its values must lie in."""
    entries = read_archive(path)
    for kind, (lo, hi) in bounds.items():
        vals = np.concatenate([arr.ravel() for name, arr in entries.items()
                               if name.endswith("/" + kind)] or [np.zeros(0)])
        if not np.all(vals == np.floor(vals)):
            raise DatasetError(f"{path}: an integer entry is not a whole number")
        if not np.all((vals >= lo) & (vals <= hi)):
            raise DatasetError(f"{path}: an integer entry of {kind!r} lies outside [{lo}, {hi}]")
    return entries


def load_dataset(path) -> Dataset:
    path = Path(path)
    manifest = json.loads((path / "manifest.json").read_text())
    if manifest.get("format") != DATASET_FORMAT:
        raise DatasetError(f"unknown dataset format in {path}; regenerate it with prelab gen-data")
    spec = DataSpec(**manifest["spec"])
    ds = Dataset(spec=spec, seed=manifest["seed"], vocab_size=manifest["vocab_size"])
    last_token = ds.vocab_size - 1
    bounds = {"labels": (0, spec.num_classes), "prompt": (0, last_token),
              "answer": (0, last_token), "probe": (1, spec.num_classes)}
    for split_name in SPLIT_NAMES:
        entries = _read_split(path / f"{split_name}.bin", bounds)
        ids = sorted({int(name.split("/")[0]) for name in entries})
        examples = []
        for i in ids:
            key = f"{i:08d}"
            examples.append(Example(
                id=i,
                image=entries[f"{key}/image"].astype(np.float64),
                labels=entries[f"{key}/labels"].astype(np.int64),
                prompt=entries[f"{key}/prompt"].astype(np.int64),
                answer=entries[f"{key}/answer"].astype(np.int64),
                probe_label=int(entries[f"{key}/probe"][0]),
            ))
        ds.splits[split_name] = examples
    return ds


def pad_answers(answers, max_answer: int) -> np.ndarray:
    """Right-pad variable-length answers with IGNORE_ID to a [B, K] batch."""
    out = np.full((len(answers), max_answer), IGNORE_ID, dtype=np.int64)
    for row, ans in zip(out, answers):
        if len(ans) > max_answer:
            raise ValueError(f"answer length {len(ans)} exceeds max {max_answer}")
        row[: len(ans)] = ans
    return out

"""Synthetic multimodal examples: patch-grid images of colored rectangles,
exact per-patch class labels, and templated question/answer token pairs.

Images are a single-channel scalar field of g*g patches, each patch
PATCH*PATCH pixels. Objects are axis-aligned rectangles in patch units (so
patch labels are exact, with zero annotation noise), filled with a
class-specific base intensity modulated by a fixed per-class texture pattern
(mean exactly 1, so the mean pixel value inside an object stays its base
intensity) plus per-pixel Gaussian noise. The texture gives each class its
own direction in patch-feature space; a flat fill would make all patch
contents collinear and no pooled feature could tell classes apart.
Same-class objects are never placed 4-adjacent to each other, so "number of
objects of class c" equals the number of connected components of that class
in the label map and every answer is verifiable from the label map alone.

A dataset directory holds only manifest.json (n, seed and grid). Every
example is drawn from its own substream of the seed, so loading generates
the examples of the splits it names, the same every time, and holds their
pixels as float32, the precision they are rounded to. Everything else
about an image is a constant below: the patch size, the classes, the object
count and extent, and the noise.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

from .numerics import ConfigError, RngStream

# ---------------------------------------------------------------------------
# vocabulary: fixed 64 symbols, no learned tokenizer
# ---------------------------------------------------------------------------

VOCAB_SIZE = 64
PAD_ID = 0
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
PATCH = 4  # patch side in pixels
NUM_CLASSES = 10
MIN_OBJECTS, MAX_OBJECTS = 1, 4
MAX_EXTENT = 4  # max rectangle side, in patches
NOISE_SIGMA = 0.05


def class_token(class_id: int) -> int:
    return CLASS_BASE + class_id - 1


def digit_token(n: int) -> int:
    if not 0 <= n <= 9:
        raise ValueError(f"digit token out of range: {n}")
    return DIGIT_BASE + n


def token_name(tok: int) -> str:
    """Human-readable symbol for a token id (for reports and logs)."""
    fixed = {PAD_ID: "<pad>", TOK_WHAT: "what", TOK_AT: "at",
             TOK_COUNT: "count", TOK_OF: "of", TOK_DOMINANT: "dominant",
             TOK_CLASS: "class", TOK_QMARK: "?"}
    if tok in fixed:
        return fixed[tok]
    if CLASS_BASE <= tok < CLASS_BASE + NUM_CLASSES:
        return f"cls{tok - CLASS_BASE + 1}"
    if DIGIT_BASE <= tok < DIGIT_BASE + 10:
        return str(tok - DIGIT_BASE)
    return f"<unused{tok}>"


# ---------------------------------------------------------------------------
# image generation
# ---------------------------------------------------------------------------

@dataclass
class DataSpec:
    grid: int = 8  # patches per side

    def validate(self) -> None:
        if type(self.grid) is not int or not 2 <= self.grid <= 10:
            raise ConfigError(f"grid must be an int in [2, 10], got {self.grid!r}")


_PATTERN_SEED = 0x7E0C1A55
_PATTERN_AMPLITUDE = 0.5


@lru_cache(maxsize=None)
def class_pattern(class_id: int) -> np.ndarray:
    """Fixed PATCH x PATCH texture tile for a class: 1 + a*u with u zero-mean
    uniform, so the tile's mean is exactly 1. Deterministic in class_id, so
    it is drawn once and every caller shares one read-only array."""
    rng = RngStream(_PATTERN_SEED).split(class_id).split(PATCH)
    u = rng.uniform(-1.0, 1.0, (PATCH, PATCH))
    u -= u.mean()
    tile = 1.0 + _PATTERN_AMPLITUDE * u
    tile.flags.writeable = False
    return tile


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
    pixels: np.ndarray  # [g*PATCH, g*PATCH] float64
    labels: np.ndarray  # [g, g] int, 0 = background
    objects: list


@dataclass
class QaPair:
    prompt: np.ndarray  # [PROMPT_LEN] token ids
    answer: np.ndarray  # [1] token id
    probe_label: int  # dominant object class, the linear-probe target


def _adjacent_same_class(labels: np.ndarray, r0, c0, h, w, class_id) -> bool:
    # 4-adjacency only: same-class objects may touch diagonally and still
    # count as separate connected components
    g = labels.shape[0]
    if r0 > 0 and (labels[r0 - 1, c0 : c0 + w] == class_id).any():
        return True
    if r0 + h < g and (labels[r0 + h, c0 : c0 + w] == class_id).any():
        return True
    if c0 > 0 and (labels[r0 : r0 + h, c0 - 1] == class_id).any():
        return True
    if c0 + w < g and (labels[r0 : r0 + h, c0 + w] == class_id).any():
        return True
    return False


def generate_image(rng: RngStream, spec: DataSpec) -> SyntheticImage:
    """Rejection-sample 1-4 non-overlapping rectangles (each >= 2 patches)
    onto the patch grid. A placement failing 100 attempts is dropped, never
    an error. Multi-object images always carry >= 2 distinct classes."""
    g, p = spec.grid, PATCH
    n_obj = int(rng.integers(MIN_OBJECTS, MAX_OBJECTS + 1))
    classes = rng.integers(1, NUM_CLASSES + 1, size=n_obj)
    if n_obj >= 2:
        while len(set(classes.tolist())) < 2:
            classes = rng.integers(1, NUM_CLASSES + 1, size=n_obj)

    labels = np.zeros((g, g), dtype=np.int64)
    objects = []
    max_side = min(MAX_EXTENT, g)
    for class_id in classes.tolist():
        for _ in range(100):
            h = int(rng.integers(1, max_side + 1))
            w = int(rng.integers(1, max_side + 1))
            if h * w < 2:
                continue
            r0 = int(rng.integers(0, g - h + 1))
            c0 = int(rng.integers(0, g - w + 1))
            if labels[r0 : r0 + h, c0 : c0 + w].any():
                continue
            if _adjacent_same_class(labels, r0, c0, h, w, class_id):
                continue
            labels[r0 : r0 + h, c0 : c0 + w] = class_id
            intensity = 0.2 + 0.8 * (class_id - 1) / (NUM_CLASSES - 1)
            objects.append(ObjectSpec(class_id, r0, c0, h, w, intensity))
            break

    pixels = np.zeros((g * p, g * p))
    for obj in objects:
        r, c = obj.row * p, obj.col * p
        hh, ww = obj.height * p, obj.width * p
        pixels[r : r + hh, c : c + ww] = rng.normal((hh, ww), std=NOISE_SIGMA)
        # the region as [height, p, width, p]: axes 1 and 3 index within a patch
        region = pixels[r : r + hh, c : c + ww].reshape(obj.height, p, obj.width, p)
        region += obj.intensity * class_pattern(obj.class_id)[:, None, :]
    return SyntheticImage(pixels=pixels, labels=labels, objects=objects)


def dominant_class(labels: np.ndarray) -> int:
    """Class covering the most patches; ties break to the smallest id."""
    counts = np.bincount(labels.ravel())[1:]  # counts[c - 1] patches of class c
    if not counts.any():
        return 0
    return int(np.argmax(counts)) + 1  # np.argmax returns first max -> smallest id


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
            c = int(rng.integers(1, NUM_CLASSES + 1))
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
# datasets: a directory holds only manifest.json, and loading generates the
# examples of the named splits from its n, seed and grid. The manifest is
# the one outside input, so it is checked before anything is generated.
# ---------------------------------------------------------------------------

DATASET_FORMAT = "prelab-dataset/4"


class DatasetError(RuntimeError):
    pass


@dataclass
class Example:
    id: int
    image: np.ndarray  # [g*PATCH, g*PATCH] float32
    labels: np.ndarray
    prompt: np.ndarray
    answer: np.ndarray
    probe_label: int


@dataclass
class Dataset:
    spec: DataSpec
    seed: int
    splits: dict = field(default_factory=dict)  # split name -> list[Example]


PROBE_SPLITS = ("probe-train", "probe-test")  # the examples dump and metrics read
SPLIT_NAMES = ("train", *PROBE_SPLITS)


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


def generate_example(seed: int, i: int, spec: DataSpec) -> tuple:
    """Image and QA pair of example i, from its own substream of the dataset
    seed: the same whichever other examples are generated, in any order."""
    ex_rng = RngStream(seed).split(i)
    img = generate_image(ex_rng.split("image"), spec)
    return img, generate_qa(img, ex_rng.split("qa"))


def generate_dataset(n: int, seed: int, out_dir, spec: DataSpec) -> dict:
    """Write the manifest of an n-example dataset to out_dir and return it:
    its format, n, seed, spec ({"grid": g}) and split counts. The examples
    are generated when the dataset is loaded. Raises ConfigError, before it
    makes any directory, for n < 1, seed < 0 or an invalid spec."""
    if n < 1:
        raise ConfigError(f"dataset size must be >= 1, got {n}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    spec.validate()
    manifest = {"format": DATASET_FORMAT, "seed": int(seed), "n": int(n), "spec": asdict(spec),
                "counts": {name: len(ids) for name, ids in split_ids(n).items()}}
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


def load_dataset(path, splits=SPLIT_NAMES) -> Dataset:
    """Generate the examples of the named splits of a dataset directory.

    `Dataset.splits` holds only those splits, each an id-ordered list of
    Examples; no example of another split is generated. Each split's images
    and label maps are one contiguous array that its Examples are views of.
    Pixels are rounded to float32 and held as float32; widened to float64,
    as the encoder widens them, they are bit for bit those of format 2 and
    of every artifact made from it. Raises DatasetError, naming the
    manifest, for one that is not a UTF-8 JSON object, of an unknown
    format, or with a field that the generator cannot take, such as a spec
    key other than grid.
    """
    path = Path(path) / "manifest.json"
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError alike
        raise DatasetError(f"{path}: not a UTF-8 JSON manifest: {exc}") from None
    if not isinstance(manifest, dict):
        raise DatasetError(f"{path}: the manifest is not a JSON object")
    if manifest.get("format") != DATASET_FORMAT:
        raise DatasetError(f"unknown dataset format in {path}; regenerate it with prelab gen-data")
    n, seed = manifest.get("n"), manifest.get("seed")
    try:
        if type(n) is not int or n < 1 or type(seed) is not int or seed < 0:
            raise ValueError(f"n must be an int >= 1 and seed an int >= 0, got {n!r} and {seed!r}")
        spec = DataSpec(**manifest.get("spec"))  # TypeError on a key DataSpec lacks
        spec.validate()
    except (TypeError, ValueError) as exc:
        raise DatasetError(f"{path}: {exc}") from None
    ids = split_ids(n)
    g = spec.grid
    ds = Dataset(spec=spec, seed=seed)
    for split_name in splits:
        images = np.empty((len(ids[split_name]), g * PATCH, g * PATCH), dtype=np.float32)
        labels = np.empty((len(ids[split_name]), g, g), dtype=np.int64)
        examples = []
        for k, i in enumerate(ids[split_name]):
            img, qa = generate_example(seed, i, spec)
            images[k] = img.pixels  # rounded to float32
            labels[k] = img.labels
            examples.append(Example(i, images[k], labels[k], qa.prompt, qa.answer,
                                    qa.probe_label))
        ds.splits[split_name] = examples
    return ds

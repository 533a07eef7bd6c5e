"""Datasets: a synthetic frequency-separable generator and a raw-image
directory format (labels.csv + planar u8 .raw files + dataset.json)."""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
import os
from dataclasses import dataclass

import numpy as np

from .atomic import atomic_open, write_csv
from .errors import ContractError, LoadError


@dataclass
class Dataset:
    images: np.ndarray  # (N, 3, H, W) float64 in [0, 1]
    labels: np.ndarray  # (N,) int
    split: str = "train"

    def __post_init__(self):
        if self.images.ndim != 4 or self.images.shape[1] != 3:
            raise ContractError(f"images must be (N, 3, H, W), got {self.images.shape}")
        if len(self.labels) != len(self.images) or len(self.images) < 1:
            raise ContractError("labels and images disagree or dataset empty")

    def __len__(self):
        return len(self.images)

    @property
    def classes(self) -> int:
        return int(self.labels.max()) + 1


# Radial bound of the low-pass filter, in cycles per pixel.
CUTOFF = 0.15


def generate_synthetic(n: int, size: int = 16, seed: int = 0,
                       split: str = "train") -> Dataset:
    """Two classes separable by spectrum: class 0 is smooth noise, low-pass
    filtered to radial frequency CUTOFF, class 1 the same noise modulated
    by a +-1 checkerboard (which shifts its energy toward Nyquist). Each
    image channel is then min-max scaled to [0, 1]; a constant one is 0.5."""
    if n < 1 or size < 2:
        raise ContractError("need n >= 1 samples and size >= 2")
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, n)
    fy = np.fft.fftfreq(size)[:, None]
    fx = np.fft.fftfreq(size)[None, :]
    mask = np.sqrt(fy * fy + fx * fx) <= CUTOFF
    noise = rng.standard_normal((n, 3, size, size))
    images = np.fft.ifft2(np.fft.fft2(noise) * mask).real
    j = np.arange(size)
    images[labels == 1] *= np.where((j[:, None] + j[None, :]) % 2 == 0, 1.0, -1.0)
    lo = images.min(axis=(2, 3), keepdims=True)
    span = images.max(axis=(2, 3), keepdims=True) - lo
    images = np.divide(images - lo, span, out=np.full(images.shape, 0.5),
                       where=span > 0)
    return Dataset(images, labels, split)


def save_dataset(dataset: Dataset, path):
    """Write the raw directory layout consumed by load_dataset. Each file is
    written atomically, and labels.csv, which lists the samples, is removed
    first and written last: an interrupted write leaves no labels.csv that
    names a missing image or one from another write."""
    os.makedirs(path, exist_ok=True)
    labels_file = os.path.join(path, "labels.csv")
    with contextlib.suppress(FileNotFoundError):
        os.remove(labels_file)
    h, w = dataset.images.shape[2:]
    with atomic_open(os.path.join(path, "dataset.json")) as f:
        json.dump({"height": int(h), "width": int(w)}, f)
    names = [f"img_{i:05d}.raw" for i in range(len(dataset))]
    for name, image in zip(names, dataset.images):
        raw = np.rint(np.clip(image * 255.0, 0, 255)).astype(np.uint8)
        with atomic_open(os.path.join(path, name), "wb") as f:
            f.write(raw.tobytes())
    write_csv(labels_file, ["filename", "label"],
              ([name, int(label)] for name, label in zip(names, dataset.labels)))


def load_dataset(path, limit: int | None = None) -> Dataset:
    """Read the first ``limit`` rows of ``labels.csv`` (all when None) and the
    image files they name, which must lie inside the dataset directory."""
    sidecar = os.path.join(path, "dataset.json")
    labels_file = os.path.join(path, "labels.csv")
    try:
        with open(sidecar) as f:
            dims = json.load(f)
    except (OSError, ValueError, RecursionError) as e:  # last: nested too deep
        raise LoadError(f"bad or missing sidecar {sidecar}: {e}") from e
    h, w = (dims.get(key) if isinstance(dims, dict) else None
            for key in ("height", "width"))
    if type(h) is not int or type(w) is not int:  # no float, bool or null
        raise LoadError(f"bad sidecar {sidecar}: height and width must be "
                        "integers")
    if h < 1 or w < 1:
        raise LoadError(f"{sidecar}: image size {h}x{w} is not positive")
    try:
        with open(labels_file, newline="", encoding="utf-8") as f:
            rows = list(itertools.islice(csv.DictReader(f), limit))
    except (OSError, UnicodeDecodeError, csv.Error) as e:  # csv: huge field
        raise LoadError(f"cannot read {labels_file}: {e}") from e
    if not rows:
        raise LoadError(f"{labels_file} lists no samples")
    labels = np.empty(len(rows), dtype=np.int64)
    expected = 3 * h * w
    root = os.path.realpath(path)
    for i, row in enumerate(rows):
        name = row.get("filename")
        if name is None or row.get("label") is None:
            raise LoadError(f"{labels_file}: row {i + 1} missing filename/label")
        fpath = os.path.realpath(os.path.join(root, name))
        if os.path.isabs(name) or os.path.commonpath([root, fpath]) != root:
            raise LoadError(f"{labels_file} row {i + 1}: {name!r} is not a path "
                            f"inside the dataset directory")
        try:
            raw = np.fromfile(fpath, dtype=np.uint8)
            labels[i] = int(row["label"])
        except (OSError, ValueError, OverflowError) as e:  # last: beyond int64
            raise LoadError(f"{labels_file} row {i + 1} ({name}): {e}") from e
        if raw.size != expected:
            raise LoadError(f"{fpath}: got {raw.size} bytes, expected {expected} "
                            f"for 3x{h}x{w}")
        if i == 0:  # only now does a file vouch for the sidecar's size
            images = np.empty((len(rows), 3, h, w))
        images[i] = raw.reshape(3, h, w) / 255.0
    if (labels < 0).any():
        raise LoadError(f"{labels_file}: negative label")
    return Dataset(images, labels)

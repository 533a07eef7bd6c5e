"""Diagnostic instruments: attention distance, head diversity, frequency
spectrum of layer inputs, and head-averaged attention maps."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .atomic import atomic_open, write_csv
from .errors import ContractError, DiagnosticError

DEFAULT_BINS = 10


@dataclass
class ProbeRecord:
    """One layer of one image or a batch: attention weights (..., heads, T, T),
    layer input (..., T, C), the token grid and pixels per grid step."""
    attention: np.ndarray
    layer_input: np.ndarray
    grid: tuple[int, int]
    pixel_spacing: float

    def __post_init__(self):
        h, w = self.grid
        t = 1 + h * w
        a, x = self.attention.shape, self.layer_input.shape
        if len(a) < 3 or a[-2:] != (t, t) or x[:-1] != a[:-3] + (t,):
            raise ContractError(f"attention {a} and layer input {x} do not "
                                f"match grid {self.grid}")
        rows = self.attention.sum(axis=-1)
        if not np.allclose(rows, 1.0, atol=1e-6):
            raise ContractError("attention rows must sum to 1")


def grid_distances(grid: tuple[int, int], spacing: float) -> np.ndarray:
    """Euclidean distance (in pixels) between every pair of patch tokens."""
    h, w = grid
    ys, xs = np.divmod(np.arange(h * w), w)
    dy = ys[:, None] - ys[None, :]
    dx = xs[:, None] - xs[None, :]
    return spacing * np.sqrt(dy * dy + dx * dx)


def attention_distance(rec: ProbeRecord) -> np.ndarray:
    """Per-head (..., heads) attention-weighted mean pixel distance over all
    patch-token queries. The class token carries no grid position, so it is
    dropped as query and key and each row is renormalized over patch keys."""
    h, w = rec.grid
    if h * w < 2:
        raise DiagnosticError(f"grid {rec.grid} too small for distances")
    a = rec.attention[..., 1:, 1:]
    mass = a.sum(axis=-1, keepdims=True)
    if np.any(mass <= 0):
        raise DiagnosticError("a query puts no attention mass on patch tokens")
    w = a / mass  # one full-size temporary, weighted in place
    w *= grid_distances(rec.grid, rec.pixel_spacing)
    return w.sum(axis=-1).mean(axis=-1)


def head_diversity(distances: np.ndarray) -> float:
    """Population variance of the per-head distances within one layer."""
    distances = np.asarray(distances, dtype=np.float64)
    if distances.size < 2:
        raise DiagnosticError("head diversity needs at least two heads")
    return float(np.var(distances))


def radial_bin_index(grid: tuple[int, int], bins: int) -> np.ndarray:
    """Bin index per DFT coefficient. Frequencies are centered, the radius
    is normalized so the axis Nyquist lands at pi, and radii beyond pi
    (grid corners) fold into the last bin."""
    h, w = grid
    fy = (np.arange(h) + h // 2) % h - h // 2
    fx = (np.arange(w) + w // 2) % w - w // 2
    ry = np.abs(fy) / (h / 2.0) if h > 1 else np.zeros(h)
    rx = np.abs(fx) / (w / 2.0) if w > 1 else np.zeros(w)
    omega = np.pi * np.sqrt(ry[:, None] ** 2 + rx[None, :] ** 2)
    idx = np.floor(omega / np.pi * bins).astype(int)
    return np.minimum(idx, bins - 1)


def frequency_share(rec: ProbeRecord, bins: int = DEFAULT_BINS) -> np.ndarray:
    """Histogram of spectral magnitude over normalized radial frequency
    [0, pi]: shape (..., bins). Per channel the patch tokens (class token
    excluded) are reshaped to the grid and transformed (FFT); magnitudes are
    summed over channels and normalized by the total mass."""
    if bins < 1:
        raise DiagnosticError(f"frequency share needs at least one bin, got {bins}")
    h, w = rec.grid
    patches = rec.layer_input[..., 1:, :]
    grids = patches.reshape(*patches.shape[:-2], h, w, patches.shape[-1])
    mag = np.abs(np.fft.fft2(grids, axes=(-3, -2))).sum(axis=-1).reshape(-1, h * w)
    # one bincount over (image, bin) pairs, summed in coefficient order
    idx = radial_bin_index(rec.grid, bins).ravel() + bins * np.arange(len(mag))[:, None]
    hist = np.bincount(idx.ravel(), mag.ravel(), len(mag) * bins).reshape(-1, bins)
    total = mag.sum(axis=-1, keepdims=True)
    shares = np.divide(hist, total, out=np.zeros_like(hist), where=total > 0)
    return shares.reshape(*patches.shape[:-2], bins)


def attention_map(rec: ProbeRecord, query: int
                  ) -> tuple[np.ndarray, float | np.ndarray]:
    """Head-averaged attention row of a patch-token query, reshaped to the
    grid (..., h, w). Returns (map, class_token_mass); their sum is 1."""
    h, w = rec.grid
    t = 1 + h * w
    if not 1 <= query < t:
        raise ContractError(f"query {query} is not a patch token (1..{t - 1})")
    row = rec.attention[..., query, :].mean(axis=-2)
    return row[..., 1:].reshape(*row.shape[:-1], h, w), row.take(0, axis=-1)


# -- batch aggregation and file output -------------------------------------


def mean_distances(records: list[ProbeRecord]) -> np.ndarray:
    """Per-head distances averaged across images (records of one layer)."""
    if not records:
        raise DiagnosticError("no records to average")
    return np.mean([attention_distance(r) for r in records], axis=0)


def _rows(table: np.ndarray):
    """One row per entry, in index order (layer-major): the entry's indices,
    then its value as ``repr``, which reads back to the same float."""
    return ([*index, repr(float(v))] for index, v in np.ndenumerate(table))


def write_distances_csv(path, distances: np.ndarray):
    """Per-layer head distances, (layers, heads)."""
    write_csv(path, ["layer", "head", "distance_px"], _rows(distances))


def write_diversity_csv(path, diversity: np.ndarray):
    """Per-layer head diversity, (layers,)."""
    write_csv(path, ["layer", "diversity"], _rows(diversity))


def write_spectrum_csv(path, spectrum: np.ndarray):
    """Per-layer frequency shares, (layers, bins)."""
    write_csv(path, ["layer", "bin", "share"], _rows(spectrum))


def write_pgm(path, image: np.ndarray):
    """8-bit binary PGM, max-normalized."""
    peak = image.max()
    scaled = image / peak if peak > 0 else image
    pixels = np.clip(scaled * 255.0, 0, 255).astype(np.uint8)
    h, w = pixels.shape
    with atomic_open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode())
        f.write(pixels.tobytes())

"""Plain-numpy forward pass of the model, written from the README's
description and sharing no code with ``eit``.

The benchmark checks the program's logits, probe CSVs and checkpoints
against this module. It takes a model config as the JSON document a user
writes (every field spelled out) and the parameters as a dict of arrays
keyed by the checkpoint's tensor names, and supports what the workloads
run: the ``decreasing``, ``none`` and ``parallel`` split policies with the
``conv`` branch, no position table and no dropout.

Every kernel is computed in a different order from the program's (shifted
slices instead of sliding windows, reshape-max pooling, per-offset
products), so agreement is to rounding, about 1e-14 relative, not bitwise.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np
from scipy.special import erf

LAYERNORM_EPS = 1e-6


def schedule(config: dict) -> list[tuple[int, int]]:
    """(conv width, attention width) per layer. At depth i (1-based) the
    conv share is C - floor((C // h) * i / L) * h."""
    c, h, n = config["channels"], config["heads"], config["layers"]
    policy = config["split_policy"]
    if policy == "parallel":
        return [(c, c)] * n
    if policy == "none":
        return [(0, c)] * n
    if policy != "decreasing":
        raise ValueError(f"reference does not model split_policy {policy!r}")
    conv = [c - ((c // h) * i // n) * h for i in range(1, n + 1)]
    return [(ct, c - ct) for ct in conv]


def token_grid(config: dict) -> tuple[int, int]:
    h, w, _ = config["image"]
    p = config["eitp"]
    hc = (h + 2 * p["padding"] - p["kernel"]) // p["stride"] + 1
    wc = (w + 2 * p["padding"] - p["kernel"]) // p["stride"] + 1
    return hc // p["pool"], wc // p["pool"]


def pixel_spacing(config: dict) -> int:
    return config["eitp"]["stride"] * config["eitp"]["pool"]


def _conv(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int,
          pad: int, depthwise: bool) -> np.ndarray:
    """NCHW convolution as a sum over kernel offsets of shifted slices."""
    n, c, h, width = x.shape
    o, _, kh, kw = w.shape
    xp = np.zeros((n, c, h + 2 * pad, width + 2 * pad))
    xp[:, :, pad:pad + h, pad:pad + width] = x
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (width + 2 * pad - kw) // stride + 1
    out = np.zeros((n, o, oh, ow))
    for i in range(kh):
        for j in range(kw):
            tap = xp[:, :, i:i + stride * (oh - 1) + 1:stride,
                     j:j + stride * (ow - 1) + 1:stride]
            if depthwise:
                out += tap * w[:, 0, i, j][None, :, None, None]
            else:
                out += np.einsum("nchw,oc->nohw", tap, w[:, :, i, j])
    return out + b[None, :, None, None]


def _layernorm(x, gain, shift):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + LAYERNORM_EPS) * gain + shift


def _softmax(s):
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _attention(x, p, prefix, heads):
    n, t, cm = x.shape
    d = cm // heads
    qkv = x @ p[f"{prefix}.qkv.weight"] + p[f"{prefix}.qkv.bias"]
    q, k, v = (qkv[:, :, i * cm:(i + 1) * cm].reshape(n, t, heads, d)
               .transpose(0, 2, 1, 3) for i in range(3))
    a = _softmax(q @ k.transpose(0, 1, 3, 2) / np.sqrt(d))
    o = (a @ v).transpose(0, 2, 1, 3).reshape(n, t, cm)
    return o @ p[f"{prefix}.out.weight"] + p[f"{prefix}.out.bias"], a


def _grid_branch(x, p, prefix, grid, kernel, depthwise):
    """Conv over the patch tokens laid out on the grid; the class token
    passes through unchanged."""
    n, t, c = x.shape
    h0, w0 = grid
    img = x[:, 1:, :].reshape(n, h0, w0, c).transpose(0, 3, 1, 2)
    y = _conv(img, p[f"{prefix}.conv.weight"], p[f"{prefix}.conv.bias"], 1,
              kernel // 2, depthwise)
    y = y.transpose(0, 2, 3, 1).reshape(n, h0 * w0, c)
    return np.concatenate([x[:, :1, :], y], axis=1)


def forward(params: dict, config: dict, images: np.ndarray):
    """Returns (logits (N, classes), layer inputs [(N, T, C)] and attention
    weights [(N, heads, T, T)], one entry per layer)."""
    for key, want in (("pos_embed", "none"), ("dropout", 0.0)):
        if config[key] != want:
            raise ValueError(f"reference needs {key} = {want!r}")
    if config["eitt"]["branch_style"] != "conv" or config["eitt"]["stride"] != 1:
        raise ValueError("reference models the stride-1 'conv' branch only")
    p = {k: np.asarray(v, dtype=np.float64) for k, v in params.items()}
    c, heads = config["channels"], config["heads"]
    e = config["eitp"]
    n = images.shape[0]
    grid = token_grid(config)
    h0, w0 = grid
    kt = config["eitt"]["kernel"]

    x = _conv(images, p["eitp.weight"], p["eitp.bias"], e["stride"],
              e["padding"], False)
    s = e["pool"]
    x = x[:, :, :h0 * s, :w0 * s].reshape(n, c, h0, s, w0, s).max(axis=(3, 5))
    x = x.reshape(n, c, h0 * w0).transpose(0, 2, 1)
    x = np.concatenate([np.broadcast_to(p["cls_token"], (n, 1, c)), x], axis=1)

    inputs, attentions = [], []
    for i, (ct, cm) in enumerate(schedule(config)):
        pre = f"layers.{i}"
        inputs.append(x.copy())
        n1 = _layernorm(x, p[f"{pre}.norm1.gain"], p[f"{pre}.norm1.shift"])
        att, a = _attention(n1[:, :, c - cm:], p, f"{pre}.attn", heads)
        attentions.append(a)
        if config["split_policy"] == "parallel":
            mix = _grid_branch(n1, p, pre, grid, kt, False) + att
        elif ct == 0:
            mix = att
        else:
            conv = _grid_branch(n1[:, :, :ct], p, pre, grid, kt, True)
            mix = np.concatenate([conv, att], axis=2)
        x = x + mix
        n2 = _layernorm(x, p[f"{pre}.norm2.gain"], p[f"{pre}.norm2.shift"])
        hid = n2 @ p[f"{pre}.mlp.fc1.weight"] + p[f"{pre}.mlp.fc1.bias"]
        hid = hid * 0.5 * (1.0 + erf(hid / np.sqrt(2.0)))
        x = x + hid @ p[f"{pre}.mlp.fc2.weight"] + p[f"{pre}.mlp.fc2.bias"]
    x = _layernorm(x, p["norm.gain"], p["norm.shift"])
    logits = x[:, 0, :] @ p["head.weight"] + p["head.bias"]
    return logits, inputs, attentions


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    z = logits - logits.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1))
    return float(np.mean(lse - z[np.arange(len(labels)), labels]))


# -- probe quantities, from their definitions ------------------------------


def spectrum(layer_input: np.ndarray, grid: tuple[int, int],
             bins: int) -> np.ndarray:
    """Share of FFT magnitude (summed over channels, class token dropped)
    per radial bin. The radius is normalised so the axis Nyquist lands at
    pi; radii past pi (the grid corners) fall into the last bin."""
    h, w = grid
    slab = layer_input[1:].reshape(h, w, -1)
    mag = np.abs(np.fft.fft2(slab, axes=(0, 1))).sum(axis=2)
    fy = np.fft.fftfreq(h) * h
    fx = np.fft.fftfreq(w) * w
    ry = np.abs(fy) / (h / 2.0) if h > 1 else np.zeros(h)
    rx = np.abs(fx) / (w / 2.0) if w > 1 else np.zeros(w)
    omega = np.pi * np.hypot(ry[:, None], rx[None, :])
    idx = np.minimum((omega / np.pi * bins).astype(int), bins - 1)
    shares = np.bincount(idx.ravel(), weights=mag.ravel(), minlength=bins)
    return shares / mag.sum()


def head_distances(attention: np.ndarray, grid: tuple[int, int],
                   spacing: float) -> np.ndarray:
    """Per head: over patch queries, the mean of the pixel distance to each
    patch key weighted by attention renormalised over patch keys."""
    h, w = grid
    pos = np.array([(j // w, j % w) for j in range(h * w)], dtype=np.float64)
    dist = spacing * np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
    a = attention[:, 1:, 1:]
    a = a / a.sum(axis=-1, keepdims=True)
    return np.einsum("hqk,qk->hq", a, dist).mean(axis=1)


# -- the on-disk formats the CLI reads and writes ---------------------------


def read_dataset(path) -> tuple[np.ndarray, np.ndarray]:
    """dataset.json (height/width), labels.csv (filename,label) and one
    planar u8 3xHxW .raw file per image."""
    with open(os.path.join(path, "dataset.json")) as f:
        dims = json.load(f)
    with open(os.path.join(path, "labels.csv"), newline="") as f:
        rows = list(csv.DictReader(f))
    shape = (3, dims["height"], dims["width"])
    images = np.stack([np.fromfile(os.path.join(path, r["filename"]),
                                   dtype=np.uint8).reshape(shape) / 255.0
                       for r in rows])
    return images, np.array([int(r["label"]) for r in rows])


def read_pgm(path) -> tuple[int, int, bytes]:
    """(width, height, pixels) of a binary 8-bit PGM."""
    with open(path, "rb") as f:
        blob = f.read()
    magic, size, peak, pixels = blob.split(b"\n", 3)
    if magic != b"P5" or peak != b"255":
        raise ValueError(f"{path}: not an 8-bit binary PGM")
    w, h = (int(v) for v in size.split())
    return w, h, pixels

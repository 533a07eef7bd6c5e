"""Brute-force reference implementations the tests compare against.

Everything here is deliberately naive (explicit loops, no shared code with
the package) so it can serve as an independent oracle. The one exception,
``attention_core_nodes``, is the attention core as a chain of the engine's
plain op nodes, so the engine's chain rule checks the core's own backward.
"""

import numpy as np


def conv2d_loops(x, w, b, stride, pad, groups):
    """Quadruple-loop grouped 2D convolution. x (N,C,H,W), w (O,C/g,kh,kw)."""
    n, c, h, width = x.shape
    o, cig, kh, kw = w.shape
    xp = np.zeros((n, c, h + 2 * pad, width + 2 * pad))
    xp[:, :, pad:pad + h, pad:pad + width] = x
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (width + 2 * pad - kw) // stride + 1
    og = o // groups
    out = np.zeros((n, o, oh, ow))
    for ni in range(n):
        for oi in range(o):
            g = oi // og
            for p in range(oh):
                for q in range(ow):
                    acc = 0.0
                    for ci in range(cig):
                        for ki in range(kh):
                            for kj in range(kw):
                                acc += w[oi, ci, ki, kj] * \
                                    xp[ni, g * cig + ci, p * stride + ki,
                                       q * stride + kj]
                    out[ni, oi, p, q] = acc + (b[oi] if b is not None else 0.0)
    return out


def maxpool_loops(x, window, stride):
    n, c, h, w = x.shape
    oh = (h - window) // stride + 1
    ow = (w - window) // stride + 1
    out = np.zeros((n, c, oh, ow))
    for ni in range(n):
        for ci in range(c):
            for p in range(oh):
                for q in range(ow):
                    out[ni, ci, p, q] = x[ni, ci,
                                          p * stride:p * stride + window,
                                          q * stride:q * stride + window].max()
    return out


def matmul_loops(a, b):
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for l in range(k):
                out[i, j] += a[i, l] * b[l, j]
    return out


def softmax_loops(row):
    e = np.exp(row - row.max())
    return e / e.sum()


def attention_core_nodes(qkv, heads):
    """Multi-head attention from a qkv projection Tensor (N, T, 3 C_M) to the
    merged heads (N, T, C_M), built from reshape, transpose, index, matmul,
    scale and softmax_rows nodes; returns it and the weights' array."""
    from eit.tensor import matmul, softmax_rows

    n, t, c3 = qkv.shape
    cm = c3 // 3
    d = cm // heads
    qkv = qkv.reshape(n, t, 3, heads, d).transpose(2, 0, 3, 1, 4)
    q, k, v = qkv[0], qkv[1], qkv[2]
    a = softmax_rows(matmul(q, k.transpose(0, 1, 3, 2)) * (1.0 / np.sqrt(d)))
    return matmul(a, v).transpose(0, 2, 1, 3).reshape(n, t, cm), a.data


def dft2_loops(grid):
    """Direct double-sum 2D DFT."""
    h, w = grid.shape
    out = np.zeros((h, w), dtype=complex)
    for fy in range(h):
        for fx in range(w):
            acc = 0.0 + 0.0j
            for y in range(h):
                for x in range(w):
                    acc += grid[y, x] * np.exp(-2j * np.pi * (fy * y / h + fx * x / w))
            out[fy, fx] = acc
    return out


def vit_layer_loops(x, p, heads):
    """Straight-line plain ViT pre-norm encoder layer (no channel split).

    x: (T, C) single token sequence. p: dict of plain arrays with keys
    norm1_g, norm1_s, qkv_w, qkv_b, out_w, out_b, norm2_g, norm2_s,
    fc1_w, fc1_b, fc2_w, fc2_b.
    """
    from scipy.special import erf

    def ln(v, g, s):
        mu = v.mean(axis=-1, keepdims=True)
        var = ((v - mu) ** 2).mean(axis=-1, keepdims=True)
        return (v - mu) / np.sqrt(var + 1e-6) * g + s

    def gelu(v):
        return 0.5 * v * (1.0 + erf(v / np.sqrt(2.0)))

    t, c = x.shape
    d = c // heads
    n1 = ln(x, p["norm1_g"], p["norm1_s"])
    qkv = n1 @ p["qkv_w"] + p["qkv_b"]
    q, k, v = qkv[:, :c], qkv[:, c:2 * c], qkv[:, 2 * c:]
    heads_out = []
    for hh in range(heads):
        qh = q[:, hh * d:(hh + 1) * d]
        kh = k[:, hh * d:(hh + 1) * d]
        vh = v[:, hh * d:(hh + 1) * d]
        logits = qh @ kh.T / np.sqrt(d)
        a = np.array([softmax_loops(r) for r in logits])
        heads_out.append(a @ vh)
    attn = np.concatenate(heads_out, axis=1) @ p["out_w"] + p["out_b"]
    y = x + attn
    n2 = ln(y, p["norm2_g"], p["norm2_s"])
    return y + gelu(n2 @ p["fc1_w"] + p["fc1_b"]) @ p["fc2_w"] + p["fc2_b"]


def synthetic_loops(n, size, seed):
    """The synthetic set one image and one channel at a time: noise
    low-pass filtered at 0.15 cycles per pixel, checkerboard-modulated for
    class 1, min-max scaled."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, n)
    fy = np.fft.fftfreq(size)[:, None]
    fx = np.fft.fftfreq(size)[None, :]
    mask = np.sqrt(fy * fy + fx * fx) <= 0.15
    j = np.arange(size)
    board = np.where((j[:, None] + j[None, :]) % 2 == 0, 1.0, -1.0)
    images = np.empty((n, 3, size, size))
    for i in range(n):
        for ch in range(3):
            noise = rng.standard_normal((size, size))
            img = np.real(np.fft.ifft2(np.fft.fft2(noise) * mask))
            if labels[i]:
                img = img * board
            lo, hi = img.min(), img.max()
            images[i, ch] = (img - lo) / (hi - lo) if hi > lo else 0.5
    return images, labels

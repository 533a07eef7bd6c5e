"""Dense tensor engine with reverse-mode differentiation.

A Tensor holds a float64 numpy array (``data``), its gradient (``grad``,
kept only on leaves) and its graph node, or no node when no gradient
flows through it. An op's node holds only what its backward needs: the
backward closure, the parents' nodes (None for a parent that needs no
gradient) and the output shape. A leaf's node holds a weak reference to
its Tensor, which receives the gradient, so a parameter and its node form
no reference cycle. ``backward()`` of a scalar loss replays the nodes in
reverse topological order (``_replay``), sums each gradient over
broadcast axes, accumulates it and releases the graph, so a graph is
replayed once.

No node refers to a Tensor, so an interior Tensor dies with its last
Python reference, and its array dies with it unless some closure saved
it. A closure saves exactly what its backward reads: matmul both
operands, ``*`` the other operand of each factor that needs a gradient,
linear its input and weight, softmax and log-softmax their output,
normalization the standardized input, conv2d the window view of its
padded input (of the input itself at padding 0), ReLU and dropout their
masks; sum saves a shape, indexing its input's shape and the indices,
and max-pooling one flat index into its input. GELU saves its derivative
Phi(x) + x * density(x), computed in the forward only when x needs a
gradient, in place of x and Phi(x); its output x * Phi(x) is written
into Phi's buffer, so it allocates no full-size array beyond the two.
``recompute(fn, x)`` trades time for memory: it keeps only x's array,
and its backward runs ``fn`` again and replays the graph that builds.

Only the kernels the model actually needs are implemented: matmul, linear
(``x @ W + b`` as one node over flattened rows),
standard/grouped/depthwise 2D convolution, max-pooling, softmax and
log-softmax, normalization (layer and batch norm), GELU/ReLU, slicing and
channel concatenation, plus add, multiply and a full sum. Max-pooling
takes disjoint windows only (stride = window).

Convolution is a strided-window GEMM: ``_windows`` views every kernel
window of the input through its strides, without a copy; the windows are
gathered into columns and one batched matmul with the per-group weights
gives the output, for every group count. The weight, (C_out, C_in/groups,
kh, kw), fixes a conv's geometry: groups is C_in / w.shape[1]. ``out_size``
holds the one output-size law. Max-pooling reads the same window view.
``_windows`` takes only a C-contiguous array: conv2d's zero-padded buffer
is one, and at padding 0 conv2d and maxpool2d pass
``np.ascontiguousarray`` of their input, which copies only a
non-contiguous one.

Per-node cost matters as much as array work on small inputs (a MICRO
gradcheck runs thousands of forwards of arrays of a few hundred
elements), so the code that runs once per node calls numpy only on
arrays: a numpy call on a Python tuple, list or scalar costs several
microseconds before any arithmetic.

All operations are pure: identical inputs give bit-identical outputs.
"""

from __future__ import annotations

import math
import weakref

import numpy as np
from scipy.special import erf

from .errors import ContractError, GeometryError

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def _scatter_into_zeros(shape, key, g: np.ndarray, unique: bool) -> np.ndarray:
    """Zeros of ``shape`` with g added at ``key``. When ``key`` selects no
    element twice, an assignment does what ``np.add.at`` does, without its
    slow loop; the + 0.0 turns a -0.0 into +0.0, as adding into zeros does."""
    gx = np.zeros(shape)
    if unique:
        gx[key] = g + 0.0
    else:
        np.add.at(gx, key, g)
    return gx


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum grad over axes that were broadcast to reach grad.shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


class _Node:
    """One op's record in the graph, or a leaf's: the backward closure (None
    for a leaf and once replayed), the parents' nodes (None for a parent
    that needs no gradient), the shape of the Tensor it stands for and, for
    a leaf, a weak reference to that Tensor."""

    __slots__ = ("backward", "parents", "shape", "leaf")

    def __init__(self, backward, parents, shape, leaf=None):
        self.backward = backward
        self.parents = parents
        self.shape = shape
        self.leaf = leaf


def _replay(root: _Node, seed: np.ndarray) -> None:
    """Replay the graph under ``root`` from ``seed``, the gradient of root's
    output: run the nodes in reverse topological order, sum each gradient
    over broadcast axes, accumulate it into the leaves' ``grad`` and
    release each node once run."""
    topo: list[_Node] = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        for p in node.parents:
            if p is not None:
                stack.append((p, False))
    grads = {root: seed}
    while topo:
        node = topo.pop()
        g = grads.pop(node, None)
        if node.backward is None:  # a leaf, or a node replayed before
            leaf = node.leaf() if node.leaf is not None else None
            if leaf is not None and g is not None:
                leaf.grad = np.array(g) if leaf.grad is None else leaf.grad + g
            continue
        for p, gp in zip(node.parents, node.backward(g), strict=True):
            if p is not None:
                gp = _unbroadcast(gp, p.shape)
                grads[p] = grads[p] + gp if p in grads else gp
        node.parents, node.backward = (), None


class Tensor:
    """An array, its gradient and its node in the autograd graph."""

    __slots__ = ("data", "grad", "_node", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self._node = _Node(None, (), self.data.shape, weakref.ref(self)) \
            if requires_grad else None

    # ---- construction helpers -------------------------------------------

    @staticmethod
    def _from_op(data, parents, backward):
        """Tensor for an op's output. ``backward(g)`` returns one gradient per
        parent, in order, and writes to no Tensor; it gets a node only when
        some parent needs a gradient. ``Tensor.backward`` replays the graph
        once and then releases it."""
        out = Tensor(data)
        for p in parents:
            if p._node is not None:
                out._node = _Node(backward, tuple([q._node for q in parents]),
                                  out.data.shape)
                break
        return out

    @property
    def requires_grad(self) -> bool:
        return self._node is not None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """A leaf sharing this tensor's data; ops on it build no graph."""
        return Tensor(self.data)

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, grad={self.requires_grad})"

    # ---- backward pass ---------------------------------------------------

    def backward(self):
        if self.data.size != 1:
            raise ContractError("backward() requires a scalar loss")
        if self._node is not None:
            _replay(self._node, np.ones(self.data.shape))

    # ---- arithmetic ------------------------------------------------------

    @staticmethod
    def _wrap(x) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(x)

    def __add__(self, other):
        other = Tensor._wrap(other)
        return Tensor._from_op(self.data + other.data, (self, other),
                               lambda g: (g, g))

    def __mul__(self, other):
        other = Tensor._wrap(other)
        a, b = self.data, other.data
        out = a * b
        # Each operand's gradient reads the other operand: keep that only
        # when the gradient is needed.
        if self._node is None:
            b = None
        if other._node is None:
            a = None
        return Tensor._from_op(out, (self, other), lambda g: (
            None if b is None else g * b, None if a is None else g * a))

    # ---- shape ops -------------------------------------------------------

    def reshape(self, *shape):
        old = self.shape
        return Tensor._from_op(self.data.reshape(shape), (self,),
                               lambda g: (g.reshape(old),))

    def transpose(self, *axes):
        inv = [0] * len(axes)
        for i, a in enumerate(axes):
            inv[a] = i
        return Tensor._from_op(self.data.transpose(axes), (self,),
                               lambda g: (g.transpose(inv),))

    def __getitem__(self, key):
        # Slices and ints pick each element at most once; an advanced index
        # (e.g. cross_entropy's [rows, labels]) may repeat one. A loop, not
        # all() over a generator: this runs once per node.
        basic = True
        for k in key if isinstance(key, tuple) else (key,):
            if type(k) is not slice and type(k) is not int:
                basic = False
                break
        shape = self.shape
        return Tensor._from_op(
            self.data[key], (self,),
            lambda g: (_scatter_into_zeros(shape, key, g, basic),))

    def sum(self):
        """Sum of every element."""
        shape = self.shape
        return Tensor._from_op(self.data.sum(), (self,),
                               lambda g: (np.broadcast_to(g, shape),))

    # ---- activations -----------------------------------------------------

    def relu(self):
        mask = self.data > 0
        return Tensor._from_op(np.where(mask, self.data, 0.0), (self,),
                               lambda g: (g * mask,))

    def gelu(self):
        """Exact Gaussian-CDF GELU: x * Phi(x), written into Phi's buffer
        (bitwise equal, as IEEE multiplication commutes). Its backward reads
        only the derivative Phi(x) + x * density(x), computed here when x
        needs a gradient."""
        x = self.data
        phi = x * _INV_SQRT2  # 0.5 * (1 + erf(x / sqrt 2)), in place
        erf(phi, out=phi)
        phi += 1.0
        phi *= 0.5
        d = None
        if self._node is not None:  # phi + x * density(x), in place
            d = x * -0.5
            d *= x
            np.exp(d, out=d)
            d *= _INV_SQRT_2PI
            d *= x
            d += phi
        phi *= x  # x * Phi(x), in Phi's buffer
        return Tensor._from_op(phi, (self,), lambda g: (d * g,))


def recompute(fn, x: Tensor) -> tuple[Tensor, np.ndarray]:
    """``fn(x)``, which returns a Tensor and an array, as one node that
    keeps only ``x.data``: the graph ``fn`` builds dies with its output,
    and the backward runs ``fn`` again on a leaf over that array and
    replays the new graph (activation recomputation, Chen et al. 2016).
    ``fn`` must be pure and must not capture ``x``."""
    out, extra = fn(x)
    data = x.data

    def back(g):
        leaf = Tensor(data, requires_grad=True)
        _replay(fn(leaf)[0]._node, g)
        return (leaf.grad,)
    return Tensor._from_op(out.data, (x,), back), extra


def concat(tensors: list[Tensor], axis: int) -> Tensor:
    splits, end = [], 0
    for t in tensors[:-1]:
        end += t.shape[axis]
        splits.append(end)
    tensors = tuple(tensors)
    return Tensor._from_op(np.concatenate([t.data for t in tensors], axis=axis),
                           tensors, lambda g: np.split(g, splits, axis=axis))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product over the two trailing axes."""
    if a.shape[-1] != b.shape[-2]:
        raise ContractError(f"matmul inner mismatch: {a.shape} @ {b.shape}")
    ad, bd = a.data, b.data
    return Tensor._from_op(
        ad @ bd, (a, b),
        lambda g: (g @ bd.swapaxes(-1, -2), ad.swapaxes(-1, -2) @ g))


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """x @ weight + bias over the trailing axis of x, weight (C_in, C_out).
    One node: the leading axes are flattened so the product and both
    gradients are single 2-D GEMMs, and the weight gradient needs no
    per-batch stack to sum."""
    cin, cout = weight.shape
    if x.shape[-1] != cin or bias.shape != (cout,):
        raise ContractError(f"linear: {x.shape} @ {weight.shape} + {bias.shape}")
    x2, w = x.data.reshape(-1, cin), weight.data
    xshape, x_grad = x.shape, x.requires_grad
    out = x2 @ w
    out += bias.data

    def back(g):
        g2 = g.reshape(-1, cout)
        gx = (g2 @ w.T).reshape(xshape) if x_grad else None
        return gx, x2.T @ g2, g2.sum(axis=0)
    return Tensor._from_op(out.reshape(*x.shape[:-1], cout), (x, weight, bias),
                           back)


def _row_shifted(x: Tensor, op: str) -> np.ndarray:
    """x minus its row maxima (a new array), so exp of it cannot overflow."""
    if not np.isfinite(x.data).all():
        raise ContractError(f"{op}: non-finite input")
    return x.data - x.data.max(axis=-1, keepdims=True)


def softmax_rows(x: Tensor) -> Tensor:
    """Row-stabilized softmax over the trailing axis."""
    s = _row_shifted(x, "softmax_rows")
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    return Tensor._from_op(
        s, (x,), lambda g: (s * (g - (g * s).sum(axis=-1, keepdims=True)),))


def log_softmax(x: Tensor) -> Tensor:
    """Row-stabilized log-softmax over the trailing axis."""
    z = _row_shifted(x, "log_softmax")
    z -= np.log(np.exp(z).sum(axis=-1, keepdims=True))
    return Tensor._from_op(
        z, (x,), lambda g: (g - np.exp(z) * g.sum(axis=-1, keepdims=True),))


def normalize(x: Tensor, axes: tuple[int, ...], gain: Tensor, shift: Tensor,
              eps: float) -> Tensor:
    """Standardize x over ``axes`` (biased variance + eps), then affine."""
    if eps <= 0:
        raise ContractError("normalize: eps must be positive")
    inv_n = 1.0 / math.prod(x.shape[a] for a in axes)
    xhat = x.data - x.data.sum(axis=axes, keepdims=True) * inv_n
    std = np.sqrt((xhat * xhat).sum(axis=axes, keepdims=True) * inv_n + eps)
    xhat /= std
    gd = gain.data
    out = xhat * gd
    out += shift.data

    def back(g):
        gh = g * gd
        dx = gh - gh.sum(axis=axes, keepdims=True) * inv_n
        dx -= xhat * ((gh * xhat).sum(axis=axes, keepdims=True) * inv_n)
        return dx / std, g * xhat, g
    return Tensor._from_op(out, (x, gain, shift), back)


def layernorm(x: Tensor, gain: Tensor, shift: Tensor, eps: float = 1e-6) -> Tensor:
    """Normalize the trailing (channel) axis to mean 0 / var 1, then affine."""
    return normalize(x, (-1,), gain, shift, eps)


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; identity when rate == 0."""
    if rate <= 0.0:
        return x
    keep = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return Tensor._from_op(x.data * keep, (x,), lambda g: (g * keep,))


# ---- convolution and pooling --------------------------------------------


def out_size(n: int, window: int, stride: int, padding: int = 0) -> int:
    """Extent of a window sliding over n inputs zero-padded by ``padding`` on
    each side: floor((n + 2p - k) / s) + 1. Every conv, pool and token-grid
    size comes from here."""
    if window < 1 or stride < 1 or padding < 0:
        raise ContractError(f"bad window {window}, stride {stride} or "
                            f"padding {padding}")
    if n + 2 * padding < window:
        raise GeometryError(f"input {n} with padding {padding} smaller than "
                            f"window {window}")
    return (n + 2 * padding - window) // stride + 1


def _windows(x: np.ndarray, kh: int, kw: int, stride: int,
             groups: int = 1) -> np.ndarray:
    """(N, C, H, W) -> read-only view (N, G, C/G, kh, kw, OH, OW) of every
    kh x kw window at ``stride``. x must be C-contiguous (a first-axis slice
    of a contiguous array is): the view is an ``np.ndarray`` over x's buffer
    with x's own strides, several times cheaper than ``as_strided``, and
    ``np.ndarray`` refuses a non-contiguous buffer with a ValueError.
    Read-only because windows overlap."""
    n, c, h, w = x.shape
    sn, sc, sh, sw = x.strides
    win = np.ndarray((n, groups, c // groups, kh, kw,
                      out_size(h, kh, stride), out_size(w, kw, stride)),
                     x.dtype, x, 0,
                     (sn, sc * (c // groups), sc, sh, sw, sh * stride, sw * stride))
    win.flags.writeable = False
    return win


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None, stride: int = 1,
           padding: int = 0) -> Tensor:
    """Grouped 2D convolution. weight is (C_out, C_in/groups, kh, kw): it
    gives the kernel and the output channels, and groups is C_in divided by
    weight.shape[1] (1 for a full conv, C_in for a depthwise one).

    Strided-window GEMM (unfold + matmul, Chellapilla et al. 2006): the
    windows of the zero-padded input, as columns of K = C_in/groups*kh*kw
    rows, meet the (groups, C_out/groups, K) weights in one batched matmul.
    Patch, grouped, depthwise and full-width convs take this one path.
    The backward keeps only the window view and builds columns when run."""
    if x.ndim != 4 or weight.ndim != 4:
        raise ContractError(f"conv2d: input {x.shape} and weight {weight.shape} "
                            f"must both be 4-D")
    wshape = weight.shape
    cout, cig, kh, kw = wshape
    n, cin, h, w = x.shape
    # cin < cig also keeps g >= 1 for the modulo below
    if min(cout, cig) < 1 or cin < cig or cin % cig:
        raise ContractError(f"conv2d: weight {wshape} does not fit input {x.shape}")
    g = cin // cig
    if cout % g:
        raise ContractError(f"conv2d: {cout} output channels not divisible by "
                            f"{g} groups")
    if bias is not None and bias.shape != (cout,):
        raise ContractError(f"conv2d: bias {bias.shape}, expected ({cout},)")

    oh, ow = out_size(h, kh, stride, padding), out_size(w, kw, stride, padding)
    p, s = padding, stride
    cog = cout // g
    k, m = cig * kh * kw, oh * ow
    if p:
        xp = np.zeros((n, cin, h + 2 * p, w + 2 * p))
        xp[:, :, p:p + h, p:p + w] = x.data
    else:  # copies only a non-contiguous x, e.g. a 1x1 conv branch's tokens
        xp = np.ascontiguousarray(x.data)
    win = _windows(xp, kh, kw, s, g)
    wg = weight.data.reshape(g, cog, k)
    out = (wg @ win.reshape(n, g, k, m)).reshape(n, cout, oh, ow)
    if bias is not None:
        out += bias.data[None, :, None, None]

    parents = (x, weight) if bias is None else (x, weight, bias)
    has_bias, x_grad = bias is not None, x.requires_grad

    def back(gout):
        gg = gout.reshape(n, g, cog, m)
        cols = win.transpose(1, 0, 5, 6, 2, 3, 4).reshape(g, n * m, k)
        gw = (gg.transpose(1, 2, 0, 3).reshape(g, cog, n * m) @ cols).reshape(wshape)
        gb = (gout.sum(axis=(0, 2, 3)),) if has_bias else ()
        if not x_grad:  # e.g. the raw image: nothing reads its gradient
            return (None, gw, *gb)
        gcol = (wg.transpose(0, 2, 1) @ gg).reshape(n, cin, kh, kw, oh, ow)
        gxp = np.zeros(xp.shape)
        for i in range(kh):
            for j in range(kw):
                gxp[:, :, i:i + s * (oh - 1) + 1:s,
                    j:j + s * (ow - 1) + 1:s] += gcol[:, :, i, j]
        gx = gxp[:, :, p:p + h, p:p + w] if p else gxp
        return (gx, gw, *gb)
    return Tensor._from_op(out, parents, back)


def maxpool2d(x: Tensor, window: int) -> Tensor:
    """Max pooling over disjoint window x window blocks (stride = window);
    the gradient flows to the first (row-major) argmax of each block."""
    if x.ndim != 4:
        raise ContractError(f"maxpool2d: expected NCHW input, got {x.shape}")
    n, c, h, w = x.shape
    oh, ow = out_size(h, window, window), out_size(w, window, window)
    # Per image: gathering the whole batch's windows would copy the input.
    idx = np.empty((n, c, oh, ow), dtype=np.intp)
    xc = np.ascontiguousarray(x.data)  # the model's conv output already is
    for i in range(n):
        win = _windows(xc[i:i + 1], window, window, window)[0, 0]
        idx[i] = win.transpose(0, 3, 4, 1, 2).reshape(c, oh, ow, -1).argmax(axis=-1)
    dy, at = np.divmod(idx, window)  # argmax's place in its window
    dy += np.arange(0, window * oh, window)[:, None]
    dy += np.arange(0, n * c * h, h).reshape(n, c, 1, 1)  # row of (N*C*H, W)
    dy *= w
    at += np.arange(0, window * ow, window)
    at += dy  # one flat index into xc
    shape, size = x.shape, xc.size
    return Tensor._from_op(
        xc.reshape(-1)[at], (x,),
        lambda g: (_scatter_into_zeros(size, at, g, True).reshape(shape),))

"""The EIT architecture.

An image is tokenized by an overlapping convolution plus max-pool
(the patch stage), then runs through a stack of pre-norm encoder layers.
Each layer splits the channel axis between a depthwise-convolution branch
and multi-head attention according to a per-layer schedule; the default
"decreasing" policy gives shallow layers a conv-heavy split that shrinks
to pure attention at the last layer.
"""

import json
import math
from collections.abc import Callable
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass

import numpy as np

from .errors import ConfigError, ContractError
from .tensor import (Tensor, concat, conv2d, dropout, layernorm, linear,
                     matmul, maxpool2d, normalize, out_size, softmax_rows)

SPLIT_POLICIES = ("decreasing", "increasing", "invariant", "parallel", "none")
# Each conv-branch style as the ordered steps it applies to the patch tokens:
# "conv*" is a stride-1 same-padded conv over the token grid, "fc" a
# token-wise linear map, "bn" a batch norm on current-batch statistics,
# "gelu"/"relu" activations. ``branch_layout`` gives each step's parameters.
BRANCH_STEPS = {"conv": ("conv",),
                "conv3": ("conv0", "conv1", "conv2"),
                "gelu_conv_fc": ("gelu", "conv", "fc"),
                "conv_bn_relu": ("conv", "bn", "relu"),
                "none": ()}
BRANCH_STYLES = tuple(BRANCH_STEPS)
POS_EMBED_MODES = ("none", "trainable")


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


# Field type -> (accepts a value, what the error message asks for).
_FIELD_TYPES = {
    int: (_is_int, "integer"),
    tuple[int, int, int]: (
        lambda v: isinstance(v, tuple) and all(map(_is_int, v)),
        "a list of integers"),
    float: (lambda v: _is_int(v) or isinstance(v, (float, np.floating)),
            "a number"),
}


def check_field_types(config) -> None:
    """Reject a value of the wrong JSON type in a config field: an int field
    (and each image entry) takes no float or bool (e.g. 8.0), and a float
    field no string or bool."""
    for f in fields(config):
        if f.type not in _FIELD_TYPES:
            continue
        accepts, wanted = _FIELD_TYPES[f.type]
        value = getattr(config, f.name)
        if not accepts(value):
            raise ConfigError(f"{type(config).__name__}.{f.name} must be "
                              f"{wanted}, got {value!r}")


@dataclass(frozen=True)
class PatchStage:
    """Patch-stage geometry: conv kernel/stride/padding plus the pooling
    size (pool kernel == pool stride)."""
    kernel: int
    stride: int
    padding: int = 0
    pool: int = 1

    __post_init__ = check_field_types


@dataclass(frozen=True)
class ConvBranch:
    kernel: int = 3
    stride: int = 1
    branch_style: str = "conv"

    __post_init__ = check_field_types


@dataclass(frozen=True)
class ModelConfig:
    channels: int
    layers: int
    heads: int
    classes: int
    image: tuple[int, int, int]
    eitp: PatchStage
    eitt: ConvBranch = ConvBranch()
    mlp_ratio: int = 4
    split_policy: str = "decreasing"
    pos_embed: str = "none"
    dropout: float = 0.0

    def __post_init__(self):
        check_field_types(self)
        p = self.eitp
        for name, value, least in (
                ("channels", self.channels, 1), ("layers", self.layers, 1),
                ("heads", self.heads, 1), ("classes", self.classes, 1),
                ("mlp_ratio", self.mlp_ratio, 1), ("eitt.kernel", self.eitt.kernel, 1),
                ("eitp.kernel", p.kernel, 1), ("eitp.stride", p.stride, 1),
                ("eitp.pool", p.pool, 1), ("eitp.padding", p.padding, 0)):
            if value < least:
                raise ConfigError(f"{name} must be at least {least}, got {value}")
        if len(self.image) != 3 or self.image[2] != 3 or min(self.image) < 1:
            raise ConfigError(f"image must be (H, W, 3), got {self.image}")
        if p.stride > p.kernel:
            raise ConfigError("patch-stage stride must not exceed its kernel")
        if p.padding >= p.kernel:  # would only add windows that see no pixel
            raise ConfigError("eitp.padding must be less than eitp.kernel")
        if self.eitt.stride != 1:
            raise ConfigError("conv-branch stride must be 1 (token grid preserved)")
        if self.eitt.kernel % 2 == 0:  # same padding would grow the token grid
            raise ConfigError(f"eitt.kernel must be odd, got {self.eitt.kernel}")
        if self.eitt.branch_style not in BRANCH_STYLES:
            raise ConfigError(f"unknown branch_style {self.eitt.branch_style!r}")
        if self.pos_embed not in POS_EMBED_MODES:
            raise ConfigError(f"unknown pos_embed {self.pos_embed!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout {self.dropout} outside [0, 1)")
        self.token_grid()  # a grid the patch stage collapses raises here
        # so do channels not divisible by heads, an unknown split policy and
        # a layer with fewer attention channels than heads
        schedule_for(self)

    # -- geometry ---------------------------------------------------------

    def patch_conv_grid(self) -> tuple[int, int]:
        """Height and width of the patch conv's output, before pooling."""
        h, w, _ = self.image
        p = self.eitp
        return (out_size(h, p.kernel, p.stride, p.padding),
                out_size(w, p.kernel, p.stride, p.padding))

    def token_grid(self) -> tuple[int, int]:
        hc, wc = self.patch_conv_grid()
        sm = self.eitp.pool
        if hc < sm or wc < sm:
            raise ConfigError(
                f"pooling {sm} collapses the {hc}x{wc} conv output to nothing")
        return hc // sm, wc // sm

    def token_count(self) -> int:
        h0, w0 = self.token_grid()
        return 1 + h0 * w0

    def pixel_spacing(self) -> int:
        """Pixels per token-grid step."""
        return self.eitp.stride * self.eitp.pool


def config_to_dict(config: ModelConfig) -> dict:
    d = asdict(config)
    d["image"] = list(config.image)
    return d


def from_dict(cls, doc, where: str):
    """Build the config dataclass ``cls`` from a JSON object. Its keys are
    the field names, a field with no default is required, a field whose
    type is a dataclass is built the same way from its own object, and a
    JSON list becomes a tuple. The dataclass checks the values."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object, got {doc!r}")
    specs = {f.name: f for f in fields(cls)}
    unknown = set(doc) - set(specs)
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")
    missing = {name for name, f in specs.items() if name not in doc and
               f.default is MISSING and f.default_factory is MISSING}
    if missing:
        raise ConfigError(f"missing {where} keys: {sorted(missing)}")
    kwargs = {}
    for name, value in doc.items():
        if is_dataclass(specs[name].type):
            value = from_dict(specs[name].type, value, name)
        elif isinstance(value, list):
            value = tuple(value)
        kwargs[name] = value
    return cls(**kwargs)


def config_from_dict(doc: dict) -> ModelConfig:
    return from_dict(ModelConfig, doc, "config")


def read_json(path):
    """The JSON document in the file at ``path``."""
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:  # e.g. a directory
        raise ConfigError(f"cannot read {path}: {e}") from e
    except (ValueError, RecursionError) as e:  # last: nested too deep
        raise ConfigError(f"{path}: not valid JSON: {e}") from e


# -- split schedule --------------------------------------------------------


@dataclass(frozen=True)
class SplitSchedule:
    """Per-layer channel allocation: conv branch gets conv[i], attention
    gets attn[i]. For the parallel policy both equal the full width."""
    conv: tuple[int, ...]
    attn: tuple[int, ...]


def build_schedule(channels: int, heads: int, layers: int,
                   policy: str = "decreasing") -> SplitSchedule:
    """Channel split per layer. The attention share at depth i (1-based) is
    floor((C // h) * i / L) * h, which keeps it divisible by the head count
    while the conv share, C minus it, shrinks to zero at the last layer.
    "invariant" evaluates the same formula at ratio 1/2,
    "increasing" mirrors the decreasing schedule, "none" is a pure
    attention model and "parallel" gives both branches the full width.
    """
    if channels < 1 or heads < 1 or layers < 1:
        raise ConfigError("channels/heads/layers must be positive")
    if channels % heads:
        raise ConfigError(f"channels ({channels}) not divisible by heads ({heads})")
    if policy not in SPLIT_POLICIES:
        raise ConfigError(f"unknown split policy {policy!r}")

    per_head = channels // heads
    if policy in ("decreasing", "increasing"):
        narrowest = per_head // layers * heads  # at depth 1, or L mirrored
    elif policy == "invariant":
        narrowest = per_head // 2 * heads
    else:
        narrowest = channels
    if narrowest < heads:
        raise ConfigError(
            f"schedule gives a layer fewer attention channels ({narrowest}) "
            f"than heads ({heads})")
    try:
        if policy in ("decreasing", "increasing"):
            attn = tuple(per_head * i // layers * heads
                         for i in range(1, layers + 1))
            attn = attn[::-1] if policy == "increasing" else attn
        else:  # every layer gets the same share
            attn = (narrowest,) * layers
        conv = attn if policy == "parallel" else tuple(channels - a for a in attn)
    except (OverflowError, MemoryError) as e:  # e.g. layers = 2**63
        raise ConfigError(f"layers ({layers}) too many to schedule") from e
    return SplitSchedule(conv, attn)


def schedule_for(config: ModelConfig) -> SplitSchedule:
    return build_schedule(config.channels, config.heads, config.layers,
                          config.split_policy)


def branch_layout(config: ModelConfig, width: int
                  ) -> list[tuple[str, list[tuple[str, tuple[int, ...], str]]]]:
    """The conv branch of the given width as its ordered steps, each a step
    name from BRANCH_STEPS and that step's parameters as (suffix, shape,
    init_kind): no steps at width 0, one full-width standard conv under the
    parallel policy, else the configured style's steps with depthwise convs.
    A conv that a batch norm follows has no bias: the norm subtracts the
    batch mean, so a bias would get a zero gradient and have no effect."""
    if width == 0:
        return []
    parallel = config.split_policy == "parallel"
    steps = ("conv",) if parallel else BRANCH_STEPS[config.eitt.branch_style]
    kt = config.eitt.kernel
    out = []
    for j, step in enumerate(steps):
        if step.startswith("conv"):
            shapes = [(f"{step}.weight", (width, width if parallel else 1, kt, kt),
                       "conv")]
            if steps[j + 1:j + 2] != ("bn",):
                shapes.append((f"{step}.bias", (width,), "zeros"))
        elif step == "fc":
            shapes = [("fc.weight", (width, width), "proj"),
                      ("fc.bias", (width,), "zeros")]
        elif step == "bn":
            shapes = [("bn.gain", (width,), "ones"), ("bn.shift", (width,), "zeros")]
        else:
            shapes = []
        out.append((step, shapes))
    return out


# -- parameters ------------------------------------------------------------


def param_shapes(config: ModelConfig) -> list[tuple[str, tuple[int, ...], str, str]]:
    """Every parameter tensor as (name, shape, component, init_kind).
    Shapes are a pure function of the config; the same enumeration drives
    both initialization and the analytic parameter count."""
    c = config.channels
    k = config.eitp.kernel
    ratio = config.mlp_ratio
    sched = schedule_for(config)
    out = [("eitp.weight", (c, 3, k, k), "patch_embed", "conv"),
           ("eitp.bias", (c,), "patch_embed", "zeros")]
    out.append(("cls_token", (1, 1, c), "embeddings", "token"))
    if config.pos_embed == "trainable":
        out.append(("pos_embed", (1, config.token_count(), c), "embeddings", "token"))
    for i in range(config.layers):
        ct, cm = sched.conv[i], sched.attn[i]
        p = f"layers.{i}"
        out += [(f"{p}.norm1.gain", (c,), "norm", "ones"),
                (f"{p}.norm1.shift", (c,), "norm", "zeros"),
                (f"{p}.attn.qkv.weight", (cm, 3 * cm), "attention", "proj"),
                (f"{p}.attn.qkv.bias", (3 * cm,), "attention", "zeros"),
                (f"{p}.attn.out.weight", (cm, cm), "attention", "proj"),
                (f"{p}.attn.out.bias", (cm,), "attention", "zeros")]
        out += [(f"{p}.{suffix}", shape, "conv_branch", kind)
                for _, shapes in branch_layout(config, ct)
                for suffix, shape, kind in shapes]
        out += [(f"{p}.norm2.gain", (c,), "norm", "ones"),
                (f"{p}.norm2.shift", (c,), "norm", "zeros"),
                (f"{p}.mlp.fc1.weight", (c, ratio * c), "mlp", "proj"),
                (f"{p}.mlp.fc1.bias", (ratio * c,), "mlp", "zeros"),
                (f"{p}.mlp.fc2.weight", (ratio * c, c), "mlp", "proj"),
                (f"{p}.mlp.fc2.bias", (c,), "mlp", "zeros")]
    out += [("norm.gain", (c,), "norm", "ones"),
            ("norm.shift", (c,), "norm", "zeros"),
            ("head.weight", (c, config.classes), "head", "proj"),
            ("head.bias", (config.classes,), "head", "zeros")]
    return out


def _trunc_normal(rng: np.random.Generator, shape, std=0.02) -> np.ndarray:
    x = rng.standard_normal(shape)
    while True:
        bad = np.abs(x) > 2.0
        if not bad.any():
            return x * std
        x[bad] = rng.standard_normal(int(bad.sum()))


def _xavier_uniform(rng: np.random.Generator, shape) -> np.ndarray:
    fan_in, fan_out = shape[0], shape[-1]
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, shape)


def init_params(config: ModelConfig, seed: int = 0) -> dict[str, Tensor]:
    """Fan-in scaled projections, fan-in uniform convolutions, identity
    norms. Projection weights use Xavier limits rather than a fixed small
    std so token features stay input-dependent at depth under plain SGD;
    the class token and positional table keep the small truncated-normal
    draw."""
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    for name, shape, _, kind in param_shapes(config):
        if kind == "proj":
            data = _xavier_uniform(rng, shape)
        elif kind == "token":
            data = _trunc_normal(rng, shape)
        elif kind == "conv":
            fan_in = int(np.prod(shape[1:]))
            bound = 1.0 / np.sqrt(fan_in)
            data = rng.uniform(-bound, bound, shape)
        elif kind == "ones":
            data = np.ones(shape)
        else:
            data = np.zeros(shape)
        params[name] = Tensor(data, requires_grad=True)
    return params


# -- forward pass ----------------------------------------------------------


def eitp_embed(images: Tensor, params: dict[str, Tensor],
               config: ModelConfig) -> Tensor:
    """Tokenize: overlapping conv, max-pool, flatten, prepend class token,
    optionally add the trainable position embedding."""
    h, w, _ = config.image
    if images.shape[1:] != (3, h, w):
        raise ContractError(f"image batch {images.shape} does not match "
                            f"configured size {(3, h, w)}")
    n = images.shape[0]
    x = conv2d(images, params["eitp.weight"], params["eitp.bias"],
               config.eitp.stride, config.eitp.padding)
    x = maxpool2d(x, config.eitp.pool)
    h0, w0 = config.token_grid()
    # a view: (N, T, C) tokens, channel-major in memory like the pooled map
    x = x.transpose(0, 2, 3, 1).reshape(n, h0 * w0, config.channels)
    cls = params["cls_token"] + Tensor(np.zeros((n, 1, config.channels)))
    x = concat([cls, x], axis=1)
    if config.pos_embed == "trainable":
        x = x + params["pos_embed"]
    return x


def mha(x: Tensor, qkv_w: Tensor, qkv_b: Tensor, out_w: Tensor, out_b: Tensor,
        heads: int) -> tuple[Tensor, np.ndarray]:
    """Multi-head self-attention over (N, T, C_M) with per-head scaling
    1/sqrt(C_M / heads). Returns the output and the attention weights
    (N, heads, T, T) for the probes.

    The attention core, from the qkv projection to the merged heads, is
    one node that keeps only the projection. Its backward recomputes the
    (N, heads, T, T) weights from q and k and builds no node, so a
    training graph holds no T x T array. The forward still runs the core
    as ``matmul`` and ``softmax_rows`` nodes, which perfbench times and
    counts, and drops their graph once the core's output exists."""
    n, t, cm = x.shape
    if cm == 0 or cm % heads:
        raise ConfigError(f"attention width {cm} not divisible by {heads} heads")
    d = cm // heads
    scale = 1.0 / math.sqrt(d)

    def split(qkv):
        """q, k and v (N, heads, T, d) of a Tensor or an array (N, T, 3 C_M)."""
        qkv = qkv.reshape(n, t, 3, heads, d).transpose(2, 0, 3, 1, 4)
        return qkv[0], qkv[1], qkv[2]

    qkv = linear(x, qkv_w, qkv_b)
    q, k, v = split(qkv)
    a = softmax_rows(matmul(q, k.transpose(0, 1, 3, 2)) * scale)
    o = matmul(a, v).transpose(0, 2, 1, 3).reshape(n, t, cm)
    kept = qkv.data

    def back(g):
        q, k, v = split(kept)
        s = softmax_rows(Tensor(q @ k.swapaxes(-1, -2) * scale)).data
        g = g.reshape(n, t, heads, d).transpose(0, 2, 1, 3)
        ga = g @ v.swapaxes(-1, -2)
        gs = s * (ga - (ga * s).sum(axis=-1, keepdims=True)) * scale
        gqkv = np.stack([gs @ k, (q.swapaxes(-1, -2) @ gs).swapaxes(-1, -2),
                         s.swapaxes(-1, -2) @ g])
        gqkv += 0.0  # -0.0 to +0.0, as a scatter into zeros gives
        return (gqkv.transpose(1, 3, 0, 2, 4).reshape(n, t, 3 * cm),)
    return linear(Tensor._from_op(o.data, (qkv,), back), out_w, out_b), a.data


def _grid_conv(tokens: Tensor, grid: tuple[int, int], weight: Tensor,
               bias: Tensor | None = None) -> Tensor:
    """Apply a stride-1 same-padded conv to patch tokens laid out row-major
    on the grid. weight (C_out, C / groups, k, k) sets the kernel and groups."""
    n, p, c = tokens.shape
    h0, w0 = grid
    x = tokens.reshape(n, h0, w0, c).transpose(0, 3, 1, 2)
    x = conv2d(x, weight, bias, 1, weight.shape[-1] // 2)
    return x.transpose(0, 2, 3, 1).reshape(n, p, c)


def eitt_branch(x: Tensor, params: dict[str, Tensor], prefix: str,
                config: ModelConfig, grid: tuple[int, int]) -> Tensor:
    """Convolution branch over (N, T, C_T): the steps of ``branch_layout``
    in order. The class token (index 0) has no grid position and bypasses
    the branch untouched."""
    n, t, ct = x.shape
    h0, w0 = grid
    if t - 1 != h0 * w0:
        raise ContractError(f"{t - 1} patch tokens do not fill a {h0}x{w0} grid")
    steps = branch_layout(config, ct)
    if not steps:
        return x
    y = x[:, 1:, :]
    for step, shapes in steps:
        p = [params[f"{prefix}.{suffix}"] for suffix, _, _ in shapes]
        if step.startswith("conv"):
            y = _grid_conv(y, grid, *p)
        elif step == "fc":
            y = linear(y, *p)
        elif step == "bn":
            y = normalize(y, (0, 1), *p, 1e-5)
        else:
            y = getattr(y, step)()
    return concat([x[:, 0:1, :], y], axis=1)


def mix_block(x: Tensor, params: dict[str, Tensor], layer: int,
              config: ModelConfig, schedule: SplitSchedule,
              grid: tuple[int, int], train: bool = False,
              rng: np.random.Generator | None = None
              ) -> tuple[Tensor, np.ndarray]:
    """First residual block of a layer: x + the channel-split conv/attention
    mix of norm1(x). Returns the new activations and the attention weights."""
    p = f"layers.{layer}"
    c = config.channels
    ct, cm = schedule.conv[layer], schedule.attn[layer]
    n1 = layernorm(x, params[f"{p}.norm1.gain"], params[f"{p}.norm1.shift"])
    attn_out, attn = mha(n1 if cm == c else n1[:, :, c - cm:],
                         params[f"{p}.attn.qkv.weight"], params[f"{p}.attn.qkv.bias"],
                         params[f"{p}.attn.out.weight"], params[f"{p}.attn.out.bias"],
                         config.heads)
    if train:
        attn_out = dropout(attn_out, config.dropout, rng)
    if config.split_policy == "parallel":
        mix = eitt_branch(n1, params, p, config, grid) + attn_out
    elif ct == 0:
        mix = attn_out
    else:
        conv_out = eitt_branch(n1[:, :, :ct], params, p, config, grid)
        mix = concat([conv_out, attn_out], axis=2)
    return x + mix, attn


def mlp_block(x: Tensor, params: dict[str, Tensor], layer: int,
              config: ModelConfig, train: bool = False,
              rng: np.random.Generator | None = None) -> Tensor:
    """Second residual block of a layer: x + fc2(GELU(fc1(norm2(x))))."""
    p = f"layers.{layer}"
    n2 = layernorm(x, params[f"{p}.norm2.gain"], params[f"{p}.norm2.shift"])
    hdn = linear(n2, params[f"{p}.mlp.fc1.weight"], params[f"{p}.mlp.fc1.bias"]).gelu()
    if train:
        hdn = dropout(hdn, config.dropout, rng)
    out = linear(hdn, params[f"{p}.mlp.fc2.weight"], params[f"{p}.mlp.fc2.bias"])
    if train:
        out = dropout(out, config.dropout, rng)
    return x + out


def encoder_layer(x: Tensor, params: dict[str, Tensor], layer: int,
                  config: ModelConfig, schedule: SplitSchedule,
                  grid: tuple[int, int], train: bool = False,
                  rng: np.random.Generator | None = None
                  ) -> tuple[Tensor, np.ndarray]:
    """Pre-norm residual layer: the mix block, then the MLP block.
    Returns the new activations and the attention weights."""
    y, attn = mix_block(x, params, layer, config, schedule, grid, train, rng)
    return mlp_block(y, params, layer, config, train, rng), attn


def classify(x: Tensor, params: dict[str, Tensor]) -> Tensor:
    """The head's logits for the final-normed class token (norms are per token)."""
    x = layernorm(x[:, 0, :], params["norm.gain"], params["norm.shift"])
    return linear(x, params["head.weight"], params["head.bias"])


def forward(images, params: dict[str, Tensor], config: ModelConfig,
            train: bool = False, rng: np.random.Generator | None = None,
            collect_probes: bool = False, on_layer: Callable | None = None):
    """Full model: tokenize, L encoder layers, final norm, classify the
    class token. ``on_layer(i, layer_input, attention)``, if given, is
    called after encoder layer i with that layer's input array (N, T, C)
    and its attention weights (N, heads, T, T). The arrays are forward's
    own, so a hook that keeps the input must copy it. collect_probes=True
    is the hook that keeps them all: forward then also returns a list,
    indexed by layer, of each layer's input (a copy) and attention weights
    (plain arrays, batch-first)."""
    if collect_probes:
        if on_layer is not None:
            raise ContractError("pass collect_probes or on_layer, not both")
        probes = []

        def on_layer(i, layer_input, attention):
            probes.append({"input": layer_input.copy(), "attention": attention})
    if not isinstance(images, Tensor):
        images = Tensor(images)
    schedule = schedule_for(config)
    grid = config.token_grid()
    x = eitp_embed(images, params, config)
    for i in range(config.layers):
        y, attn = encoder_layer(x, params, i, config, schedule, grid, train, rng)
        if on_layer is not None:
            on_layer(i, x.data, attn)
        x = y
    logits = classify(x, params)
    if collect_probes:
        return logits, probes
    return logits


def loss_stages(images, params: dict[str, Tensor], config: ModelConfig,
                loss: Callable[[Tensor], Tensor]
                ) -> list[tuple[tuple[str, ...], Callable]]:
    """``loss(forward(images, params, config))`` as an ordered list of
    stages, each the names of the parameters it owns and a function from
    the previous stage's output to its own: the patch embed (called with
    None), then per layer the mix block and the MLP block, then the final
    norm, the head and ``loss``. A parameter changes nothing before its
    stage, so a loss can be re-evaluated from that stage's input."""
    if not isinstance(images, Tensor):
        images = Tensor(images)
    schedule = schedule_for(config)
    grid = config.token_grid()
    names = [name for name, *_ in param_shapes(config)]

    def owned(*prefixes):
        return tuple(n for n in names if n.startswith(prefixes))

    out = [(owned("eitp.", "cls_token", "pos_embed"),
            lambda _: eitp_embed(images, params, config))]
    for i in range(config.layers):
        p = f"layers.{i}."
        mlp = owned(p + "norm2.", p + "mlp.")
        out += [(tuple(n for n in owned(p) if n not in mlp),
                 lambda x, i=i: mix_block(x, params, i, config, schedule, grid)[0]),
                (mlp, lambda x, i=i: mlp_block(x, params, i, config))]
    out.append((owned("norm.", "head."), lambda x: loss(classify(x, params))))
    return out

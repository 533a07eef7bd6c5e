"""Analytic parameter and FLOP accounting.

Parameters are enumerated from the exact tensor shapes the model
instantiates, so the analytic count always equals the real one. FLOPs
count multiply-accumulates of the conv/matmul kernels. The conv branch's
convs are stride-1 and same-padded, so it does one MAC per weight element
at every patch token and its MACs come from the same shapes. The report
carries both the raw MAC total and a FLOP total at 2 FLOPs per MAC
(elementwise work like norms, softmax and pooling comparisons is excluded).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .model import ModelConfig, param_shapes, schedule_for

FLOP_CONVENTION = "1 MAC = 2 FLOPs; conv/matmul MACs only"


@dataclass
class Cost:
    params: int = 0
    macs: int = 0

    @property
    def flops(self) -> int:
        return 2 * self.macs


@dataclass
class CostReport:
    components: dict[str, Cost] = field(default_factory=dict)
    flop_convention: str = FLOP_CONVENTION

    def at(self, name: str) -> Cost:
        return self.components.setdefault(name, Cost())

    @property
    def total_params(self) -> int:
        return sum(c.params for c in self.components.values())

    @property
    def total_macs(self) -> int:
        return sum(c.macs for c in self.components.values())

    @property
    def total_flops(self) -> int:
        return 2 * self.total_macs


# closed-form per-component MAC models, kept as free functions so the
# scaling laws (linear k^2*C*T conv branch, 4C^2T + 2T^2C attention) can be
# ratio-tested directly

def mha_projection_macs(tokens: int, width: int) -> int:
    return 4 * tokens * width * width


def mha_attention_macs(tokens: int, width: int) -> int:
    return 2 * tokens * tokens * width


def mha_macs(tokens: int, width: int) -> int:
    return mha_projection_macs(tokens, width) + mha_attention_macs(tokens, width)


def depthwise_branch_macs(patch_tokens: int, width: int, kernel: int) -> int:
    return kernel * kernel * width * patch_tokens


def mlp_macs(tokens: int, width: int, ratio: int) -> int:
    return 2 * ratio * tokens * width * width


def count_params(config: ModelConfig) -> CostReport:
    report = CostReport()
    for _, shape, component, _ in param_shapes(config):
        report.at(component).params += math.prod(shape)
    return report


def count_flops(config: ModelConfig) -> CostReport:
    report = CostReport()
    c = config.channels
    t = config.token_count()
    h, w, _ = config.image
    hc, wc = config.patch_conv_spec().out_size(h, w)
    k = config.eitp.kernel
    branch_weights = sum(math.prod(shape)
                         for _, shape, component, kind in param_shapes(config)
                         if component == "conv_branch" and kind in ("conv", "proj"))
    report.at("patch_embed").macs = hc * wc * c * 3 * k * k
    report.at("attention").macs = sum(mha_macs(t, cm)
                                      for cm in schedule_for(config).attn)
    report.at("conv_branch").macs = (t - 1) * branch_weights
    report.at("mlp").macs = config.layers * mlp_macs(t, c, config.mlp_ratio)
    report.at("head").macs = c * config.classes
    return report


def cost_report(config: ModelConfig) -> CostReport:
    """Merged params + FLOPs view for one config."""
    report = count_flops(config)
    for name, cost in count_params(config).components.items():
        report.at(name).params = cost.params
    return report

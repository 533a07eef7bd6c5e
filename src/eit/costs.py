"""Analytic parameter and FLOP accounting.

One pass over ``model.param_shapes``, the enumeration that also drives
initialization, so the parameter count always equals the real one. FLOPs
count multiply-accumulates of the conv/matmul kernels by one rule: each
weight (init kind ``conv`` or ``proj``) does one MAC per element at every
position where it is applied, which is each patch-conv output for the
patch stage, each of the T tokens for attention and the MLP, each of the
T - 1 patch tokens for the stride-1 same-padded conv branch and the class
token alone for the head. Attention adds its weight-free 2 * T^2 * C_M
score and value products per layer. The report carries the raw MAC total
and a FLOP total at 2 FLOPs per MAC (elementwise work like norms, softmax
and pooling comparisons is excluded).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    components: dict[str, Cost]

    @property
    def total_params(self) -> int:
        return sum(c.params for c in self.components.values())

    @property
    def total_macs(self) -> int:
        return sum(c.macs for c in self.components.values())

    @property
    def total_flops(self) -> int:
        return 2 * self.total_macs


def cost_report(config: ModelConfig) -> CostReport:
    """Params and MACs per component for one config. The weighted
    components come first, each present even at zero cost (the conv branch
    under the ``none`` policy), then the weight-free ones in
    ``param_shapes`` order."""
    t = config.token_count()
    hc, wc = config.patch_conv_grid()
    positions = {"patch_embed": hc * wc, "attention": t, "conv_branch": t - 1,
                 "mlp": t, "head": 1}
    report = CostReport({name: Cost() for name in positions})
    for _, shape, component, kind in param_shapes(config):
        cost = report.components.setdefault(component, Cost())
        size = math.prod(shape)
        cost.params += size
        if kind in ("conv", "proj"):
            cost.macs += size * positions[component]
    report.components["attention"].macs += sum(
        2 * t * t * cm for cm in schedule_for(config).attn)
    return report


count_params = count_flops = cost_report

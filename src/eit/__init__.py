"""Channel-split vision transformer at desk scale, with diagnostics."""

from .tensor import Tensor, concat, conv2d, layernorm, linear, matmul, \
    maxpool2d, softmax_rows
from .model import (ConvBranch, ModelConfig, PatchStage, SplitSchedule,
                    build_schedule, config_from_dict, config_to_dict,
                    eitp_embed, eitt_branch, encoder_layer, forward,
                    init_params, mha, param_shapes, read_json, schedule_for)
from .costs import CostReport, cost_report, count_flops, count_params
from .gradcheck import gradcheck

__all__ = [
    "Tensor", "concat", "conv2d", "layernorm", "linear", "matmul",
    "maxpool2d", "softmax_rows", "ConvBranch", "ModelConfig", "PatchStage",
    "SplitSchedule", "build_schedule", "config_from_dict", "config_to_dict",
    "eitp_embed", "eitt_branch", "encoder_layer", "forward", "init_params",
    "mha", "param_shapes", "read_json", "schedule_for", "CostReport",
    "cost_report", "count_flops", "count_params", "gradcheck",
]

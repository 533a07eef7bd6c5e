import dataclasses

import pytest

from eit.costs import (cost_report, count_flops, count_params,
                       depthwise_branch_macs, mha_attention_macs, mha_macs,
                       mha_projection_macs, mlp_macs)
from eit.model import ConvBranch, ModelConfig, PatchStage, init_params
from eit.model import BRANCH_STYLES, SPLIT_POLICIES

VARIANTS = {
    "mini": (ModelConfig(channels=250, layers=5, heads=10, classes=1000,
                         image=(224, 224, 3), eitp=PatchStage(16, 4, 0, 3)), 3.5e6),
    "tiny": (ModelConfig(channels=330, layers=8, heads=10, classes=1000,
                         image=(224, 224, 3), eitp=PatchStage(16, 4, 0, 3)), 8.9e6),
    "base": (ModelConfig(channels=400, layers=10, heads=16, classes=1000,
                         image=(224, 224, 3), eitp=PatchStage(16, 4, 0, 3)), 16.0e6),
    "large": (ModelConfig(channels=464, layers=12, heads=16, classes=1000,
                          image=(224, 224, 3), eitp=PatchStage(16, 4, 0, 3)), 25.3e6),
}

SMALL = ModelConfig(channels=250, layers=5, heads=10, classes=10,
                    image=(32, 32, 3), eitp=PatchStage(3, 1, 1, 4))
SMALL_VIT = ModelConfig(channels=250, layers=5, heads=10, classes=10,
                        image=(32, 32, 3), eitp=PatchStage(4, 4, 0, 1),
                        split_policy="none", pos_embed="trainable")

MICRO = ModelConfig(channels=4, layers=1, heads=2, classes=2, image=(8, 8, 3),
                    eitp=PatchStage(3, 1, 1, 2))


class TestParams:
    @pytest.mark.parametrize("name", VARIANTS)
    def test_reference_totals_within_3pct(self, name):
        cfg, expected = VARIANTS[name]
        total = count_params(cfg).total_params
        assert abs(total - expected) / expected < 0.03

    def test_small_scale_totals(self):
        assert abs(count_params(SMALL).total_params - 3.095e6) / 3.095e6 < 0.03
        assert abs(count_params(SMALL_VIT).total_params - 3.798e6) / 3.798e6 < 0.03

    def test_micro_golden_hand_count(self):
        # C=4, L=1, h=2, 2 classes, 8x8 image, k=3 s=1 p=1 pool=2:
        #   patch conv 4*3*3*3 + 4 = 112; class token 4
        #   layer 0 (schedule: conv 0 / attn 4): norms 2*(4+4) = 16
        #   attention 4*12 + 12 + 4*4 + 4 = 80; no conv branch
        #   mlp 4*16 + 16 + 16*4 + 4 = 148; final norm 8; head 4*2 + 2 = 10
        assert count_params(MICRO).total_params == 112 + 4 + 16 + 80 + 148 + 8 + 10

    @pytest.mark.parametrize("policy", ["decreasing", "increasing", "invariant",
                                        "parallel", "none"])
    def test_equals_instantiated_size(self, policy):
        cfg = dataclasses.replace(MICRO, layers=2, channels=8, split_policy=policy)
        params = init_params(cfg, 0)
        assert count_params(cfg).total_params == \
            sum(p.data.size for p in params.values())

    @pytest.mark.parametrize("style", ["conv", "conv3", "gelu_conv_fc",
                                       "conv_bn_relu", "none"])
    def test_branch_styles_counted(self, style):
        cfg = dataclasses.replace(MICRO, layers=2, channels=8,
                                  eitt=ConvBranch(branch_style=style))
        params = init_params(cfg, 0)
        assert count_params(cfg).total_params == \
            sum(p.data.size for p in params.values())

    def test_totals_are_component_sums(self):
        report = cost_report(SMALL)
        assert report.total_params == sum(c.params for c in report.components.values())
        assert report.total_flops == sum(c.flops for c in report.components.values())


class TestFlops:
    def test_small_scale_against_reference(self):
        # reference figure is 0.428G under the 2-FLOPs-per-MAC convention
        flops = count_flops(SMALL).total_flops
        assert abs(flops - 0.428e9) / 0.428e9 < 0.20

    def test_parallel_structure_against_reference(self):
        cfg = dataclasses.replace(SMALL, split_policy="parallel")
        flops = count_flops(cfg).total_flops
        assert abs(flops - 0.887e9) / 0.887e9 < 0.20
        assert count_params(cfg).total_params == pytest.approx(6.589e6, rel=0.03)

    def test_conv_branch_linear_in_tokens_and_channels(self):
        base = depthwise_branch_macs(64, 32, 3)
        assert depthwise_branch_macs(128, 32, 3) == 2 * base
        assert depthwise_branch_macs(64, 64, 3) == 2 * base
        assert depthwise_branch_macs(64, 32, 6) == 4 * base

    def test_attention_scaling_shape(self):
        t, c = 65, 128
        assert mha_projection_macs(2 * t, c) == 2 * mha_projection_macs(t, c)
        assert mha_projection_macs(t, 2 * c) == 4 * mha_projection_macs(t, c)
        assert mha_attention_macs(2 * t, c) == 4 * mha_attention_macs(t, c)
        assert mha_attention_macs(t, 2 * c) == 2 * mha_attention_macs(t, c)
        assert mha_macs(t, c) == 4 * c * c * t + 2 * t * t * c

    def test_vit_equivalent_per_layer_cost(self):
        # with no conv share the per-layer cost reduces to the plain ViT
        # 4C^2T + 2T^2C attention MACs plus 8C^2T MLP MACs
        report = count_flops(SMALL_VIT)
        t, c = SMALL_VIT.token_count(), SMALL_VIT.channels
        layers = SMALL_VIT.layers
        assert report.components["attention"].macs == layers * (
            4 * c * c * t + 2 * t * t * c)
        assert report.components["mlp"].macs == layers * mlp_macs(t, c, 4)
        assert report.components["conv_branch"].macs == 0

    def test_patch_stage_exact_formula(self):
        # conv output positions x channels x (3 * k^2) multiplies
        for kernel, stride in [(4, 2), (4, 4), (3, 1)]:
            cfg = dataclasses.replace(SMALL, eitp=PatchStage(kernel, stride, 0, 1))
            hc = (32 - kernel) // stride + 1
            assert count_flops(cfg).components["patch_embed"].macs == \
                hc * hc * 250 * 3 * kernel * kernel



class TestConvBranchMacs:
    @pytest.mark.parametrize("style", BRANCH_STYLES)
    @pytest.mark.parametrize("policy", SPLIT_POLICIES)
    def test_exact_closed_form(self, style, policy):
        # C=8, L=3, h=2, 8x8 image, k=3 s=1 p=1 pool=2: 4x4 grid, 16 patches;
        # conv widths decreasing (6, 4, 0), increasing (0, 4, 6),
        # invariant (4, 4, 4), parallel (8, 8, 8), none (0, 0, 0)
        cfg = dataclasses.replace(MICRO, channels=8, layers=3, split_policy=policy,
                                  eitt=ConvBranch(kernel=5, branch_style=style))
        widths = {"decreasing": (6, 4, 0), "increasing": (0, 4, 6),
                  "invariant": (4, 4, 4), "parallel": (8, 8, 8),
                  "none": (0, 0, 0)}[policy]
        patches, k = 16, 5
        expected = 0
        for ct in widths:
            if policy == "parallel":
                expected += k * k * 8 * 8 * patches
            elif ct == 0 or style == "none":
                continue
            elif style == "conv3":
                expected += 3 * depthwise_branch_macs(patches, ct, k)
            elif style == "gelu_conv_fc":
                expected += depthwise_branch_macs(patches, ct, k) + patches * ct * ct
            else:
                expected += depthwise_branch_macs(patches, ct, k)
        assert count_flops(cfg).components["conv_branch"].macs == expected

import dataclasses
import math

import numpy as np
import pytest

import eit.model
from eit.costs import cost_report, count_flops, count_params
from eit.model import ConvBranch, ModelConfig, PatchStage, forward, init_params
from eit.model import BRANCH_STYLES, POS_EMBED_MODES, SPLIT_POLICIES

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

    def test_vit_equivalent_per_layer_cost(self):
        # with no conv share the per-layer cost reduces to the plain ViT
        # 4C^2T + 2T^2C attention MACs plus 8C^2T MLP MACs, at two token
        # counts and two widths
        for image in ((32, 32, 3), (64, 64, 3)):
            for c in (250, 500):
                cfg = dataclasses.replace(SMALL_VIT, image=image, channels=c)
                report = count_flops(cfg)
                t, layers = cfg.token_count(), cfg.layers
                assert report.components["attention"].macs == layers * (
                    4 * c * c * t + 2 * t * t * c)
                assert report.components["mlp"].macs == layers * 8 * c * c * t
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
        # C=8, L=3, h=2, k=3 s=1 p=1 pool=2: an 8x8 image gives a 4x4 grid
        # of 16 patches, a 16x8 image 8x4 = 32; conv widths decreasing
        # (6, 4, 0), increasing (0, 4, 6), invariant (4, 4, 4), parallel
        # (8, 8, 8), none (0, 0, 0). A depthwise conv does k^2 MACs per
        # channel per patch, so the branch is linear in patches, width, k^2.
        widths = {"decreasing": (6, 4, 0), "increasing": (0, 4, 6),
                  "invariant": (4, 4, 4), "parallel": (8, 8, 8),
                  "none": (0, 0, 0)}[policy]
        for image, patches, k in (((8, 8, 3), 16, 5), ((16, 8, 3), 32, 3)):
            cfg = dataclasses.replace(MICRO, channels=8, layers=3, image=image,
                                      split_policy=policy,
                                      eitt=ConvBranch(kernel=k, branch_style=style))
            expected = 0
            for ct in widths:
                depthwise = k * k * ct * patches
                if policy == "parallel":
                    expected += k * k * 8 * 8 * patches
                elif ct == 0 or style == "none":
                    continue
                elif style == "conv3":
                    expected += 3 * depthwise
                elif style == "gelu_conv_fc":
                    expected += depthwise + patches * ct * ct
                else:
                    expected += depthwise
            assert count_flops(cfg).components["conv_branch"].macs == expected


class TestKernelMacs:
    @pytest.mark.parametrize("pos_embed", POS_EMBED_MODES)
    @pytest.mark.parametrize("style", BRANCH_STYLES)
    @pytest.mark.parametrize("policy", SPLIT_POLICIES)
    def test_count_equals_kernels_run(self, policy, style, pos_embed, monkeypatch):
        # the analytic total against the MACs implied by the shapes of every
        # linear, matmul and conv2d one batch-1 forward actually runs
        cfg = dataclasses.replace(MICRO, channels=8, layers=3, split_policy=policy,
                                  pos_embed=pos_embed,
                                  eitt=ConvBranch(branch_style=style))
        macs = []

        def count(name, inner):  # MACs per output element
            kernel = getattr(eit.model, name)

            def counted(*args):
                out = kernel(*args)
                macs.append(math.prod(out.shape) * inner(*args))
                return out
            monkeypatch.setattr(eit.model, name, counted)

        count("linear", lambda x, weight, bias: weight.shape[0])
        count("matmul", lambda a, b: a.shape[-1])
        count("conv2d", lambda x, weight, *_: math.prod(weight.shape[1:]))
        images = np.random.default_rng(0).random((1, 3, 8, 8))
        forward(images, init_params(cfg, 0), cfg)
        assert sum(macs) == count_flops(cfg).total_macs

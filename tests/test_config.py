"""Config documents are read by one function, ``model.from_dict``, from the
dataclass fields alone, so these tests run over ``dataclasses.fields``."""

import copy
import dataclasses
import json
import math
import os
import re

import pytest
from hypothesis import given, settings, strategies as st

from eit.errors import ConfigError, EitError
from eit.model import (ConvBranch, ModelConfig, PatchStage, config_from_dict,
                       config_to_dict, from_dict)
from eit.train import TrainConfig, train_config_from_dict

MICRO = ModelConfig(channels=8, layers=2, heads=2, classes=2, image=(8, 8, 3),
                    eitp=PatchStage(3, 1, 1, 2))
BASE = {ModelConfig: MICRO, PatchStage: MICRO.eitp, ConvBranch: ConvBranch(),
        TrainConfig: TrainConfig()}
WHERE = {ModelConfig: "config", PatchStage: "eitp", ConvBranch: "eitt",
         TrainConfig: "train-config"}
# A valid value other than the one in BASE, for every field.
OTHER = {
    (ModelConfig, "channels"): 12, (ModelConfig, "layers"): 3,
    (ModelConfig, "heads"): 4, (ModelConfig, "classes"): 3,
    (ModelConfig, "image"): (9, 8, 3),
    (ModelConfig, "eitp"): PatchStage(5, 2, 2, 1),
    (ModelConfig, "eitt"): ConvBranch(5, 1, "conv_bn_relu"),
    (ModelConfig, "mlp_ratio"): 2, (ModelConfig, "split_policy"): "parallel",
    (ModelConfig, "pos_embed"): "trainable", (ModelConfig, "dropout"): 0.25,
    (PatchStage, "kernel"): 5, (PatchStage, "stride"): 2,
    (PatchStage, "padding"): 2, (PatchStage, "pool"): 1,
    (ConvBranch, "kernel"): 1, (ConvBranch, "stride"): 2,
    (ConvBranch, "branch_style"): "gelu_conv_fc",
    (TrainConfig, "epochs"): 3, (TrainConfig, "batch_size"): 4,
    (TrainConfig, "base_lr"): 0.5, (TrainConfig, "min_lr"): 1e-4,
    (TrainConfig, "momentum"): 0.5, (TrainConfig, "seed"): 7,
}
FIELDS = [pytest.param(cls, f, id=f"{cls.__name__}.{f.name}")
          for cls in BASE for f in dataclasses.fields(cls)]


def to_json_doc(config) -> dict:
    to_dict = config_to_dict if isinstance(config, ModelConfig) \
        else dataclasses.asdict
    return json.loads(json.dumps(to_dict(config)))


def read(cls, doc):
    return from_dict(cls, doc, WHERE[cls])


@pytest.mark.parametrize("cls, field", FIELDS)
def test_every_field_survives_to_dict_json_from_dict(cls, field):
    value = OTHER[cls, field.name]
    assert value != getattr(BASE[cls], field.name)
    config = dataclasses.replace(BASE[cls], **{field.name: value})
    assert read(cls, to_json_doc(config)) == config


@pytest.mark.parametrize("cls, field", FIELDS)
def test_dropped_key_takes_its_default_or_is_named(cls, field):
    doc = to_json_doc(BASE[cls])
    del doc[field.name]
    if field.default is dataclasses.MISSING:
        with pytest.raises(ConfigError, match=re.escape(
                f"missing {WHERE[cls]} keys: ['{field.name}']")):
            read(cls, doc)
    else:
        assert getattr(read(cls, doc), field.name) == field.default


@pytest.mark.parametrize("cls", BASE)
def test_unknown_key_is_named(cls):
    doc = dict(to_json_doc(BASE[cls]), warmup_steps=5)
    with pytest.raises(ConfigError, match=re.escape(
            f"unknown {WHERE[cls]} keys: ['warmup_steps']")):
        read(cls, doc)


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(PatchStage)
                                   if f.default is dataclasses.MISSING])
def test_nested_required_key_is_named(field):
    doc = to_json_doc(MICRO)
    del doc["eitp"][field]
    with pytest.raises(ConfigError, match=re.escape(
            f"missing eitp keys: ['{field}']")):
        config_from_dict(doc)


def test_new_dataclasses_are_read_with_no_other_edit():
    @dataclasses.dataclass(frozen=True)
    class Inner:
        size: int
        name: str = "a"

    @dataclasses.dataclass(frozen=True)
    class Outer:
        inner: Inner
        shape: tuple = (1, 2)

    @dataclasses.dataclass(frozen=True)
    class LongerTrainConfig(TrainConfig):
        warmup: int = 0

    assert from_dict(Outer, {"inner": {"size": 3}, "shape": [4, 5]}, "outer") \
        == Outer(Inner(3), (4, 5))
    with pytest.raises(ConfigError, match=re.escape("missing inner keys: ['size']")):
        from_dict(Outer, {"inner": {"name": "b"}}, "outer")
    with pytest.raises(ConfigError, match="inner must be a JSON object"):
        from_dict(Outer, {"inner": [3]}, "outer")
    got = from_dict(LongerTrainConfig, {"epochs": 2, "warmup": 5}, "train-config")
    assert (got.epochs, got.warmup) == (2, 5)
    with pytest.raises(ConfigError, match="epochs and batch_size"):
        from_dict(LongerTrainConfig, {"epochs": 0}, "train-config")


def test_readme_config_heredocs_parse():
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme) as f:
        docs = dict(re.findall(r"cat > (\S+) <<'EOF'\n(.*?)\nEOF\n", f.read(),
                               re.DOTALL))
    assert set(docs) == {"tiny.json", "train.json"}
    assert isinstance(config_from_dict(json.loads(docs["tiny.json"])), ModelConfig)
    assert isinstance(train_config_from_dict(json.loads(docs["train.json"])),
                      TrainConfig)


# Values a hand-edited JSON config might hold; DROP deletes the key.
DROP = object()
POOL = [None, False, True, 0, -1, 1.5, math.nan, math.inf, "x", [], {},
        [8, 8, 3.0], 2**63, DROP]
FUZZED = {
    "config": (config_from_dict, to_json_doc(MICRO),
               [f.name for f in dataclasses.fields(ModelConfig)]
               + [f"eitp.{f.name}" for f in dataclasses.fields(PatchStage)]
               + [f"eitt.{f.name}" for f in dataclasses.fields(ConvBranch)]
               + ["extra", "eitp.extra", "eitt.extra"]),
    "train-config": (train_config_from_dict, to_json_doc(TrainConfig()),
                     [f.name for f in dataclasses.fields(TrainConfig)] + ["extra"]),
}


@pytest.mark.parametrize("kind", FUZZED)
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_a_mutated_config_is_read_or_refused_with_a_typed_error(kind, data):
    # a huge layer count is tested in a capped child process (test_cli.py)
    read_doc, doc, paths = FUZZED[kind]
    doc = copy.deepcopy(doc)
    edits = data.draw(st.lists(
        st.tuples(st.sampled_from(paths), st.sampled_from(POOL)).filter(
            lambda e: not (e[0] == "layers" and e[1] == 2**63)), max_size=4))
    for path, value in edits:
        *outer, key = path.split(".")
        node = doc.get(outer[0]) if outer else doc
        if not isinstance(node, dict):
            continue  # the nested object was dropped or replaced
        if value is DROP:
            node.pop(key, None)
        else:
            node[key] = copy.deepcopy(value)
    try:
        read_doc(doc)
    except EitError:
        pass

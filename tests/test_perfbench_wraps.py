"""The benchmark in ``perfbench/`` wraps program functions by name. Renaming
or deleting one of them must fail here, not only in a traced benchmark run."""

import json
import os

import numpy as np
import pytest

import eit.checkpoint
import eit.cli
import eit.costs
import eit.data
import eit.model
import eit.probes
import eit.tensor
import eit.train

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
NAMESPACES = (eit.checkpoint, eit.cli, eit.costs, eit.data, eit.model,
              eit.probes, eit.train, eit.tensor.Tensor)


def test_instrument_wraps_existing_names_and_restores_them(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing
    import workloads

    before = [dict(vars(ns)) for ns in NAMESPACES]
    tracer = tracing.Tracer()
    try:
        workloads.instrument(tracer)
        wrapped = sum(vars(ns)[k] is not v for ns, old in zip(NAMESPACES, before)
                      for k, v in old.items())
    finally:
        tracer.restore()
    assert wrapped > 0
    for ns, old in zip(NAMESPACES, before):
        assert all(vars(ns)[k] is v for k, v in old.items())


def test_micro_training_forward_calls_every_timed_name(monkeypatch):
    """A kernel or component the model stops calling would read 0 s in the
    benchmark's per-layer figures instead of failing. The spans of
    ``encoder_layer`` give ``model.encoder_layer_self_s``."""
    monkeypatch.syspath_prepend(PERFBENCH)
    import workloads

    calls = dict.fromkeys(workloads.KERNELS + workloads.COMPONENTS
                          + ("encoder_layer",), 0)
    for name in calls:
        fn = getattr(eit.model, name)

        def counted(*args, _name=name, _fn=fn, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(eit.model, name, counted)
    cfg = eit.model.config_from_dict(workloads.MICRO)
    rng = np.random.default_rng(0)
    eit.model.forward(rng.random((2, 3, 8, 8)), eit.model.init_params(cfg, 0),
                      cfg, train=True, rng=rng)
    assert all(calls.values()), calls


@pytest.mark.parametrize("command", ["gradcheck", "probe"])
def test_micro_cli_command_calls_cli_forward(command, monkeypatch, tmp_path):
    """The traced gradcheck-micro and probe-small runs take their per-layer
    figures from the ``model.forward`` spans that ``eit.cli.forward``
    opens."""
    monkeypatch.syspath_prepend(PERFBENCH)
    import workloads

    cfg = eit.model.config_from_dict(workloads.MICRO)
    if command == "gradcheck":
        path = tmp_path / "micro.json"
        path.write_text(json.dumps(workloads.MICRO))
        argv = ["gradcheck", "--config", str(path)]
    else:
        eit.checkpoint.save(tmp_path / "m.ckpt", eit.model.init_params(cfg, 0), cfg)
        eit.data.save_dataset(eit.data.generate_synthetic(2, cfg.image[0]),
                              tmp_path / "data")
        argv = ["probe", "--checkpoint", str(tmp_path / "m.ckpt"),
                "--data", str(tmp_path / "data")]
    calls = []
    forward = eit.cli.forward

    def counted(*args, **kwargs):
        calls.append(1)
        return forward(*args, **kwargs)
    monkeypatch.setattr(eit.cli, "forward", counted)
    assert eit.cli.main(argv + ["--out", str(tmp_path / "out")]) == 0
    assert calls

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


def micro_probe_argv(tmp_path, micro: dict) -> list[str]:
    """``eit probe`` on a MICRO checkpoint and two synthetic images."""
    cfg = eit.model.config_from_dict(micro)
    eit.checkpoint.save(tmp_path / "m.ckpt", eit.model.init_params(cfg, 0), cfg)
    eit.data.save_dataset(eit.data.generate_synthetic(2, cfg.image[0]),
                          tmp_path / "data")
    return ["probe", "--checkpoint", str(tmp_path / "m.ckpt"),
            "--data", str(tmp_path / "data"), "--out", str(tmp_path / "out")]


def count_calls(monkeypatch, ns, name: str, calls: list):
    """Replace ``ns.name`` by a wrapper that appends ``name`` to ``calls``."""
    fn = getattr(ns, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)
    monkeypatch.setattr(ns, name, counted)


@pytest.mark.parametrize("command", ["gradcheck", "probe"])
def test_micro_cli_command_calls_cli_forward(command, monkeypatch, tmp_path):
    """The traced gradcheck-micro and probe-small runs take their per-layer
    figures from the ``model.forward`` spans that ``eit.cli.forward``
    opens."""
    monkeypatch.syspath_prepend(PERFBENCH)
    import workloads

    if command == "gradcheck":
        path = tmp_path / "micro.json"
        path.write_text(json.dumps(workloads.MICRO))
        argv = ["gradcheck", "--config", str(path), "--out", str(tmp_path / "out")]
    else:
        argv = micro_probe_argv(tmp_path, workloads.MICRO)
    calls = []
    count_calls(monkeypatch, eit.cli, "forward", calls)
    assert eit.cli.main(argv) == 0
    assert calls


def test_micro_probe_calls_every_timed_probe_name(monkeypatch, tmp_path):
    """Traced probe-small times these names as ``probes.record``,
    ``probes.frequency_share`` and ``probes.write``; one the command stops
    calling through ``eit.probes`` would read 0 s instead of failing."""
    monkeypatch.syspath_prepend(PERFBENCH)
    import workloads

    argv = micro_probe_argv(tmp_path, workloads.MICRO)
    names = ("ProbeRecord", "frequency_share", "write_distances_csv",
             "write_diversity_csv", "write_spectrum_csv", "write_pgm")
    calls = []
    for name in names:
        count_calls(monkeypatch, eit.probes, name, calls)
    assert eit.cli.main(argv) == 0
    assert set(calls) == set(names)

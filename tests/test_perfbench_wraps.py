"""The benchmark in ``perfbench/`` wraps program functions by name. Renaming
or deleting one of them must fail here, not only in a traced benchmark run."""

import os

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

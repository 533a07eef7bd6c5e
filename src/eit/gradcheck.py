"""Central finite-difference checking of the reverse-mode gradients."""

from __future__ import annotations

import multiprocessing
import os
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Callable

import numpy as np

from .errors import ContractError, DiagnosticError
from .tensor import Tensor


# Central differences of an O(1) loss carry ~1e-10 absolute noise in f64
# (roundoff / 2h at h = 1e-5), so elements with gradients below this floor
# are compared on that absolute scale instead of relatively.
GRAD_SCALE_FLOOR = 1e-5
# The largest relative error a gradient element may have and pass. An
# element whose central difference is further off than this is refined once
# by Richardson extrapolation before its error counts.
GRADCHECK_TOL = 1e-4

# What _differences reads: (f, params, stages, inputs, owner, analytic,
# step). gradcheck sets it before the workers fork, so they inherit it
# instead of receiving it pickled.
_job: tuple | None = None


def _relative_errors(analytic: np.ndarray, numeric: np.ndarray) -> np.ndarray:
    diff = np.abs(analytic - numeric)
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)),
                       GRAD_SCALE_FLOOR)
    return diff / scale


def stage_inputs(stages) -> list:
    """Each stage's input, computed once from the current parameters and
    detached: None for the first stage, then each stage's output."""
    inputs = [None]
    for _, fn in stages[:-1]:
        inputs.append(Tensor(fn(inputs[-1]).data))
    return inputs


def resume(stages, inputs, s: int) -> float:
    """The loss evaluated from stage s's stored input through the last stage."""
    x = inputs[s]
    for _, fn in stages[s:]:
        x = fn(x)
    return x.item()


def workers(tensors: int) -> int:
    """How many processes gradcheck uses for this many parameter tensors:
    one per CPU this process may run on, and no more than there are tensors."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return max(1, min(cpus, tensors))


def _differences(name: str) -> tuple[str, float, list, Counter]:
    """Finite differences for every element of parameter ``name``: its max
    relative error, the indices of the elements refined by Richardson
    extrapolation, and the evaluations made, counted as in ``gradcheck``."""
    f, params, stages, inputs, owner, analytic, step = _job
    p, s = params[name], owner[name]
    counts = Counter()

    def central(i, h: float, guard: bool = False) -> float:
        # index p.data in place: flattening a non-contiguous view (e.g. a
        # transpose) copies it, and perturbing the copy would not reach f
        saved = p.data[i]
        try:
            p.data[i] = saved + h
            fp = resume(stages, inputs, s)
            if guard:
                counts["full"] += 1
                if f().item() != fp:
                    raise DiagnosticError(
                        f"gradcheck: the stages name {name} too late: resumed "
                        f"at stage {s}, its perturbed loss differs from f's")
            p.data[i] = saved - h
            fm = resume(stages, inputs, s)
        finally:
            p.data[i] = saved
        counts[s] += 2
        return (fp - fm) / (2.0 * h)

    numeric = np.zeros(p.shape)
    for k, i in enumerate(np.ndindex(p.shape)):
        numeric[i] = central(i, step, guard=k == 0)
    # D(h) has O(h²) truncation; (4·D(h) − D(2h)) / 3 cancels it
    refined = np.argwhere(_relative_errors(analytic[name], numeric)
                          > GRADCHECK_TOL).tolist()
    for i in map(tuple, refined):
        numeric[i] = (4.0 * numeric[i] - central(i, 2.0 * step)) / 3.0
    err = _relative_errors(analytic[name], numeric)
    return name, float(err.max()) if err.size else 0.0, refined, counts


def gradcheck(f: Callable[[], Tensor], params: dict[str, Tensor],
              step: float = 1e-5, stages: list | None = None,
              counts: Counter | None = None,
              refined: dict | None = None) -> dict[str, float]:
    """Compare backward() gradients of the scalar ``f()`` against central
    differences (f(p+h) - f(p-h)) / 2h for every element of every parameter.
    An element whose relative error exceeds GRADCHECK_TOL is evaluated
    again at 2h and its difference D(h) replaced by the Richardson estimate
    (4·D(h) - D(2h)) / 3, whose truncation is O(h⁴) instead of O(h²).

    ``stages`` is ``f`` as an ordered list of (parameter names it owns,
    function from the previous stage's output to its own; the first is
    called with None), e.g. ``model.loss_stages``. Each stage's input is
    computed once, and an evaluation for a parameter resumes at the input
    of the stage that owns it. Without ``stages``, ``f`` is one stage that
    owns every parameter. The first perturbed evaluation of each parameter
    tensor also runs ``f`` and must equal the resumed one bit for bit, so
    a stage map that names a parameter too late raises DiagnosticError.
    ``counts``, when given, gets the number of evaluations: of ``f`` under
    "full", and under s of those resumed at stage s. ``refined``, when
    given, gets the indices of the refined elements of each parameter that
    has any.

    The parameter tensors are shared out over ``workers(len(params))``
    processes forked from this one, the costliest first. Each evaluation
    is the same arithmetic in a forked copy, so the report and counts do
    not depend on the number of workers. Under more than one worker, the
    parameters are perturbed in the workers' copies and the caller's
    tensors are never touched; in-process, each element is restored after
    its evaluations, also when one raises. A worker that dies raises
    ``concurrent.futures.process.BrokenProcessPool`` instead of leaving
    the call waiting for its tensor.

    Returns the max relative error per parameter name. ``f`` must be
    deterministic; a re-evaluation mismatch raises DiagnosticError.
    """
    global _job
    if not 0 < step < np.inf:  # NaN fails this too
        raise ContractError(f"gradcheck: step must be positive and finite, "
                            f"got {step}")
    if counts is None:
        counts = Counter()
    if stages is None:
        stages = [(tuple(params), lambda _: f())]
    owner = {name: s for s, (names, _) in enumerate(stages) for name in names}
    unowned = [name for name in params if name not in owner]
    if unowned:
        raise ContractError(f"gradcheck: no stage owns {unowned}")

    base = f()
    if base.data.size != 1:
        raise ContractError("gradcheck: f must produce a scalar")
    if f().item() != base.item():
        raise DiagnosticError("gradcheck: f is not deterministic")
    counts["full"] += 2

    for p in params.values():
        p.zero_grad()
    base.backward()
    analytic = {name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
                for name, p in params.items()}

    # costliest first (elements × stages run per evaluation), so that no
    # worker starts a large tensor while the others have run out of work
    order = sorted(params, key=lambda n: -params[n].data.size
                   * (len(stages) - owner[n]))
    n = workers(len(params))
    _job = (f, params, stages, stage_inputs(stages), owner, analytic, step)
    try:
        if n == 1:
            results = list(map(_differences, order))
        else:
            # a child flushes the stdio buffers it inherits when it exits
            sys.stdout.flush()
            sys.stderr.flush()
            pool = ProcessPoolExecutor(
                n, mp_context=multiprocessing.get_context("fork"))
            try:
                pending = [pool.submit(_differences, name) for name in order]
                results = [done.result() for done in as_completed(pending)]
            finally:
                # on an error no queued tensor starts and the running ones
                # finish: no worker is killed while it may hold a queue's
                # lock, which would leave the pool waiting on it for ever
                pool.shutdown(cancel_futures=True)
    finally:
        _job = None

    by_name = {name: rest for name, *rest in results}
    report = {}
    for name in params:
        report[name], indices, c = by_name[name]
        counts.update(c)
        if indices and refined is not None:
            refined[name] = indices
    return report


def worst_offender(report: dict[str, float]) -> tuple[str, float]:
    name = max(report, key=report.get)
    return name, report[name]

"""Central finite-difference checking of the reverse-mode gradients."""

from __future__ import annotations

from collections import Counter
from typing import Callable

import numpy as np

from .errors import ContractError, DiagnosticError
from .tensor import Tensor


# Central differences of an O(1) loss carry ~1e-10 absolute noise in f64
# (roundoff / 2h at h = 1e-5), so elements with gradients below this floor
# are compared on that absolute scale instead of relatively.
GRAD_SCALE_FLOOR = 1e-5


def _relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    diff = np.abs(analytic - numeric)
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)),
                       GRAD_SCALE_FLOOR)
    err = diff / scale
    return float(err.max()) if err.size else 0.0


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


def gradcheck(f: Callable[[], Tensor], params: dict[str, Tensor],
              step: float = 1e-5, stages: list | None = None,
              counts: Counter | None = None) -> dict[str, float]:
    """Compare backward() gradients of the scalar ``f()`` against central
    differences (f(p+h) - f(p-h)) / 2h for every element of every parameter.

    ``stages`` is ``f`` as an ordered list of (parameter names it owns,
    function from the previous stage's output to its own; the first is
    called with None), e.g. ``model.loss_stages``. Each stage's input is
    computed once, and an evaluation for a parameter resumes at the input
    of the stage that owns it. Without ``stages``, ``f`` is one stage that
    owns every parameter. The first perturbed evaluation of each parameter
    tensor also runs ``f`` and must equal the resumed one bit for bit, so
    a stage map that names a parameter too late raises DiagnosticError.
    ``counts``, when given, gets the number of evaluations: of ``f`` under
    "full", and under s of those resumed at stage s.

    Returns the max relative error per parameter name. ``f`` must be
    deterministic; a re-evaluation mismatch raises DiagnosticError.
    """
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

    def full() -> Tensor:
        counts["full"] += 1
        return f()

    base = full()
    if base.data.size != 1:
        raise ContractError("gradcheck: f must produce a scalar")
    if full().item() != base.item():
        raise DiagnosticError("gradcheck: f is not deterministic")

    for p in params.values():
        p.zero_grad()
    base.backward()
    analytic = {name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
                for name, p in params.items()}

    inputs = stage_inputs(stages)
    report = {}
    for name, p in params.items():
        s = owner[name]
        # index p.data in place: flattening a non-contiguous view (e.g. a
        # transpose) copies it, and perturbing the copy would not reach f
        numeric = np.zeros(p.shape)
        for k, i in enumerate(np.ndindex(p.shape)):
            saved = p.data[i]
            p.data[i] = saved + step
            fp = resume(stages, inputs, s)
            agrees = k > 0 or full().item() == fp
            p.data[i] = saved - step
            fm = resume(stages, inputs, s)
            p.data[i] = saved
            if not agrees:
                raise DiagnosticError(
                    f"gradcheck: the stages name {name} too late: resumed at "
                    f"stage {s}, its perturbed loss differs from f's")
            counts[s] += 2
            numeric[i] = (fp - fm) / (2.0 * step)
        report[name] = _relative_error(analytic[name], numeric)
    return report


def worst_offender(report: dict[str, float]) -> tuple[str, float]:
    name = max(report, key=report.get)
    return name, report[name]

"""Central finite-difference checking of the reverse-mode gradients."""

from __future__ import annotations

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


def gradcheck(f: Callable[[], Tensor], params: dict[str, Tensor],
              step: float = 1e-5) -> dict[str, float]:
    """Compare backward() gradients of the scalar ``f()`` against central
    differences (f(p+h) - f(p-h)) / 2h for every element of every parameter.

    Returns the max relative error per parameter name. ``f`` must be
    deterministic; a re-evaluation mismatch raises DiagnosticError.
    """
    if not 0 < step < np.inf:  # NaN fails this too
        raise ContractError(f"gradcheck: step must be positive and finite, "
                            f"got {step}")
    base = f()
    if base.data.size != 1:
        raise ContractError("gradcheck: f must produce a scalar")
    if f().item() != base.item():
        raise DiagnosticError("gradcheck: f is not deterministic")

    for p in params.values():
        p.zero_grad()
    base.backward()
    analytic = {name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
                for name, p in params.items()}

    report = {}
    for name, p in params.items():
        # index p.data in place: flattening a non-contiguous view (e.g. a
        # transpose) copies it, and perturbing the copy would not reach f
        numeric = np.zeros(p.shape)
        for i in np.ndindex(p.shape):
            saved = p.data[i]
            p.data[i] = saved + step
            fp = f().item()
            p.data[i] = saved - step
            fm = f().item()
            p.data[i] = saved
            numeric[i] = (fp - fm) / (2.0 * step)
        report[name] = _relative_error(analytic[name], numeric)
    return report


def worst_offender(report: dict[str, float]) -> tuple[str, float]:
    name = max(report, key=report.get)
    return name, report[name]

"""Correctness checks of the program's outputs. Each takes plain values
(arrays, files, numbers) so the negative-control self-test can hand it a
corrupted input, and raises CheckFailed on a mismatch."""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

import reference

LOGIT_RTOL = 1e-9      # program vs reference forward
PROBE_RTOL = 1e-9      # probe CSVs vs recomputation (direct DFT vs FFT)
DIRECTIONAL_RTOL = 1e-5
GRADCHECK_TOL = 1e-4


class CheckFailed(Exception):
    pass


def rel_err(got, want) -> float:
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return math.inf
    scale = max(float(np.abs(want).max()), 1e-300)
    return float(np.abs(got - want).max()) / scale


def close(what: str, got, want, rtol: float):
    err = rel_err(got, want)
    if not err <= rtol:
        raise CheckFailed(f"{what}: relative error {err:.3g} > {rtol:g}")


def bitwise(what: str, got: np.ndarray, want: np.ndarray):
    if got.shape != want.shape or got.tobytes() != want.tobytes():
        raise CheckFailed(f"{what}: not bit-identical")


def evaluate_matches(loss: float, acc: float, ref_logits, labels):
    close("evaluate loss", loss, reference.cross_entropy(ref_logits, labels),
          LOGIT_RTOL)
    want = float(np.mean(ref_logits.argmax(axis=-1) == labels))
    if acc != want:
        raise CheckFailed(f"evaluate accuracy {acc} != {want} from the reference")


def directional(analytic: float, numeric: float):
    """The backward gradient projected on a direction against the central
    difference of the loss along it."""
    if not abs(numeric) > 1e-8:
        raise CheckFailed(f"directional derivative {numeric:.3g} too small to test")
    close("directional derivative", analytic, numeric, DIRECTIONAL_RTOL)


def metric_rows(rows: list[dict], epochs: int, n: int, batch: int):
    if [r["epoch"] for r in rows] != list(range(epochs)):
        raise CheckFailed(f"metrics rows {[r['epoch'] for r in rows]}, "
                          f"expected one per epoch for {epochs} epochs")
    want = epochs * -(-n // batch)
    if rows[-1]["step"] != want:
        raise CheckFailed(f"final step {rows[-1]['step']}, expected {want}")


def _read_csv(path, keys):
    with open(path, newline="") as f:
        return {tuple(int(r[k]) for k in keys): float(r[list(r)[-1]])
                for r in csv.DictReader(f)}


def probe_outputs(out_dir: str, inputs: list[np.ndarray],
                  attentions: list[np.ndarray], grid, spacing: float,
                  bins: int):
    """The probe command's CSVs and maps against values recomputed from the
    reference's layer inputs (N, T, C) and attention (N, heads, T, T)."""
    dist = {i: np.mean([reference.head_distances(a, grid, spacing)
                        for a in att], axis=0)
            for i, att in enumerate(attentions)}
    spec = {i: np.mean([reference.spectrum(x, grid, bins) for x in xs], axis=0)
            for i, xs in enumerate(inputs)}
    want = {"distances.csv": {(i, h): v for i, d in dist.items()
                              for h, v in enumerate(d)},
            "diversity.csv": {(i,): float(np.mean((d - d.mean()) ** 2))
                              for i, d in dist.items()},
            "spectrum.csv": {(i, b): v for i, s in spec.items()
                             for b, v in enumerate(s)}}
    keys = {"distances.csv": ("layer", "head"), "diversity.csv": ("layer",),
            "spectrum.csv": ("layer", "bin")}
    for name, expected in want.items():
        got = _read_csv(os.path.join(out_dir, name), keys[name])
        if set(got) != set(expected):
            raise CheckFailed(f"{name}: rows {sorted(got)} != {sorted(expected)}")
        order = sorted(expected)
        close(name, [got[k] for k in order], [expected[k] for k in order],
              PROBE_RTOL)
        if name == "spectrum.csv":
            for layer in spec:
                total = sum(v for k, v in got.items() if k[0] == layer)
                if abs(total - 1.0) > 1e-9:
                    raise CheckFailed(f"spectrum of layer {layer} sums to {total}")
    h, w = grid
    for i in range(len(inputs)):
        pw, ph, pixels = reference.read_pgm(
            os.path.join(out_dir, "maps", f"layer_{i}.pgm"))
        if (ph, pw) != (h, w) or len(pixels) != h * w:
            raise CheckFailed(f"maps/layer_{i}.pgm is {pw}x{ph} with "
                              f"{len(pixels)} bytes, grid is {w}x{h}")


def gradcheck_report(code: int, doc: dict, names: list[str]):
    if code != 0:
        raise CheckFailed(f"eit gradcheck exited {code}")
    errors = doc["max_relative_error"]
    if sorted(errors) != sorted(names):
        raise CheckFailed(f"gradcheck.json covers {sorted(errors)}, "
                          f"model has {sorted(names)}")
    worst = doc["worst"]["error"]
    if not (math.isfinite(worst) and worst <= GRADCHECK_TOL
            and worst == max(errors.values())):
        raise CheckFailed(f"gradcheck worst error {worst!r}")


def read_json(path) -> dict:
    with open(path) as f:
        return json.load(f)

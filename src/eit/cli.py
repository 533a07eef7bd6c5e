"""Command-line surface: describe / gradcheck / train / probe / gen-data.

Exit codes: 0 success, 1 validation or contract failure, 2 numerical
failure (gradcheck fail, training divergence). Every command writes a
manifest.json echoing the resolved configuration and seed, and recording
what ran it, its wall time and peak RSS. The manifest and the outputs of
describe, gradcheck, train, probe and gen-data are written atomically
(``atomic.atomic_open``). An ``--out`` that cannot be a directory (an
existing file, or a path under one) is refused before any work, and a
failed write is an ``OutputError``: both exit 1.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import glob
import json
import os
import platform
import resource
import sys
import time
from collections import Counter

import numpy as np
import scipy

from . import checkpoint, costs, probes
from .atomic import atomic_open
from .data import CUTOFF, generate_synthetic, load_dataset, save_dataset
from .errors import (ConfigError, DiagnosticError, DivergenceError, EitError,
                     OutputError)
from .gradcheck import GRADCHECK_TOL, gradcheck, workers, worst_offender
from .model import (config_from_dict, config_to_dict, forward, init_params,
                    loss_stages, read_json, schedule_for)
from .train import cross_entropy, train, train_config_from_dict

GRADCHECK_PARAM_LIMIT = 50_000


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy's wheels, or None when
    numpy was built against another BLAS or lays its libraries out otherwise."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        try:
            get = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        return get()
    return None


def _blas() -> dict:
    """Name and version of the BLAS numpy was built against."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"name": blas.get("name"), "version": blas.get("version")}


def _write_manifest(args, payload: dict):
    """manifest.json in args.out: the command, what ran it (interpreter,
    numpy, scipy, BLAS and its threads), the wall time since ``main``
    started the command, the process's peak RSS, and the payload."""
    os.makedirs(args.out, exist_ok=True)
    doc = {"command": args.command, "python": platform.python_version(),
           "numpy": np.__version__, "scipy": scipy.__version__,
           "blas": _blas(), "threads": _blas_threads(),
           "wall_s": time.perf_counter() - args.started,
           # ru_maxrss is in KiB on Linux
           "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
           **payload}
    with atomic_open(os.path.join(args.out, "manifest.json")) as f:
        json.dump(doc, f, indent=2, sort_keys=True)


def _check_out(path):
    """Refuse, before any work, an output directory that cannot be made: an
    existing file or a path under one. Nothing is created; the commands make
    the directory when they write."""
    found = os.path.abspath(path)
    while not os.path.exists(found):
        found = os.path.dirname(found)
    if not os.path.isdir(found):
        raise OutputError(f"--out {path}: {found} is not a directory")


def _check_seed(args):
    if args.seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {args.seed}")


def _apply_overrides(config, args):
    if args.image is not None:
        try:
            h, w = (int(v) for v in args.image.lower().split("x"))
        except ValueError:
            raise ConfigError(f"--image must be HxW, e.g. 224x224, "
                              f"got {args.image!r}") from None
        config = dataclasses.replace(config, image=(h, w, 3))
    if args.classes is not None:
        config = dataclasses.replace(config, classes=args.classes)
    return config


def cmd_describe(args) -> int:
    config = _apply_overrides(config_from_dict(read_json(args.config)), args)
    sched = schedule_for(config)
    report = costs.cost_report(config)
    h0, w0 = config.token_grid()
    vit_like = config.split_policy == "none" and \
        config.eitp.stride == config.eitp.kernel and config.eitp.pool == 1
    print(f"model: C={config.channels} L={config.layers} h={config.heads} "
          f"classes={config.classes} image={config.image[0]}x{config.image[1]}"
          + ("  [ViT-equivalent geometry]" if vit_like else ""))
    print(f"tokens: {config.token_count()} (grid {h0}x{w0} + class token), "
          f"pixel spacing {config.pixel_spacing()}")
    print(f"split policy: {config.split_policy}")
    print("layer   conv_ch  attn_ch")
    for i, (ct, cm) in enumerate(zip(sched.conv, sched.attn), start=1):
        print(f"{i:5d}  {ct:8d} {cm:8d}")
    print(f"{'component':12s} {'params':>12s} {'MACs':>16s} {'FLOPs(2xMAC)':>16s}")
    for name, cost in report.components.items():
        print(f"{name:12s} {cost.params:12d} {cost.macs:16d} {cost.flops:16d}")
    print(f"{'total':12s} {report.total_params:12d} {report.total_macs:16d} "
          f"{report.total_flops:16d}")
    print(f"convention: {costs.FLOP_CONVENTION}")

    doc = {"config": config_to_dict(config),
           "schedule": {"conv": list(sched.conv), "attn": list(sched.attn)},
           "tokens": config.token_count(),
           "vit_equivalent_geometry": vit_like,
           "flop_convention": costs.FLOP_CONVENTION,
           "components": {name: {"params": c.params, "macs": c.macs,
                                 "flops": c.flops}
                          for name, c in report.components.items()},
           "totals": {"params": report.total_params,
                      "macs": report.total_macs,
                      "flops": report.total_flops}}
    os.makedirs(args.out, exist_ok=True)
    with atomic_open(os.path.join(args.out, "costs.json")) as f:
        json.dump(doc, f, indent=2)
    _write_manifest(args, {"config": config_to_dict(config), "seed": None})
    return 0


def cmd_gradcheck(args) -> int:
    config = config_from_dict(read_json(args.config))
    total = costs.count_params(config).total_params
    if total > GRADCHECK_PARAM_LIMIT:
        raise ConfigError(f"config has {total} parameters; finite differences "
                          f"are only tractable up to {GRADCHECK_PARAM_LIMIT}")
    _check_seed(args)
    rng = np.random.default_rng(args.seed)
    params = init_params(config, args.seed)
    h, w, _ = config.image
    images = rng.random((1, 3, h, w))
    label = np.array([args.seed % config.classes])

    def loss(logits):
        return cross_entropy(logits, label)

    def f():
        return loss(forward(images, params, config))

    # the finite differences perturb params' arrays in place, and detached
    # tensors share them: the resumed evaluations see each perturbation but
    # build no graph
    stages = loss_stages(images, {k: p.detach() for k, p in params.items()},
                         config, loss)
    counts, refined = Counter(), {}
    report = gradcheck(f, params, step=args.step, stages=stages, counts=counts,
                       refined=refined)
    name, err = worst_offender(report)
    passed = err <= GRADCHECK_TOL
    doc = {"tolerance": GRADCHECK_TOL, "step": args.step, "passed": passed,
           "worst": {"param": name, "error": err},
           "max_relative_error": report}
    if refined:
        doc["refined"] = refined
    os.makedirs(args.out, exist_ok=True)
    with atomic_open(os.path.join(args.out, "gradcheck.json")) as f_:
        json.dump(doc, f_, indent=2)
    _write_manifest(args, {
        "config": config_to_dict(config), "seed": args.seed,
        "evaluations": sum(counts.values()),
        "resumed_at_stage": [counts[s] for s in range(len(stages))],
        "workers": workers(len(params)),
        # the largest child this process has waited for, e.g. a pool worker
        "children_peak_rss_mib":
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024})
    if passed:
        print(f"gradcheck passed: worst {name} rel err {err:.3e} "
              f"(tol {GRADCHECK_TOL:g})")
        return 0
    print(f"gradcheck FAILED: {name} rel err {err:.3e} > {GRADCHECK_TOL:g}",
          file=sys.stderr)
    return 2


def cmd_train(args) -> int:
    config = config_from_dict(read_json(args.config))
    tconfig = train_config_from_dict(read_json(args.train_config))
    dataset = load_dataset(args.data)
    try:  # the manifest is written also when training diverges
        train(config, tconfig, dataset, out_dir=args.out)
    finally:
        _write_manifest(args, {"config": config_to_dict(config),
                               "train_config": dataclasses.asdict(tconfig),
                               "data": args.data, "seed": tconfig.seed})
    print(f"wrote {os.path.join(args.out, 'model.ckpt')} and metrics.csv")
    return 0


def _probe_batch(images, params, config, bins: int, query: int):
    """Per layer: one batch's summed head distances and spectrum shares, and
    its first image's attention map. Each layer is reduced as it finishes
    and its record dropped, so no earlier layer's probes are alive."""
    grid, spacing = config.token_grid(), config.pixel_spacing()
    dist, spec, maps = [], [], []

    def reduce_layer(i, layer_input, attention):
        # a copy, as collect_probes keeps: the FFT of forward's own array
        # can differ in the last bits
        rec = probes.ProbeRecord(attention, layer_input.copy(), grid, spacing)
        dist.append(probes.attention_distance(rec).sum(axis=0))
        spec.append(probes.frequency_share(rec, bins).sum(axis=0))
        maps.append(probes.attention_map(rec, query)[0][0])
    forward(images, params, config, on_layer=reduce_layer)
    return np.stack(dist), np.stack(spec), np.stack(maps)


def cmd_probe(args) -> int:
    for flag in ("batch_size", "bins", "samples"):
        if getattr(args, flag) < 1:
            raise ConfigError(f"--{flag.replace('_', '-')} must be positive, "
                              f"got {getattr(args, flag)}")
    _check_out(os.path.join(args.out, "maps"))
    params, config = checkpoint.load(args.checkpoint)
    h0, w0 = config.token_grid()
    # what head_diversity and attention_distance refuse, refused before any work
    if config.heads < 2:
        raise DiagnosticError("head diversity needs at least two heads")
    if h0 * w0 < 2:
        raise DiagnosticError(f"grid {(h0, w0)} too small for distances")
    params = {name: p.detach() for name, p in params.items()}
    images = load_dataset(args.data, limit=args.samples).images
    m = len(images)
    query = 1 + (h0 // 2) * w0 + w0 // 2  # center patch token

    batches = (_probe_batch(images[lo:lo + args.batch_size], params, config,
                            args.bins, query)
               for lo in range(0, m, args.batch_size))
    dist_sum, spec_sum, maps = next(batches)
    for dist, spec, _ in batches:
        dist_sum += dist
        spec_sum += spec
    distances = dist_sum / m
    diversity = np.array([probes.head_diversity(d) for d in distances])

    os.makedirs(os.path.join(args.out, "maps"), exist_ok=True)
    probes.write_distances_csv(os.path.join(args.out, "distances.csv"), distances)
    probes.write_diversity_csv(os.path.join(args.out, "diversity.csv"), diversity)
    probes.write_spectrum_csv(os.path.join(args.out, "spectrum.csv"), spec_sum / m)
    for i, amap in enumerate(maps):
        probes.write_pgm(os.path.join(args.out, "maps", f"layer_{i}.pgm"), amap)
    _write_manifest(args, {"config": config_to_dict(config), "seed": None,
                           "checkpoint": args.checkpoint, "samples": m,
                           "bins": args.bins, "query": query})
    print(f"probed {m} samples across {config.layers} layers -> {args.out}")
    return 0


def cmd_gen_data(args) -> int:
    _check_seed(args)
    dataset = generate_synthetic(args.n, args.size, args.seed)
    save_dataset(dataset, args.out)
    _write_manifest(args, {"config": {"n": args.n, "size": args.size,
                                      "cutoff": CUTOFF},
                           "seed": args.seed})
    print(f"wrote {args.n} samples ({args.size}x{args.size}) to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eit", description="Channel-split vision transformer toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("describe", help="print schedule, params and FLOPs")
    p.add_argument("--config", required=True)
    p.add_argument("--image", help="override image size, e.g. 224x224")
    p.add_argument("--classes", type=int, help="override class count")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("gradcheck", help="finite-difference check of a micro model")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--step", type=float, default=1e-5)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("train", help="train a toy model")
    p.add_argument("--config", required=True)
    p.add_argument("--train-config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("probe", help="attention/spectrum diagnostics of a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--bins", type=int, default=probes.DEFAULT_BINS)
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--batch-size", type=int, default=32)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("gen-data", help="generate the synthetic two-class dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--size", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen_data)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.started = time.perf_counter()
    try:
        _check_out(args.out)
        try:
            return args.func(args)
        except OSError as e:  # every read raises a typed error: this is a write
            raise OutputError(f"cannot write to {args.out}: {e}") from e
    except DivergenceError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 2
    except EitError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

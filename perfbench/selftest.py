"""Negative controls for the benchmark's correctness checks.

Each check is first run on good inputs, where it must pass, and then on a
corrupted copy, where it must fail: a perturbed weight in the reference's
copy of the parameters, a logit one ulp off, an edited CSV value, a wrong
gradient direction sign, a missing metrics row, a resized attention map
and broken gradcheck reports. A check that cannot fail proves nothing.

    python3 perfbench/selftest.py

runs on MICRO-sized inputs in a few seconds and exits non-zero if any
control misbehaves.
"""

from __future__ import annotations

import copy
import csv
import os
import shutil
import sys

import numpy as np

from run import OUT, import_program


def main() -> int:
    import_program()
    import eit.checkpoint
    import eit.cli
    import eit.data
    import eit.model
    import eit.probes
    import eit.train

    import checks
    import reference
    from workloads import MICRO, quiet

    results = []

    def control(label, fn, should_pass):
        try:
            fn()
            passed = True
        except checks.CheckFailed:
            passed = False
        ok = passed == should_pass
        results.append(ok)
        print(f"{'ok ' if ok else 'BAD'} {label}: check "
              f"{'passed' if passed else 'failed'}")

    cfg = eit.model.config_from_dict(MICRO)
    params = eit.model.init_params(cfg, 7)
    arrays = {k: p.data.copy() for k, p in params.items()}
    data = eit.data.generate_synthetic(6, 8, 3)
    images, labels = data.images, data.labels
    got = eit.model.forward(images, params, cfg).data
    ref_logits = reference.forward(arrays, MICRO, images)[0]

    # logits against the reference
    bent = copy.deepcopy(arrays)
    bent["layers.1.mlp.fc2.weight"][0, 0] += 1e-6
    control("logits vs reference", lambda: checks.close(
        "logits", got, ref_logits, checks.LOGIT_RTOL), True)
    control("logits vs reference with a perturbed weight", lambda: checks.close(
        "logits", got, reference.forward(bent, MICRO, images)[0],
        checks.LOGIT_RTOL), False)

    # evaluate's loss and accuracy against the reference logits
    loss, acc = eit.train.evaluate(params, cfg, data)
    control("evaluate vs reference", lambda: checks.evaluate_matches(
        loss, acc, ref_logits, labels), True)
    control("evaluate with a loss 1e-7 off", lambda: checks.evaluate_matches(
        loss * (1 + 1e-7), acc, ref_logits, labels), False)
    control("evaluate with one label flipped", lambda: checks.evaluate_matches(
        loss, acc, ref_logits, np.r_[1 - labels[:1], labels[1:]]), False)

    # directional derivative
    lossT = eit.train.cross_entropy(eit.model.forward(images, params, cfg), labels)
    lossT.backward()
    rng = np.random.default_rng(0)
    u = {k: rng.standard_normal(a.shape) for k, a in arrays.items()}
    analytic = sum(float((params[k].grad * u[k]).sum()) for k in u)
    h = 1e-6
    fd = [reference.cross_entropy(reference.forward(
        {k: arrays[k] + s * h * u[k] for k in u}, MICRO, images)[0], labels)
        for s in (1, -1)]
    numeric = (fd[0] - fd[1]) / (2 * h)
    control("directional derivative", lambda: checks.directional(
        analytic, numeric), True)
    control("directional derivative, gradient sign flipped",
            lambda: checks.directional(-analytic, numeric), False)

    # save / load identity
    work = os.path.join(OUT, f"selftest-{os.getpid()}")
    os.makedirs(work)
    try:
        path = os.path.join(work, "micro.ckpt")
        eit.checkpoint.save(path, params, cfg)
        loaded, lcfg = eit.checkpoint.load(path)
        again = eit.model.forward(images, loaded, lcfg).data
        off = again.copy()
        off[0, 0] = np.nextafter(off[0, 0], np.inf)
        control("reload bit-identical", lambda: checks.bitwise("logits", again, got), True)
        control("reload with one logit one ulp off",
                lambda: checks.bitwise("logits", off, got), False)

        # metrics rows
        _, rows = eit.train.train(cfg, eit.train.TrainConfig(
            epochs=2, batch_size=4, base_lr=0.01, min_lr=0.001), data)
        control("metrics rows", lambda: checks.metric_rows(rows, 2, 6, 4), True)
        control("metrics rows with one row dropped",
                lambda: checks.metric_rows(rows[:1], 2, 6, 4), False)
        control("metrics rows against a wrong batch size",
                lambda: checks.metric_rows(rows, 2, 6, 2), False)

        # probe outputs
        data_dir = os.path.join(work, "data")
        eit.data.save_dataset(data, data_dir)
        out = os.path.join(work, "probe")
        with quiet():
            code = eit.cli.main(["probe", "--checkpoint", path, "--data", data_dir,
                                 "--out", out, "--bins", "5"])
        if code != 0:
            raise RuntimeError(f"eit probe exited {code}")
        disk_images = reference.read_dataset(data_dir)[0]
        grid, spacing = reference.token_grid(MICRO), reference.pixel_spacing(MICRO)

        def probe_check(out_dir, weights=arrays):
            _, inputs, atts = reference.forward(weights, MICRO, disk_images)
            return lambda: checks.probe_outputs(out_dir, inputs, atts, grid,
                                                spacing, 5)

        control("probe outputs", probe_check(out), True)
        bent0 = copy.deepcopy(arrays)
        bent0["layers.0.attn.qkv.weight"][0, 0] += 1e-6
        control("probe outputs vs a perturbed weight", probe_check(out, bent0),
                False)
        for name in ("distances.csv", "diversity.csv", "spectrum.csv"):
            edited = os.path.join(work, f"edit-{name}")
            shutil.copytree(out, edited)
            _edit_last_value(os.path.join(edited, name))
            control(f"probe outputs with one value of {name} edited",
                    probe_check(edited), False)
        small = os.path.join(work, "edit-pgm")
        shutil.copytree(out, small)
        eit.probes.write_pgm(os.path.join(small, "maps", "layer_1.pgm"),
                             np.ones((grid[0], grid[1] - 1)))
        control("probe outputs with a resized attention map",
                probe_check(small), False)
    finally:
        shutil.rmtree(work)

    # gradcheck report
    names = [n for n, *_ in eit.model.param_shapes(cfg)]
    good = {"worst": {"param": names[0], "error": 1e-8},
            "max_relative_error": {n: 1e-8 for n in names}}
    control("gradcheck report", lambda: checks.gradcheck_report(0, good, names), True)
    control("gradcheck report with exit code 2",
            lambda: checks.gradcheck_report(2, good, names), False)
    short = copy.deepcopy(good)
    del short["max_relative_error"][names[-1]]
    control("gradcheck report missing a parameter",
            lambda: checks.gradcheck_report(0, short, names), False)
    for bad in (float("nan"), 2e-4):
        worse = copy.deepcopy(good)
        worse["worst"]["error"] = worse["max_relative_error"][names[0]] = bad
        control(f"gradcheck report with worst error {bad}",
                lambda: checks.gradcheck_report(0, worse, names), False)

    failures = results.count(False)
    print(f"{len(results) - failures} of {len(results)} controls behaved")
    return 1 if failures else 0


def _edit_last_value(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    rows[-1][-1] = repr(float(rows[-1][-1]) * (1 + 1e-6) + 1e-12)
    with open(path, "w", newline="") as f:
        csv.writer(f).writerows(rows)


if __name__ == "__main__":
    sys.exit(main())

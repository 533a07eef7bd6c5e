"""The benchmark's three workloads.

Each workload has a set-up (repeated, so its time is a median), an
untimed warm-up, a round of timed operations that is repeated for the run
length, a check of the last round's outputs against the plain-numpy
reference, and, for the traced run, the per-layer figures read from the
spans plus a few measurements made apart from the rounds.

Every call into the program goes through a module attribute
(``eit.train.train``, ``eit.cli.main``, ...) so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
from collections import defaultdict

import numpy as np

import eit
import eit.checkpoint
import eit.cli
import eit.costs
import eit.data
import eit.model
import eit.probes
import eit.tensor
import eit.train
from eit.errors import EitError

import checks
import reference
import tracing

# Every field is spelled out, so the reference needs no defaults.
SMALL = {"channels": 250, "layers": 5, "heads": 10, "classes": 10,
         "image": [32, 32, 3],
         "eitp": {"kernel": 3, "stride": 1, "padding": 1, "pool": 4},
         "eitt": {"kernel": 3, "stride": 1, "branch_style": "conv"},
         "mlp_ratio": 4, "split_policy": "decreasing", "pos_embed": "none",
         "dropout": 0.0}
MICRO = dict(SMALL, channels=8, layers=2, heads=2, classes=2, image=[8, 8, 3],
             eitp={"kernel": 3, "stride": 1, "padding": 1, "pool": 2})

KERNELS = ("matmul", "conv2d", "maxpool2d", "softmax_rows", "layernorm")
COMPONENTS = ("eitp_embed", "mha", "eitt_branch")


def derived_seeds(seed: int, k: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31 - 1, k)]


def instrument(tr: tracing.Tracer):
    """Wrap the public functions of each module where they are looked up."""
    def fwd_attrs(args, kwargs):
        images, config = args[0], args[2]
        train = kwargs.get("train", args[3] if len(args) > 3 else False)
        return [config.split_policy, int(images.shape[0]), bool(train)]

    tr.count_nodes(eit.tensor.Tensor)
    tr.wrap(eit.tensor.Tensor, "backward", "tensor.backward")
    for k in KERNELS:
        tr.wrap(eit.model, k, f"tensor.{k}")
    for k in COMPONENTS:
        tr.wrap(eit.model, k, f"model.{k}")
    tr.wrap(eit.model, "encoder_layer", "model.encoder_layer",
            lambda args, kwargs: args[2])
    for ns in (eit.model, eit.train, eit.cli):
        tr.wrap(ns, "forward", "model.forward", fwd_attrs)
    for ns in (eit.train, eit.cli):
        tr.wrap(ns, "cross_entropy", "train.cross_entropy")
    for k in ("train", "evaluate", "sgd_step"):
        tr.wrap(eit.train, k, f"train.{k}")
    tr.wrap(eit.checkpoint, "save", "checkpoint.save")
    tr.wrap(eit.checkpoint, "load", "checkpoint.load")
    tr.wrap(eit.data, "generate_synthetic", "data.generate_synthetic")
    tr.wrap(eit.data, "save_dataset", "data.save_dataset")
    tr.wrap(eit.cli, "load_dataset", "data.load_dataset")
    for k in ("frequency_share", "mean_distances"):
        tr.wrap(eit.probes, k, f"probes.{k}")
    tr.wrap(eit.probes, "ProbeRecord", "probes.record")
    for k in ("write_distances_csv", "write_diversity_csv",
              "write_spectrum_csv", "write_pgm"):
        tr.wrap(eit.probes, k, "probes.write")
    tr.wrap(eit.cli, "gradcheck", "gradcheck.gradcheck")
    tr.wrap(eit.cli, "main", "cli.main", lambda args, kwargs: args[0][0])
    tr.wrap(eit.costs, "count_params", "costs.count_params")


def forward_metrics(ix: tracing.SpanIndex, fwd: list[int], config,
                    batch: int) -> dict:
    """Per-batch figures, as medians over the given forward spans: inclusive
    kernel and component times, encoder-layer self time, time per layer and
    GFLOP/s from the analytic MAC counts."""
    per = []
    for f in fwd:
        totals = defaultdict(float)
        for j in ix.descendants(f):
            name, t0, t1, _, _, attrs = ix.spans[j]
            totals[name] += t1 - t0
            if name == "model.encoder_layer":
                totals[f"model.layer{attrs}_s"] += t1 - t0
                totals["model.encoder_layer_self_s"] += ix.self_time(j)
        totals["model.forward_s"] = ix.dur(f)
        per.append(totals)
    names = (["model.forward_s", "model.encoder_layer_self_s"]
             + [f"tensor.{k}" for k in KERNELS] + [f"model.{k}" for k in COMPONENTS]
             + [f"model.layer{i}_s" for i in range(config.layers)])
    out = {(n if n.endswith("_s") else f"{n}_s"): tracing.median(t[n] for t in per)
           for n in names}
    macs = eit.costs.count_flops(config)
    for name, macs_per_image, secs in (
            ("fwd", macs.total_macs, out["model.forward_s"]),
            ("mha", macs.components["attention"].macs, out["model.mha_s"]),
            ("eitt_branch", macs.components["conv_branch"].macs,
             out["model.eitt_branch_s"])):
        if secs > 0:
            out[f"model.{name}_gflops"] = 2.0 * macs_per_image * batch / secs / 1e9
    return out


def graph_stats(step, backward: bool = True) -> dict:
    """Nodes built by ``step()``, graph memory kept after it and the peak
    during its backward."""
    counter = tracing.Tracer()
    counter.count_nodes(eit.tensor.Tensor)
    try:
        mem = tracing.graph_memory(step, backward)
    finally:
        counter.restore()
    out = {"tensor.graph_nodes": counter.nodes,
           "tensor.graph_retained_mib": mem["retained"]}
    if backward:
        out["tensor.backward_peak_mib"] = mem["backward_peak"]
    return out


def suffixed(figures: dict, policy: str, main_policy: str) -> dict:
    """Figures of a workload's second config carry its policy as a suffix."""
    if policy == main_policy:
        return figures
    return {f"{k}[{policy}]": v for k, v in figures.items()}


@contextlib.contextmanager
def quiet():
    """Keep the CLI's own messages off the benchmark's standard output."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        yield


class Workload:
    name = ""
    LABEL = ""  # what ``work_per_s`` stands for in this workload

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.dir = workdir
        self.attempted = 0
        self.failed = 0

    def op(self, fn, *args, **kwargs):
        """Run one operation of a round. It fails if it raises the program's
        error type or returns a non-zero exit code; a failed operation gives
        the round no figure. Returns (result, ok)."""
        self.attempted += 1
        try:
            result = fn(*args, **kwargs)
        except EitError as e:
            result = e
        ok = not isinstance(result, EitError) and \
            not (isinstance(result, int) and result != 0)
        self.failed += not ok
        return result, ok

    def setup(self):
        raise NotImplementedError

    def warm_up(self):
        pass

    def round(self) -> dict[str, float]:
        """Run one round; returns its rates by metric name."""
        raise NotImplementedError

    def check(self):
        raise NotImplementedError

    def traced(self, ix: tracing.SpanIndex, since: float) -> dict:
        """Per-layer figures from the spans of the rounds (started at or
        after ``since``) and of the set-up (before it)."""
        raise NotImplementedError

    def report(self, figures: dict) -> dict:
        """The end-to-end figures, with ``work_per_s`` also under the name
        of the rate it stands for."""
        out = dict(figures)
        if "work_per_s" in figures:
            out[self.LABEL] = figures["work_per_s"]
        return out


class TrainSmall(Workload):
    """``train.train`` on SMALL at batch 16 with a checkpoint written, then
    ``train.evaluate`` on held-out images."""
    name = "train-small"
    LABEL = "train.images_per_s"
    N_TRAIN, N_HELDOUT, EPOCHS, BATCH = 16, 16, 1, 16

    def setup(self):
        s_data, s_held, s_train, self.s_dir = derived_seeds(self.seed, 4)
        self.cfg = eit.model.config_from_dict(SMALL)
        self.tcfg = eit.train.train_config_from_dict(
            {"epochs": self.EPOCHS, "batch_size": self.BATCH, "base_lr": 0.005,
             "min_lr": 0.0005, "momentum": 0.9, "seed": s_train})
        self.train_set = eit.data.generate_synthetic(self.N_TRAIN, 32, s_data)
        self.heldout = eit.data.generate_synthetic(self.N_HELDOUT, 32, s_held,
                                                   split="heldout")
        self.init = eit.model.init_params(self.cfg, s_train)
        self.rows_seen = []

    def _first_batch_loss(self, params):
        images = self.train_set.images[:self.BATCH]
        labels = self.train_set.labels[:self.BATCH]
        logits = eit.model.forward(images, params, self.cfg, train=True,
                                   rng=np.random.default_rng(0))
        return eit.train.cross_entropy(logits, labels)

    def warm_up(self):
        # One training-shaped forward and backward; its gradient is the
        # analytic side of the directional-derivative check.
        loss = self._first_batch_loss(self.init)
        loss.backward()
        rng = np.random.default_rng(self.s_dir)
        self.direction = {k: rng.standard_normal(p.shape)
                          for k, p in self.init.items()}
        norm = np.sqrt(sum((u * u).sum() for u in self.direction.values()))
        for u in self.direction.values():
            u /= norm
        self.analytic = float(sum((p.grad * self.direction[k]).sum()
                                  for k, p in self.init.items()))

    def round(self):
        t0 = time.perf_counter()
        trained, ok = self.op(eit.train.train, self.cfg, self.tcfg,
                              self.train_set, out_dir=self.dir,
                              eval_dataset=self.heldout)
        t1 = time.perf_counter()
        if not ok:
            return {}
        evaluated, ok = self.op(eit.train.evaluate, trained[0], self.cfg,
                                self.heldout)
        t2 = time.perf_counter()
        self.rows_seen.append(trained[1])
        out = {"work_per_s": self.EPOCHS * self.N_TRAIN / (t1 - t0)}
        if ok:
            self.last = trained, evaluated
            out["eval.images_per_s"] = self.N_HELDOUT / (t2 - t1)
        return out

    def check(self):
        (params, rows), (loss, acc) = self.last
        images, labels = self.heldout.images, self.heldout.labels
        got = eit.model.forward(images, params, self.cfg).data
        arrays = {k: p.data for k, p in params.items()}
        ref_logits = reference.forward(arrays, SMALL, images)[0]
        checks.close("held-out logits", got, ref_logits, checks.LOGIT_RTOL)
        checks.evaluate_matches(loss, acc, ref_logits, labels)
        loaded, config = eit.checkpoint.load(os.path.join(self.dir, "model.ckpt"))
        checks.bitwise("logits after checkpoint reload",
                       eit.model.forward(images, loaded, config).data, got)
        checks.metric_rows(rows, self.EPOCHS, self.N_TRAIN, self.BATCH)
        if any(r != rows for r in self.rows_seen):
            raise checks.CheckFailed("seed-fixed training reruns disagree")
        h = 1e-6
        batch = self.train_set.images[:self.BATCH], self.train_set.labels[:self.BATCH]
        losses = [reference.cross_entropy(reference.forward(
            {k: p.data + sign * h * self.direction[k]
             for k, p in self.init.items()}, SMALL, batch[0])[0], batch[1])
            for sign in (1.0, -1.0)]
        checks.directional(self.analytic, (losses[0] - losses[1]) / (2 * h))

    def traced(self, ix, since):
        out = {}
        trains = ix.named("train.train", since)
        fwd = [i for i in ix.named("model.forward", since)
               if ix.spans[i][5] == ["decreasing", self.BATCH, True]]
        out.update(forward_metrics(ix, fwd, self.cfg, self.BATCH))
        steps, backward, ce, sgd = [], [], [], []
        for t in trains:
            start = None
            for j in sorted(ix.children[t], key=lambda j: ix.spans[j][1]):
                name = ix.spans[j][0]
                if name == "model.forward":
                    start = ix.spans[j][1]
                elif name == "tensor.backward":
                    backward.append(ix.dur(j))
                elif name == "train.cross_entropy":
                    ce.append(ix.dur(j))
                elif name == "train.sgd_step":
                    sgd.append(ix.dur(j))
                    steps.append(ix.spans[j][2] - start)
        med = tracing.median
        out.update({
            "tensor.backward_s": med(backward),
            "train.step_s": med(steps),
            "train.sgd_step_s": med(sgd),
            "train.cross_entropy_s": med(ce),
            "train.evaluate_s": med(ix.dur(i) for i in
                                    ix.named("train.evaluate", since)),
            "checkpoint.save_s": med(ix.dur(i) for i in
                                     ix.named("checkpoint.save", since)),
            "data.generate_synthetic_s": med(
                ix.dur(i) for i in ix.named("data.generate_synthetic", until=since)),
        })
        out.update(graph_stats(lambda: self._first_batch_loss(
            eit.model.init_params(self.cfg, 0))))
        out.update(self._component_backward())
        return out

    def _component_backward(self, reps: int = 3) -> dict:
        """Backward of each component called alone at SMALL's layer-0
        shapes, from a fixed random projection of its output."""
        Tensor = eit.tensor.Tensor
        cfg = self.cfg
        params = eit.model.init_params(cfg, 0)
        sched = eit.model.schedule_for(cfg)
        grid = cfg.token_grid()
        ct = sched.conv[0]
        x = np.random.default_rng(0).standard_normal(
            (self.BATCH, cfg.token_count(), cfg.channels))
        images = self.train_set.images[:self.BATCH]
        qkv = [params[f"layers.0.attn.{k}"] for k in
               ("qkv.weight", "qkv.bias", "out.weight", "out.bias")]
        cases = {
            "eitp_embed": lambda: eit.model.eitp_embed(Tensor(images), params, cfg),
            "mha": lambda: eit.model.mha(Tensor(x[:, :, ct:], requires_grad=True),
                                         *qkv, cfg.heads)[0],
            "eitt_branch": lambda: eit.model.eitt_branch(
                Tensor(x[:, :, :ct], requires_grad=True), params, "layers.0",
                cfg, grid),
            "encoder_layer": lambda: eit.model.encoder_layer(
                Tensor(x, requires_grad=True), params, 0, cfg, sched, grid)[0],
        }
        out = {}
        for name, make in cases.items():
            times, projection = [], None
            for _ in range(reps):
                y = make()
                if projection is None:
                    projection = np.random.default_rng(1).standard_normal(y.shape)
                loss = (y * Tensor(projection)).sum()
                t0 = time.perf_counter()
                loss.backward()
                times.append(time.perf_counter() - t0)
                for p in params.values():
                    p.zero_grad()
            out[f"model.{name}_bwd_s"] = tracing.median(times)
        return out


class ProbeSmall(Workload):
    """``eit probe`` over a saved dataset on two seeded SMALL-shape
    checkpoints: EIT (``decreasing``) and its ViT twin (``none``)."""
    name = "probe-small"
    LABEL = "probe.images_per_s"
    N, BINS = 16, 10
    POLICIES = ("decreasing", "none")

    def setup(self):
        s_data, s_init = derived_seeds(self.seed, 2)
        self.data_dir = os.path.join(self.dir, "data")
        dataset = eit.data.generate_synthetic(self.N, 32, s_data)
        eit.data.save_dataset(dataset, self.data_dir)
        self.models = {}
        for policy in self.POLICIES:
            doc = dict(SMALL, split_policy=policy)
            cfg = eit.model.config_from_dict(doc)
            params = eit.model.init_params(cfg, s_init)
            path = os.path.join(self.dir, f"{policy}.ckpt")
            eit.checkpoint.save(path, params, cfg)
            self.models[policy] = (doc, path, {k: p.data for k, p in params.items()})

    def _argv(self, policy):
        return ["probe", "--checkpoint", self.models[policy][1],
                "--data", self.data_dir,
                "--out", os.path.join(self.dir, f"probe-{policy}"),
                "--samples", str(self.N), "--batch-size", str(self.N),
                "--bins", str(self.BINS)]

    def warm_up(self):
        with quiet():
            eit.cli.main(self._argv(self.POLICIES[0]))

    def round(self):
        secs = {}
        for policy in self.POLICIES:
            t0 = time.perf_counter()
            with quiet():
                _, ok = self.op(eit.cli.main, self._argv(policy))
            if ok:
                secs[policy] = time.perf_counter() - t0
        out = {f"probe.images_per_s[{p}]": self.N / t for p, t in secs.items()}
        if len(secs) == len(self.POLICIES):
            out["work_per_s"] = self.N * len(secs) / sum(secs.values())
        return out

    def check(self):
        images, _ = reference.read_dataset(self.data_dir)
        for policy, (doc, _, arrays) in self.models.items():
            _, inputs, attentions = reference.forward(arrays, doc, images)
            checks.probe_outputs(os.path.join(self.dir, f"probe-{policy}"),
                                 inputs, attentions, reference.token_grid(doc),
                                 reference.pixel_spacing(doc), self.BINS)

    def traced(self, ix, since):
        med = tracing.median
        out = {}
        for policy, (doc, _, _) in self.models.items():
            fwd = [i for i in ix.named("model.forward", since)
                   if ix.spans[i][5][0] == policy]
            out.update(suffixed(forward_metrics(
                ix, fwd, eit.model.config_from_dict(doc), self.N),
                policy, self.POLICIES[0]))
        commands = ix.named("cli.main", since)
        for name in ("checkpoint.load", "data.load_dataset",
                     "probes.frequency_share", "probes.mean_distances",
                     "probes.record", "probes.write"):
            out[f"{name}_s"] = med(ix.total_within(c, name) for c in commands)
        out["cli.main_s"] = med(ix.dur(c) for c in commands)
        out["cli.self_s"] = med(ix.self_time(c) for c in commands)
        for name in ("data.generate_synthetic", "data.save_dataset",
                     "checkpoint.save"):
            out[f"{name}_s"] = med(ix.dur(i) for i in ix.named(name, until=since))
        params, cfg = eit.checkpoint.load(self.models[self.POLICIES[0]][1])
        images = reference.read_dataset(self.data_dir)[0]
        out.update(graph_stats(lambda: eit.model.forward(
            images, params, cfg, collect_probes=True), backward=False))
        return out


class GradcheckMicro(Workload):
    """``eit gradcheck`` on MICRO with the default schedule and with the
    ``parallel`` policy."""
    name = "gradcheck-micro"
    LABEL = "gradcheck.evals_per_s"
    POLICIES = ("decreasing", "parallel")
    N_IMAGES = 4

    def setup(self):
        self.gc_seed, s_data = derived_seeds(self.seed, 2)
        self.models = {}
        for policy in self.POLICIES:
            doc = dict(MICRO, split_policy=policy)
            path = os.path.join(self.dir, f"micro-{policy}.json")
            with open(path, "w") as f:
                json.dump(doc, f)
            cfg = eit.model.config_from_dict(doc)
            evals = 2 * eit.costs.count_params(cfg).total_params + 2
            self.models[policy] = (doc, path, cfg, evals)
        self.images = eit.data.generate_synthetic(self.N_IMAGES, 8, s_data).images
        self.codes = {}

    def _out(self, policy):
        return os.path.join(self.dir, f"gradcheck-{policy}")

    def round(self):
        secs = {}
        for policy, (_, path, _, _) in self.models.items():
            t0 = time.perf_counter()
            with quiet():
                code, ok = self.op(eit.cli.main, [
                    "gradcheck", "--config", path, "--seed", str(self.gc_seed),
                    "--out", self._out(policy)])
            self.codes[policy] = code
            if ok:
                secs[policy] = time.perf_counter() - t0
        out = {f"gradcheck.evals_per_s[{p}]": self.models[p][3] / t
               for p, t in secs.items()}
        if len(secs) == len(self.POLICIES):
            out["work_per_s"] = sum(m[3] for m in self.models.values()) \
                / sum(secs.values())
        return out

    def check(self):
        for policy, (doc, _, cfg, _) in self.models.items():
            report = checks.read_json(os.path.join(self._out(policy),
                                                   "gradcheck.json"))
            names = [name for name, *_ in eit.model.param_shapes(cfg)]
            checks.gradcheck_report(self.codes[policy], report, names)
            params = eit.model.init_params(cfg, self.gc_seed)
            got = eit.model.forward(self.images, params, cfg).data
            want = reference.forward({k: p.data for k, p in params.items()}, doc,
                                     self.images)[0]
            checks.close(f"MICRO {policy} logits", got, want, checks.LOGIT_RTOL)

    def traced(self, ix, since):
        med = tracing.median
        out = {}
        for policy, (_, _, cfg, evals) in self.models.items():
            fwd = [i for i in ix.named("model.forward", since)
                   if ix.spans[i][5][0] == policy]
            runs = [g for g in ix.named("gradcheck.gradcheck", since)
                    if ix.spans[ix.within(g, "model.forward")[0]][5][0] == policy]
            figures = forward_metrics(ix, fwd, cfg, 1)
            bwd = [ix.total_within(g, "tensor.backward") for g in runs]
            figures["gradcheck.backward_ms"] = 1e3 * med(bwd)
            figures["gradcheck.eval_ms"] = 1e3 * med(
                (ix.dur(g) - b) / evals for g, b in zip(runs, bwd))
            out.update(suffixed(figures, policy, self.POLICIES[0]))
        commands = ix.named("cli.main", since)
        out["cli.main_s"] = med(ix.dur(c) for c in commands)
        out["cli.self_s"] = med(ix.self_time(c) for c in commands)
        out["data.generate_synthetic_s"] = med(
            ix.dur(i) for i in ix.named("data.generate_synthetic", until=since))
        cfg = self.models[self.POLICIES[0]][2]
        params = eit.model.init_params(cfg, self.gc_seed)
        out.update(graph_stats(lambda: eit.train.cross_entropy(
            eit.model.forward(self.images[:1], params, cfg), np.array([0]))))
        return out


WORKLOADS = {w.name: w for w in (TrainSmall, ProbeSmall, GradcheckMicro)}
NAMES = list(WORKLOADS)

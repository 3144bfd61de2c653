"""Seeded inputs, the timed operation and the checks of each workload.

A workload has ``setup(shape, seed, workdir) -> state``, ``op(state, i)``
(the timed unit of work a user waits on) and ``check(state, result)``
(untimed, returns error strings). Library calls go through module
attributes (``ev_model.forward``) so the traced run can rebind them.
"""

from __future__ import annotations

import contextlib
import io
import time

import numpy as np

import evidnet.belief as ev_belief
import evidnet.cli as ev_cli
import evidnet.dataio as ev_dataio
import evidnet.model as ev_model
import evidnet.training as ev_training

import checks

LATENT_DIM = 8
CLUSTER_SPREAD = 4.0
FEATURE_NOISE = 0.3
# The classes are separable (a nearest-mean oracle scores 0.998-1.0), but
# which k-means optimum init_model lands in leaves a trained model at
# 0.84-1.0 held-out accuracy across seeds; chance is 0.5.
ACCURACY_FLOOR = 0.75


class Mixture:
    """Well-separated Gaussian clusters in a latent space, embedded in d dims.

    Cluster c carries class c % k. One cluster per prototype keeps the
    number of k-means rounds in init_model nearly the same for every
    seed, so every seed asks for the same amount of work.
    """

    def __init__(self, rng, clusters: int, k: int, d: int):
        self.k = k
        self.means = CLUSTER_SPREAD * rng.standard_normal((clusters, LATENT_DIM))
        self.embedding = rng.standard_normal((LATENT_DIM, d))

    def sample(self, rng, n: int) -> tuple[np.ndarray, np.ndarray]:
        """n rows with balanced clusters in shuffled order, plus their labels."""
        cluster = rng.permutation(np.arange(n) % len(self.means))
        latent = self.means[cluster] + rng.standard_normal((n, LATENT_DIM))
        noise = FEATURE_NOISE * rng.standard_normal((n, self.embedding.shape[1]))
        return latent @ self.embedding + noise, cluster % self.k


def _class_names(k: int) -> tuple[str, ...]:
    return ("positive", "negative") if k == 2 else tuple(f"c{j}" for j in range(k))


def _dataset(x, y, k: int, unlabeled_fraction: float = 0.0, rng=None):
    labels = [int(v) for v in y]
    if unlabeled_fraction:
        hidden = rng.choice(len(labels), size=int(unlabeled_fraction * len(labels)), replace=False)
        for i in hidden:
            labels[i] = None
    return ev_dataio.FeatureDataset(features=x, labels=labels, class_names=_class_names(k))


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def _cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = ev_cli.main(argv)
    return rc, out.getvalue()


class Workload:
    name = ""
    shapes: dict = {}

    def setup(self, shape: dict, seed: int, workdir):
        raise NotImplementedError

    def op(self, state, i: int):
        raise NotImplementedError

    def check(self, state, result) -> list[str]:
        raise NotImplementedError

    def probes(self, state):
        """(model, X) for the forward_batch memory probe and
        (model, Batch, TrainConfig) for the loss/gradient probe, or None."""
        return None, None

    def parts(self, result) -> dict:
        """Named sub-timings (seconds) of one operation."""
        return {}

    def headline(self, seconds: list[float], parts: dict) -> dict:
        """The workload's user-facing figures (calibrated), named as in the README."""
        raise NotImplementedError


class TrainMinibatch(Workload):
    name = "train-minibatch"
    shapes = {
        "full": dict(n_train=4000, n_val=1000, n_test=1000, d=64, r=16, h=32, t=2, batch=32, epochs=8),
        "tiny": dict(n_train=120, n_val=40, n_test=60, d=8, r=3, h=4, t=2, batch=32, epochs=2),
    }

    def setup(self, shape, seed, workdir):
        rng = np.random.default_rng(seed)
        mix = Mixture(rng, shape["r"], 2, shape["d"])
        train_ds = _dataset(*mix.sample(rng, shape["n_train"]), 2, 0.5, rng)
        val_ds = _dataset(*mix.sample(rng, shape["n_val"]), 2)
        x_test, y_test = mix.sample(rng, shape["n_test"])
        ev_dataio.write_csv(train_ds, workdir / "train.csv")
        ev_dataio.write_csv(val_ds, workdir / "val.csv")
        return dict(shape=shape, seed=seed, workdir=workdir, train_ds=train_ds, val_ds=val_ds,
                    x_test=x_test, y_test=y_test)

    def op(self, state, i):
        shape, wd = state["shape"], state["workdir"]
        epochs = str(shape["epochs"])
        return _cli([
            "train", "--train", str(wd / "train.csv"), "--val", str(wd / "val.csv"),
            "--out", str(wd / "model.json"), "--prototypes", str(shape["r"]),
            "--hidden", str(shape["h"]), "--t-perturb", str(shape["t"]),
            "--batch", str(shape["batch"]), "--max-epochs", epochs, "--patience", epochs,
            "--seed", str(state["seed"]),
        ])

    def check(self, state, result):
        rc, stdout = result
        errors = checks.check_train_output(rc, stdout, state["shape"]["epochs"])
        if rc != 0:
            return errors
        path = state["workdir"] / "model.json"
        sha = checks.sha256_of(path)
        names = [_class_names(2)[y] for y in state["y_test"]]
        errors += checks.check_model_file(path, state["x_test"], names, ACCURACY_FLOOR)
        first = state.setdefault("model_sha256", sha)
        if sha != first:
            errors.append(f"model sha256 {sha} differs from the run's first {first}")
        return errors

    def probes(self, state):
        model = ev_dataio.load_model(state["workdir"] / "model.json")
        return (model, state["val_ds"].features), self._probe_batch(state, model)

    def _probe_batch(self, state, model):
        shape = state["shape"]
        rng = np.random.default_rng(0)
        train_ds = state["train_ds"]
        lab = [i for i, v in enumerate(train_ds.labels) if v is not None][: shape["batch"]]
        unl = [i for i, v in enumerate(train_ds.labels) if v is None][: shape["batch"]]
        x = train_ds.features
        batch = ev_training.Batch(
            labeled=[(x[i], 1 if train_ds.labels[i] == 0 else 0) for i in lab],
            unlabeled=[
                (x[i], [x[i] + 0.1 * rng.standard_normal(x.shape[1]) for _ in range(shape["t"])])
                for i in unl
            ],
        )
        return model, batch, ev_training.TrainConfig(t_perturb=shape["t"], batch_size=shape["batch"])

    def headline(self, seconds, parts):
        return {"train_s": _median(seconds)}


class ScoreCsv(Workload):
    name = "score-csv"
    shapes = {
        "full": dict(n_test=5000, n_fit=2000, d=128, r=32, h=64),
        "tiny": dict(n_test=80, n_fit=60, d=8, r=3, h=4),
    }

    def setup(self, shape, seed, workdir):
        rng = np.random.default_rng(seed)
        mix = Mixture(rng, shape["r"], 2, shape["d"])
        x_fit, y_fit = mix.sample(rng, shape["n_fit"])
        model = ev_model.init_model(
            ev_model.ModelConfig(d_in=shape["d"], r=shape["r"], h=shape["h"], k=2),
            x_fit, y_fit, seed=seed, class_names=_class_names(2),
        )
        ev_dataio.save_model(model, workdir / "model.json")
        x, y = mix.sample(rng, shape["n_test"])
        ev_dataio.write_csv(_dataset(x, y, 2), workdir / "test.csv")
        return dict(shape=shape, workdir=workdir, model=model, x_test=x, y_test=[int(v) for v in y])

    def op(self, state, i):
        wd = state["workdir"]
        model, data, preds = str(wd / "model.json"), str(wd / "test.csv"), str(wd / "preds.csv")
        t0 = time.process_time()
        evaluated = _cli(["evaluate", "--model", model, "--data", data])
        t1 = time.process_time()
        predicted = _cli(["predict", "--model", model, "--data", data, "--out", preds])
        t2 = time.process_time()
        return evaluated, predicted, {"evaluate_s": t1 - t0, "predict_s": t2 - t1}

    def check(self, state, result):
        (rc_e, out_e), (rc_p, out_p), _ = result
        n = state["shape"]["n_test"]
        if rc_p != 0 or f"rows={n}" not in out_p:
            return [f"predict exited {rc_p} with {out_p!r}"]
        errors, decisions = checks.check_predictions(
            state["workdir"] / "preds.csv", list(_class_names(2)), n)
        return errors + checks.check_evaluate_output(rc_e, out_e, decisions, state["y_test"])

    def probes(self, state):
        return (state["model"], state["x_test"]), None

    def parts(self, result) -> dict:
        return result[2]

    def headline(self, seconds, parts):
        return {name: _median(values) for name, values in parts.items()}


class ExplainOnline(Workload):
    name = "explain-online"
    shapes = {
        "full": dict(n_fit=1000, n_rows=2000, d=64, r=16, h=16, k=4, models=4),
        "tiny": dict(n_fit=40, n_rows=20, d=8, r=3, h=4, k=4, models=4),
    }

    def setup(self, shape, seed, workdir):
        rng = np.random.default_rng(seed)
        k = shape["k"]
        mix = Mixture(rng, shape["r"], k, shape["d"])
        cfg = ev_model.ModelConfig(d_in=shape["d"], r=shape["r"], h=shape["h"], k=k)
        models = []
        for j, model_seed in enumerate(rng.integers(2**31, size=shape["models"])):
            x_fit, y_fit = mix.sample(rng, shape["n_fit"])
            fitted = ev_model.init_model(cfg, x_fit, y_fit, seed=int(model_seed),
                                         class_names=_class_names(k))
            path = workdir / f"model{j}.json"
            ev_dataio.save_model(fitted, path)
            models.append(ev_dataio.load_model(path))
        rows, _ = mix.sample(rng, shape["n_rows"])
        return dict(shape=shape, models=models, rows=rows)

    def op(self, state, i):
        row = state["rows"][i % len(state["rows"])]
        masses = [ev_model.forward(m, row).mass for m in state["models"]]
        fused = ev_belief.combine_all(masses)
        pls = [ev_belief.pl(fused, 1 << j) for j in range(state["shape"]["k"])]
        return masses, fused, pls, ev_belief.conflict(masses[0], masses[1])

    def check(self, state, result):
        return checks.check_explanation(*result, state["shape"]["k"])

    def headline(self, seconds, parts):
        ms = sorted(1e3 * v for v in seconds)
        out = {"explain_ms_p50": _median(ms), "samples": len(ms)}
        # p99 needs at least ten samples beyond it
        if len(ms) >= 1000:
            out["explain_ms_p99"] = float(np.percentile(ms, 99))
        return out


WORKLOADS = {w.name: w for w in (TrainMinibatch(), ScoreCsv(), ExplainOnline())}

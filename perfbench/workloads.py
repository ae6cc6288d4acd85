"""The four benchmark workloads: inputs made from a seed, one operation
per ``serve`` call, and the checks on every output.

Each workload has two halves.  ``make_inputs`` runs in the set-up
process (see setup_inputs.py): it generates the inputs from the seed and
writes them to a directory.  ``runner`` runs in the measured process: it
loads those files and returns a Runner whose ``serve`` is the timed
operation.  Why each workload exists, and what it is sized to expose, is
in README.md.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

from srlssvm import cli, data, kernels, model, solver

DATASETS = "datasets.npz"


def _sub_seed(seed: int, k: int) -> int:
    return seed * 1000 + k


def _class_dataset(m_train, m_test, l, noise, seed):
    """Labels are the sign of the package's smooth synthetic target."""
    train, test = data.make_synthetic_regression(m_train, m_test, n_features=l,
                                                 noise=noise, seed=seed)

    def to_class(d):
        if d is None:
            return None
        return data.Dataset(d.features, np.where(d.targets >= 0.0, 1.0, -1.0),
                            data.CLASSIFICATION)
    return to_class(train), to_class(test)


def _save_sets(out_dir: Path, sets: dict) -> None:
    # uncompressed and key-sorted, so equal inputs give equal bytes
    np.savez(out_dir / DATASETS, **dict(sorted(sets.items())))


class Runner:
    """Measured half of a workload.

    ``request(i)`` builds operation i's input (untimed), ``serve`` is the
    timed call into the program, ``check`` returns a list of failed output
    checks (untimed) and ``rows`` the rows the operation handled.
    ``cycle`` is the number of distinct inputs operations cycle through.
    """

    cycle = 1

    def request(self, i: int):
        return i

    def serve(self, req):
        raise NotImplementedError

    def check(self, req, result) -> list[str]:
        return []

    def rows(self, req) -> int:
        raise NotImplementedError

    def quality(self) -> float:
        raise NotImplementedError


class _FitRunner(Runner):
    """Cycles fits over the K training sets; checks that refitting a set
    gives bit-identical coefficients and the same test score."""

    def __init__(self, workload, in_dir: Path):
        z = self.inputs = dict(np.load(in_dir / DATASETS))
        self.w = workload
        self.task = workload.task
        self.train = [data.Dataset(z[f"X{k}"], z[f"y{k}"], self.task)
                      for k in range(workload.n_sets)]
        self.test = [data.Dataset(z[f"Xt{k}"], z[f"yt{k}"], self.task)
                     for k in range(workload.n_sets)]
        self.first: dict[int, tuple] = {}
        self.cycle = workload.n_sets

    def request(self, i):
        return i % self.cycle

    def rows(self, k):
        return self.train[k].m

    def serve(self, k):
        fit, report = self.w.fit(self.train[k])
        return fit, report, model.evaluate(fit, self.test[k])

    def check(self, k, result):
        fit, report, ev = result
        # regression scores as R^2 = 1 - rmse^2 / var(y), so higher is better
        score = ev.accuracy if self.task == data.CLASSIFICATION else \
            1.0 - ev.rmse ** 2 / float(np.var(self.test[k].targets))
        out = (fit.alpha.tobytes(), fit.b, score, report.converged)
        failures = []
        if k not in self.first:
            self.first[k] = out
            failures += self.w.score_failures(k, score, ev, self.inputs)
        elif out != self.first[k]:
            failures.append(f"refit of training set {k} is not bit-identical")
        return failures

    def quality(self):
        return float(np.mean([v[2] for v in self.first.values()]))


class FitClass:
    """Repeated ``solver.train`` plus ``model.evaluate`` on Gaussian-kernel
    classification data with 10% planted label outliers."""

    name = "fit_class"
    task = data.CLASSIFICATION
    m, m_test, l, noise = 10000, 2000, 16, 0.3
    rank, ref_rank = 256, 64
    spec = kernels.KernelSpec("gaussian", 0.1)
    config = solver.SolverConfig(lambda_m=1e-3, tau=1.5, rank_r=rank)
    n_sets = 2
    accuracy_floor = 0.85

    def make_inputs(self, out_dir: Path, seed: int) -> None:
        sets = {}
        for k in range(self.n_sets):
            train, test = _class_dataset(self.m, self.m_test, self.l, self.noise,
                                         _sub_seed(seed, k))
            ref_config = solver.SolverConfig(lambda_m=self.config.lambda_m,
                                             tau=self.config.tau, rank_r=self.ref_rank)
            reference, _ = solver.train_lssvm(train, self.spec, ref_config)
            corrupted, _ = data.inject_label_outliers(train, reference=reference,
                                                      seed=_sub_seed(seed, k))
            sets.update({f"X{k}": corrupted.features, f"y{k}": corrupted.targets,
                         f"Xt{k}": test.features, f"yt{k}": test.targets})
        _save_sets(out_dir, sets)

    def fit(self, train):
        return solver.train(train, self.spec, self.config)

    def score_failures(self, k, score, ev, inputs):
        if score < self.accuracy_floor:
            return [f"test accuracy {score:.4f} below floor {self.accuracy_floor}"]
        return []

    def runner(self, in_dir: Path, seed: int) -> Runner:
        return _FitRunner(self, in_dir)

    def working_set_bytes(self) -> dict:
        return {"factor_P": 8 * self.m * self.rank,
                "evaluate_gram_temporary": 8 * self.m_test * self.rank * self.l}


class AnnealReg:
    """Repeated ``solver.train_annealed`` plus ``model.evaluate`` on
    regression data where 15% of the targets carry a gross N(0, 3^2) shift."""

    name = "anneal_reg"
    task = data.REGRESSION
    m, m_test, l, noise = 15000, 2000, 4, 0.1
    outlier_rate, outlier_sd = 0.15, 3.0
    rank = 128
    spec = kernels.KernelSpec("gaussian", 1.0)
    config = solver.SolverConfig(lambda_m=1e-3, tau=1.0, rank_r=rank, epsilon=2e-3,
                                 anneal=solver.AnnealSchedule(delta=0.8, tau_min=0.3))
    # the CCCP step count of a single set varies by about 10% between seeds
    n_sets = 4
    rmse_ceiling = 0.125

    def make_inputs(self, out_dir: Path, seed: int) -> None:
        sets = {}
        for k in range(self.n_sets):
            sub = _sub_seed(seed, k)
            train, test = data.make_synthetic_regression(
                self.m, self.m_test, n_features=self.l, noise=self.noise, seed=sub)
            rng = np.random.default_rng([sub, 1])
            idx = rng.choice(self.m, size=int(self.outlier_rate * self.m), replace=False)
            y = train.targets.copy()
            y[idx] += rng.normal(0.0, self.outlier_sd, size=idx.size)
            corrupted = data.Dataset(train.features, y, data.REGRESSION)
            # the plain LSSVM on the same factor is the robustness baseline
            plain, _ = solver.train_lssvm(corrupted, self.spec, self.config)
            sets.update({f"X{k}": train.features, f"y{k}": y,
                         f"Xt{k}": test.features, f"yt{k}": test.targets,
                         f"plain_rmse{k}": np.array(model.evaluate(plain, test).rmse)})
        _save_sets(out_dir, sets)

    def fit(self, train):
        return solver.train_annealed(train, self.spec, self.config)

    def score_failures(self, k, score, ev, inputs):
        failures = []
        if ev.rmse > self.rmse_ceiling:
            failures.append(f"test rmse {ev.rmse:.4f} above ceiling {self.rmse_ceiling}")
        plain = float(inputs[f"plain_rmse{k}"])
        if not ev.rmse < plain:
            failures.append(f"robust test rmse {ev.rmse:.4f} does not beat plain "
                            f"LSSVM {plain:.4f}")
        return failures

    def runner(self, in_dir: Path, seed: int) -> Runner:
        return _FitRunner(self, in_dir)

    def working_set_bytes(self) -> dict:
        return {"factor_P": 8 * self.m * self.rank,
                "evaluate_gram_temporary": 8 * self.m_test * self.rank * self.l}


class GridsearchCV:
    """Repeated in-process ``cli.main(["gridsearch", ...])`` on a sparse
    text file: 2 sigma x 3 mlambda x 2 tau x 5 folds = 60 fits."""

    name = "gridsearch_cv"
    task = data.CLASSIFICATION
    m, l, noise = 4000, 8, 0.3
    rank, folds = 64, 5
    sigmas = (0.1, 0.2)
    mlambdas = "1e-3,1e-2,1e-1"
    taus = "1.0,1.5"
    accuracy_floor = 0.8

    def make_inputs(self, out_dir: Path, seed: int) -> None:
        train, _ = _class_dataset(self.m, 0, self.l, self.noise, _sub_seed(seed, 0))
        data.save_sparse_text(train, out_dir / "train.txt")
        # --sigma is declared type=float, so a sigma list must come from --config
        (out_dir / "grid.json").write_text(json.dumps({"sigma": list(self.sigmas)}))

    def runner(self, in_dir: Path, seed: int) -> Runner:
        return _GridRunner(self, in_dir, seed)

    def working_set_bytes(self) -> dict:
        m_fit = self.m - self.m // self.folds
        return {"factor_P": 8 * m_fit * self.rank,
                "evaluate_gram_temporary": 8 * (self.m // self.folds) * self.rank * self.l}


class _GridRunner(Runner):
    def __init__(self, w: GridsearchCV, in_dir: Path, seed: int):
        self.w = w
        self.out = in_dir / "grid_out.json"
        self.argv = ["gridsearch", "--config", str(in_dir / "grid.json"),
                     "--data", str(in_dir / "train.txt"), "--task", "class",
                     "--kernel", "gaussian", "--mlambda", w.mlambdas, "--tau", w.taus,
                     "--rank", str(w.rank), "--folds", str(w.folds),
                     "--seed", str(seed), "--out", str(self.out)]
        self.first: bytes | None = None
        self.cv_accuracy = 0.0

    def rows(self, req):
        return self.w.m

    def serve(self, req):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(self.argv)

    def check(self, req, code):
        if code != 0:
            return [f"gridsearch exited {code}"]
        stable = cli.stable_report_bytes(self.out)
        if self.first is None:
            self.first = stable
            self.cv_accuracy = json.loads(stable)["chosen"]["accuracy_mean"]
            if self.cv_accuracy < self.w.accuracy_floor:
                return [f"cv accuracy {self.cv_accuracy:.4f} below floor "
                        f"{self.w.accuracy_floor}"]
        elif stable != self.first:
            return ["gridsearch report differs between repeats"]
        return []

    def quality(self):
        return self.cv_accuracy


class PredictServe:
    """One closed-loop caller sending ``model.predict_raw`` batches of 1-256
    rows (log-uniform sizes) to a model trained and saved in set-up."""

    name = "predict_serve"
    task = data.CLASSIFICATION
    m, pool, l, noise = 8000, 4096, 16, 0.3
    rank = 256
    max_batch = 256
    spec = kernels.KernelSpec("gaussian", 0.1)
    config = solver.SolverConfig(lambda_m=1e-3, tau=1.5, rank_r=rank)
    accuracy_floor = 0.85

    def make_inputs(self, out_dir: Path, seed: int) -> None:
        train, pool = _class_dataset(self.m, self.pool, self.l, self.noise,
                                     _sub_seed(seed, 0))
        fitted, _ = solver.train(train, self.spec, self.config)
        path = out_dir / "model.json"
        model.save(fitted, path)
        loaded = model.load(path)
        if not np.array_equal(model.predict_raw(loaded, pool.features),
                              model.predict_raw(fitted, pool.features)):
            raise RuntimeError("saved model does not reproduce its predictions")
        _save_sets(out_dir, {"pool": pool.features, "labels": pool.targets,
                             "reference": _reference_predictions(loaded, pool.features)})

    def runner(self, in_dir: Path, seed: int) -> Runner:
        return _PredictRunner(self, in_dir, seed)

    def working_set_bytes(self) -> dict:
        return {"model_landmarks": 8 * self.rank * self.l,
                "max_batch_gram_temporary": 8 * self.max_batch * self.rank * self.l}


def _reference_predictions(fitted: model.Model, X) -> np.ndarray:
    """Gaussian-kernel decision values one landmark at a time, independent
    of ``kernels.gram``, so a consistent error in the read path shows."""
    f = np.full(len(X), fitted.b)
    for a, z in zip(fitted.alpha, fitted.landmarks):
        d = X - z
        f += a * np.exp(-fitted.kernel.sigma * np.einsum("ij,ij->i", d, d))
    return f


class _PredictRunner(Runner):
    def __init__(self, w: PredictServe, in_dir: Path, seed: int):
        z = np.load(in_dir / DATASETS)
        self.pool, self.labels, self.reference = z["pool"], z["labels"], z["reference"]
        self.model = model.load(in_dir / "model.json")
        self.tol = 1e-12 * (np.abs(self.model.alpha).sum() + abs(self.model.b))
        self.rng = np.random.default_rng([seed, 2])
        self.log_max = np.log2(w.max_batch + 1)
        self.served = 0
        self.correct = 0

    def request(self, i):
        size = int(2.0 ** self.rng.uniform(0.0, self.log_max))
        idx = self.rng.integers(0, len(self.pool), size=size)
        return idx, self.pool[idx]

    def rows(self, req):
        return len(req[0])

    def serve(self, req):
        return model.predict_raw(self.model, req[1])

    def check(self, req, f):
        idx = req[0]
        ref = self.reference[idx]
        if f.shape != ref.shape or not (np.abs(f - ref) <= self.tol).all():
            return ["served predictions differ from the set-up reference"]
        self.served += len(idx)
        self.correct += int(np.count_nonzero(np.where(f >= 0, 1.0, -1.0) == self.labels[idx]))
        return []

    def quality(self):
        return self.correct / self.served if self.served else 0.0


WORKLOADS = {w.name: w for w in (FitClass(), AnnealReg(), GridsearchCV(), PredictServe())}

"""Command-line front end: train, predict, eval, gridsearch, and bench.

Exit codes: 0 success (a warned non-convergence still exits 0), 2 usage
error, 3 data error, 4 numerical error.  All outputs are deterministic
for a fixed config and seed, except wall-clock fields, which live under
'timing' keys (and the top-level 'timestamp') so they can be excluded
when comparing runs; see :func:`stable_report_bytes`.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
import tomllib
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import data as data_mod
from .data import CLASSIFICATION, REGRESSION, Dataset
from .errors import DataFormatError, InvalidInputError, NumericalError
from .kernels import GAUSSIAN, LINEAR, KernelSpec
from .model import evaluate, load, predict_class, predict_raw, save
from .solver import AnnealSchedule, SolverConfig, train, train_lssvm

TASK_ALIASES = {"class": CLASSIFICATION, "reg": REGRESSION,
                CLASSIFICATION: CLASSIFICATION, REGRESSION: REGRESSION}

VOLATILE_KEYS = ("timestamp", "timing")


def stable_report_bytes(doc) -> bytes:
    """Canonical JSON bytes of a report with volatile timing fields removed.

    Two runs with identical config and seed produce identical stable bytes.
    """
    if isinstance(doc, (str, Path)):
        with open(doc) as fh:
            doc = json.load(fh)

    def strip(node):
        if isinstance(node, dict):
            return {k: strip(v) for k, v in node.items() if k not in VOLATILE_KEYS}
        if isinstance(node, list):
            return [strip(v) for v in node]
        return node

    return (json.dumps(strip(doc), sort_keys=True, indent=2) + "\n").encode()


def _workers() -> int:
    """Worker threads for gridsearch and bench: SRLSSVM_THREADS, default 1."""
    value = os.environ.get("SRLSSVM_THREADS", "1")
    if not value.isdecimal() or int(value) < 1:
        raise InvalidInputError(f"SRLSSVM_THREADS must be a positive integer, got {value!r}")
    return int(value)


def _load_config_file(path: str) -> dict:
    """JSON or TOML config."""
    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"bad JSON config: {exc.msg}", offset=exc.pos)
    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise DataFormatError(f"bad TOML config: {exc}")


def _merge_config(args: argparse.Namespace, options: tuple[str, ...]) -> None:
    """Fill unset options from --config, whose keys must be ``options``; flags win."""
    if args.config:
        for key, val in _load_config_file(args.config).items():
            attr = key.replace("-", "_")
            if attr == "config" or attr.replace("_", "-") not in options:
                raise InvalidInputError(f"--config key {key!r} is not a {args.subcommand} option")
            if getattr(args, attr) is None:
                setattr(args, attr, val)


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise InvalidInputError(f"missing required option --{name.replace('_', '-')}")


def _number(value, option: str, kind=float, default=None):
    """One flag or --config value as a number; a bad value is a usage error.

    A --config value is converted from its text like a flag: ``rank = 2.5``
    and ``mlambda = true`` fail as ``--rank 2.5`` does.
    """
    if value is None:
        return default
    try:
        return kind(str(value))
    except ValueError:
        wanted = "an integer" if kind is int else "a number"
        raise InvalidInputError(f"--{option} must be {wanted}, got {value!r}") from None


def _csv_format(args) -> bool:
    """True for ``--format csv``, False for json, the default; flag or --config alike."""
    fmt = "json" if args.format is None else str(args.format)
    if fmt not in ("json", "csv"):
        raise InvalidInputError(f"--format must be json or csv, got {fmt!r}")
    return fmt == "csv"


def _task(args) -> str:
    name = str(args.task)
    if name not in TASK_ALIASES:
        raise InvalidInputError(f"unknown task {name!r}; use class or reg")
    return TASK_ALIASES[name]


def _kernel(args) -> KernelSpec:
    family = str(args.kernel)
    if family == GAUSSIAN:
        if args.sigma is None:
            raise InvalidInputError("gaussian kernel requires --sigma")
        return KernelSpec(GAUSSIAN, _number(args.sigma, "sigma"))
    if family == LINEAR:
        return KernelSpec(LINEAR)
    raise InvalidInputError(f"unknown kernel {family!r}")


def _solver_config(args, *, tau=None, mlambda=None, anneal=None) -> SolverConfig:
    return SolverConfig(
        lambda_m=mlambda if mlambda is not None else _number(args.mlambda, "mlambda"),
        tau=tau if tau is not None else _number(args.tau, "tau"),
        rank_r=_number(args.rank, "rank", int),
        p=_number(args.p, "p", default=1e4),
        epsilon=_number(args.epsilon, "epsilon", default=1e-2),
        max_iter=_number(args.max_iter, "max-iter", int, 200),
        anneal=anneal,
    )


def _read_dataset(path: str, task: str) -> Dataset:
    if not Path(path).exists():
        raise DataFormatError(f"dataset file not found: {path}")
    return data_mod.parse_sparse_text(path, task)


def _pad_features(dataset: Dataset, width: int) -> Dataset:
    """Zero-pad columns when a sparse file omits the highest feature indices."""
    if dataset.l == width:
        return dataset
    if dataset.l > width:
        raise InvalidInputError(
            f"data has {dataset.l} features but the model expects {width}")
    X = np.zeros((dataset.m, width))
    X[:, :dataset.l] = dataset.features
    return Dataset(X, dataset.targets, dataset.task, dataset.meta)


def _float_list(value, option: str) -> list[float]:
    """A comma-separated flag, or a --config number or list, as floats."""
    if value is None:
        return []
    if isinstance(value, str):
        value = [tok for tok in value.split(",") if tok.strip()]
    elif not isinstance(value, (list, tuple)):
        value = [value]
    return [_number(v, option) for v in value]


def _write_json(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def fmt_mean_std(mean: float, std: float, nd: int = 2) -> str:
    """Table-style 'mean(std)' text, e.g. '0.03(0.00)'."""
    return f"{mean:.{nd}f}({std:.{nd}f})"


# ---------------------------------------------------------------- train

def run_train(args) -> int:
    _require(args, "data", "task", "kernel", "mlambda", "tau", "rank", "out")
    task = _task(args)
    spec = _kernel(args)
    anneal = None
    delta = _number(args.anneal_delta, "anneal-delta")
    tau_min = _number(args.tau_min, "tau-min")
    if delta is not None or tau_min is not None:
        if delta is None or tau_min is None:
            raise InvalidInputError("annealing needs both --anneal-delta and --tau-min")
        anneal = AnnealSchedule(delta, tau_min)
    config = _solver_config(args, anneal=anneal)
    dataset = _read_dataset(args.data, task)

    model, report = train(dataset, spec, config)
    save(model, args.out)

    doc = {"timestamp": _timestamp(), "n_sv": model.n_sv, **report.as_dict()}
    if args.test:
        ev = evaluate(model, _read_dataset(args.test, task))
        doc["eval"] = ev.as_dict()
    report_path = args.report or str(args.out) + ".report.json"
    _write_json(report_path, doc)

    metric = ""
    if "eval" in doc:
        key = "accuracy" if task == CLASSIFICATION else "rmse"
        metric = f"  test {key} {doc['eval'][key]:.4f}"
    flag = "" if report.converged else "  [warning: not converged]"
    print(f"trained: iterations {report.iterations}  "
          f"time {report.wall_time_ms:.1f} ms  n_sv {model.n_sv}{metric}{flag}")
    return 0


# -------------------------------------------------------------- predict

def run_predict(args) -> int:
    _require(args, "model", "data", "out")
    model = load(args.model)
    # labels are ignored when predicting, so parse leniently (dummy labels ok)
    dataset = _pad_features(_read_dataset(args.data, REGRESSION),
                            model.landmarks.shape[1])
    f = predict_raw(model, dataset.features)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        if model.task == CLASSIFICATION:
            writer.writerow(["raw", "label"])
            labels = predict_class(model, dataset.features)
            for fi, li in zip(f, labels):
                writer.writerow([repr(float(fi)), int(li)])
        else:
            writer.writerow(["prediction"])
            for fi in f:
                writer.writerow([repr(float(fi))])
    print(f"wrote {dataset.m} predictions to {args.out}")
    return 0


# ----------------------------------------------------------------- eval

def run_eval(args) -> int:
    _require(args, "model", "data")
    model = load(args.model)
    dataset = _pad_features(_read_dataset(args.data, model.task),
                            model.landmarks.shape[1])
    report = evaluate(model, dataset)
    doc = {"timestamp": _timestamp(), **report.as_dict()}
    if args.out:
        _write_json(args.out, doc)
    key = "accuracy" if model.task == CLASSIFICATION else "rmse"
    print(f"{key} {getattr(report, key):.6f}  n_sv {report.n_sv}")
    return 0


# ----------------------------------------------------------- gridsearch

def _fold_parts(m: int, folds: int, seed: int) -> list[np.ndarray]:
    perm = np.random.default_rng(seed).permutation(m)
    return [np.sort(part) for part in np.array_split(perm, folds)]


def run_gridsearch(args) -> int:
    _require(args, "data", "task", "kernel", "mlambda", "tau", "rank", "out")
    task = _task(args)
    family = str(args.kernel)
    mlambdas = _float_list(args.mlambda, "mlambda")
    taus = _float_list(args.tau, "tau")
    sigmas = _float_list(args.sigma, "sigma") if family == GAUSSIAN else [None]
    if not mlambdas or not taus or not sigmas:
        raise InvalidInputError("gridsearch needs nonempty --mlambda/--sigma/--tau grids")
    folds = _number(args.folds, "folds", int, 5)
    as_csv = _csv_format(args)
    seed = _number(args.seed, "seed", int, 0)
    workers = _workers()
    dataset = _read_dataset(args.data, task)
    if folds < 2 or folds > dataset.m:
        raise InvalidInputError(f"--folds must be in [2, m={dataset.m}]")

    parts = _fold_parts(dataset.m, folds, seed)
    usable: list[tuple[np.ndarray, np.ndarray]] = []
    skipped = 0
    for k, part in enumerate(parts):
        train_idx = np.sort(np.concatenate([p for i, p in enumerate(parts) if i != k]))
        if task == CLASSIFICATION and np.unique(dataset.targets[train_idx]).size < 2:
            print(f"warning: fold {k} has a single training class; skipped",
                  file=sys.stderr)
            skipped += 1
            continue
        usable.append((train_idx, part))
    if not usable:
        raise InvalidInputError("all cross-validation folds were skipped")

    grid = [(ml, sg, tv) for ml in sorted(mlambdas) for sg in sorted(
        sigmas, key=lambda s: (s is None, s)) for tv in sorted(taus)]

    def score_tuple(entry):
        ml, sg, tv = entry
        spec = KernelSpec(family, sg) if family == GAUSSIAN else KernelSpec(LINEAR)
        config = _solver_config(args, tau=tv, mlambda=ml)
        scores = []
        for train_idx, val_idx in usable:
            model, _ = train(dataset.take(train_idx), spec, config)
            ev = evaluate(model, dataset.take(val_idx))
            scores.append(ev.accuracy if task == CLASSIFICATION else ev.rmse)
        return entry, float(np.mean(scores)), float(np.std(scores))

    # pool.map keeps the grid's order, which is the report's
    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(score_tuple, grid))

    sign = 1.0 if task == CLASSIFICATION else -1.0
    # best score first; ties prefer larger mlambda, smaller sigma, larger tau
    best = max(results, key=lambda row: (sign * row[1], row[0][0],
                                         -(row[0][1] or 0.0), row[0][2]))
    metric = "accuracy" if task == CLASSIFICATION else "rmse"

    rows = [{"mlambda": ml, "sigma": sg, "tau": tv,
             f"{metric}_mean": mean, f"{metric}_std": std}
            for (ml, sg, tv), mean, std in results]
    chosen = {"mlambda": best[0][0], "sigma": best[0][1], "tau": best[0][2],
              f"{metric}_mean": best[1], f"{metric}_std": best[2]}
    if as_csv:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["mlambda", "sigma", "tau", metric])
            for (ml, sg, tv), mean, std in results:
                writer.writerow([ml, "" if sg is None else sg, tv,
                                 fmt_mean_std(mean, std, 4)])
    else:
        _write_json(args.out, {"grid": rows, "chosen": chosen,
                               "folds_used": len(usable), "folds_skipped": skipped})
    print(f"best: mlambda {chosen['mlambda']} sigma {chosen['sigma']} "
          f"tau {chosen['tau']}  {metric} {best[1]:.4f}")
    return 0


# ---------------------------------------------------------------- bench

METHODS = {"srlssvm": train, "lssvm": train_lssvm}


def run_bench(args) -> int:
    _require(args, "data", "task", "kernel", "mlambda", "tau", "rank", "out")
    task = _task(args)
    spec = _kernel(args)
    config = _solver_config(args)
    repeats = _number(args.repeats, "repeats", int, 10)
    if repeats < 1:
        raise InvalidInputError("--repeats must be >= 1")
    rate = _number(args.outlier_rate, "outlier-rate", default=0.10)
    as_csv = _csv_format(args)
    seed = _number(args.seed, "seed", int, 0)
    workers = _workers()
    methods = [m.strip() for m in str(args.methods or "srlssvm").split(",") if m.strip()]
    for name in methods:
        if name not in METHODS:
            raise InvalidInputError(f"unknown method {name!r}; choose from {sorted(METHODS)}")

    clean_train = _read_dataset(args.data, task)
    if args.test:
        test_set = _read_dataset(args.test, task)
    else:
        clean_train, test_set = data_mod.split(clean_train, 2.0 / 3.0, seed)

    reference = None
    if task == CLASSIFICATION and rate > 0:
        reference, _ = train_lssvm(clean_train, spec, config)

    def one_trial(rep: int):
        trial_seed = seed + rep
        if rate > 0:
            if task == CLASSIFICATION:
                corrupted, _ = data_mod.inject_label_outliers(
                    clean_train, rate_pool=3.0 * rate, flip_fraction=1.0 / 3.0,
                    reference=reference, seed=trial_seed)
            else:
                corrupted, _ = data_mod.inject_target_noise(
                    clean_train, rate=rate, seed=trial_seed)
        else:
            corrupted = clean_train
        out = {}
        for name in methods:
            t0 = time.perf_counter()
            model, report = METHODS[name](corrupted, spec, config)
            elapsed = time.perf_counter() - t0
            ev = evaluate(model, test_set)
            out[name] = {
                "metric": ev.accuracy if task == CLASSIFICATION else ev.rmse,
                "time_s": elapsed,
                "iterations": report.iterations,
                "n_sv": model.n_sv,
            }
        return out

    with ThreadPoolExecutor(max_workers=workers) as pool:
        trials = list(pool.map(one_trial, range(repeats)))

    metric = "accuracy" if task == CLASSIFICATION else "rmse"
    rows = []
    for name in sorted(methods):
        series = {key: np.array([out[name][key] for out in trials])
                  for key in ("metric", "time_s", "iterations", "n_sv")}
        rows.append({
            "method": name,
            "mlambda": config.lambda_m,
            "sigma": spec.sigma,
            "tau": config.tau,
            "repeats": repeats,
            f"{metric}_mean": float(series["metric"].mean()),
            f"{metric}_std": float(series["metric"].std()),
            "time_s_mean": float(series["time_s"].mean()),
            "time_s_std": float(series["time_s"].std()),
            "iterations_mean": float(series["iterations"].mean()),
            "iterations_std": float(series["iterations"].std()),
            "n_sv_mean": float(series["n_sv"].mean()),
            "n_sv_std": float(series["n_sv"].std()),
        })

    if as_csv:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["method", "mlambda", "sigma", "tau", "iterations",
                             "time_s", "n_sv", metric])
            for row in rows:
                writer.writerow([
                    row["method"], row["mlambda"],
                    "" if row["sigma"] is None else row["sigma"], row["tau"],
                    fmt_mean_std(row["iterations_mean"], row["iterations_std"], 1),
                    fmt_mean_std(row["time_s_mean"], row["time_s_std"], 2),
                    fmt_mean_std(row["n_sv_mean"], row["n_sv_std"], 1),
                    fmt_mean_std(row[f"{metric}_mean"], row[f"{metric}_std"], 4),
                ])
    else:
        _write_json(args.out, {"timestamp": _timestamp(), "rows": rows})
    for row in rows:
        print(f"{row['method']}: {metric} "
              f"{fmt_mean_std(row[f'{metric}_mean'], row[f'{metric}_std'], 4)}  "
              f"n_sv {fmt_mean_std(row['n_sv_mean'], row['n_sv_std'], 1)}")
    return 0


# ----------------------------------------------------------------- main

HELP = {
    "config": "JSON or TOML config file whose keys are options listed here; flags win",
    "data": "data file (sparse text format)",
    "test": "held-out data (sparse text format)",
    "task": "class or reg",
    "kernel": "gaussian or linear",
    "sigma": "gaussian kernel width (list allowed in gridsearch)",
    "mlambda": "regularization m*lambda (list allowed in gridsearch)",
    "tau": "truncation level (list allowed in gridsearch)",
    "p": "smoothing sharpness (default 1e4)",
    "epsilon": "stop threshold (default 1e-2)",
    "rank": "low-rank budget r",
    "max-iter": "iteration cap (default 200)",
    "seed": "random seed (default 0)",
    "out": "output path",
    "anneal-delta": "tau shrink factor in (0,1)",
    "tau-min": "annealing floor for tau",
    "report": "train report path (default <out>.report.json)",
    "folds": "CV folds (default 5)",
    "repeats": "number of seeded trials (default 10)",
    "outlier-rate": "net outlier rate (default 0.1)",
    "methods": "comma list from {srlssvm,lssvm}",
    "format": "json or csv (default json)",
    "model": "model file",
}

FIT = ("config", "data", "task", "kernel", "sigma", "mlambda", "tau", "p", "epsilon",
       "rank", "max-iter", "seed", "out")

# subcommand -> (help, handler, the only options it accepts)
SUBCOMMANDS = {
    "train": ("train a model", run_train, FIT + ("test", "anneal-delta", "tau-min", "report")),
    "predict": ("predict with a saved model", run_predict, ("config", "model", "data", "out")),
    "eval": ("evaluate a saved model", run_eval, ("config", "model", "data", "out")),
    "gridsearch": ("cross-validated grid search", run_gridsearch, FIT + ("folds", "format")),
    "bench": ("repeated outlier-injection benchmark", run_bench,
              FIT + ("test", "repeats", "outlier-rate", "methods", "format")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srlssvm",
        description="Sparse robust least-squares SVM training and evaluation")
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name, (text, _, options) in SUBCOMMANDS.items():
        sub = subs.add_parser(name, help=text)
        for option in options:
            sub.add_argument(f"--{option}", help=HELP[option])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _, run, options = SUBCOMMANDS[args.subcommand]
    try:
        _merge_config(args, options)
        return run(args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataFormatError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

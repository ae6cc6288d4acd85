import csv
import json

import numpy as np
import pytest

import srlssvm.cli as cli
from srlssvm import NumericalError, make_synthetic_linear, make_synthetic_regression
from srlssvm.data import save_sparse_text


@pytest.fixture
def class_files(tmp_path):
    train, test = make_synthetic_linear(60, 40, 4, seed=0)
    train_path = tmp_path / "train.txt"
    test_path = tmp_path / "test.txt"
    save_sparse_text(train, train_path)
    save_sparse_text(test, test_path)
    return str(train_path), str(test_path)


@pytest.fixture
def reg_files(tmp_path):
    train, test = make_synthetic_regression(80, 40, seed=1)
    train_path = tmp_path / "rtrain.txt"
    test_path = tmp_path / "rtest.txt"
    save_sparse_text(train, train_path)
    save_sparse_text(test, test_path)
    return str(train_path), str(test_path)


BASE = ["--task", "class", "--kernel", "linear", "--mlambda", "1e-2",
        "--tau", "1.5", "--rank", "2", "--seed", "0"]


def test_train_smoke(class_files, tmp_path, capsys):
    train_path, test_path = class_files
    out = tmp_path / "model.json"
    rc = cli.main(["train", "--data", train_path, "--test", test_path,
                   "--out", str(out), *BASE])
    assert rc == 0
    assert out.exists()
    report = json.loads((tmp_path / "model.json.report.json").read_text())
    assert report["converged"] is True
    assert report["eval"]["accuracy"] >= 0.8
    assert "iterations" in capsys.readouterr().out


def test_train_missing_data_names_path(tmp_path, capsys):
    rc = cli.main(["train", "--data", "/nonexistent/file.txt",
                   "--out", str(tmp_path / "m.json"), *BASE])
    assert rc == 3
    assert "/nonexistent/file.txt" in capsys.readouterr().err


def test_train_rank_exceeding_m_is_usage_error(class_files, tmp_path, capsys):
    train_path, _ = class_files
    rc = cli.main(["train", "--data", train_path, "--out", str(tmp_path / "m.json"),
                   "--task", "class", "--kernel", "linear", "--mlambda", "1e-2",
                   "--tau", "1.5", "--rank", "500"])
    assert rc == 2
    assert "rank" in capsys.readouterr().err


def test_train_missing_required_flag(class_files, tmp_path, capsys):
    train_path, _ = class_files
    rc = cli.main(["train", "--data", train_path, "--out", str(tmp_path / "m.json"),
                   "--task", "class", "--kernel", "linear", "--tau", "1.5",
                   "--rank", "2"])
    assert rc == 2
    assert "--mlambda" in capsys.readouterr().err


def test_numerical_error_maps_to_exit_4(class_files, tmp_path, monkeypatch):
    train_path, _ = class_files

    def boom(*args, **kwargs):
        raise NumericalError("synthetic breakdown")

    monkeypatch.setattr(cli, "train", boom)
    rc = cli.main(["train", "--data", train_path, "--out", str(tmp_path / "m.json"),
                   *BASE])
    assert rc == 4


def test_predict_and_eval(class_files, tmp_path):
    train_path, test_path = class_files
    model_path = tmp_path / "model.json"
    assert cli.main(["train", "--data", train_path, "--out", str(model_path),
                     *BASE]) == 0
    preds = tmp_path / "preds.csv"
    assert cli.main(["predict", "--model", str(model_path), "--data", test_path,
                     "--out", str(preds)]) == 0
    with open(preds) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["raw", "label"]
    assert len(rows) == 41
    assert all(r[1] in ("1", "-1") for r in rows[1:])

    eval_out = tmp_path / "eval.json"
    assert cli.main(["eval", "--model", str(model_path), "--data", test_path,
                     "--out", str(eval_out)]) == 0
    doc = json.loads(eval_out.read_text())
    assert 0.0 <= doc["accuracy"] <= 1.0


def test_predict_accepts_unlabeled_and_narrow_files(class_files, tmp_path):
    train_path, _ = class_files
    model_path = tmp_path / "model.json"
    assert cli.main(["train", "--data", train_path, "--out", str(model_path),
                     *BASE]) == 0
    # dummy constant labels and a missing trailing feature column
    narrow = tmp_path / "narrow.txt"
    narrow.write_text("0 1:0.5\n0 1:-0.25\n")
    preds = tmp_path / "preds.csv"
    assert cli.main(["predict", "--model", str(model_path), "--data", str(narrow),
                     "--out", str(preds)]) == 0
    with open(preds) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 3
    # too-wide input is still rejected
    wide = tmp_path / "wide.txt"
    wide.write_text("0 1:1 2:1 3:1\n0 1:1 2:1 3:-1\n")
    assert cli.main(["predict", "--model", str(model_path), "--data", str(wide),
                     "--out", str(preds)]) == 2


def test_config_file_with_flag_override(class_files, tmp_path):
    train_path, _ = class_files
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"task": "class", "kernel": "linear",
                                  "mlambda": 1e-2, "tau": 99.0, "rank": 2}))
    out = tmp_path / "model.json"
    rc = cli.main(["train", "--data", train_path, "--config", str(config),
                   "--tau", "1.5", "--out", str(out)])
    assert rc == 0


def test_config_file_key_value_format(class_files, tmp_path):
    train_path, _ = class_files
    config = tmp_path / "run.toml"
    config.write_text('task = "class"\nkernel = "linear"\nmlambda = 1e-2\n'
                      "tau = 1.5\nrank = 2\n# comment line\n")
    out = tmp_path / "model.json"
    assert cli.main(["train", "--data", train_path, "--config", str(config),
                     "--out", str(out)]) == 0


def test_gridsearch_single_tuple(class_files, tmp_path, capsys):
    train_path, _ = class_files
    out = tmp_path / "grid.json"
    rc = cli.main(["gridsearch", "--data", train_path, "--task", "class",
                   "--kernel", "linear", "--mlambda", "1e-2", "--tau", "1.5",
                   "--rank", "2", "--folds", "3", "--seed", "0",
                   "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert len(doc["grid"]) == 1
    assert doc["chosen"]["mlambda"] == 1e-2 and doc["chosen"]["tau"] == 1.5


def test_gridsearch_selects_near_best(class_files, tmp_path):
    train_path, _ = class_files
    out = tmp_path / "grid.json"
    rc = cli.main(["gridsearch", "--data", train_path, "--task", "class",
                   "--kernel", "linear", "--mlambda", "1e-3,1e-2",
                   "--tau", "0.2,1.5", "--rank", "2", "--folds", "3",
                   "--seed", "0", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    best_mean = max(row["accuracy_mean"] for row in doc["grid"])
    chosen = doc["chosen"]
    assert chosen["accuracy_mean"] >= best_mean - chosen["accuracy_std"] - 1e-12


def test_gridsearch_empty_grid(class_files, tmp_path):
    train_path, _ = class_files
    rc = cli.main(["gridsearch", "--data", train_path, "--task", "class",
                   "--kernel", "linear", "--mlambda", "", "--tau", "1.5",
                   "--rank", "2", "--out", str(tmp_path / "g.json")])
    assert rc == 2


def test_gridsearch_csv_format(reg_files, tmp_path):
    train_path, _ = reg_files
    out = tmp_path / "grid.csv"
    rc = cli.main(["gridsearch", "--data", train_path, "--task", "reg",
                   "--kernel", "gaussian", "--sigma", "1.0",
                   "--mlambda", "1e-2", "--tau", "0.5", "--rank", "5",
                   "--folds", "3", "--seed", "0", "--out", str(out),
                   "--format", "csv"])
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["mlambda", "sigma", "tau", "rmse"]
    assert "(" in rows[1][3]  # mean(std) text column


def test_bench_two_methods(class_files, tmp_path, capsys):
    train_path, test_path = class_files
    out = tmp_path / "bench.csv"
    rc = cli.main(["bench", "--data", train_path, "--test", test_path,
                   "--repeats", "2", "--outlier-rate", "0.1",
                   "--methods", "srlssvm,lssvm", "--out", str(out),
                   "--format", "csv", *BASE])
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 3  # header + one row per method
    assert {rows[1][0], rows[2][0]} == {"lssvm", "srlssvm"}


def test_bench_single_repeat_has_zero_std(reg_files, tmp_path):
    train_path, test_path = reg_files
    out = tmp_path / "bench.json"
    rc = cli.main(["bench", "--data", train_path, "--test", test_path,
                   "--task", "reg", "--kernel", "gaussian", "--sigma", "1.0",
                   "--mlambda", "1e-2", "--tau", "0.5", "--rank", "5",
                   "--repeats", "1", "--outlier-rate", "0.1", "--seed", "3",
                   "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    row = doc["rows"][0]
    assert row["rmse_std"] == 0.0 and row["n_sv_std"] == 0.0


def test_bench_splits_when_no_test_file(class_files, tmp_path):
    train_path, _ = class_files
    out = tmp_path / "bench.json"
    rc = cli.main(["bench", "--data", train_path, "--repeats", "1",
                   "--outlier-rate", "0.0", "--out", str(out), *BASE])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["rows"][0]["repeats"] == 1


def test_nonconvergence_warns_but_exits_zero(class_files, tmp_path, capsys):
    train_path, _ = class_files
    out = tmp_path / "model.json"
    rc = cli.main(["train", "--data", train_path, "--out", str(out),
                   "--task", "class", "--kernel", "linear", "--mlambda", "1e-2",
                   "--tau", "1.5", "--rank", "2", "--epsilon", "1e-14",
                   "--max-iter", "2"])
    assert rc == 0
    assert "not converged" in capsys.readouterr().out
    report = json.loads((tmp_path / "model.json.report.json").read_text())
    assert report["converged"] is False


def test_bench_unknown_method(class_files, tmp_path):
    train_path, test_path = class_files
    rc = cli.main(["bench", "--data", train_path, "--test", test_path,
                   "--methods", "svm", "--out", str(tmp_path / "b.json"), *BASE])
    assert rc == 2


def test_deterministic_outputs(class_files, tmp_path):
    train_path, test_path = class_files
    outs = []
    for tag in ("a", "b"):
        model_path = tmp_path / f"model_{tag}.json"
        assert cli.main(["train", "--data", train_path, "--test", test_path,
                         "--out", str(model_path), *BASE]) == 0
        outs.append(model_path)
    assert outs[0].read_bytes() == outs[1].read_bytes()
    r0 = cli.stable_report_bytes(str(outs[0]) + ".report.json")
    r1 = cli.stable_report_bytes(str(outs[1]) + ".report.json")
    assert r0 == r1


def test_stable_report_bytes_strips_volatile_fields():
    a = {"x": 1, "timing": {"wall_time_ms": 1.0}, "timestamp": "t1",
         "nested": {"timing": {"ms": 2}}}
    b = {"x": 1, "timing": {"wall_time_ms": 9.0}, "timestamp": "t2",
         "nested": {"timing": {"ms": 5}}}
    assert cli.stable_report_bytes(a) == cli.stable_report_bytes(b)
    c = {"x": 2, "timing": {}}
    assert cli.stable_report_bytes(a) != cli.stable_report_bytes(c)


def test_gridsearch_tie_break_prefers_larger_tau(tmp_path, monkeypatch):
    # far-separated blobs: no residual exceeds either tau, so both tuples
    # score identically and the tie rule picks the larger tau
    from srlssvm import Dataset
    rng = np.random.default_rng(0)
    X = np.vstack([2.5 + 0.3 * rng.standard_normal((30, 2)),
                   -2.5 + 0.3 * rng.standard_normal((30, 2))])
    y = np.r_[np.ones(30), -np.ones(30)]
    path = tmp_path / "sep.txt"
    save_sparse_text(Dataset(X, y, "classification"), path)
    out = tmp_path / "grid.json"
    monkeypatch.setenv("SRLSSVM_THREADS", "2")  # exercise the worker pool too
    rc = cli.main(["gridsearch", "--data", str(path), "--task", "class",
                   "--kernel", "linear", "--mlambda", "1e-2",
                   "--tau", "50,60", "--rank", "2", "--folds", "3",
                   "--seed", "0", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    scores = {row["tau"]: row["accuracy_mean"] for row in doc["grid"]}
    assert scores[50.0] == scores[60.0]
    assert doc["chosen"]["tau"] == 60.0


def test_annealed_training_via_cli(class_files, tmp_path):
    train_path, _ = class_files
    out = tmp_path / "model.json"
    rc = cli.main(["train", "--data", train_path, "--out", str(out),
                   "--task", "class", "--kernel", "linear", "--mlambda", "1e-2",
                   "--tau", "1.5", "--rank", "2", "--anneal-delta", "0.9",
                   "--tau-min", "0.8"])
    assert rc == 0
    report = json.loads((tmp_path / "model.json.report.json").read_text())
    assert report["tau_schedule"][-1] == pytest.approx(0.8)


def test_gridsearch_sigma_list_from_readme(class_files, tmp_path):
    # the README's gridsearch line, at a rank the 60-row file allows
    train_path, _ = class_files
    out = tmp_path / "grid.json"
    rc = cli.main(["gridsearch", "--data", train_path, "--task", "class",
                   "--kernel", "gaussian", "--sigma", "0.25,0.5,1.0",
                   "--mlambda", "1e-3,1e-2", "--tau", "0.5,1.5",
                   "--rank", "10", "--folds", "5", "--seed", "0", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    tuples = [(row["mlambda"], row["sigma"], row["tau"]) for row in doc["grid"]]
    assert sorted(tuples) == [(ml, sg, tv) for ml in (1e-3, 1e-2)
                              for sg in (0.25, 0.5, 1.0) for tv in (0.5, 1.5)]


GOOD_NUMBERS = {"sigma": "0.5", "mlambda": "1e-2", "tau": "1.5", "rank": "2"}


@pytest.mark.parametrize("command, option, value, via_config", [
    ("train", "mlambda", "abc", False),
    ("train", "tau", "1.5x", False),
    ("train", "rank", "2.5", False),
    ("train", "sigma", "0.25,0.5", False),  # one sigma outside gridsearch
    ("train", "mlambda", "abc", True),
    ("gridsearch", "mlambda", "1e-2,foo", False),
    ("gridsearch", "sigma", [0.5, "x"], True),
    ("train", "rank", 2.5, True),
    ("train", "mlambda", True, True),
])
def test_non_numeric_value_is_usage_error(class_files, tmp_path, capsys,
                                          command, option, value, via_config):
    train_path, _ = class_files
    argv = [command, "--data", train_path, "--task", "class", "--kernel", "gaussian",
            "--out", str(tmp_path / "out.json")]
    for name, good in GOOD_NUMBERS.items():
        if name != option:
            argv += [f"--{name}", good]
    if via_config:
        config = tmp_path / "run.toml"
        config.write_text(f"{option} = {json.dumps(value)}\n")
        argv += ["--config", str(config)]
    else:
        argv += [f"--{option}", value]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "error:" in err and f"--{option}" in err


def _exit_code(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects a flag the subcommand lacks
        return exc.code


@pytest.mark.parametrize("command, extra, unread", [
    ("predict", ["--rank", "2"], "--rank"),
    ("eval", ["--sigma", "0.5"], "--sigma"),
    ("train", ["--format", "csv"], "--format"),
    ("gridsearch", ["--folds", "3", "--test", "TEST"], "--test"),
    ("gridsearch", ["--folds", "3", "--anneal-delta", "0.9", "--tau-min", "0.8"],
     "--anneal-delta"),
    ("bench", ["--repeats", "1", "--anneal-delta", "0.9", "--tau-min", "0.8"],
     "--anneal-delta"),
    ("train", ["--config", "CONFIG"], "'lambda'"),  # CONFIG holds lambda = 1.0
])
def test_option_the_subcommand_does_not_read_is_usage_error(
        class_files, tmp_path, capsys, command, extra, unread):
    train_path, test_path = class_files
    model_path = tmp_path / "model.json"
    assert cli.main(["train", "--data", train_path, "--out", str(model_path), *BASE]) == 0
    config = tmp_path / "run.toml"
    config.write_text("lambda = 1.0\n")
    if command in ("predict", "eval"):
        argv = [command, "--model", str(model_path), "--data", test_path]
    else:
        argv = [command, "--data", train_path, *BASE]
    argv += ["--out", str(tmp_path / "out")]
    argv += [{"TEST": test_path, "CONFIG": str(config)}.get(a, a) for a in extra]
    capsys.readouterr()
    assert _exit_code(argv) == 2
    assert unread in capsys.readouterr().err


@pytest.mark.parametrize("command", ["gridsearch", "bench"])
@pytest.mark.parametrize("via_config", [True, False])
def test_unknown_format_is_usage_error(class_files, tmp_path, capsys, command, via_config):
    train_path, _ = class_files
    out = tmp_path / "out.json"
    argv = [command, "--data", train_path, "--out", str(out), *BASE]
    if via_config:
        config = tmp_path / "run.toml"
        config.write_text('format = "xml"\n')
        argv += ["--config", str(config)]
    else:
        argv += ["--format", "xml"]
    assert _exit_code(argv) == 2
    assert "--format" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["gridsearch", "bench"])
@pytest.mark.parametrize("value", ["two", "0", "-3"])
def test_srlssvm_threads_must_be_a_positive_integer(class_files, tmp_path, capsys,
                                                     monkeypatch, command, value):
    train_path, _ = class_files
    monkeypatch.setenv("SRLSSVM_THREADS", value)
    rc = cli.main([command, "--data", train_path, "--out", str(tmp_path / "out.json"),
                   *BASE])
    assert rc == 2
    assert "SRLSSVM_THREADS" in capsys.readouterr().err


def test_gridsearch_report_does_not_depend_on_worker_count(class_files, tmp_path,
                                                           monkeypatch):
    # grids given out of order: the report lists them sorted either way
    train_path, _ = class_files
    reports = []
    for workers in ("1", "2"):
        monkeypatch.setenv("SRLSSVM_THREADS", workers)
        out = tmp_path / f"grid_{workers}.json"
        rc = cli.main(["gridsearch", "--data", train_path, "--task", "class",
                       "--kernel", "gaussian", "--sigma", "1.0,0.25,0.5",
                       "--mlambda", "1e-2,1e-3", "--tau", "1.5,0.5", "--rank", "10",
                       "--folds", "5", "--seed", "0", "--out", str(out)])
        assert rc == 0
        reports.append(cli.stable_report_bytes(out))
    assert reports[0] == reports[1]
    rows = json.loads(reports[0])["grid"]
    tuples = [(row["mlambda"], row["sigma"], row["tau"]) for row in rows]
    assert tuples == sorted(tuples)

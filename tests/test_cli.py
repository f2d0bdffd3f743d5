import copy
import dataclasses
import inspect
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from diffguide.classifier import bayes_oracle
from diffguide.cli import (
    _CONFIG,
    EXIT_ALL_DIVERGED,
    EXIT_CONFIG,
    EXIT_OK,
    ConfigError,
    _datasets,
    _seed,
    build_schedule,
    build_spec,
    config_hash,
    default_config,
    load_config,
    main,
    validate_config,
)
from diffguide.denoiser import AnalyticDenoiser
from diffguide.guidance import GuidanceConfig
from diffguide.schedule import linear_schedule
from diffguide.sensitivity import curve, save_curve_csv

SMALL = {
    "seed": 7,
    "schedule": {"T": 40, "beta_start": 1e-4, "beta_end": 0.05},
    "data": {"preset": "two_class", "n_train": 400, "n_val": 200},
    "train": {"epochs": 6},
    "sample": {"n": 40},
    "sensitivity": {"n": 30},
    "sweep": {"scales": [0.0, 2.0], "n_per_scale": 40},
}


@pytest.fixture()
def small_cfg(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(SMALL))
    return str(path)


def _run(*argv):
    return main(list(argv))


def test_unknown_field_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"sedd": 1}))
    assert _run("--config", str(path), "--out", str(tmp_path), "gen-data") == EXIT_CONFIG
    path.write_text(json.dumps({"schedule": {"T": 10, "warmup": 5}}))
    assert _run("--config", str(path), "--out", str(tmp_path), "gen-data") == EXIT_CONFIG


def test_malformed_json_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert _run("--config", str(path), "--out", str(tmp_path), "gen-data") == EXIT_CONFIG


_DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize(
    "config, checkpoint, argv",
    [
        (_DEEP, None, ["sample"]),
        (
            json.dumps({**SMALL, "guidance": {"classifier": "bayes_oracle"}}),
            None,
            ["sensitivity", "--metric", "stabilized_gradient", "--stabilizer", _DEEP],
        ),
        (json.dumps(SMALL), _DEEP, ["sample"]),
    ],
    ids=["config", "stabilizer-flag", "checkpoint"],
)
def test_deeply_nested_json_fails_closed(tmp_path, capsys, config, checkpoint, argv):
    path = tmp_path / "cfg.json"
    path.write_text(config)
    if checkpoint:
        (tmp_path / "classifier_non_robust.json").write_text(checkpoint)
    assert _run("--config", str(path), "--out", str(tmp_path), *argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


def test_validate_config_fills_defaults():
    cfg = validate_config({"seed": 5})
    assert cfg["seed"] == 5
    assert cfg["schedule"]["T"] == default_config()["schedule"]["T"]
    with pytest.raises(ConfigError):
        validate_config({"guidance": {"stabilizer": {"window": 3}}})


@pytest.mark.parametrize("seed", [1.5, True, -1], ids=["fraction", "bool", "negative"])
def test_a_seed_override_that_is_not_an_integer_is_refused(seed):
    # int() once ran 1.5 and True as seed 1
    with pytest.raises(ValueError, match=rf"^--seed must be an integer >= 0, got {seed!r}$"):
        load_config(None, seed)


def test_config_sections_are_their_library_calls_arguments_by_name():
    # build_schedule and build_guidance_config hand these sections over by name
    assert list(_CONFIG["schedule"]) == list(inspect.signature(linear_schedule).parameters)
    assert set(_CONFIG["guidance"]) == {f.name for f in dataclasses.fields(GuidanceConfig)}


def test_config_hash_semantics():
    h0 = config_hash(validate_config({}))
    assert h0 == config_hash(validate_config({}))
    # explicit default value: same semantics, same hash
    assert h0 == config_hash(validate_config({"seed": default_config()["seed"]}))
    assert h0 != config_hash(validate_config({"seed": 1}))
    assert h0 != config_hash(validate_config({"guidance": {"scale": 3.5}}))
    # the default experiment's hash, which every default artifact embeds
    assert h0 == "86c2093f72057f26"


def test_pipeline_end_to_end(tmp_path, small_cfg):
    out = str(tmp_path / "run")
    assert _run("--config", small_cfg, "--out", out, "gen-data") == EXIT_OK
    assert _run("--config", small_cfg, "--out", out, "train", "--persona", "non_robust") == EXIT_OK
    assert _run("--config", small_cfg, "--out", out, "train", "--persona", "robust") == EXIT_OK
    assert (
        _run("--config", small_cfg, "--out", out, "sensitivity", "--metric", "logit") == EXIT_OK
    )
    assert (
        _run(
            "--config", small_cfg, "--out", out,
            "sensitivity", "--metric", "stabilized_gradient", "--path", "x0pred",
            "--stabilizer", '{"kind":"ema","beta":0.9}',
        )
        == EXIT_OK
    )
    assert _run("--config", small_cfg, "--out", out, "sample") == EXIT_OK
    assert _run("--config", small_cfg, "--out", out, "sweep") == EXIT_OK
    assert _run("--out", out, "report") == EXIT_OK

    run = tmp_path / "run"
    for name in (
        "train.csv",
        "val.csv",
        "classifier_non_robust.json",
        "classifier_robust.json",
        "loss_non_robust.csv",
        "sensitivity_logit_raw.csv",
        "sensitivity_logit_raw.svg",
        "sensitivity_stabilized_gradient_x0pred_ema-0.9.csv",
        "samples.csv",
        "metrics.json",
        "sweep_non_robust_x0pred_ema-0.99.csv",
        "report.csv",
    ):
        assert (run / name).exists(), name

    # outputs embed the config hash
    chash = config_hash(validate_config(SMALL))
    assert chash in (run / "samples.csv").read_text()
    assert chash in (run / "metrics.json").read_text()
    assert f"# config_hash: {chash}" in (run / "sweep_non_robust_x0pred_ema-0.99.csv").read_text()


def test_missing_checkpoint_is_config_error(tmp_path, small_cfg):
    out = str(tmp_path / "empty")
    assert _run("--config", small_cfg, "--out", out, "sample") == EXIT_CONFIG


def _one_config_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: {},
        lambda doc: {**doc, "activation": "relu"},
        lambda doc: {**doc, "weights": doc["weights"][:-1]},
        lambda doc: {**doc, "biases": [b[:-1] for b in doc["biases"]]},
        lambda doc: {**doc, "biases": [[10**400] + b[1:] for b in doc["biases"]]},
        lambda doc: {**doc, "biases": [["NaN"] + b[1:] for b in doc["biases"]]},
    ],
    ids=["empty", "unknown-activation", "missing-layer", "short-biases", "integer-beyond-float", "nan-bias"],
)
def test_malformed_checkpoint_fails_closed(tmp_path, capsys, small_cfg, edit):
    out = tmp_path / "run"
    assert _run("--config", small_cfg, "--out", str(out), "train", "--persona", "non_robust") == EXIT_OK
    path = out / "classifier_non_robust.json"
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    capsys.readouterr()
    assert _run("--config", small_cfg, "--out", str(out), "sample") == EXIT_CONFIG
    assert "classifier_non_robust.json" in _one_config_error(capsys)


def test_checkpoint_for_other_classes_fails_closed(tmp_path, capsys, small_cfg):
    three = tmp_path / "three.json"
    three.write_text(json.dumps({**SMALL, "data": {**SMALL["data"], "preset": "three_class"}}))
    out = str(tmp_path / "run")
    assert _run("--config", str(three), "--out", out, "train", "--persona", "non_robust") == EXIT_OK
    capsys.readouterr()
    assert _run("--config", small_cfg, "--out", out, "sample") == EXIT_CONFIG
    assert "to 3 classes" in _one_config_error(capsys)


@pytest.mark.parametrize(
    "blocked, argv",
    [
        ("classifier_non_robust.json", ["sample"]),
        ("sweep_x.csv", ["report"]),
        ("train.csv", ["gen-data"]),
    ],
    ids=["checkpoint", "sweep-csv", "artifact"],
)
def test_unreadable_or_unwritable_path_fails_closed(tmp_path, capsys, blocked, argv):
    # a directory where the command reads or writes a file
    (tmp_path / blocked).mkdir()
    assert _run("--out", str(tmp_path), *argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and blocked in err


def test_out_of_memory_is_a_config_error(tmp_path, capsys, monkeypatch):
    # what a schedule of 1e13 steps raises, without allocating anything
    def too_large(cfg):
        raise MemoryError("Unable to allocate 72.8 TiB for an array with shape (10000000000000,)")

    monkeypatch.setattr("diffguide.cli.build_schedule", too_large)
    assert _run("--out", str(tmp_path), "train", "--persona", "robust") == EXIT_CONFIG
    assert "out of memory" in _one_config_error(capsys)


def test_repeat_runs_byte_identical(tmp_path, small_cfg):
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (out_a, out_b):
        assert _run("--config", small_cfg, "--out", out, "gen-data") == EXIT_OK
        assert _run("--config", small_cfg, "--out", out, "train", "--persona", "non_robust") == EXIT_OK
        assert _run("--config", small_cfg, "--out", out, "sample") == EXIT_OK
        assert _run("--config", small_cfg, "--out", out, "sweep") == EXIT_OK
    for name in (
        "train.csv",
        "classifier_non_robust.json",
        "loss_non_robust.csv",
        "samples.csv",
        "metrics.json",
        "sweep_non_robust_x0pred_ema-0.99.csv",
        "sweep_non_robust_x0pred_ema-0.99_cfd.svg",
    ):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, name
        # every CSV ends its lines with LF alone
        assert not name.endswith(".csv") or b"\r" not in a, name


def test_seed_override_changes_outputs(tmp_path, small_cfg):
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    for out, seed in ((out_a, "7"), (out_b, "8")):
        assert _run("--config", small_cfg, "--seed", seed, "--out", out, "gen-data") == EXIT_OK
    assert (tmp_path / "a" / "train.csv").read_bytes() != (tmp_path / "b" / "train.csv").read_bytes()


def test_oracle_guidance_needs_no_checkpoint(tmp_path):
    cfg = dict(SMALL)
    cfg["guidance"] = {"classifier": "bayes_oracle", "target_class": 0, "scale": 2.0, "path": "x0pred"}
    cfg["sample"] = {"n": 30}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = str(tmp_path / "run")
    assert _run("--config", str(path), "--out", out, "sample") == EXIT_OK
    report = json.loads((tmp_path / "run" / "metrics.json").read_text())
    assert report["n_samples"] == 30


def test_all_diverged_exit_code(tmp_path):
    cfg = dict(SMALL)
    cfg["guidance"] = {
        "classifier": "bayes_oracle",
        "target_class": 0,
        "scale": 1e12,
        "path": "raw",
        "objective": "logit",
        "stabilizer": {"kind": "identity"},
    }
    cfg["sample"] = {"n": 5}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = str(tmp_path / "run")
    assert _run("--config", str(path), "--out", out, "sample") == EXIT_ALL_DIVERGED


def test_sweep_with_every_chain_diverged_exits_2(tmp_path, capsys, monkeypatch):
    # an infinite guidance gradient sends every guided chain to inf at its first step
    monkeypatch.setattr("diffguide.guidance.guidance_gradient", lambda cfg, dn, X, *args: np.full(X.shape, np.inf))
    cfg = {
        "seed": 7,
        "schedule": {"T": 12},
        "guidance": {"classifier": "bayes_oracle", "path": "raw"},
        "sweep": {"scales": [1.0, 5.0], "n_per_scale": 10},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert _run("--config", str(path), "--out", str(out), "sweep") == EXIT_ALL_DIVERGED
    assert capsys.readouterr().err == "error: every chain diverged at every scale\n"
    rows = (out / "sweep_bayes_oracle_raw_ema-0.99.csv").read_text().splitlines()[2:]
    assert [r.split(",")[-2:] for r in rows] == [["0", "10"], ["0", "10"]]


def test_few_surviving_chains_still_write_the_sweep(tmp_path, capsys):
    # at scale 1e308 one chain of ten survives: too few to fit a 2-D Gaussian
    cfg = {
        "seed": 7,
        "schedule": {"T": 12},
        "guidance": {"classifier": "bayes_oracle", "path": "raw", "stabilizer": {"kind": "identity"}},
        "sweep": {"scales": [1e308], "n_per_scale": 10},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert _run("--config", str(path), "--out", str(out), "sweep") == EXIT_OK
    assert "Traceback" not in capsys.readouterr().err
    lines = (out / "sweep_bayes_oracle_raw_identity.csv").read_text().splitlines()
    s, acc, _, fd, cfd, n, n_div = lines[2].split(",")
    assert 1 <= int(n) <= 2 and int(n) + int(n_div) == 10
    assert (fd, cfd) == ("nan", "nan") and acc != "nan"


def _strict_json(text):
    def refuse(token):
        raise ValueError(f"bare {token} is not JSON")

    return json.loads(text, parse_constant=refuse)


def test_non_finite_metrics_are_written_as_json_null(tmp_path):
    # at scale 1e308 one chain of ten survives: its fd and cfd are NaN
    cfg = {
        "seed": 7,
        "schedule": {"T": 12},
        "guidance": {
            "classifier": "bayes_oracle", "path": "raw", "scale": 1e308, "stabilizer": {"kind": "identity"},
        },
        "sample": {"n": 10},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert _run("--config", str(path), "--out", str(out), "sample") == EXIT_OK
    metrics = _strict_json((out / "metrics.json").read_text())
    assert metrics["fd"] is None and metrics["cfd"] is None
    assert metrics["n_samples"] + metrics["n_diverged"] == 10
    (out / "sweep_far.csv").write_text(_SWEEP_HEADER + "1e+308,1,1,nan,nan,1,9\n1e+300,1,1,inf,-inf,5,5\n")
    assert _run("--out", str(out), "--format", "json", "report") == EXIT_OK
    report = _strict_json((out / "report.json").read_text())
    assert [(r["fd"], r["cfd"]) for r in report["rows"]] == [(None, None), (None, None)]
    assert report["best"] is None


def test_diverging_training_fails_closed(tmp_path, capsys):
    # a finite, positive learning rate can still overflow the weights
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"schedule": {"T": 12}, "data": {"n_train": 40}, "train": {"lr": 1e308, "epochs": 2}}))
    for persona in ("non_robust", "robust"):
        assert _run("--config", str(path), "--out", str(tmp_path / "run"), "train", "--persona", persona) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.count("\n") == 1 and "training diverged" in err


def test_usage_error_exits_1_not_2(tmp_path, capsys):
    # exit 2 means only "every chain diverged"
    for argv in (
        ["--out", str(tmp_path), "frobnicate"],
        ["--out", str(tmp_path)],
        ["--out", str(tmp_path), "sensitivity", "--stabilizer", "-1e+16"],
    ):
        assert _run(*argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "Traceback" not in err


def test_help_exits_0(capsys):
    assert _run("--help") == EXIT_OK
    assert "usage:" in capsys.readouterr().out


def _sensitivity_run(tmp_path, name, guidance):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({**SMALL, "guidance": {"classifier": "bayes_oracle", **guidance}}))
    out = tmp_path / name
    argv = ["sensitivity", "--metric", "gradient", "--path", "x0pred"]
    assert _run("--config", str(path), "--out", str(out), *argv) == EXIT_OK
    return str(path), (out / "sensitivity_gradient_x0pred.csv").read_text()


def _data_rows(text):
    return [ln for ln in text.splitlines() if not ln.startswith("#")]


@pytest.mark.parametrize("guidance", [{"objective": "logit"}, {"jacobian_mode": "stop_gradient"}])
def test_sensitivity_uses_the_configured_gradient_recipe(tmp_path, guidance):
    _, default = _sensitivity_run(tmp_path, "default", {})
    cfg_path, got = _sensitivity_run(tmp_path, "changed", guidance)
    cfg, chash = load_config(cfg_path)
    spec = build_spec(cfg)
    _, val_ds = _datasets(cfg, spec)
    n = cfg["sensitivity"]["n"]
    recipe = GuidanceConfig(bayes_oracle(spec), target_class=0, path="x0pred", **guidance)
    want = curve(
        recipe, AnalyticDenoiser(spec, build_schedule(cfg)), val_ds.points[:n], val_ds.labels[:n],
        "gradient", seed=_seed(cfg, "sensitivity-eps"),
    )
    save_curve_csv(want, tmp_path / "want.csv", chash)
    assert got == (tmp_path / "want.csv").read_text()
    assert _data_rows(got) != _data_rows(default)


def test_three_class_pipeline(tmp_path):
    cfg = {
        "seed": 11,
        "schedule": {"T": 50, "beta_start": 1e-4, "beta_end": 0.05},
        "data": {"preset": "three_class", "n_train": 600, "n_val": 200},
        "train": {"epochs": 8},
        "guidance": {
            "classifier": "non_robust",
            "target_class": 2,
            "scale": 3.0,
            "path": "x0pred",
            "stabilizer": {"kind": "ema", "beta": 0.9},
        },
        "sample": {"n": 60},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = str(tmp_path / "run")
    assert _run("--config", str(path), "--out", out, "train", "--persona", "non_robust") == EXIT_OK
    assert _run("--config", str(path), "--out", out, "sample") == EXIT_OK
    report = json.loads((tmp_path / "run" / "metrics.json").read_text())
    assert report["n_diverged"] == 0
    assert report["target_accuracy_oracle"] > 0.5  # guidance pulls toward class 2


def test_report_without_sweeps_fails(tmp_path):
    assert _run("--out", str(tmp_path / "void"), "report") == EXIT_CONFIG


def _two_class_mixture(prior0, mean0):
    comps = [[{"weight": 1.0, "mean": mean0, "cov": 0.1}], [{"weight": 1.0, "mean": [1.0, 0.0], "cov": 0.1}]]
    return {"data": {"classes": [{"prior": p, "components": c} for p, c in zip([prior0, 0.5], comps)]}}


def _signed_mixture(priors, weights0):
    """Two classes with the given priors; class 0's components take weights0."""
    comps0 = [{"weight": w, "mean": [-1.0, float(i)], "cov": 0.1} for i, w in enumerate(weights0)]
    comps = [comps0, [{"weight": 1.0, "mean": [1.0, 0.0], "cov": 0.1}]]
    return {"data": {"classes": [{"prior": p, "components": c} for p, c in zip(priors, comps)]}}


@pytest.mark.parametrize(
    "raw, argv, says",
    [
        ({"data": {"classes": [{"prior": 1}]}}, ["gen-data"], "config.data.classes[0]: expected an object"),
        (
            {"guidance": {"classifier": "bayes_oracle", "target_class": 5}},
            ["sample"],
            "config.guidance.target_class 5 outside [0, 2)",
        ),
        (
            {"train": {"hidden": ["a"]}},
            ["train", "--persona", "non_robust"],
            "config.train.hidden[0] must be an integer >= 1, got 'a'",
        ),
        (_two_class_mixture(0.5, [float("nan"), 0.0]), ["gen-data"], "component mean and covariance must be finite"),
        (
            {**_two_class_mixture(float("nan"), [-1.0, 0.0]), "guidance": {"classifier": "bayes_oracle"}},
            ["sample"],
            "class prior sum is nan",
        ),
        ({"guidance": {"classifier": "bayes_oracle", "objective": "bogus"}}, ["sample"], "objective must be one of"),
        (_two_class_mixture(0.5, [1e308, 0.0]), ["gen-data"], "component means are too far apart"),
        (
            {**_two_class_mixture(0.5, [1e308, 0.0]), "guidance": {"classifier": "bayes_oracle"}},
            ["sample"],
            "component means are too far apart",
        ),
        (
            {"guidance": {"classifier": "bayes_oracle"}, "sensitivity": {"n": 0}},
            ["sensitivity"],
            "config.sensitivity.n must be an integer >= 1, got 0",
        ),
        (
            {"guidance": {"classifier": "bayes_oracle"}, "sensitivity": {"n": -1990}},
            ["sensitivity"],
            "config.sensitivity.n must be an integer >= 1, got -1990",
        ),
        (
            {"train": {"lr": -1.0}},
            ["train", "--persona", "non_robust"],
            "config.train.lr: expected a finite number > 0",
        ),
        ({"train": {"lr": 0}}, ["train", "--persona", "robust"], "config.train.lr: expected a finite number > 0"),
        (
            {"train": {"lr": float("nan")}},
            ["train", "--persona", "non_robust"],
            "config.train.lr: expected a finite number > 0",
        ),
        (
            {"train": {"lr": float("inf")}},
            ["train", "--persona", "non_robust"],
            "config.train.lr: expected a finite number > 0",
        ),
        (
            {"train": {"batch_size": 0}},
            ["train", "--persona", "non_robust"],
            "config.train.batch_size must be an integer >= 1, got 0",
        ),
        (
            {"train": {"epochs": -1}},
            ["train", "--persona", "robust"],
            "config.train.epochs must be an integer >= 0, got -1",
        ),
        (
            {"data": {**_two_class_mixture(0.5, [-1.0, 0.0])["data"], "preset": "three_class"}},
            ["gen-data"],
            "config.data: names both preset and classes",
        ),
        (
            {**_signed_mixture([-0.5, 1.5], [1.0]), "guidance": {"classifier": "bayes_oracle"}},
            ["sample"],
            "class prior -0.5 is negative",
        ),
        (
            {**_signed_mixture([0.5, 0.5], [1.5, -0.5]), "guidance": {"classifier": "bayes_oracle"}},
            ["sample"],
            "component weight -0.5 is negative",
        ),
        ({"seed": -1}, ["gen-data"], "config.seed must be an integer >= 0, got -1"),
        (
            {"train": {"hidden": [0]}},
            ["train", "--persona", "non_robust"],
            "config.train.hidden[0] must be an integer >= 1, got 0",
        ),
        (
            {"train": {"hidden": [64, True]}},
            ["train", "--persona", "robust"],
            "config.train.hidden[1] must be an integer >= 1, got True",
        ),
        (_signed_mixture([True, 0.0], [1.0]), ["gen-data"], "class prior must be a real number, got True"),
        (
            {**_signed_mixture([0.5, 0.5], ["1"]), "guidance": {"classifier": "bayes_oracle"}},
            ["sample"],
            "component weight must be a real number, got '1'",
        ),
        (
            {"data": {"n_val": 0}},
            ["train", "--persona", "non_robust"],
            "config.data.n_val must be an integer >= 1, got 0",
        ),
        (
            {"guidance": {"classifier": "bayes_oracle"}, "sweep": {"n_per_scale": 0}},
            ["sample"],
            "config.sweep.n_per_scale must be an integer >= 1, got 0",
        ),
    ],
    ids=[
        "mixture-without-components",
        "target-class-out-of-range",
        "non-integer-hidden-size",
        "nan-mean",
        "nan-prior-oracle-sample",
        "unknown-objective-oracle-sample",
        "huge-mean",
        "huge-mean-oracle-sample",
        "zero-sensitivity-points",
        "negative-sensitivity-points",
        "negative-learning-rate",
        "zero-learning-rate",
        "nan-learning-rate",
        "infinite-learning-rate",
        "zero-batch-size",
        "negative-epochs",
        "preset-and-classes",
        "negative-prior-oracle-sample",
        "negative-weight-oracle-sample",
        "negative-seed",
        "zero-hidden-size",
        "bool-hidden-size",
        "bool-prior",
        "string-weight-oracle-sample",
        "zero-validation-points-train",
        "zero-sweep-chains-sample",
    ],
)
def test_invalid_config_fails_closed(tmp_path, capsys, raw, argv, says):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**SMALL, **raw}))
    assert _run("--config", str(path), "--out", str(tmp_path / "run"), *argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"config error: {says}" in err
    assert "Traceback" not in err
    for field in raw.get("train", {}):
        assert f"config.train.{field}" in err  # the message names the field


@pytest.mark.parametrize(
    "flag",
    ['[1]', '"ema"', '{"kind":"ema","beta":"x"}', '{"kind":"ema","beta":null}', '{"kind":"ema","bogus":1}'],
    ids=["list", "string", "string-beta", "null-beta", "unknown-field"],
)
def test_bad_stabilizer_flag_fails_closed(tmp_path, capsys, flag):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**SMALL, "guidance": {"classifier": "bayes_oracle"}}))
    argv = ["sensitivity", "--metric", "stabilized_gradient", "--stabilizer", flag]
    assert _run("--config", str(path), "--out", str(tmp_path / "run"), *argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("metric", ["gradient", "logit"])
def test_stabilizer_for_an_unstabilized_metric_fails_closed(tmp_path, capsys, metric):
    # a curve named and labelled after a stabilizer it never applied is refused
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**SMALL, "guidance": {"classifier": "bayes_oracle"}}))
    out = tmp_path / "run"
    argv = ["sensitivity", "--metric", metric, "--stabilizer", '{"kind":"ema","beta":0.5}']
    assert _run("--config", str(path), "--out", str(out), *argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err
    assert "Traceback" not in err
    assert not list(out.glob("sensitivity_*"))


@pytest.mark.parametrize(
    "guidance, metric",
    [
        ({}, "stabilized_gradient"),
        ({"stabilizer": {"kind": "ema", "beta": 1.5}}, "gradient"),
        ({"scale": -1.0}, "logit"),
    ],
    ids=["stabilized-without-stabilizer", "config-ema-beta-above-1", "config-negative-scale"],
)
def test_sensitivity_refuses_a_bad_recipe(tmp_path, capsys, guidance, metric):
    # sensitivity builds the config's whole guidance recipe, as sample and sweep do
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**SMALL, "guidance": {"classifier": "bayes_oracle", **guidance}}))
    out = tmp_path / "run"
    assert _run("--config", str(path), "--out", str(out), "sensitivity", "--metric", metric) == EXIT_CONFIG
    _one_config_error(capsys)
    assert not list(out.glob("sensitivity_*"))


@pytest.mark.parametrize(
    "stabilizer, field",
    [
        ({"kind": "ema", "beta1": 0.5}, "beta1"),
        ({"kind": "adam", "beta": 0.5}, "beta"),
        ({"kind": "identity", "beta": 5.0}, "beta"),
    ],
    ids=["ema-beta1", "adam-beta", "identity-beta-above-1"],
)
@pytest.mark.parametrize("where", ["config.guidance.stabilizer", "--stabilizer"])
def test_a_stabilizer_field_its_kind_does_not_read_fails_closed(tmp_path, capsys, where, stabilizer, field):
    # the field would be hashed into the run and ignored: ema(0.99), adam(0.9,0.999) or identity would run
    if where == "--stabilizer":
        guidance, argv = {}, ["--metric", "stabilized_gradient", "--stabilizer", json.dumps(stabilizer)]
    else:
        guidance, argv = {"stabilizer": stabilizer}, ["--metric", "gradient"]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**SMALL, "guidance": {"classifier": "bayes_oracle", **guidance}}))
    out = tmp_path / "run"
    assert _run("--config", str(path), "--out", str(out), "sensitivity", *argv) == EXIT_CONFIG
    err = _one_config_error(capsys)
    assert f"{where}: field {field!r} is not read by the {stabilizer['kind']} stabilizer" in err
    assert not list(out.glob("sensitivity_*"))


@pytest.mark.parametrize("eps", [np.inf, -np.inf, np.nan, 0.0], ids=["inf", "-inf", "nan", "zero"])
@pytest.mark.parametrize("where", ["config.guidance.stabilizer", "--stabilizer"])
def test_an_adam_eps_that_is_not_finite_and_positive_fails_closed(tmp_path, capsys, where, eps):
    # json reads Infinity, and eps = Infinity turned guidance off: the run exited 0 with scale-0 metrics
    stabilizer = {"kind": "adam", "eps": eps}
    if where == "--stabilizer":
        guidance, argv = {}, ["--metric", "stabilized_gradient", f"--stabilizer={json.dumps(stabilizer)}"]
    else:
        guidance, argv = {"stabilizer": stabilizer}, ["--metric", "gradient"]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**SMALL, "guidance": {"classifier": "bayes_oracle", **guidance}}))
    out = tmp_path / "run"
    assert _run("--config", str(path), "--out", str(out), "sensitivity", *argv) == EXIT_CONFIG
    assert "adam eps must be finite and > 0" in _one_config_error(capsys)
    assert not list(out.glob("sensitivity_*"))


def _far_mixture(dist):
    comps = [[{"weight": 1.0, "mean": [dist, 0.0], "cov": 0.1}], [{"weight": 1.0, "mean": [dist, 1.0], "cov": 0.1}]]
    return {"data": {"classes": [{"prior": 0.5, "components": c} for c in comps]}}


@pytest.mark.parametrize(
    "raw",
    [
        {"schedule": {"T": 40, "beta_start": 1e-4, "beta_end": 0.999999}},
        {"schedule": {"T": 40, "beta_start": 1e-4, "beta_end": float(np.nextafter(1.0, 0.0))}},
        _far_mixture(1e3),
        _far_mixture(-1e3),
    ],
    ids=["beta-end-near-1", "beta-end-below-1-by-one-ulp", "means-1e3-from-origin", "means-minus-1e3-from-origin"],
)
def test_edge_configs_fail_closed(tmp_path, capsys, raw):
    # chains start near the origin; these schedules and mixtures push them hard
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**SMALL, **raw, "guidance": {"classifier": "bayes_oracle"}}))
    for command in ("gen-data", "sample"):
        assert _run("--config", str(path), "--out", str(tmp_path / "run"), command) in (0, 1, 2)
        assert "Traceback" not in capsys.readouterr().err


_SWEEP_HEADER = "s,acc_oracle,acc_guiding,fd,cfd,n,n_diverged\n"


@pytest.mark.parametrize(
    "text",
    [
        "# config_hash: x\na,b\n1,2\n",
        _SWEEP_HEADER + "0,1,1,0.1\n",
        "# config_hash: x\n",
        _SWEEP_HEADER + "0,1,1,0.1,0.2,forty,0\n",
    ],
    ids=["header-without-sweep-columns", "row-missing-fields", "comments-only", "unparsable-cell"],
)
def test_report_rejects_malformed_sweep_csv(tmp_path, capsys, text):
    (tmp_path / "sweep_bad.csv").write_text(text)
    assert _run("--out", str(tmp_path), "report") == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "sweep_bad.csv" in err
    assert "Traceback" not in err


def test_report_reads_well_formed_sweep_csv(tmp_path):
    (tmp_path / "sweep_good.csv").write_text("# config_hash: x\n" + _SWEEP_HEADER + "2,0.97,0.99,0.5,0.25,40,0\n")
    assert _run("--out", str(tmp_path), "--format", "json", "report") == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["best"] == {
        "setup": "good", "s": 2.0, "acc_oracle": 0.97, "acc_guiding": 0.99,
        "fd": 0.5, "cfd": 0.25, "n": 40, "n_diverged": 0,
    }


def test_report_selects_best(tmp_path, small_cfg):
    out = str(tmp_path / "run")
    assert _run("--config", small_cfg, "--out", out, "train", "--persona", "non_robust") == EXIT_OK
    assert _run("--config", small_cfg, "--out", out, "sweep") == EXIT_OK
    assert _run("--out", out, "--format", "json", "report") == EXIT_OK
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    rows = report["rows"]
    eligible = [r for r in rows if r["acc_oracle"] >= 0.95 and np.isfinite(r["cfd"])]
    if eligible:
        want = min(eligible, key=lambda r: r["cfd"])
        assert report["best"]["s"] == want["s"]
        assert report["best"]["cfd"] == want["cfd"]
    else:
        assert report["best"] is None


# An oracle-guided config small enough that any example runs in milliseconds;
# its mixture is inline so that leaves inside the spec get replaced too.
_PROPERTY_BASE = {
    "seed": 7,
    "schedule": {"T": 12, "beta_start": 1e-3, "beta_end": 0.1},
    "data": {
        "classes": [
            {"prior": 0.5, "components": [{"weight": 1.0, "mean": [-1.0, 0.0], "cov": 0.05}]},
            {"prior": 0.5, "components": [{"weight": 1.0, "mean": [1.0, 0.0], "cov": [0.05, 0.08]}]},
        ],
        "n_train": 20,
        "n_val": 20,
    },
    "guidance": {"classifier": "bayes_oracle", "path": "raw", "scale": 1.0, "stabilizer": {"kind": "identity"}},
    "sample": {"n": 20},
    "sensitivity": {"n": 20},
}


def _leaf_paths(node, prefix=()):
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else None
    if items is None:
        return [prefix]
    return [p for key, val in items for p in _leaf_paths(val, prefix + (key,))]


# sizes stay at most 50, so no example is slow
_JSON_VALUES = st.integers(-50, 50) | st.floats() | st.recursive(
    st.none() | st.booleans() | st.integers(-50, 50) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


@settings(
    max_examples=60,
    deadline=None,
    database=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.lists(st.tuples(st.sampled_from(_leaf_paths(_PROPERTY_BASE)), _JSON_VALUES), min_size=1, max_size=2))
def test_any_json_leaf_fails_closed(replacements):
    raw = copy.deepcopy(_PROPERTY_BASE)
    for path, value in replacements:
        node = raw
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(raw))
        for command in ("gen-data", "sample", "sensitivity"):
            assert main(["--config", str(cfg), "--out", str(Path(tmp) / "run"), command]) in (0, 1, 2)


# anything --stabilizer may hold: arbitrary JSON, objects over the stabilizer's
# fields (and one unknown field) with arbitrary values, and mostly valid objects
_STABILIZER_FIELDS = ("kind", "beta", "beta1", "beta2", "eps")
_STABILIZER_JSON = (
    _JSON_VALUES
    | st.dictionaries(st.sampled_from(_STABILIZER_FIELDS + ("bogus",)), _JSON_VALUES, max_size=3)
    | st.fixed_dictionaries(
        {"kind": st.sampled_from(["identity", "ema", "adam"])},
        optional={key: st.floats(0.0, 1.0) for key in _STABILIZER_FIELDS[1:]},
    )
)


@settings(
    max_examples=60,
    deadline=None,
    database=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_STABILIZER_JSON)
def test_any_stabilizer_json_fails_closed(value):
    raw = {**_PROPERTY_BASE, "sensitivity": {"n": 10}}
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(raw))
        argv = ["--config", str(cfg), "--out", str(Path(tmp) / "run"), "sensitivity"]
        # the = form keeps argparse from reading a value such as -1e+16 as an option
        argv += ["--metric", "stabilized_gradient", f"--stabilizer={json.dumps(value)}"]
        assert main(argv) in (0, 1)

"""Batch experiment runner.

Subcommands cover the full pipeline: dataset generation, classifier training
for both personas, sensitivity curves, guided sampling with metrics, guidance
scale sweeps, and a consolidated report. Every artifact is reproducible
bit-for-bit from (config, master seed): sub-seeds fan out through labeled
substreams, outputs embed the config hash, and floats are written with 17
significant digits. Plots are self-contained SVG with no timestamps.
"""

import argparse
import copy
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import classifier as clf
from . import guidance as gd
from . import metrics as mtr
from . import nn
from . import sensitivity as sens
from .artifacts import json_text, write_csv
from .denoiser import AnalyticDenoiser
from .rng import substream_seed
from .schedule import linear_schedule
from .synthdata import (
    GmmSpec,
    LabeledDataset,
    make_spec,
    sample_dataset,
    save_dataset_csv,
    three_class_benchmark,
    two_class_benchmark,
)


class ConfigError(ValueError):
    pass


EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_ALL_DIVERGED = 2


# Every config field with its default. A leaf is a default value, whose type
# is the field's type (a float default accepts any JSON number), or a bare
# type for an optional field with no default.
_CONFIG = {
    "seed": 2024,
    "schedule": {"T": 400, "beta_start": 1e-4, "beta_end": 0.02, "posterior_variance_mode": "beta_t"},
    "data": {"preset": "two_class", "classes": list, "n_train": 4000, "n_val": 2000},
    "train": {"hidden": [64, 64], "activation": "tanh", "epochs": 40, "batch_size": 128, "lr": 0.01},
    "guidance": {
        "classifier": "non_robust",
        "target_class": 1,
        "scale": 2.0,
        "path": "x0pred",
        "jacobian_mode": "full",
        "objective": "log_softmax",
        "stabilizer": {"kind": "ema", "beta": 0.99, "beta1": float, "beta2": float, "eps": float},
    },
    "sample": {"n": 2000},
    "sensitivity": {"n": 500},
    "sweep": {"scales": [0.0, 0.25, 0.5, 1.0, 2.0, 5.0, 20.0, 50.0], "n_per_scale": 2000},
}


def _defaults(tree: dict) -> dict:
    return {
        key: _defaults(val) if isinstance(val, dict) else copy.deepcopy(val)
        for key, val in tree.items()
        if not isinstance(val, type)
    }


def default_config() -> dict:
    """Built-in experiment: 2-D two-class benchmark, 400-step linear schedule."""
    return _defaults(_CONFIG)


def _is_number(val) -> bool:
    return isinstance(val, (int, float)) and not isinstance(val, bool)


def _is_number_list(val) -> bool:
    return isinstance(val, list) and all(map(_is_number, val))


def _check_keys(node, tree, where: str) -> None:
    if not isinstance(node, dict):
        raise ConfigError(f"{where}: expected an object")
    for key, val in node.items():
        if key not in tree:
            raise ConfigError(f"{where}: unknown field {key!r}")
        sub = tree[key]
        kind = sub if isinstance(sub, type) else type(sub)
        if kind is dict:
            _check_keys(val, sub, f"{where}.{key}")
        elif kind is float:
            if not _is_number(val):
                raise ConfigError(f"{where}.{key}: expected a number")
        elif not isinstance(val, kind) or isinstance(val, bool):
            raise ConfigError(f"{where}.{key}: expected {kind.__name__}")


def _check_classes(classes: list) -> None:
    """Inline mixture structure; make_spec checks the numbers themselves."""
    if not classes:
        raise ConfigError("config.data.classes: expected a nonempty list")
    for i, c in enumerate(classes):
        where = f"config.data.classes[{i}]"
        if not isinstance(c, dict) or set(c) != {"prior", "components"}:
            raise ConfigError(f"{where}: expected an object with exactly prior and components")
        if not _is_number(c["prior"]) or not isinstance(c["components"], list) or not c["components"]:
            raise ConfigError(f"{where}: expected a numeric prior and a nonempty components list")
        for j, k in enumerate(c["components"]):
            if not isinstance(k, dict) or set(k) != {"weight", "mean", "cov"}:
                raise ConfigError(f"{where}.components[{j}]: expected an object with exactly weight, mean and cov")
            cov = k["cov"]
            cov_ok = _is_number(cov) or _is_number_list(cov) or (
                isinstance(cov, list) and all(map(_is_number_list, cov))
            )
            if not (_is_number(k["weight"]) and _is_number_list(k["mean"]) and cov_ok):
                raise ConfigError(
                    f"{where}.components[{j}]: weight must be a number, mean a list of numbers, "
                    "cov a number, a list of numbers or a matrix of numbers"
                )


_PRESETS = {"two_class": two_class_benchmark, "three_class": three_class_benchmark}


def validate_config(raw: dict) -> dict:
    """Fail-closed validation: unknown fields are rejected, defaults fill
    omitted ones, and values the pipeline would index or build with are
    checked before any work starts."""
    _check_keys(raw, _CONFIG, "config")
    cfg = default_config()
    for section, val in raw.items():
        if section == "data" and "classes" in val:
            if "preset" in val:
                raise ConfigError("config.data: names both preset and classes; give one of them")
            del cfg["data"]["preset"]  # an inline mixture replaces the default preset
        # a nested object (the stabilizer) replaces its default outright
        cfg[section] = {**cfg[section], **copy.deepcopy(val)} if isinstance(val, dict) else val
    data = cfg["data"]
    if "classes" in data:
        _check_classes(data["classes"])
        n_classes = len(data["classes"])
    else:
        preset = data["preset"]
        if preset not in _PRESETS:
            raise ConfigError(f"unknown data preset {preset!r}")
        n_classes = _PRESETS[preset]().n_classes
    target = cfg["guidance"]["target_class"]
    if not 0 <= target < n_classes:
        raise ConfigError(f"config.guidance.target_class: {target} outside [0, {n_classes})")
    train = cfg["train"]
    if not all(isinstance(h, int) and not isinstance(h, bool) and h >= 1 for h in train["hidden"]):
        raise ConfigError("config.train.hidden: expected a list of positive integers")
    if not (np.isfinite(train["lr"]) and train["lr"] > 0):
        raise ConfigError("config.train.lr: expected a finite number > 0")
    if train["batch_size"] < 1:
        raise ConfigError("config.train.batch_size: expected a positive integer")
    if train["epochs"] < 0:
        raise ConfigError("config.train.epochs: expected a nonnegative integer")
    if cfg["sensitivity"]["n"] < 1:
        raise ConfigError("config.sensitivity.n: expected a positive integer")
    if not all(map(_is_number, cfg["sweep"]["scales"])):
        raise ConfigError("config.sweep.scales: expected a list of numbers")
    return cfg


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def load_config(path: str | None, seed_override: int | None = None) -> tuple[dict, str]:
    if path is None:
        raw = {}
    else:
        try:
            with open(path) as f:
                raw = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read config {path}: {e}") from e
    cfg = validate_config(raw)
    if seed_override is not None:
        cfg["seed"] = int(seed_override)
    if cfg["seed"] < 0:
        raise ConfigError("seed must be a nonnegative integer")
    return cfg, config_hash(cfg)


# -- config -> objects --------------------------------------------------------


def build_spec(cfg: dict) -> GmmSpec:
    data = cfg["data"]
    if "classes" in data:
        classes = [
            (
                c["prior"],
                [(k["weight"], k["mean"], np.asarray(k["cov"])) for k in c["components"]],
            )
            for c in data["classes"]
        ]
        return make_spec(classes)
    return _PRESETS[data["preset"]]()


def build_schedule(cfg: dict):
    s = cfg["schedule"]
    return linear_schedule(s["T"], s["beta_start"], s["beta_end"], s["posterior_variance_mode"])


def build_stabilizer(node, where: str) -> gd.StabilizerConfig:
    """The stabilizer a config node names; StabilizerConfig checks kind and
    betas. A field its kind does not read is refused: it would be hashed
    into the run and then ignored."""
    _check_keys(node, _CONFIG["guidance"]["stabilizer"], where)
    stab = gd.StabilizerConfig(**node)
    unread = [key for key in node if key not in ("kind", *gd._STABILIZER_FIELDS[stab.kind])]
    if unread:
        raise ConfigError(f"{where}: field {unread[0]!r} is not read by the {stab.kind} stabilizer")
    return stab


def _file_tag(stab: gd.StabilizerConfig) -> str:
    """A stabilizer's label as file names carry it: ema(0.99) -> ema-0.99."""
    return stab.label.translate(str.maketrans({"(": "-", ")": "", ",": "-"}))


def _seed(cfg: dict, label: str, index: int = 0) -> int:
    return int(substream_seed(cfg["seed"], label, index).generate_state(1)[0])


def _dataset(cfg: dict, spec: GmmSpec, part: str) -> LabeledDataset:
    """The config's "train" or "val" set, each drawn from its own seed."""
    return sample_dataset(spec, cfg["data"][f"n_{part}"], _seed(cfg, f"dataset-{part}"))


def _datasets(cfg: dict, spec: GmmSpec):
    return _dataset(cfg, spec, "train"), _dataset(cfg, spec, "val")


PERSONAS = ("non_robust", "robust")  # the trained classifiers; robust trains on forward-noised points


def _checkpoint_path(out: Path, persona: str) -> Path:
    return out / f"classifier_{persona}.json"


def _load_classifier(cfg: dict, out: Path, spec: GmmSpec) -> clf.ClassifierHandle:
    name = cfg["guidance"]["classifier"]
    if name == "bayes_oracle":
        return clf.bayes_oracle(spec)
    if name not in PERSONAS:
        raise ConfigError(f"unknown guidance classifier {name!r}")
    path = _checkpoint_path(out, name)
    if not path.exists():
        raise ConfigError(f"missing checkpoint {path}; run the train command first")
    model = nn.load_checkpoint(path)
    if not all(np.isfinite(p).all() for p in model.weights + model.biases):
        raise ConfigError(f"checkpoint {path} holds a non-finite weight or bias")
    if (model.input_dim, model.n_classes) != (spec.dim, spec.n_classes):
        raise ConfigError(
            f"checkpoint {path} maps {model.input_dim} inputs to {model.n_classes} classes; "
            f"the config's data has {spec.dim} and {spec.n_classes}"
        )
    return clf.ClassifierHandle(name, model=model)


def build_guidance_config(cfg: dict, handle: clf.ClassifierHandle) -> gd.GuidanceConfig:
    g = cfg["guidance"]
    return gd.GuidanceConfig(
        classifier=handle,
        target_class=g["target_class"],
        scale=float(g["scale"]),
        path=g["path"],
        jacobian_mode=g["jacobian_mode"],
        stabilizer=build_stabilizer(g["stabilizer"], "config.guidance.stabilizer"),
        objective=g["objective"],
    )


def _guided_setup(cfg: dict, out: Path) -> tuple[AnalyticDenoiser, gd.GuidanceConfig]:
    """The denoiser of the config's spec and schedule, and the config's guidance recipe."""
    spec = build_spec(cfg)
    return AnalyticDenoiser(spec, build_schedule(cfg)), build_guidance_config(cfg, _load_classifier(cfg, out, spec))


# -- SVG plotting (no external dependency; deliberately timestamp-free) -------


def _svg_line_plot(label: str, xs: np.ndarray, ys: np.ndarray, title: str, path) -> None:
    width, height, pad, color = 640, 400, 50, "#1f77b4"
    xs, ys = np.asarray(xs), np.asarray(ys, dtype=float)
    ok = np.isfinite(ys)
    ys_ok = ys[ok] if ok.any() else np.array([0.0, 1.0])
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys_ok.min()), float(ys_ok.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    # at 1e308 a one-point range stays empty after the + 1.0: plot it flat
    x_span, y_span = (x_hi - x_lo) or 1.0, (y_hi - y_lo) or 1.0

    def sx(x):
        return pad + (x - x_lo) / x_span * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y_lo) / y_span * (height - 2 * pad)

    pts = " ".join(f"{sx(float(x)):.2f},{sy(float(y)):.2f}" for x, y in zip(xs[ok], ys[ok]))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width // 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
        f'<text x="{pad}" y="{height - pad + 20}" font-size="11">{x_lo:.6g}</text>',
        f'<text x="{width - pad}" y="{height - pad + 20}" text-anchor="end" font-size="11">{x_hi:.6g}</text>',
        f'<text x="{pad - 5}" y="{height - pad}" text-anchor="end" font-size="11">{y_lo:.6g}</text>',
        f'<text x="{pad - 5}" y="{pad}" text-anchor="end" font-size="11">{y_hi:.6g}</text>',
        f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>',
        f'<text x="{width - pad + 2}" y="{pad + 10}" font-size="11" fill="{color}">{label}</text>',
        "</svg>",
    ]
    Path(path).write_text("\n".join(parts))


# -- subcommands ---------------------------------------------------------------


def cmd_gen_data(cfg: dict, chash: str, out: Path, args) -> int:
    spec = build_spec(cfg)
    train_ds, val_ds = _datasets(cfg, spec)
    save_dataset_csv(train_ds, out / "train.csv")
    save_dataset_csv(val_ds, out / "val.csv")
    (out / "data_meta.json").write_text(
        json.dumps(
            {"config_hash": chash, "n_train": len(train_ds), "n_val": len(val_ds), "dim": spec.dim},
            sort_keys=True,
        )
    )
    print(f"wrote {out / 'train.csv'} and {out / 'val.csv'}")
    return EXIT_OK


def cmd_train(cfg: dict, chash: str, out: Path, args) -> int:
    persona, tr = args.persona, cfg["train"]
    spec = build_spec(cfg)
    schedule = build_schedule(cfg)
    model = nn.init_mlp([spec.dim, *tr["hidden"], spec.n_classes], tr["activation"], seed=_seed(cfg, f"init-{persona}"))
    train_ds = _dataset(cfg, spec, "train")
    with np.errstate(all="ignore"):  # a diverging run ends in TrainingDiverged, reported by main
        result = nn.train(
            model,
            train_ds.points,
            train_ds.labels,
            schedule=schedule if persona == "robust" else None,
            epochs=tr["epochs"],
            batch_size=tr["batch_size"],
            lr=tr["lr"],
            seed=_seed(cfg, f"train-{persona}"),
        )
    path = _checkpoint_path(out, persona)
    nn.save_checkpoint(result.model, path)
    write_csv(out / f"loss_{persona}.csv", ["epoch", "loss"], enumerate(result.losses.tolist()), chash)
    print(f"wrote {path} (final loss {result.losses[-1] if len(result.losses) else float('nan'):.6f})")
    return EXIT_OK


def cmd_sensitivity(cfg: dict, chash: str, out: Path, args) -> int:
    stab = build_stabilizer(json.loads(args.stabilizer), "--stabilizer") if args.stabilizer else None
    if (args.metric == "stabilized_gradient") != (stab is not None):
        # a curve named and labelled after a stabilizer must be the stabilized one
        raise ConfigError("--stabilizer goes with --metric stabilized_gradient and with no other metric")
    dn, gcfg = _guided_setup(cfg, out)
    recipe = dataclasses.replace(gcfg, path=args.path, stabilizer=stab or gd.identity())
    val_ds = _dataset(cfg, dn.spec, "val")
    n = min(cfg["sensitivity"]["n"], len(val_ds))
    curve_obj = sens.curve(
        recipe, dn, val_ds.points[:n], val_ds.labels[:n], args.metric, seed=_seed(cfg, "sensitivity-eps")
    )
    stab_tag = "_" + _file_tag(stab) if stab else ""
    stem = f"sensitivity_{args.metric}_{args.path}{stab_tag}"
    sens.save_curve_csv(curve_obj, out / f"{stem}.csv", chash)
    label = f"{args.metric} ({args.path})"
    _svg_line_plot(label, curve_obj.t, curve_obj.mean, f"{args.metric} over t [{chash}]", out / f"{stem}.svg")
    print(f"wrote {out / (stem + '.csv')}")
    if curve_obj.degenerate:
        print("warning: curve is degenerate (all pairs undefined)")
    return EXIT_OK


def cmd_sample(cfg: dict, chash: str, out: Path, args) -> int:
    dn, gcfg = _guided_setup(cfg, out)
    batch = gd.sample_batch(dn, dn.schedule, gcfg, cfg["sample"]["n"], _seed(cfg, "sample-chains"))
    header = [f"x{i}" for i in range(dn.dim)] + ["diverged", "seed", "config_hash"]
    rows = (x + [int(div), cfg["seed"], chash] for x, div in zip(batch.samples.tolist(), batch.diverged.tolist()))
    write_csv(out / "samples.csv", header, rows)
    kept = batch.kept()
    if len(kept) == 0:
        print("error: every chain diverged; no metrics to report", file=sys.stderr)
        return EXIT_ALL_DIVERGED
    report = mtr.evaluate(
        kept,
        dn.spec,
        gcfg.target_class,
        gcfg.classifier,
        seed=_seed(cfg, "sample-eval"),
        n_diverged=batch.n_diverged,
        config_hash=chash,
    )
    (out / "metrics.json").write_text(report.to_json())
    print(f"wrote {out / 'samples.csv'} and {out / 'metrics.json'}")
    print(report.to_json())
    return EXIT_OK


def cmd_sweep(cfg: dict, chash: str, out: Path, args) -> int:
    dn, gcfg = _guided_setup(cfg, out)
    rows = mtr.sweep(
        dn,
        dn.schedule,
        gcfg,
        cfg["sweep"]["scales"],
        cfg["sweep"]["n_per_scale"],
        _seed(cfg, "sweep-chains"),
    )
    label = f"{cfg['guidance']['classifier']}_{gcfg.path}_{_file_tag(gcfg.stabilizer)}"
    csv_path = out / f"sweep_{label}.csv"
    mtr.save_sweep_csv(rows, csv_path, chash)
    scales = np.array([s for s, _ in rows])
    for field, fname in [
        ("target_accuracy_oracle", "accuracy"),
        ("fd", "fd"),
        ("cfd", "cfd"),
    ]:
        vals = np.array([getattr(r, field) for _, r in rows])
        _svg_line_plot(field, scales, vals, f"{field} vs scale [{chash}]", out / f"sweep_{label}_{fname}.svg")
    print(f"wrote {csv_path}")
    if all(r.n_samples == 0 for _, r in rows):
        print("error: every chain diverged at every scale", file=sys.stderr)
        return EXIT_ALL_DIVERGED
    return EXIT_OK


def cmd_report(out: Path, fmt: str) -> int:
    """Consolidate sweep CSVs under the output directory and flag the best
    setup: minimum cfd among rows with oracle accuracy >= 0.95."""
    rows = []
    for path in sorted(out.glob("sweep_*.csv")):
        with open(path) as f:
            lines = [ln.split(",") for ln in f.read().splitlines() if not ln.startswith("#")]
        if not lines or not set(mtr.SWEEP_COLUMNS) <= set(lines[0]):
            raise ConfigError(f"{path}: header lacks the sweep columns {list(mtr.SWEEP_COLUMNS)}")
        header = lines[0]
        for fields in lines[1:]:
            if len(fields) != len(header):
                raise ConfigError(f"{path}: a row has {len(fields)} fields, the header {len(header)}")
            vals = dict(zip(header, fields))
            try:
                row = {key: conv(vals[key]) for key, conv in mtr.SWEEP_COLUMNS.items()}
            except ValueError as e:
                raise ConfigError(f"{path}: {e}") from e
            rows.append({"setup": path.stem.removeprefix("sweep_"), **row})
    if not rows:
        print("error: no sweep outputs found", file=sys.stderr)
        return EXIT_CONFIG
    eligible = [r for r in rows if np.isfinite(r["cfd"]) and r["acc_oracle"] >= 0.95]
    best = min(eligible, key=lambda r: r["cfd"]) if eligible else None
    summary = {"n_rows": len(rows), "best": best, "rows": rows}
    if fmt == "json":
        (out / "report.json").write_text(json_text(summary, sort_keys=True, indent=1))
        print(f"wrote {out / 'report.json'}")
    else:
        header = ["setup", *mtr.SWEEP_COLUMNS, "best"]
        write_csv(out / "report.csv", header, ([r[k] for k in header[:-1]] + [int(r is best)] for r in rows))
        print(f"wrote {out / 'report.csv'}")
    if best:
        print(f"best setup: {best['setup']} at s={best['s']} (cfd={best['cfd']:.4f}, acc={best['acc_oracle']:.4f})")
    else:
        print("no setup reached oracle accuracy >= 0.95")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="diffguide", description=__doc__)
    parser.add_argument("--config", default=None, help="experiment config JSON (defaults built in)")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the master seed")
    parser.add_argument("--format", choices=["csv", "json"], default="csv", help="report output format")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("gen-data", help="write train/val datasets as CSV").set_defaults(run=cmd_gen_data)
    p_train = sub.add_parser("train", help="train one classifier persona")
    p_train.add_argument("--persona", choices=PERSONAS, required=True)
    p_train.set_defaults(run=cmd_train)
    p_sens = sub.add_parser("sensitivity", help="sensitivity curve CSV + SVG")
    p_sens.add_argument("--metric", choices=sens._METRICS, default="gradient")
    p_sens.add_argument("--path", choices=gd._PATHS, default="raw")
    p_sens.add_argument("--stabilizer", default=None, help='JSON, e.g. {"kind":"ema","beta":0.99}')
    p_sens.set_defaults(run=cmd_sensitivity)
    sub.add_parser("sample", help="guided sample batch + metrics").set_defaults(run=cmd_sample)
    sub.add_parser("sweep", help="guidance scale sweep + plots").set_defaults(run=cmd_sweep)
    sub.add_parser("report", help="consolidate sweeps, flag the best setup")

    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse has printed the usage or help; exit 2 is kept for "every chain diverged"
        return EXIT_CONFIG if e.code else EXIT_OK
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        print(f"error: cannot create output directory: {e}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.command == "report":
            return cmd_report(out, args.format)
        cfg, chash = load_config(args.config, args.seed)
        return args.run(cfg, chash, out, args)
    except (ConfigError, ValueError, RecursionError) as e:
        # every ValueError raised below main is an input-validation failure,
        # and a RecursionError comes only from parsing deeply nested JSON input
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as e:
        # a config too large for this machine, such as a huge schedule.T
        print(f"config error: out of memory: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as e:
        # an input or artifact path that cannot be read or written, such as a directory
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except nn.TrainingDiverged as e:
        print(f"error: training diverged: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads and the output checks run on each job's artifacts.

A workload is a closed loop of one client: its set-up steps run (repeatedly,
to time them), then its job runs back to back, each step a call of
``diffguide.cli.main`` with the arguments a user would type. Configs are written to files next to the
output directories and passed with ``--config``; the workload seed reaches
the program only through ``--seed``.

Every check returns a list of failure messages and must hold for any seed.
"""

import csv
import hashlib
import io
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from diffguide import cli, guidance, metrics, nn
from diffguide.denoiser import AnalyticDenoiser

SWEEP_SCALES = [0.0, 1.0, 5.0, 20.0]
# Job sizes: a run's mean needs many jobs in its window, so each job takes
# about 2 s at most. At 500 chains per scale a sweep job took 4 s, and its
# runs spread twice as much as at 250 (10% against 4.4% over six seeds).
SWEEP_CHAINS = 250  # per scale
SAMPLE_CHAINS = 1000
SENSITIVITY_N = 250
SHARD = 128  # chains in the reversed-shard determinism checks
MIN_ORACLE_ACCURACY = 0.95


@dataclass(frozen=True)
class Step:
    args: list[str]  # the subcommand and its options
    config: str = "main"  # key into Workload.configs
    out: str = "."  # output directory, relative to the run's directory


@dataclass(frozen=True)
class Workload:
    name: str
    configs: dict[str, dict]
    setup: list[Step]
    job: list[Step]
    work: int  # row-steps per job, the unit of row_steps_per_s
    check: Callable  # (Run) -> list of failure messages
    chains: Callable | None = None  # (Run) -> (chains run, chains diverged), sampling only


@dataclass
class Run:
    """One workload's directory, configs and seed, as a check sees them."""

    root: Path
    seed: int
    artifacts: dict[str, bytes] = field(default_factory=dict)

    def config_path(self, key: str) -> Path:
        return self.root / f"config_{key}.json"

    def argv(self, step: Step) -> list[str]:
        out = self.root / "out" / step.out
        return ["--config", str(self.config_path(step.config)), "--out", str(out), "--seed", str(self.seed)] + step.args

    def text(self, name: str) -> str:
        return self.artifacts[name].decode()

    def context(self):
        """Config, hash, denoiser and guidance config as the CLI builds them."""
        cfg, chash = cli.load_config(str(self.config_path("main")), self.seed)
        spec = cli.build_spec(cfg)
        schedule = cli.build_schedule(cfg)
        dn = AnalyticDenoiser(spec, schedule)
        handle = cli._load_classifier(cfg, self.root / "out", spec)
        return cfg, chash, dn, cli.build_guidance_config(cfg, handle)


def digest(artifacts: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name in sorted(artifacts):
        h.update(name.encode() + b"\0" + hashlib.sha256(artifacts[name]).digest())
    return h.hexdigest()[:16]


def _data_lines(text: str) -> list[str]:
    return [ln for ln in text.splitlines() if not ln.startswith("#")]


def _data_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO("\n".join(_data_lines(text)))))


def _rows_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _reversed_shard(n: int) -> list[int]:
    return list(range(n - 1, n - 1 - SHARD, -1))


# -- sweep-x0pred-ema ----------------------------------------------------------


def _sweep_csv(run: Run) -> str:
    names = [n for n in run.artifacts if n.startswith("sweep_") and n.endswith(".csv")]
    if len(names) != 1:
        raise ValueError(f"expected one sweep CSV, found {names}")
    return names[0]


def check_sweep(run: Run) -> list[str]:
    failures = []
    rows = _data_rows(run.text(_sweep_csv(run)))
    if [float(r["s"]) for r in rows] != SWEEP_SCALES:
        return [f"sweep scales {[r['s'] for r in rows]} != {SWEEP_SCALES}"]
    for r in rows[1:]:
        if float(r["acc_oracle"]) < MIN_ORACLE_ACCURACY or int(r["n_diverged"]) != 0:
            failures.append(f"scale {r['s']}: oracle accuracy {r['acc_oracle']}, {r['n_diverged']} diverged")

    # scale 0 must be the unguided sampler, bit for bit, metrics included
    cfg, chash, dn, gcfg = run.context()
    seed = cli._seed(cfg, "sweep-chains")
    n = cfg["sweep"]["n_per_scale"]
    plain = guidance.unconditional_batch(dn, dn.schedule, n, seed)
    report = metrics.evaluate(
        plain.kept(), dn.spec, gcfg.target_class, gcfg.classifier,
        seed=seed, n_diverged=plain.n_diverged, config_hash=chash,
    )
    reference = run.root / "scale0.csv"
    metrics.save_sweep_csv([(0.0, report)], reference, chash)
    expected = _data_lines(reference.read_text())[1]
    got = _data_lines(run.text(_sweep_csv(run)))[1]
    if got != expected:
        failures.append(f"scale-0 row {got!r} != unguided batch {expected!r}")

    # a reversed shard of chains through the guided code path reproduces them
    shard = _reversed_shard(n)
    part = guidance.sample_batch(dn, dn.schedule, replace(gcfg, scale=0.0), SHARD, seed, chain_indices=shard)
    if not _rows_equal(part.samples, plain.samples[shard]):
        failures.append("reversed shard at scale 0 differs from the unguided rows")
    return failures


def sweep_chains(run: Run) -> tuple[int, int]:
    rows = _data_rows(run.text(_sweep_csv(run)))
    diverged = sum(int(r["n_diverged"]) for r in rows)
    return sum(int(r["n"]) for r in rows) + diverged, diverged


# -- sample-oracle-raw ---------------------------------------------------------


def _samples(run: Run) -> tuple[np.ndarray, np.ndarray]:
    rows = _data_rows(run.text("samples.csv"))
    dim = sum(1 for k in rows[0] if k.startswith("x"))
    points = np.array([[float(r[f"x{i}"]) for i in range(dim)] for r in rows])
    return points, np.array([int(r["diverged"]) for r in rows], dtype=bool)


def check_sample(run: Run) -> list[str]:
    failures = []
    report = json.loads(run.text("metrics.json"))
    if report["target_accuracy_oracle"] < MIN_ORACLE_ACCURACY or report["n_diverged"] != 0:
        failures.append(
            f"oracle accuracy {report['target_accuracy_oracle']}, {report['n_diverged']} diverged"
        )
    points, diverged = _samples(run)
    cfg, _, dn, gcfg = run.context()
    if len(points) != cfg["sample"]["n"] or diverged.any():
        failures.append(f"{len(points)} sample rows, {int(diverged.sum())} diverged")
        return failures
    shard = _reversed_shard(len(points))
    part = guidance.sample_batch(
        dn, dn.schedule, gcfg, SHARD, cli._seed(cfg, "sample-chains"), chain_indices=shard
    )
    if not _rows_equal(part.samples, points[shard]):
        failures.append("reversed shard differs from the written samples")
    return failures


def sample_chains(run: Run) -> tuple[int, int]:
    _, diverged = _samples(run)
    return len(diverged), int(diverged.sum())


# -- sensitivity-x0pred --------------------------------------------------------


def check_sensitivity(run: Run) -> list[str]:
    failures = []
    names = sorted(n for n in run.artifacts if Path(n).name.startswith("sensitivity_") and n.endswith(".csv"))
    if len(names) != 3:
        return [f"expected 3 sensitivity curves, found {names}"]
    for name in names:
        rows = _data_rows(run.text(name))
        bad = [
            r["t"]
            for r in rows
            if int(r["count"]) != SENSITIVITY_N
            or not np.isfinite(float(r["mean"]))
            or not np.isfinite(float(r["std"]))
        ]
        if len(rows) != _T - 1 or bad:
            failures.append(f"{name}: {len(rows)} steps, not finite or short at t={bad[:5]}")
    return failures


# -- train-personas ------------------------------------------------------------


def _clean_loss(model, dataset) -> float:
    logits = nn.forward(model, dataset.points)
    return -float(np.mean(nn.log_softmax_target(logits, dataset.labels)))


def check_train(run: Run) -> list[str]:
    """Each persona's cross-entropy on the clean training set is lower for
    the trained weights than for the initial ones. Per-epoch losses cannot
    show this: the robust persona's noisy loss plateaus within epoch 0."""
    failures = []
    cfg, _ = cli.load_config(str(run.config_path("main")), run.seed)
    spec = cli.build_spec(cfg)
    train_ds, _ = cli._datasets(cfg, spec)
    sizes = [spec.dim] + list(cfg["train"]["hidden"]) + [spec.n_classes]
    for persona in ("non_robust", "robust"):
        losses = [float(r["loss"]) for r in _data_rows(run.text(f"loss_{persona}.csv"))]
        path = run.root / f"check_classifier_{persona}.json"
        path.write_bytes(run.artifacts[f"classifier_{persona}.json"])
        trained = nn.load_checkpoint(path)
        if not all(np.all(np.isfinite(a)) for a in trained.weights + trained.biases):
            failures.append(f"{persona}: non-finite weights")
            continue
        initial = nn.init_mlp(sizes, cfg["train"]["activation"], seed=cli._seed(cfg, f"init-{persona}"))
        before, after = _clean_loss(initial, train_ds), _clean_loss(trained, train_ds)
        finite = bool(np.all(np.isfinite(losses)))
        if len(losses) != cfg["train"]["epochs"] or not finite or not after < before:
            failures.append(f"{persona}: clean loss {before} -> {after}; {len(losses)} epoch losses, finite {finite}")
    return failures


# -- the table -----------------------------------------------------------------

_DEFAULTS = cli.default_config()
_T = _DEFAULTS["schedule"]["T"]
_GEN = Step(["gen-data"])
_TRAIN_NR = Step(["train", "--persona", "non_robust"])

WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "sweep-x0pred-ema",
            {"main": {"sweep": {"scales": SWEEP_SCALES, "n_per_scale": SWEEP_CHAINS}}},
            setup=[_GEN, _TRAIN_NR],
            job=[Step(["sweep"])],
            work=SWEEP_CHAINS * _T * len(SWEEP_SCALES),
            check=check_sweep,
            chains=sweep_chains,
        ),
        Workload(
            "sample-oracle-raw",
            {
                "main": {
                    "guidance": {
                        "classifier": "bayes_oracle",
                        "path": "raw",
                        "scale": 1.0,
                        "stabilizer": {"kind": "identity"},
                    },
                    "sample": {"n": SAMPLE_CHAINS},
                }
            },
            setup=[_GEN],
            job=[Step(["sample"])],
            work=SAMPLE_CHAINS * _T,
            check=check_sample,
            chains=sample_chains,
        ),
        Workload(
            "sensitivity-x0pred",
            {
                "main": {"sensitivity": {"n": SENSITIVITY_N}},
                "robust": {"sensitivity": {"n": SENSITIVITY_N}, "guidance": {"classifier": "robust"}},
            },
            setup=[_GEN, _TRAIN_NR, Step(["train", "--persona", "robust"], "robust", "robust")],
            job=[
                Step(["sensitivity", "--metric", "gradient", "--path", "x0pred"]),
                Step(["sensitivity", "--metric", "gradient", "--path", "x0pred"], "robust", "robust"),
                Step(
                    ["sensitivity", "--metric", "stabilized_gradient", "--path", "x0pred"]
                    + ["--stabilizer", '{"kind": "ema", "beta": 0.99}']
                ),
            ],
            work=SENSITIVITY_N * (_T - 1) * 3,
            check=check_sensitivity,
        ),
        Workload(
            "train-personas",
            {"main": {}},
            setup=[_GEN],
            job=[_TRAIN_NR, Step(["train", "--persona", "robust"])],
            work=_DEFAULTS["data"]["n_train"] * _DEFAULTS["train"]["epochs"] * 2,
            check=check_train,
        ),
    ]
}

import csv
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import write_csv_rows
from test_cli import SMALL

from diffguide import guidance, metrics, nn, sensitivity
from diffguide.artifacts import write_csv
from diffguide.cli import EXIT_OK, _datasets, build_spec, load_config, main

# -- the column writer against the row writer -----------------------------------

_FLOATS = st.one_of(
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324, -2.5e-310, 1e308, -1e308]),
    st.floats(),
)
_INTS = st.one_of(st.sampled_from([-1, 0, 2**62, -(2**63)]), st.integers(-(2**63), 2**63 - 1))
# numpy drops a str's trailing NULs and no file encoding writes a lone surrogate
_TEXT = st.text(
    st.one_of(st.sampled_from(',"\n\r% '), st.characters(blacklist_categories=("Cs",), blacklist_characters="\0")),
    max_size=6,
)
_KINDS = ("float", "int", "str", "const_str", "const_int")


@st.composite
def _tables(draw):
    """(header, columns, rows, config_hash): one table as write_csv's columns
    and as the row writer's rows."""
    n = draw(st.integers(0, 5))
    kinds = draw(st.lists(st.sampled_from(_KINDS), min_size=1, max_size=5))
    if all(k.startswith("const") for k in kinds):
        kinds.append(draw(st.sampled_from(_KINDS[:3])))
    header = draw(st.lists(_TEXT, min_size=len(kinds), max_size=len(kinds)))
    columns, cells = [], []
    for kind in kinds:
        if kind == "const_str" or kind == "const_int":
            value = draw(_TEXT if kind == "const_str" else _INTS)
            columns.append(value)
            cells.append([value] * n)
            continue
        values = draw(st.lists({"float": _FLOATS, "int": _INTS, "str": _TEXT}[kind], min_size=n, max_size=n))
        dtype = {"float": np.float64, "int": np.int64, "str": str}[kind]
        columns.append(np.array(values, dtype=dtype))
        cells.append(values)
    rows = [list(row) for row in zip(*cells)] if n else []
    return header, columns, rows, draw(st.sampled_from(["", "86c2093f72057f26"]))


@settings(max_examples=300, deadline=None, database=None)
@given(_tables())
def test_write_csv_writes_the_row_writers_bytes(table):
    header, columns, rows, chash = table
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
        write_csv(got, header, columns, chash)
        write_csv_rows(want, header, rows, chash)
        assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize(
    "columns, match",
    [
        ([np.zeros(3), np.arange(2)], "column 'b' has 2 rows"),
        ([np.zeros(3), np.zeros((3, 1))], "column 'b' must be"),
        ([np.zeros(3), np.zeros(3, dtype=bool)], "column 'b' must be"),
        ([np.zeros(3), np.zeros(3, dtype=complex)], "column 'b' must be"),
        ([np.zeros(3), np.array([1, "x", 2.0], dtype=object)], "column 'b' must be"),
        ([np.zeros(3), [1.0, 2.0, 3.0]], "column 'b' must be"),
        ([np.zeros(3), True], "column 'b' must be"),
        ([np.zeros(3), 1.5], "column 'b' must be"),
        (["x", 3], r"columns \['a', 'b'\] hold no array"),
        ([np.zeros(3)], "1 columns for the 2 header names"),
    ],
    ids=["unequal", "2-D", "bool", "complex", "object", "list", "bool-const", "float-const", "no-array", "count"],
)
def test_write_csv_refuses_a_bad_column(tmp_path, columns, match):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match=match):
        write_csv(path, ["a", "b"], columns)
    assert not path.exists()


# -- each artifact CSV holds the rows the row writer was given ------------------

_ADAM = '{"kind":"adam","beta1":0.9,"beta2":0.999}'


def _spy(monkeypatch, module, name, seen):
    """Record every value module.name returns."""
    fn = getattr(module, name)

    def spied(*args, **kwargs):
        seen.append(fn(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(module, name, spied)


def _report_rows(out):
    """report.csv's rows as the CLI built them from the sweep CSVs: each
    value read by its column's type, and the best flag."""
    rows = []
    for path in sorted(out.glob("sweep_*.csv")):
        with open(path, newline="") as f:
            header, *lines = csv.reader(ln for ln in f if not ln.startswith("#"))
        for fields in lines:
            vals = dict(zip(header, fields))
            rows.append([path.stem.removeprefix("sweep_")] + [conv(vals[k]) for k, conv in metrics.SWEEP_COLUMNS.items()])
    eligible = [r for r in rows if np.isfinite(r[5]) and r[2] >= 0.95]
    best = min(eligible, key=lambda r: r[5]) if eligible else None
    return [r + [int(r is best)] for r in rows]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One small CLI run, and per CSV artifact its file, header, rows in the
    row writer's form and config hash."""
    tmp = tmp_path_factory.mktemp("artifacts")
    cfg_path, out = tmp / "cfg.json", tmp / "run"
    cfg_path.write_text(json.dumps(SMALL))
    seen = {"train": [], "sample": [], "sweep": [], "curve": []}
    with pytest.MonkeyPatch.context() as mp:
        _spy(mp, nn, "train", seen["train"])
        _spy(mp, guidance, "sample_batch", seen["sample"])
        _spy(mp, metrics, "sweep", seen["sweep"])
        _spy(mp, sensitivity, "curve", seen["curve"])
        for argv in (
            ["gen-data"],
            ["train", "--persona", "non_robust"],
            ["sample"],
            ["sweep"],
            ["sensitivity", "--metric", "stabilized_gradient", "--path", "raw", "--stabilizer", _ADAM],
        ):
            assert main(["--config", str(cfg_path), "--out", str(out), *argv]) == EXIT_OK
    # a setup name with a comma is quoted in the report, and a % stays a %
    sweep_csv = out / "sweep_non_robust_x0pred_ema-0.99.csv"
    shutil.copy(sweep_csv, out / "sweep_with,comma%d.csv")
    assert main(["--out", str(out), "report"]) == EXIT_OK

    cfg, chash = load_config(str(cfg_path))
    train_ds, _ = _datasets(cfg, build_spec(cfg))
    (losses,) = [r.losses for r in seen["train"]]
    (batch,) = seen["sample"]
    (sweep_rows,) = seen["sweep"]
    (c,) = seen["curve"]
    return {
        "dataset": (
            out / "train.csv",
            ["x0", "x1", "label"],
            [p + [y] for p, y in zip(train_ds.points.tolist(), train_ds.labels.tolist())],
            "",
        ),
        "loss": (out / "loss_non_robust.csv", ["epoch", "loss"], list(enumerate(losses.tolist())), chash),
        "samples": (
            out / "samples.csv",
            ["x0", "x1", "diverged", "seed", "config_hash"],
            [x + [int(d), SMALL["seed"], chash] for x, d in zip(batch.samples.tolist(), batch.diverged.tolist())],
            "",
        ),
        "sweep": (
            sweep_csv,
            list(metrics.SWEEP_COLUMNS),
            [
                [s, r.target_accuracy_oracle, r.target_accuracy_guiding, r.fd, r.cfd, r.n_samples, r.n_diverged]
                for s, r in sweep_rows
            ],
            chash,
        ),
        "curve": (
            out / "sensitivity_stabilized_gradient_raw_adam-0.9-0.999.csv",
            ["t", "mean", "std", "count", "metric", "path", "stabilizer"],
            [
                row + (c.metric, c.path, c.stabilizer)
                for row in zip(c.t.tolist(), c.mean.tolist(), c.std.tolist(), c.count.tolist())
            ],
            chash,
        ),
        "report": (out / "report.csv", ["setup", *metrics.SWEEP_COLUMNS, "best"], _report_rows(out), ""),
    }


@pytest.mark.parametrize("name", ["dataset", "loss", "samples", "sweep", "curve", "report"])
def test_artifact_csv_is_the_row_writers(pipeline, name, tmp_path):
    path, header, rows, chash = pipeline[name]
    want = tmp_path / "want.csv"
    write_csv_rows(want, header, rows, chash)
    assert len(rows) > 0
    assert path.read_bytes() == want.read_bytes()


def test_artifact_csvs_quote_the_cells_that_need_it(pipeline):
    curve_csv = pipeline["curve"][0].read_text()
    assert curve_csv.splitlines()[2].endswith(',stabilized_gradient,raw,"adam(0.9,0.999)"')
    setups = [r[0] for r in pipeline["report"][2]]
    assert setups == ["non_robust_x0pred_ema-0.99"] * 2 + ["with,comma%d"] * 2
    assert '\n"with,comma%d",' in pipeline["report"][0].read_text()

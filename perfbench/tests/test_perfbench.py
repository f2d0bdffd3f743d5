"""Tests of the benchmark's own machinery: span arithmetic, wrapper
installation and the output checks. The only program
run they make is one training of each persona (about a second)."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

_BENCH = Path(__file__).resolve().parents[1]
for _path in (_BENCH, _BENCH.parent / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import bench_layers  # noqa: E402
import bench_workloads as bw  # noqa: E402
from bench_clock import REF_S, RefClock, mean_ref_seconds  # noqa: E402
from bench_trace import Boundary, Span, Tracer, self_times  # noqa: E402

import diffguide  # noqa: E402
from diffguide import cli, classifier, guidance, nn, sensitivity  # noqa: E402
from diffguide.denoiser import AnalyticDenoiser  # noqa: E402


def test_self_times_subtract_direct_children():
    # cli [0, 10] > posterior [1, 4] > leaf [2, 3]; cli > nn [5, 9]; a second root
    spans = [
        Span("cli", 0.0, 10.0, -1),
        Span("denoiser.posterior", 1.0, 4.0, 0),
        Span("leaf", 2.0, 3.0, 1),
        Span("nn.input_gradient", 5.0, 9.0, 0),
        Span("denoiser.posterior", 11.0, 12.5, -1),
    ]
    own = self_times(spans)
    assert own == {"cli": 3.0, "denoiser.posterior": 3.5, "leaf": 1.0, "nn.input_gradient": 4.0}
    assert sum(own.values()) == pytest.approx(10.0 + 1.5)


def test_tracer_records_nesting_and_flattens_reentry():
    ticks = iter(range(100))
    tracer = Tracer([], package="diffguide", clock=lambda: float(next(ticks)))

    def inner(x):
        return x + 1

    outer_b = Boundary("m", "outer", "outer")
    inner_b = Boundary("m", "inner", "inner", count=lambda a, k: {"inner.rows": a[0]})
    wrapped_inner = tracer.wrap(inner, inner_b)
    wrapped_outer = tracer.wrap(lambda x: wrapped_inner(x) + wrapped_inner(x), outer_b)
    again = tracer.wrap(lambda x: wrapped_outer(x), outer_b)  # same layer re-entered

    assert again(3) == 8
    assert [(s.name, s.parent) for s in tracer.spans] == [("outer", -1), ("inner", 0), ("inner", 0)]
    assert tracer.counts == {"outer.calls": 1, "inner.calls": 2, "inner.rows": 6}


def test_ref_clock_pairs_each_call_with_its_flanking_readings():
    # readings 0.2 s, 0.4 s and 0.1 s around calls of 2 s and 1 s
    ticks = iter([0.0, 0.2, 1.0, 3.0, 3.0, 3.4, 4.0, 5.0, 5.0, 5.1])
    clock = RefClock(clock=lambda: next(ticks), reference=lambda: None)
    assert clock.time(lambda: "first") == ("first", 2.0, pytest.approx(0.3))
    assert clock.time(lambda: "second") == ("second", 1.0, pytest.approx(0.25))
    assert clock.ref_s == pytest.approx([0.2, 0.4, 0.1])
    # total time over total reference time, not the mean of per-call ratios
    assert mean_ref_seconds([2.0, 1.0], [0.3, 0.25]) == pytest.approx(REF_S * 3.0 / 0.55)


def _attributes():
    return {
        "nn.input_gradient": nn.input_gradient,
        "classifier.predict_logits": classifier.predict_logits,
        "sensitivity.predict_logits": sensitivity.predict_logits,
        "guidance.stabilize": guidance.stabilize,
        "sensitivity.stabilize": sensitivity.stabilize,
        "diffguide.stabilize": diffguide.stabilize,
        "cli.sample_dataset": cli.sample_dataset,
        "cli.main": cli.main,
        "AnalyticDenoiser._bundle": AnalyticDenoiser.__dict__["_bundle"],
        "numpy.einsum": np.einsum,
        "numpy.linalg.eigh": np.linalg.eigh,
    }


def test_wrappers_cover_aliases_and_restore_originals():
    before = _attributes()
    tracer = Tracer(bench_layers.BOUNDARIES, package="diffguide")
    with pytest.raises(RuntimeError, match="inside"):
        with tracer.installed():
            during = _attributes()
            # names imported by name into other modules are wrapped too
            assert all(during[k] is not before[k] for k in before)
            assert sensitivity.stabilize is guidance.stabilize
            state = guidance.init_stabilizer_state((2, 2))
            sensitivity.stabilize(state, guidance.ema(0.9), np.ones((2, 2)))
            assert tracer.counts["guidance.stabilize.calls"] == 1
            raise RuntimeError("inside")
    after = _attributes()
    assert all(after[k] is before[k] for k in before)


def test_layer_metrics_on_a_traced_sample():
    spec = diffguide.two_class_benchmark()
    schedule = diffguide.linear_schedule(20, 1e-4, 0.02)
    dn = AnalyticDenoiser(spec, schedule)
    cfg = guidance.GuidanceConfig(classifier.bayes_oracle(spec), target_class=1, path="raw")
    tracer = Tracer(bench_layers.BOUNDARIES, package="diffguide")
    with tracer.installed():
        guidance.sample_batch(dn, schedule, cfg, 8, seed=0)
    m = bench_layers.layer_metrics(tracer.spans, tracer.counts)
    assert m["denoiser.posterior.calls"] == 20
    assert m["denoiser.posterior.rows"] == 160
    assert m["denoiser.posterior.passes_per_gradient"] == 1.0
    assert m["classifier.oracle.calls"] == 20
    assert m["classifier.oracle.eigh_calls"] > 0
    assert m["nn.input_gradient.calls"] == 0
    assert m["guidance.noise.substreams"] == 8
    assert m["guidance.step.self_s"] > 0


def _run(artifacts: dict[str, str]) -> bw.Run:
    return bw.Run(Path("."), 0, {k: v.encode() for k, v in artifacts.items()})


def test_train_check_rejects_perturbed_outputs(tmp_path):
    run = bw.Run(tmp_path, 3)
    run.config_path("main").write_text("{}")
    for step in bw.WORKLOADS["train-personas"].job:
        assert cli.main(run.argv(step)) == 0
    out = tmp_path / "out"
    good = {p.name: p.read_bytes() for p in out.iterdir()}
    run.artifacts = good
    assert bw.check_train(run) == []

    untrained = nn.init_mlp([2, 64, 64, 2], seed=cli._seed(cli.load_config(None, 3)[0], "init-robust"))
    nn.save_checkpoint(untrained, out / "untrained.json")
    broken = json.loads(good["classifier_non_robust.json"])
    broken["weights"][0][0] = "nan"
    short = good["loss_robust.csv"].decode().rsplit("\n", 2)[0] + "\n"
    for name, data in [
        ("classifier_robust.json", (out / "untrained.json").read_bytes()),
        ("classifier_non_robust.json", json.dumps(broken).encode()),
        ("loss_robust.csv", short.encode()),
    ]:
        run.artifacts = {**good, name: data}
        assert bw.check_train(run), name


def _curve(mean="0.5", count=bw.SENSITIVITY_N):
    rows = "".join(f"{t},{mean},0.1,{count},gradient,x0pred,none\n" for t in range(2, 401))
    return "# config_hash: x\nt,mean,std,count,metric,path,stabilizer\n" + rows


def test_sensitivity_check_rejects_perturbed_outputs():
    names = [
        "sensitivity_gradient_x0pred.csv",
        "robust/sensitivity_gradient_x0pred.csv",
        "sensitivity_stabilized_gradient_x0pred_ema-0.99.csv",
    ]
    good = {n: _curve() for n in names}
    assert bw.check_sensitivity(_run(good)) == []
    assert bw.check_sensitivity(_run({**good, names[1]: _curve(mean="nan")}))
    assert bw.check_sensitivity(_run({**good, names[2]: _curve(count=499)}))
    assert bw.check_sensitivity(_run({n: good[n] for n in names[:2]}))


def test_digest_changes_with_one_byte():
    arts = {"a.csv": b"1,0.25\n", "b.svg": b"<svg/>"}
    assert bw.digest(arts) == bw.digest(dict(reversed(arts.items())))
    assert bw.digest(arts) != bw.digest({**arts, "a.csv": b"1,0.26\n"})


"""Run one diffguide benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep-x0pred-ema --seed 1 --seconds 24 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. The process sets up (several times, reporting the median), runs
one untimed warm-up job, then runs jobs back to back for ``--seconds``,
checks the outputs and prints one JSON object as its last line. Times are
in reference seconds (see bench_clock.py). With ``--trace 1`` it alternates
untraced and traced jobs and reports the per-layer metrics instead. See
perfbench/README.md.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

# Pin BLAS threads before numpy loads (main imports it): with the library
# default, the first training repeats of a process are slower than the later ones.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
# set-up repeats until both limits are reached; its median is setup_s
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 0.3


def _git_commit() -> str:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    src = hashlib.sha256()
    for path in sorted((SRC / "diffguide").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "commit": _git_commit(),
        "src_sha256": src.hexdigest()[:16],
    }


def _artifacts(out: Path, keep: set[str]) -> dict[str, bytes]:
    files = (p for p in sorted(out.rglob("*")) if p.is_file())
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in files if p.relative_to(out).as_posix() not in keep}


def _clear(out: Path, keep: set[str]) -> None:
    for name in _artifacts(out, keep):
        (out / name).unlink()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "diffguide" / "cli.py").is_file():
        print(f"error: no diffguide sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    # the package and the modules that wrap it load only once src/ is on the path
    sys.path.insert(0, str(SRC))
    import numpy as np

    from diffguide import cli

    import bench_clock
    import bench_layers
    import bench_trace
    import bench_workloads as bw

    if args.workload not in bw.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(bw.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = bw.WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer = bench_trace.Tracer(bench_layers.BOUNDARIES, package="diffguide")

    def run_steps(run, steps) -> bool:
        """Each step calls the CLI in process; the job fails on any nonzero exit or raise."""
        try:
            for step in steps:
                with contextlib.redirect_stdout(io.StringIO()):
                    if cli.main(run.argv(step)) != 0:
                        return False
            return True
        except Exception:
            traceback.print_exc()
            return False

    WORK.mkdir(exist_ok=True)
    run = bw.Run(Path(tempfile.mkdtemp(prefix="run-", dir=WORK)), args.seed)
    try:
        for key, config in workload.configs.items():
            run.config_path(key).write_text(json.dumps(config))
        out = run.root / "out"

        bench_clock.kernel()  # the first call pays for numpy's lazy set-up
        clock = bench_clock.RefClock()
        setup_wall, setup_s, setup_ok = [], [], True
        while len(setup_wall) < SETUP_MIN_REPEATS or sum(setup_wall) < SETUP_MIN_SECONDS:
            shutil.rmtree(out, ignore_errors=True)
            ok, wall, ref = clock.time(lambda: run_steps(run, workload.setup))
            setup_ok &= ok
            setup_wall.append(wall)
            setup_s.append(bench_clock.ref_seconds(wall, ref))
        keep = set(_artifacts(out, set()))

        # timed only so that a reference reading directly precedes the first timed job
        warm_ok = setup_ok and clock.time(lambda: run_steps(run, workload.job))[0]
        run.artifacts = _artifacts(out, keep)
        reference = bw.digest(run.artifacts)

        wall_s = {False: [], True: []}
        ref_s = {False: [], True: []}  # mean of each job's flanking reference readings
        traces = []
        attempted = failed = 0
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and attempted % 2 == 1
            _clear(out, keep)
            tracer.reset()

            def job():
                # the reference readings stay outside the tracer
                with tracer.installed() if traced else contextlib.nullcontext():
                    return run_steps(run, workload.job)

            ok, wall, ref = clock.time(job)
            wall_s[traced].append(wall)
            ref_s[traced].append(ref)
            if traced:
                traces.append((tracer.spans, tracer.counts))
            attempted += 1
            failed += not (ok and bw.digest(_artifacts(out, keep)) == reference)
            if time.perf_counter() - start >= args.seconds and (traces or not args.trace):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        try:
            failures = workload.check(run) if warm_ok else ["set-up or warm-up job failed"]
            chains, diverged = workload.chains(run) if warm_ok and workload.chains else (0, 0)
        except Exception as e:
            traceback.print_exc()
            failures, chains, diverged = [f"output check raised {e!r}"], 0, 0
        if failures:
            failed = attempted
            for f in failures:
                print(f"check failed: {f}", file=sys.stderr)

        job_s = {
            traced: bench_clock.mean_ref_seconds(wall_s[traced], ref_s[traced])
            for traced in wall_s
            if wall_s[traced]
        }
        if args.trace:
            layers = [bench_layers.layer_metrics(spans, counts) for spans, counts in traces]
            values = {k: statistics.median(d[k] for d in layers) for k in layers[0]}
            values["guidance.diverged_frac"] = diverged / chains if chains else 0.0
            values["trace.job_s"] = job_s[True]
            values["trace.overhead_frac"] = job_s[True] / job_s[False] - 1.0
            names = spec["per_layer"]
            spans = [dataclasses.asdict(s) for s in traces[-1][0]]
            (WORK / f"trace-{workload.name}-seed{args.seed}.json").write_text(json.dumps(spans))
        else:
            values = {
                "setup_s": statistics.median(setup_s),
                "job_s": job_s[False],
                "row_steps_per_s": workload.work / job_s[False],
                "peak_rss_mb": peak_rss_mb,
            }
            names = spec["end_to_end"]

        info = {
            "workload": workload.name,
            "seed": args.seed,
            "env": environment(np),
            "digest": reference,
            "ref_s": bench_clock.REF_S,
            "reference_wall_s": clock.ref_s,
            "setup_wall_s": setup_wall,
            "setup_s": setup_s,
            "job_wall_s": wall_s[False],
            "job_reference_wall_s": ref_s[False],
            "traced_job_wall_s": wall_s[True],
            "traced_job_reference_wall_s": ref_s[True],
            "failures": failures,
        }
        print("info " + json.dumps(info))
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(run.root, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

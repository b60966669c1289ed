#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the cellwave CLI.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload spectrum-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 7

Each workload is a fixed sequence of ``cellwave.cli.main`` calls (one
"pass"), run in this process, one pass at a time (a closed loop with one
client).  The benchmark first runs a shortened warm-up of the same
subcommands, then times complete passes, at least ``MIN_PASSES`` of them,
until the next one would end past ``--seconds``, reports the median pass, and afterwards checks the outputs
(see ``oracles.py``).  Set-up time is measured in fresh interpreters before
the warm-up.  With ``--trace 1`` untraced and traced passes alternate; the
traced ones give the per-layer metrics (``layers.py``), and their spans are
written to ``.perfbench_out/`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import filecmp
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIG = ROOT / "configs" / "default.json"
OUT = ROOT / ".perfbench_out"

#: Workload -> one pass: (output label, CLI arguments after the config).
WORKLOADS = {
    "spectrum-sweep": [("resting-state", ["resting-state"]),
                       ("dispersion", ["dispersion"])],
    "branch-trace": [("branch-N64", ["branch"]),
                     ("branch-N128", ["branch", "--set", "analysis.N=128"])],
    "acceptance": [("verify", ["verify"])],
}

#: The same subcommands on small inputs: fills the package's caches (the
#: collocation tables, numpy's lazy set-up) before the first timed pass.
_SMALL_SPECTRUM = ["--set", "analysis.mode_max=2",
                   "--set", "analysis.chi_c_grid=[1.0,2.0]"]
_SHORT_BRANCH = ["--set", "analysis.V_max=0.02"]
WARMUP = {
    "spectrum-sweep": [["resting-state", *_SMALL_SPECTRUM],
                       ["dispersion", *_SMALL_SPECTRUM]],
    "branch-trace": [["branch", *_SHORT_BRANCH],
                     ["branch", *_SHORT_BRANCH, "--set", "analysis.N=128"]],
    "acceptance": [["resting-state", *_SMALL_SPECTRUM],
                   ["branch", *_SHORT_BRANCH]],
}

#: Fewest timed passes per run, so that the median is not a mean of two.
MIN_PASSES = 3

#: Fresh interpreters started per run to measure set-up, half before the
#: passes and half after them, so that the median spans the whole run.
SETUP_REPEATS = 10

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=20230915,
                        help="becomes analysis.seed (default: the config's)")
    parser.add_argument("--seconds", type=float, default=24.0,
                        help="length of the timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Environment record.
# ---------------------------------------------------------------------------

def _blas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded."""
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy as np

    import cellwave._kernels as kernels

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernel_path": "numba" if kernels.NUMBA_ENABLED else "numpy",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


# ---------------------------------------------------------------------------
# Passes.
# ---------------------------------------------------------------------------

def run_commands(cli, commands, outdir: Path, seed: int) -> list[str]:
    """Run CLI commands in order, each into outdir/<label>; return errors."""
    errors = []
    for label, argv in commands:
        full = [argv[0], "-c", str(CONFIG), "-o", str(outdir / label),
                "--set", f"analysis.seed={seed}", *argv[1:]]
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                rc = cli.main(full)
            except Exception:
                errors.append(f"{label}: {traceback.format_exc()}")
                continue
        if rc != 0:
            errors.append(f"{label}: exit code {rc}")
    return errors


def same_outputs(first: Path, other: Path) -> list[str]:
    """Byte comparison of every file two passes wrote."""
    names = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
    others = sorted(p.relative_to(other) for p in other.rglob("*") if p.is_file())
    if names != others:
        return [f"{other.name} wrote {others}, {first.name} wrote {names}"]
    return [f"{other.name}/{n} differs from {first.name}/{n}" for n in names
            if not filecmp.cmp(first / n, other / n, shallow=False)]


def check_outputs(workload: str, passdir: Path) -> list[str]:
    import oracles

    model = oracles.Model(json.loads(CONFIG.read_text()))
    if workload == "spectrum-sweep":
        return (oracles.check_resting_state(
                    model, passdir / "resting-state" / "resting_state.json")
                + oracles.check_dispersion(
                    model, passdir / "dispersion" / "dispersion.csv"))
    if workload == "branch-trace":
        return oracles.check_branch(
            model, [passdir / label for label, _ in WORKLOADS[workload]])
    return oracles.check_verify(passdir / "verify" / "verify_report.json")


def measure_setup(seed: int, repeats: int) -> list[float]:
    times = []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC),
             str(CONFIG), str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def run_workload(args) -> dict:
    sys.path.insert(0, str(SRC))
    import cellwave.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"cellwave was imported from {cli.__file__}, "
                         f"not from {SRC}")
    import layers

    env = environment()
    print("env " + json.dumps(env), flush=True)
    metrics = {}
    setup = [] if args.trace else measure_setup(args.seed, SETUP_REPEATS // 2)

    rundir = OUT / f"run-{args.workload}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    warm = [(f"warm{i}", argv) for i, argv in enumerate(WARMUP[args.workload])]
    errors = run_commands(cli, warm, rundir / "warmup", args.seed)

    tracer = layers.Tracer() if args.trace else None
    walls = {False: [], True: []}
    layer_rows = []
    pass_errors = []
    start = time.perf_counter()
    while True:
        k = len(pass_errors)
        traced = tracer is not None and k % 2 == 1
        if traced:
            tracer.install()
            tracer.begin_pass()
        t0 = time.perf_counter()
        errs = run_commands(cli, WORKLOADS[args.workload],
                            rundir / f"pass{k}", args.seed)
        wall = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
            layer_rows.append(tracer.layer_metrics())
        walls[traced].append(wall)
        pass_errors.append(errs)
        print(f"pass {k}{' traced' if traced else ''}: {wall:.4f} s",
              flush=True)
        done = len(pass_errors) >= MIN_PASSES
        if done and time.perf_counter() - start + wall > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not args.trace:
        setup += measure_setup(args.seed, SETUP_REPEATS - len(setup))

    # Checks, outside the timed window: the first pass against the oracles,
    # every later pass byte for byte against the first.
    first = rundir / "pass0"
    oracle_errors = check_outputs(args.workload, first) if not pass_errors[0] \
        else []
    for k in range(len(pass_errors)):
        if k > 0 and not pass_errors[k]:
            pass_errors[k] += same_outputs(first, rundir / f"pass{k}")
        if oracle_errors:
            pass_errors[k] += oracle_errors
    failed = sum(1 for errs in pass_errors if errs)
    for errs in [errors, *pass_errors]:
        for err in errs[:5]:
            print("FAIL " + err, file=sys.stderr)

    if args.trace:
        for name in layer_rows[0]:
            metrics[name] = statistics.median(row[name] for row in layer_rows)
        metrics["trace.wall_s"] = statistics.median(walls[True])
        metrics["trace.overhead_s"] = (metrics["trace.wall_s"]
                                       - statistics.median(walls[False]))
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        units = {name: unit for name, (unit, _) in layers.PER_LAYER.items()}
    else:
        metrics["setup_s"] = statistics.median(setup)
        metrics["wall_s"] = statistics.median(walls[False])
        metrics["peak_rss_mb"] = peak_rss_mb
        units = END_TO_END
    shutil.rmtree(rundir, ignore_errors=True)

    result = {
        "correct": failed == 0 and not errors,
        "attempted": len(pass_errors),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed,
                  trace=args.trace, env=env, pass_walls=walls[False],
                  traced_pass_walls=walls[True])
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")
    return result


def run_all(args) -> dict:
    """Every workload, untraced then traced, each in its own process."""
    summary = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            out = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=600)
            sys.stderr.write(out.stderr)
            if out.returncode != 0:
                raise SystemExit(f"{workload} (trace {trace}) exited with "
                                 f"code {out.returncode}")
            summary[f"{workload}.trace{trace}"] = json.loads(
                out.stdout.strip().splitlines()[-1])
    for workload in WORKLOADS:
        res = summary[f"{workload}.trace0"]
        line = "  ".join(f"{name}={m['value']:.4g} {m['unit']}"
                         for name, m in res["metrics"].items())
        print(f"{workload:15s} correct={res['correct']} "
              f"failed={res['failed']}/{res['attempted']}  {line}")
    OUT.mkdir(exist_ok=True)
    (OUT / f"summary-seed{args.seed}.json").write_text(
        json.dumps(summary, indent=1) + "\n")
    print(f"per-layer metrics in {OUT / f'summary-seed{args.seed}.json'}")
    runs = summary.values()
    return {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {f"{w}.{name}": m
                    for w in WORKLOADS
                    for name, m in summary[f"{w}.trace0"]["metrics"].items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in (SRC / "cellwave" / "__init__.py", CONFIG)
               if not p.is_file()]
    if missing:
        print(f"cannot benchmark: {', '.join(map(str, missing))} missing",
              file=sys.stderr)
        return 2
    result = run_all(args) if args.workload == "all" else run_workload(args)
    if args.workload != "all":
        for name, m in result["metrics"].items():
            print(f"{name} = {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

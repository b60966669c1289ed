"""The benchmark's view of the package must stay valid.

``perfbench/layers.py`` replaces functions by name when it traces a run,
and ``perfbench/run.py`` drives the CLI with fixed argument lists; a renamed
function, CLI option or config key would crash the benchmark instead of
failing here.
"""

import importlib
import importlib.util
from pathlib import Path

from cellwave.cli import build_parser
from cellwave.config import load_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_names_resolve():
    targets = _load("layers").TARGETS
    assert targets
    missing = [(mod, attr) for mod, attr, _ in targets
               if not callable(getattr(importlib.import_module(mod), attr,
                                       None))]
    assert missing == []


def test_kernel_path_flag_exists():
    from cellwave import _kernels
    assert isinstance(_kernels.NUMBA_ENABLED, bool)


def test_workload_commands_parse_and_validate():
    # Each pass and warm-up command, as run.py builds it, parses with the
    # CLI's own parser, and its --set overrides validate on its config.
    run = _load("run")
    seed = run.parse_args(["--workload", "all"]).seed
    commands = [argv for passes in run.WORKLOADS.values()
                for _, argv in passes]
    commands += [argv for warm in run.WARMUP.values() for argv in warm]
    assert commands
    for argv in commands:
        args = build_parser().parse_args(
            [argv[0], "-c", str(run.CONFIG), "--set", f"analysis.seed={seed}",
             *argv[1:]])
        config = load_config(args.config, args.overrides)
        assert config.analysis["seed"] == seed

"""Every name the per-layer benchmark wraps must exist in the package.

``perfbench/layers.py`` replaces these functions by name when it traces a
run; a renamed or deleted one would crash the traced benchmark with an
AttributeError instead of failing here.
"""

import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_names_resolve():
    targets = _layers().TARGETS
    assert targets
    missing = [(mod, attr) for mod, attr, _ in targets
               if not callable(getattr(importlib.import_module(mod), attr,
                                       None))]
    assert missing == []


def test_kernel_path_flag_exists():
    from cellwave import _kernels
    assert isinstance(_kernels.NUMBA_ENABLED, bool)

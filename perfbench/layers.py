"""Per-layer tracing of cellwave, done from outside the package.

The tracer replaces the functions through which each cellwave module is
entered with timing wrappers, in every cellwave module namespace that holds
a reference to them, and puts the originals back afterwards.  Nothing under
``src/`` is edited.

Each wrapped call pushes a frame on a stack, so every call knows its
wrapped parent.  Calls of the coarse layers (a mode spectrum, a Newton
solve, a Jacobian, a CLI subcommand, ...) are recorded as spans with
name, start, end and parent id.  The hot leaves (``psi_tilde``,
``phi_mode``, ``bessel_I``, the scalar complex Newton and the
traveling-wave residual) run 10^3 to 10^5 times per pass, so they are only
aggregated as (count, inclusive time, self time) per (name, parent name);
their time is still subtracted from the self time of the enclosing span.

Inside numba-compiled kernels no Python-level call is visible, so the
``kernels.*`` counts are only meaningful on the numpy kernel path; the run
record says which path ran.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute, hot).  Hot functions are aggregated, not spanned.
TARGETS = (
    ("cellwave._kernels", "psi_tilde", True),
    ("cellwave._kernels", "phi_mode", True),
    ("cellwave._kernels", "phi_mode_grid", False),
    ("cellwave.special", "bessel_I", True),
    ("cellwave.solvers", "_complex_newton", True),
    ("cellwave.solvers", "find_complex_roots", False),
    ("cellwave.solvers", "newton_solve", False),
    ("cellwave.solvers", "fd_jacobian", False),
    ("cellwave.solvers", "arclength_continue", False),
    ("cellwave.stability", "mode_spectrum", False),
    ("cellwave.stability", "refine_threshold", False),
    ("cellwave.stability", "classify", False),
    ("cellwave.waves", "_residual_vector", True),
    ("cellwave.waves", "solve_at_velocity", False),
    ("cellwave.waves", "continue_branch", False),
    ("cellwave.waves", "state_diagnostics", False),
    ("cellwave.waves", "bifurcation_report", False),
    ("cellwave.waves", "kernel_alignment", False),
    ("cellwave.waves", "transversality_product", False),
    ("cellwave.cli", "main", False),
    ("cellwave.cli", "cmd_resting_state", False),
    ("cellwave.cli", "cmd_dispersion", False),
    ("cellwave.cli", "cmd_branch", False),
    ("cellwave.cli", "cmd_verify", False),
    ("cellwave.cli", "_write_json", False),
    ("cellwave.cli", "_write_csv", False),
) + tuple(
    ("cellwave.acceptance", name, False) for name in (
        "criterion_threshold_agreement",
        "criterion_mode0_spectrum",
        "criterion_neutral_modes",
        "criterion_subcritical_spectrum",
        "criterion_bifurcation_structure",
        "criterion_branch_invariants",
        "criterion_expansion_coefficients",
        "criterion_linearization",
        "criterion_special_floor",
    )
)

CRITERION_NAMES = [name for mod, name, _ in TARGETS
                   if name.startswith("criterion_")]

# name -> (unit, better); the order is the order of BENCHMARK.json.
PER_LAYER = {
    "kernels.grid_points": ("count", "lower"),
    "kernels.grid_s": ("s", "lower"),
    "kernels.grid_points_per_s": ("1/s", "higher"),
    "kernels.scalar_calls": ("count", "lower"),
    "kernels.scalar_s": ("s", "lower"),
    "kernels.psi_calls": ("count", "lower"),
    "special.bessel_I_calls": ("count", "lower"),
    "special.bessel_I_s": ("s", "lower"),
    "stability.spectra": ("count", "lower"),
    "stability.spectrum_s": ("s", "lower"),
    "stability.spectra_per_s": ("1/s", "higher"),
    "solvers.root_search_s": ("s", "lower"),
    "stability.polish_s": ("s", "lower"),
    "solvers.newton_starts": ("count", "lower"),
    "stability.roots_located": ("count", "higher"),
    "solvers.root_yield": ("ratio", "higher"),
    "stability.threshold_calls": ("count", "lower"),
    "stability.threshold_s": ("s", "lower"),
    "solvers.newton_solves": ("count", "lower"),
    "solvers.newton_s": ("s", "lower"),
    "solvers.newton_jacobians": ("count", "lower"),
    "solvers.residual_evals": ("count", "lower"),
    "solvers.fd_jacobian_s": ("s", "lower"),
    "waves.residual_calls": ("count", "lower"),
    "waves.residual_s": ("s", "lower"),
    "waves.monitor_jacobians": ("count", "lower"),
    "waves.monitor_jacobian_s": ("s", "lower"),
    "waves.diagnostics_calls": ("count", "lower"),
    "waves.diagnostics_s": ("s", "lower"),
    "waves.states": ("count", "higher"),
    "waves.states_per_s": ("1/s", "higher"),
    "waves.branch_s": ("s", "lower"),
    "waves.report_s": ("s", "lower"),
    "waves.jacobian_share": ("ratio", "lower"),
    "cli.write_s": ("s", "lower"),
    "cli.bytes_written": ("B", "lower"),
    **{f"acceptance.c{i:02d}_s": ("s", "lower") for i in range(1, 10)},
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class Tracer:
    """Wraps cellwave's layer entry points and records what they do."""

    def __init__(self):
        self.spans = []   # [id, name, start, end, parent, self_s, pass]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # (name, parent)
        self.extra = defaultdict(int)                     # result counters
        self._stack = []          # frames: [name, span_id, child_s]
        self._active = defaultdict(int)
        self._saved = []          # (module, attr, original)
        self._pass = 0
        self._ids = itertools.count()

    # -- installing ---------------------------------------------------------

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "cellwave" or name.startswith("cellwave.")]
        wrappers = {}
        for mod_name, attr, hot in TARGETS:
            orig = getattr(sys.modules[mod_name], attr)
            wrappers[id(orig)] = (orig, self._wrap(attr, orig, hot))
        for mod in modules:
            for key, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((mod, key, value))
                    setattr(mod, key, hit[1])
        acceptance = sys.modules["cellwave.acceptance"]
        self._saved.append((acceptance, "CRITERIA", acceptance.CRITERIA))
        acceptance.CRITERIA = tuple(
            wrappers[id(c)][1] for c in acceptance.CRITERIA)

    def uninstall(self):
        for mod, key, value in reversed(self._saved):
            setattr(mod, key, value)
        self._saved.clear()

    def begin_pass(self):
        self._pass += 1
        self.stats.clear()
        self.extra.clear()

    # -- the wrapper --------------------------------------------------------

    def _wrap(self, name, fn, hot):
        clock = time.perf_counter
        stack = self._stack
        active = self._active
        stats = self.stats
        spans = self.spans
        ids = self._ids
        on_result = _RESULT_HOOKS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = None if hot else next(ids)
            frame = [name, span_id, 0.0]
            stack.append(frame)
            active[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                active[name] -= 1
                dur = t1 - t0
                if parent is not None:
                    parent[2] += dur
                parent_name = parent[0] if parent is not None else ""
                st = stats[(name, parent_name)]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[2]
                if span_id is not None:
                    spans.append([span_id, name, t0, t1,
                                  parent[1] if parent is not None else None,
                                  dur - frame[2], tracer._pass])
            if on_result is not None:
                on_result(tracer, args, result, dur)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- reading ------------------------------------------------------------

    def _sum(self, name, field, parents=None, exclude=None):
        total = 0
        for (n, parent), st in self.stats.items():
            if n != name:
                continue
            if parents is not None and parent not in parents:
                continue
            if exclude is not None and parent in exclude:
                continue
            total += st[field]
        return total

    def count(self, name, **kw):
        return self._sum(name, 0, **kw)

    def incl(self, name, **kw):
        return self._sum(name, 1, **kw)

    def layer_metrics(self) -> dict:
        """Per-layer numbers of the current pass (see PER_LAYER)."""
        c, t, x = self.count, self.incl, self.extra
        grid_points = x["grid_points"]
        grid_s = t("phi_mode_grid")
        spectra = c("mode_spectrum")
        spectrum_s = t("mode_spectrum")
        starts = c("_complex_newton")
        branch_s = t("continue_branch")
        out = {
            "kernels.grid_points": grid_points,
            "kernels.grid_s": grid_s,
            "kernels.grid_points_per_s": _ratio(grid_points, grid_s),
            "kernels.scalar_calls": c("phi_mode", exclude={"phi_mode_grid"}),
            "kernels.scalar_s": t("phi_mode", exclude={"phi_mode_grid"}),
            "kernels.psi_calls": c("psi_tilde"),
            "special.bessel_I_calls": c("bessel_I"),
            "special.bessel_I_s": t("bessel_I"),
            "stability.spectra": spectra,
            "stability.spectrum_s": spectrum_s,
            "stability.spectra_per_s": _ratio(spectra, spectrum_s),
            "solvers.root_search_s": t("find_complex_roots"),
            "stability.polish_s": spectrum_s - t(
                "find_complex_roots", parents={"mode_spectrum"}),
            "solvers.newton_starts": starts,
            "stability.roots_located": x["roots_located"],
            "solvers.root_yield": _ratio(x["roots_located"], starts),
            "stability.threshold_calls": c("refine_threshold"),
            "stability.threshold_s": t("refine_threshold"),
            "solvers.newton_solves": c("newton_solve"),
            "solvers.newton_s": t("newton_solve"),
            "solvers.newton_jacobians": c("fd_jacobian",
                                          parents={"newton_solve"}),
            "solvers.residual_evals": c("_residual_vector", parents={
                "newton_solve", "fd_jacobian", "arclength_continue"}),
            "solvers.fd_jacobian_s": t("fd_jacobian"),
            "waves.residual_calls": c("_residual_vector"),
            "waves.residual_s": t("_residual_vector"),
            "waves.monitor_jacobians": c("fd_jacobian",
                                         parents={"continue_branch"}),
            "waves.monitor_jacobian_s": t("fd_jacobian",
                                          parents={"continue_branch"}),
            "waves.diagnostics_calls": c("state_diagnostics"),
            "waves.diagnostics_s": t("state_diagnostics"),
            "waves.states": x["states"],
            "waves.states_per_s": _ratio(x["states"], branch_s),
            "waves.branch_s": branch_s,
            "waves.report_s": t("bifurcation_report"),
            "waves.jacobian_share": _ratio(x["branch_jacobian_s"], branch_s),
            "cli.write_s": t("_write_json") + t("_write_csv"),
            "cli.bytes_written": x["bytes_written"],
        }
        for i, name in enumerate(CRITERION_NAMES, start=1):
            out[f"acceptance.c{i:02d}_s"] = t(name)
        return out

    def write_spans(self, path: Path) -> None:
        """One JSON object per span: id, name, start, end, parent, self_s."""
        keys = ("id", "name", "start", "end", "parent", "self_s", "pass")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _ratio(num, den):
    return num / den if den else 0.0


# -- result hooks: counts that need the call's arguments or result ---------

def _grid_points(tracer, args, result, dur):
    tracer.extra["grid_points"] += len(args[1])


def _roots_located(tracer, args, result, dur):
    tracer.extra["roots_located"] += len(result.roots)


def _branch_states(tracer, args, result, dur):
    tracer.extra["states"] += len(result.states)


def _branch_jacobian_time(tracer, args, result, dur):
    if tracer._active["continue_branch"]:
        tracer.extra["branch_jacobian_s"] += dur


def _bytes_written(tracer, args, result, dur):
    tracer.extra["bytes_written"] += Path(args[0]).stat().st_size


_RESULT_HOOKS = {
    "phi_mode_grid": _grid_points,
    "mode_spectrum": _roots_located,
    "continue_branch": _branch_states,
    "fd_jacobian": _branch_jacobian_time,
    "_write_json": _bytes_written,
    "_write_csv": _bytes_written,
}

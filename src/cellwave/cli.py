"""Command-line interface: deterministic CSV/JSON emission.

Subcommands: ``resting-state``, ``dispersion``, ``branch``, ``shape`` and
``verify``.  All floats are written with shortest round-trip formatting
(repr), CSV uses comma delimiters with LF line endings, JSON reports use
sorted keys.  Identical configs produce byte-identical outputs.

Exit codes: 0 success, 2 config error, 3 solver/verification failure
or out of memory (one ``out of memory:`` line on stderr names the
allocation that failed), 4 partial results.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import acceptance
from .config import RunConfig, load_config
from .errors import (
    BranchRangeError,
    CellWaveError,
    ConfigError,
    ContinuationStalledError,
    SolverError,
)
from .model import chi_c_star, resting_state, tw_concentration
from .stability import classify, mode_spectra
from .waves import (
    _checked_boundary,
    bifurcation_report,
    collocation_nodes,
    continue_branch,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_PARTIAL = 4


def _fmt(value) -> str:
    """Shortest round-trip decimal representation (17 significant digits cap)."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _json_default(obj):
    """JSON form of the complex and numpy values that ``json`` does not
    write itself (np.float64 is a float, so it does write that one)."""
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _write_text(path: Path, text: str) -> None:
    try:
        path.write_text(text, newline="\n")
    except OSError as exc:
        raise ConfigError(f"cannot write output file: {exc}") from exc


def _write_json(path: Path, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True,
                      default=_json_default) + "\n"
    _write_text(path, text)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _write_text(path, "\n".join(lines) + "\n")


def _outdir(config: RunConfig, override) -> Path:
    directory = Path(override) if override else Path(config.output["directory"])
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory: {exc}") from exc
    return directory


def cmd_resting_state(config: RunConfig, outdir: Path) -> int:
    """Emit the resting state, the threshold and the stability verdict."""
    if config.analysis["mode_max"] < 2:
        raise ConfigError("analysis.mode_max must be >= 2 for resting-state, "
                          f"got {config.analysis['mode_max']}")
    params = config.params
    rest = resting_state(params, config.f_act)
    star = chi_c_star(params, config.f_act, config.f_und)
    report = classify(params, config.f_act, config.f_und,
                      m_max=config.analysis["mode_max"],
                      region=config.analysis["root_region"],
                      seeds=config.analysis["seed_grid"])
    payload = {
        "c0": rest.c0,
        "P0": rest.P0,
        "R0": rest.R0,
        "chi_c": params.chi_c,
        "chi_c_star": star,
        "classification": {
            "stable": report.stable,
            "margin": report.margin,
            "margin_mode": report.margin_mode,
        },
    }
    if not report.stable:
        payload["classification"]["unstable_mode"] = report.margin_mode
    path = outdir / "resting_state.json"
    _write_json(path, payload)
    verdict = "stable" if report.stable else "unstable"
    print(f"resting state: c0={_fmt(rest.c0)} P0={_fmt(rest.P0)} "
          f"chi_c_star={_fmt(star)} -> {verdict}")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_dispersion(config: RunConfig, outdir: Path) -> int:
    """Emit located growth rates over the mode range and chi_c grid."""
    params = config.params
    keys = [(m, chi)
            for m in range(config.analysis["mode_min"],
                           config.analysis["mode_max"] + 1)
            for chi in config.analysis["chi_c_grid"]]
    spectra = mode_spectra([(m, params.with_chi_c(chi), config.f_act,
                             config.f_und) for m, chi in keys],
                           region=config.analysis["root_region"],
                           seeds=config.analysis["seed_grid"])
    rows = []
    for (m, chi), spec in zip(keys, spectra):
        for root, resid in zip(spec.roots, spec.residuals):
            rows.append([m, chi, root.real, root.imag,
                         root == spec.principal, resid])
    rows.sort(key=lambda r: (r[0], r[1], r[2], r[3]))
    path = outdir / "dispersion.csv"
    _write_csv(path, ["m", "chi_c", "re_lambda", "im_lambda",
                      "is_principal", "residual"], rows)
    print(f"wrote {path} ({len(rows)} rows)")
    return EXIT_OK


def _branch_rows(branch, config: RunConfig):
    width = min(config.output["rho_width"], config.analysis["N"] + 1)
    header = (["V", "chi_c", "p1"]
              + [f"rho_{k}" for k in range(width)]
              + ["residual", "area_error"])
    rows = []
    for state in branch.states:
        diag = state.diagnostics
        rows.append([state.V, state.chi_c, state.p1]
                    + list(state.shape.rho_cos[:width])
                    + [diag["residual_sup"], diag["area_error"]])
    return header, rows


def _branch(config: RunConfig):
    return continue_branch(config.params, config.f_act, config.f_und,
                           V_max=config.analysis["V_max"],
                           ds=config.analysis["ds"],
                           n=config.analysis["N"],
                           tol=config.analysis["newton_tol"])


def _branch_summary(branch) -> dict:
    """Report fields of how the branch was traced: the worst resolution
    certificate over its states and the speed arclength took over from."""
    return {
        "spectral_tail_max": max(s.diagnostics["spectral_tail"]
                                 for s in branch.states),
        "arclength_from_V": branch.arclength_from_V,
    }


def _branch_report(config: RunConfig, branch) -> dict:
    """The expansion report at the branch root and the branch summary.

    ``bifurcation_report`` solves only at speeds up to ``report_step``, so
    it does not depend on where the branch stopped.
    """
    report = bifurcation_report(config.params, config.f_act, config.f_und,
                                n=config.analysis["N"],
                                h=config.analysis["report_step"],
                                tol=config.analysis["newton_tol"])
    return {
        **dataclasses.asdict(report),
        "used_arclength": branch.used_arclength,
        "n_states": len(branch.states),
        **_branch_summary(branch),
    }


def cmd_branch(config: RunConfig, outdir: Path) -> int:
    """Trace the branch and emit its states plus the expansion report.

    A stopped branch emits its resolved states and the same report, plus
    ``error`` and ``states_completed``, with exit 4; if the report's own
    solves fail too, the report holds the stop and the summary only.
    """
    csv_path = outdir / "branch.csv"
    json_path = outdir / "branch_report.json"
    try:
        branch, stop = _branch(config), {}
    except ContinuationStalledError as exc:
        branch = exc.points
        stop = {"error": str(exc), "states_completed": len(branch.states)}
    header, rows = _branch_rows(branch, config)
    _write_csv(csv_path, header, rows)
    try:
        payload = _branch_report(config, branch)
    except SolverError:
        if not stop:
            raise
        payload = _branch_summary(branch)
    _write_json(json_path, {**payload, **stop})
    if stop:
        print(f"branch stalled: wrote partial {csv_path}", file=sys.stderr)
        return EXIT_PARTIAL
    print(f"wrote {csv_path} ({len(rows)} rows) and {json_path}")
    return EXIT_OK


def cmd_shape(config: RunConfig, outdir: Path, velocity: float) -> int:
    """Emit the boundary contour of the branch state nearest a speed.

    On a stalled branch the contour comes from the partial branch, with
    exit 4, when the speed lies inside it; otherwise the stall is a
    solver failure whose message also says why the partial branch
    refused the speed.
    """
    code = EXIT_OK
    try:
        state = _branch(config).state_nearest(velocity)
    except ContinuationStalledError as exc:
        try:
            state = exc.points.state_nearest(velocity)
        except BranchRangeError as refused:
            raise ContinuationStalledError(f"{exc}; {refused}",
                                           exc.points) from None
        print(f"branch stalled: {exc}", file=sys.stderr)
        code = EXIT_PARTIAL
    b = _checked_boundary(state.shape)
    c_bnd = tw_concentration(config.params, state.V, state.c1,
                             (b.r * b.cos,))
    rows = list(zip(collocation_nodes(state.shape.N), b.r, b.n1, b.kappa,
                    c_bnd))
    path = outdir / "shape.csv"
    _write_csv(path, ["theta", "radius", "n1", "kappa", "c_boundary"], rows)
    print(f"wrote {path} (state V={_fmt(state.V)}, chi_c={_fmt(state.chi_c)})")
    return code


def cmd_verify(config: RunConfig, outdir: Path) -> int:
    """Run the acceptance criteria and write a deterministic report."""
    results = acceptance.run_all(config)
    payload = {
        "criteria": [
            {"index": r.index, "name": r.name, "passed": r.passed,
             "details": r.details}
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
    path = outdir / "verify_report.json"
    _write_json(path, payload)
    for r in results:
        print(r.line())
    n_pass = sum(r.passed for r in results)
    print(f"{n_pass}/{len(results)} criteria passed; wrote {path}")
    return EXIT_OK if payload["all_passed"] else EXIT_SOLVER


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cellwave",
        description="Resting-state stability and traveling-wave branches "
                    "of a Darcy free-boundary cell motility model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("resting-state", "resting state, threshold and stability verdict"),
        ("dispersion", "growth rates over the mode range and chi_c grid"),
        ("branch", "traveling-wave branch and expansion report"),
        ("shape", "boundary contour of the branch state nearest a speed"),
        ("verify", "run the acceptance suite"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("-c", "--config", required=True, help="JSON config file")
        p.add_argument("-o", "--outdir", default=None,
                       help="output directory (default: config output.directory)")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="override a config key, e.g. analysis.V_max=0.2")
        if name == "shape":
            p.add_argument("--velocity", type=float, required=True,
                           help="branch speed to emit")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every ``main`` call of this process reuses."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = load_config(args.config, args.overrides)
        outdir = _outdir(config, args.outdir)
        if args.command == "resting-state":
            return cmd_resting_state(config, outdir)
        if args.command == "dispersion":
            return cmd_dispersion(config, outdir)
        if args.command == "branch":
            return cmd_branch(config, outdir)
        if args.command == "shape":
            return cmd_shape(config, outdir, args.velocity)
        if args.command == "verify":
            return cmd_verify(config, outdir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BranchRangeError as exc:
        print(f"range error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CellWaveError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except MemoryError as exc:
        print(f"out of memory: {exc or 'an allocation failed'}",
              file=sys.stderr)
        return EXIT_SOLVER
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: config parsing, execution, and report emission.

Configs are YAML with strict key checking: every unknown key and every guard
violation is collected and reported together, not just the first.  Runs are
deterministic for a fixed config and seed; every run appends a manifest line
(config hash, wall times, check outcomes) to ``manifest.jsonl`` in the output
directory, even on failure.

Every manifest has the check ``run_completed``: true, or false with the
error when the run raised.  The raises bound each solve: ``solvers.SolverError``
above a residual of 10 tol, ``cell.CellError`` on a cell mean above
``MEAN_TOL``.  So no check restates them, and the residuals go to the JSON
summaries.  Every other check reads a value that no raise bounds, and can fail.

Exit status is 0 exactly when all checks performed by the run pass.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np
import yaml

from . import __version__
from .bvp import (POINTS_PER_PERIOD, DirichletProblem, ProblemError, check_lambda,
                  resolution_guard, solve)
from .cell import build_flux_correctors, homogenize, solve_correctors
from .coefficients import FAMILY_NAMES, CoefficientError, builtin_family
from .dirichlet import (CommensurabilityError, lattice_step, psi_diagnostics,
                        solve_dirichlet_correctors)
from .grid import BoxGrid, GridFunction, TorusGrid, is_dyadic, write_csv
from .green import (MIN_FIT_PAIRS, GreenError, _snap_interior, approx_green,
                    boundary_data_battery, decay_fit, decay_shell,
                    maximal_function_probe, point_boundary_distance)
from .rates import (PROBE_KINDS, SweepConfig, SweepError, load_field, run_sweep,
                    uniform_constant_probe)


class ConfigError(ValueError):
    """Carries the complete list of violations found while parsing."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


# Each key a subcommand accepts, with its default, on top of the common ones.
# A default of None leaves the choice to the run: lam is bvp.default_lambda,
# rho the 2h floor, probes the box centre, out the --out fallback.
_COMMON_KEYS = {"subcommand": None, "family": "constant", "params": {}, "seed": 0,
                "tol": 1e-10, "out": None}
_KEYS = {
    "cell": {"n": 64},
    "homogenize": {"n": 64, "flux": False},
    "solve": {"n": 64, "eps": 1.0, "lam": None, "data": "one",
              "lambda_override": False},
    "correctors": {"n": 64, "eps": 0.25, "n_cell": 64},
    "green": {"n": 48, "eps": 1.0, "lam": None, "probes": None, "rho": None,
              "lambda_override": False, "battery": False, "p": 2.0},
    "rates": {"eps": [1 / 8, 1 / 16, 1 / 32], "divisor": 16, "data": "one",
              "n_cell": 64, "lam": None, "probe_kinds": []},
    "validate": {"configs": []},
}
SUBCOMMANDS = tuple(_KEYS)


@dataclass
class ExperimentConfig:
    subcommand: str
    family: str
    params: dict
    seed: int
    tol: float
    out: str | None
    extra: dict = field(default_factory=dict)   # subcommand keys as written

    def __getitem__(self, key):
        """A subcommand key as written, else its default from ``_KEYS``."""
        return self.extra.get(key, _KEYS[self.subcommand][key])


def _is_int(value, low: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= low


def _real(value) -> float:
    """A YAML number as a float; NaN for anything else, booleans included."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    return math.nan


def _int_rule(low: int):
    return (lambda v: _is_int(v, low)), f"an integer >= {low}"


_BOOL_RULE = (lambda v: isinstance(v, bool)), "true or false"


# key -> (test of its resolved value, what the value must be); "sub.key"
# overrides key for one subcommand.  rho is checked against 2h below.
_CHECKS = {
    "family": (lambda v: v in FAMILY_NAMES, f"one of {sorted(FAMILY_NAMES)}"),
    "params": (lambda v: v is None or isinstance(v, dict), "a mapping"),
    "seed": _int_rule(0),
    "tol": (lambda v: 0 < _real(v) < 1, "a number in (0, 1)"),
    "out": (lambda v: v is None or isinstance(v, str), "a path"),
    "n": _int_rule(4),
    "n_cell": _int_rule(4),
    "divisor": _int_rule(POINTS_PER_PERIOD),
    "eps": (lambda v: _real(v) > 0 and is_dyadic(_real(v)),
            "a single dyadic number 2^-j"),
    "rates.eps": (lambda v: isinstance(v, list)
                  and all(math.isfinite(_real(e)) for e in v), "a list of numbers"),
    "lam": (lambda v: v is None or math.isfinite(_real(v)), "a finite number"),
    "p": (lambda v: _real(v) >= 1, "a number >= 1"),
    "data": (lambda v: v in ("one", "sine", "bump"), "one|sine|bump"),
    "probe_kinds": (lambda v: isinstance(v, list) and all(k in PROBE_KINDS for k in v),
                    f"a list of entries from {PROBE_KINDS}"),
    "probes": (lambda v: v is None or (isinstance(v, list) and len(v) > 0),
               "a non-empty list"),
    "configs": (lambda v: isinstance(v, list) and all(isinstance(c, str) for c in v),
                "a list of paths"),
    "flux": _BOOL_RULE,
    "battery": _BOOL_RULE,
    "lambda_override": _BOOL_RULE,
}


def _sweep_config(cfg: ExperimentConfig) -> SweepConfig:
    """The sweep a ``rates`` config runs; its checks are the eps-list rules."""
    return SweepConfig(family=cfg.family, params=cfg.params,
                       eps_list=tuple(cfg["eps"]), divisor=cfg["divisor"],
                       lam=cfg["lam"], data=cfg["data"], seed=cfg.seed,
                       tol=cfg.tol, n_cell=cfg["n_cell"])


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a YAML config, reporting every violation at once.
    It imports nothing: every module a run needs, ``numpy.fft`` among them,
    is loaded with ``homogkit.cli``."""
    violations = []
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}" if mark else ""
        raise ConfigError([f"syntax error{where}: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["config must be a mapping of keys to values"])

    sub = raw.get("subcommand")
    if sub not in SUBCOMMANDS:
        raise ConfigError([f"subcommand must be one of {SUBCOMMANDS}, got {sub!r}"])

    defaults = _COMMON_KEYS | _KEYS[sub]
    for key in sorted(set(raw) - set(defaults)):
        violations.append(f"unknown key {key!r} for subcommand {sub!r}")
    value = {key: raw.get(key, default) for key, default in defaults.items()}
    bad = set()
    for key, v in value.items():
        test, rule = _CHECKS.get(f"{sub}.{key}") or _CHECKS.get(key, (None, None))
        if test is not None and not test(v):
            violations.append(f"{key} must be {rule}, got {v!r}")
            bad.add(key)

    def ok(*keys):
        return bad.isdisjoint(keys)

    cfg = ExperimentConfig(subcommand=sub, family=value["family"],
                           params=value["params"] or {}, seed=value["seed"],
                           tol=_real(value["tol"]), out=value["out"],
                           extra={k: v for k, v in raw.items() if k in _KEYS[sub]})
    cs = None   # built here only to check the parameters; each run builds its own
    if sub != "validate" and ok("family", "params"):
        try:
            cs = builtin_family(cfg.family, **cfg.params)
        except (TypeError, CoefficientError) as exc:
            violations.append(f"params rejected by family {cfg.family!r}: {exc}")
    box = None
    if cs is not None and "n" in defaults and ok("n"):
        box = BoxGrid(cs.d, cfg["n"])

    if sub == "green":
        rho = cfg["rho"]
        if rho is not None:
            two_h = 2.0 / cfg["n"] if ok("n") else 0.0
            r = _real(rho)
            if not (math.isfinite(r) and r > 0 and r >= two_h - 1e-12):
                violations.append(f"rho must be a number >= 2h = {two_h:.4g} and > 0, "
                                  f"got {rho!r}")
                bad.add("rho")
        if box is not None and ok("probes"):
            rho = 2.0 * box.h if rho is None else _real(rho)   # the run's default: 2h
            for probe in cfg["probes"] or [[0.5] * box.d]:     # default: the centre
                try:
                    y = _snap_interior(box, probe)
                except (GreenError, TypeError, ValueError) as exc:
                    violations.append(f"probes entry {probe!r}: {exc}")
                    continue
                # a d = 3 run fits the decay exponent on this shell
                if box.d == 3 and ok("rho") and decay_shell(box, y, rho)[1].sum() < MIN_FIT_PAIRS:
                    violations.append(f"n = {box.n} leaves fewer than {MIN_FIT_PAIRS} decay-fit "
                                      f"shell points around probe {probe!r} at rho = {rho:.4g}")
    # solve's and the battery's box solves apply the resolution guard
    # (DirichletProblem exempts eps >= 1, the box side)
    if box is not None and ok("eps", "battery") and (
            sub == "solve" or sub == "green" and cfg["battery"]):
        eps = _real(cfg["eps"])
        try:
            if eps < 1.0:
                resolution_guard(box, eps)
        except ProblemError as exc:
            violations.append(f"eps = {eps:g} is not resolved by n = {cfg['n']}: {exc}")
    if sub == "correctors" and box is not None and ok("eps", "n_cell"):
        eps, n_cell = float(cfg["eps"]), cfg["n_cell"]
        try:
            lattice_step(box, eps, n_cell)
        except CommensurabilityError as exc:
            violations.append(f"n_cell = {n_cell} does not fit the box lattice: {exc}")
        try:
            resolution_guard(box, eps)
        except ProblemError as exc:
            violations.append(f"eps = {eps:g} is not resolved by n = {cfg['n']}: {exc}")
    if sub == "rates" and ok("eps", "divisor", "n_cell"):
        try:
            _sweep_config(cfg)
        except SweepError as exc:
            violations.append(str(exc))
    # the lambda threshold, where the run applies it
    if cs is not None and ok("lam", "lambda_override", "battery") and (
            sub in ("solve", "rates") or sub == "green" and cfg["battery"]):
        try:
            check_lambda(cs, cfg["lam"], sub != "rates" and cfg["lambda_override"])
        except ProblemError as exc:
            violations.append(str(exc))

    if violations:
        raise ConfigError(violations)
    return cfg


def serialize_config(cfg: ExperimentConfig) -> str:
    doc = {"subcommand": cfg.subcommand, "family": cfg.family,
           "params": cfg.params, "seed": cfg.seed, "tol": cfg.tol}
    if cfg.out is not None:
        doc["out"] = cfg.out
    doc.update(cfg.extra)
    return yaml.safe_dump(doc, sort_keys=True)


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------

def _config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()[:16]


def write_manifest(out_dir: str, cfg: ExperimentConfig, wall_times: dict,
                   checks: dict) -> dict:
    manifest = {
        "config_hash": _config_hash(cfg),
        "version": __version__,
        "subcommand": cfg.subcommand,
        "seed": cfg.seed,
        "tol": cfg.tol,
        "wall_times": {k: round(v, 4) for k, v in wall_times.items()},
        "checks": checks,
    }
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "manifest.jsonl"), "a") as fh:
        fh.write(json.dumps(manifest, sort_keys=True) + "\n")
    return manifest


def _json_dump(obj, path):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=_jsonable)
        fh.write("\n")


def _jsonable(x):
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    raise TypeError(f"not JSON serializable: {type(x)}")


# ---------------------------------------------------------------------------
# subcommand runners; each returns (checks, wall_times)
# ---------------------------------------------------------------------------

def _run_cell(cfg: ExperimentConfig, out_dir: str):
    cs = builtin_family(cfg.family, **cfg.params)
    grid = TorusGrid(cs.d, cfg["n"])
    t0 = time.perf_counter()
    corr = solve_correctors(cs, grid, tol=cfg.tol)
    wall = {"cell_solve": time.perf_counter() - t0}
    for k, chi in enumerate([corr.chi0] + list(corr.chi)):
        write_csv(GridFunction(grid, chi), os.path.join(out_dir, f"chi{k}.csv"))
    means = [float(np.abs(c.mean(axis=tuple(range(grid.d)))).max())
             for c in [corr.chi0] + list(corr.chi)]
    _json_dump({"residuals": corr.residuals, "max_abs_mean": means},
               os.path.join(out_dir, "cell_summary.json"))
    return {}, wall


def _run_homogenize(cfg: ExperimentConfig, out_dir: str):
    cs = builtin_family(cfg.family, **cfg.params)
    grid = TorusGrid(cs.d, cfg["n"])
    t0 = time.perf_counter()
    corr = solve_correctors(cs, grid, tol=cfg.tol)
    hats = None if cfg["flux"] else homogenize(cs, corr)
    wall = {"homogenize": time.perf_counter() - t0}
    if cfg["flux"]:   # the flux correctors form the hats from their own integrands
        t0 = time.perf_counter()
        flux = build_flux_correctors(cs, corr)
        wall["flux"] = time.perf_counter() - t0
        hats = flux.hats
    margin = hats.ellipticity_margin(cs.mu)
    summary = {"a_hat": hats.A_hat, "v_hat": hats.V_hat, "b_hat": hats.B_hat,
               "c_hat": hats.c_hat, "ellipticity_margin": margin}
    checks = {"hat_elliptic": margin > -1e-10}
    if cfg["flux"]:
        summary["flux_remainder_mean"] = flux.remainder_mean
        checks["flux_zero_mean"] = flux.remainder_mean <= 1e-6
    _json_dump(summary, os.path.join(out_dir, "homogenized.json"))
    return checks, wall


def _run_solve(cfg: ExperimentConfig, out_dir: str):
    cs = builtin_family(cfg.family, **cfg.params)
    n, eps = cfg["n"], float(cfg["eps"])
    grid = BoxGrid(cs.d, n)
    F = load_field(cfg["data"], grid, cs.m, cfg.seed)
    problem = DirichletProblem(cs=cs, grid=grid, eps=eps, lam=cfg["lam"], F=F,
                               lambda_override=cfg["lambda_override"])
    t0 = time.perf_counter()
    u, info = solve(problem, tol=cfg.tol)
    wall = {"solve": time.perf_counter() - t0}
    write_csv(u, os.path.join(out_dir, "solution.csv"))
    _json_dump({"residual": info["residual"], "lambda": problem.lam,
                "eps": eps, "n": n}, os.path.join(out_dir, "solve_summary.json"))
    return {}, wall


def _run_correctors(cfg: ExperimentConfig, out_dir: str):
    cs = builtin_family(cfg.family, **cfg.params)
    eps = float(cfg["eps"])
    grid = BoxGrid(cs.d, cfg["n"])
    t0 = time.perf_counter()
    corr = solve_correctors(cs, TorusGrid(cs.d, cfg["n_cell"]), tol=cfg.tol)
    phis = solve_dirichlet_correctors(cs, eps, grid, tol=cfg.tol)
    diag = psi_diagnostics(phis, corr)
    wall = {"correctors": time.perf_counter() - t0}
    write_csv(GridFunction(grid, phis.phi0), os.path.join(out_dir, "phi0.csv"))
    for k, p in enumerate(phis.phi, start=1):
        write_csv(GridFunction(grid, p), os.path.join(out_dir, f"phi{k}.csv"))
    _json_dump({
        "psi_sup_norms": diag.sup_norms,
        "psi_sup_over_eps": [s / eps for s in diag.sup_norms],
        "grad_sup_norms": diag.grad_sup_norms,
        "profile_bins": diag.profile_bins,
        "profile_max_grad": diag.profile_max_grad,
        "residuals": phis.residuals,
    }, os.path.join(out_dir, "psi_summary.json"))
    return {"psi_sup_small": max(diag.sup_norms) <= 1.0}, wall


def _run_green(cfg: ExperimentConfig, out_dir: str):
    cs = builtin_family(cfg.family, **cfg.params)
    eps = float(cfg["eps"])
    grid = BoxGrid(cs.d, cfg["n"])
    lam = check_lambda(cs, cfg["lam"], override=True)
    probes = cfg["probes"] or [[0.5] * cs.d]
    rho = cfg["rho"]
    t0 = time.perf_counter()
    checks = {}
    fit_summaries = []
    d_x = None   # built after the first solve, so that it is not held through it
    with open(os.path.join(out_dir, "green_pairs.csv"), "w") as fh:
        fh.write("probe,abs_x_minus_y,abs_G,d_x,d_y\n")
        for ip, probe in enumerate(probes):
            sample = approx_green(cs, eps, lam, grid, np.asarray(probe, float),
                                  rho=None if rho is None else float(rho),
                                  tol=cfg.tol)
            r, adm = sample.fit_shell
            mag = sample.magnitude
            if d_x is None:
                d_x = grid.boundary_distance()
            d_y = point_boundary_distance(sample.y)
            for rv, gv, dv in zip(r[adm].ravel(), mag[adm].ravel(),
                                  d_x[adm].ravel()):
                fh.write(f"{ip},{float(rv)!r},{float(gv)!r},{float(dv)!r},{d_y!r}\n")
            entry = {"probe": probe}
            if grid.d == 3:
                fit = decay_fit(sample)
                entry.update({"exponent": fit.exponent, "prefactor": fit.prefactor,
                              "residual": fit.residual, "n_pairs": fit.n_pairs,
                              "spans_decade": fit.spans_decade})
            entry["residuals"] = sample.residuals   # one per column of G
            fit_summaries.append(entry)
    wall = {"green": time.perf_counter() - t0}
    if cfg["battery"]:
        t0 = time.perf_counter()
        battery = boundary_data_battery(grid, cs.m, seed=cfg.seed)
        probe_res = maximal_function_probe(
            cs, eps, lam, grid, battery, p=float(cfg["p"]), tol=cfg.tol,
            lambda_override=cfg["lambda_override"])
        wall["maximal_probe"] = time.perf_counter() - t0
        fit_summaries.append({"C_p": probe_res.C_p,
                              "max_principle_ratio":
                                  probe_res.max_principle_ratio})
        checks["max_principle"] = probe_res.max_principle_ratio <= 1.0 + 10 * grid.h
    _json_dump({"fits": fit_summaries}, os.path.join(out_dir, "green_summary.json"))
    return checks, wall


def _run_rates(cfg: ExperimentConfig, out_dir: str):
    sweep = _sweep_config(cfg)
    t0 = time.perf_counter()
    report = run_sweep(sweep)
    wall = {"sweep": time.perf_counter() - t0}
    report.to_csv(os.path.join(out_dir, "rates_report.csv"))
    slopes = {k: {"slope": f.slope, "intercept": f.intercept,
                  "residual": f.residual, "n_used": f.n_used,
                  "dropped": f.dropped}
              for k, f in report.slopes.items()}
    probes = {}
    for kind in cfg["probe_kinds"]:
        t0 = time.perf_counter()
        res = uniform_constant_probe(kind, sweep)
        wall[f"probe_{kind}"] = time.perf_counter() - t0
        probes[kind] = {"per_eps": {repr(k): v for k, v in res.per_eps.items()},
                        "dispersion": res.dispersion}
    _json_dump({"slopes": slopes, "complete": report.complete,
                "notes": report.notes, "probes": probes},
               os.path.join(out_dir, "rates_summary.json"))
    _write_loglog_svg(report, os.path.join(out_dir, "rates_loglog.svg"))
    checks = {"sweep_complete": report.complete}
    if "err_l2" in report.slopes:
        checks["l2_slope_near_one"] = 0.85 <= report.slopes["err_l2"].slope <= 1.15
    return checks, wall


def _write_loglog_svg(report, path):
    """Hand-rolled static log-log plot of the L2 error against eps."""
    rows = report.rows
    if len(rows) < 2:
        return
    xs = [math.log10(r["eps"]) for r in rows]
    ys = [math.log10(max(r["err_l2"], 1e-300)) for r in rows]
    W, H, pad = 420, 320, 45
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    sx = lambda x: pad + (x - x0) / (x1 - x0 + 1e-30) * (W - 2 * pad)
    sy = lambda y: H - pad - (y - y0) / (y1 - y0 + 1e-30) * (H - 2 * pad)
    pointstr = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in zip(xs, ys))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<polyline points="{pointstr}" fill="none" stroke="navy" stroke-width="1.5"/>',
    ]
    for x, y in zip(xs, ys):
        parts.append(f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="3" fill="navy"/>')
    parts.append(f'<text x="{W / 2:.0f}" y="{H - 8}" text-anchor="middle" '
                 f'font-size="12">log10 eps</text>')
    parts.append(f'<text x="12" y="{H / 2:.0f}" font-size="12" '
                 f'transform="rotate(-90 12 {H / 2:.0f})">log10 L2 error</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def _run_validate(cfg: ExperimentConfig, out_dir: str):
    """Re-check a list of config files, collecting violations per file; it
    runs none of them."""
    results = {}
    ok = True
    for path in cfg["configs"]:
        try:
            with open(path) as fh:
                parse_config(fh.read())
            results[path] = "ok"
        except (ConfigError, OSError) as exc:
            results[path] = str(exc)
            ok = False
    _json_dump(results, os.path.join(out_dir, "validate_summary.json"))
    return {"all_configs_valid": ok}, {}


_RUNNERS = {
    "cell": _run_cell,
    "homogenize": _run_homogenize,
    "solve": _run_solve,
    "correctors": _run_correctors,
    "green": _run_green,
    "rates": _run_rates,
    "validate": _run_validate,
}


def run(cfg: ExperimentConfig, out_dir: str) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    t0 = time.perf_counter()
    try:
        checks, wall = _RUNNERS[cfg.subcommand](cfg, out_dir)
    except Exception as exc:  # noqa: BLE001 - manifests record failures too
        wall = {"total": time.perf_counter() - t0}
        manifest = write_manifest(out_dir, cfg, wall,
                                  {"run_completed": False, "error": str(exc)})
        manifest["ok"] = False
        return manifest
    wall["total"] = time.perf_counter() - t0
    checks = {"run_completed": True} | {k: bool(v) for k, v in checks.items()}
    manifest = write_manifest(out_dir, cfg, wall, checks)
    manifest["ok"] = all(checks.values())
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="homogkit",
        description="periodic homogenization toolkit: cell problems, "
                    "effective coefficients, correctors, kernels, rate sweeps")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="YAML config file")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            cfg = parse_config(fh.read())
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print("invalid config:", file=sys.stderr)
        for v in exc.violations:
            print(f"  - {v}", file=sys.stderr)
        return 2

    if cfg.subcommand != args.subcommand:
        print(f"config declares subcommand {cfg.subcommand!r} but "
              f"{args.subcommand!r} was requested", file=sys.stderr)
        return 2
    if args.seed is not None:
        test, rule = _CHECKS["seed"]
        if not test(args.seed):
            print(f"invalid --seed: seed must be {rule}, got {args.seed}",
                  file=sys.stderr)
            return 2
        cfg.seed = args.seed

    out_dir = args.out or cfg.out or os.environ.get("HOMOG_KIT_OUT", "homogkit-out")
    manifest = run(cfg, out_dir)
    status = "ok" if manifest["ok"] else "FAILED"
    print(f"[{status}] {cfg.subcommand} -> {out_dir} "
          f"(config {manifest['config_hash']})")
    for name, result in manifest["checks"].items():
        if isinstance(result, bool):
            print(f"  check {name}: {'pass' if result else 'fail'}")
    return 0 if manifest["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: config parsing, execution, and report emission.

Configs are YAML with strict key checking: every unknown key and every guard
violation is collected and reported together, not just the first.  Runs are
deterministic for a fixed config and seed; every run appends a manifest line
(config hash, wall times, check outcomes) to ``manifest.jsonl`` in the output
directory, even on failure.

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
from .bvp import (POINTS_PER_PERIOD, DirichletProblem, ProblemError, default_lambda,
                  resolution_guard, solve)
from .cell import build_flux_correctors, homogenize, solve_correctors
from .coefficients import FAMILY_NAMES, CoefficientError, builtin_family
from .dirichlet import (CommensurabilityError, lattice_step, psi_diagnostics,
                        solve_dirichlet_correctors)
from .grid import BoxGrid, GridFunction, TorusGrid, is_dyadic, write_csv
from .green import GreenError, _snap_interior, approx_green, decay_fit, \
    boundary_data_battery, maximal_function_probe
from .rates import (PROBE_KINDS, SweepConfig, load_field, run_sweep,
                    uniform_constant_probe)

SUBCOMMANDS = ("cell", "homogenize", "solve", "correctors", "green", "rates",
               "validate")


class ConfigError(ValueError):
    """Carries the complete list of violations found while parsing."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


# keys accepted per subcommand, on top of the common ones
_COMMON_KEYS = {"subcommand", "family", "params", "seed", "tol", "out"}
_KEYS = {
    "cell": {"n"},
    "homogenize": {"n", "flux"},
    "solve": {"n", "eps", "lam", "data", "lambda_override"},
    "correctors": {"n", "eps", "n_cell"},
    "green": {"n", "eps", "lam", "probes", "rho", "lambda_override",
              "battery", "p"},
    "rates": {"eps", "divisor", "data", "n_cell", "lam", "probe_kinds"},
    "validate": {"configs"},
}


@dataclass
class ExperimentConfig:
    subcommand: str
    family: str = "constant"
    params: dict = field(default_factory=dict)
    seed: int = 0
    tol: float = 1e-10
    out: str | None = None
    extra: dict = field(default_factory=dict)

    def get(self, key, default=None):
        return self.extra.get(key, default)


def _is_int(value, low: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= low


def _real(value) -> float:
    """A YAML number as a float; NaN for anything else, booleans included."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    return math.nan


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a YAML config, reporting every violation at once."""
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
        violations.append(
            f"subcommand must be one of {SUBCOMMANDS}, got {sub!r}")
        raise ConfigError(violations)

    allowed = _COMMON_KEYS | _KEYS[sub]
    for key in sorted(set(raw) - allowed):
        violations.append(f"unknown key {key!r} for subcommand {sub!r}")

    family = raw.get("family", "constant")
    if sub != "validate" and family not in FAMILY_NAMES:
        violations.append(
            f"family must be one of {sorted(FAMILY_NAMES)}, got {family!r}")
    params = raw.get("params", {}) or {}
    if not isinstance(params, dict):
        violations.append("params must be a mapping")
        params = {}
    cs = None   # built here only to check the parameters; each run builds its own
    if sub != "validate" and family in FAMILY_NAMES:
        try:
            cs = builtin_family(family, **params)
        except (TypeError, CoefficientError) as exc:
            violations.append(f"params rejected by family {family!r}: {exc}")

    tol = raw.get("tol", 1e-10)
    if not (isinstance(tol, (int, float)) and 0 < tol < 1):
        violations.append(f"tol must be in (0, 1), got {tol!r}")
    seed = raw.get("seed", 0)
    if not _is_int(seed, 0):
        violations.append(f"seed must be an integer >= 0, got {seed!r}")

    for key, low in (("n", 4), ("n_cell", 4), ("divisor", POINTS_PER_PERIOD)):
        value = raw.get(key)
        if value is not None and not _is_int(value, low):
            violations.append(f"{key} must be an integer >= {low}, got {value!r}")
    n_box, n_cell = raw.get("n", 48 if sub == "green" else 64), raw.get("n_cell", 64)
    box = BoxGrid(cs.d, n_box) if cs is not None and _is_int(n_box, 4) else None
    if sub == "rates":
        divisor = raw.get("divisor", 16)
        if _is_int(divisor, 1) and _is_int(n_cell, 4) and n_cell % divisor:
            violations.append(f"n_cell = {n_cell} must be a multiple of divisor = "
                              f"{divisor} so cell fields land on the box lattice")

    lam = raw.get("lam")
    if lam is not None and not math.isfinite(_real(lam)):
        violations.append(f"lam must be a finite number, got {lam!r}")
    rho = raw.get("rho")
    if rho is not None:
        two_h = 2.0 / n_box if _is_int(n_box, 4) else 0.0
        r = _real(rho)
        if not (math.isfinite(r) and r > 0 and r >= two_h - 1e-12):
            violations.append(f"rho must be a number >= 2h = {two_h:.4g} and > 0, "
                              f"got {rho!r}")
    p = raw.get("p")
    if p is not None and not _real(p) >= 1:
        violations.append(f"p must be a number >= 1, got {p!r}")

    eps_raw = raw.get("eps")
    if isinstance(eps_raw, list) and sub != "rates":
        violations.append(f"eps must be a single number for {sub!r}, got {eps_raw!r}")
    elif eps_raw is not None:
        eps_list = eps_raw if isinstance(eps_raw, list) else [eps_raw]
        for e in eps_list:
            try:
                ev = float(e)
            except (TypeError, ValueError):
                violations.append(f"eps entry {e!r} is not a number")
                continue
            if not is_dyadic(ev):
                violations.append(f"eps must be dyadic (2^-j), got {e}")

    if sub == "green" and box is not None:
        probes = raw.get("probes") or []
        for probe in probes if isinstance(probes, list) else [probes]:
            try:
                _snap_interior(box, probe)
            except (GreenError, TypeError, ValueError) as exc:
                violations.append(f"probes entry {probe!r}: {exc}")
    eps = _real(raw.get("eps", 0.25))
    if sub == "correctors" and box is not None and _is_int(n_cell, 4) and eps > 0:
        try:
            lattice_step(box, eps, n_cell)
        except CommensurabilityError as exc:
            violations.append(f"n_cell = {n_cell} does not fit the box lattice: {exc}")
        try:
            resolution_guard(box, eps)
        except ProblemError as exc:
            violations.append(f"eps = {eps:g} is not resolved by n = {n_box}: {exc}")

    data = raw.get("data")
    if data is not None and data not in ("one", "sine", "bump"):
        violations.append(f"data must be one|sine|bump, got {data!r}")
    kinds = raw.get("probe_kinds")
    if kinds is not None and not (isinstance(kinds, list)
                                  and all(k in PROBE_KINDS for k in kinds)):
        violations.append(f"probe_kinds must be a list of entries from "
                          f"{PROBE_KINDS}, got {kinds!r}")
    for key in ("flux", "battery", "lambda_override"):
        value = raw.get(key)
        if value is not None and not isinstance(value, bool):
            violations.append(f"{key} must be true or false, got {value!r}")

    if violations:
        raise ConfigError(violations)

    extra = {k: v for k, v in raw.items()
             if k not in ("subcommand", "family", "params", "seed", "tol", "out")}
    return ExperimentConfig(subcommand=sub, family=family, params=params,
                            seed=seed, tol=float(tol),
                            out=raw.get("out"), extra=extra)


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
    n = cfg.get("n", 64)
    grid = TorusGrid(cs.d, n)
    t0 = time.perf_counter()
    corr = solve_correctors(cs, grid, tol=cfg.tol)
    wall = {"cell_solve": time.perf_counter() - t0}
    for k, chi in enumerate([corr.chi0] + list(corr.chi)):
        write_csv(GridFunction(grid, chi), os.path.join(out_dir, f"chi{k}.csv"))
    means = [float(np.abs(c.mean(axis=tuple(range(grid.d)))).max())
             for c in [corr.chi0] + list(corr.chi)]
    _json_dump({"residuals": corr.residuals, "max_abs_mean": means},
               os.path.join(out_dir, "cell_summary.json"))
    checks = {
        "residuals_within_tol": all(r <= 10 * cfg.tol
                                    for r in corr.residuals.values()),
        "zero_means": max(means) <= 1e-10,
    }
    return checks, wall


def _run_homogenize(cfg: ExperimentConfig, out_dir: str):
    cs = builtin_family(cfg.family, **cfg.params)
    n = cfg.get("n", 64)
    grid = TorusGrid(cs.d, n)
    t0 = time.perf_counter()
    corr = solve_correctors(cs, grid, tol=cfg.tol)
    hats = homogenize(cs, corr)
    wall = {"homogenize": time.perf_counter() - t0}
    summary = {"a_hat": hats.A_hat, "v_hat": hats.V_hat, "b_hat": hats.B_hat,
               "c_hat": hats.c_hat,
               "ellipticity_margin": hats.ellipticity_margin(cs.mu)}
    checks = {"hat_elliptic": hats.ellipticity_margin(cs.mu) > -1e-10}
    if cfg.get("flux", False):
        t0 = time.perf_counter()
        flux = build_flux_correctors(cs, corr, hats)
        wall["flux"] = time.perf_counter() - t0
        summary["flux_b_mean"] = float(np.abs(
            flux.b.mean(axis=tuple(range(grid.d)))).max())
        checks["flux_zero_mean"] = summary["flux_b_mean"] <= 1e-6
    _json_dump(summary, os.path.join(out_dir, "homogenized.json"))
    return checks, wall


def _run_solve(cfg: ExperimentConfig, out_dir: str):
    cs = builtin_family(cfg.family, **cfg.params)
    n = cfg.get("n", 64)
    eps = float(cfg.get("eps", 1.0))
    grid = BoxGrid(cs.d, n)
    F = load_field(cfg.get("data") or "one", grid, cs.m, cfg.seed)
    lam = cfg.get("lam")
    problem = DirichletProblem(
        cs=cs, grid=grid, eps=eps,
        lam=None if lam is None else float(lam), F=F,
        lambda_override=bool(cfg.get("lambda_override", False)))
    t0 = time.perf_counter()
    u, info = solve(problem, tol=cfg.tol)
    wall = {"solve": time.perf_counter() - t0}
    write_csv(u, os.path.join(out_dir, "solution.csv"))
    _json_dump({"residual": info["residual"], "lambda": problem.lam,
                "eps": eps, "n": n}, os.path.join(out_dir, "solve_summary.json"))
    checks = {"residual_within_tol": info["residual"] <= 10 * cfg.tol}
    return checks, wall


def _run_correctors(cfg: ExperimentConfig, out_dir: str):
    cs = builtin_family(cfg.family, **cfg.params)
    n = cfg.get("n", 64)
    eps = float(cfg.get("eps", 0.25))
    n_cell = cfg.get("n_cell", 64)
    grid = BoxGrid(cs.d, n)
    t0 = time.perf_counter()
    corr = solve_correctors(cs, TorusGrid(cs.d, n_cell), tol=cfg.tol)
    phis = solve_dirichlet_correctors(cs, eps, grid, tol=cfg.tol)
    diag = psi_diagnostics(phis, corr, eps)
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
    checks = {
        "residuals_within_tol": all(r <= 10 * cfg.tol
                                    for r in phis.residuals.values()),
        "psi_sup_small": max(diag.sup_norms) <= 1.0,
    }
    return checks, wall


def _run_green(cfg: ExperimentConfig, out_dir: str):
    cs = builtin_family(cfg.family, **cfg.params)
    n = cfg.get("n", 48)
    eps = float(cfg.get("eps", 1.0))
    grid = BoxGrid(cs.d, n)
    lam = cfg.get("lam")
    lam = default_lambda(cs) if lam is None else float(lam)
    probes = cfg.get("probes") or [[0.5] * cs.d]
    rho = cfg.get("rho")
    t0 = time.perf_counter()
    checks = {}
    fit_summaries = []
    with open(os.path.join(out_dir, "green_pairs.csv"), "w") as fh:
        fh.write("probe,abs_x_minus_y,abs_G,d_x,d_y\n")
        for ip, probe in enumerate(probes):
            sample = approx_green(cs, eps, lam, grid, np.asarray(probe, float),
                                  rho=None if rho is None else float(rho),
                                  tol=cfg.tol)
            r, adm = sample.fit_shell()
            mag = sample.magnitude()
            d_x = grid.boundary_distance()
            for rv, gv, dv in zip(r[adm].ravel(), mag[adm].ravel(),
                                  d_x[adm].ravel()):
                fh.write(f"{ip},{float(rv)!r},{float(gv)!r},"
                         f"{float(dv)!r},{sample.d_y()!r}\n")
            checks[f"residual_probe{ip}"] = max(sample.residuals) <= 10 * cfg.tol
            if grid.d == 3:
                fit = decay_fit(sample)
                fit_summaries.append({
                    "probe": probe, "exponent": fit.exponent,
                    "prefactor": fit.prefactor, "residual": fit.residual,
                    "n_pairs": fit.n_pairs, "spans_decade": fit.spans_decade,
                })
    wall = {"green": time.perf_counter() - t0}
    if cfg.get("battery", False):
        t0 = time.perf_counter()
        battery = boundary_data_battery(grid, cs.m, 10, seed=cfg.seed)
        probe_res = maximal_function_probe(
            cs, eps, lam, grid, battery, p=float(cfg.get("p", 2.0)), tol=cfg.tol,
            lambda_override=bool(cfg.get("lambda_override", False)))
        wall["maximal_probe"] = time.perf_counter() - t0
        fit_summaries.append({"C_p": probe_res.C_p,
                              "max_principle_ratio":
                                  probe_res.max_principle_ratio})
        checks["max_principle"] = probe_res.max_principle_ratio <= 1.0 + 10 * grid.h
    _json_dump({"fits": fit_summaries}, os.path.join(out_dir, "green_summary.json"))
    return checks, wall


def _run_rates(cfg: ExperimentConfig, out_dir: str):
    eps = cfg.get("eps") or [1 / 8, 1 / 16, 1 / 32]
    sweep = SweepConfig(family=cfg.family, params=cfg.params,
                        eps_list=tuple(float(e) for e in eps),
                        divisor=int(cfg.get("divisor", 16)),
                        lam=cfg.get("lam"),
                        data=cfg.get("data", "one"), seed=cfg.seed,
                        tol=cfg.tol, n_cell=int(cfg.get("n_cell", 64)))
    t0 = time.perf_counter()
    report = run_sweep(sweep)
    wall = {"sweep": time.perf_counter() - t0}
    report.to_csv(os.path.join(out_dir, "rates_report.csv"))
    slopes = {k: {"slope": f.slope, "intercept": f.intercept,
                  "residual": f.residual, "n_used": f.n_used,
                  "dropped": f.dropped}
              for k, f in report.slopes.items()}
    probes = {}
    for kind in cfg.get("probe_kinds", []) or []:
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
    """Re-parse a list of config files, collecting violations per file."""
    results = {}
    ok = True
    for path in cfg.get("configs", []) or []:
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
    checks = {k: bool(v) if isinstance(v, (bool, np.bool_)) else v
              for k, v in checks.items()}
    manifest = write_manifest(out_dir, cfg, wall, checks)
    manifest["ok"] = all(v for v in checks.values() if isinstance(v, bool))
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
        if not _is_int(args.seed, 0):
            print(f"invalid --seed: seed must be an integer >= 0, got {args.seed}",
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

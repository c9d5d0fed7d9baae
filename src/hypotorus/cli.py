"""Command-line interface: config loading, dispatch, and stable outputs.

Commands: field-info, theta-check, operator-check, solve, convergence.
Exit codes: 0 success/solvable, 2 not solvable, 3 inconclusive, 1 error.

Outputs are deterministic: the CSV solution grid and every report field
except wall_time_s are identical across runs and thread counts.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import exprparser as ep
from .core import GridFunction, HypotorusError, grid_centers
from .field import (BUILTIN_NAMES, FieldSpec, SigmaComponent, build_field,
                    char_set_info, coeff_grid, normalize, parse_sigma_hint)
from .kernel import kernel_context, strategy_for, t_omega, t_omega_point
from .solvers import mean_integral, solve_a, solve_ab, solve_f
from .theta import theta_context, theta_eval
from .verify import (ResidualReport, apply_l_fd, convergence_study,
                     residual_report)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO = 2
EXIT_INCONCLUSIVE = 3

GRID_N_MIN, GRID_N_MAX = 16, 256  # the grid sizes every command accepts


class ConfigError(HypotorusError):
    """Schema violation carrying a JSON-pointer-style path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"schema error at {path}: {message}")
        self.path = path


@dataclass
class CaseConfig:
    spec: FieldSpec
    grid_n: int
    equation: str
    rhs: dict


def _require_object(obj, path):
    if not isinstance(obj, dict):
        raise ConfigError(path, f"expected an object, got {type(obj).__name__}")


def _reject_unknown(obj, path, allowed):
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}/{key}", "unknown key")


def _get_grid_n(raw) -> int:
    """The config's grid_n, 64 when absent: an integer that
    _grid_range_error accepts."""
    v = raw.get("grid_n", 64)
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError("/grid_n", f"expected an integer, got {v!r}")
    range_error = _grid_range_error(v)
    if range_error:
        raise ConfigError("/grid_n", range_error)
    return v


def _get_expr(obj, path, key):
    v = obj[key]
    if not isinstance(v, str):
        raise ConfigError(f"{path}/{key}", "expected an expression string")
    try:
        ep.parse_expr(v)
    except HypotorusError as exc:
        raise ConfigError(f"{path}/{key}", str(exc)) from exc
    return v


def _field_from_config(obj, path) -> FieldSpec:
    _require_object(obj, path)
    if "builtin" in obj:
        _reject_unknown(obj, path, {"builtin"})
        name = obj["builtin"]
        if name not in BUILTIN_NAMES:
            raise ConfigError(f"{path}/builtin",
                              f"unknown builtin {name!r}; "
                              f"choices: {', '.join(BUILTIN_NAMES)}")
        return build_field(name)
    _reject_unknown(obj, path, {"a", "b", "z_exact", "sigma"})
    for key in ("a", "b"):
        if key not in obj:
            raise ConfigError(f"{path}/{key}", "required for a custom field")
    a_src = _get_expr(obj, path, "a")
    b_src = _get_expr(obj, path, "b")
    z_src = _get_expr(obj, path, "z_exact") if "z_exact" in obj else None
    comps = []
    sig = obj.get("sigma", [])
    if not isinstance(sig, list):
        raise ConfigError(f"{path}/sigma", "expected a list")
    for idx, item in enumerate(sig):
        ipath = f"{path}/sigma/{idx}"
        _require_object(item, ipath)
        _reject_unknown(item, ipath, {"sigma_i", "hint"})
        if "sigma_i" not in item:
            raise ConfigError(f"{ipath}/sigma_i", "required")
        sv = item["sigma_i"]
        if (isinstance(sv, bool) or not isinstance(sv, (int, float))
                or not 0 < sv < math.inf):
            raise ConfigError(f"{ipath}/sigma_i",
                              f"expected a positive finite number, got {sv!r}")
        if "hint" not in item:
            raise ConfigError(f"{ipath}/hint", "required")
        hint = item["hint"]
        if not isinstance(hint, str):
            raise ConfigError(f"{ipath}/hint", "expected a string")
        y0 = parse_sigma_hint(hint)
        # a circle is declared at an ordinate; a label alone shapes nothing
        if y0 is None or not math.isfinite(y0):
            raise ConfigError(f"{ipath}/hint",
                              f"expected y=<finite number>, got {hint!r}")
        comps.append(SigmaComponent(sigma=float(sv), y0=y0, label=hint))
    return FieldSpec(name="custom", a_src=a_src, b_src=b_src,
                     z_exact_src=z_src, components=tuple(comps))


_RHS_CHOICES = {"f": ("f",), "a": ("A",), "ab": ("A",)}


def _rhs_from_config(obj, path, equation) -> dict:
    _require_object(obj, path)
    allowed = {"f", "A", "B", "manufactured_w"}
    _reject_unknown(obj, path, allowed)
    out = {}
    main_keys = [k for k in (*_RHS_CHOICES[equation], "manufactured_w")
                 if k in obj]
    want = " or ".join((*_RHS_CHOICES[equation], "manufactured_w"))
    if len(main_keys) == 0:
        raise ConfigError(f"{path}/{_RHS_CHOICES[equation][0]}",
                          f"equation {equation!r} needs exactly one of "
                          f"{want}")
    if len(main_keys) > 1:
        raise ConfigError(f"{path}/{main_keys[1]}",
                          f"equation {equation!r} takes only one of {want}")
    out[main_keys[0]] = _get_expr(obj, path, main_keys[0])
    if equation == "ab":
        if "B" not in obj:
            raise ConfigError(f"{path}/B", "required for equation 'ab'")
        out["B"] = _get_expr(obj, path, "B")
    elif "B" in obj:
        raise ConfigError(f"{path}/B",
                          f"not allowed for equation {equation!r}")
    stray = set(obj) - set(out)
    if stray:
        key = sorted(stray)[0]
        raise ConfigError(f"{path}/{key}",
                          f"not allowed for equation {equation!r}")
    return out


def _grid_range_error(n: int) -> str | None:
    """Why grid size n is refused by every command, or None if it is not:
    n outside [GRID_N_MIN, GRID_N_MAX]."""
    if not GRID_N_MIN <= n <= GRID_N_MAX:
        return f"{n} outside [{GRID_N_MIN}, {GRID_N_MAX}]"
    return None


def _grid_size_error(spec: FieldSpec, n: int) -> str | None:
    """Why an operator on the field `spec` at grid size n is refused, or
    None if it is not: _grid_range_error's refusal, or
    kernel.strategy_for's."""
    range_error = _grid_range_error(n)
    if range_error:
        return range_error
    try:
        strategy_for(spec, n)
    except HypotorusError as exc:
        return str(exc)
    return None


def load_config(path: str) -> CaseConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise HypotorusError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise HypotorusError(f"config {path} is not valid JSON: {exc}") from exc
    _require_object(raw, "")
    _reject_unknown(raw, "", {"field", "grid_n", "equation", "rhs"})
    if "field" not in raw:
        raise ConfigError("/field", "required")
    spec = _field_from_config(raw["field"], "/field")
    # the field's own limit is checked where an operator is built:
    # _load_operator_config
    grid_n = _get_grid_n(raw)
    equation = raw.get("equation")
    if equation not in ("f", "a", "ab"):
        raise ConfigError("/equation",
                          f"expected one of 'f', 'a', 'ab', got {equation!r}")
    if "rhs" not in raw:
        raise ConfigError("/rhs", "required")
    rhs = _rhs_from_config(raw["rhs"], "/rhs", equation)
    return CaseConfig(spec=spec, grid_n=grid_n, equation=equation, rhs=rhs)


def _load_operator_config(path: str) -> CaseConfig:
    """load_config for a command that builds the operator at grid_n: it
    also refuses, at /grid_n, a grid that kernel.strategy_for refuses,
    before any kernel value is computed."""
    cfg = load_config(path)
    size_error = _grid_size_error(cfg.spec, cfg.grid_n)
    if size_error:
        raise ConfigError("/grid_n", size_error)
    return cfg


# -------------------------------------------------------------- case setup

def _grid_expr(src: str, n: int) -> np.ndarray:
    x, y = grid_centers(n)
    return np.asarray(ep.eval_expr(ep.parse_expr(src), x, y), dtype=complex)


def _l_of_expr(nf, src: str, n: int) -> np.ndarray:
    """L w on the grid with exact symbolic derivatives of w."""
    ast = ep.parse_expr(src)
    wx = ep.symbolic_diff(ast, "x")
    wy = ep.symbolic_diff(ast, "y")
    x, y = grid_centers(n)
    a, b = coeff_grid(nf, n)
    return (b * np.asarray(ep.eval_expr(wx, x, y), dtype=complex)
            - a * np.asarray(ep.eval_expr(wy, x, y), dtype=complex))


def _assemble_case(cfg: CaseConfig, n: int):
    """Build the kernel context and the right-hand-side grids for one
    solve at grid size n."""
    nf = normalize(cfg.spec)
    ctx = kernel_context(nf, n)
    rhs = {}
    if cfg.equation == "f":
        if "manufactured_w" in cfg.rhs:
            rhs["f"] = _l_of_expr(nf, cfg.rhs["manufactured_w"], n)
        else:
            rhs["f"] = _grid_expr(cfg.rhs["f"], n)
    else:
        if cfg.equation == "ab":
            rhs["B"] = _grid_expr(cfg.rhs["B"], n)
        if "manufactured_w" in cfg.rhs:
            w = _grid_expr(cfg.rhs["manufactured_w"], n)
            a_vals = _l_of_expr(nf, cfg.rhs["manufactured_w"], n)
            if cfg.equation == "ab":
                a_vals = a_vals - rhs["B"] * np.exp(np.conj(w) - w)
            rhs["A"] = a_vals
        else:
            rhs["A"] = _grid_expr(cfg.rhs["A"], n)
    return ctx, rhs


def _run_solve(cfg: CaseConfig, n: int):
    ctx, rhs = _assemble_case(cfg, n)
    if cfg.equation == "f":
        return solve_f(ctx, GridFunction(n, rhs["f"]))
    if cfg.equation == "a":
        return solve_a(ctx, GridFunction(n, rhs["A"]))
    return solve_ab(ctx, GridFunction(n, rhs["A"]), GridFunction(n, rhs["B"]))


# ---------------------------------------------------------------- outputs

def _write_csv(path: str, u: GridFunction | None, n: int):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("x,y,re_u,im_u\n")
        if u is None:
            return
        # n distinct coordinates, each formatted once; each column x_i is
        # one template over y, filled from its interleaved re, im parts
        c = ["%.17g" % ((i + 0.5) / n) for i in range(n)]
        tails = [",%s,%%.17g,%%.17g\n" % cj for cj in c]
        parts = np.ascontiguousarray(u.values, dtype=complex).view(float)
        fh.write("".join((ci + ci.join(tails)) % tuple(col)
                         for ci, col in zip(c, parts.tolist())))


def _write_report(path: str, report, n: int, wall: float):
    min_abs = (float(np.abs(report.u.values).min())
               if report.u is not None else None)
    payload = {
        "solvable": report.solvable,
        "j": report.j,
        "k": report.k,
        "nu_re": report.nu.real if report.nu is not None else None,
        "nu_im": report.nu.imag if report.nu is not None else None,
        "residual_sup": report.residual_sup,
        "residual_l2": report.residual_l2,
        "iterations": report.iterations,
        "offset_constancy": report.offset_constancy,
        "min_abs_u": min_abs,
        "grid_n": n,
        "wall_time_s": wall,
        "notes": report.notes,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


_VERDICT_EXIT = {"yes": EXIT_OK, "no": EXIT_NO,
                 "inconclusive": EXIT_INCONCLUSIVE}


# ------------------------------------------------------------- subcommands

def _cmd_solve(args) -> int:
    cfg = _load_operator_config(args.config)
    t0 = time.perf_counter()
    report = _run_solve(cfg, cfg.grid_n)
    wall = time.perf_counter() - t0
    _write_csv(args.out_prefix + ".u.csv", report.u, cfg.grid_n)
    _write_report(args.out_prefix + ".report.json", report, cfg.grid_n, wall)
    print(f"solvable: {report.solvable}")
    if report.residual_sup is not None:
        print(f"residual sup {report.residual_sup:.6e}  "
              f"l2 {report.residual_l2:.6e}")
    print(f"report: {args.out_prefix}.report.json")
    return _VERDICT_EXIT[report.solvable]


def _parse_tau(text: str) -> complex:
    m = re.fullmatch(r"\s*([+-]?[0-9.]+(?:[eE][+-]?[0-9]+)?)"
                     r"([+-][0-9.]+(?:[eE][+-]?[0-9]+)?)i\s*", text)
    try:
        if m:
            return complex(float(m.group(1)), float(m.group(2)))
    except ValueError:
        pass  # "[0-9.]+" also matches runs like "1.2.3"
    raise HypotorusError(
        f"cannot parse lattice modulus {text!r}; expected RE+IMi "
        "like 0+1i or 0.3+0.8i")


def _cmd_theta_check(args) -> int:
    tau = _parse_tau(args.tau)
    if args.samples < 1:
        raise HypotorusError(
            f"--samples must be a positive integer, got {args.samples}")
    tctx = theta_context(tau)
    rng = np.random.default_rng(7031)
    zs = (rng.uniform(-1.5, 1.5, args.samples)
          + 1j * rng.uniform(-1.5, 1.5, args.samples))
    th = theta_eval(tctx, zs)
    dev_i = float(np.abs(theta_eval(tctx, zs + 1.0) - th).max())
    factor = np.exp(-1j * np.pi * tau - 2j * np.pi * zs)
    dev_ii = float((np.abs(theta_eval(tctx, zs + tau) - factor * th)
                    / np.maximum(np.abs(factor * th), 1e-30)).max())
    dev_iii = float(abs(theta_eval(tctx, tctx.zero_point)))
    print(f"period law      max deviation {dev_i:.3e}")
    print(f"tau quasi-law   max rel deviation {dev_ii:.3e}")
    print(f"|theta(z0)|     {dev_iii:.3e}")
    ok = dev_i <= 1e-10 and dev_ii <= 1e-9 and dev_iii <= 1e-10
    return EXIT_OK if ok else EXIT_ERROR


_CHECK_PROBES = (("1", "1"),
                 ("exp(i*2*pi*x)", "exp(2*pi*i*x)"),
                 ("sin(pi*y)^2", "sin^2(pi*y)"))


def _cmd_operator_check(args) -> int:
    cfg = _load_operator_config(args.config)
    n = cfg.grid_n
    ctx, _ = _assemble_case(cfg, n)
    ok = True
    for src, label in _CHECK_PROBES:
        g = GridFunction(n, _grid_expr(src, n))
        mean = mean_integral(g)
        tol = 5e-3 * (1.0 + abs(mean))
        dev_i = abs(t_omega_point(ctx, g, (1.5, 0.5))
                    - t_omega_point(ctx, g, (0.5, 0.5)))
        dev_ii = abs(t_omega_point(ctx, g, (0.25, 1.5))
                     - t_omega_point(ctx, g, (0.25, 0.5)) + mean)
        ok &= dev_i <= tol and dev_ii <= tol
        print(f"P = {label}: x-period dev {dev_i:.3e}, "
              f"y-shift dev {dev_ii:.3e} (tol {tol:.1e})")
    probe = GridFunction(n, _grid_expr("exp(i*2*pi*(x+y))", n))
    u = t_omega(ctx, probe)
    rep = residual_report(ctx.nf, apply_l_fd(ctx.nf, u), probe)
    print(f"inversion probe: FD residual sup {rep.sup_norm:.3e} "
          f"(tol 5.0e-02, excluded {rep.excluded_fraction:.3f})")
    ok &= rep.sup_norm <= 5e-2
    return EXIT_OK if ok else EXIT_ERROR


def _cmd_field_info(args) -> int:
    cfg = load_config(args.config)
    nf = normalize(cfg.spec)
    print(f"field: {cfg.spec.name}")
    print(f"x-period integral {nf.c1:.12g}")
    print(f"y-period integral {nf.c2:.12g}")
    print(f"tau {nf.tau:.12g}  (y-axis flipped: {nf.flip_y})")
    info = char_set_info(nf)
    print(f"orientation fixed: {info.sign_fixed}; min |Im(a*conj(b))| "
          f"off the degenerate set {info.min_abs_off_sigma:.3e}")
    if not info.components:
        print("degenerate set: none declared")
    for comp in info.components:
        fit = ("no rate fit" if comp.fitted_rate is None
               else f"fitted vanishing rate {comp.fitted_rate:.2f}"
                    + (" MISMATCH" if comp.rate_mismatch else ""))
        print(f"degenerate circle {comp.label}: declared order "
              f"{comp.declared_sigma:g}, {fit}")
    return EXIT_OK


def _cmd_convergence(args) -> int:
    cfg = load_config(args.config)
    try:
        sizes = [int(s) for s in args.sizes.split(",")]
    except ValueError as exc:
        raise HypotorusError(
            f"cannot parse --sizes {args.sizes!r}") from exc
    for n in sizes:
        size_error = _grid_size_error(cfg.spec, n)
        if size_error:
            raise HypotorusError(f"--sizes: {size_error}")
    verdicts = []

    def case(n: int) -> ResidualReport:
        report = _run_solve(cfg, n)
        verdicts.append(report.solvable)
        if report.u is None:
            raise HypotorusError(
                f"case is not solvable at n={n}: {report.notes}")
        return report.residual

    rows = convergence_study(case, sizes)
    print(f"{'n':>5}  {'residual_sup':>13}  {'residual_l2':>13}  "
          f"{'ratio':>7}")
    for row in rows:
        ratio = "-" if row["ratio"] is None else f"{row['ratio']:.2f}"
        print(f"{row['n']:>5}  {row['sup_norm']:>13.6e}  "
              f"{row['l2_norm']:>13.6e}  {ratio:>7}")
    worst = EXIT_OK
    for v in verdicts:
        worst = max(worst, _VERDICT_EXIT[v])
    return worst


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypotorus",
        description="Integral-kernel solvers for the vector field "
                    "b d/dx - a d/dy on the 2-torus")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field-info",
                       help="periods, lattice modulus, degenerate set")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=_cmd_field_info)

    p = sub.add_parser("theta-check",
                       help="theta-function law deviations at a modulus")
    p.add_argument("--tau", required=True, help="modulus as RE+IMi, e.g. 0+1i")
    p.add_argument("--samples", type=int, default=100)
    p.set_defaults(fn=_cmd_theta_check)

    p = sub.add_parser("operator-check",
                       help="integral-operator shift laws and inversion "
                            "probe (periodicity probes plus a zero-mean "
                            "inversion residual)")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=_cmd_operator_check)

    p = sub.add_parser("solve", help="solve the configured equation")
    p.add_argument("--config", required=True)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("convergence",
                       help="re-run the configured case over grid sizes")
    p.add_argument("--config", required=True)
    p.add_argument("--sizes", required=True, help="comma list, e.g. 32,64")
    p.set_defaults(fn=_cmd_convergence)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except HypotorusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())

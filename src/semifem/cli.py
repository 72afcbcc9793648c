"""Command-line interface: mesh generation, solves and convergence studies.

Configuration is a flat `key = value` text file with `#` comments; every
key has a documented default and unknown keys are rejected. Exit codes:
0 success, 1 numerical failure, 2 usage or configuration error.
"""

import argparse
import sys

import numpy as np

from .analysis import UNIT_SQUARE_SINE, StudyError, run_convergence_study
from .femfunction import write_function
from .mesh import (MeshError, mesh_size, preset_polygon, read_mesh,
                   read_polygon, refine_uniform, triangulate_convex_polygon,
                   write_mesh, PRESET_POLYGONS)
from .nonlinearity import PowerLaw, cut
from .solver import NewtonError, SolverConfig, SolverError, solve_semilinear

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_USAGE = 2

# key -> (default string or None when optional, help text)
CONFIG_KEYS = {
    "domain": ("unit-square", "preset name or path to a polygon/mesh file"),
    "level": ("3", "nonnegative refinement level for `mesh` and `solve`"),
    "levels": ("2..5", "nonnegative study level range, e.g. 2..5"),
    "nonlinearity": ("power_law", "reaction family (only power_law is built in)"),
    "scale": ("1.0", "power-law scale, finite and positive"),
    "exponent": ("1.0", "power-law exponent in (0, 1]"),
    "shift": ("0.0", "finite constant shift of the power-law kink"),
    "weight": ("1.0", "finite nonnegative constant weight"),
    "cut_m": (None, "optional clamp bound M; absent means no clamping"),
    "rhs": ("constant 1", "`constant <c>` or `manufactured`"),
    "reference": ("fine+2", "`exact` or `fine+<k>` with k >= 2"),
    "residual_tol": ("1e-10", "Newton residual tolerance (scaled norm)"),
    "max_newton": ("50", "Newton iteration cap"),
    "slope_floor": ("1e-6", "cap on the half-width of the difference quotient"),
    "quad_degree": ("2", "quadrature degree for the nonlinear terms, 0 to 5"),
    "output": (None, "output path; also settable with --output"),
}


class ConfigError(Exception):
    """Bad configuration: unknown key, malformed or inconsistent value."""


def parse_config(path):
    """Read a flat key = value file into a dict over the defaults."""
    values = {key: default for key, (default, _) in CONFIG_KEYS.items()}
    if path is None:
        return values
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key '{key}'")
        values[key] = value
    return values


def _float_key(cfg, key):
    try:
        return float(cfg[key])
    except (TypeError, ValueError):
        raise ConfigError(f"config key '{key}': expected a number, got {cfg[key]!r}") from None


def _int_key(cfg, key):
    try:
        return int(cfg[key])
    except (TypeError, ValueError):
        raise ConfigError(f"config key '{key}': expected an integer, got {cfg[key]!r}") from None


def build_nonlinearity(cfg):
    """Construct the reaction term described by the config."""
    family = cfg["nonlinearity"]
    if family != "power_law":
        raise ConfigError(f"config key 'nonlinearity': unknown family '{family}'")
    try:
        d = PowerLaw(scale=_float_key(cfg, "scale"),
                     exponent=_float_key(cfg, "exponent"),
                     shift=_float_key(cfg, "shift"),
                     weight=_float_key(cfg, "weight"))
    except ValueError as exc:
        raise ConfigError(f"bad nonlinearity parameters: {exc}") from exc
    if cfg["cut_m"] is not None and cfg["cut_m"] != "":
        try:
            d = cut(d, float(cfg["cut_m"]))
        except ValueError as exc:
            raise ConfigError(f"config key 'cut_m': {exc}") from exc
    return d


def build_rhs(cfg, d):
    """Return (f, exact-or-None) from the rhs value.

    `manufactured` fixes the exact solution `analysis.UNIT_SQUARE_SINE`
    and builds its right-hand side for d.
    """
    parts = cfg["rhs"].split()
    if not parts:
        raise ConfigError("config key 'rhs': empty value")
    if parts[0] == "constant":
        if len(parts) != 2:
            raise ConfigError("config key 'rhs': 'constant' needs a value, "
                              "e.g. 'rhs = constant 1'")
        try:
            c = float(parts[1])
        except ValueError:
            raise ConfigError(f"config key 'rhs': bad constant {parts[1]!r}") from None
        if not np.isfinite(c):
            raise ConfigError(f"config key 'rhs': constant must be finite, got {parts[1]!r}")
        return (lambda x, y: np.full_like(np.asarray(x, dtype=float), c)), None
    if parts[0] == "manufactured":
        if len(parts) != 1:
            raise ConfigError("config key 'rhs': 'manufactured' takes no argument")
        if cfg["domain"] != "unit-square":
            raise ConfigError("config key 'rhs': 'manufactured' requires "
                              "'domain = unit-square' (the built-in exact "
                              "solution vanishes on that boundary only)")
        return UNIT_SQUARE_SINE.rhs(d), UNIT_SQUARE_SINE
    raise ConfigError(f"config key 'rhs': unknown value {cfg['rhs']!r}")


def build_solver_config(cfg):
    try:
        return SolverConfig(
            residual_tol=_float_key(cfg, "residual_tol"),
            max_newton=_int_key(cfg, "max_newton"),
            slope_floor=_float_key(cfg, "slope_floor"),
            quad_degree=_int_key(cfg, "quad_degree"),
        )
    except ValueError as exc:
        raise ConfigError(f"bad solver configuration: {exc}") from exc


def _looks_like_mesh_file(path):
    """Whether the file reads as a mesh file rather than a polygon file.

    A mesh file starts with `nv nt`, has exactly 1 + nv + nt data lines,
    and its first vertex line holds the three fields `x y b`. The field
    count tells apart a polygon file whose lines read as `nv nt` and nv
    vertices, such as the triangle `2 0 / 0 2 / 0 0`. Mesh files carry no
    comments, so a file with a `#` line is a polygon file.
    """
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    head = lines[0].split() if lines else []
    if len(head) != 2 or any(ln.startswith("#") for ln in lines):
        return False
    try:
        nv, nt = int(head[0]), int(head[1])
    except ValueError:
        return False
    return len(lines) == 1 + nv + nt and nv > 0 and len(lines[1].split()) == 3


def build_mesh(domain, level):
    """Level-`level` mesh of a preset, polygon file, or mesh file.

    For a mesh file, `level` counts additional uniform refinements of the
    stored mesh.
    """
    if level < 0:
        raise ConfigError(f"config key 'level': must be nonnegative, got {level}")
    if domain in PRESET_POLYGONS:
        mesh = triangulate_convex_polygon(preset_polygon(domain))
    elif _looks_like_mesh_file(domain):
        mesh = read_mesh(domain)
    else:
        mesh = triangulate_convex_polygon(read_polygon(domain))
    for _ in range(level):
        mesh = refine_uniform(mesh)
    return mesh


def _parse_levels(text):
    parts = text.split("..")
    if len(parts) != 2:
        raise ConfigError(f"config key 'levels': expected 'a..b', got {text!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise ConfigError(f"config key 'levels': bad bounds in {text!r}") from None
    if lo > hi:
        raise ConfigError(f"config key 'levels': min {lo} exceeds max {hi}")
    if lo < 0:
        raise ConfigError(f"config key 'levels': levels must be nonnegative, got {lo}")
    return list(range(lo, hi + 1))


def _parse_reference(text):
    if text == "exact":
        return "exact", None
    if text.startswith("fine+"):
        try:
            k = int(text[len("fine+"):])
        except ValueError:
            raise ConfigError(f"config key 'reference': bad value {text!r}") from None
        if k < 2:
            raise ConfigError("config key 'reference': fine+k requires k >= 2")
        return "fine", k
    raise ConfigError(f"config key 'reference': expected 'exact' or 'fine+<k>', got {text!r}")


def _load_config(args):
    cfg = parse_config(args.config)
    if args.domain:
        cfg["domain"] = args.domain
    # `--level` belongs to `mesh` and `solve`, `--levels` to `study`.
    if getattr(args, "level", None) is not None:
        cfg["level"] = str(args.level)
    if getattr(args, "levels", None):
        cfg["levels"] = args.levels
    if args.output:
        cfg["output"] = args.output
    return cfg


def cmd_mesh(args):
    cfg = _load_config(args)
    mesh = build_mesh(cfg["domain"], _int_key(cfg, "level"))
    out = cfg["output"] or "mesh.txt"
    write_mesh(mesh, out)
    print(f"nv={mesh.num_vertices} nt={mesh.num_triangles} h={mesh_size(mesh):.9e}")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_solve(args):
    cfg = _load_config(args)
    d = build_nonlinearity(cfg)
    f, _ = build_rhs(cfg, d)
    mesh = build_mesh(cfg["domain"], _int_key(cfg, "level"))
    solver_cfg = build_solver_config(cfg)
    try:
        u, stats = solve_semilinear(mesh, d, f, solver_cfg)
    except NewtonError as exc:
        print(f"solve failed: {exc}", file=sys.stderr)
        if exc.residual_history:
            print(f"ndof={mesh.interior_vertices.size} "
                  f"residual={exc.residual_history[-1]:.9e}", file=sys.stderr)
        return EXIT_NUMERICAL
    out = cfg["output"] or "solution.txt"
    write_function(u, out)
    print(f"ndof={mesh.interior_vertices.size} "
          f"newton_iterations={stats.newton_iterations} "
          f"cg_iterations={stats.total_cg_iterations} "
          f"final_residual={stats.final_residual_norm:.9e}")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_study(args):
    cfg = _load_config(args)
    d = build_nonlinearity(cfg)
    f, exact = build_rhs(cfg, d)
    levels = _parse_levels(cfg["levels"])
    kind, extra = _parse_reference(cfg["reference"])
    if kind == "exact" and exact is None:
        raise ConfigError("config key 'reference': 'exact' requires "
                          "'rhs = manufactured'")
    solver_cfg = build_solver_config(cfg)
    domain = build_mesh(cfg["domain"], 0)
    out = cfg["output"] or "study.csv"
    try:
        report = run_convergence_study(
            domain, d, f, levels,
            exact=exact if kind == "exact" else None,
            extra_refinements=extra if kind == "fine" else 2,
            cfg=solver_cfg)
    except StudyError as exc:
        exc.report.write_csv(out)
        print(f"study failed: {exc}", file=sys.stderr)
        print(f"wrote partial {out}", file=sys.stderr)
        return EXIT_NUMERICAL
    report.write_csv(out)
    final = report.final()
    print(f"levels={levels[0]}..{levels[-1]} reference={report.reference}")
    if final.eoc_l2 is not None:
        print(f"final eoc_l2={final.eoc_l2:.3f} eoc_h1={final.eoc_h1:.3f} "
              f"eoc_linf={final.eoc_linf:.3f}")
    if report.reference_stats is not None:
        per_mesh = report.reference_stats.levels
        column = lambda name: ",".join(str(getattr(s, name)) for s in per_mesh)
        print(f"reference_solve levels={column('level')} "
              f"newton_iterations={column('newton_iterations')} "
              f"cg_iterations={column('cg_iterations')} "
              f"final_residual={report.reference_stats.final_residual_norm:.9e}")
    for record in report.records:
        if record.linf_vertex is not None:
            x, y = record.linf_vertex
            print(f"level={record.level} err_linf={record.err_linf:.9e} "
                  f"at x={x:.6f} y={y:.6f}")
    print(f"wrote {out}")
    return EXIT_OK


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="semifem",
        description="P1 finite elements for semilinear elliptic problems "
                    "with monotone reaction terms")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, text in (("mesh", cmd_mesh, "generate and write a mesh"),
                             ("solve", cmd_solve, "solve one discrete problem"),
                             ("study", cmd_study, "run a convergence study")):
        # No prefix matching: `study --level 3` would read as `--levels 3`.
        p = sub.add_parser(name, help=text, allow_abbrev=False)
        p.add_argument("--config", help="path to a key = value config file")
        p.add_argument("--output", help="output path")
        p.add_argument("--domain", help="preset name or polygon/mesh file")
        if name == "study":
            p.add_argument("--levels", help="study range a..b")
        else:
            p.add_argument("--level", type=int, help="refinement level")
        p.set_defaults(func=func)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors already
        return int(exc.code) if exc.code is not None else EXIT_USAGE

    try:
        return args.func(args)
    except (ConfigError, MeshError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SolverError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def console_main():
    raise SystemExit(main())

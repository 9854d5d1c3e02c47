"""Command-line entry point, configuration, persistence, figures.

Subcommands: dc (zeros at one field value), sweep (DC instability sweep),
ac (Floquet trajectory), plot (re-render CSV data), verify (oracle
cross-checks).  All artifacts are written deterministically: fixed column
orders, 17-significant-digit floats, sorted JSON keys, self-contained SVG
with inline styling.
"""

from __future__ import annotations

import argparse
import cmath
import json
import sys
import traceback
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, NamedTuple

from . import __version__
from .floquet import FloquetProblem
from .formfactor import FormFactor
from .resolvent import QUADRATURE, CutProximityError, ResolventEvaluator
from .rootfind import Window, find_zeros
from .sweep import _NUMERIC_ERRORS, ac_sweep, dc_sweep, period_labels

__all__ = ["RunConfig", "run", "main", "write_csv", "write_manifest",
           "svg_scatter", "parse_config_file"]


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


@dataclass(frozen=True)
class RunConfig:
    mode: str = "dc"
    amplitude: float = 0.1
    width: float = 1.0
    f: float = 0.0
    f_grid: tuple[float, ...] = (0.05, 0.02, 0.01, 0.005)
    re_min: float = 0.9
    re_max: float = 1.1
    im_min: float = -0.05
    im_max: float = -1e-6
    tol: float = 1e-9
    omega: float = 1.0
    im_theta: float = 0.3
    n_fourier: int = 16
    n_hermite: int = 80
    length_scale: float = 1.0
    target: complex | None = None
    out: str = "."
    csv_source: str | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        for fld in fields(self):
            value = getattr(self, fld.name)
            entries = value if fld.name == "f_grid" else (value,)
            if any(isinstance(v, (float, complex)) and not cmath.isfinite(v)
                   for v in entries):
                raise ValueError(f"{fld.name} must be finite, got {value!r}")
        if self.f < 0 or self.omega <= 0 or self.tol <= 0:
            raise ValueError("require f >= 0, omega > 0, tol > 0")
        if self.width <= 0 or self.length_scale <= 0:
            raise ValueError("width and length scale must be positive")

    @property
    def window(self) -> Window:
        return Window(self.re_min, self.re_max, self.im_min, self.im_max)

    def coupling(self) -> FormFactor:
        return FormFactor.gaussian(self.amplitude, self.width)


class _Option(NamedTuple):
    field: str          # RunConfig field
    flag: str | None    # CLI flag; None: the subcommand sets it
    key: str            # config-file key
    parse: Callable[[str], object]
    help: str | None = None


def _grid(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def _complex(text: str) -> complex:
    return complex(text.replace(" ", ""))


# every run option, in --help order
_OPTIONS = (
    _Option("mode", None, "mode", str),
    _Option("amplitude", "--amp", "form.amp", float, "coupling amplitude"),
    _Option("width", "--width", "form.width", float,
            "coupling Gaussian width"),
    _Option("f", "--f", "f", float, "field strength"),
    _Option("f_grid", "--f-grid", "f_grid", _grid,
            "comma-separated descending field grid"),
    _Option("re_min", "--re-min", "window.re_min", float),
    _Option("re_max", "--re-max", "window.re_max", float),
    _Option("im_min", "--im-min", "window.im_min", float),
    _Option("im_max", "--im-max", "window.im_max", float),
    _Option("tol", "--tol", "tol", float),
    _Option("omega", "--omega", "omega", float),
    _Option("im_theta", "--im-theta", "im_theta", float),
    _Option("n_fourier", "--n-fourier", "n_fourier", int),
    _Option("n_hermite", "--n-hermite", "n_hermite", int),
    _Option("length_scale", "--length-scale", "length_scale", float),
    _Option("target", "--target", "target", _complex,
            "complex target, e.g. 1.019-0.011j"),
    _Option("out", "--out", "out", str),
    _Option("csv_source", "--csv", "csv", str, "input CSV for plot mode"),
)
_BY_KEY = {opt.key: opt for opt in _OPTIONS}


def parse_config_file(path) -> dict:
    """Flat key=value configuration; mode prefixes (dc.window.re_min=...)
    are stripped.  Unknown keys are rejected."""
    out = {}
    for ln, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{ln}: expected key=value")
        key, val = (s.strip() for s in line.split("=", 1))
        parts = key.split(".")
        if parts[0] in MODES:
            parts = parts[1:]
        key = ".".join(parts)
        if key not in _BY_KEY:
            raise ValueError(f"{path}:{ln}: unknown key {key!r}")
        opt = _BY_KEY[key]
        out[opt.field] = opt.parse(val)
    return out


# ----------------------------------------------------------------------
# artifact writers


def write_csv(path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = []
            for v in row:
                if isinstance(v, float):
                    cells.append(_fmt(v))
                elif v is None:
                    cells.append("")
                else:
                    cells.append(str(v))
            fh.write(",".join(cells) + "\n")


def write_manifest(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def svg_scatter(path, points: list[tuple[float, float]], xlabel: str,
                ylabel: str, title: str, size: tuple[int, int] = (640, 440)
                ) -> None:
    """Self-contained scatter plot; inline styling, no external assets."""
    W, H = size
    ml, mr, mt, mb = 72, 24, 40, 56
    if points:
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
    else:
        x0, x1, y0, y1 = 0.0, 1.0, 0.0, 1.0
    if x1 - x0 < 1e-300:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 - y0 < 1e-300:
        y0, y1 = y0 - 0.5, y1 + 0.5
    padx = 0.06 * (x1 - x0)
    pady = 0.06 * (y1 - y0)
    x0, x1 = x0 - padx, x1 + padx
    y0, y1 = y0 - pady, y1 + pady

    def X(x):
        return ml + (x - x0) / (x1 - x0) * (W - ml - mr)

    def Y(y):
        return H - mb - (y - y0) / (y1 - y0) * (H - mt - mb)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<text x="{W/2:.1f}" y="24" text-anchor="middle" '
        'font-family="sans-serif" font-size="15" fill="black">'
        f'{title}</text>',
        f'<rect x="{ml}" y="{mt}" width="{W-ml-mr}" height="{H-mt-mb}" '
        'fill="none" stroke="black" stroke-width="1"/>',
    ]
    for t in _ticks(x0, x1):
        parts.append(
            f'<line x1="{X(t):.2f}" y1="{H-mb}" x2="{X(t):.2f}" '
            f'y2="{H-mb+5}" stroke="black" stroke-width="1"/>')
        parts.append(
            f'<text x="{X(t):.2f}" y="{H-mb+20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11" fill="black">'
            f'{t:.4g}</text>')
    for t in _ticks(y0, y1):
        parts.append(
            f'<line x1="{ml-5}" y1="{Y(t):.2f}" x2="{ml}" y2="{Y(t):.2f}" '
            'stroke="black" stroke-width="1"/>')
        parts.append(
            f'<text x="{ml-9}" y="{Y(t):.2f}" text-anchor="end" '
            'font-family="sans-serif" font-size="11" fill="black" '
            f'dominant-baseline="middle">{t:.4g}</text>')
    parts.append(
        f'<text x="{(ml + W - mr)/2:.1f}" y="{H-12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" fill="black">{xlabel}</text>')
    parts.append(
        f'<text x="18" y="{(mt + H - mb)/2:.1f}" text-anchor="middle" '
        'font-family="sans-serif" font-size="13" fill="black" '
        f'transform="rotate(-90 18 {(mt + H - mb)/2:.1f})">{ylabel}</text>')
    for x, y in points:
        parts.append(
            f'<circle cx="{X(x):.2f}" cy="{Y(y):.2f}" r="2.4" '
            'fill="#1f5fa8" fill-opacity="0.85"/>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")


def _cloud_figures(out: Path, rows: list[tuple]) -> list[str]:
    """Four scatter figures: Re and Im of the cloud vs f, full and fine."""
    made = []
    pts_re = [(r[0], r[1]) for r in rows]
    pts_im = [(r[0], r[2]) for r in rows]
    fs = sorted({r[0] for r in rows})
    f_fine = fs[len(fs) // 2] if fs else 0.0
    fine_re = [(f, v) for f, v in pts_re if f <= f_fine]
    fine_im = [(f, v) for f, v in pts_im if f <= f_fine]
    for name, pts, ylabel, title in (
        ("re_vs_f.svg", pts_re, "Re z", "Cloud real parts vs field strength"),
        ("re_vs_f_fine.svg", fine_re, "Re z",
         "Cloud real parts vs field strength (fine scale)"),
        ("im_vs_f.svg", pts_im, "Im z",
         "Cloud imaginary parts vs field strength"),
        ("im_vs_f_fine.svg", fine_im, "Im z",
         "Cloud imaginary parts vs field strength (fine scale)"),
    ):
        svg_scatter(out / name, pts, "f", ylabel, title)
        made.append(name)
    return made


# ----------------------------------------------------------------------
# mode runners


def _base_manifest(config: RunConfig) -> dict:
    return {
        "version": __version__,
        "mode": config.mode,
        "form_factor": [list(map(float, rec))
                        for rec in config.coupling().to_records()],
        "parameters": {
            "f": config.f,
            "f_grid": list(config.f_grid),
            "window": {"re_min": config.re_min, "re_max": config.re_max,
                       "im_min": config.im_min, "im_max": config.im_max},
            "tol": config.tol,
            "omega": config.omega,
            "im_theta": config.im_theta,
            "n_fourier": config.n_fourier,
            "n_hermite": config.n_hermite,
            "length_scale": config.length_scale,
            "target": None if config.target is None else
            [config.target.real, config.target.imag],
            "quadrature": dict(QUADRATURE),
            "deterministic": True,
        },
    }


def _run_dc(config: RunConfig, out: Path) -> tuple[str, ...]:
    phi = config.coupling()
    window = config.window
    ev = ResolventEvaluator(phi, config.f)
    zeros = find_zeros(ev.F_value, window, tol=config.tol,
                       pair=ev.F_pair)
    labels = (period_labels(ResolventEvaluator(phi, 0.0).F_value, config.f,
                            zeros) if config.f > 0 else (None,) * len(zeros))
    rows = [[config.f, r.z.real, r.z.imag, r.residual, r.winding, k]
            for r, k in zip(zeros, labels)]
    write_csv(out / "resonances.csv",
              ["f", "re_z", "im_z", "residual", "winding", "trajectory_id"],
              rows)
    manifest = _base_manifest(config)
    manifest["results"] = {
        "n_resonances": len(zeros),
        "resonances": [[r.z.real, r.z.imag] for r in zeros],
        "residuals": [r.residual for r in zeros],
        "windings": [r.winding for r in zeros],
    }
    write_manifest(out / "manifest.json", manifest)
    return ()


def _run_sweep(config: RunConfig, out: Path) -> tuple[str, ...]:
    phi = config.coupling()
    result = dc_sweep(phi, config.f_grid, config.window, tol=config.tol)
    rows = [[f, r.z.real, r.z.imag, r.residual, r.winding, k]
            for f, group, ks in zip(result.f_grid, result.resonances,
                                    result.labels)
            for r, k in zip(group, ks)]
    write_csv(out / "sweep.csv",
              ["f", "re_z", "im_z", "residual", "winding", "trajectory_id"],
              rows)
    _cloud_figures(out, [(row[0], row[1], row[2]) for row in rows])
    manifest = _base_manifest(config)
    manifest["results"] = {
        "reference_resonance": [result.reference.real, result.reference.imag],
        "c0_envelope": result.c0_envelope,
        "c0_largest_f": result.c0_largest_f,
        "max_im_per_f": list(result.max_im),
        "min_dist_reference_per_f": list(result.min_dist_reference),
        "mean_re_per_f": list(result.mean_re),
        "scatter_re_per_f": list(result.scatter_re),
        "n_per_f": [len(g) for g in result.resonances],
        "flags": result.flags,
        "errors": list(result.errors),
    }
    write_manifest(out / "manifest.json", manifest)
    return result.errors


def _run_ac(config: RunConfig, out: Path) -> tuple[str, ...]:
    problem = FloquetProblem(config.coupling(), 0.0, config.omega,
                             1j * config.im_theta, config.n_fourier,
                             config.n_hermite, config.length_scale)
    result = ac_sweep(problem, config.f_grid, target=config.target,
                      tol=config.tol)
    traj = result.points
    rows = [[p.f, config.omega, config.im_theta, config.n_fourier,
             config.n_hermite, p.z.real, p.z.imag, p.residual, p.sensitivity]
            for p in traj]
    write_csv(out / "eigenvalues.csv",
              ["f", "omega", "im_theta", "N", "J", "re_lambda", "im_lambda",
               "residual", "sensitivity"], rows)
    svg_scatter(out / "ac_trajectory.svg",
                [(p.f, abs(p.z - result.reference)) for p in traj],
                "f", "|lambda(f) - reference|",
                "Floquet eigenvalue distance to the field-free resonance")
    manifest = _base_manifest(config)
    manifest["results"] = {
        "reference": [result.reference.real, result.reference.imag],
        "trajectory": [[p.f, p.z.real, p.z.imag] for p in traj],
        "distances": list(result.distances),
        "sensitivities": [p.sensitivity for p in traj],
        "flags": result.flags,
        "errors": list(result.errors),
    }
    write_manifest(out / "manifest.json", manifest)
    return result.errors


def _run_plot(config: RunConfig, out: Path) -> tuple[str, ...]:
    if not config.csv_source:
        raise ValueError("plot mode needs --csv pointing at sweep output")
    src = config.csv_source
    rows = []
    with open(src, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        idx = {name: i for i, name in enumerate(header)}
        missing = [c for c in ("f", "re_z", "im_z") if c not in idx]
        if missing:
            raise ValueError(f"{src}: no column {', '.join(missing)}")
        cols = (idx["f"], idx["re_z"], idx["im_z"])
        for ln, line in enumerate(fh, 2):
            cells = line.rstrip("\n").split(",")
            if len(cells) <= max(cols):
                raise ValueError(f"{src}:{ln}: {len(cells)} cells, "
                                 f"expected {len(header)}")
            row = tuple(float(cells[i]) for i in cols)
            if not all(map(cmath.isfinite, row)):
                raise ValueError(f"{src}:{ln}: non-finite value in "
                                 "f, re_z or im_z")
            rows.append(row)
    made = _cloud_figures(out, rows)
    manifest = _base_manifest(config)
    manifest["results"] = {"figures": made, "points": len(rows)}
    write_manifest(out / "manifest.json", manifest)
    return ()


class _MissingDependency(Exception):
    """A run mode needs a package that is not installed: exit 2."""


def _run_verify(config: RunConfig, out: Path) -> tuple[str, ...]:
    # the oracle pulls in scipy; only this mode needs it
    try:
        from .oracle import TaylorPathError, verify_report
    except ModuleNotFoundError as exc:
        if (exc.name or "").partition(".")[0] != "scipy":
            raise
        raise _MissingDependency("verify mode needs scipy for its oracle "
                                 f"({exc})") from None
    try:
        report = verify_report()
    except TaylorPathError as exc:
        return (f"TaylorPathError: {exc}",)
    write_manifest(out / "verify.json", report)
    errors = []
    for chk in report["checks"]:
        line = (f"{chk['name']}: {'pass' if chk['pass'] else 'FAIL'} "
                f"(max deviation {chk['max_deviation']:.3e}, "
                f"{chk['points']} points)")
        print("  " + line)
        if not chk["pass"]:
            errors.append(line)
    return tuple(errors)


# each runner writes its artifacts and returns its error lines
_RUNNERS = {"dc": _run_dc, "sweep": _run_sweep, "ac": _run_ac,
            "plot": _run_plot, "verify": _run_verify}
MODES = tuple(_RUNNERS)
# exit 3 with failure.log; any other exception is a bug and propagates
_RUN_ERRORS = _NUMERIC_ERRORS + (CutProximityError,)


def run(config: RunConfig) -> int:
    """Execute a configured run; returns the process exit status."""
    out = Path(config.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"cannot create output directory: {exc}", file=sys.stderr)
        return 2
    try:
        errors = _RUNNERS[config.mode](config, out)
    except _RUN_ERRORS as exc:      # before ValueError: LinAlgError is one
        return _numeric_failure(
            out, f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}",
            str(exc))
    except _MissingDependency as exc:
        print(f"missing dependency: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    if errors:
        # the partial artifacts are written; the run still failed
        return _numeric_failure(out, "".join(e + "\n" for e in errors),
                                f"{len(errors)} failed, see failure.log")
    return 0


def _numeric_failure(out: Path, log: str, message: str) -> int:
    (out / "failure.log").write_text(log, encoding="utf-8")
    print(f"numeric failure: {message}", file=sys.stderr)
    return 3


# ----------------------------------------------------------------------
# CLI


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="starkres",
        description="Resonances of a coupled-channel model in static and "
                    "oscillating external fields")
    sub = ap.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        p = sub.add_parser(mode)
        p.add_argument("--config", type=str, default=None)
        for opt in _OPTIONS:
            if opt.flag:
                p.add_argument(opt.flag, dest=opt.field, type=opt.parse,
                               default=None, help=opt.help,
                               metavar=opt.flag[2:].replace("-", "_").upper())
    return ap


def config_from_args(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    if args.config:
        values.update(parse_config_file(args.config))
    values["mode"] = args.mode
    for opt in _OPTIONS:
        if opt.flag and getattr(args, opt.field) is not None:
            values[opt.field] = getattr(args, opt.field)
    return RunConfig(**values)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
    except (ValueError, TypeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())

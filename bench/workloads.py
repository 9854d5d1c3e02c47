"""The three workloads: how each builds its inputs, runs, and is checked.

``dc_sweep`` and ``ac_track`` are the pinned reference problems of the
README; the seed only draws the ``f_scan`` points.  ``ac_track`` runs the
README command at the truncation N = 8, J = 40 instead of N = 16, J = 80:
the full size takes over a minute and 1.3 GB per run, more than one
benchmark run may take, while the smaller one still spends most of its
time in dense LU and passes the same output checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import checks

REFERENCE_FILE = Path(__file__).with_name("reference_fscan.json")

WINDOW = (0.9, 1.1, -0.05, -1e-6)
FS_FIELDS = (0.0, 0.01, 0.005)
FS_POINTS = 4096
AC_TRUNCATION = (8, 40)


@dataclass(frozen=True)
class Workload:
    name: str
    operations: int
    build: Callable[[int, Path], Any]             # (seed, out_dir) -> inputs
    execute: Callable[[Any], Any]                 # timed call
    check: Callable[[Any, Any], list[list[str]]]  # problems per operation


# ----------------------------------------------------------------------
# dc_sweep and ac_track: driver.run on the README commands


def _build_dc(seed: int, out_dir: Path):
    from starkres.driver import RunConfig
    re_min, re_max, im_min, im_max = WINDOW
    return RunConfig(mode="sweep", f_grid=checks.DC_GRID, re_min=re_min,
                     re_max=re_max, im_min=im_min, im_max=im_max, tol=1e-9,
                     out=str(out_dir))


def _build_ac(seed: int, out_dir: Path):
    from starkres.driver import RunConfig
    n, j = AC_TRUNCATION
    return RunConfig(mode="ac", f_grid=checks.AC_GRID,
                     target=1.019054 - 0.0111115j, omega=1.0, im_theta=0.3,
                     n_fourier=n, n_hermite=j, out=str(out_dir))


def _run_driver(config):
    from starkres import driver
    return driver.run(config)


def _check_dc(config, status):
    return checks.check_dc(checks.read_dc_output(config.out, status))


def _check_ac(config, status):
    return checks.check_ac(checks.read_ac_output(config.out, status))


# ----------------------------------------------------------------------
# f_scan: F_value alone on seeded points with pinned check points among them


@dataclass(frozen=True)
class ScanInputs:
    z: np.ndarray              # seeded points with the pinned ones spread in
    check_index: np.ndarray    # where the pinned points sit in z
    reference: list            # recorded F at the pinned points, per field


def load_reference(path=REFERENCE_FILE):
    data = json.loads(Path(path).read_text())
    if tuple(data["fields"]) != FS_FIELDS:
        raise ValueError(f"{path}: fields {data['fields']} != {FS_FIELDS}")
    pts = np.array([complex(re, im) for re, im in data["points"]])
    vals = [np.array([complex(re, im) for re, im in field])
            for field in data["values"]]
    return pts, vals


def scan_points(seed: int, n: int = FS_POINTS) -> np.ndarray:
    re_min, re_max, im_min, im_max = WINDOW
    rng = np.random.default_rng(seed)
    return rng.uniform(re_min, re_max, n) + 1j * rng.uniform(im_min, im_max, n)


def spread(seeded: np.ndarray, pinned: np.ndarray):
    """The batch of ``seeded`` with ``pinned`` inserted at evenly spaced
    indices from the first to the last, and those indices.  Any stretch of
    the batch that the program evaluates together, if it is longer than the
    spacing, holds pinned points, and they fall at varying positions in it.
    """
    n = seeded.size + pinned.size
    idx = np.round(np.linspace(0, n - 1, pinned.size)).astype(int)
    z = np.empty(n, dtype=complex)
    is_pinned = np.zeros(n, dtype=bool)
    is_pinned[idx] = True
    z[idx] = pinned
    z[~is_pinned] = seeded
    return z, idx


def _build_scan(seed: int, out_dir: Path) -> ScanInputs:
    pinned, reference = load_reference()
    z, idx = spread(scan_points(seed), pinned)
    return ScanInputs(z, idx, reference)


def _run_scan(inputs: ScanInputs):
    from starkres import FormFactor, ResolventEvaluator
    phi = FormFactor.gaussian(0.1, 1.0)
    out = []
    for f in FS_FIELDS:
        try:
            out.append(ResolventEvaluator(phi, f).F_value(inputs.z))
        except Exception as exc:   # a failed call is one failed operation
            out.append(exc)
    return out


def _check_scan(inputs: ScanInputs, values):
    from starkres.oracle import erfc_closed_form
    f0 = np.array([erfc_closed_form(z) for z in inputs.z])
    return checks.check_f_scan(FS_FIELDS, inputs.z, values,
                               inputs.check_index, inputs.reference, f0)


WORKLOADS = {
    "dc_sweep": Workload("dc_sweep", len(checks.DC_GRID), _build_dc,
                         _run_driver, _check_dc),
    "ac_track": Workload("ac_track", len(checks.AC_GRID), _build_ac,
                         _run_driver, _check_ac),
    "f_scan": Workload("f_scan", len(FS_FIELDS), _build_scan, _run_scan,
                       _check_scan),
}

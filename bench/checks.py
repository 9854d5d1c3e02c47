"""Output checks of the three workloads.

Each check takes the parsed output of one iteration and returns one list
of problems per operation (one field value for ``dc_sweep`` and
``ac_track``, one field call for ``f_scan``).  An operation with any
problem counts as failed.  A problem that concerns the whole run (exit
code, reference, flags) is charged to every operation.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

# field-free resonance of the reference coupling, as pinned by the
# acceptance suite
R0 = 1.0190539888887071 - 0.011111503308084162j

DC_GRID = (0.05, 0.02, 0.01, 0.005)
DC_REFERENCE = 1.01905 - 0.0111115j
DC_REFERENCE_TOL = 1e-4
DC_CLOUD_SIZES = (2, 3, 6, 13)        # zeros per field at the seed commit

AC_GRID = (0.1, 0.05, 0.02)
AC_R0_TOL = 1e-3

FS_F0_TOL = 1e-10                     # absolute, against the erfc closed form
FS_REF_RTOL = 1e-9                    # relative, against recorded values


def _field_of(error: str, grid) -> int | None:
    """Index of the field an ``errors`` entry names (``f=<value>: ...``)."""
    head = error.split(":", 1)[0]
    if head.startswith("f="):
        try:
            f = float(head[2:])
        except ValueError:
            return None
        for i, g in enumerate(grid):
            if f == g:
                return i
    return None


def _charge(problems, grid, errors):
    for err in errors:
        i = _field_of(err, grid)
        targets = range(len(grid)) if i is None else (i,)
        for j in targets:
            problems[j].append(f"manifest error: {err}")


def _charge_all(problems, msg):
    for p in problems:
        p.append(msg)


def read_dc_output(out_dir, status: int) -> dict:
    out = Path(out_dir)
    manifest = json.loads((out / "manifest.json").read_text())
    with open(out / "sweep.csv", encoding="utf-8", newline="") as fh:
        rows = [{"f": float(r["f"]), "residual": float(r["residual"])}
                for r in csv.DictReader(fh)]
    return {"status": status, "results": manifest["results"],
            "tol": manifest["parameters"]["tol"], "rows": rows}


def check_dc(output: dict) -> list[list[str]]:
    problems: list[list[str]] = [[] for _ in DC_GRID]
    if output["status"] != 0:
        _charge_all(problems, f"exit code {output['status']}")
    res = output["results"]
    _charge(problems, DC_GRID, res["errors"])
    ref = complex(*res["reference_resonance"])
    if not abs(ref - DC_REFERENCE) <= DC_REFERENCE_TOL:
        _charge_all(problems, f"reference {ref} off by {abs(ref - DC_REFERENCE):.3g}")
    if res["flags"].get("dc_unstable") is not True:
        _charge_all(problems, "dc_unstable is not true")
    sizes = list(res["n_per_f"])
    if len(sizes) != len(DC_GRID):
        _charge_all(problems, f"n_per_f has {len(sizes)} entries")
    for i, (n, want) in enumerate(zip(sizes, DC_CLOUD_SIZES)):
        if n != want:
            problems[i].append(f"cloud size {n}, expected {want}")
    counted = [0] * len(DC_GRID)
    for row in output["rows"]:
        i = DC_GRID.index(row["f"]) if row["f"] in DC_GRID else None
        if i is None:
            _charge_all(problems, f"row at unknown field {row['f']}")
            continue
        counted[i] += 1
        if not row["residual"] <= output["tol"]:
            problems[i].append(f"residual {row['residual']:.3g} > tol")
    for i, (n, want) in enumerate(zip(counted, DC_CLOUD_SIZES)):
        if n != want:
            problems[i].append(f"{n} CSV rows, expected {want}")
    return problems


def read_ac_output(out_dir, status: int) -> dict:
    manifest = json.loads((Path(out_dir) / "manifest.json").read_text())
    return {"status": status, "results": manifest["results"]}


def check_ac(output: dict) -> list[list[str]]:
    problems: list[list[str]] = [[] for _ in AC_GRID]
    if output["status"] != 0:
        _charge_all(problems, f"exit code {output['status']}")
    res = output["results"]
    _charge(problems, AC_GRID, res["errors"])
    lam0 = [complex(re, im) for f, re, im in res["trajectory"] if f == 0.0]
    if len(lam0) != 1:
        _charge_all(problems, "no unique f = 0 eigenvalue in the trajectory")
    elif not abs(lam0[0] - R0) < AC_R0_TOL:
        _charge_all(problems, f"|lambda(0) - r0| = {abs(lam0[0] - R0):.3g}")
    d = list(res["distances"])
    if len(d) != len(AC_GRID):
        _charge_all(problems, f"{len(d)} distances for {len(AC_GRID)} fields")
    elif not all(a > b for a, b in zip(d, d[1:])):
        _charge_all(problems, f"distances do not strictly decrease: {d}")
    if res["flags"].get("ac_stable") is not True:
        _charge_all(problems, "ac_stable is not true")
    return problems


def check_f_scan(fields, z, values, check_index, reference, f0_values
                 ) -> list[list[str]]:
    """``values[k]`` is the F array for ``fields[k]`` (or the exception
    the call raised); ``check_index`` selects the pinned points whose
    recorded values ``reference[k]`` hold; ``f0_values`` is the closed
    form at every point, for the f = 0 call."""
    problems: list[list[str]] = [[] for _ in fields]
    for k, (f, v) in enumerate(zip(fields, values)):
        if isinstance(v, BaseException):
            problems[k].append(f"f={f}: {type(v).__name__}: {v}")
            continue
        v = np.asarray(v)
        if v.shape != z.shape:
            problems[k].append(f"f={f}: shape {v.shape}, expected {z.shape}")
            continue
        if not np.all(np.isfinite(v)):
            problems[k].append(f"f={f}: non-finite values")
            continue
        if f == 0.0:
            dev = float(np.max(np.abs(v - f0_values)))
            if not dev <= FS_F0_TOL:
                problems[k].append(f"f=0: closed-form deviation {dev:.3g}")
        ref = np.asarray(reference[k])
        got = v[check_index]
        rel = float(np.max(np.abs(got - ref) / np.abs(ref)))
        if not rel <= FS_REF_RTOL:
            problems[k].append(f"f={f}: recorded-value deviation {rel:.3g}")
    return problems

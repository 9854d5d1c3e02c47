import argparse
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import R0
from starkres import driver
from starkres.driver import (
    RunConfig,
    build_parser,
    config_from_args,
    main,
    parse_config_file,
    run,
    svg_scatter,
    write_csv,
)


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(mode="bogus")
    with pytest.raises(ValueError):
        RunConfig(mode="dc", f=-1.0)
    with pytest.raises(ValueError):
        RunConfig(mode="dc", omega=0.0)


def test_config_file_parsing(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(
        "# comment\n"
        "mode = sweep\n"
        "dc.window.re_min = 0.85\n"
        "window.re_max=1.15\n"
        "form.amp = 0.2\n"
        "f_grid = 0.05,0.02\n"
        "target = 1.019-0.0111j\n"
    )
    vals = parse_config_file(p)
    assert vals["mode"] == "sweep"
    assert vals["re_min"] == 0.85
    assert vals["re_max"] == 1.15
    assert vals["amplitude"] == 0.2
    assert vals["f_grid"] == (0.05, 0.02)
    assert vals["target"] == complex(1.019, -0.0111)


def test_config_file_rejects_unknown_key(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("dc.window.re_min=0.9\nfrobnicate=1\n")
    with pytest.raises(ValueError, match="unknown key"):
        parse_config_file(p)


# every config key, the flag that sets the same option, its value
ALL_OPTIONS = (
    ("form.amp", "--amp", "0.2"),
    ("form.width", "--width", "1.5"),
    ("f", "--f", "0.03"),
    ("f_grid", "--f-grid", "0.04,0.01"),
    ("window.re_min", "--re-min", "0.93"),
    ("window.re_max", "--re-max", "1.07"),
    ("window.im_min", "--im-min", "-0.04"),
    ("window.im_max", "--im-max", "-2e-6"),
    ("tol", "--tol", "1e-8"),
    ("omega", "--omega", "1.25"),
    ("im_theta", "--im-theta", "0.2"),
    ("n_fourier", "--n-fourier", "6"),
    ("n_hermite", "--n-hermite", "30"),
    ("length_scale", "--length-scale", "1.1"),
    ("target", "--target", "1.019 - 0.0111j"),
    ("out", "--out", "results"),
    ("csv", "--csv", "in.csv"),
)


def test_config_file_and_flags_give_the_same_config(tmp_path):
    cfg = tmp_path / "all.cfg"
    cfg.write_text("mode = ac\n" + "".join(
        f"ac.{key} = {val}\n" for key, _, val in ALL_OPTIONS))
    parser = build_parser()
    from_file = config_from_args(parser.parse_args(
        ["ac", "--config", str(cfg)]))
    from_flags = config_from_args(parser.parse_args(
        ["ac"] + [f"{flag}={val}" for _, flag, val in ALL_OPTIONS]))
    assert from_file == from_flags == RunConfig(
        mode="ac", amplitude=0.2, width=1.5, f=0.03, f_grid=(0.04, 0.01),
        re_min=0.93, re_max=1.07, im_min=-0.04, im_max=-2e-6, tol=1e-8,
        omega=1.25, im_theta=0.2, n_fourier=6, n_hermite=30,
        length_scale=1.1, target=complex(1.019, -0.0111), out="results",
        csv_source="in.csv")


@pytest.mark.parametrize("line", ["frobnicate = 1", "amp = 0.2",
                                  "csv_source = x.csv", "sweep.re_min = 0.9"])
def test_cli_rejects_unknown_config_key(tmp_path, capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    assert main(["dc", "--config", str(cfg)]) == 2
    assert "unknown key" in capsys.readouterr().err


# the flags of every subcommand, in order, with their help strings
CLI_FLAGS = (
    ("--config", None), ("--amp", "coupling amplitude"),
    ("--width", "coupling Gaussian width"), ("--f", "field strength"),
    ("--f-grid", "comma-separated descending field grid"),
    ("--re-min", None), ("--re-max", None), ("--im-min", None),
    ("--im-max", None), ("--tol", None), ("--omega", None),
    ("--im-theta", None), ("--n-fourier", None), ("--n-hermite", None),
    ("--length-scale", None),
    ("--target", "complex target, e.g. 1.019-0.011j"), ("--out", None),
    ("--csv", "input CSV for plot mode"),
)


@pytest.mark.parametrize("mode", ["dc", "sweep", "ac", "plot", "verify"])
def test_help_text_per_mode(monkeypatch, capsys, mode):
    # the reference parser adds each flag by hand, so argparse picks the
    # metavars
    monkeypatch.setenv("COLUMNS", "80")
    ref = argparse.ArgumentParser(prog="starkres").add_subparsers(
        dest="mode").add_parser(mode)
    for flag, text in CLI_FLAGS:
        ref.add_argument(flag, help=text)
    with pytest.raises(SystemExit):
        build_parser().parse_args([mode, "--help"])
    assert capsys.readouterr().out == ref.format_help()


def test_cli_flags_override_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("form.amp=0.2\ntol=1e-8\n")
    out = tmp_path / "o"
    rc = main(["dc", "--config", str(cfg), "--amp", "0.1", "--f", "0",
               "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["form_factor"][0][0] == 0.1
    assert manifest["parameters"]["tol"] == 1e-8


def test_dc_field_free_single_row(tmp_path):
    out = tmp_path / "run"
    rc = main(["dc", "--f", "0", "--out", str(out)])
    assert rc == 0
    lines = (out / "resonances.csv").read_text().splitlines()
    assert lines[0] == "f,re_z,im_z,residual,winding,trajectory_id"
    assert len(lines) == 2
    cells = lines[1].split(",")
    z = complex(float(cells[1]), float(cells[2]))
    assert abs(z - R0) < 1e-8
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["results"]["n_resonances"] == 1
    assert "quadrature" in manifest["parameters"]


def test_dc_field_labels_each_zero_by_its_period(tmp_path):
    out = tmp_path / "run"
    assert main(["dc", "--f", "0.02", "--im-max=-1e-6", "--out",
                 str(out)]) == 0
    with open(out / "resonances.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["trajectory_id"] for row in rows] == ["10", "11", "12"]


def test_dc_runs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["dc", "--f", "0", "--out", str(a)]) == 0
    assert main(["dc", "--f", "0", "--out", str(b)]) == 0
    assert (a / "resonances.csv").read_bytes() \
        == (b / "resonances.csv").read_bytes()
    assert (a / "manifest.json").read_bytes() \
        == (b / "manifest.json").read_bytes()


def test_sweep_small_artifacts(tmp_path):
    out = tmp_path / "sw"
    rc = main(["sweep", "--f-grid", "0.05,0.02", "--re-min", "0.95",
               "--re-max", "1.1", "--im-min=-0.05", "--im-max=-1e-6",
               "--tol", "1e-9", "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    res = manifest["results"]
    assert res["c0_envelope"] > 0
    assert "flags" in res and "dc_unstable" in res["flags"]
    assert set(res["flags"]) >= {"axis_approach", "r0_avoidance"}
    for name in ("re_vs_f.svg", "re_vs_f_fine.svg", "im_vs_f.svg",
                 "im_vs_f_fine.svg", "sweep.csv"):
        assert (out / name).exists()
    header = (out / "sweep.csv").read_text().splitlines()[0]
    assert header == "f,re_z,im_z,residual,winding,trajectory_id"
    # each field's zeros hold consecutive period numbers, which grow as f
    # falls: a zero of fixed k moves out of the window
    ids = {}
    with open(out / "sweep.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            ids.setdefault(row["f"], []).append(int(row["trajectory_id"]))
    assert ids == {"0.050000000000000003": [4, 5], "0.02": [10, 11, 12]}


def test_plot_from_csv(tmp_path):
    src = tmp_path / "data.csv"
    write_csv(src, ["f", "re_z", "im_z", "residual", "winding",
                    "trajectory_id"],
              [[0.05, 1.0, -0.03, 1e-12, 1, 0],
               [0.02, 1.01, -0.012, 1e-12, 1, 0],
               [0.02, 0.99, -0.011, 1e-12, 1, 1]])
    out = tmp_path / "figs"
    rc = main(["plot", "--csv", str(src), "--out", str(out)])
    assert rc == 0
    svg = (out / "im_vs_f.svg").read_text()
    assert svg.count("<circle") == 3
    assert ">f</text>" in svg
    assert ">Im z</text>" in svg
    assert "http://www.w3.org/2000/svg" in svg


def test_plot_missing_csv_is_config_error(tmp_path):
    assert main(["plot", "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("lines, named", [
    (["f,re_z", "0.05,1.0"], "im_z"),
    (["f,re_z,im_z", "0.05,1.0,-0.03", "0.02,1.01"], ":3:"),
    (["f,re_z,im_z", "0.05,1.0,-0.03", "inf,1.01,-0.01"], ":3: non-finite"),
    (["f,re_z,im_z", "0.05,1.0,nan", "0.02,1.01,-0.01"], ":2: non-finite"),
], ids=("missing-column", "short-row", "inf", "nan"))
def test_plot_malformed_csv_is_config_error(tmp_path, capsys, lines, named):
    src = tmp_path / "bad.csv"
    src.write_text("\n".join(lines) + "\n")
    out = tmp_path / "figs"
    assert main(["plot", "--csv", str(src), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and named in err
    assert not (out / "failure.log").exists()


def test_svg_scatter_degenerate_inputs(tmp_path):
    svg_scatter(tmp_path / "e.svg", [], "x", "y", "empty")
    svg_scatter(tmp_path / "one.svg", [(1.0, 2.0)], "x", "y", "single")
    assert (tmp_path / "e.svg").read_text().startswith("<svg")
    assert (tmp_path / "one.svg").read_text().count("<circle") == 1


def _python(*args):
    """A child interpreter that imports starkres from this working tree's
    src, not from whichever copy is installed."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path))


def test_cli_entry_point_runs():
    proc = _python("-m", "starkres.driver", "dc", "--help")
    assert proc.returncode == 0
    assert "--f-grid" in proc.stdout


@pytest.mark.parametrize("args", [
    ["dc", "--f", "inf"],
    ["dc", "--f", "nan"],
    ["dc", "--f", "0.02", "--tol", "nan"],
    ["ac", "--omega", "nan"],
    ["sweep", "--f-grid", "inf,0.05"],
], ids=["f-inf", "f-nan", "tol-nan", "omega-nan", "grid-inf"])
def test_nonfinite_option_is_config_error(tmp_path, capsys, args):
    out = tmp_path / "x"
    assert main(args + ["--out", str(out)]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not (out / "failure.log").exists()


def test_numeric_failure_exit_code(tmp_path):
    # a window straddling the branch cut triggers a numeric failure:
    # exit 3 with a failure log
    out = tmp_path / "bad"
    rc = main(["dc", "--f", "0", "--re-min=-2.0", "--re-max=-1.0",
               "--im-min=-0.5", "--im-max=0.5", "--out", str(out)])
    assert rc == 3
    assert (out / "failure.log").exists()


def test_program_error_is_not_a_numeric_failure(tmp_path, monkeypatch):
    # a bug in a runner propagates with its traceback instead of exit 3
    def broken(config, out):
        raise TypeError("a bug, not a numeric failure")

    monkeypatch.setitem(driver._RUNNERS, "dc", broken)
    out = tmp_path / "bug"
    with pytest.raises(TypeError, match="a bug"):
        run(RunConfig(mode="dc", out=str(out)))
    assert not (out / "failure.log").exists()


def test_linalg_failure_is_a_numeric_failure(tmp_path, monkeypatch):
    # LinAlgError is a ValueError, but it is a numeric failure, not a
    # configuration error
    def singular(config, out):
        raise np.linalg.LinAlgError("zero pivot")

    monkeypatch.setitem(driver._RUNNERS, "dc", singular)
    out = tmp_path / "singular"
    assert run(RunConfig(mode="dc", out=str(out))) == 3
    assert (out / "failure.log").read_text().startswith(
        "LinAlgError: zero pivot\n")


def test_sweep_failed_fields_exit_code(tmp_path, monkeypatch):
    # a field whose search fails keeps its partial artifacts and exits 3
    from starkres import QuadratureError, sweep
    real = sweep.find_zeros

    def find_zeros(F, window, tol=1e-10, *, pair):
        if F.__self__.f > 0:        # F is the evaluator's bound F_value
            raise QuadratureError("no convergence", 1e-3)
        return real(F, window, tol=tol, pair=pair)

    monkeypatch.setattr(sweep, "find_zeros", find_zeros)
    out = tmp_path / "failed"
    rc = run(RunConfig(mode="sweep", f_grid=(0.05,), out=str(out)))
    assert rc == 3
    errors = json.loads((out / "manifest.json").read_text())["results"][
        "errors"]
    assert errors and errors[0].startswith("f=0.050000000000000003: "
                                           "QuadratureError")
    assert (out / "sweep.csv").exists()
    assert (out / "failure.log").read_text() == errors[0] + "\n"


def test_sweep_window_must_be_below_axis(coupling):
    from starkres import Window, dc_sweep
    import pytest as _pytest
    with _pytest.raises(ValueError, match="Im z <= 0"):
        dc_sweep(coupling, (0.05,), Window(0.9, 1.1, -0.05, 0.01))


def test_verify_subcommand(tmp_path):
    out = tmp_path / "v"
    rc = main(["verify", "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "verify.json").read_text())
    assert report["all_pass"]
    assert {c["name"] for c in report["checks"]} >= {
        "free_vs_erfc_closed_form", "pole_term_jump"}


def test_verify_failure_exit_code(tmp_path, monkeypatch):
    # a failing oracle check exits 3 with a failure log naming it
    report = {"checks": [
        {"name": "pole_term_jump", "points": 1, "max_deviation": 0.5,
         "pass": False},
        {"name": "free_vs_erfc_closed_form", "points": 24,
         "max_deviation": 1e-15, "pass": True}], "all_pass": False}
    monkeypatch.setattr("starkres.oracle.verify_report", lambda: report)
    out = tmp_path / "v"
    assert main(["verify", "--out", str(out)]) == 3
    assert json.loads((out / "verify.json").read_text()) == report
    assert (out / "failure.log").read_text() == (
        "pole_term_jump: FAIL (max deviation 5.000e-01, 1 points)\n")


def test_verify_taylor_path_error_exit_code(tmp_path, monkeypatch):
    from starkres.oracle import TaylorPathError

    def leaves_the_disk():
        raise TaylorPathError("step left the convergence disk")

    monkeypatch.setattr("starkres.oracle.verify_report", leaves_the_disk)
    out = tmp_path / "v"
    assert main(["verify", "--out", str(out)]) == 3
    assert (out / "failure.log").read_text() == (
        "TaylorPathError: step left the convergence disk\n")


def test_import_leaves_the_oracle_unloaded():
    # the oracle and scipy.integrate load only for the verify mode, and
    # no scipy module loads with the driver
    proc = _python(
        "-c", "import sys, starkres.driver; print(sorted(m for m in "
        "sys.modules if m in ('starkres.oracle', 'scipy') "
        "or m.startswith('scipy.')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


_LOADED = ("import json, sys; print(json.dumps(sorted(m for m in sys.modules "
           "if m == 'scipy' or m.startswith('scipy.'))))")
_RUNS = {
    "dc": "main(['dc', '--f', '0', '--out', {out!r}])",
    "sweep": "main(['sweep', '--f-grid', '0.05,0.02', '--out', {out!r}])",
    "ac": ("main(['ac', '--f-grid', '0.1,0.05', '--n-fourier', '4', "
           "'--n-hermite', '40', '--out', {out!r}])"),
}


@pytest.mark.parametrize("mode", ("dc", "sweep", "ac"))
def test_runs_leave_scipy_unloaded(tmp_path, mode):
    # a dc, sweep or ac run, each in a fresh interpreter, loads no scipy
    # module
    run = _RUNS[mode].format(out=str(tmp_path / mode))
    proc = _python("-c", "from starkres.driver import main; "
                   f"assert {run} == 0; " + _LOADED)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


# a meta_path finder ahead of every other that refuses scipy and its
# submodules, as if scipy were not installed
_NO_SCIPY = "\n".join((
    "import sys",
    "class NoScipy:",
    "    def find_spec(self, name, path=None, target=None):",
    "        if name == 'scipy' or name.startswith('scipy.'):",
    "            raise ModuleNotFoundError(f'No module named {name!r}',",
    "                                      name=name)",
    "sys.meta_path.insert(0, NoScipy())",
    "from starkres.driver import main"))


def test_ac_without_scipy_writes_the_same_eigenvalues(tmp_path):
    # the Schur solves need numpy alone: with scipy refused, the ac mode
    # exits 0 and writes the eigenvalues of an unrestricted run
    args = ["ac", "--f-grid", "0.1", "--n-fourier", "2", "--n-hermite", "8",
            "--out"]
    refused, free = tmp_path / "refused", tmp_path / "free"
    proc = _python("-c", f"{_NO_SCIPY}\nsys.exit(main("
                   f"{args + [str(refused)]!r}))")
    assert proc.returncode == 0, proc.stderr
    assert main(args + [str(free)]) == 0
    assert ((refused / "eigenvalues.csv").read_text()
            == (free / "eigenvalues.csv").read_text())


def test_verify_without_scipy_exits_2_naming_scipy(tmp_path):
    # the oracle needs scipy: with scipy refused, the verify mode ends
    # with exit 2 and one line on stderr, not a traceback
    proc = _python("-c", f"{_NO_SCIPY}\nsys.exit(main(['verify', '--out', "
                   f"{str(tmp_path / 'v')!r}]))")
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("missing dependency: ")
    assert "scipy" in lines[0]
    assert "Traceback" not in proc.stderr


def test_evaluator_leaves_scipy_unloaded():
    # F_value and F_pair at f = 0 and at f = 0.05, on a batch whose
    # rightmost node at 1 - 0.01i lies nearer 0 than _AIRY_R, so that the
    # Airy pair starts further out and is carried in
    proc = _python("-c", "\n".join((
        "import numpy as np",
        "from starkres import FormFactor, ResolventEvaluator, resolvent",
        "z = np.array([1.0 - 0.01j, 0.95 - 0.02j])",
        "for f in (0.0, 0.05):",
        "    ev = ResolventEvaluator(FormFactor.gaussian(0.1, 1.0), f)",
        "    ev.F_value(z)",
        "    ev.F_pair(z)",
        "zeta = ev._airy_grid.L * f ** (1 / 3) - z * f ** (-2 / 3)",
        "assert np.abs(zeta).min() < resolvent._AIRY_R",
        _LOADED)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_ac_subcommand_small(tmp_path):
    out = tmp_path / "ac"
    rc = main(["ac", "--f-grid", "0.1,0.05,0.02", "--n-fourier", "4",
               "--n-hermite", "40", "--tol", "1e-9", "--out", str(out)])
    assert rc == 0
    lines = (out / "eigenvalues.csv").read_text().splitlines()
    assert lines[0] == ("f,omega,im_theta,N,J,re_lambda,im_lambda,"
                       "residual,sensitivity")
    assert len(lines) == 5   # three field values plus the f=0 limit
    manifest = json.loads((out / "manifest.json").read_text())
    assert "ac_stable" in manifest["results"]["flags"]
    assert (out / "ac_trajectory.svg").exists()
    # the manifest lists trajectory and sensitivities in the CSV row order,
    # with the f = 0 limit last
    with open(out / "eigenvalues.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    results = manifest["results"]
    assert [float(r["f"]) for r in rows] == [p[0] for p in results["trajectory"]]
    assert results["trajectory"][-1][0] == 0.0
    assert [float(r["sensitivity"]) for r in rows] == results["sensitivities"]

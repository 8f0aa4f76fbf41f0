import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import pdirichlet
from pdirichlet import cli
from pdirichlet.cli import run
from pdirichlet.config import RunConfig
from pdirichlet.csvio import Table, read_csv, write_csv
from pdirichlet.density import reference_density
from pdirichlet.experiments import StudyConfig, constraint_labels, label_value, minimizer_comparison
from pdirichlet.graph import build_epsilon_graph, default_epsilon
from pdirichlet.patches import build_patches

TINY = ["--n", "128", "--T", "256", "--mesh", "32", "--points-per-patch", "8",
        "--tol", "0.001", "--h", "0.1"]


def test_sample_rerun_is_bit_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run(["sample", "--n", "100", "--seed", "3", "--out", str(a)]) == 0
    assert run(["sample", "--n", "100", "--seed", "3", "--out", str(b)]) == 0
    assert (a / "sample.csv").read_bytes() == (b / "sample.csv").read_bytes()
    t = read_csv(a / "sample.csv")
    assert t.header == ("x", "y")
    assert len(t.rows) == 100


def test_sample_seed_changes_output(tmp_path):
    assert run(["sample", "--n", "50", "--seed", "1", "--out", str(tmp_path / "a")]) == 0
    assert run(["sample", "--n", "50", "--seed", "2", "--out", str(tmp_path / "b")]) == 0
    assert (
        (tmp_path / "a" / "sample.csv").read_bytes()
        != (tmp_path / "b" / "sample.csv").read_bytes()
    )


def test_density_writes_mesh_dump_and_sidecar(tmp_path):
    assert run(["density", *TINY, "--out", str(tmp_path)]) == 0
    t = read_csv(tmp_path / "density.csv")
    assert t.header == ("x", "y", "value")
    assert len(t.rows) == 32 * 32
    # the mesh sites, x fastest, written byte for byte as the meshgrid layout
    xx, yy = np.meshgrid(np.linspace(0.0, 1.0, 32), np.linspace(0.0, 1.0, 32))
    expect = Table.from_columns(("x", "y", "value"), (xx.ravel(), yy.ravel(), t.column("value")))
    write_csv(expect, tmp_path / "expect.csv")
    assert (tmp_path / "density.csv").read_bytes() == (tmp_path / "expect.csv").read_bytes()
    sidecar = (tmp_path / "density.cfg").read_text()
    assert "h=0.10000000000000001" in sidecar  # full precision, no silent defaults
    assert "subcommand=density" in sidecar


def test_solve_discrete_artifacts(tmp_path):
    assert run(["solve-discrete", *TINY, "--out", str(tmp_path)]) == 0
    labels = read_csv(tmp_path / "discrete_labels.csv")
    assert labels.header == ("i", "x", "y", "f")
    assert len(labels.rows) == 128 + 16  # cloud plus the constraint lattice
    edges = read_csv(tmp_path / "discrete_edges.csv")
    assert edges.header == ("i", "j", "w")
    assert all(w > 0 for w in edges.column("w"))



def test_edge_csv_in_small_blocks_matches_a_coo_write(tmp_path, monkeypatch):
    # the edge table gathered 5 stored entries and written 3 rows at a time
    monkeypatch.setattr("pdirichlet.graph._EDGE_CHUNK", 5)
    monkeypatch.setattr("pdirichlet.csvio._CHUNK_ROWS", 3)
    assert run(["solve-discrete", *TINY, "--out", str(tmp_path)]) == 0
    monkeypatch.undo()
    labels = read_csv(tmp_path / "discrete_labels.csv")
    points = np.column_stack([labels.column("x"), labels.column("y")])
    graph = build_epsilon_graph(points, default_epsilon(points.shape[0], 3.0))
    upper = sp.triu(graph.weights, k=1).tocoo()
    assert upper.nnz > 100
    write_csv(Table.from_columns(("i", "j", "w"),
                                 (upper.row.astype(int), upper.col.astype(int), upper.data)),
              tmp_path / "expect.csv")
    assert (tmp_path / "discrete_edges.csv").read_bytes() == (tmp_path / "expect.csv").read_bytes()

def test_solve_discrete_reruns_share_the_sampler_tables(tmp_path, monkeypatch):
    rho = reference_density("rho1")
    assert reference_density("rho1") is rho
    # start from no tables, so the first run builds them and the second reuses them
    monkeypatch.setattr(rho, "_sampler_cache", {})
    assert run(["solve-discrete", *TINY, "--out", str(tmp_path / "a")]) == 0
    tables = rho._sampler_cache[1024]
    assert run(["solve-discrete", *TINY, "--out", str(tmp_path / "b")]) == 0
    assert rho._sampler_cache[1024] is tables
    for name in ("discrete_labels.csv", "discrete_edges.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_solve_discrete_knn_variant(tmp_path):
    assert run(["solve-discrete", *TINY, "--k", "6", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "discrete_labels.csv").exists()


def test_solve_continuum_writes_field(tmp_path, capsys):
    assert run(["solve-continuum", *TINY, "--out", str(tmp_path)]) == 0
    printed = capsys.readouterr().out
    assert "sample:" in printed and "solve:" in printed
    t = read_csv(tmp_path / "continuum_field.csv")
    assert t.header == ("patch", "x", "y", "u")
    assert len(t.rows) == 9 * 8 * 8  # 3x3 patches at 8 points per dimension
    # rows run [patch, iy, ix] over the domain's node copies
    np.testing.assert_array_equal(t.column("patch"), np.repeat(np.arange(9), 64))
    labels = constraint_labels()
    dom = build_patches(labels.positions, labels.values, 8, tiles=(3, 3), label_fn=label_value)
    np.testing.assert_array_equal(np.column_stack([t.column("x"), t.column("y")]), dom.points)
    manifest = (tmp_path / "solve_continuum_manifest.txt").read_text()
    assert "config_hash=" in manifest and "seeds=1" in manifest


def test_solve_continuum_builds_its_domain_through_the_experiments_global(
    tmp_path, monkeypatch
):
    # a tracer that rebinds `pdirichlet.experiments.build_patches` sees the
    # CLI's domain build too
    calls = []

    def counting_build_patches(*args, **kwargs):
        calls.append(args)
        return build_patches(*args, **kwargs)

    monkeypatch.setattr("pdirichlet.experiments.build_patches", counting_build_patches)
    assert run(["solve-continuum", *TINY, "--out", str(tmp_path)]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["solve-discrete", "solve-continuum"])
def test_solve_line_ends_with_the_certificate(tmp_path, capsys, command):
    assert run([command, *TINY, "--out", str(tmp_path)]) == 0
    line = re.search(
        r"^solve: p=\S+ converged=(\S+) iterations=\d+ residual=\S+ energy=(\S+) "
        r"\(\d+\.\d\ds\) stop=(\S+) decrement=(\S+) pcg=(\d+)$",
        capsys.readouterr().out,
        re.M,
    )
    assert line is not None
    converged, energy, stop, decrement, pcg = line.groups()
    assert (converged, stop) == ("True", "converged")
    # the decrement certifies the relative energy gap at the CLI's --tol
    assert 0.0 <= float(decrement) <= 1e-3 * float(energy)
    # at least the start step's system is solved
    assert int(pcg) >= 1


def test_study_density_csv_shape(tmp_path):
    assert run(["study-density", *TINY, "--svg", "--out", str(tmp_path)]) == 0
    t = read_csv(tmp_path / "study_density.csv")
    # one row per (estimator, n) cell over the three-point sweep
    assert len(t.rows) == 2 * 3
    assert set(t.column("n")) == {32, 128, 512}
    timing = read_csv(tmp_path / "study_density_timing.csv")
    assert len(timing.rows) == 2 * 3 * 5  # five seeds per cell
    svg = (tmp_path / "study_density.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_study_minimizers_matches_the_library_study(tmp_path, capsys):
    args = ["--density", "rho2", "--n", "32", "--T", "256", "--mesh", "32",
            "--points-per-patch", "4",
            "--tol", "0.001", "--seed", "4"]
    assert run(["study-minimizers", *args, "--out", str(tmp_path)]) == 0
    assert "study: 45 runs over n=(8, 32, 128)" in capsys.readouterr().out
    study = minimizer_comparison(
        StudyConfig(density="rho2", n_values=(8, 32, 128), T=256, tol=0.001,
                    seeds=(4, 5, 6, 7, 8), mesh_size=32, points_per_patch=4,
                    include_discrete=True)
    )
    write_csv(study.results, tmp_path / "library.csv")
    assert (tmp_path / "study_minimizers.csv").read_bytes() == (
        tmp_path / "library.csv"
    ).read_bytes()
    timing = read_csv(tmp_path / "study_minimizers_timing.csv")
    assert timing.header == study.timing.header
    assert [row[:3] for row in timing.rows] == [row[:3] for row in study.timing.rows]
    manifest = (tmp_path / "study_minimizers_manifest.txt").read_text()
    assert "seeds=4,5,6,7,8" in manifest


def test_no_pipeline_reads_the_kde_at_scattered_points(tmp_path, monkeypatch):
    # every KDE value a subcommand reads is on a tensor lattice (the spline
    # knots, the collocation nodes) or an FFT mesh, so the dense pair blocks
    # and the pointwise gradient are never needed
    def fail(*args, **kwargs):
        raise AssertionError("the KDE was read at scattered points")

    monkeypatch.setattr("pdirichlet.density._sq_distances", fail)
    monkeypatch.setattr("pdirichlet.density._kde_gradient", fail)
    small = ["--density", "rho2", "--n", "32", "--T", "256", "--mesh", "32",
             "--points-per-patch", "4", "--tol", "0.001"]
    for command, args in (("density", TINY), ("solve-continuum", TINY),
                          ("study-density", TINY), ("study-minimizers", small)):
        assert run([command, *args, "--out", str(tmp_path / command)]) == 0


def test_study_rejects_indivisible_n(tmp_path):
    assert run(["study-density", "--n", "30", "--out", str(tmp_path)]) == 2


def test_exit_codes_by_category(tmp_path):
    assert run(["solve-continuum", "--p", "1.5", "--out", str(tmp_path)]) == 2
    assert run(["solve-continuum", "--p", "2", "--out", str(tmp_path)]) == 2
    assert run(["sample", "--n", "-2", "--out", str(tmp_path)]) == 2


def test_large_p_continuum_ends_with_a_validation_error(tmp_path, capsys):
    # at p = 400 sigma_eta takes its Gamma ratio in logs, but the energy of
    # the p = 2 start overflows: a validation error, not a traceback
    with np.errstate(over="ignore", invalid="ignore"):
        code = run(["solve-continuum", *TINY, "--p", "400", "--out", str(tmp_path)])
    assert code == 3
    assert "p = 400 energy of the start overflows" in capsys.readouterr().err


def test_config_file_flags_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n=64\nseed=9\n")
    out = tmp_path / "out"
    assert run(["sample", "--config", str(cfg), "--n", "32", "--out", str(out)]) == 0
    assert len(read_csv(out / "sample.csv").rows) == 32
    manifest = (out / "sample_manifest.txt").read_text()
    assert "seed=9" in manifest


def test_shared_parser_keeps_no_value_between_runs(tmp_path, monkeypatch):
    # the parser is built once per process; each run must still see only
    # its own flags
    seen = []
    monkeypatch.setattr("pdirichlet.cli._HANDLERS",
                        dict.fromkeys(cli._HANDLERS, seen.append))
    out = str(tmp_path)
    assert run(["solve-discrete", "--n", "64", "--p", "2.5", "--k", "5", "--seed", "9",
                "--density", "rho3", "--svg", "--out", out]) == 0
    assert run(["study-minimizers", "--tol", "0.01", "--out", out]) == 0
    assert run(["sample", "--out", out]) == 0
    assert seen == [
        RunConfig("solve-discrete", n=64, p=2.5, k=5, seed=9, density="rho3", svg=True, out=out),
        RunConfig("study-minimizers", tol=0.01, out=out),
        RunConfig("sample", out=out),
    ]
    assert cli._build_parser() is cli._build_parser()


def _python(*args):
    """Run a fresh interpreter that imports the package this process imported."""
    src = str(Path(pdirichlet.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_module_entry_point():
    proc = _python("-m", "pdirichlet.cli", "--help")
    assert proc.returncode == 0
    for name in ("sample", "solve-continuum", "study-minimizers"):
        assert name in proc.stdout


def test_cli_import_leaves_scipy_signal_unloaded():
    # importing scipy.signal loads scipy.stats: about 0.25 s of every CLI start
    proc = _python("-c", "import sys, pdirichlet.cli; print('scipy.signal' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_runs_leave_spatial_special_interpolate_optimize_and_fft_unloaded(tmp_path):
    # the epsilon graph's pairs come from the package's strip search and the
    # KDE's dense blocks from numpy, so only a kNN graph (--k) loads
    # scipy.spatial, and with it scipy.special; the spline density is
    # evaluated by the package's own B-spline kernel, so no run below loads
    # scipy.interpolate (with scipy.optimize, about 0.05 s and 10 MB of a
    # first spline fit); the KDE's mesh values are products of 1D Gaussian
    # factors, so study-density does not load scipy.fft either
    code = f"""
import sys
from pdirichlet.cli import run

lazy = ("scipy.spatial", "scipy.special", "scipy.interpolate", "scipy.optimize", "scipy.fft")
def loaded():
    return [name for name in lazy if name in sys.modules]

assert loaded() == [], loaded()
assert run(["solve-discrete", "--n", "64", "--p", "2", "--out", {str(tmp_path / "d")!r}]) == 0
assert loaded() == [], loaded()
assert run(["density", "--n", "64", "--T", "64", "--mesh", "16", "--h", "0.2",
            "--out", {str(tmp_path / "e")!r}]) == 0
assert loaded() == [], loaded()
assert run(["solve-continuum", "--n", "64", "--T", "64", "--h", "0.2",
            "--points-per-patch", "4", "--out", {str(tmp_path / "c")!r}]) == 0
assert loaded() == [], loaded()
assert run(["study-minimizers", "--n", "8", "--T", "64", "--mesh", "16",
            "--points-per-patch", "4", "--tol", "0.01", "--out", {str(tmp_path / "s")!r}]) == 0
assert loaded() == [], loaded()
assert run(["study-density", "--n", "8", "--T", "64", "--mesh", "16",
            "--out", {str(tmp_path / "sd")!r}]) == 0
assert loaded() == [], loaded()
assert run(["solve-discrete", "--n", "64", "--p", "2", "--k", "8",
            "--out", {str(tmp_path / "k")!r}]) == 0
"""
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    for name in ("discrete_labels.csv", "density.csv", "continuum_field.csv",
                 "study_minimizers.csv", "study_density.csv"):
        assert next(tmp_path.rglob(name)).stat().st_size > 0


def test_cli_run_keeps_large_buffers_on_the_heap(tmp_path):
    # glibc only: after a CLI call a 16 MiB buffer comes from the heap, not
    # from a mapping of its own, however the run before it left the heap
    code = f"""
import ctypes
import numpy as np
from pdirichlet.cli import run

class Info(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd",
        "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost")]

libc = ctypes.CDLL(None)
if not hasattr(libc, "mallinfo2"):
    print("skip")
    raise SystemExit
libc.mallinfo2.restype = Info
assert run(["sample", "--n", "8", "--out", {str(tmp_path)!r}]) == 0
mapped = libc.mallinfo2().hblks
buffer = np.ones(2**21)
print(libc.mallinfo2().hblks - mapped)
"""
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    if proc.stdout.split()[-1] == "skip":
        pytest.skip("C library without mallinfo2")
    assert proc.stdout.split()[-1] == "0"

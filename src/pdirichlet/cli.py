"""Command-line entry point: subcommands, artifacts, and manifests.

Every subcommand takes `--config FILE` and one flag per config-file key
but `subcommand`, derived from the key table `config._KEYS`: the key
spelled `--key` with `_` as `-`, its description as the help text, and
`svg` a switch. Flags take precedence over the file. A subcommand parses
them into one validated config, runs one pipeline, writes CSV artifacts plus
a manifest listing the full configuration, its hash, the seeds, and the
library versions, and prints a one-line summary per stage; both solve
subcommands print the same `solve:` line, and `solve-continuum` pins the
same 3 x 3 lattice domain that `study-minimizers` solves on. Exit codes map
error categories: 0 success, 2 configuration, 3 invalid values or
constraints, 4 a singular linear system, 5 other package errors. A solve
that ends unconverged is no error: its summary line says converged=False.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .config import _KEYS, RunConfig, config_hash, config_text, parse_config
from .continuum import ContinuumProblem, minimize_continuum
from .csvio import Table, _write_text, write_csv
from .density import (
    KdeDensityField,
    SplineConfig,
    _mesh_points,
    reference_density,
    sample_density,
    skde_fit,
    spline_knots,
)
from .errors import PDirichletError
from .experiments import (
    StudyConfig,
    _lattice_domain,
    constraint_labels,
    density_error_study,
    minimizer_comparison,
)
from .graph import (
    _upper_triangle,
    build_epsilon_graph,
    build_knn_graph,
    default_epsilon,
    minimize_discrete,
)

_EXIT_CODES = {
    "config": 2,
    "validation": 3,
    "constraint": 3,
    "singular-system": 4,
    "runtime": 5,
}

# glibc mallopt parameters, and the values they are fixed at: the most
# glibc's own adjustment may raise them to
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 * 2**20
_TRIM_THRESHOLD = 2 * _MMAP_THRESHOLD

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdirichlet",
        description="Constrained p-Dirichlet labeling: sampling, density "
        "estimation, discrete and continuum solvers, and studies.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    specs = {
        "sample": "draw a seeded point cloud from a reference density",
        "density": "estimate the density from samples and dump it on the mesh",
        "solve-discrete": "minimize the graph energy on a sampled cloud",
        "solve-continuum": "run the sample/estimate/minimize pipeline",
        "study-density": "sweep estimator errors over sample sizes",
        "study-minimizers": "compare minimizer routes over sample sizes",
    }
    for name, help_text in specs.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", default=None, help="key=value config file")
        for key, (_, caster, description) in _KEYS.items():
            if key != "subcommand":
                kind = {"action": "store_true"} if caster is None else {"metavar": "V"}
                cmd.add_argument("--" + key.replace("_", "-"), default=None, help=description,
                                 **kind)
    return parser


def _stage(name: str, detail: str, seconds: float, tail: str = "") -> None:
    print(f"{name}: {detail} ({seconds:.2f}s){tail}")


def _solve_stage(config: RunConfig, result, seconds: float) -> None:
    """The `solve:` line of either route's `MinimizerResult`."""
    _stage(
        "solve",
        f"p={config.p:g} converged={result.converged} iterations={result.iterations} "
        f"residual={result.residual:.3e} energy={result.energy:.6e}",
        seconds,
        f" stop={result.stop_reason} decrement={result.decrement:.3e}"
        f" pcg={result.pcg_iterations}",
    )


def _out_dir(config: RunConfig) -> Path:
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(config: RunConfig, out: Path, seeds) -> Path:
    slug = config.subcommand.replace("-", "_")
    path = out / f"{slug}_manifest.txt"
    lines = [
        "# run manifest",
        f"config_hash={config_hash(config)}",
        "seeds=" + ",".join(str(s) for s in seeds),
        f"python={sys.version.split()[0]}",
        f"numpy={np.__version__}",
        f"scipy={scipy.__version__}",
        f"pdirichlet={__version__}",
        "",
        "# full configuration (defaults included)",
        config_text(config).rstrip("\n"),
    ]
    _write_text(path, "\n".join(lines) + "\n")
    return path


def _mesh_table(values: np.ndarray) -> Table:
    points = _mesh_points(values.shape[0])
    return Table.from_columns(("x", "y", "value"), (points[:, 0], points[:, 1], values.ravel()))


def _estimate_field(config: RunConfig, cloud):
    """KDE then spline smoothing, with one summary line per stage."""
    start = time.perf_counter()
    kde = KdeDensityField(cloud, config.h)
    spline_config = SplineConfig(num_knots=config.T, lam=config.lam)
    knot_values = kde.value_at(spline_knots(spline_config))
    _stage("kde", f"h={config.h:g} evaluated on {config.T} knots", time.perf_counter() - start)
    start = time.perf_counter()
    spline = skde_fit(knot_values, spline_config)
    _stage("skde", f"T={config.T} lambda={config.lam:g}", time.perf_counter() - start)
    return spline


def _cmd_sample(config: RunConfig) -> None:
    out = _out_dir(config)
    rho = reference_density(config.density)
    start = time.perf_counter()
    cloud = sample_density(rho, config.n, seed=config.seed)
    _stage(
        "sample",
        f"{config.n} points from {config.density} (seed {config.seed})",
        time.perf_counter() - start,
    )
    write_csv(Table.from_columns(("x", "y"), (cloud.points[:, 0], cloud.points[:, 1])),
              out / "sample.csv")
    manifest = _write_manifest(config, out, (config.seed,))
    print(f"write: sample.csv ({config.n} rows), {manifest.name}")


def _cmd_density(config: RunConfig) -> None:
    out = _out_dir(config)
    rho = reference_density(config.density)
    start = time.perf_counter()
    cloud = sample_density(rho, config.n, seed=config.seed)
    _stage("sample", f"{config.n} points from {config.density}", time.perf_counter() - start)
    spline = _estimate_field(config, cloud)
    start = time.perf_counter()
    values = spline.on_mesh(config.mesh)
    mass = float(values.mean())
    _stage("evaluate", f"mesh {config.mesh}x{config.mesh}, mean value {mass:.6f}",
           time.perf_counter() - start)
    write_csv(_mesh_table(values), out / "density.csv")
    _write_text(out / "density.cfg", config_text(config))
    manifest = _write_manifest(config, out, (config.seed,))
    print(f"write: density.csv ({config.mesh ** 2} rows), density.cfg, {manifest.name}")


def _edge_table(weights) -> Table:
    """The i,j,w table of a graph's edges i < j, in CSR order. Its columns
    are filled from the weights' upper triangle a block of rows at a time,
    i and j in the weights' index type."""
    m = weights.nnz // 2
    columns = (np.empty(m, weights.indices.dtype), np.empty(m, weights.indices.dtype),
               np.empty(m))
    start = 0
    for block in _upper_triangle(weights):
        stop = start + block[0].size
        for column, part in zip(columns, block):
            column[start:stop] = part
        start = stop
    return Table.from_columns(("i", "j", "w"), columns)


def _cmd_solve_discrete(config: RunConfig) -> None:
    out = _out_dir(config)
    rho = reference_density(config.density)
    labels = constraint_labels()
    start = time.perf_counter()
    cloud = sample_density(rho, config.n, seed=config.seed)
    points = np.vstack([cloud.points, labels.positions])
    if config.k is not None:
        graph = build_knn_graph(points, config.k)
        scale = f"k={config.k}"
    else:
        epsilon = config.epsilon
        if epsilon is None:
            epsilon = default_epsilon(points.shape[0], config.p)
        graph = build_epsilon_graph(points, epsilon)
        scale = f"epsilon={epsilon:.6g}"
    _stage("graph", f"{graph.n} nodes, {graph.num_edges} edges, {scale}",
           time.perf_counter() - start)
    start = time.perf_counter()
    constraints = labels.graph_constraints(config.n)
    result = minimize_discrete(graph, constraints, p=config.p, tol=config.tol)
    _solve_stage(config, result, time.perf_counter() - start)
    write_csv(_edge_table(graph.weights), out / "discrete_edges.csv")
    write_csv(
        Table.from_columns(
            ("i", "x", "y", "f"),
            (np.arange(graph.n), points[:, 0], points[:, 1], result.values),
        ),
        out / "discrete_labels.csv",
    )
    manifest = _write_manifest(config, out, (config.seed,))
    print(
        f"write: discrete_labels.csv ({graph.n} rows), "
        f"discrete_edges.csv ({graph.num_edges} rows), {manifest.name}"
    )


def _cmd_solve_continuum(config: RunConfig) -> None:
    out = _out_dir(config)
    rho = reference_density(config.density)
    start = time.perf_counter()
    cloud = sample_density(rho, config.n, seed=config.seed)
    _stage("sample", f"{config.n} points from {config.density}", time.perf_counter() - start)
    spline = _estimate_field(config, cloud)
    domain = _lattice_domain(config.points_per_patch)
    problem = ContinuumProblem(domain=domain, density=spline, p=config.p)
    start = time.perf_counter()
    result = minimize_continuum(problem, tol=config.tol)
    _solve_stage(config, result, time.perf_counter() - start)
    n_patches, n, _ = domain.d1x.shape
    patch_ids = np.repeat(np.arange(n_patches), n * n)
    write_csv(
        Table.from_columns(
            ("patch", "x", "y", "u"),
            (patch_ids, domain.points[:, 0], domain.points[:, 1], result.values),
        ),
        out / "continuum_field.csv",
    )
    manifest = _write_manifest(config, out, (config.seed,))
    print(f"write: continuum_field.csv ({domain.n_nodes} rows), {manifest.name}")


def _cmd_study(config: RunConfig) -> None:
    """Run the subcommand's study over n/4, n, 4n and seeds seed..seed+4."""
    out = _out_dir(config)
    n_values = (config.n // 4, config.n, config.n * 4)
    seeds = tuple(range(config.seed, config.seed + 5))
    minimizers = config.subcommand == "study-minimizers"
    study_config = StudyConfig(
        density=config.density,
        n_values=n_values,
        T=config.T,
        lam=config.lam,
        p=config.p,
        tol=config.tol,
        seeds=seeds,
        mesh_size=config.mesh,
        points_per_patch=config.points_per_patch,
        include_discrete=minimizers,
    )
    start = time.perf_counter()
    # the study functions are looked up as module globals at call time, so
    # a wrapper bound to one of those names is the one that runs
    if minimizers:
        study, noun = minimizer_comparison(study_config), "runs"
    else:
        study, noun = density_error_study(study_config), "cells"
    _stage("study", f"{len(study.results.rows)} {noun} over n={n_values}",
           time.perf_counter() - start)
    name = config.subcommand.replace("-", "_")
    write_csv(study.results, out / f"{name}.csv")
    write_csv(study.timing, out / f"{name}_timing.csv")
    written = [f"{name}.csv", f"{name}_timing.csv"]
    if config.svg:
        svg_path = out / f"{name}.svg"
        _write_text(svg_path, _svg_error_chart(study.reports))
        written.append(svg_path.name)
    flags = ", ".join(
        f"{key}={str(value).lower() if isinstance(value, bool) else f'{value:.2f}'}"
        for key, value in sorted(study.flags.items())
    )
    print(f"flags: {flags}")
    manifest = _write_manifest(config, out, seeds)
    print(f"write: {', '.join(written)}, {manifest.name}")


_HANDLERS = {
    "sample": _cmd_sample,
    "density": _cmd_density,
    "solve-discrete": _cmd_solve_discrete,
    "solve-continuum": _cmd_solve_continuum,
    "study-density": _cmd_study,
    "study-minimizers": _cmd_study,
}

_CHART_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b")


def _svg_error_chart(reports) -> str:
    """Log-log polyline chart of each report's L-infinity curve."""
    width, height = 560, 360
    left, right, top, bottom = 70.0, 20.0, 24.0, 50.0
    series = []
    for report in reports:
        pts = [
            (np.log10(x), np.log10(y))
            for x, y in zip(report.sweep, report.linf)
            if x > 0 and y > 0
        ]
        if pts:
            series.append((report.method, pts))
    if not series:
        return "<svg xmlns='http://www.w3.org/2000/svg' width='560' height='360'/>"
    all_x = [p[0] for _, pts in series for p in pts]
    all_y = [p[1] for _, pts in series for p in pts]
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = min(all_y), max(all_y)
    x_pad = 0.05 * (x_hi - x_lo or 1.0)
    y_pad = 0.05 * (y_hi - y_lo or 1.0)
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    def sx(v):
        return left + (v - x_lo) / (x_hi - x_lo) * (width - left - right)

    def sy(v):
        return height - bottom - (v - y_lo) / (y_hi - y_lo) * (height - top - bottom)

    parts = [
        f"<svg xmlns='http://www.w3.org/2000/svg' width='{width}' height='{height}' "
        f"font-family='sans-serif' font-size='11'>",
        f"<rect width='{width}' height='{height}' fill='white'/>",
        f"<line x1='{left}' y1='{height - bottom}' x2='{width - right}' "
        f"y2='{height - bottom}' stroke='black'/>",
        f"<line x1='{left}' y1='{top}' x2='{left}' y2='{height - bottom}' stroke='black'/>",
        f"<text x='{(left + width - right) / 2:.1f}' y='{height - 12}' "
        "text-anchor='middle'>log10 sweep value</text>",
        f"<text x='16' y='{(top + height - bottom) / 2:.1f}' text-anchor='middle' "
        f"transform='rotate(-90 16 {(top + height - bottom) / 2:.1f})'>log10 Linf error</text>",
    ]
    for tick in np.linspace(x_lo + x_pad, x_hi - x_pad, 3):
        parts.append(
            f"<text x='{sx(tick):.1f}' y='{height - bottom + 16:.1f}' "
            f"text-anchor='middle'>{tick:.2f}</text>"
        )
        parts.append(
            f"<line x1='{sx(tick):.1f}' y1='{height - bottom:.1f}' x2='{sx(tick):.1f}' "
            f"y2='{height - bottom + 4:.1f}' stroke='black'/>"
        )
    for tick in np.linspace(y_lo + y_pad, y_hi - y_pad, 3):
        parts.append(
            f"<text x='{left - 8:.1f}' y='{sy(tick) + 4:.1f}' "
            f"text-anchor='end'>{tick:.2f}</text>"
        )
        parts.append(
            f"<line x1='{left - 4:.1f}' y1='{sy(tick):.1f}' x2='{left:.1f}' "
            f"y2='{sy(tick):.1f}' stroke='black'/>"
        )
    for idx, (method, pts) in enumerate(series):
        color = _CHART_COLORS[idx % len(_CHART_COLORS)]
        coords = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in pts)
        parts.append(
            f"<polyline points='{coords}' fill='none' stroke='{color}' stroke-width='1.5'/>"
        )
        for x, y in pts:
            parts.append(f"<circle cx='{sx(x):.1f}' cy='{sy(y):.1f}' r='2.5' fill='{color}'/>")
        parts.append(
            f"<text x='{width - right - 6}' y='{top + 14 * (idx + 1):.1f}' "
            f"text-anchor='end' fill='{color}'>{method}</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts)


@functools.cache
def _fix_malloc_thresholds() -> None:
    """Fix glibc's mmap and trim thresholds at the top of their range.

    By default glibc raises both each time it frees a block it had mapped,
    after which array buffers are cut from the heap, and the heap's top is
    given back to the system only while it is free and above the trim
    threshold. Whether it is then turns on the heap's layout, which differs
    from one process to the next: the same study-minimizers loop peaked at
    118 MB in some processes and at 135 MB in others. Fixed at the values
    the adjustment tends to, buffers up to 32 MiB always come from the
    heap and its top is kept, so the peak no longer depends on when the
    thresholds moved. Unmapping every buffer over the default 128 KiB
    instead made a study run 40 % slower. A C library without `mallopt` is
    left as it is.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def run(argv=None) -> int:
    _fix_malloc_thresholds()
    args = _build_parser().parse_args(argv)
    try:
        config = parse_config(args.config, overrides={key: getattr(args, key) for key in _KEYS})
        _HANDLERS[config.subcommand](config)
    except PDirichletError as exc:
        print(f"error[{exc.category}]: {exc}", file=sys.stderr)
        return _EXIT_CODES.get(exc.category, 1)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

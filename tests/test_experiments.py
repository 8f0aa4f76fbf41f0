import time

import numpy as np
import pytest

from pdirichlet.density import KdeDensityField, kde_evaluate
from pdirichlet.errors import ValidationError
from pdirichlet.experiments import (
    ErrorReport,
    StudyConfig,
    constraint_labels,
    density_error_study,
    error_metrics,
    label_value,
    minimizer_comparison,
)

FULL = (0.0, 1.0, 0.0, 1.0)


# -------------------------------------------------------------------- metrics


def test_error_metrics_constant_difference():
    a = np.zeros((16, 16))
    b = np.full((16, 16), 0.25)
    l2, linf = error_metrics(a, b, FULL)
    assert l2 == pytest.approx(0.25)
    assert linf == pytest.approx(0.25)


def test_error_metrics_l2_bounded_by_linf():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((32, 32))
    b = rng.standard_normal((32, 32))
    l2, linf = error_metrics(a, b, FULL)
    assert 0.0 < l2 <= linf


def test_error_metrics_region_masks_outside_points():
    a = np.zeros((64, 64))
    b = np.zeros((64, 64))
    b[0, 0] = 100.0  # corner (0, 0), outside the window below
    l2, linf = error_metrics(a, b, (0.1, 0.9, 0.1, 0.9))
    assert l2 == 0.0 and linf == 0.0
    _, linf_full = error_metrics(a, b, FULL)
    assert linf_full == 100.0


def test_error_metrics_rejects_bad_shapes():
    with pytest.raises(ValidationError, match="shapes differ"):
        error_metrics(np.zeros((4, 4)), np.zeros((5, 5)), FULL)
    with pytest.raises(ValidationError, match="square"):
        error_metrics(np.zeros((4, 5)), np.zeros((4, 5)), FULL)
    with pytest.raises(ValidationError, match="no mesh points"):
        error_metrics(np.zeros((4, 4)), np.zeros((4, 4)), (0.4, 0.6, 0.4, 0.6))


# ---------------------------------------------------------------- constraints


def test_label_formula_values():
    assert label_value(0.5, 0.5) == 0.0
    assert label_value(0.0, 0.0) == 1.25
    assert label_value(1.0, 0.5) == 1.0


def test_constraint_labels_lattice():
    pc = constraint_labels()
    assert pc.positions.shape == (16, 2)
    ticks = np.linspace(0.0, 1.0, 4)
    assert set(map(tuple, pc.positions)) == {(x, y) for x in ticks for y in ticks}
    assert np.allclose(pc.values, label_value(pc.positions[:, 0], pc.positions[:, 1]))
    cs = pc.graph_constraints(100)
    assert list(cs.indices) == list(range(100, 116))


# -------------------------------------------------------------------- reports


def test_error_report_accepts_decreasing_sweep():
    r = ErrorReport("m", (0.4, 0.2, 0.1), (1.0, 0.5, 0.2), (2.0, 1.0, 0.4), (1, 1, 1))
    assert r.sweep == (0.4, 0.2, 0.1)


def test_error_report_invariants():
    with pytest.raises(ValidationError, match="monotone"):
        ErrorReport("m", (1, 1, 2), (0, 0, 0), (0, 0, 0), (0, 0, 0))
    with pytest.raises(ValidationError, match="nonnegative"):
        ErrorReport("m", (1, 2), (-0.1, 0.0), (0.0, 0.0), (0.0, 0.0))
    with pytest.raises(ValidationError, match="length"):
        ErrorReport("m", (1, 2), (0.0,), (0.0, 0.0), (0.0, 0.0))


# --------------------------------------------------------------------- config


def test_study_config_validation():
    with pytest.raises(ValidationError, match="density"):
        StudyConfig(density="rho9")
    with pytest.raises(ValidationError, match="increasing"):
        StudyConfig(n_values=(100, 100))
    with pytest.raises(ValidationError, match="seeds"):
        StudyConfig(seeds=(1, 1))
    with pytest.raises(ValidationError, match="estimators"):
        StudyConfig(estimators=("kde", "other"))
    with pytest.raises(ValidationError, match="h must be positive"):
        StudyConfig(h=0.0)
    with pytest.raises(ValidationError, match="h must be positive"):
        StudyConfig(h=-0.1)


def test_bandwidth_schedule():
    c = StudyConfig()
    assert c.bandwidth(4096) == pytest.approx(0.3 * 4096 ** (-1 / 6))
    assert c.bandwidth(64) > c.bandwidth(4096)
    assert StudyConfig(h_scale=1.0).bandwidth(4096) == pytest.approx(4096 ** (-1 / 6))
    explicit = StudyConfig(h=0.2)
    assert explicit.bandwidth(4096) == 0.2
    assert explicit.bandwidth(64) == 0.2
    with pytest.raises(ValidationError, match="h_scale"):
        StudyConfig(h_scale=0.0)


# -------------------------------------------------------------------- studies


TINY = dict(
    density="rho1",
    n_values=(128, 256),
    T=256,
    seeds=(1, 2),
    mesh_size=32,
)


@pytest.fixture(scope="module")
def density_study():
    return density_error_study(StudyConfig(**TINY))


@pytest.fixture(scope="module")
def minimizer_study():
    return minimizer_comparison(StudyConfig(**TINY, points_per_patch=8, include_discrete=True))


def test_density_study_shape_and_determinism(density_study):
    out = density_study
    assert out.results.header[:3] == ("estimator", "n", "h")
    # one row per (estimator, n) since the bandwidth schedule gives one h per n
    assert len(out.results.rows) == 4
    assert len(out.timing.rows) == 8  # one per (estimator, n, seed)
    assert all(v > 0 for row in out.results.rows for v in row[3:])
    again = density_error_study(StudyConfig(**TINY))
    assert again.results.rows == out.results.rows
    assert again.flags == out.flags
    methods = {r.method for r in out.reports}
    assert methods == {"kde", "skde"}
    for report in out.reports:
        assert report.sweep == (128, 256)


def test_density_study_explicit_bandwidth():
    cfg = StudyConfig(
        density="rho1",
        n_values=(128, 256),
        h=0.15,
        T=256,
        seeds=(1,),
        mesh_size=32,
        estimators=("kde",),
    )
    out = density_error_study(cfg)
    assert len(out.results.rows) == 2
    assert out.results.column("h") == [0.15, 0.15]
    assert [row[2] for row in out.timing.rows] == [0.15, 0.15]
    (report,) = out.reports
    assert report.sweep == (128, 256)


def test_density_study_charges_skde_only_its_own_work(monkeypatch):
    # skde shares the KDE build but never uses the KDE's mesh evaluation
    kde_gradient_on_mesh = KdeDensityField.gradient_on_mesh

    def slow_gradient_on_mesh(self, mesh_size):
        time.sleep(0.2)
        return kde_gradient_on_mesh(self, mesh_size)

    monkeypatch.setattr(KdeDensityField, "gradient_on_mesh", slow_gradient_on_mesh)
    out = density_error_study(StudyConfig(**dict(TINY, seeds=(1,))))
    for estimator, _, _, _, seconds in out.timing.rows:
        if estimator == "kde":
            assert seconds > 0.2
        else:
            assert seconds < 0.2


def test_minimizer_study_charges_each_estimator_only_its_own_work(monkeypatch):
    # only skde uses the KDE's values at the spline knots; the slowed
    # `value_at` also runs in the kde route's solve, which is not estimate time
    kde_value_at = KdeDensityField.value_at

    def slow_value_at(self, points, clip=True):
        time.sleep(0.2)
        return kde_value_at(self, points, clip)

    monkeypatch.setattr(KdeDensityField, "value_at", slow_value_at)
    tiny = dict(TINY, n_values=(128,), seeds=(1,), points_per_patch=4)
    out = minimizer_comparison(StudyConfig(**tiny))
    estimate = out.timing.header.index("estimate_seconds")
    for row in out.timing.rows:
        if row[0] == "kde":
            assert row[estimate] < 0.2
        else:
            assert row[estimate] > 0.2


def test_kde_only_study_evaluates_the_kde_once_per_geometric_node(monkeypatch):
    evaluated = []

    def counting_kde_evaluate(samples, h, points):
        evaluated.append(len(points))
        return kde_evaluate(samples, h, points)

    monkeypatch.setattr("pdirichlet.density.kde_evaluate", counting_kde_evaluate)
    tiny = dict(TINY, seeds=(1,), points_per_patch=4, estimators=("kde",))
    minimizer_comparison(StudyConfig(**tiny))
    # one call per (n, seed): the solve's density at the geometric nodes,
    # 3 x 3 + 1 per axis on 3 tiles of 4 points that share their end nodes
    assert evaluated == [10 * 10] * 2


def test_density_study_reports_are_row_medians(density_study):
    results, timing = density_study.results, density_study.timing
    for report in density_study.reports:
        for k, n in enumerate(report.sweep):
            (row,) = [r for r in results.rows if r[0] == report.method and r[1] == n]
            assert report.l2[k] == row[results.header.index("l2_value")]
            assert report.linf[k] == row[results.header.index("linf_value")]
            secs = [t[-1] for t in timing.rows if t[0] == report.method and t[1] == n]
            assert report.seconds[k] == float(np.median(secs))


def test_minimizer_comparison_rows_and_flags(minimizer_study):
    out = minimizer_study
    routes = {row[0] for row in out.results.rows}
    assert routes == {"kde", "skde", "discrete"}
    # 3 routes x 2 n x 2 seeds
    assert len(out.results.rows) == 12
    conv = out.results.column("converged")
    assert set(conv) <= {0, 1}  # non-converged runs stay as flagged rows
    assert all(flag == 1 for flag in out.results.column("energy_monotone"))
    assert "kde_time_growth" in out.flags and "discrete_time_growth" in out.flags
    assert out.meta["discrete_comparison"]
    assert out.meta["bandwidth_schedule"] == "0.3 * n^(-1/6)"
    again = minimizer_comparison(StudyConfig(**TINY, points_per_patch=8, include_discrete=True))
    assert again.results.rows == out.results.rows


def test_minimizer_comparison_reports_are_row_medians(minimizer_study):
    results, timing = minimizer_study.results, minimizer_study.timing
    assert [r.method for r in minimizer_study.reports] == ["kde", "skde", "discrete"]
    for report in minimizer_study.reports:
        for k, n in enumerate(report.sweep):
            rows = [r for r in results.rows if r[0] == report.method and r[1] == n]
            assert report.l2[k] == float(np.median([r[3] for r in rows]))
            assert report.linf[k] == float(np.median([r[4] for r in rows]))
            secs = [t[6] for t in timing.rows if t[0] == report.method and t[1] == n]
            assert report.seconds[k] == float(np.median(secs))


def test_minimizer_time_growth_is_a_ratio_of_medians(minimizer_study):
    timing = minimizer_study.timing
    n_values = sorted(set(timing.column("n")))
    for route in ("kde", "skde", "discrete"):
        medians = [
            float(np.median([t[6] for t in timing.rows if t[0] == route and t[1] == n]))
            for n in n_values
        ]
        assert minimizer_study.flags[f"{route}_time_growth"] == medians[-1] / medians[0]


def test_minimizer_comparison_meta_names_its_bandwidths():
    tiny = dict(TINY, n_values=(128,), seeds=(1,), points_per_patch=4, estimators=("kde",))
    scaled = minimizer_comparison(StudyConfig(**tiny, h_scale=1.0))
    assert scaled.meta["bandwidth_schedule"] == "1 * n^(-1/6)"
    explicit = minimizer_comparison(StudyConfig(**tiny, h=0.25))
    assert explicit.meta["bandwidth_schedule"] == "0.25"

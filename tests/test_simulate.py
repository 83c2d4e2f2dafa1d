import gc
import importlib.util
import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sps

from mslogistic import (
    Degenerate,
    LognormalStart,
    ModelParams,
    PathPanel,
    PolyCoeffs,
    SamplePath,
    SimSpec,
    curve,
    integrated_drift,
    process_mean,
    simulate_panel,
    transform,
)

from mslogistic import _special, simulate
from conftest import make_case1_panel

DATA_DIR = Path(__file__).parent / "data"
# Shape and SHA-256 of simulated panels, written by make_sim_golden.py from
# the per-path simulation loop (one Philox generator built per path).
SIM_GOLDEN = json.loads((DATA_DIR / "sim_golden.json").read_text())
_maker = importlib.util.spec_from_file_location("make_sim_golden", DATA_DIR / "make_sim_golden.py")
make_sim_golden = importlib.util.module_from_spec(_maker)
_maker.loader.exec_module(make_sim_golden)
_maker = importlib.util.spec_from_file_location("make_fixture", DATA_DIR / "make_fixture.py")
make_fixture = importlib.util.module_from_spec(_maker)
_maker.loader.exec_module(make_fixture)

CASE1 = ModelParams(eta=math.exp(-1), poly=PolyCoeffs((0.1, -0.009, 0.0002)), sigma2=1e-4)


def spec(params=CASE1, x0=5.0, t_max=50.0, n=501, d=10, seed=123, init=None):
    return SimSpec(
        params=params,
        init=init if init is not None else Degenerate(x0),
        grid=np.linspace(0.0, t_max, n),
        d=d,
        seed=seed,
    )


class TestSimulatePanel:
    def test_noiseless_paths_equal_conditional_mean(self):
        params = ModelParams(eta=math.exp(-1), poly=PolyCoeffs((0.1, -0.009, 0.0002)), sigma2=0.0)
        panel = simulate_panel(spec(params=params, d=3))
        grid = panel.common_grid()
        want = curve(params, 5.0, 0.0, grid)
        for p in panel.paths:
            np.testing.assert_allclose(p.values, want, rtol=1e-12)

    def test_seed_reproducibility_bitwise(self):
        a = simulate_panel(spec(seed=42))
        b = simulate_panel(spec(seed=42))
        for pa, pb in zip(a.paths, b.paths):
            assert np.array_equal(pa.values, pb.values)

    def test_paths_keyed_by_index_not_count(self):
        # adding paths must not disturb earlier ones (counter-based streams)
        small = simulate_panel(spec(d=3, seed=9))
        large = simulate_panel(spec(d=6, seed=9))
        for ps, pl in zip(small.paths, large.paths):
            assert np.array_equal(ps.values, pl.values)

    def test_different_seeds_differ(self):
        a = simulate_panel(spec(seed=1))
        b = simulate_panel(spec(seed=2))
        assert not np.array_equal(a.paths[0].values, b.paths[0].values)

    def test_log_increment_moments(self):
        # one long step, 1e5 paths: sample mean/variance of the log-increment
        # match the integrated drift and sigma2*dt within 4 standard errors
        params = ModelParams(eta=math.exp(-1), poly=PolyCoeffs((0.1, -0.009, 0.0002)), sigma2=0.05**2)
        grid = np.array([0.0, 12.5])
        panel = simulate_panel(SimSpec(params=params, init=Degenerate(5.0), grid=grid, d=100_000, seed=5))
        incr = np.log(panel.values_matrix()[:, 1] / 5.0)
        m = integrated_drift(params, 0.0, 12.5)
        var = params.sigma2 * 12.5
        se_mean = math.sqrt(var / incr.size)
        assert abs(incr.mean() - m) < 4 * se_mean
        se_var = var * math.sqrt(2.0 / (incr.size - 1))
        assert abs(incr.var(ddof=1) - var) < 4 * se_var

    def test_marginal_law_kolmogorov_smirnov(self):
        params = ModelParams(eta=math.exp(-1), poly=PolyCoeffs((0.1, -0.009, 0.0002)), sigma2=0.05**2)
        t = 30.0
        panel = simulate_panel(SimSpec(params=params, init=Degenerate(5.0),
                                       grid=np.array([0.0, t]), d=10_000, seed=17))
        logs = np.log(panel.values_matrix()[:, 1])
        mean = math.log(5.0) + integrated_drift(params, 0.0, t)
        sd = math.sqrt(params.sigma2 * t)
        assert sps.kstest(logs, "norm", args=(mean, sd)).pvalue > 1e-3

    def test_successive_increments_uncorrelated(self):
        params = ModelParams(eta=math.exp(-1), poly=PolyCoeffs((0.1, -0.009, 0.0002)), sigma2=0.05**2)
        grid = np.linspace(0.0, 100.0, 100_001)
        panel = simulate_panel(SimSpec(params=params, init=Degenerate(5.0), grid=grid, d=1, seed=3))
        dt = np.diff(grid)
        m = integrated_drift(params, 0.0, grid)
        step_mean = np.diff(m)
        z = (np.diff(np.log(panel.paths[0].values)) - step_mean) / (params.sigma * np.sqrt(dt))
        rho = np.corrcoef(z[:-1], z[1:])[0, 1]
        assert abs(rho) < 0.02

    def test_lognormal_initial_state(self):
        init = LognormalStart(mu1=math.log(5.0), sigma1sq=0.04)
        panel = simulate_panel(spec(init=init, d=20_000, n=2, t_max=1.0, seed=8))
        first = panel.first_values()
        logs = np.log(first)
        assert logs.mean() == pytest.approx(init.mu1, abs=4 * 0.2 / math.sqrt(first.size))
        assert logs.var(ddof=1) == pytest.approx(0.04, rel=0.1)

    def test_case1_sample_mean_tracks_theory(self, case1_params):
        panel = simulate_panel(spec(params=case1_params, d=200, seed=2024))
        grid = panel.common_grid()
        theory = process_mean(case1_params, Degenerate(5.0), 0.0, grid)
        rae = np.mean(np.abs(panel.pointwise_mean - theory) / theory)
        assert rae < 0.02


class TestGolden:
    @pytest.mark.parametrize("record", SIM_GOLDEN["records"],
                             ids=lambda r: f"{r['init']}-d{r['d']}-n{r['points']}-s{r['seed']}")
    def test_matches_recorded_panel(self, record):
        assert make_sim_golden.digest(record) == {"shape": record["shape"],
                                                  "sha256": record["sha256"]}

    @pytest.mark.parametrize("port_max", [0, math.inf], ids=["scipy", "port"])
    @pytest.mark.parametrize("init", ["degenerate", "lognormal"])
    def test_both_ndtri_routes_give_the_recorded_panel(self, monkeypatch, port_max, init):
        port, calls = _special.ndtri, []
        monkeypatch.setattr(_special, "ndtri", lambda *a, **k: calls.append(a) or port(*a, **k))
        monkeypatch.setattr(simulate, "NDTRI_PORT_MAX", port_max)
        record = next(r for r in SIM_GOLDEN["records"] if r["init"] == init and r["d"] == 200)
        assert make_sim_golden.digest(record) == {"shape": record["shape"],
                                                  "sha256": record["sha256"]}
        assert len(calls) == (port_max > 0)

    def test_records_cover_both_starts_and_a_wide_seed(self):
        records = SIM_GOLDEN["records"]
        assert {r["init"] for r in records} == {"degenerate", "lognormal"}
        assert {(r["d"], r["points"]) for r in records} >= {(1, 2), (7, 51), (200, 501)}
        assert max(r["seed"] for r in records) >= 2**32
        assert SIM_GOLDEN["params"] == make_sim_golden.PARAMS
        assert SIM_GOLDEN["inits"] == make_sim_golden.INITS

    def test_check_mode_diffs_and_writes_nothing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("sys.argv", ["make_sim_golden.py", "--check"])
        assert make_sim_golden.main() == 0
        assert capsys.readouterr().out == ""
        stale = tmp_path / "sim_golden.json"
        stale.write_text(make_sim_golden.GOLDEN.read_text().replace('"t_max": 50.0', '"t_max": 5'))
        monkeypatch.setattr(make_sim_golden, "GOLDEN", stale)
        before = stale.read_text()
        assert make_sim_golden.main() == 1
        assert '- "t_max": 5,\n+ "t_max": 50.0,' in capsys.readouterr().out
        assert stale.read_text() == before


class TestFixtureScript:
    def test_check_mode_diffs_and_writes_nothing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("sys.argv", ["make_fixture.py", "--check"])
        assert make_fixture.main() == 0
        assert capsys.readouterr().out == ""
        stale = tmp_path / "epidemic_shaped.csv"
        stale.write_bytes(make_fixture.FIXTURE.read_bytes().replace(b"t,c1,", b"t,x1,"))
        monkeypatch.setattr(make_fixture, "FIXTURE", stale)
        before = stale.read_bytes()
        assert make_fixture.main() == 1
        out = capsys.readouterr().out
        assert "-t,x1,c2,c3,c4" in out and "+t,c1,c2,c3,c4" in out
        assert stale.read_bytes() == before


class TestPanelStatistics:
    def test_sample_mean_single_path(self):
        panel = PathPanel.from_matrix([0.0, 1.0, 2.0], [[1.0, 2.0, 3.0]])
        np.testing.assert_array_equal(panel.pointwise_mean, [1.0, 2.0, 3.0])

    def test_sample_mean_two_constant_paths(self):
        panel = PathPanel.from_matrix([0.0, 1.0], [[1.0, 1.0], [3.0, 3.0]])
        np.testing.assert_array_equal(panel.pointwise_mean, [2.0, 2.0])

    def test_geometric_mean_identical_paths(self):
        panel = PathPanel.from_matrix([0.0, 1.0], [[2.0, 5.0], [2.0, 5.0]])
        np.testing.assert_allclose(panel.pointwise_geometric_mean, [2.0, 5.0], rtol=1e-15)

    def test_geometric_mean_hand_value(self):
        panel = PathPanel.from_matrix([0.0, 1.0], [[1.0, 1.0], [4.0, 4.0]])
        np.testing.assert_allclose(panel.pointwise_geometric_mean, [2.0, 2.0], rtol=1e-15)

    def test_am_gm_inequality(self):
        rng = np.random.default_rng(1)
        vals = np.exp(rng.normal(size=(5, 20)))
        panel = PathPanel.from_matrix(np.arange(20.0), vals)
        assert np.all(panel.pointwise_geometric_mean <= panel.pointwise_mean + 1e-12)

    def test_unequal_grids_raise(self):
        p1 = SamplePath([0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        p2 = SamplePath([0.0, 1.5, 2.0], [1.0, 2.0, 3.0])
        panel = PathPanel((p1, p2))
        with pytest.raises(ValueError):
            panel.pointwise_mean


class TestPanelMoments:
    MOMENTS = {
        "pointwise_mean": lambda v: v.mean(axis=0),
        "pointwise_geometric_mean": lambda v: np.exp(np.log(v).mean(axis=0)),
        "pointwise_sd": lambda v: v.std(axis=0, ddof=1),
    }

    @pytest.fixture(params=["fixture", "case1"])
    def panel(self, request, case1_params):
        if request.param == "fixture":
            from mslogistic.cli import ingest_csv
            return ingest_csv(DATA_DIR / "epidemic_shaped.csv")
        return make_case1_panel(case1_params, seed=11, d=50, n_points=101)

    def test_moments_are_kept(self, panel):
        for name in self.MOMENTS:
            assert getattr(panel, name) is getattr(panel, name)

    @pytest.mark.parametrize("name", sorted(MOMENTS))
    def test_cached_arrays_equal_direct_formulas(self, panel, name):
        got = getattr(panel, name)
        want = self.MOMENTS[name](panel.values_matrix())
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
        with pytest.raises(ValueError):
            got[0] = 1.0

    @pytest.mark.parametrize("name", sorted(MOMENTS))
    def test_ragged_panel_raises_every_time(self, name):
        panel = PathPanel((SamplePath([0.0, 1.0, 2.0], [1.0, 2.0, 3.0]),
                           SamplePath([0.0, 2.0], [1.0, 2.0])))
        for _ in range(2):
            with pytest.raises(ValueError, match="common grid"):
                getattr(panel, name)


def _whole_matrix_transform(values, grid):
    v = np.diff(np.log(values), axis=1) / np.sqrt(np.diff(grid))
    return v.sum(axis=0), (v * v).sum(axis=0)


class TestRowBlocks:
    """The reductions made over row blocks against numpy's whole-matrix formulas, bit for bit.

    They rely on numpy summing a C-ordered matrix over axis 0 row by row; a
    numpy that changes that order fails here.
    """

    N = 97
    ROWS = simulate.ROW_BLOCK // N   # rows per block at N points

    @pytest.mark.parametrize("d, n", [
        (1, N), (ROWS // 3, N), (ROWS, N), (4 * ROWS, N), (3 * ROWS + 5, N),
        (9000, 2), (9000, 1), (3 * ROWS + 5, 3),   # one and two columns are never split
    ])
    def test_bitwise_equal_to_whole_matrix(self, d, n):
        rng = np.random.default_rng(d * 1000 + n)
        grid = np.cumsum(rng.uniform(0.01, 2.0, size=n))
        values = np.exp(rng.normal(0.0, 3.0, size=(d, n)))
        panel = PathPanel.from_matrix(grid, values)
        vdata = transform(panel)
        sum_v, sum_v2 = _whole_matrix_transform(values, grid)
        assert np.array_equal(vdata.g_sum_v, sum_v) and np.array_equal(vdata.g_sum_v2, sum_v2)
        assert vdata.n == d * (n - 1)
        assert np.array_equal(panel.pointwise_geometric_mean,
                              np.exp(np.log(values).mean(axis=0)))
        with np.errstate(invalid="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # d = 1: no degrees of freedom
            sd = values.std(axis=0, ddof=1)
        assert np.array_equal(panel.pointwise_sd, sd, equal_nan=True)
        assert np.isnan(panel.pointwise_sd).all() == (d == 1)

    @pytest.mark.parametrize("reduction", [
        transform,
        lambda panel: panel.pointwise_geometric_mean,
        lambda panel: panel.pointwise_sd,
    ], ids=["transform", "pointwise_geometric_mean", "pointwise_sd"])
    def test_no_matrix_sized_temporary(self, reduction):
        # numpy reports its array allocations to tracemalloc; whole-matrix formulas
        # peak at twice the matrix (transform) and at the matrix (each moment)
        rng = np.random.default_rng(5)
        values = np.exp(rng.normal(size=(4000, 144)))
        panel = PathPanel.from_matrix(np.arange(144.0), values)
        panel.pointwise_mean  # the sd reads it; it sums without a temporary
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            reduction(panel)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < values.nbytes / 4


class TestPanelStorage:
    def test_from_matrix_copies_its_input(self):
        times = np.array([0.0, 1.0, 2.0])
        values = np.array([[1.0, 2.0, 3.0], [2.0, 3.0, 4.0]])
        panel = PathPanel.from_matrix(times, values)
        times[1] = 0.5
        values[:] = 9.0
        np.testing.assert_array_equal(panel.common_grid(), [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(panel.values_matrix(), [[1.0, 2.0, 3.0], [2.0, 3.0, 4.0]])
        np.testing.assert_array_equal(panel.paths[1].values, [2.0, 3.0, 4.0])

    def test_stored_arrays_are_read_only(self):
        panel = PathPanel.from_matrix([0.0, 1.0], [[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError):
            panel.values_matrix()[0, 0] = 5.0
        with pytest.raises(ValueError):
            panel.common_grid()[0] = 5.0
        with pytest.raises(ValueError):
            panel.paths[0].values[0] = 5.0

    def test_paths_are_row_views_of_the_stored_matrix(self):
        panel = simulate_panel(spec(d=4, n=11))
        matrix = panel.values_matrix()
        assert panel.values_matrix() is matrix
        assert panel.common_grid() is panel.common_grid()
        for i, path in enumerate(panel.paths):
            assert np.shares_memory(path.values, matrix)
            np.testing.assert_array_equal(path.values, matrix[i])
            assert path.times is panel.common_grid()

    def test_later_writes_to_the_callers_grid_reach_neither_spec_nor_panel(self):
        g = np.linspace(0.0, 50.0, 51)
        s = SimSpec(params=CASE1, init=Degenerate(5.0), grid=g, d=3, seed=1)
        g[5] = -1.0
        panel = simulate_panel(s)  # raised FloatingPointError while the spec kept g
        expected = np.linspace(0.0, 50.0, 51)
        np.testing.assert_array_equal(s.grid, expected)
        assert panel.common_grid() is s.grid and not s.grid.flags.writeable
        fresh = simulate_panel(SimSpec(params=CASE1, init=Degenerate(5.0), grid=expected, d=3,
                                       seed=1))
        np.testing.assert_array_equal(panel.values_matrix(), fresh.values_matrix())

    def test_transposed_input_stored_c_ordered(self):
        values = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]).T
        panel = PathPanel.from_matrix([0.0, 1.0, 2.0], values)
        assert panel.values_matrix().flags.c_contiguous
        np.testing.assert_array_equal(panel.values_matrix(), values)

    def test_paths_on_one_grid_are_stacked_once(self):
        t = np.array([0.0, 1.0, 2.0])
        panel = PathPanel((SamplePath(t, [1.0, 2.0, 3.0]), SamplePath(t.copy(), [2.0, 2.0, 2.0])))
        np.testing.assert_array_equal(panel.common_grid(), t)
        np.testing.assert_array_equal(panel.values_matrix(), [[1.0, 2.0, 3.0], [2.0, 2.0, 2.0]])
        assert not panel.values_matrix().flags.writeable
        np.testing.assert_array_equal(panel.first_values(), [1.0, 2.0])

    def test_ragged_panel_ignores_later_changes_to_its_inputs(self):
        a, b = np.array([1.0, 2.0, 3.0]), np.array([1.0, 1.5])
        panel = PathPanel((SamplePath([0.0, 1.0, 2.0], a), SamplePath([0.0, 2.0], b)))
        before = transform(panel).g_sum_v.copy()
        a[1] = -5.0
        b[1] = 7.0
        np.testing.assert_array_equal(transform(panel).g_sum_v, before)
        np.testing.assert_array_equal(panel.paths[0].values, [1.0, 2.0, 3.0])

    def test_sample_path_arrays_are_read_only_float64(self):
        t = np.array([0.0, 1.0])
        path = SamplePath(t, [1, 2])
        assert path.times is not t and path.values.dtype == np.float64
        for arr in (path.times, path.values):
            with pytest.raises(ValueError):
                arr[0] = 5.0
        # a read-only array that no writeable array shares is kept as it is
        assert SamplePath(path.times, path.values).times is path.times
        view = np.array([1.0, 2.0])
        view.flags.writeable = False
        assert SamplePath(t, view[:]).values.base is view
        writeable_base = np.array([1.0, 2.0])
        view = writeable_base[:]
        view.flags.writeable = False
        assert not np.shares_memory(SamplePath(t, view).values, writeable_base)

    def test_ragged_panel_has_no_grid(self):
        p1 = SamplePath([0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        p2 = SamplePath([0.0, 2.0], [1.0, 2.0])
        panel = PathPanel((p1, p2))
        assert panel.common_grid() is None
        with pytest.raises(ValueError, match="common grid"):
            panel.values_matrix()
        np.testing.assert_array_equal(panel.first_values(), [1.0, 1.0])


class TestBlocks:
    @staticmethod
    def assert_read_only_blocks(panel):
        for times, values in panel.blocks:
            assert values.ndim == 2 and values.shape[1] == times.size
            assert values.flags.c_contiguous and values.dtype == np.float64
            assert not times.flags.writeable and not values.flags.writeable

    def test_panel_on_one_grid_is_one_block(self):
        t = np.array([0.0, 1.0, 2.0])
        built = [PathPanel.from_matrix(t, [[1.0, 2.0, 3.0], [2.0, 2.0, 2.0]]),
                 PathPanel((SamplePath(t, [1.0, 2.0, 3.0]), SamplePath(t, [2.0, 2.0, 2.0]))),
                 simulate_panel(spec(d=2, n=3))]
        for panel in built:
            assert isinstance(panel.blocks, tuple) and len(panel.blocks) == 1
            self.assert_read_only_blocks(panel)
            [(times, values)] = panel.blocks
            assert times is panel.common_grid() and values is panel.values_matrix()
            assert panel.d == 2 and panel.t0 == times[0]

    def test_ragged_panel_keeps_one_row_per_path_in_path_order(self):
        # paths 0 and 2 share a grid and are not regrouped
        paths = (SamplePath([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]),
                 SamplePath([1.0, 3.0], [4.0, 5.0]),
                 SamplePath([1.0, 2.0, 3.0], [6.0, 7.0, 8.0]))
        panel = PathPanel(paths)
        assert len(panel.blocks) == 3
        self.assert_read_only_blocks(panel)
        for (times, values), path in zip(panel.blocks, paths):
            assert values.shape == (1, len(path))
            np.testing.assert_array_equal(times, path.times)
            np.testing.assert_array_equal(values[0], path.values)
        assert panel.d == 3 and panel.t0 == 1.0
        np.testing.assert_array_equal(panel.first_values(), [1.0, 4.0, 6.0])
        for path, (times, values) in zip(panel.paths, panel.blocks):
            assert path.times is times and np.shares_memory(path.values, values)

    def test_first_values_is_a_writeable_copy(self):
        for panel in (PathPanel.from_matrix([0.0, 1.0], [[1.0, 2.0], [3.0, 4.0]]),
                      PathPanel((SamplePath([0.0, 1.0], [1.0, 2.0]),
                                 SamplePath([0.0, 2.0], [3.0, 4.0])))):
            first = panel.first_values()
            first[0] = 9.0
            np.testing.assert_array_equal(panel.first_values(), [1.0, 3.0])


class TestLazyPaths:
    def test_tuple_built_panel_keeps_one_copy(self):
        t = np.array([0.0, 1.0, 2.0])
        a, b = np.array([1.0, 2.0, 3.0]), np.array([2.0, 2.0, 2.0])
        panel = PathPanel((SamplePath(t, a), SamplePath(t, b)))
        a[1] = 50.0
        t[2] = 7.0
        matrix = panel.values_matrix()
        assert matrix[0, 1] == 2.0
        for path, row in zip(panel.paths, matrix):
            assert np.array_equal(path.values, row)
            assert np.array_equal(path.times, [0.0, 1.0, 2.0])
            with pytest.raises(ValueError):
                path.values[0] = 5.0
            with pytest.raises(ValueError):
                path.times[0] = 5.0

    def test_simulated_panel_builds_paths_on_first_read(self):
        def sample_paths():
            return sum(isinstance(o, SamplePath) for o in gc.get_objects())

        before = sample_paths()
        panel = simulate_panel(spec(d=200, n=51))
        assert panel.d == 200 and panel.t0 == 0.0
        assert panel.first_values().shape == (200,)
        assert sample_paths() == before
        assert len(panel.paths) == 200
        assert sample_paths() == before + 200
        assert panel.paths is panel.paths


class TestValidation:
    def test_nonpositive_value_names_path_and_index(self):
        with pytest.raises(ValueError, match=r"path 1.*index 2"):
            PathPanel.from_matrix([0.0, 1.0, 2.0], [[1.0, 1.0, 1.0], [1.0, 1.0, -3.0]])

    @pytest.mark.parametrize("times, values, message", [
        ([0.0, 1.0], [[1.0, 2.0, 3.0]], r"path 0: times and values"),
        ([0.0, 1.0, 1.0], [[1.0, 2.0, 3.0]], r"path 0: observation times must be strictly"),
        ([], [], r"path 0: a path needs at least one observation"),
        ([0.0, 1.0], [[1.0, 2.0], [1.0, float("nan")]], r"path 1: nonpositive value nan at index 1"),
        ([0.0, 1.0], np.empty((0, 2)), r"panel needs at least one path"),
        ([0.0, np.nan, 2.0], [[1.0, 2.0, 3.0]], r"path 0: observation times must be finite"),
        ([0.0, 1.0, np.inf], [[1.0, 2.0, 3.0]], r"path 0: observation times must be finite"),
        ([0.0, 1.0, 2.0], [[1.0, 2.0, 3.0], [1.0, np.inf, 3.0]],
         r"path 1: infinite value inf at index 1"),
        ([0.0, 1.0], [[np.inf, 2.0], [1.0, -np.inf]], r"path 1: nonpositive value -inf at index 1"),
        # squares and ratios of such values leave the double range
        ([0.0, 1.0], [[1.0, 2.0], [1e200, 2.0]], r"path 1: value 1e\+200 at index 0 is outside"),
        ([0.0, 1.0], [[1.0, 1e-200]], r"path 0: value 1e-200 at index 1 is outside"),
        # distinct times that are equal once shifted to start at 0, as the likelihood reads them
        ([-10.709516896407592, -1.4e-183, 3.0e-145], [[1.0, 2.0, 3.0]],
         r"path 0: observation times must be strictly"),
        ([-1e308, 1e308], [[1.0, 2.0]], r"path 0: observation times must be finite"),
    ])
    def test_from_matrix_messages(self, times, values, message):
        with pytest.raises(ValueError, match=message):
            PathPanel.from_matrix(times, values)

    @pytest.mark.parametrize("times, values, message", [
        ([0.0, 1.0], [1.0, 2.0, 3.0], "times and values must be 1-d arrays of equal length"),
        ([[0.0, 1.0]], [[1.0, 2.0]], "times and values must be 1-d arrays of equal length"),
        ([], [], "a path needs at least one observation"),
        ([0.0, 1.0, 1.0], [1.0, 2.0, 3.0], "observation times must be strictly increasing"),
        ([0.0, 1.0], [1.0, -2.0], "nonpositive value -2.0 at index 1"),
        ([0.0, np.nan, 2.0], [1.0, 2.0, 3.0], "observation times must be finite"),
        ([-np.inf, 0.0], [1.0, 2.0], "observation times must be finite"),
        ([0.0, 1.0, 2.0], [1.0, np.inf, 3.0], "infinite value inf at index 1"),
    ])
    def test_sample_path_messages(self, times, values, message):
        with pytest.raises(ValueError) as err:
            SamplePath(times, values)
        assert str(err.value) == message

    def test_nonincreasing_times_rejected(self):
        with pytest.raises(ValueError):
            SamplePath([0.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_mismatched_first_times_rejected(self):
        p1 = SamplePath([0.0, 1.0], [1.0, 2.0])
        p2 = SamplePath([0.5, 1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            PathPanel((p1, p2))

    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            SimSpec(params=CASE1, init=Degenerate(1.0), grid=np.array([0.0, 0.0, 1.0]), d=1, seed=0)

    @pytest.mark.parametrize("grid, message", [
        ([0.0], "grid must be a 1-d array with at least two times"),
        ([0.0, 2.0, 1.0], "grid times must be strictly increasing"),
        ([0.0, np.nan, 1.0], "grid times must be finite"),
        ([0.0, 1.0, np.inf], "grid times must be finite"),
    ])
    def test_grid_messages(self, grid, message):
        with pytest.raises(ValueError) as err:
            SimSpec(params=CASE1, init=Degenerate(1.0), grid=grid, d=1, seed=0)
        assert str(err.value) == message

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, "x", True])
    def test_seed_must_be_an_unsigned_64_bit_integer(self, seed):
        with pytest.raises(ValueError, match=r"seed: expected an integer in \[0, 2\*\*64\)"):
            spec(seed=seed)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1, np.uint64(5)])
    def test_seed_range_accepted(self, seed):
        assert spec(seed=seed).seed == seed

    @pytest.mark.parametrize("d", [True, 2.5, 0, "3"])
    def test_path_count_must_be_a_positive_integer(self, d):
        with pytest.raises(ValueError, match="need at least one path"):
            spec(d=d)

    @pytest.mark.parametrize("d", [2**62, 2**64, (2**63 - 1) // (8 * 11) + 1])
    def test_panel_numpy_cannot_address_rejected(self, d):
        with pytest.raises(ValueError, match="exceed numpy's largest array"):
            spec(d=d, n=11)

    def test_largest_addressable_panel_accepted(self):
        assert spec(d=(2**63 - 1) // (8 * 11), n=11).d == (2**63 - 1) // (8 * 11)

    @pytest.mark.parametrize("kwargs", [
        {"params": ModelParams(eta=CASE1.eta, poly=CASE1.poly, sigma2=1e300)},
        {"params": ModelParams(eta=CASE1.eta, poly=CASE1.poly, sigma2=1e30)},
        {"init": LognormalStart(mu1=-800.0, sigma1sq=0.0)},  # underflow to 0 only
    ])
    def test_values_outside_float_range_raise(self, kwargs):
        with pytest.raises(FloatingPointError, match="floating-point range"):
            with np.errstate(all="ignore"):
                simulate_panel(spec(**kwargs, n=11, d=2))

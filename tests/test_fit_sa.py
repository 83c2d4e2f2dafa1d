import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sps

from mslogistic import (
    Degenerate,
    ModelParams,
    PathPanel,
    PolyCoeffs,
    SimSpec,
    simulate_panel,
)
from mslogistic import fit_sa
from mslogistic.fit_nr import FitError
from mslogistic.fit_sa import ParamBox, SaSchedule, anneal, build_box

from conftest import make_case1_panel

DATA_DIR = Path(__file__).parent / "data"
# Outputs of the sequential annealing loop (one replication after another),
# written by make_sa_golden.py: "floor" (stops by temperature_floor and
# flat_chain) and "max_iter" (max_iter and flat_chain) on a small case-1
# panel, and "fixture_default", the default schedule on the epidemic fixture.
SA_GOLDEN_TEXT = (DATA_DIR / "sa_golden.json").read_text()
SA_GOLDEN = json.loads(SA_GOLDEN_TEXT)
_maker = importlib.util.spec_from_file_location("make_sa_golden", DATA_DIR / "make_sa_golden.py")
make_sa_golden = importlib.util.module_from_spec(_maker)
_maker.loader.exec_module(make_sa_golden)


class TestParamBox:
    def test_interval_validation(self):
        with pytest.raises(ValueError):
            ParamBox(eta_interval=(1.0, 1.0), beta_intervals=((0.0, 1.0),))

    @pytest.mark.parametrize("eta, beta, sigma2", [
        ((-1.0, 1.0), (0.0, math.inf), (0.0, 0.01)),
        ((0.1, math.inf), (0.0, 1.0), (0.0, 0.01)),
        ((0.1, 1.0), (-math.inf, 1.0), (0.0, 0.01)),
        ((0.1, 1.0), (0.0, 1.0), (0.0, math.nan)),
        ((0.0, 1.0), (0.0, 1.0), (0.0, 0.01)),
        ((-0.5, 1.0), (0.0, 1.0), (0.0, 0.01)),
        ((0.1, 1.0), (0.0, 1.0), (-1e-3, 0.01)),
    ])
    def test_bounds_outside_the_kernel_domain_rejected(self, eta, beta, sigma2):
        with pytest.raises(ValueError):
            ParamBox(eta_interval=eta, beta_intervals=(beta,), sigma2_interval=sigma2)

    def test_contains(self):
        box = ParamBox(eta_interval=(0.1, 1.0), beta_intervals=((0.0, 0.2), (-0.1, 0.1)))
        assert box.contains(np.array([0.5, 0.1, 0.0, 0.005]))
        assert not box.contains(np.array([2.0, 0.1, 0.0, 0.005]))


class TestBuildBox:
    def test_shared_ratio_paths_widened(self):
        # every path quadruples: the eta estimate collapses to 1/3; widen by 10%
        t = np.linspace(0.0, 10.0, 5)
        rows = np.vstack([np.linspace(5.0, 20.0, 5), np.linspace(5.0, 20.0, 5) * 1.0])
        panel = PathPanel.from_matrix(t, rows)
        box = build_box(panel, 1)
        lo, hi = box.eta_interval
        assert lo == pytest.approx(0.3, rel=1e-12)
        assert hi == pytest.approx(1.1 / 3.0, rel=1e-12)

    def test_eta_interval_from_path_ratios(self, case1_params):
        panel = make_case1_panel(case1_params, seed=51, d=100)
        box = build_box(panel, 3)
        ratios = [1.0 / (p.values[-1] / p.values[0] - 1.0) for p in panel.paths]
        assert box.eta_interval == (min(ratios), max(ratios))
        assert box.eta_interval[0] < math.exp(-1) < box.eta_interval[1]

    def test_sigma2_interval_fixed(self, case1_params):
        panel = make_case1_panel(case1_params, seed=52, d=20, n_points=51)
        assert build_box(panel, 3).sigma2_interval == (0.0, 0.01)

    def test_decreasing_paths_excluded_with_warning(self, case1_params):
        base = make_case1_panel(case1_params, seed=58, d=30, n_points=51)
        grid = base.common_grid()
        down = np.linspace(5.0, 4.5, grid.size)
        panel = PathPanel.from_matrix(grid, np.vstack([base.values_matrix(), down]))
        with pytest.warns(UserWarning, match="excluded"):
            box = build_box(panel, 3)
        ratios = [1.0 / (p.values[-1] / p.values[0] - 1.0) for p in base.paths]
        assert box.eta_interval == (pytest.approx(min(ratios)), pytest.approx(max(ratios)))

    def test_t_quantile_matches_scipy_stats(self):
        # build_box takes its t quantile from scipy.special.stdtrit
        from scipy.special import stdtrit

        dof = np.arange(1, 600)
        for confidence in (0.95, 0.99, 0.999):
            q = 0.5 + confidence / 2.0
            np.testing.assert_array_equal(stdtrit(dof, q), sps.t.ppf(q, dof))

    def test_all_paths_decreasing_fails(self):
        t = np.linspace(0.0, 5.0, 6)
        panel = PathPanel.from_matrix(t, np.linspace(4.0, 2.0, 6)[None, :])
        with pytest.raises(FitError), pytest.warns(UserWarning, match="excluded"):
            build_box(panel, 1)


class TestAnneal:
    def test_synthetic_optimum_found(self):
        # smooth objective with a unique in-box optimum at the true parameters
        rng_truth = ModelParams(eta=0.5, poly=PolyCoeffs((0.4,)), sigma2=4e-4)
        panel = simulate_panel(SimSpec(params=rng_truth, init=Degenerate(2.0),
                                       grid=np.linspace(0.0, 20.0, 101), d=50, seed=6))
        box = ParamBox(eta_interval=(0.25, 1.0), beta_intervals=((0.2, 0.6),),
                       sigma2_interval=(0.0, 0.01))
        sched = SaSchedule(seed=21, replications=10, max_iter=400)
        res = anneal(panel, 1, box, sched)
        widths = box.upper - box.lower
        truth_vec = rng_truth.as_vector()
        hits = 0
        for prm, _ in res.per_replication:
            off = np.abs(prm.as_vector() - truth_vec)
            hits += bool(np.all(off[:2] < 0.1 * widths[:2]))
        assert hits >= 8

    def test_replications_inside_box_and_deterministic(self, case1_params):
        panel = make_case1_panel(case1_params, seed=53, d=50, n_points=101)
        box = build_box(panel, 3)
        sched = SaSchedule(seed=5, replications=2, max_iter=120)
        r1 = anneal(panel, 3, box, sched)
        r2 = anneal(panel, 3, box, sched)
        for (p1, f1), (p2, f2) in zip(r1.per_replication, r2.per_replication):
            assert f1 == f2
            np.testing.assert_array_equal(p1.as_vector(), p2.as_vector())
        for prm, _ in r1.per_replication:
            assert box.contains(prm.as_vector())

    def test_acceptance_rule_statistics(self, case1_params):
        # uphill moves accepted with probability exp(-df/T): chi-square on
        # acceptance counts binned by df/T
        panel = make_case1_panel(case1_params, seed=54, d=20, n_points=51)
        box = build_box(panel, 3)
        log: list[tuple[float, bool]] = []
        anneal(panel, 3, box, SaSchedule(seed=9, replications=4, max_iter=150), uphill_log=log)
        ratios = np.array([r for r, _ in log])
        acc = np.array([a for _, a in log])
        bins = np.quantile(ratios, np.linspace(0.0, 1.0, 9))
        chi2, dof = 0.0, 0
        for lo, hi in zip(bins[:-1], bins[1:]):
            sel = (ratios >= lo) & (ratios < hi)
            n = int(sel.sum())
            if n < 20:
                continue
            p_exp = float(np.mean(np.exp(-ratios[sel])))
            obs = float(acc[sel].sum())
            var = n * p_exp * (1 - p_exp)
            if var < 1e-9:
                continue
            chi2 += (obs - n * p_exp) ** 2 / var
            dof += 1
        assert dof >= 3
        assert sps.chi2.sf(chi2, dof) > 1e-3

    def test_monotone_best_objective(self, case1_params):
        # best-so-far is monotone by construction; verify via the recorded
        # per-replication objective being the minimum over a rerun's trace
        panel = make_case1_panel(case1_params, seed=55, d=20, n_points=51)
        box = build_box(panel, 3)
        res = anneal(panel, 3, box, SaSchedule(seed=13, replications=3, max_iter=100))
        for prm, f_best in res.per_replication:
            assert math.isfinite(f_best)
            assert box.contains(prm.as_vector())

    def test_case1_recovery(self, case1_params):
        panel = make_case1_panel(case1_params, seed=56)
        res = anneal(panel, 3, sched=SaSchedule(seed=1, replications=4))
        truth = case1_params.as_vector()
        got = res.xi_hat.as_vector()
        rel = np.abs(got - truth) / np.abs(truth)
        assert np.all(rel[:4] < 0.15)
        # annealed fit is typically a touch rougher than the Newton fit but
        # the mean tracks the sample mean at the same order (RAE ~ 1e-2)
        from mslogistic import curve

        grid = panel.common_grid()
        fitted = np.asarray(curve(res.xi_hat, float(panel.first_values().mean()), 0.0, grid))
        m = panel.pointwise_mean
        rae = float(np.mean(np.abs(m - fitted) / m))
        assert rae < 0.05

    def test_uphill_log_does_not_change_the_run(self, case1_params):
        panel = make_case1_panel(case1_params, seed=57, d=10, n_points=21)
        box, sched = build_box(panel, 2), SaSchedule(seed=4, replications=3, max_iter=40)
        log: list[tuple[float, bool]] = []
        with_log = anneal(panel, 2, box, sched, uphill_log=log)
        assert log
        assert with_log == anneal(panel, 2, box, sched)

    def test_pcg64_block_draws_equal_sequential_draws(self):
        # each stage tops up a replication's unread uniforms with one draw of
        # the count the last stage consumed; the stream must not change
        assert isinstance(np.random.default_rng((3, 1)).bit_generator, np.random.PCG64)
        seq, blk = np.random.default_rng((3, 1)), np.random.default_rng((3, 1))
        parts = [seq.random(5), [seq.random()], seq.random(5), seq.random(0), [seq.random()],
                 seq.random(12)]
        assert np.concatenate(parts).tolist() == blk.random(24).tolist()

    def test_nan_objective_leaves_the_chain_non_flat(self, case1_params, monkeypatch):
        monkeypatch.setattr(fit_sa, "_neg_core_loglik", lambda ws, rows: np.full(len(rows), np.nan))
        panel = make_case1_panel(case1_params, seed=57, d=10, n_points=21)
        sched = SaSchedule(seed=1, replications=2, chain_length=4, max_iter=5)
        res = anneal(panel, 2, build_box(panel, 2), sched)
        assert res.stop_reasons == ("max_iter", "max_iter")

    def test_wrong_box_degree_rejected(self, case1_params):
        panel = make_case1_panel(case1_params, seed=57, d=10, n_points=21)
        box = ParamBox(eta_interval=(0.1, 1.0), beta_intervals=((0.0, 0.2),))
        with pytest.raises(ValueError):
            anneal(panel, 3, box)


class TestGolden:
    @pytest.fixture(scope="class")
    def golden_panel(self, case1_params):
        return make_case1_panel(case1_params, seed=60, d=20, n_points=51)

    @pytest.mark.parametrize("name", sorted(SA_GOLDEN))
    def test_matches_recorded_run(self, name):
        assert make_sa_golden.record(name) == SA_GOLDEN[name]

    def test_file_is_the_generators_output_format(self):
        assert make_sa_golden.dumps(SA_GOLDEN) + "\n" == SA_GOLDEN_TEXT
        assert sorted(SA_GOLDEN) == sorted(make_sa_golden.SCHEDULES)

    def test_all_stop_reasons_covered(self):
        reasons = {r for rec in SA_GOLDEN.values() for r in rec["stop_reasons"]}
        assert reasons == {"flat_chain", "temperature_floor", "max_iter"}

    def test_replication_independent_of_count(self, golden_panel):
        box = build_box(golden_panel, 3)
        runs = {
            n: anneal(golden_panel, 3, box, SaSchedule(seed=3, replications=n, chain_length=8,
                                                       gamma=0.75, max_iter=40, pilot_pairs=20))
            for n in (2, 4)
        }
        assert runs[2].t0_temperature == runs[4].t0_temperature
        for r in range(2):
            (p2, f2), (p4, f4) = runs[2].per_replication[r], runs[4].per_replication[r]
            assert f2 == f4
            assert list(p2.as_vector()) == list(p4.as_vector())
            assert runs[2].stop_reasons[r] == runs[4].stop_reasons[r]


class TestSchedule:
    def test_gamma_domain(self):
        with pytest.raises(ValueError):
            SaSchedule(gamma=1.0)

    def test_p0_domain(self):
        with pytest.raises(ValueError):
            SaSchedule(p0=0.0)

    @pytest.mark.parametrize("name", ["replications", "chain_length", "max_iter", "pilot_pairs"])
    @pytest.mark.parametrize("value", [0, -1, 2.5, "3", True])
    def test_counts_are_positive_integers(self, name, value):
        with pytest.raises(ValueError, match=name):
            SaSchedule(**{name: value})

    @pytest.mark.parametrize("value", [0.0, -1e-7, float("nan")])
    def test_t_final_positive(self, value):
        with pytest.raises(ValueError, match="t_final"):
            SaSchedule(t_final=value)

    def test_integer_counts_accepted(self):
        sched = SaSchedule(replications=1, chain_length=np.int64(2), max_iter=1, pilot_pairs=1)
        assert sched.chain_length == 2

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, "x", True])
    def test_seed_must_be_an_unsigned_64_bit_integer(self, seed):
        with pytest.raises(ValueError, match=r"seed: expected an integer in \[0, 2\*\*64\)"):
            SaSchedule(seed=seed)

    def test_largest_seed_accepted(self):
        assert SaSchedule(seed=2**64 - 1).seed == 2**64 - 1

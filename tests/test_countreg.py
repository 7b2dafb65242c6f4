"""Unit tests for NB2 regression, cutoff selection, and the Welch t-test."""

import numpy as np
import pytest
from scipy import stats

from devicesurv import countreg
from devicesurv.countreg import (
    OTHER_SYSTEM,
    THETA_CAP,
    CutoffContext,
    choose_other_cutoff,
    fit_with_cutoff,
    nb_fit,
    ttest_welch,
)
from devicesurv.errors import ConfigError, FitError
from devicesurv.synth import gen_nb_counts


class TestNBFit:
    def test_intercept_only_mean(self):
        counts = [2] * 71 + [3] * 29
        fit = nb_fit(counts, np.zeros((100, 0)))
        assert fit.columns == ["intercept"]
        assert np.exp(fit.coef[0]) == pytest.approx(2.29, abs=0.01)

    def test_recovers_simulated_coefficients(self):
        counts, X = gen_nb_counts(5000, beta=(1.0, 0.5), theta=2.0, seed=0)
        fit = nb_fit(counts, X)
        assert abs(fit.coef[0] - 1.0) <= 0.1
        assert abs(fit.coef[1] - 0.5) <= 0.1
        assert 1.5 <= fit.theta <= 2.6

    def test_poisson_data_theta_hits_cap(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=3000)
        mu = np.exp(0.5 + 0.3 * x)
        counts = rng.poisson(mu)
        fit = nb_fit(counts, x)
        # Equidispersed data drives theta large (overdispersion 1/theta ~ 0);
        # the exact value is a finite sample quantity.
        assert fit.theta > 50

    def test_poisson_irr_matches_reference_glm(self):
        # With theta at the cap, NB2 coincides with Poisson; statsmodels
        # is used here as a test-only reference implementation.
        sm = pytest.importorskip("statsmodels.api")
        rng = np.random.default_rng(2)
        x = rng.normal(size=2000)
        counts = rng.poisson(np.exp(0.8 + 0.4 * x))
        fit = nb_fit(counts, x)
        ref = sm.GLM(counts, np.column_stack([np.ones_like(x), x]),
                     family=sm.families.Poisson()).fit()
        assert np.allclose(np.exp(fit.coef), np.exp(ref.params), rtol=0.02)

    def test_exposure_offset(self):
        rng = np.random.default_rng(3)
        exposure = rng.uniform(0.5, 5.0, size=2000)
        counts = rng.poisson(2.0 * exposure)
        fit = nb_fit(counts, np.zeros((2000, 0)), exposure=exposure)
        assert np.exp(fit.coef[0]) == pytest.approx(2.0, rel=0.05)

    def test_aic_definition(self):
        counts = [1, 2, 3, 2, 1, 4, 0, 2]
        fit = nb_fit(counts, np.zeros((8, 0)))
        k = 1 + 1  # intercept + dispersion
        assert fit.aic == pytest.approx(2 * k - 2 * fit.loglik)

    def test_summary_rows(self):
        counts, X = gen_nb_counts(500, beta=(1.0, 0.5), theta=2.0, seed=4)
        fit = nb_fit(counts, X, columns=["dose"])
        rows = list(fit.summary_rows())
        assert [r["term"] for r in rows] == ["intercept", "dose"]
        assert rows[1]["IRR"] == pytest.approx(np.exp(fit.coef[1]))

    @pytest.mark.parametrize(
        "counts,message",
        [
            ([], "empty"),
            ([1, -1], "nonnegative"),
            ([1.5, 2], "nonnegative integers"),
            ([0, 0, 0], "all counts are zero"),
        ],
    )
    def test_bad_counts_rejected(self, counts, message):
        with pytest.raises(ConfigError, match=message):
            nb_fit(counts, np.zeros((len(counts), 0)))

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_bad_exposure_rejected(self, bad):
        # log(exposure) is the offset: a zero, negative or non-finite
        # exposure would send a non-finite offset into the fit.
        with pytest.raises(ConfigError, match="exposure must be positive and finite"):
            nb_fit([1, 2, 3], np.zeros((3, 0)), exposure=[1.0, bad, 2.0])

    def test_rank_deficient_design(self):
        counts = [1, 2, 3, 4]
        X = np.ones((4, 1))  # collinear with the implicit intercept
        with pytest.raises(ConfigError, match="rank deficient"):
            nb_fit(counts, X)


class TestCutoffSelection:
    def _ctx(self, seed=0, n=400):
        rng = np.random.default_rng(seed)
        systems = rng.choice(["A", "B", "C", "rare1", "rare2"],
                             p=[0.4, 0.3, 0.2, 0.05, 0.05], size=n).tolist()
        rates = {"A": 1.0, "B": 2.0, "C": 1.5, "rare1": 1.2, "rare2": 1.1}
        counts = rng.poisson([rates[s] for s in systems])
        counts[0] = max(counts[0], 1)
        system_counts = {s: systems.count(s) for s in set(systems)}
        return system_counts, CutoffContext(counts=np.asarray(counts), systems=systems,
                                            reference="A")

    def test_collapse_below_cutoff(self):
        system_counts, ctx = self._ctx()
        fit = fit_with_cutoff(system_counts, 50, ctx)
        assert any(OTHER_SYSTEM in c for c in fit.columns)
        assert not any("rare1" in c for c in fit.columns)

    def test_cutoff_one_keeps_all(self):
        system_counts, ctx = self._ctx()
        fit = fit_with_cutoff(system_counts, 1, ctx)
        assert any("rare1" in c for c in fit.columns)

    def test_best_cutoff_minimizes_aic(self):
        system_counts, ctx = self._ctx()
        best, fits = choose_other_cutoff(system_counts, [1, 10, 50, 1000], ctx)
        assert set(fits) == {1, 10, 50, 1000}
        min_aic = min(f.aic for f in fits.values())
        assert fits[best].aic == min_aic
        assert best == min(c for c, f in fits.items() if f.aic == min_aic)

    def test_all_collapsed_intercept_only(self):
        system_counts, ctx = self._ctx()
        fit = fit_with_cutoff(system_counts, 10**6, ctx)
        assert fit.columns == ["intercept"]

    def test_empty_candidates_rejected(self):
        system_counts, ctx = self._ctx()
        with pytest.raises(ConfigError):
            choose_other_cutoff(system_counts, [], ctx)

    def test_design_pools_rare_systems_against_reference(self, monkeypatch):
        seen = {}
        monkeypatch.setattr(countreg, "nb_fit",
                            lambda counts, X, columns, exposure: seen.update(X=X, columns=columns))
        ctx = CutoffContext(counts=np.ones(5), systems=["B", "A", "rare", "C", "A"],
                            extra_X=np.arange(5.0).reshape(-1, 1), extra_columns=["age"],
                            reference="B")
        fit_with_cutoff({"A": 2, "B": 1, "C": 1, "rare": 0}, 1, ctx)
        assert seen["columns"] == ["implant_system=A", "implant_system=C",
                                   f"implant_system={OTHER_SYSTEM}", "age"]
        assert np.array_equal(seen["X"], [[0, 0, 0, 0], [1, 0, 0, 1], [0, 0, 1, 2],
                                          [0, 1, 0, 3], [1, 0, 0, 4]])

    def test_extra_covariates_carried(self):
        system_counts, ctx = self._ctx()
        rng = np.random.default_rng(5)
        ctx.extra_X = rng.normal(size=(len(ctx.systems), 1))
        ctx.extra_columns = ["age"]
        fit = fit_with_cutoff(system_counts, 50, ctx)
        assert "age" in fit.columns


class TestWelch:
    def test_hand_fixture(self):
        res = ttest_welch([1, 2, 3], [2, 3, 4])
        assert res.statistic == pytest.approx(-np.sqrt(1.5), abs=1e-9)
        assert res.df == pytest.approx(4.0)
        assert res.p_value == pytest.approx(2 * stats.t.sf(np.sqrt(1.5), 4), abs=1e-9)
        assert (res.mean_a, res.mean_b) == (2.0, 3.0)

    def test_matches_scipy(self):
        rng = np.random.default_rng(6)
        a = rng.normal(0, 1, size=30)
        b = rng.normal(0.5, 2, size=20)
        res = ttest_welch(a, b)
        ref = stats.ttest_ind(a, b, equal_var=False)
        assert res.statistic == pytest.approx(ref.statistic)
        assert res.p_value == pytest.approx(ref.pvalue)

    def test_identical_constant_groups(self):
        res = ttest_welch([2, 2, 2], [2, 2])
        assert (res.statistic, res.p_value) == (0.0, 1.0)

    def test_distinct_constant_groups_rejected(self):
        with pytest.raises(ConfigError):
            ttest_welch([1, 1], [2, 2])

    def test_too_small_group_rejected(self):
        with pytest.raises(ConfigError):
            ttest_welch([1], [2, 3])

    def test_null_rejection_rate(self):
        rng = np.random.default_rng(8)
        rejections = 0
        trials = 400
        for _ in range(trials):
            a = rng.normal(size=15)
            b = rng.normal(size=25)
            if ttest_welch(a, b).p_value < 0.05:
                rejections += 1
        assert rejections / trials < 0.09


class TestStepHalving:
    """The coefficient step is halved only on a loss beyond round-off, as
    the Cox step is (test_survival.TestStepHalving)."""

    x = np.repeat([0.0, 1.0], 4)
    y = np.array([0, 1, 2, 1, 3, 4, 2, 5], dtype=float)
    start = np.full(8, np.exp(np.log(y.mean())))  # the mean nb_fit starts from

    @pytest.mark.parametrize("drop,factor", [
        (np.nextafter(-100.0, -np.inf) + 100.0, 1.0),  # 1 ulp: round-off, step taken whole
        (-1e-10, 2.0**-30),  # a real loss: halved until the 30-halving cap
    ], ids=["one_ulp", "real_loss"])
    def test_halves_only_a_loss_beyond_round_off(self, monkeypatch, drop, factor):
        # Every mean but the starting one reads `drop` below the
        # log-likelihood there; the theta update that follows the first
        # step reports the mean the step reached.
        class Taken(Exception):
            pass

        def theta_newton(y, mu, theta):
            raise Taken(mu)

        monkeypatch.setattr(countreg, "_nb_loglik", lambda y, mu, theta: (
            -100.0 if np.array_equal(mu, self.start) else -100.0 + drop))
        monkeypatch.setattr(countreg, "_theta_newton", theta_newton)
        with pytest.raises(Taken) as taken:
            nb_fit(self.y, self.x)
        mu = taken.value.args[0]
        # The Newton step in the slope from 0 at theta = 1 (IRLS weights
        # mu / (1 + mu)), which the fit starts from.
        D = np.column_stack([np.ones(8), self.x])
        w = self.start / (1 + self.start)
        step = np.linalg.solve(D.T @ (D * w[:, None]), D.T @ ((self.y - self.start) * w / self.start))
        assert step[1] > 0.5
        assert np.log(mu[-1]) - np.log(mu[0]) == pytest.approx(factor * step[1], rel=1e-6)

    def test_two_likelihood_evaluations_per_iteration(self, monkeypatch):
        # One at the start, then per iteration one at the step (none of this
        # fit's steps is halved) and one at the updated theta.
        counts, X = gen_nb_counts(800, beta=(0.3, 0.05), theta=2.0, seed=0)
        calls = []
        loglik = countreg._nb_loglik

        def counted(*args):
            calls.append(1)
            return loglik(*args)

        monkeypatch.setattr(countreg, "_nb_loglik", counted)
        fit = nb_fit(counts, X)
        assert fit.n_iter >= 3
        assert len(calls) == 2 * fit.n_iter + 1


class TestThetaCap:
    def test_cap_value(self):
        assert THETA_CAP == 1e8


class TestPValuesMatchScipyStats:
    """The tail probabilities call the scipy.special kernels that scipy.stats
    calls, so p-values are bit-identical to the scipy.stats ones."""

    @pytest.mark.parametrize("seed", [0, 4, 7])
    def test_nb(self, seed):
        counts, X = gen_nb_counts(800, beta=(0.3, 0.05), theta=2.0, seed=seed)
        fit = nb_fit(counts, X)
        assert np.array_equal(fit.p_values, 2 * stats.norm.sf(np.abs(fit.coef / fit.se)))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_welch(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(0, 1, size=3 + 11 * seed)
        b = rng.normal(0.4, 2, size=4 + 5 * seed)
        res = ttest_welch(a, b)
        assert res.p_value == 2 * stats.t.sf(abs(res.statistic), res.df)

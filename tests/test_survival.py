"""Unit tests for Kaplan-Meier, log-rank, and Cox regression."""

import numpy as np
import pytest
from scipy import optimize, stats

from devicesurv import survival
from devicesurv.errors import ConfigError, FitError
from devicesurv.outcomes import SurvivalDataset
from devicesurv.survival import _chi2_sf, cox_fit, km_estimate, logrank_test


def _dataset(times, events, X=None, columns=None, groups=None):
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=int)
    if X is None:
        X = np.zeros((len(times), 0))
    else:
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[:, None]
    return SurvivalDataset(
        subject_ids=[f"s{i}" for i in range(len(times))],
        times=times,
        events=events,
        X=X,
        columns=columns or [f"x{j}" for j in range(X.shape[1])],
        groups=groups,
    )


class TestKaplanMeier:
    def test_hand_example(self):
        # times 1,2,3 with censoring at 2: S(1)=2/3, S(3)=1/3.
        ds = _dataset([1, 2, 3], [1, 1, 0])
        km = km_estimate(ds)
        assert km.times.tolist() == [1.0, 2.0]
        assert km.survival.tolist() == pytest.approx([2 / 3, 1 / 3])
        assert km.n_at_risk.tolist() == [3, 2]
        assert km.n_events.tolist() == [1, 1]

    def test_censored_subject_leaves_risk_set(self):
        # Censor at 2 leaves a single subject at risk for the event at 3.
        ds = _dataset([1, 2, 3], [1, 0, 1])
        km = km_estimate(ds)
        assert km.n_at_risk.tolist() == [3, 1]
        assert km.survival.tolist() == pytest.approx([2 / 3, 0.0])

    def test_no_events_flat_one(self):
        ds = _dataset([5, 6, 7], [0, 0, 0])
        km = km_estimate(ds)
        assert len(km.times) == 0
        assert km.at(100.0) == 1.0

    def test_step_evaluation_right_continuous(self):
        ds = _dataset([1, 2, 3], [1, 1, 0])
        km = km_estimate(ds)
        assert km.at(0.5) == 1.0
        assert km.at(1.0) == pytest.approx(2 / 3)
        assert km.at(1.9) == pytest.approx(2 / 3)
        assert km.at(2.0) == pytest.approx(1 / 3)

    def test_tied_event_times(self):
        ds = _dataset([2, 2, 5], [1, 1, 0])
        km = km_estimate(ds)
        assert km.times.tolist() == [2.0]
        assert km.survival.tolist() == pytest.approx([1 / 3])

    def test_brute_force_recomputation(self):
        rng = np.random.default_rng(0)
        times = rng.integers(1, 30, size=50).astype(float)
        events = rng.integers(0, 2, size=50)
        km = km_estimate(_dataset(times, events))
        s = 1.0
        for tk in sorted(set(times[events == 1])):
            nk = np.sum(times >= tk)
            dk = np.sum((times == tk) & (events == 1))
            s *= 1 - dk / nk
            assert km.at(tk) == pytest.approx(s)

    def test_grouped_curves(self):
        ds = _dataset([1, 2, 3, 4], [1, 1, 1, 0], groups=["A", "B", "A", "B"])
        curves = km_estimate(ds)
        assert set(curves) == {"A", "B"}
        assert curves["A"].survival.tolist() == pytest.approx([0.5, 0.0])

    def test_empty_dataset_rejected(self):
        with pytest.raises(ConfigError):
            km_estimate(_dataset([], []))


class TestLogRank:
    def test_hand_fixture(self):
        # A: events at 1, 3, censor 5; B: event 2, censor 4, event 6.
        # O_A = 2, E_A = 1.4, Var = 0.74 -> chi2 = 0.36/0.74.
        ds = _dataset(
            [1, 3, 5, 2, 4, 6],
            [1, 1, 0, 1, 0, 1],
            groups=["A", "A", "A", "B", "B", "B"],
        )
        res = logrank_test(ds)
        assert res.df == 1
        assert res.statistic == pytest.approx(0.36 / 0.74, abs=1e-6)
        assert res.p_value == pytest.approx(stats.chi2.sf(0.36 / 0.74, 1), abs=1e-9)

    def test_identical_groups_null(self):
        # Same subjects duplicated into both groups: O-E is exactly zero.
        times = [1, 2, 3, 4, 1, 2, 3, 4]
        events = [1, 0, 1, 1, 1, 0, 1, 1]
        ds = _dataset(times, events, groups=["A"] * 4 + ["B"] * 4)
        res = logrank_test(ds)
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    def test_three_groups_df(self):
        rng = np.random.default_rng(1)
        n = 60
        times = rng.exponential(100, size=n)
        events = rng.integers(0, 2, size=n)
        events[0] = 1
        groups = [["A", "B", "C"][i % 3] for i in range(n)]
        res = logrank_test(_dataset(times, events, groups=groups))
        assert res.df == 2
        assert 0.0 <= res.p_value <= 1.0

    def test_requires_groups_and_events(self):
        with pytest.raises(ConfigError):
            logrank_test(_dataset([1, 2], [1, 1]))
        with pytest.raises(ConfigError):
            logrank_test(_dataset([1, 2], [1, 1], groups=["A", "A"]))
        with pytest.raises(ConfigError):
            logrank_test(_dataset([1, 2], [0, 0], groups=["A", "B"]))

    def test_null_distribution_calibration(self):
        # Under the null, p-values should be roughly uniform.
        rng = np.random.default_rng(7)
        pvals = []
        for _ in range(200):
            n = 40
            times = rng.exponential(50, size=n)
            events = (rng.uniform(size=n) < 0.7).astype(int)
            if events.sum() == 0:
                continue
            groups = ["A"] * (n // 2) + ["B"] * (n // 2)
            pvals.append(logrank_test(_dataset(times, events, groups=groups)).p_value)
        frac_small = np.mean(np.array(pvals) < 0.05)
        assert frac_small < 0.12


def _oracle_breslow_loglik(beta, times, events, x):
    """Independent scalar Breslow partial log-likelihood for one covariate."""
    ll = 0.0
    for tk in sorted(set(times[events == 1])):
        risk = times >= tk
        d_idx = (times == tk) & (events == 1)
        d = int(d_idx.sum())
        ll += float(beta * x[d_idx].sum())
        ll -= d * np.log(np.sum(np.exp(beta * x[risk])))
    return ll


class TestCox:
    def _fixture(self, seed=0, n=20, beta=0.8):
        rng = np.random.default_rng(seed)
        x = np.array([i % 2 for i in range(n)], dtype=float)
        times = rng.exponential(100 * np.exp(-beta * x))
        times = np.ceil(times)
        events = (rng.uniform(size=n) < 0.8).astype(int)
        events[:2] = 1
        return times, events, x

    def test_matches_one_dim_oracle(self):
        times, events, x = self._fixture()
        fit = cox_fit(_dataset(times, events, X=x))
        res = optimize.minimize_scalar(
            lambda b: -_oracle_breslow_loglik(b, times, events, x),
            bounds=(-10, 10),
            method="bounded",
            options={"xatol": 1e-10},
        )
        assert fit.coef[0] == pytest.approx(res.x, abs=1e-3)
        assert fit.loglik == pytest.approx(-res.fun, abs=1e-6)
        assert fit.loglik_null == pytest.approx(
            _oracle_breslow_loglik(0.0, times, events, x), abs=1e-9
        )

    def test_hr_and_ci_consistent(self):
        times, events, x = self._fixture(seed=3, n=40)
        fit = cox_fit(_dataset(times, events, X=x))
        assert fit.hr[0] == pytest.approx(np.exp(fit.coef[0]))
        assert fit.ci_low[0] == pytest.approx(np.exp(fit.coef[0] - 1.96 * fit.se[0]))
        assert fit.ci_high[0] == pytest.approx(np.exp(fit.coef[0] + 1.96 * fit.se[0]))
        assert fit.ci_low[0] < fit.hr[0] < fit.ci_high[0]

    def test_covariate_centering_invariance(self):
        times, events, x = self._fixture(seed=4)
        a = cox_fit(_dataset(times, events, X=x))
        b = cox_fit(_dataset(times, events, X=x + 100.0))
        assert a.coef[0] == pytest.approx(b.coef[0], abs=1e-6)
        assert a.se[0] == pytest.approx(b.se[0], abs=1e-6)

    def test_covariate_scaling_equivariance(self):
        times, events, x = self._fixture(seed=5)
        a = cox_fit(_dataset(times, events, X=x))
        b = cox_fit(_dataset(times, events, X=2.0 * x))
        assert b.coef[0] == pytest.approx(a.coef[0] / 2.0, abs=1e-6)
        assert b.se[0] == pytest.approx(a.se[0] / 2.0, abs=1e-6)

    def test_score_test_matches_logrank_statistic(self):
        # For a binary covariate without ties across groups, the Cox score
        # test at beta=0 equals the log-rank statistic up to the variance
        # convention; with distinct event times they coincide closely.
        times = np.array([1, 3, 5, 2, 4, 6], dtype=float)
        events = np.array([1, 1, 0, 1, 0, 1])
        x = np.array([0, 0, 0, 1, 1, 1], dtype=float)
        fit = cox_fit(_dataset(times, events, X=x))
        lr = logrank_test(_dataset(times, events, groups=list("AAABBB")))
        assert fit.score_statistic == pytest.approx(lr.statistic, rel=0.35)
        assert fit.score_p_value == pytest.approx(
            float(stats.chi2.sf(fit.score_statistic, 1))
        )

    def test_null_model_no_covariates(self):
        fit = cox_fit(_dataset([1, 2, 3], [1, 1, 0]))
        assert fit.coef.size == 0
        assert fit.loglik == fit.loglik_null
        # No term: the score test has no degree of freedom and cannot reject.
        assert fit.score_statistic == 0.0
        assert fit.score_p_value == 1.0
        assert fit.p_values.shape == (0,)

    def test_constant_column_rejected(self):
        times, events, x = self._fixture()
        X = np.column_stack([x, np.ones_like(x)])
        with pytest.raises(ConfigError, match="rank deficient"):
            cox_fit(_dataset(times, events, X=X, columns=["x", "const"]))

    def test_no_events_rejected(self):
        with pytest.raises(ConfigError):
            cox_fit(_dataset([1, 2], [0, 0], X=np.array([0.0, 1.0])))

    def test_separation_yields_degenerate_fit_signature(self):
        # Group 1 events all precede group 0 times: monotone likelihood.
        # The likelihood plateaus before the coefficient guard, so the fit
        # converges to a large coefficient with an enormous standard error.
        times = np.array([10, 11, 12, 13, 1, 2, 3, 4], dtype=float)
        events = np.array([1, 1, 1, 1, 1, 1, 1, 1])
        x = np.array([0, 0, 0, 0, 1, 1, 1, 1], dtype=float)
        fit = cox_fit(_dataset(times, events, X=x))
        assert fit.coef[0] > 10
        assert fit.se[0] > 100

    def test_runaway_coefficient_raises(self):
        # A huge covariate scale makes each Newton step overshoot the
        # +/- 50 coefficient guard before the likelihood plateaus.
        times = np.array([10, 11, 12, 13, 1, 2, 3, 4], dtype=float)
        events = np.array([1, 1, 1, 1, 1, 1, 1, 1])
        x = np.array([0, 0, 0, 0, 1, 1, 1, 1], dtype=float) * 1e-3
        with pytest.raises(FitError):
            cox_fit(_dataset(times, events, X=x))

    def test_two_covariates_against_grid(self):
        rng = np.random.default_rng(9)
        n = 60
        X = np.column_stack([rng.integers(0, 2, n), rng.normal(size=n)]).astype(float)
        times = np.ceil(rng.exponential(50 * np.exp(-(0.7 * X[:, 0] - 0.3 * X[:, 1]))))
        events = (rng.uniform(size=n) < 0.8).astype(int)
        fit = cox_fit(_dataset(times, events, X=X))

        def oracle(beta):
            ll = 0.0
            eta = X @ beta
            for tk in sorted(set(times[events == 1])):
                risk = times >= tk
                d_idx = (times == tk) & (events == 1)
                ll += float(eta[d_idx].sum())
                ll -= int(d_idx.sum()) * np.log(np.sum(np.exp(eta[risk])))
            return -ll

        res = optimize.minimize(oracle, np.zeros(2), method="Nelder-Mead",
                                options={"xatol": 1e-8, "fatol": 1e-10})
        assert np.allclose(fit.coef, res.x, atol=1e-3)

    def test_recovers_simulated_hazard_ratio(self):
        from devicesurv.synth import gen_survival_dataset

        ds = gen_survival_dataset(2000, hazard_ratio=2.0, seed=0)
        fit = cox_fit(ds)
        assert 1.7 <= fit.hr[0] <= 2.4


class TestStepHalving:
    @pytest.mark.parametrize("drop,coef", [
        (np.nextafter(-100.0, -np.inf) + 100.0, 0.75),  # 1 ulp: round-off, step taken whole
        (-1e-10, 0.75 / 2**30),  # a real loss: halved until the 30-halving cap
    ], ids=["one_ulp", "real_loss"])
    def test_halves_only_a_loss_beyond_round_off(self, monkeypatch, drop, coef):
        # Every beta but 0 reads `drop` below the log-likelihood at 0, and the
        # exact Newton step from 0 is 0.75.
        def quantities(beta, X, events, risk):
            ll = -100.0 if not beta.any() else -100.0 + drop
            return ll, np.array([0.75]), np.eye(1)

        monkeypatch.setattr(survival, "_breslow_quantities", quantities)
        fit = cox_fit(_dataset([1, 2, 3, 4], [1, 1, 0, 1], X=[0.0, 1.0, 0.0, 1.0]))
        assert fit.n_iter == 1
        assert fit.coef.tolist() == [coef]

    def test_one_evaluation_per_iteration(self, monkeypatch):
        # A fit that halves no step evaluates the partial likelihood once at
        # beta = 0 and once per iteration; each step reuses the score and
        # information of the evaluation that accepted the last one.
        from devicesurv.synth import gen_survival_dataset

        calls = []
        quantities = survival._breslow_quantities

        def counted(*args):
            calls.append(args[0].copy())
            return quantities(*args)

        monkeypatch.setattr(survival, "_breslow_quantities", counted)
        fit = cox_fit(gen_survival_dataset(500, hazard_ratio=2.0, seed=0))
        assert fit.n_iter >= 3
        assert len(calls) == fit.n_iter + 1
        assert calls[-1].tolist() == fit.coef.tolist()


class TestPValuesMatchScipyStats:
    """The tail probabilities call the scipy.special kernels that scipy.stats
    calls, so p-values are bit-identical to the scipy.stats ones."""

    @pytest.mark.parametrize("seed,k", [(1, 2), (2, 3), (3, 4)])
    def test_logrank(self, seed, k):
        rng = np.random.default_rng(seed)
        n = 90
        times = np.ceil(rng.exponential(100, size=n))
        events = (rng.uniform(size=n) < 0.7).astype(int)
        groups = [chr(ord("A") + i % k) for i in range(n)]
        res = logrank_test(_dataset(times, events, groups=groups))
        assert res.p_value == stats.chi2.sf(res.statistic, res.df)

    @pytest.mark.parametrize("seed", [9, 10, 11])
    def test_cox(self, seed):
        rng = np.random.default_rng(seed)
        n = 80
        X = np.column_stack([rng.integers(0, 2, n), rng.normal(size=n)]).astype(float)
        times = np.ceil(rng.exponential(50 * np.exp(-(0.7 * X[:, 0] - 0.3 * X[:, 1]))))
        events = (rng.uniform(size=n) < 0.8).astype(int)
        fit = cox_fit(_dataset(times, events, X=X))
        assert np.array_equal(fit.p_values, 2 * stats.norm.sf(np.abs(fit.coef / fit.se)))
        assert fit.score_p_value == stats.chi2.sf(fit.score_statistic, 2)

    @pytest.mark.parametrize("x", [-3.0, -1e-12, 0.0, 1e-300, 0.5, 3.84, 80.0, np.inf])
    @pytest.mark.parametrize("df", [1, 2, 5])
    def test_chi2_tail_edges(self, x, df):
        assert _chi2_sf(x, df) == stats.chi2.sf(x, df)


def _oracle_logrank_statistic(times, events, groups):
    """Log-rank chi-squared by a plain loop over event times: hypergeometric
    means and covariances of each group's event count, summed."""
    labels = sorted(set(groups))
    k = len(labels)
    g = np.array([labels.index(x) for x in groups])
    observed, expected, V = np.zeros(k), np.zeros(k), np.zeros((k, k))
    for tk in sorted(set(times[events == 1])):
        n = np.array([np.sum((times >= tk) & (g == j)) for j in range(k)], dtype=float)
        d = np.array([np.sum((times == tk) & (events == 1) & (g == j)) for j in range(k)],
                     dtype=float)
        n_tot, d_tot = n.sum(), d.sum()
        observed += d
        expected += d_tot * n / n_tot
        if n_tot > 1:
            V += d_tot * (n_tot - d_tot) / (n_tot - 1) * (
                np.diag(n) / n_tot - np.outer(n, n) / n_tot**2)
    diff = (observed - expected)[:-1]
    return float(diff @ np.linalg.solve(V[:-1, :-1], diff))


class TestRiskSetOracles:
    """KM, log-rank and Cox share one risk-set computation; these pin the
    log-rank statistic and the Cox standard errors to brute-force oracles."""

    def test_logrank_hand_fixture_against_loop(self):
        # Ties at t=2 (two events, one censoring) and t=6; every A subject has
        # left before the last event time, t=9, whose risk set is one C subject.
        times = np.array([1, 2, 2, 3, 4, 2, 3, 5, 6, 8, 2, 4, 6, 7, 9], dtype=float)
        events = np.array([1, 1, 0, 1, 0, 1, 0, 1, 1, 0, 0, 1, 1, 0, 1])
        groups = list("AAAAABBBBBCCCCC")
        res = logrank_test(_dataset(times, events, groups=groups))
        assert res.df == 2
        assert res.statistic == pytest.approx(
            _oracle_logrank_statistic(times, events, groups), rel=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_logrank_tied_three_groups_against_loop(self, seed):
        rng = np.random.default_rng(seed)
        n = 120
        groups = [["A", "B", "C"][i % 3] for i in range(n)]
        times = np.ceil(rng.exponential(20, size=n))
        # group C leaves early; the latest time is a lone event
        times[2::3] = np.minimum(times[2::3], 5)
        events = (rng.uniform(size=n) < 0.6).astype(int)
        times[0], events[0] = times.max() + 1, 1
        res = logrank_test(_dataset(times, events, groups=groups))
        assert res.statistic == pytest.approx(
            _oracle_logrank_statistic(times, events, groups), rel=1e-12)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_cox_se_against_finite_difference_hessian(self, seed):
        rng = np.random.default_rng(seed)
        n = 80
        X = np.column_stack([rng.integers(0, 2, n), rng.normal(size=n)]).astype(float)
        times = np.ceil(rng.exponential(10 * np.exp(-(0.6 * X[:, 0] - 0.4 * X[:, 1]))))
        events = (rng.uniform(size=n) < 0.8).astype(int)
        assert len(set(times)) < n  # tied times
        fit = cox_fit(_dataset(times, events, X=X))

        def loglik(beta):
            eta = X @ beta
            ll = 0.0
            for tk in sorted(set(times[events == 1])):
                died = (times == tk) & (events == 1)
                ll += eta[died].sum() - died.sum() * np.log(np.exp(eta[times >= tk]).sum())
            return ll

        h = 1e-3
        H = np.zeros((2, 2))
        for a in range(2):
            for b in range(2):
                ea, eb = np.eye(2)[a] * h, np.eye(2)[b] * h
                H[a, b] = (loglik(fit.coef + ea + eb) - loglik(fit.coef + ea - eb)
                           - loglik(fit.coef - ea + eb) + loglik(fit.coef - ea - eb)) / (4 * h * h)
        expected = np.sqrt(np.diag(np.linalg.inv(-H)))
        assert fit.se == pytest.approx(expected, rel=1e-5)

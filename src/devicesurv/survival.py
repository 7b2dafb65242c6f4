"""Kaplan-Meier estimation, log-rank testing, and Cox proportional hazards.

The Cox model maximizes the Breslow-tie partial log-likelihood with damped
Newton-Raphson (``newton_step``, also the NB fit's); ``wald`` gives both fits
their standard errors from the inverse observed information.

No fit imports scipy. A fit keeps its statistics, and each p-value is a
property that loads ``scipy.special`` when it is read, so a command can let
go of its sample before that import.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FitError
from .outcomes import SurvivalDataset, categories


class _RiskSets:
    """Risk sets of a sample, found once. ``times`` are the distinct event
    times t_1 < ... < t_T; subject i is at risk at the first ``index[i]`` of
    them. ``per_time`` sums a per-subject value over the subjects whose time
    lies in [t_k, t_k+1), so per_time(events) counts the events at t_k;
    ``at_risk`` sums it over the risk set of t_k (time >= t_k) as a reverse
    cumulative sum. KM, log-rank and Cox need no loop over event times
    (Therneau & Grambsch 2000, ch. 3)."""

    def __init__(self, times: np.ndarray, events: np.ndarray):
        # distinct by sorting and differencing, not np.unique, whose first call
        # imports numpy.ma
        t = np.sort(times[events == 1])
        self.times = t[np.diff(t, prepend=-np.inf) > 0]
        self.index = np.searchsorted(self.times, times, side="right")

    def per_time(self, values: np.ndarray) -> np.ndarray:
        # bin 0 holds the subjects censored before the first event time
        out = np.zeros((len(self.times) + 1,) + values.shape[1:])
        np.add.at(out, self.index, values)
        return out[1:]

    def at_risk(self, values: np.ndarray) -> np.ndarray:
        return np.cumsum(self.per_time(values)[::-1], axis=0)[::-1]


@dataclass(frozen=True)
class KMCurve:
    times: np.ndarray  # distinct event times, ascending
    survival: np.ndarray  # S(t_k)
    n_at_risk: np.ndarray
    n_events: np.ndarray

    def at(self, t: float) -> float:
        """Right-continuous step evaluation of S(t)."""
        k = np.searchsorted(self.times, t, side="right")
        return float(self.survival[k - 1]) if k else 1.0


def km_estimate(dataset: SurvivalDataset):
    """Product-limit estimator: one curve, or one curve per group label,
    keyed by label, when the dataset carries groups."""
    if len(dataset.times) == 0:
        raise ConfigError("empty dataset")
    if dataset.groups is None:
        return _km(dataset.times, dataset.events)
    labels, g = categories(dataset.groups)
    return {label: _km(dataset.times[g == j], dataset.events[g == j])
            for j, label in enumerate(labels)}


def _km(times: np.ndarray, events: np.ndarray) -> KMCurve:
    risk = _RiskSets(times, events)
    d = risk.per_time(events)
    n = risk.at_risk(np.ones(len(times)))
    return KMCurve(
        times=risk.times.astype(float),
        survival=np.cumprod(1.0 - d / n),
        n_at_risk=n.astype(int),
        n_events=d.astype(int),
    )


def _chi2_sf(x: float, df: int) -> float:
    """Upper chi-squared tail, the kernel scipy.stats.chi2.sf calls. A
    round-off negative statistic gives p = 1, not chdtrc's nan. scipy loads
    here, when a p-value is read, not when a fit runs."""
    from scipy import special

    return float(special.chdtrc(df, max(x, 0.0)))


def _chi2_statistic(u: np.ndarray, V: np.ndarray) -> float:
    """The statistic u' V^-1 u, chi-squared on len(u) degrees of freedom; a
    pseudo-inverse stands in for a singular V."""
    try:
        return float(u @ np.linalg.solve(V, u))
    except np.linalg.LinAlgError:
        return float(u @ np.linalg.pinv(V) @ u)


@dataclass(frozen=True)
class LogRankResult:
    statistic: float
    df: int

    @property
    def p_value(self) -> float:
        return _chi2_sf(self.statistic, self.df)


def newton_step(objective, beta, ll, score, info):
    """The Newton step from ``beta`` (log-likelihood ``ll``), halved at most
    30 times while it loses more than round-off, so a fit does not depend on
    the order of its sums. ``objective(b)`` returns a tuple led by the
    log-likelihood at b; returns the new beta and that tuple there."""
    step = np.linalg.solve(info, score)
    tol = 8 * np.finfo(float).eps * abs(ll)
    new = objective(beta + step)
    halvings = 0
    while new[0] < ll - tol and halvings < 30:
        step /= 2.0
        new = objective(beta + step)
        halvings += 1
    return beta + step, new


def wald(beta: np.ndarray, info: np.ndarray) -> dict:
    """Standard errors from the inverse information and 95% bounds on
    exp(beta), keyed by the fits' field names."""
    se = np.sqrt(np.diag(np.linalg.inv(info)))
    with np.errstate(over="ignore"):  # degenerate fits get infinite CI bounds
        ci_low = np.exp(beta - 1.96 * se)
        ci_high = np.exp(beta + 1.96 * se)
    return {"se": se, "ci_low": ci_low, "ci_high": ci_high}


def wald_p_values(coef: np.ndarray, se: np.ndarray) -> np.ndarray:
    """Two-sided normal p-values of coef / se, the fits' ``p_values``; a
    term whose se is 0 gets z = 0."""
    from scipy import special

    z = np.divide(coef, se, out=np.zeros_like(coef), where=se > 0)
    return 2 * special.ndtr(-np.abs(z))


def wald_rows(fit, ratio_name: str, ratio: np.ndarray):
    """One row per term of a fit carrying a ``wald`` table, with exp(coef),
    ``ratio``, in the column ``ratio_name``."""
    for row in zip(fit.columns, fit.coef, fit.se, ratio, fit.ci_low, fit.ci_high, fit.p_values):
        yield dict(zip(("term", "coef", "se", ratio_name, "CI_low", "CI_high", "p"), row))


def logrank_test(dataset: SurvivalDataset) -> LogRankResult:
    """Standard log-rank test over the dataset's group labels."""
    if dataset.groups is None:
        raise ConfigError("dataset carries no group labels")
    labels, g = categories(dataset.groups)
    k = len(labels)
    if k < 2:
        raise ConfigError("log-rank requires at least two groups")
    if int(dataset.events.sum()) < 1:
        raise ConfigError("log-rank requires at least one event")
    risk = _RiskSets(dataset.times, dataset.events)
    member = np.eye(k)[g]  # one-hot group membership
    d_j = risk.per_time(member * dataset.events[:, None])
    n_j = risk.at_risk(member)
    d, n = d_j.sum(axis=1), n_j.sum(axis=1)
    observed = d_j.sum(axis=0)
    expected = (d[:, None] * n_j / n[:, None]).sum(axis=0)
    # covariance of the first k-1 group O-E sums; a risk set of one
    # contributes nothing (its one event leaves n - d = 0)
    f = d * (n - d) / np.maximum(n - 1, 1) / n**2
    m = n_j[:, : k - 1]
    V = np.diag((f * n) @ m) - (m * f[:, None]).T @ m
    diff = (observed - expected)[: k - 1]
    # all O - E at zero is statistic 0, whose p-value is exactly 1
    stat = 0.0 if np.allclose(diff, 0.0) else _chi2_statistic(diff, V)
    return LogRankResult(statistic=stat, df=k - 1)


@dataclass(frozen=True)
class CoxFit:
    coef: np.ndarray
    se: np.ndarray
    hr: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    columns: list[str]
    loglik: float
    loglik_null: float
    score_statistic: float  # score test at beta=0 (log-rank analogue)
    n_iter: int

    @property
    def p_values(self) -> np.ndarray:
        return wald_p_values(self.coef, self.se)

    @property
    def score_p_value(self) -> float:
        """The score test's p-value on one degree of freedom per term; 1.0
        with no term."""
        return _chi2_sf(self.score_statistic, len(self.coef)) if len(self.coef) else 1.0

    def summary_rows(self):
        return wald_rows(self, "HR", self.hr)


def _breslow_quantities(beta, X, events, risk: _RiskSets):
    """Return (loglik, score vector, information matrix) under Breslow ties.

    With w = exp(X beta), S0 and S1 the risk-set sums of w and w x, and
    xbar = S1 / S0 per event time, the information sum_t d_t (S2_t / S0_t -
    xbar_t xbar_t') equals X' diag(w c) X - sum_t d_t xbar_t xbar_t', where c
    is each subject's sum of d_t / S0_t over the event times t <= its own; no
    per-subject p x p array is built."""
    eta = X @ beta
    eta = eta - eta.max()
    w = np.exp(eta)
    d = risk.per_time(events)
    S0 = risk.at_risk(w)
    xbar = risk.at_risk(w[:, None] * X) / S0[:, None]
    died = events == 1
    ll = eta[died].sum() - d @ np.log(S0)
    score = X[died].sum(axis=0) - d @ xbar
    c = np.cumsum(np.r_[0.0, d / S0])[risk.index]
    info = (X * (w * c)[:, None]).T @ X - (xbar * d[:, None]).T @ xbar
    return ll, score, info


def cox_fit(dataset: SurvivalDataset) -> CoxFit:
    events, X = dataset.events, dataset.X
    if int(events.sum()) < 1:
        raise ConfigError("Cox fit requires at least one event")
    n, p = X.shape
    if p:
        rank = np.linalg.matrix_rank(np.column_stack([np.ones(n), X]))
        if rank < p + 1:
            degenerate = [
                dataset.columns[j] for j in range(p) if np.ptp(X[:, j]) == 0
            ]
            raise ConfigError(
                "design matrix is rank deficient; collinear or constant columns: "
                f"{degenerate or dataset.columns}"
            )
    risk = _RiskSets(dataset.times, events)

    def objective(beta):
        return _breslow_quantities(beta, X, events, risk)

    beta = np.zeros(p)
    ll, score, info = objective(beta)
    ll_null = ll
    score_stat = _chi2_statistic(score, info) if p else 0.0
    trace = [ll]
    n_iter = 0
    if p:
        for n_iter in range(1, 51):
            try:
                beta, (new_ll, score, info) = newton_step(objective, beta, ll, score, info)
            except np.linalg.LinAlgError as exc:
                raise FitError(
                    "singular information matrix; possible separation — "
                    "consider removing sparse covariates",
                    context={"iterations": trace},
                ) from exc
            trace.append(new_ll)
            if np.max(np.abs(beta)) > 50:
                raise FitError(
                    "monotone likelihood (perfect separation) — "
                    "consider removing the offending covariate",
                    context={"iterations": trace},
                )
            converged = abs(new_ll - ll) / max(abs(new_ll), 1e-12) < 1e-8
            ll = new_ll
            if converged:
                break
        else:
            raise FitError(
                "Cox fit did not converge in 50 iterations",
                context={"iterations": trace},
            )
    return CoxFit(
        coef=beta,
        hr=np.exp(beta),
        **wald(beta, info),
        columns=list(dataset.columns),
        loglik=ll,
        loglik_null=ll_null,
        score_statistic=score_stat,
        n_iter=n_iter,
    )

"""Kaplan-Meier estimation, log-rank testing, and Cox proportional hazards.

The Cox model maximizes the Breslow-tie partial log-likelihood with
Newton-Raphson (step-halving on likelihood decrease); standard errors come
from the inverse observed information.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import ConfigError, FitError
from .outcomes import SurvivalDataset


@dataclass(frozen=True)
class KMCurve:
    times: np.ndarray  # distinct event times, ascending
    survival: np.ndarray  # S(t_k)
    n_at_risk: np.ndarray
    n_events: np.ndarray

    def at(self, t: float) -> float:
        """Right-continuous step evaluation of S(t)."""
        s = 1.0
        for tk, sk in zip(self.times, self.survival):
            if tk <= t:
                s = sk
            else:
                break
        return s


def km_estimate(dataset: SurvivalDataset, group_by: bool = False):
    """Product-limit estimator; with ``group_by`` set, one curve per group
    label (requires dataset.groups)."""
    if len(dataset.times) == 0:
        raise ConfigError("empty dataset")
    if group_by:
        if dataset.groups is None:
            raise ConfigError("dataset carries no group labels")
        out = {}
        for g in sorted(set(dataset.groups)):
            mask = np.array([x == g for x in dataset.groups])
            out[g] = _km(dataset.times[mask], dataset.events[mask])
        return out
    return _km(dataset.times, dataset.events)


def _km(times: np.ndarray, events: np.ndarray) -> KMCurve:
    order = np.argsort(times, kind="stable")
    t, e = times[order], events[order]
    n = len(t)
    distinct = sorted(set(t[e == 1]))
    surv, at_risk, n_ev = [], [], []
    s = 1.0
    for tk in distinct:
        nk = int(np.sum(t >= tk))
        dk = int(np.sum((t == tk) & (e == 1)))
        s *= 1.0 - dk / nk
        surv.append(s)
        at_risk.append(nk)
        n_ev.append(dk)
    return KMCurve(
        times=np.array(distinct, dtype=float),
        survival=np.array(surv),
        n_at_risk=np.array(at_risk, dtype=int),
        n_events=np.array(n_ev, dtype=int),
    )


@dataclass(frozen=True)
class LogRankResult:
    statistic: float
    df: int
    p_value: float


def _chi2_sf(x: float, df: int) -> float:
    """Upper chi-squared tail, the kernel scipy.stats.chi2.sf calls. A
    round-off negative statistic gives p = 1, not chdtrc's nan."""
    return float(special.chdtrc(df, max(x, 0.0)))


def logrank_test(dataset: SurvivalDataset) -> LogRankResult:
    """Standard log-rank test over the dataset's group labels."""
    if dataset.groups is None:
        raise ConfigError("dataset carries no group labels")
    labels = sorted(set(dataset.groups))
    if len(labels) < 2:
        raise ConfigError("log-rank requires at least two groups")
    if int(dataset.events.sum()) < 1:
        raise ConfigError("log-rank requires at least one event")
    g = np.array([labels.index(x) for x in dataset.groups])
    k = len(labels)
    t, e = dataset.times, dataset.events
    event_times = sorted(set(t[e == 1]))
    observed = np.zeros(k)
    expected = np.zeros(k)
    # covariance of the first k-1 group O-E sums
    V = np.zeros((k - 1, k - 1))
    for tk in event_times:
        at_risk = t >= tk
        n_j = np.array([np.sum(at_risk & (g == j)) for j in range(k)], dtype=float)
        n_tot = n_j.sum()
        d_j = np.array(
            [np.sum((t == tk) & (e == 1) & (g == j)) for j in range(k)], dtype=float
        )
        d_tot = d_j.sum()
        observed += d_j
        expected += d_tot * n_j / n_tot
        if n_tot > 1:
            factor = d_tot * (n_tot - d_tot) / (n_tot - 1)
            for a in range(k - 1):
                for b in range(k - 1):
                    if a == b:
                        V[a, b] += factor * n_j[a] * (n_tot - n_j[a]) / n_tot**2
                    else:
                        V[a, b] -= factor * n_j[a] * n_j[b] / n_tot**2
    diff = (observed - expected)[: k - 1]
    if np.allclose(diff, 0.0):
        return LogRankResult(statistic=0.0, df=k - 1, p_value=1.0)
    try:
        stat = float(diff @ np.linalg.solve(V, diff))
    except np.linalg.LinAlgError:
        stat = float(diff @ np.linalg.pinv(V) @ diff)
    p = _chi2_sf(stat, k - 1)
    return LogRankResult(statistic=stat, df=k - 1, p_value=p)


@dataclass(frozen=True)
class CoxFit:
    coef: np.ndarray
    se: np.ndarray
    hr: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    p_values: np.ndarray
    columns: list[str]
    loglik: float
    loglik_null: float
    score_statistic: float  # score test at beta=0 (log-rank analogue)
    score_p_value: float
    n_iter: int

    def summary_rows(self):
        for i, name in enumerate(self.columns):
            yield {
                "term": name,
                "coef": self.coef[i],
                "se": self.se[i],
                "HR": self.hr[i],
                "CI_low": self.ci_low[i],
                "CI_high": self.ci_high[i],
                "p": self.p_values[i],
            }


def _breslow_quantities(beta, times, events, X):
    """Return (loglik, score vector, information matrix) under Breslow ties."""
    order = np.argsort(-times, kind="stable")  # descending time
    t, e, Xs = times[order], events[order], X[order]
    eta = Xs @ beta
    eta = eta - eta.max()
    w = np.exp(eta)
    n, p = Xs.shape
    ll = 0.0
    score = np.zeros(p)
    info = np.zeros((p, p))
    # cumulative risk-set sums, walking times descending so the risk set grows
    S0 = 0.0
    S1 = np.zeros(p)
    S2 = np.zeros((p, p))
    i = 0
    while i < n:
        j = i
        while j < n and t[j] == t[i]:
            j += 1
        for r in range(i, j):
            S0 += w[r]
            S1 += w[r] * Xs[r]
            S2 += w[r] * np.outer(Xs[r], Xs[r])
        d_idx = [r for r in range(i, j) if e[r] == 1]
        d = len(d_idx)
        if d:
            xbar = S1 / S0
            for r in d_idx:
                ll += eta[r]
                score += Xs[r]
            ll -= d * np.log(S0)
            score -= d * xbar
            info += d * (S2 / S0 - np.outer(xbar, xbar))
        i = j
    return ll, score, info


def cox_fit(dataset: SurvivalDataset) -> CoxFit:
    times, events, X = dataset.times, dataset.events, dataset.X
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
    ll_null, score0, info0 = _breslow_quantities(np.zeros(p), times, events, X)
    if p:
        try:
            score_stat = float(score0 @ np.linalg.solve(info0, score0))
        except np.linalg.LinAlgError:
            score_stat = float(score0 @ np.linalg.pinv(info0) @ score0)
        score_p = _chi2_sf(score_stat, p)
    else:
        score_stat, score_p = 0.0, 1.0
    beta = np.zeros(p)
    ll = ll_null
    trace = [ll]
    n_iter = 0
    if p:
        for n_iter in range(1, 51):
            ll_cur, score, info = _breslow_quantities(beta, times, events, X)
            try:
                step = np.linalg.solve(info, score)
            except np.linalg.LinAlgError as exc:
                raise FitError(
                    "singular information matrix; possible separation — "
                    "consider removing sparse covariates",
                    context={"iterations": trace},
                ) from exc
            new_beta = beta + step
            new_ll, _, _ = _breslow_quantities(new_beta, times, events, X)
            halvings = 0
            while new_ll < ll_cur and halvings < 30:
                step /= 2.0
                new_beta = beta + step
                new_ll, _, _ = _breslow_quantities(new_beta, times, events, X)
                halvings += 1
            beta = new_beta
            trace.append(new_ll)
            if np.max(np.abs(beta)) > 50:
                raise FitError(
                    "monotone likelihood (perfect separation) — "
                    "consider removing the offending covariate",
                    context={"iterations": trace},
                )
            denom = max(abs(new_ll), 1e-12)
            if abs(new_ll - ll) / denom < 1e-8:
                ll = new_ll
                break
            ll = new_ll
        else:
            raise FitError(
                "Cox fit did not converge in 50 iterations",
                context={"iterations": trace},
            )
    _, _, info = _breslow_quantities(beta, times, events, X)
    if p:
        cov = np.linalg.inv(info)
        se = np.sqrt(np.diag(cov))
    else:
        se = np.zeros(0)
    z = np.divide(beta, se, out=np.zeros_like(beta), where=se > 0)
    pvals = 2 * special.ndtr(-np.abs(z))
    with np.errstate(over="ignore"):  # degenerate fits get infinite CI bounds
        ci_low = np.exp(beta - 1.96 * se)
        ci_high = np.exp(beta + 1.96 * se)
    return CoxFit(
        coef=beta,
        se=se,
        hr=np.exp(beta),
        ci_low=ci_low,
        ci_high=ci_high,
        p_values=pvals,
        columns=list(dataset.columns),
        loglik=ll,
        loglik_null=ll_null,
        score_statistic=score_stat,
        score_p_value=score_p,
        n_iter=n_iter,
    )

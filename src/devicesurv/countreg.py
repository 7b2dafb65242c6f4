"""Negative-binomial (NB2) count regression, AIC-driven grouping of rare
categories, and the Welch t-test.

nb_fit alternates IRLS Newton steps on the coefficients (survival.newton_step)
with a guarded 1-D Newton on the dispersion theta (Var = mu + mu^2/theta).
Large fitted theta means no overdispersion, at which point the fit coincides
with Poisson. scipy loads inside the NB kernels and the Welch test, not on
import.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FitError
from .outcomes import Covariate, build_design
from .survival import newton_step, wald, wald_p_values, wald_rows

log = logging.getLogger(__name__)

THETA_CAP = 1e8
OTHER_SYSTEM = "Other system"


@dataclass(frozen=True)
class NBFit:
    coef: np.ndarray
    se: np.ndarray
    irr: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    columns: list[str]
    theta: float
    loglik: float
    aic: float
    n_iter: int

    @property
    def p_values(self) -> np.ndarray:
        return wald_p_values(self.coef, self.se)

    def summary_rows(self):
        return wald_rows(self, "IRR", self.irr)


def _nb_loglik(y, mu, theta):
    from scipy import special

    return float(
        np.sum(
            special.gammaln(y + theta)
            - special.gammaln(theta)
            - special.gammaln(y + 1)
            + theta * np.log(theta / (theta + mu))
            + y * np.log(mu / (theta + mu))
        )
    )


def _nb_info(D, mu, theta):
    """D' diag(w) D, the coefficients' information at fixed theta."""
    w = mu * theta / (theta + mu)
    return D.T @ (D * w[:, None])


def _theta_newton(y, mu, theta):
    """One guarded Newton step on theta for fixed mu."""
    from scipy import special

    d1 = float(
        np.sum(
            special.digamma(y + theta)
            - special.digamma(theta)
            + np.log(theta / (theta + mu))
            + 1.0
            - (y + theta) / (theta + mu)
        )
    )
    d2 = float(
        np.sum(
            special.polygamma(1, y + theta)
            - special.polygamma(1, theta)
            + 1.0 / theta
            - 2.0 / (theta + mu)
            + (y + theta) / (theta + mu) ** 2
        )
    )
    if d2 >= 0:  # not locally concave; fall back to a gradient step
        step = d1
    else:
        step = -d1 / d2
    new = theta + step
    while new <= 0:
        step /= 2.0
        new = theta + step
    return min(new, THETA_CAP)


def nb_fit(counts, X, columns=None, exposure=None) -> NBFit:
    """Log-link NB2 regression with an intercept prepended to ``X``.

    ``exposure`` is an optional per-row follow-up offset (log(exposure) is
    added to the linear predictor)."""
    y = np.asarray(counts, dtype=float)
    if y.size == 0:
        raise ConfigError("empty count vector")
    if np.any(y < 0) or np.any(y != np.floor(y)):
        raise ConfigError("counts must be nonnegative integers")
    if exposure is not None:
        exposure = np.asarray(exposure, dtype=float)
        if not np.all(np.isfinite(exposure) & (exposure > 0)):
            raise ConfigError("exposure must be positive and finite")
    if not np.any(y > 0):
        raise ConfigError("all counts are zero")
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    n = y.size
    D = np.column_stack([np.ones(n), X])
    if np.linalg.matrix_rank(D) < D.shape[1]:
        raise ConfigError("design matrix is rank deficient")
    offset = np.log(exposure) if exposure is not None else np.zeros(n)
    names = ["intercept"] + (list(columns) if columns is not None else
                             [f"x{j}" for j in range(X.shape[1])])

    def objective(beta):  # the log-likelihood at the current theta, and the mean
        mu = np.exp(np.clip(D @ beta + offset, -30, 30))
        return _nb_loglik(y, mu, theta), mu

    beta = np.zeros(D.shape[1])
    beta[0] = np.log(max(y.mean(), 1e-8)) - offset.mean()
    theta = 1.0
    ll, mu = objective(beta)
    for n_iter in range(1, 201):
        # IRLS Newton step on beta at fixed theta
        score = D.T @ ((y - mu) * theta / (theta + mu))
        try:
            new_beta, (_, mu) = newton_step(objective, beta, ll, score, _nb_info(D, mu, theta))
        except np.linalg.LinAlgError as exc:
            raise FitError("singular information matrix in NB fit") from exc
        new_theta = _theta_newton(y, mu, theta) if theta < THETA_CAP else theta
        rel_beta = np.max(np.abs(new_beta - beta)) / max(np.max(np.abs(beta)), 1e-8)
        rel_theta = abs(new_theta - theta) / max(theta, 1e-8)
        beta, theta = new_beta, new_theta
        ll = _nb_loglik(y, mu, theta)
        if rel_beta < 1e-8 and (rel_theta < 1e-8 or theta >= THETA_CAP):
            break
    else:
        raise FitError("NB fit did not converge in 200 iterations")

    k = D.shape[1] + 1  # coefficients plus dispersion
    return NBFit(
        coef=beta,
        irr=np.exp(beta),
        **wald(beta, _nb_info(D, mu, theta)),
        columns=names,
        theta=float(theta),
        loglik=ll,
        aic=2 * k - 2 * ll,
        n_iter=n_iter,
    )


@dataclass
class CutoffContext:
    """Per-observation inputs for refitting the NB model at each cutoff."""

    counts: np.ndarray
    systems: list[str]
    extra_X: np.ndarray | None = None
    extra_columns: list[str] | None = None
    exposure: np.ndarray | None = None
    reference: str | None = None


def fit_with_cutoff(system_counts, cutoff, ctx: CutoffContext) -> NBFit:
    """Fit with systems seen fewer than ``cutoff`` times pooled as "Other
    system", dummy-coded against ``ctx.reference``, then ``ctx.extra_X``."""
    rows = [{"implant_system": s if system_counts.get(s, 0) >= cutoff else OTHER_SYSTEM}
            for s in ctx.systems]
    X, names = build_design(rows, [Covariate("implant_system", ctx.reference)])
    if ctx.extra_X is not None:
        X = np.column_stack([X, ctx.extra_X])
        names += list(ctx.extra_columns or [])
    return nb_fit(ctx.counts, X, columns=names, exposure=ctx.exposure)


def choose_other_cutoff(system_counts, candidate_cutoffs, ctx: CutoffContext):
    """Collapse systems rarer than each candidate cutoff into "Other system",
    refit, and return (cutoff minimizing AIC, {cutoff: NBFit}). Ties break
    toward the smallest cutoff; failed fits are skipped with a warning."""
    candidates = sorted(candidate_cutoffs)
    if not candidates:
        raise ConfigError("need at least one candidate cutoff")
    fits: dict[int, NBFit] = {}
    for cutoff in candidates:
        try:
            fits[cutoff] = fit_with_cutoff(system_counts, cutoff, ctx)
        except (ConfigError, FitError) as exc:
            log.warning("cutoff %s skipped: %s", cutoff, exc)
    if not fits:
        raise FitError("every candidate cutoff failed to fit")
    best = min(fits, key=lambda c: (fits[c].aic, c))
    return best, fits


@dataclass(frozen=True)
class TTestResult:
    statistic: float
    df: float
    p_value: float
    mean_a: float
    mean_b: float


def ttest_welch(a, b) -> TTestResult:
    """Two-sided Welch t-test with Welch-Satterthwaite degrees of freedom."""
    from scipy import special

    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size < 2 or b.size < 2:
        raise ConfigError("each group needs at least two values")
    va, vb = a.var(ddof=1), b.var(ddof=1)
    if va == 0 and vb == 0:
        if a.mean() == b.mean():
            return TTestResult(0.0, float(a.size + b.size - 2), 1.0,
                               float(a.mean()), float(b.mean()))
        raise ConfigError("both groups have zero variance")
    sa, sb = va / a.size, vb / b.size
    t = (a.mean() - b.mean()) / np.sqrt(sa + sb)
    df = (sa + sb) ** 2 / (
        sa**2 / (a.size - 1) + sb**2 / (b.size - 1)
    )
    p = 2 * special.stdtr(df, -abs(t))
    return TTestResult(float(t), float(df), float(p), float(a.mean()), float(b.mean()))

"""Numerical check that the plain ranking surrogate is consistent with NCRE.

Given per-label marginal probabilities delta_i = P(y_i = 1 | x), the
conditional surrogate risk has a unique minimizer (up to a shared score
offset) whose margins are logit(delta_i). Minimizing the risk numerically and
comparing against that closed form verifies, trial by trial, that the
recovered scores fall in the Bayes-optimal set for the ranking error.

Most trials of the fixed-step descent settle into a fixed point or a short
cycle long before the last step. A trial is retired once its state repeats
bit for bit, so settled trials cost nothing more, and the result still
equals exactly the requested number of steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# margins this close to zero count as ties when checking Bayes membership
TIE_TOL = 1e-6

DEFAULT_STEP = 0.5
DEFAULT_ITERS = 5000

# repeat detection in _descend: how often it snapshots the live trials, and
# the longest period it looks for; nearly every trial settles into a fixed
# point or a cycle of at most 32 steps
_SNAP_EVERY = 128
_PERIOD_CAP = 32


@dataclass
class ConsistencyReport:
    """Aggregate outcome of repeated minimize-and-compare trials."""

    max_margin_deviation: float
    sign_agreement_rate: float
    ncre_risk_gap: float
    trials: int


def _validate_delta(delta) -> np.ndarray:
    d = np.asarray(delta, dtype=float)
    if d.ndim != 1 or d.size < 1:
        raise ValueError("marginals must form a nonempty 1-D vector")
    if not ((d > 0.0) & (d < 1.0)).all():
        raise ValueError("every marginal must lie strictly inside (0, 1)")
    return d


def _check_scores(delta: np.ndarray, f) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.ndim != 1 or f.size != delta.size + 1:
        raise ValueError(
            f"scores must have length K+1={delta.size + 1}, got {f.size}"
        )
    return f


def ncre_conditional_risk(delta, f) -> float:
    """Expected ranking error at f when label i is positive with prob delta_i."""
    d = _validate_delta(delta)
    f = _check_scores(d, f)
    m = f[1:] - f[0]
    pen = d * (m < 0) + (1 - d) * (m > 0) + 0.5 * (m == 0)
    return float(pen.sum())


def bayes_ncre_risk(delta) -> float:
    """Minimum achievable conditional ranking error: sum of min(delta, 1-delta)."""
    d = _validate_delta(delta)
    return float(np.minimum(d, 1 - d).sum())


def bayes_optimal_membership(delta, f, tie_tol: float = 0.0) -> bool:
    """Whether f ranks every label on the Bayes-optimal side of the none score.

    Requires f_i > f_0 when delta_i > 1/2 and f_i < f_0 when delta_i < 1/2;
    delta_i = 1/2 imposes no constraint. Margins within tie_tol of zero are
    treated as ties and fail the strict inequalities.
    """
    d = _validate_delta(delta)
    f = _check_scores(d, f)
    m = f[1:] - f[0]
    ok_high = (d <= 0.5) | (m > tie_tol)
    ok_low = (d >= 0.5) | (m < -tie_tol)
    return bool((ok_high & ok_low).all())


def optimal_margin_closed_form(delta) -> np.ndarray:
    """Margins of the conditional-risk minimizer: logit(delta) per label."""
    d = _validate_delta(delta)
    return np.log(d / (1 - d))


def _descend(deltas: np.ndarray, scores: np.ndarray, step: float, iters: int):
    """Gradient descent on the conditional surrogate risk, batched over trials.

    deltas is (T, K), scores (T, K+1), updated in place and returned. The risk
    gradient is sigmoid(f_i - f_0) - delta_i per label and minus their sum for
    f_0, so the per-trial score sum stays constant throughout. The label and
    none scores live in contiguous arrays, the loop reuses its buffers, and
    each iteration checks the margins it computes: an overflow raises
    FloatingPointError even while the scores stay finite.

    A trial's row alone decides its next step, so a row whose state repeats
    bit for bit repeats with that period to the end. Every _SNAP_EVERY steps
    the live rows are snapshotted and compared with their state over the next
    _PERIOD_CAP steps; a repeating row is retired, its final state written
    out, at the first step whose distance to iters is a multiple of its
    period, and the loop goes on over the live rows only. The result equals
    exactly iters plain steps; a retired row's margins were all checked.
    """
    if not math.isfinite(step) or step <= 0:
        raise ValueError(f"step must be finite and positive, got {step}")
    if iters < 0:
        raise ValueError("iters must be nonnegative")
    f = scores[:, 1:].copy()
    f0 = scores[:, :1].copy()
    live = np.arange(len(f))  # the scores row of each live row
    # the step count at which a row retires; past iters until it repeats
    retire_at = np.full(len(f), iters + 1)
    soonest = iters + 1
    m = f - f0
    e, g = np.empty_like(f), np.empty_like(f)
    up = np.empty(f.shape, dtype=bool)
    row = np.empty(len(f))
    # the margin check raises on overflow; numpy's warnings would repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(iters):
            if it % _SNAP_EVERY == 0:
                # bit patterns: == would equate -0.0 and 0.0
                snap_f = f.view(np.int64).copy()
                snap_f0 = f0.view(np.int64).copy()
            # sigmoid(m) = max(e, m >= 0) / (1 + e) with e = exp(-|m|), as in
            # losses.logistic_terms: the numerator is 1 or e, and e <= 1
            np.abs(m, out=e)
            np.negative(e, out=e)
            np.exp(e, out=e)
            np.greater_equal(m, 0.0, out=up)
            np.maximum(e, up, out=g)
            e += 1.0
            g /= e
            g -= deltas
            g.sum(axis=1, out=row)
            g *= step
            f -= g
            row *= step
            f0[:, 0] += row
            np.subtract(f, f0, out=m)
            if not np.isfinite(m).all():
                raise FloatingPointError(f"non-finite margins at iteration {it}")
            done = it + 1
            lag = done % _SNAP_EVERY
            if 0 < lag <= _PERIOD_CAP:
                same = (f.view(np.int64) == snap_f).all(axis=1)
                same &= f0.view(np.int64)[:, 0] == snap_f0[:, 0]
                same &= retire_at > iters
                if same.any():
                    # states repeat every lag steps from the snapshot on
                    retire_at[same] = done + (iters - done) % lag
                    soonest = min(soonest, int(retire_at[same].min()))
            if done == soonest:
                ripe = retire_at == done
                scores[live[ripe], 1:] = f[ripe]
                scores[live[ripe], :1] = f0[ripe]
                keep = ~ripe
                if not keep.any():
                    return scores
                f, f0, m, deltas = f[keep], f0[keep], m[keep], deltas[keep]
                live, retire_at = live[keep], retire_at[keep]
                snap_f, snap_f0 = snap_f[keep], snap_f0[keep]
                n = len(f)  # the buffers' leading rows stay contiguous
                e, g, up, row = e[:n], g[:n], up[:n], row[:n]
                soonest = int(retire_at.min())
    scores[live, 1:] = f
    scores[live, :1] = f0
    return scores


def minimize_conditional_ncrl(delta, init=None, step: float = DEFAULT_STEP,
                              iters: int = DEFAULT_ITERS) -> np.ndarray:
    """Minimize the conditional surrogate risk by fixed-step gradient descent.

    The result is that of exactly `iters` steps; the descent stops iterating
    once the scores repeat a state, so a large `iters` costs little.
    """
    d = _validate_delta(delta)
    if init is None:
        f0 = np.zeros(d.size + 1)
    else:
        f0 = _check_scores(d, init).copy()
    return _descend(d[None, :], f0[None, :], step, iters)[0]


def run_consistency_experiment(trials: int, k: int, seed: int,
                               step: float = DEFAULT_STEP,
                               iters: int = DEFAULT_ITERS) -> ConsistencyReport:
    """Minimize the conditional risk for random marginals and compare outcomes.

    Marginals are drawn uniformly from [0.05, 0.95]^k. Sign agreement is
    measured only on labels with |delta - 1/2| > 0.01; the risk gap is the
    worst per-trial excess of the recovered conditional NCRE risk over the
    Bayes risk.
    """
    if trials < 1 or k < 1:
        raise ValueError("trials and k must be at least 1")
    rng = np.random.default_rng(seed)
    deltas = rng.uniform(0.05, 0.95, size=(trials, k))
    scores = _descend(deltas, np.zeros((trials, k + 1)), step, iters)

    m = scores[:, 1:] - scores[:, :1]
    deviation = float(np.abs(m - np.log(deltas / (1 - deltas))).max())

    decided = np.abs(deltas - 0.5) > 0.01
    sign_ok = np.where(deltas > 0.5, m > TIE_TOL, m < -TIE_TOL)
    agreement = float(sign_ok[decided].mean()) if decided.any() else 1.0

    risk = (deltas * (m < 0) + (1 - deltas) * (m > 0) + 0.5 * (m == 0)).sum(axis=1)
    gap = float((risk - np.minimum(deltas, 1 - deltas).sum(axis=1)).max())
    return ConsistencyReport(
        max_margin_deviation=deviation,
        sign_agreement_rate=agreement,
        ncre_risk_gap=gap,
        trials=int(trials),
    )

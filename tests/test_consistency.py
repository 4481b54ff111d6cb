"""Conditional-risk minimization against the closed-form optimum."""

import math
import time
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ncrl_lab.consistency import (DEFAULT_ITERS, DEFAULT_STEP, TIE_TOL,
                                  _descend, bayes_ncre_risk,
                                  ncre_conditional_risk,
                                  optimal_margin_closed_form,
                                  run_consistency_experiment)

LN4 = math.log(4)


def minimize(delta, step=DEFAULT_STEP, iters=DEFAULT_ITERS):
    """One trial's (1, K+1) minimizer, descended from zero scores as
    run_consistency_experiment descends each of its trials."""
    deltas = np.array([delta], dtype=float)
    return _descend(deltas, np.zeros((1, deltas.shape[1] + 1)), step, iters)


class TestConditionalRisk:
    def test_correct_side(self):
        assert ncre_conditional_risk([[0.8]], [[0.0, 1.0]]) == \
            pytest.approx([0.2])

    def test_tie_penalty(self):
        assert ncre_conditional_risk([[0.8]], [[0.0, 0.0]]) == \
            pytest.approx([0.5])

    def test_sum_over_labels(self):
        # one value per trial, each summed over that trial's labels
        risk = ncre_conditional_risk([[0.8, 0.3], [0.8, 0.3]],
                                     [[0.0, 1.0, -1.0], [0.0, -1.0, 1.0]])
        assert risk == pytest.approx([0.5, 1.5])
        with pytest.raises(ValueError, match=r"\(T, K\+1\)"):
            ncre_conditional_risk([[0.8, 0.3]], [0.0, 1.0, -1.0])

    def test_marginals_must_be_interior(self):
        with pytest.raises(ValueError):
            ncre_conditional_risk([[1.0]], [[0.0, 1.0]])
        with pytest.raises(ValueError):
            ncre_conditional_risk([[0.0]], [[0.0, 1.0]])

    def test_bayes_risk(self):
        assert bayes_ncre_risk([[0.8, 0.3], [0.5, 0.5]]) == \
            pytest.approx([0.5, 1.0])
        assert bayes_ncre_risk([[0.5]]) == pytest.approx([0.5])


class TestClosedForm:
    def test_symmetry_point(self):
        assert optimal_margin_closed_form([[0.5]])[0, 0] == pytest.approx(0.0)

    def test_logit_values(self):
        assert_allclose(optimal_margin_closed_form([[0.8], [0.2]]),
                        [[LN4], [-LN4]], rtol=0, atol=1e-12)

    def test_degenerate_marginals_rejected(self):
        with pytest.raises(ValueError):
            optimal_margin_closed_form([[1.0]])
        with pytest.raises(ValueError):
            optimal_margin_closed_form([[0.0]])
        with pytest.raises(ValueError, match=r"\(T, K\)"):
            optimal_margin_closed_form([0.8])


class TestMinimizer:
    def test_recovers_logit(self):
        f = minimize([0.8])[0]
        assert_allclose(f[1] - f[0], LN4, rtol=0, atol=1e-3)

    def test_symmetric_fixed_point(self):
        f = minimize([0.5, 0.5, 0.5])[0]
        assert_allclose(f[1:] - f[0], np.zeros(3), rtol=0, atol=1e-3)

    def test_risk_gap_closes(self):
        delta = [[0.9, 0.1]]
        gap = ncre_conditional_risk(delta, minimize(delta[0])) \
            - bayes_ncre_risk(delta)
        assert 0.0 <= gap[0] < 1e-9

    def test_half_marginal_risk(self):
        # the tie-penalty 1/2 is itself the Bayes risk at delta = 1/2
        f = minimize([0.5])
        assert abs(f[0, 1] - f[0, 0]) < 1e-3
        assert ncre_conditional_risk([[0.5]], f) == bayes_ncre_risk([[0.5]])

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            minimize([0.8], step=0.0)

    def test_non_finite_step_rejected(self):
        # a NaN step used to surface as "non-finite scores at iteration 0"
        for step in (math.nan, math.inf):
            with pytest.raises(ValueError, match="step must be finite"):
                minimize([0.8], step=step)

    def test_margin_overflow_raises(self):
        # at step 1e308 the scores stay finite while their margins overflow,
        # which used to end in a report with margin deviations near 1e308
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(FloatingPointError, match="non-finite margins"):
            run_consistency_experiment(trials=20, k=5, seed=7, step=1e308,
                                       iters=50)

    def test_margin_overflow_raises_without_warnings(self):
        # the overflow used to surface first as a numpy RuntimeWarning; with
        # warnings as errors, only the located FloatingPointError may come out
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="iteration 1"):
                run_consistency_experiment(3, 5, 7, step=1e308, iters=3)


def _plain_descent(deltas, scores, step, iters):
    """The descent as a plain loop over strided slices of the scores."""
    for _ in range(iters):
        m = scores[:, 1:] - scores[:, :1]
        z = np.exp(-np.abs(m))
        g = np.where(m >= 0, 1.0 / (1.0 + z), z / (1.0 + z)) - deltas
        scores[:, 1:] -= step * g
        scores[:, 0] += step * g.sum(axis=1)
    return scores


class TestDescentExactness:
    def test_matches_plain_loop(self):
        rng = np.random.default_rng(3)
        for k in (1, 3, 5, 8, 28):
            deltas = rng.uniform(0.05, 0.95, size=(300, k))
            for init in (np.zeros((300, k + 1)),
                         rng.normal(0.0, 3.0, size=(300, k + 1))):
                expected = _plain_descent(deltas, init.copy(), 0.5, 200)
                got = _descend(deltas, init.copy(), 0.5, 200)
                assert np.array_equal(got, expected), k

    def test_retired_trials_match_plain_loop_bit_for_bit(self):
        # trials that settle into a fixed point or a cycle are retired early;
        # each must still end in the state of exactly `iters` plain steps,
        # signed zeros included. Rows are independent, so zero and random
        # starts share one batch.
        rng = np.random.default_rng(11)
        for k, trials in ((1, 20), (3, 20), (5, 20), (8, 10), (28, 4)):
            deltas = np.tile(rng.uniform(0.05, 0.95, size=(trials, k)), (2, 1))
            init = np.vstack([np.zeros((trials, k + 1)),
                              rng.normal(0.0, 3.0, size=(trials, k + 1))])
            for step in (0.5, 1.9):
                expected, done = init.copy(), 0
                for iters in (0, 1, 2, 3, 129, 1001, 5000):
                    expected = _plain_descent(deltas, expected, step,
                                              iters - done)
                    done = iters
                    got = _descend(deltas, init.copy(), step, iters)
                    assert np.array_equal(got.view(np.int64),
                                          expected.view(np.int64)), \
                        (k, step, iters)

    def test_settled_single_trial_is_cheap(self):
        # the one-row descent stops iterating once its state repeats; a
        # plain loop over 500,000 steps takes several seconds
        started = time.perf_counter()
        f = minimize([0.8], iters=500_000)
        assert time.perf_counter() - started < 2.0
        # the plain descent reaches its fixed point within 2,000 steps
        assert np.array_equal(f, _plain_descent(
            np.array([[0.8]]), np.zeros((1, 2)), DEFAULT_STEP, 2000))


class TestExperiment:
    def test_reference_run(self):
        report = run_consistency_experiment(trials=1000, k=5, seed=7)
        assert report.sign_agreement_rate == 1.0
        assert report.max_margin_deviation < 1e-3
        assert report.ncre_risk_gap < 1e-9
        assert report.trials == 1000

    def test_determinism(self):
        a = run_consistency_experiment(trials=50, k=3, seed=21)
        b = run_consistency_experiment(trials=50, k=3, seed=21)
        assert a == b

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            run_consistency_experiment(trials=0, k=5, seed=0)
        with pytest.raises(ValueError):
            run_consistency_experiment(trials=10, k=0, seed=0)


class TestMembershipOfMinimizers:
    def test_decided_marginals_land_in_bayes_set(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            k = int(rng.integers(1, 6))
            delta = rng.uniform(0.05, 0.95, size=k)
            delta = np.where(np.abs(delta - 0.5) < 0.02, 0.6, delta)
            f = minimize(delta)[0]
            # each label strictly on its Bayes-optimal side of f0
            m = f[1:] - f[0]
            assert np.where(delta > 0.5, m > TIE_TOL, m < -TIE_TOL).all()

    def test_margin_monotone_in_delta(self):
        grid = np.arange(0.1, 0.95, 0.1)
        recovered = [minimize([d])[0, 1] for d in grid]
        assert (np.diff(recovered) > 0).all()

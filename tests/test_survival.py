"""Step survival functions and the product-limit estimator."""

import numpy as np
import pytest

from archsurv.errors import EmptyDataError
from archsurv.survival import StepSurvival, kaplan_meier


def test_km_all_events_is_empirical_survival():
    s = kaplan_meier([1.0, 2.0, 3.0], [1, 1, 1])
    assert s(0.5) == 1.0
    assert s(1.0) == pytest.approx(2 / 3)
    assert s(2.5) == pytest.approx(1 / 3)
    assert s(3.0) == 0.0


def test_km_hand_computation_with_censoring():
    # (1 event, 2 censored, 3 event): S = 2/3 on [1,3), 0 after
    s = kaplan_meier([1.0, 2.0, 3.0], [1, 0, 1])
    assert s(1.0) == pytest.approx(2 / 3)
    assert s(2.9) == pytest.approx(2 / 3)
    assert s(3.0) == 0.0


def test_km_all_censored_is_one():
    s = kaplan_meier([1.0, 2.0], [0, 0])
    assert s(5.0) == 1.0
    assert s.times.size == 0


def test_km_empty_raises():
    with pytest.raises(EmptyDataError):
        kaplan_meier([], [])


def test_km_ties_events_before_censorings():
    # censored at 2 stays in the risk set for the death at 2
    s = kaplan_meier([2.0, 2.0, 4.0], [1, 0, 1])
    assert s(2.0) == pytest.approx(2 / 3)


def _km_loop(times, events):
    """Product-limit estimate, one distinct time at a time: (jump times,
    values after each jump)."""
    jumps, surv, s = [], [], 1.0
    for t in np.unique(times):
        at_risk = np.count_nonzero(times >= t)
        d = np.count_nonzero((times == t) & (events != 0))
        if d:
            s *= 1.0 - d / at_risk
            jumps.append(t)
            surv.append(s)
    return np.array(jumps), np.array(surv)


def test_km_equals_product_limit_loop_with_heavy_ties():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(1, 80))
        t = rng.integers(0, 8, size=n) * 0.37
        e = rng.integers(0, 2, size=n)
        s = kaplan_meier(t, e)
        jumps, surv = _km_loop(t, e)
        assert np.array_equal(s.times, jumps)
        assert np.array_equal(s.values, surv)
        assert s.t_max == t.max()


def test_km_matches_empirical_on_uncensored_random_data():
    rng = np.random.default_rng(1)
    t = rng.exponential(size=200)
    s = kaplan_meier(t, np.ones_like(t))
    grid = np.quantile(t, [0.1, 0.3, 0.5, 0.9])
    emp = [(t > g).mean() for g in grid]
    assert np.allclose(s(grid), emp)


def test_step_survival_evaluation_conventions():
    s = StepSurvival([1.0, 2.0], [0.6, 0.2], t_max=3.0)
    assert s(0.999) == 1.0
    assert s(1.0) == 0.6  # right-continuous
    assert s.left_value(1.0) == 1.0
    assert s.mid_value(1.0) == pytest.approx(0.8)
    assert s.jump_mass(1.0) == pytest.approx(0.4)
    assert s.jump_mass(1.5) == 0.0


def test_step_survival_interp_and_slope():
    s = StepSurvival([1.0, 2.0], [0.6, 0.2], t_max=3.0)
    assert s.slope(0.5) == pytest.approx(-0.4)
    assert s.slope(1.0) == pytest.approx(-0.4)  # left-looking at the node
    assert s.slope(1.5) == pytest.approx(-0.4)
    assert s.slope(2.0) == pytest.approx(-0.4)
    assert s.slope(2.5) == 0.0  # beyond last jump


def test_step_survival_atoms_and_tail_completion():
    s = StepSurvival([1.0, 2.0], [0.6, 0.2], t_max=3.0)
    t, m = s.atoms()
    assert np.allclose(t, [1.0, 2.0])
    assert np.allclose(m, [0.4, 0.4])
    t, m = s.atoms(complete_tail=True)
    assert np.allclose(t, [1.0, 2.0, 3.0])
    assert np.allclose(m, [0.4, 0.4, 0.2])
    assert m.sum() == pytest.approx(1.0)


def test_step_survival_completed():
    s = StepSurvival([1.0, 2.0], [0.6, 0.2], t_max=3.0)
    c = s.completed()
    assert c(2.5) == 0.2
    assert c(3.0) == 0.0
    # idempotent when the tail already reaches zero
    assert c.completed() is c


def test_step_survival_validation():
    with pytest.raises(ValueError):
        StepSurvival([2.0, 1.0], [0.5, 0.2])
    with pytest.raises(ValueError):
        StepSurvival([1.0, 2.0], [0.2, 0.5])


def test_step_survival_roundtrip_dict():
    s = StepSurvival([1.0, 2.0], [0.6, 0.2], t_max=3.0)
    assert StepSurvival.from_dict(s.to_dict()) == s

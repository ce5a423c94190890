"""Observed-data records: the invariant checks of SurvivalData."""

import numpy as np
import pytest

from archsurv.data import SurvivalData
from archsurv.simulate import ex1_config, simulate_dataset
from tests._oracles import reference_validate


def _clean(n=8, k=3):
    return simulate_dataset(ex1_config(k=k, n_train=n, seed=11)).train


def _corrupt(data, edits):
    # bad cells written in place into a valid record set
    for field, index, value in edits:
        getattr(data, field)[index] = value
    return data


BAD_RECORDS = {
    "nan y": [("y", 0, np.nan)],
    "negative y": [("y", 2, -1.0)],
    "infinite y": [("y", 1, np.inf)],
    "bad y skips the row": [("y", 3, np.nan), ("dtilde", 3, 2), ("delta", (3, 0), 5)],
    "dtilde not 0/1": [("dtilde", 4, 2), ("dtilde", 5, -1)],
    "bad t": [("t", (1, 0), np.nan), ("t", (2, 1), -0.5), ("t", (6, 2), np.inf)],
    "t beyond y": [("t", (0, 1), 1e6)],
    "censored t != y": [("delta", (5, 2), 0), ("t", (5, 2), 0.0)],
    "delta not 0/1": [("delta", (2, 0), 3), ("delta", (4, 1), -1)],
    "everything at once": [
        ("y", 0, -2.0), ("dtilde", 1, 7), ("t", (1, 0), np.nan), ("delta", (1, 0), 2),
        ("t", (2, 2), 1e9), ("delta", (3, 1), 0), ("t", (3, 1), 0.0), ("delta", (6, 2), 9),
    ],
}


@pytest.mark.parametrize("case", sorted(BAD_RECORDS))
def test_validate_gives_the_row_by_row_messages(case):
    data = _corrupt(_clean(), BAD_RECORDS[case])
    got = data.validate()
    assert got and got == reference_validate(data)


@pytest.mark.parametrize("gap", [1e-9, 2e-9, -1e-9, -2e-9])
def test_validate_tolerances_at_their_edge(gap):
    # t a tolerance away from y, observed and censored onsets alike
    data = _clean()
    data.t[:, 0] = data.y + gap
    data.t[:, 1] = data.y + gap
    data.delta[:, 1] = 0
    assert data.validate() == reference_validate(data)


def test_validate_clean_and_constructor_message():
    data = _clean(n=40)
    assert data.validate() == [] == reference_validate(data)
    t, delta = data.t.copy(), data.delta.copy()
    t[3, 0] = np.nan
    with pytest.raises(ValueError, match=r"invalid records: row 4: bad time t1=nan"):
        SurvivalData(t, delta, data.y, data.dtilde)


@pytest.mark.parametrize(
    "t,delta,dtilde,message",
    [
        ([[1.0]], [[0.7]], [1.0], "indicator d1 not 0/1"),  # once stored as 0
        ([[0.5]], [[257.0]], [1.0], "indicator d1 not 0/1"),  # once stored as 1
        ([[1.0]], [[0.0]], [np.nan], "terminal indicator not 0/1"),
    ],
)
def test_indicators_are_checked_before_the_int8_cast(t, delta, dtilde, message):
    with pytest.raises(ValueError, match=f"row 1: {message}"):
        SurvivalData(t, delta, [1.0], dtilde)

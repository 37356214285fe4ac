import numpy as np
import pytest

from chaoscontrol.errors import DIVERGENCE_BOUND, DivergenceError, check_prediction


def test_check_prediction_passes_the_bound_itself():
    v = np.array([DIVERGENCE_BOUND, -DIVERGENCE_BOUND, 0.0])
    floats = check_prediction(v, 7)
    assert floats == [DIVERGENCE_BOUND, -DIVERGENCE_BOUND, 0.0]
    assert all(type(c) is float for c in floats)


@pytest.mark.parametrize(
    "value",
    [np.nextafter(DIVERGENCE_BOUND, np.inf), -np.nextafter(DIVERGENCE_BOUND, np.inf),
     np.nan, np.inf, -np.inf],
    ids=["just-over-bound", "just-under-minus-bound", "nan", "inf", "minus-inf"],
)
def test_check_prediction_raises_outside_the_bound(value):
    with pytest.raises(DivergenceError) as info:
        check_prediction(np.array([0.0, value, 0.0]), 7)
    assert (info.value.phase, info.value.step) == ("predict", 7)

import numpy as np
import pytest

from graphminimax.errors import ValidationError, _check_integer, _check_seed


@pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3)])
def test_integers_pass_as_int(value):
    assert _check_integer(value, "k") == 3 and type(_check_integer(value, "k")) is int
    assert _check_seed(value) == 3 and type(_check_seed(value)) is int


@pytest.mark.parametrize("value", [True, False, np.bool_(True), 3.0, "3", None])
def test_bools_and_non_integers_are_refused(value):
    with pytest.raises(ValidationError, match=f"k must be an integer, got {value!r}"):
        _check_integer(value, "k")
    with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
        _check_seed(value)


import numpy as np
import pytest

import graphminimax as gm
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


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: gm.vg_packing(8.5, 0), "N must be an integer, got 8.5", id="N"),
        pytest.param(
            lambda: gm.fit_geometry(gm.eigenvalues(gm.build_path(64)), i0=2.5),
            "i0 must be an integer, got 2.5",
            id="i0",
        ),
        pytest.param(
            lambda: gm.projection_cutoff(100, -0.5, 1.0),
            "beta must be positive and finite, got -0.5",
            id="beta",
        ),
        pytest.param(
            lambda: gm.projection_cutoff(100, 1.0, 0.5),
            "r must be >= 1 and finite, got 0.5",
            id="r",
        ),
    ],
)
def test_public_functions_name_the_argument_they_refuse(call, message):
    with pytest.raises(ValidationError, match=message):
        call()

import numpy as np
import pytest

import graphminimax as gm
from graphminimax.errors import ValidationError, _check_integer, _check_positive, _check_seed


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


@pytest.mark.parametrize("value", [2, np.float64(0.5), 1e300])
def test_positive_numbers_pass_as_float(value):
    assert _check_positive(value, "x") == value and type(_check_positive(value, "x")) is float


@pytest.mark.parametrize("value", [0, -1.0, np.inf, np.nan, None, "1", np.array([1.0, 2.0])])
def test_non_positive_and_non_numbers_are_refused(value):
    with pytest.raises(ValidationError, match=r"^x must be positive and finite, got "):
        _check_positive(value, "x")


def _path64_weights():
    s = gm.eigenvalues(gm.build_path(64))
    return gm.ellipsoid_weights(s, gm.SobolevSpec(beta=1.0, Q=1.0, r=1.0))


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
        pytest.param(
            lambda: gm.path_eigenvalues(2.5),
            "path graph n must be an integer, got 2.5",
            id="path n",
        ),
        pytest.param(lambda: gm.build_path(2.5), "path graph n must be an integer, got 2.5",
                     id="build_path n"),
        pytest.param(lambda: gm.build_grid([2.5, 3]),
                     "grid dimension must be an integer, got 2.5", id="grid dim 2.5"),
        pytest.param(lambda: gm.build_grid([2.0, 3]),
                     "grid dimension must be an integer, got 2.0", id="grid dim 2.0"),
        pytest.param(
            lambda: gm.projection_cutoff(-5, 1.0, 1.0),
            r"n must be in \[1, DEFAULT_DENSE_CAP\*\*2 = 67108864\], got -5",
            id="cutoff n",
        ),
        pytest.param(
            lambda: gm.fano.packing_dimension(-8, gm.SobolevSpec(beta=1.0, Q=1.0, r=1.0)),
            r"n must be in \[1, DEFAULT_DENSE_CAP\*\*2 = 67108864\], got -8",
            id="packing n",
        ),
        pytest.param(
            lambda: gm.vg_packing(10**6, 0),
            r"packing dimension N must be in \[8, .* = 96\], got 1000000",
            id="packing N 1e6",
        ),
        pytest.param(
            lambda: gm.path_eigenvalues(10**15),
            r"path graph n must be in \[2, DEFAULT_DENSE_CAP\*\*2 = 67108864\], got 10{15}$",
            id="path n 1e15",
        ),
        pytest.param(
            lambda: gm.projection_cutoff(10**400, 1.0, 1.0),
            r"n must be in \[1, DEFAULT_DENSE_CAP\*\*2 = 67108864\], got 10{400}$",
            id="cutoff n 1e400",
        ),
        pytest.param(
            lambda: gm.fano.packing_dimension(10**400, gm.SobolevSpec(beta=1.0, Q=1.0, r=1.0)),
            r"n must be in \[1, DEFAULT_DENSE_CAP\*\*2 = 67108864\], got 10{400}$",
            id="packing n 1e400",
        ),
        pytest.param(
            lambda: gm.fano_certificate(
                gm.eigenvalues(gm.build_path(1024)), gm.SobolevSpec(1.0, 1.0, 1.0), "abc", 0
            ),
            "sigma must be positive and finite, got 'abc'",
            id="sigma str",
        ),
        pytest.param(
            lambda: gm.fano_certificate(
                gm.eigenvalues(gm.build_path(1024)), gm.SobolevSpec(1.0, 1.0, 1.0), None, 0
            ),
            "sigma must be positive and finite, got None",
            id="sigma None",
        ),
        pytest.param(
            lambda: gm.SobolevSpec(beta=1.0, Q=1e300, r=1.0),
            r"Q\^2 must be positive and finite, got Q=1e\+300$",
            id="Q 1e300",
        ),
        pytest.param(
            lambda: gm.SobolevSpec(beta=1.0, Q=1e-300, r=1.0),
            r"Q\^2 must be positive and finite, got Q=1e-300$",
            id="Q 1e-300",
        ),
        pytest.param(
            lambda: gm.ellipsoid_weights(
                gm.eigenvalues(gm.build_path(64)), gm.SobolevSpec(beta=400.0, Q=1.0, r=1.0)
            ),
            r"^beta=400.0 and r=1.0 on n=64 vertices put the Sobolev weights .* float range$",
            id="beta 400",
        ),
        pytest.param(
            lambda: gm.ellipsoid_weights(
                gm.eigenvalues(gm.build_path(64)), gm.SobolevSpec(beta=1e300, Q=1.0, r=1.0)
            ),
            r"^beta=1e\+300 and r=1.0 on n=64 vertices",
            id="beta 1e300",
        ),
        pytest.param(
            lambda: gm.pinsker_plan(_path64_weights(), 1e300, 64),
            r"sigma\^2/n must be positive and finite, got sigma=1e\+300, n=64$",
            id="plan sigma 1e300",
        ),
        pytest.param(
            lambda: gm.pinsker_plan(_path64_weights(), 1e-300, 64),
            r"sigma\^2/n must be positive and finite, got sigma=1e-300, n=64$",
            id="plan sigma 1e-300",
        ),
        pytest.param(
            lambda: gm.fano_certificate(
                gm.eigenvalues(gm.build_path(1024)), gm.SobolevSpec(1.0, 1.0, 1.0), 1e-300, 0
            ),
            r"sigma\^2 must be positive and finite, got sigma=1e-300$",
            id="certificate sigma 1e-300",
        ),
        pytest.param(
            lambda: gm.fano_certificate(
                gm.eigenvalues(gm.build_path(1024)), gm.SobolevSpec(1.0, 1.0, 1.0), 1e300, 0
            ),
            r"sigma\^2 must be positive and finite, got sigma=1e\+300$",
            id="certificate sigma 1e300",
        ),
    ],
)
def test_public_functions_name_the_argument_they_refuse(call, message):
    with pytest.raises(ValidationError, match=message):
        call()

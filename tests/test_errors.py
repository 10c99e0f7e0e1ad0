import math
import re

import numpy as np
import pytest

import graphminimax as gm
from graphminimax.errors import ValidationError, _check_integer, _check_real, _check_seed


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
    "value",
    [2, np.int64(2), np.float64(0.5), 1e300, 2**1000],
    ids=["2", "int64", "0.5", "1e300", "2^1000"],
)
def test_real_numbers_pass_as_float(value):
    assert _check_real(value, "x") == value and type(_check_real(value, "x")) is float


@pytest.mark.parametrize(
    "value", [True, False, np.bool_(True), "1", None, np.array([1.0]), np.array([1.0, 2.0])]
)
def test_bools_and_non_numbers_are_refused(value):
    message = re.escape(f"x must be a real number, got {value!r}")
    with pytest.raises(ValidationError, match=message):
        _check_real(value, "x", -math.inf, math.inf, "[]")


@pytest.mark.parametrize(
    "value, message",
    [
        (10**400, f"x must be in (-inf, inf), got {10**400}"),
        (-(10**400), f"x must be in (-inf, inf), got {-(10**400)}"),
        (math.nan, "x must be in (-inf, inf), got nan"),
        (math.inf, "x must be in (-inf, inf), got inf"),
        (-math.inf, "x must be in (-inf, inf), got -inf"),
    ],
    ids=["1e400", "-1e400", "nan", "inf", "-inf"],
)
def test_numbers_beyond_the_floats_and_nan_are_refused(value, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        _check_real(value, "x", -math.inf, math.inf)


@pytest.mark.parametrize(
    "value, ends, ok",
    [
        (0, "()", False), (0, "[)", True), (1, "()", False), (1, "(]", True),
        (0, "[]", True), (1, "[]", True), (-1e-300, "[]", False), (1 + 2**-52, "[]", False),
    ],
)
def test_each_bracket_kind_at_its_edge(value, ends, ok):
    if ok:
        assert _check_real(value, "x", 0, 1, ends) == value
    else:
        message = f"x must be in {ends[0]}0, 1{ends[1]}, got {value}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            _check_real(value, "x", 0, 1, ends)


def _spec(**fields):
    base = dict(family="path", n_values=(64, 128), beta=1.0, Q=1.0, sigma=1.0,
                estimator="pinsker", reps=2, seed=0)
    return gm.ExperimentSpec(**{**base, **fields})


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
            r"beta must be in \(0, inf\), got -0.5",
            id="beta",
        ),
        pytest.param(
            lambda: gm.projection_cutoff(100, 1.0, 0.5),
            r"r must be in \[1, inf\), got 0.5",
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
            "sigma must be a real number, got 'abc'",
            id="sigma str",
        ),
        pytest.param(
            lambda: gm.fano_certificate(
                gm.eigenvalues(gm.build_path(1024)), gm.SobolevSpec(1.0, 1.0, 1.0), None, 0
            ),
            "sigma must be a real number, got None",
            id="sigma None",
        ),
        pytest.param(
            lambda: gm.SobolevSpec(beta=1.0, Q=1e300, r=1.0),
            r"Q\^2 for Q=1e\+300 must be in \[2.2250738585072014e-308, inf\), got inf$",
            id="Q 1e300",
        ),
        pytest.param(
            lambda: gm.SobolevSpec(beta=1.0, Q=1e-300, r=1.0),
            r"Q\^2 for Q=1e-300 must be in \[2.2250738585072014e-308, inf\), got 0.0$",
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
            r"sigma\^2/n for sigma=1e\+300, n=64 must be in \(0, inf\), got inf$",
            id="plan sigma 1e300",
        ),
        pytest.param(
            lambda: gm.pinsker_plan(_path64_weights(), 1e-300, 64),
            r"sigma\^2/n for sigma=1e-300, n=64 must be in \(0, inf\), got 0.0$",
            id="plan sigma 1e-300",
        ),
        pytest.param(
            lambda: gm.fano_certificate(
                gm.eigenvalues(gm.build_path(1024)), gm.SobolevSpec(1.0, 1.0, 1.0), 1e-300, 0
            ),
            r"sigma\^2 for sigma=1e-300 must be in \(0, inf\), got 0.0$",
            id="certificate sigma 1e-300",
        ),
        pytest.param(
            lambda: gm.fano_certificate(
                gm.eigenvalues(gm.build_path(1024)), gm.SobolevSpec(1.0, 1.0, 1.0), 1e300, 0
            ),
            r"sigma\^2 for sigma=1e\+300 must be in \(0, inf\), got inf$",
            id="certificate sigma 1e300",
        ),
        pytest.param(
            lambda: gm.SobolevSpec(beta=1, Q=1, r="2"),
            "r must be a real number, got '2'",
            id="r str",
        ),
        pytest.param(
            lambda: gm.SobolevSpec(beta=10**400, Q=1, r=1),
            rf"^beta must be in \(0, inf\), got 10{{400}}$",
            id="beta 1e400 int",
        ),
        pytest.param(
            lambda: gm.SobolevSpec(beta=True, Q=1, r=1),
            "beta must be a real number, got True",
            id="beta bool",
        ),
        pytest.param(
            lambda: gm.pinsker_plan(_path64_weights(), 10**400, 64),
            rf"^sigma must be in \(0, inf\), got 10{{400}}$",
            id="plan sigma 1e400 int",
        ),
        pytest.param(
            lambda: gm.fit_geometry(gm.eigenvalues(gm.build_path(64)), kappa=None),
            "kappa must be a real number, got None",
            id="kappa None",
        ),
        pytest.param(
            lambda: gm.build_small_world(64, 4, "0.1", 1),
            "rewiring probability p must be a real number, got '0.1'",
            id="p str",
        ),
        pytest.param(
            lambda: gm.sample_ball_coefficients(_path64_weights(), None, 1),
            "fill must be a real number, got None",
            id="sample fill None",
        ),
        pytest.param(
            lambda: gm.worst_case_prior_sample(
                gm.pinsker_plan(_path64_weights(), 1.0, 64), _path64_weights(), None, 1
            ),
            "delta_prior must be a real number, got None",
            id="delta_prior None",
        ),
        pytest.param(
            lambda: _spec(sigma="1"),
            "sigma must be a real number, got '1'",
            id="spec sigma str",
        ),
        pytest.param(
            lambda: _spec(fill=None),
            "fill must be a real number, got None",
            id="spec fill None",
        ),
    ],
)
def test_public_functions_name_the_argument_they_refuse(call, message):
    with pytest.raises(ValidationError, match=message):
        call()

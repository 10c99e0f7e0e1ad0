import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import graphminimax as gm
from graphminimax.errors import ValidationError


BALL = gm.SobolevSpec(beta=1.0, Q=1.0, r=1.0)
PATH8 = gm.path_spectrum_closed_form(8)


@pytest.mark.parametrize(
    "a, R, field",
    [
        ([1.0, 2.0, 3.0], 0.0, "R"),
        ([1.0, 2.0, 3.0], -1.0, "R"),
        ([1.0, 2.0, 3.0], np.inf, "R"),
        ([3.0, 2.0, 1.0], 1.0, "a"),
        ([1.0, 3.0, 2.0], 1.0, "a"),
        ([1.0, np.nan, 3.0], 1.0, "a"),
        ([1.0, 2.0, np.inf], 1.0, "a"),
        ([[1.0, 2.0, 3.0]], 1.0, "a"),
    ],
    ids=["R=0", "R=-1", "R=inf", "a=3,2,1", "a=1,3,2", "a=1,nan,3", "a=1,2,inf", "a 2-D"],
)
def test_bad_ellipsoid_weights_name_their_field(a, R, field):
    # refused at construction, so pinsker_plan never blames N or its root
    with pytest.raises(ValidationError, match=rf"(^| ){field} must be"):
        gm.pinsker_plan(gm.EllipsoidWeights(np.array(a), R), 1.0, 3)


class TestSobolevForm:
    def test_constant_signal(self, path64_eig):
        # lambda_0 = 0, so only the unit weight on the mean survives
        spec = gm.SobolevSpec(beta=1.3, Q=2.0, r=1.0)
        val = gm.sobolev_form(path64_eig, spec, np.full(64, 3.0))
        assert abs(val - 9.0) < 1e-9

    def test_single_eigenvector(self, path64_eig):
        t = 0.7
        spec = gm.SobolevSpec(beta=2.0, Q=1.0, r=1.0)
        val = gm.sobolev_form(path64_eig, spec, t * path64_eig.basis[:, 1])
        expected = t**2 * (1.0 + 64 ** (2 * 2.0 / 1.0) * path64_eig.lambdas[1] ** 2.0)
        assert abs(val - expected) < 1e-9 * expected

    def test_matrix_form_oracle(self, path64_eig, grid8_eig):
        # spectral evaluation must agree with the dense matrix
        # I + (n^(2/r) L)^beta applied directly
        rng = np.random.default_rng(3)
        cases = [
            (path64_eig, gm.build_path(64), 1.0, 1),
            (path64_eig, gm.build_path(64), 1.0, 2),
            (grid8_eig, gm.build_grid([8, 8]), 2.0, 1),
            (grid8_eig, gm.build_grid([8, 8]), 2.0, 2),
        ]
        for s, g, r, beta in cases:
            L = gm.laplacian(g)
            M = np.eye(s.n) + np.linalg.matrix_power(s.n ** (2.0 / r) * L, beta)
            spec = gm.SobolevSpec(beta=float(beta), Q=1.0, r=r)
            for _ in range(25):
                f = rng.standard_normal(s.n)
                spectral = gm.sobolev_form(s, spec, f)
                direct = float(f @ M @ f / s.n)
                assert abs(spectral - direct) < 1e-8 * abs(direct)

    def test_monotone_in_beta_for_high_frequencies(self, path64_eig):
        # on the top eigenvector n^(2/r) lambda >> 1, so the form grows with beta
        f = path64_eig.basis[:, 63]
        vals = [
            gm.sobolev_form(path64_eig, gm.SobolevSpec(beta=b, Q=1.0, r=1.0), f)
            for b in (0.5, 1.0, 2.0, 3.0)
        ]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestEllipsoidWeights:
    def test_basics(self, path64_eig):
        w = gm.ellipsoid_weights(path64_eig, gm.SobolevSpec(beta=1.5, Q=2.0, r=1.0))
        assert w.a[0] == 1.0
        assert np.all(np.diff(w.a) >= 0)
        assert w.R == 4.0

    def test_path_weights_grow_linearly(self):
        # for beta = r = 1 the closed form gives a_j = sqrt(1 + (2n sin(pi j/2n))^2),
        # approximately pi * j in the low range
        n = 512
        s = gm.path_spectrum_closed_form(n)
        w = gm.ellipsoid_weights(s, BALL)
        j = np.arange(1, 9)
        oracle = np.sqrt(1.0 + (np.pi * j) ** 2)
        assert np.max(np.abs(w.a[1:9] / oracle - 1.0)) < 1e-3
        assert np.max(np.abs(w.a[1:9] / (np.pi * j) - 1.0)) < 0.06

    def test_membership_consistency(self, path64_eig):
        rng = np.random.default_rng(4)
        w = gm.ellipsoid_weights(path64_eig, BALL)
        for _ in range(25):
            f = rng.standard_normal(64)
            c = gm.gft_forward(path64_eig, f)
            assert abs(np.sum(w.a**2 * c**2) - gm.sobolev_form(path64_eig, BALL, f)) < 1e-9 * max(
                1.0, gm.sobolev_form(path64_eig, BALL, f)
            )


class TestSampleBall:
    def test_exact_fill(self, path64_eig):
        for fill in (0.3, 1.0):
            f = gm.sample_ball(path64_eig, BALL, fill, seed=10)
            val = gm.sobolev_form(path64_eig, BALL, f)
            assert abs(val - fill * BALL.Q**2) < 1e-9 * fill * BALL.Q**2

    def test_boundary_membership(self, path64_eig):
        f = gm.sample_ball(path64_eig, BALL, 1.0, seed=11)
        val = gm.sobolev_form(path64_eig, BALL, f)
        assert val <= BALL.Q**2 * (1.0 + 1e-12)
        assert val > (0.999 * BALL.Q) ** 2  # outside every smaller ball

    def test_deterministic(self, path64_eig):
        f1 = gm.sample_ball(path64_eig, BALL, 0.5, seed=12)
        f2 = gm.sample_ball(path64_eig, BALL, 0.5, seed=12)
        assert np.array_equal(f1, f2)

    def test_fill_validation(self, path64_eig):
        for bad in (0.0, -1.0, 1.5):
            with pytest.raises(ValidationError):
                gm.sample_ball(path64_eig, BALL, bad, seed=0)

    def test_signal_is_inverse_gft_of_coefficient_draw(self, path64_eig):
        w = gm.ellipsoid_weights(path64_eig, BALL)
        c = gm.sample_ball_coefficients(w, 0.7, seed=13)
        assert abs(np.sum(w.a**2 * c**2) - 0.7 * w.R) < 1e-12
        f = gm.sample_ball(path64_eig, BALL, 0.7, seed=13)
        assert np.array_equal(f, gm.gft_inverse(path64_eig, c))


def test_spec_validation():
    with pytest.raises(ValidationError):
        gm.SobolevSpec(beta=0.0, Q=1.0, r=1.0)
    with pytest.raises(ValidationError):
        gm.SobolevSpec(beta=1.0, Q=0.0, r=1.0)
    with pytest.raises(ValidationError):
        gm.SobolevSpec(beta=1.0, Q=1.0, r=0.5)


@settings(max_examples=300, deadline=None)
@given(Q=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
@example(Q=1e-160)  # Q^2 = 1e-320 is subnormal
@example(Q=1.4916681462400412e-154)  # the largest Q with a subnormal Q^2
@example(Q=1.4916681462400413e-154)  # the smallest Q with a normal Q^2
@example(Q=1.3407807929942596e154)  # the largest Q with a finite Q^2
@example(Q=1.3407807929942597e154)  # Q^2 overflows
def test_q_is_its_squared_radius_root(Q):
    # a spec is taken exactly when Q^2 is a normal float, and then sqrt(R) gives
    # back the Q that was passed, which the plan's refusals name
    normal = sys.float_info.min <= Q * Q < math.inf
    try:
        spec = gm.SobolevSpec(beta=1.0, Q=Q, r=1.0)
    except ValidationError as exc:
        assert not normal and str(exc).startswith(f"Q^2 for Q={Q} must be in [")
    else:
        assert normal
        assert math.sqrt(gm.ellipsoid_weights(PATH8, spec).R) == Q


@pytest.mark.parametrize("field", ["beta", "Q", "r"])
@pytest.mark.parametrize("bad", [float("inf"), float("nan")])
def test_spec_needs_finite_values(field, bad):
    values = {"beta": 1.0, "Q": 1.0, "r": 1.0, field: bad}
    with pytest.raises(ValidationError, match=rf"{field} must be in .*, inf\), got {bad}$"):
        gm.SobolevSpec(**values)


@pytest.mark.parametrize("bad", [-2, -1, 1.5, "3", True])
def test_coefficient_draw_needs_a_non_negative_integer_seed(bad):
    w = gm.ellipsoid_weights(gm.path_spectrum_closed_form(16), BALL)
    with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
        gm.sample_ball_coefficients(w, 1.0, bad)

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphminimax as gm
from graphminimax.errors import NumericError, ValidationError
from graphminimax import fano
from graphminimax.fano import (
    PackingSet, _alpha, _bump_amplitude, _kl_per_alternative, _vg_target,
)


BALL = gm.SobolevSpec(beta=1.0, Q=1.0, r=1.0)
PACKING_LIMIT = (
    r"packing dimension N must be in \[8, the greedy packing limit 8 log2\(4096\) = 96\], got "
)


def reference_packing(N, seed, target=None, attempt_factor=1000):
    """The greedy packing one candidate at a time, with int64 dot products."""
    d_min = math.ceil(N / 8)
    target = _vg_target(N) if target is None else target
    rng = np.random.default_rng(seed)
    thetas = np.empty((target, N), dtype=np.int64)
    M, min_h = 0, N
    for _ in range(attempt_factor * target):
        if M == target:
            break
        cand = rng.integers(0, 2, size=N, dtype=np.int64) * 2 - 1
        closest = int(((N - thetas[:M] @ cand) // 2).min(initial=N))
        if closest < d_min:
            continue
        min_h = min(min_h, closest)
        thetas[M] = cand
        M += 1
    return thetas[:M], M, min_h


def assert_same_packing(p, ref):
    thetas, M, min_h = ref
    assert (p.M, p.min_hamming) == (M, min_h)
    assert p.thetas.dtype == np.int64 and not p.thetas.flags.writeable
    assert p.thetas.tobytes() == thetas.tobytes()


def steep_link():
    """psi(t) = sigmoid(4t), a link whose KL constant is 16 times the sigmoid's."""
    sig = gm.sigmoid_link()
    return gm.LinkFunction(
        name="sigmoid(4t)",
        psi=lambda t: sig.psi(4.0 * np.asarray(t, dtype=float)),
        psi_inv=lambda p: sig.psi_inv(p) / 4.0,
        sup_dpsi=1.0,
        sup_ratio=4.0,
    )


def delta_cases():
    """The four beta = Q = 1 cases, then both links on each graph at its
    smallest and largest beta with N in [8, 96], and at Q = 0.3 and 2."""
    sigmoid, steep = gm.sigmoid_link(), steep_link()
    cases = [
        pytest.param(eig, r, 1.0, 1.0, link, id=f"{eig}-{r}-link{i}")
        for i, (eig, r, link) in enumerate(
            [("path2048_eig", 1.0, sigmoid), ("grid32_eig", 2.0, sigmoid),
             ("ws512_eig", 2.0, sigmoid), ("path2048_eig", 1.0, steep)]
        )
    ]
    betas = {"path2048_eig": (0.55, 1.0), "grid32_eig": (0.55, 2.0), "grid48_eig": (0.75, 2.0),
             "torus16_eig": (0.55, 1.5), "ws512_eig": (0.55, 2.0)}
    for eig, pair in betas.items():
        r = 1.0 if eig.startswith("path") else 2.0
        for beta in pair:
            for Q in (0.3, 2.0):
                for link in (sigmoid, steep):
                    case_id = f"{eig}-{beta}-{Q}-{link.name}"
                    cases.append(pytest.param(eig, r, beta, Q, link, id=case_id))
    return cases


DELTA_CASES = delta_cases()


def pairwise_disagreements(thetas):
    gram = thetas @ thetas.T
    return (thetas.shape[1] - gram) // 2


@pytest.fixture(scope="module")
def torus16_eig():
    return gm.eigendecompose(gm.build_torus([16, 16]))


@pytest.fixture(scope="module")
def ws512_eig():
    return gm.eigendecompose(gm.parse_graph_spec("ws:512,6,0.1,3"))


@pytest.fixture(scope="module")
def grid48_eig():
    return gm.eigendecompose(gm.build_grid([48, 48]))


def sobolev_cap(s, spec, N):
    """The largest delta with a^2 sum_{j<N} a_j^2 <= Q^2, from the closed-form weights."""
    head = np.sum(1.0 + (s.n ** (2.0 / spec.r) * s.lambdas[:N]) ** spec.beta)
    return spec.Q * N ** ((2.0 * spec.beta + spec.r) / (2.0 * spec.r)) / math.sqrt(head)


def quartic_remainder(values):
    """sum_i f(i)^4 / 64 per row: phi(t) >= t^2/8 - t^4/64 for the sigmoid, so the closed
    form sum_i f(i)^2 / 8 lies at most this far above the measured Bernoulli KL."""
    return np.sum(np.asarray(values) ** 4, axis=-1) / 64.0


def assert_closed_form_bounds(got, measured, remainder):
    """The closed-form Bernoulli KL bounds the measured sum from above, by at most remainder."""
    assert measured <= got <= measured + remainder


def assert_kl_budget_is_the_per_row_sum(s, ball, seed):
    """The certificate's KL budget against bernoulli_kl on each row of all M x n values.

    The values come from the explicit head; the budget's closed form bounds
    their sum from above, within the rows' quartic remainder.
    """
    link = gm.sigmoid_link()
    cert = gm.fano_certificate(s, ball, link, seed=seed)
    pack = gm.vg_packing(cert.N, cert.seed)
    values = _bump_amplitude(cert.delta, ball, cert.N) * pack.thetas @ gm.head_basis(s, cert.N).T
    base = link.psi(np.zeros(s.n))
    want = sum(gm.bernoulli_kl(link.psi(f), base) for f in values) / (pack.M + 1)
    remainder = quartic_remainder(values).sum() / (pack.M + 1)
    assert_closed_form_bounds(cert.kl_budget, want, remainder)
    return cert


def vertex_space_fields(s, ball, how, cert):
    """The certificate's fields recomputed from the hard_alternatives rows, and the kl_budget's
    quartic remainder (0 for regression, whose KL is exact)."""
    pack = gm.vg_packing(cert.N, cert.seed)
    alts = gm.hard_alternatives(s, ball, cert.delta, pack)
    gram = alts @ alts.T / s.n
    sq = np.diag(gram)
    dist2 = sq[:, None] + sq[None, :] - 2.0 * gram
    if how == "clf":
        link = gm.sigmoid_link()
        kls = [gm.bernoulli_kl(link.psi(f), link.psi(alts[0])) for f in alts[1:]]
        remainder = quartic_remainder(alts[1:]).sum() / (pack.M + 1)
    else:
        kls = [s.n * np.mean(f**2) / (2.0 * how**2) for f in alts[1:]]
        remainder = 0.0
    kl_budget = sum(kls) / (pack.M + 1)
    alpha = kl_budget / math.log(pack.M)
    fields = {
        "M": pack.M,
        "separation_min": math.sqrt(dist2[~np.eye(pack.M + 1, dtype=bool)].min()),
        "sobolev_max": max(gm.sobolev_form(s, ball, f) for f in alts),
        "kl_budget": kl_budget,
        "alpha": alpha,
        "fano_bound": (math.log(pack.M + 1) - math.log(2.0)) / math.log(pack.M) - alpha,
    }
    return fields, remainder


class TestVgPacking:
    def test_minimal_dimension(self):
        p = gm.vg_packing(8, seed=0)
        assert p.M >= 2
        assert p.min_hamming >= 1
        assert len({tuple(t) for t in p.thetas}) == p.M

    def test_n64_reaches_target(self):
        p = gm.vg_packing(64, seed=1)
        assert p.M == 256
        assert p.min_hamming >= 8

    def test_invariants_across_sizes(self):
        for N in (8, 16, 32, 64):
            p = gm.vg_packing(N, seed=2)
            assert p.M >= math.floor(2 ** (N / 8.0))
            d = pairwise_disagreements(p.thetas)
            off = d[~np.eye(p.M, dtype=bool)]
            assert off.min() >= math.ceil(N / 8)
            assert p.min_hamming == off.min()

    def test_deterministic(self):
        p1, p2 = gm.vg_packing(32, seed=5), gm.vg_packing(32, seed=5)
        assert np.array_equal(p1.thetas, p2.thetas)

    def test_rejects_small_dimension(self):
        with pytest.raises(ValidationError):
            gm.vg_packing(7, seed=0)

    @pytest.mark.parametrize("bad", [-1, 2.0, None, True])
    def test_rejects_a_seed_that_is_not_a_non_negative_integer(self, bad):
        with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
            gm.vg_packing(8, bad)

    def test_rejects_infeasible_target(self):
        with pytest.raises(ValidationError):
            gm.vg_packing(512, seed=0)

    def test_largest_allowed_target(self):
        p = gm.vg_packing(96, seed=1)
        assert p.M == 4096
        assert p.min_hamming >= 12

    def test_target_limit_is_named(self):
        with pytest.raises(ValidationError, match=PACKING_LIMIT + "97"):
            gm.vg_packing(97, seed=0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_one_candidate_at_a_time_loop(self, seed):
        for N in range(8, 97):
            assert_same_packing(gm.vg_packing(N, seed), reference_packing(N, seed))

    @pytest.mark.parametrize(
        "N, seeds",
        [(8, (3, 202, 333)), (9, (4, 69, 171)), (12, (5, 30, 237)), (16, (3, 4, 5)),
         (48, (3, 4, 5)), (96, (3,))],
    )
    def test_whole_blocks_and_the_scan_equal_the_greedy_loop(self, N, seeds):
        # at these targets a block almost always clears ceil(N/8) everywhere
        # and is taken whole; seeds 202, 333, 69, 171, 30 and 237 draw a
        # second candidate too close to the first, so their block is scanned
        for seed in seeds:
            assert_same_packing(gm.vg_packing(N, seed), reference_packing(N, seed))

    @pytest.mark.parametrize("block", [1, 7, 200])
    def test_block_size_does_not_change_the_packing(self, block, monkeypatch):
        monkeypatch.setattr(fano, "_PACKING_BLOCK", block)
        for N in (8, 13, 40, 64):
            assert_same_packing(gm.vg_packing(N, 4), reference_packing(N, 4))

    def test_attempt_limit_counts_candidates(self, monkeypatch):
        # 2^(N/8) vectors fit with room to spare, so the limit never binds at
        # the real target; 2^(N/2) vectors with one attempt each make it bind,
        # and the budget ends inside a block of candidates when it is below 64
        monkeypatch.setattr(fano, "_PACKING_ATTEMPT_FACTOR", 1)
        monkeypatch.setattr(fano, "_vg_target", lambda N: 2 ** (N // 2))
        short = 0
        for N in (8, 10, 12, 16):
            for seed in range(3):
                ref = reference_packing(N, seed, 2 ** (N // 2), attempt_factor=1)
                assert_same_packing(gm.vg_packing(N, seed), ref)
                short += ref[1] < 2 ** (N // 2)
        assert short > 0


class TestHardAlternatives:
    def test_coefficient_layout(self):
        s = gm.path_spectrum_closed_form(64)
        thetas = np.ones((1, 16), dtype=np.int64)
        pack = PackingSet(N=16, M=1, thetas=thetas, min_hamming=0)
        delta = 0.5
        alts = gm.hard_alternatives(s, BALL, delta, pack)
        assert alts.shape == (2, 64)
        assert np.max(np.abs(alts[0])) == 0.0
        coeffs = gm.gft_forward(s, alts[1])
        t = delta * 16 ** (-(2.0 + 1.0) / 2.0)
        assert np.max(np.abs(coeffs[:16] - t)) < 1e-12
        assert np.max(np.abs(coeffs[16:])) < 1e-12

    def test_pairwise_norm_identity(self):
        s = gm.path_spectrum_closed_form(256)
        pack = gm.vg_packing(16, seed=4)
        delta = 0.3
        alts = gm.hard_alternatives(s, BALL, delta, pack)
        scale = delta**2 * 16.0 ** (-(2.0 * BALL.beta + BALL.r) / BALL.r)
        d = pairwise_disagreements(pack.thetas)
        for i in range(pack.M):
            base = np.mean((alts[i + 1] - alts[0]) ** 2)
            assert abs(base - scale * 16.0) < 1e-10
            for j in range(i + 1, pack.M):
                got = np.mean((alts[i + 1] - alts[j + 1]) ** 2)
                assert abs(got - 4.0 * scale * d[i, j]) < 1e-10

    def test_sobolev_form_closed_expression(self):
        s = gm.path_spectrum_closed_form(256)
        pack = gm.vg_packing(16, seed=4)
        delta = 0.3
        alts = gm.hard_alternatives(s, BALL, delta, pack)
        head = np.sum(1.0 + 256.0 ** 2 * s.lambdas[:16])
        expected = delta**2 * 16.0 ** (-3.0) * head
        for f in alts[1:]:
            assert abs(gm.sobolev_form(s, BALL, f) - expected) < 1e-9 * expected

    def test_grows_the_packing_columns_only(self):
        # one block synthesis from the first N columns' factor; the
        # zero-padded construction through gft_inverse grows all 4096
        s = gm.path_spectrum_closed_form(4096)
        pack = gm.vg_packing(16, seed=4)
        alts = gm.hard_alternatives(s, BALL, 0.3, pack)
        assert s._factors.k == pack.N
        coeffs = np.zeros((pack.M + 1, s.n))
        coeffs[1:, : pack.N] = _bump_amplitude(0.3, BALL, pack.N) * pack.thetas
        padded = np.vstack([gm.gft_inverse(s, c) for c in coeffs])
        assert np.abs(alts - padded).max() <= 1e-14 * np.abs(padded).max()

    def test_packing_larger_than_graph(self):
        s = gm.path_spectrum_closed_form(8)
        pack = gm.vg_packing(16, seed=0)
        with pytest.raises(ValidationError):
            gm.hard_alternatives(s, BALL, 0.1, pack)


class TestCertificateDelta:
    @pytest.mark.parametrize("how", ["clf", 1.0])
    def test_closed_form_cap_when_kl_slack(self, how):
        # a tiny radius makes the smoothness condition the binding one
        s = gm.path_spectrum_closed_form(4096)
        spec = gm.SobolevSpec(beta=1.0, Q=0.05, r=1.0)
        N = 16
        head = np.sum(1.0 + 4096.0 ** 2 * s.lambdas[:N])
        delta_a = spec.Q * N ** 1.5 / math.sqrt(head)
        cert = gm.fano_certificate(s, spec, gm.sigmoid_link() if how == "clf" else how, seed=0)
        assert cert.N == N
        assert cert.delta == pytest.approx(delta_a * (1.0 - 1e-9), rel=1e-12)

    def test_returned_delta_satisfies_both_conditions(self):
        s = gm.path_spectrum_closed_form(4096)
        link = gm.sigmoid_link()
        for Q in (0.05, 1.0, 5.0):
            spec = gm.SobolevSpec(beta=1.0, Q=Q, r=1.0)
            cert = gm.fano_certificate(s, spec, link, seed=0)
            N, delta = cert.N, cert.delta
            head = np.sum(1.0 + 4096.0 ** 2 * s.lambdas[:N])
            assert delta**2 * N ** (-3.0) * head <= Q**2
            assert cert.sobolev_max <= Q**2 and cert.alpha <= 0.5
            # Fano's condition on the measured KL of the alternatives themselves
            alts = gm.hard_alternatives(s, spec, delta, gm.vg_packing(N, cert.seed))
            kls = [gm.bernoulli_kl(link.psi(f), np.full(4096, 0.5)) for f in alts[1:]]
            assert np.mean(kls) * cert.M / (cert.M + 1.0) / math.log(cert.M) <= cert.alpha

    @pytest.mark.parametrize(
        "eig, r, beta, Q",
        [("path2048_eig", 1.0, 1.0, 200.0), ("grid48_eig", 2.0, 1.0, 100.0),
         ("path2048_eig", 1.0, 0.6, 50.0)],
    )
    def test_a_cap_that_saturates_the_link_is_not_reached(self, eig, r, beta, Q, request):
        # at the Sobolev cap the sigmoid rounds to 1 at some vertex, which
        # bernoulli_kl rejects; the KL condition binds well below it
        s = request.getfixturevalue(eig)
        spec = gm.SobolevSpec(beta=beta, Q=Q, r=r)
        N = fano.packing_dimension(s.n, spec)
        link = gm.sigmoid_link()
        profile = np.abs(s.basis[:, :N]).sum(axis=1)  # bounds every |f_theta| / a
        cap = sobolev_cap(s, spec, N)
        assert link.psi(_bump_amplitude(cap, spec, N) * profile).max() == 1.0
        cert = gm.fano_certificate(s, spec, link, seed=0)
        assert cert.valid and cert.alpha <= 0.5 and cert.delta < cap

    @pytest.mark.parametrize("eig, r, beta, Q, link", DELTA_CASES)
    def test_delta_is_the_largest_within_both_conditions(self, eig, r, beta, Q, link, request):
        # delta = min(Sobolev cap, the delta with alpha = 1/2 at the packing's
        # actual M) * (1 - 1e-9), from the eigenvalues and kappa = c/2 alone
        s = request.getfixturevalue(eig)
        spec = gm.SobolevSpec(beta=beta, Q=Q, r=r)
        N = fano.packing_dimension(s.n, spec)
        m = gm.vg_packing(N, 3).M
        kl_per_delta_sq = 0.5 * link.kl_constant * s.n * N ** (-2.0 * beta / r)
        kl_delta = math.sqrt(0.5 * math.log(m) * (m + 1.0) / m / kl_per_delta_sq)
        want = min(sobolev_cap(s, spec, N), kl_delta) * (1.0 - 1e-9)
        cert = gm.fano_certificate(s, spec, link, seed=3)
        assert cert.valid and cert.M == m
        assert cert.delta == pytest.approx(want, rel=1e-12, abs=0.0)
        # both conditions hold, and the binding one is tight up to the (1 - 1e-9) margin
        assert cert.sobolev_max <= Q**2 and cert.alpha <= 0.5
        tight = max(cert.sobolev_max / Q**2, cert.alpha / 0.5)
        assert tight == pytest.approx((1.0 - 1e-9) ** 2, rel=1e-12, abs=0.0)
        # and the link certificate is the regression one at sigma = 1/sqrt(c)
        reg = gm.fano_certificate(s, spec, 1.0 / math.sqrt(link.kl_constant), seed=3)
        assert dataclasses.replace(cert, mode="regression") == reg

    def test_link_constant_that_is_not_a_supremum_is_rejected(self, path2048_eig):
        # sigmoid(4t) with sup_ratio 1 instead of 4 claims a KL constant of 1,
        # below the 16 / 2 t^2 its divergence grows like
        steep = steep_link()
        wrong = dataclasses.replace(steep, name="wrong constant", sup_ratio=1.0)
        with pytest.raises(NumericError, match="'wrong constant'"):
            gm.fano_certificate(path2048_eig, BALL, wrong, seed=3)

    @pytest.mark.parametrize("sup_ratio", [0.0, -1.0, math.nan, math.inf])
    def test_a_constant_that_is_not_positive_and_finite_is_a_validation_error(
        self, sup_ratio, path2048_eig
    ):
        # refused by the KL's range check, before the link check divides by c
        bad = dataclasses.replace(gm.sigmoid_link(), sup_ratio=sup_ratio)
        with pytest.raises(ValidationError, match="the KL at delta = 1 for link 'sigmoid'"):
            gm.fano_certificate(path2048_eig, BALL, bad, seed=3)

    def test_a_constant_that_fails_only_near_zero_is_rejected(self, path2048_eig):
        # phi(t) = t^2/8 - t^4/64 + O(t^6) for the sigmoid, so a claimed
        # constant of 0.2499 fails its bound only for |t| < 0.057: the link
        # check's grid must resolve that band, whatever amplitude a
        # certificate reaches
        low = dataclasses.replace(gm.sigmoid_link(), name="just below", sup_dpsi=0.2499)
        t = np.linspace(-0.2, 0.2, 4001)
        phi = fano._bernoulli_kl_terms(low.psi(t), np.full(t.shape, 0.5))
        fails = np.abs(t[phi > 0.5 * low.kl_constant * t * t])
        assert 0.056 < fails.max() < 0.057
        with pytest.raises(NumericError, match="'just below'"):
            gm.fano_certificate(path2048_eig, BALL, low, seed=3)

    @pytest.mark.parametrize("a, b", [(1.0, 0.0), (0.25, 0.0), (30.0, 1.0), (1.0, 2.0), (0.5, -5.0)])
    def test_true_constants_pass_the_link_check(self, a, b, path2048_eig):
        # psi(t) = sigmoid(a t + b): the Bernoulli KL is the Bregman divergence
        # of log(1 + e^x), whose curvature is at most 1/4, so c = a^2 / 4 holds
        # for every shift b, and T stretches with max(-log q, -log(1 - q))
        sig = gm.sigmoid_link()
        link = gm.LinkFunction(
            name=f"sigmoid({a} t + {b})",
            psi=lambda t: sig.psi(a * np.asarray(t, dtype=float) + b),
            psi_inv=lambda p: (sig.psi_inv(p) - b) / a,
            sup_dpsi=a / 4.0,
            sup_ratio=a,
        )
        assert fano._check_kl_constant(link) is None
        cert = gm.fano_certificate(path2048_eig, BALL, link, seed=3)
        reg = gm.fano_certificate(path2048_eig, BALL, 1.0 / math.sqrt(link.kl_constant), seed=3)
        assert dataclasses.replace(cert, mode="regression") == reg

    def test_a_link_that_saturates_at_zero_is_a_validation_error(self, path2048_eig):
        # psi(0) = 1 leaves no Bernoulli KL to bound: the link check refuses it
        # before it takes log(min(q, 1 - q))
        flat = dataclasses.replace(gm.sigmoid_link(), name="flat", psi=lambda t: np.ones(np.shape(t)))
        with pytest.raises(ValidationError, match="strictly inside"):
            gm.fano_certificate(path2048_eig, BALL, flat, seed=3)


class TestBernoulliKl:
    def test_identical_inputs_give_zero(self):
        rho = np.array([0.2, 0.5, 0.9])
        assert gm.bernoulli_kl(rho, rho) == 0.0

    def test_scalar_value(self):
        got = gm.bernoulli_kl(np.array([0.5]), np.array([0.25]))
        expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        assert abs(got - expected) < 1e-15
        assert abs(got - 0.143841) < 1e-6

    def test_nonnegative_and_pinsker_inequality(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            r1 = rng.uniform(0.02, 0.98, 50)
            r2 = rng.uniform(0.02, 0.98, 50)
            kl = gm.bernoulli_kl(r1, r2)
            assert kl >= 0.0
            assert kl >= 2.0 * np.sum((r1 - r2) ** 2) - 1e-12

    def test_domain_errors(self):
        with pytest.raises(ValidationError):
            gm.bernoulli_kl(np.array([0.0, 0.5]), np.array([0.5, 0.5]))
        with pytest.raises(ValidationError):
            gm.bernoulli_kl(np.array([0.5]), np.array([1.0]))
        with pytest.raises(ValidationError):
            gm.bernoulli_kl(np.array([0.5, 0.5]), np.array([0.5]))

    @pytest.mark.parametrize("case", ["random", "edges"])
    def test_is_the_in_place_sequence_bit_for_bit(self, case):
        # the plain formula against the two terms formed in place, in the
        # order bernoulli_kl once wrote out
        rng = np.random.default_rng(31)
        if case == "random":
            r1, r2 = rng.uniform(0.001, 0.999, (2, 4096))
        else:
            tiny = np.array([1e-300, 1e-200, 1e-17, 1e-9, 0.5, 1 - 1e-9, 1 - 2**-53])
            r1, r2 = (a.ravel() for a in np.meshgrid(tiny, tiny))
        terms = r1 / r2
        np.log(terms, out=terms)
        terms *= r1
        rest = 1.0 - r1
        ratio = rest / (1.0 - r2)
        np.log(ratio, out=ratio)
        ratio *= rest
        terms += ratio
        want = float(np.sum(terms))
        got = gm.bernoulli_kl(r1, r2)
        assert math.isfinite(want) and got.hex() == want.hex()

    def test_nan_is_a_domain_error(self):
        with pytest.raises(ValidationError, match="strictly inside"):
            gm.bernoulli_kl(np.array([np.nan, 0.3]), np.array([0.5, 0.5]))
        with pytest.raises(ValidationError, match="strictly inside"):
            gm.bernoulli_kl(np.array([0.5, 0.3]), np.array([0.5, np.nan]))

    @pytest.mark.parametrize("case", ["random", "edges"])
    def test_is_the_sum_of_its_per_coordinate_terms(self, case):
        # each term is the KL of its own coordinate, and bernoulli_kl is
        # their np.sum, bit for bit
        rng = np.random.default_rng(32)
        if case == "random":
            r1, r2 = rng.uniform(0.001, 0.999, (2, 1024))
        else:
            tiny = np.array([1e-300, 1e-200, 1e-17, 1e-9, 0.5, 1 - 1e-9, 1 - 2**-53])
            r1, r2 = (a.ravel() for a in np.meshgrid(tiny, tiny))
        terms = fano._bernoulli_kl_terms(r1, r2)
        assert terms.shape == r1.shape
        for i in range(0, len(r1), 7):
            assert terms[i] == gm.bernoulli_kl(r1[i : i + 1], r2[i : i + 1])
        assert gm.bernoulli_kl(r1, r2).hex() == float(np.sum(terms)).hex()

    def test_terms_keep_the_domain_checks(self):
        with pytest.raises(ValidationError, match="different lengths"):
            fano._bernoulli_kl_terms(np.array([0.5, 0.5]), np.array([0.5]))
        with pytest.raises(ValidationError, match="strictly inside"):
            fano._bernoulli_kl_terms(np.array([0.5]), np.array([np.nan]))

    def test_certificate_kernel_rejects_nan(self):
        # a link that is undefined away from 0 reaches the kernel's own check
        link = gm.LinkFunction(
            name="broken",
            psi=lambda t: np.where(np.asarray(t) == 0.0, 0.5, np.nan),
            psi_inv=lambda p: p,
            sup_dpsi=1.0,
            sup_ratio=1.0,
        )
        s = gm.path_spectrum_closed_form(512)
        with pytest.raises(ValidationError, match="strictly inside"):
            gm.fano_certificate(s, BALL, link, seed=0)


@settings(max_examples=60, deadline=None)
@given(t=st.floats(min_value=-8.0, max_value=8.0, allow_nan=False))
def test_divergence_grows_at_most_quadratically(t):
    # phi(t) = KL(Bern(psi(t)) || Bern(psi(0))) <= c t^2 / 2; the slack covers
    # the rounding of the two O(|t|) terms whose difference phi is
    for link in (gm.sigmoid_link(), steep_link()):
        phi = gm.bernoulli_kl(link.psi(np.array([t])), link.psi(np.zeros(1)))
        assert phi <= 0.5 * link.kl_constant * t * t + 1e-15


@pytest.mark.parametrize(
    "graph, r", [("path:512", 1.0), ("grid:24x24", 2.0), ("ws:512,6,0.1,3", 1.0)]
)
def test_closed_form_bounds_every_alternatives_vertex_sum(graph, r):
    s = gm.eigendecompose(gm.parse_graph_spec(graph))
    ball = gm.SobolevSpec(beta=1.0, Q=1.0, r=r)
    link = gm.sigmoid_link()
    cert = gm.fano_certificate(s, ball, link, seed=3)
    alts = gm.hard_alternatives(s, ball, cert.delta, gm.vg_packing(cert.N, cert.seed))
    closed = cert.kl_budget * (cert.M + 1) / cert.M
    for f in alts[1:]:
        measured = gm.bernoulli_kl(link.psi(f), link.psi(alts[0]))
        assert_closed_form_bounds(closed, measured, quartic_remainder(f))


class TestKlLinkBound:
    def test_equal_signals(self):
        link = gm.sigmoid_link()
        v = np.linspace(-2, 2, 30)
        kl, bound, holds = gm.kl_link_bound_check(v, v, link)
        assert kl == 0.0 and bound == 0.0 and holds

    def test_random_pairs_never_violate(self):
        link = gm.sigmoid_link()
        rng = np.random.default_rng(13)
        for _ in range(200):
            v1 = rng.standard_normal(100)
            v2 = rng.standard_normal(100)
            kl, bound, holds = gm.kl_link_bound_check(v1, v2, link)
            assert holds and kl <= bound + 1e-12

    def test_small_shift_ratio(self):
        # second-order expansion gives kl ~ n t^2 / 8, i.e. half the bound
        link = gm.sigmoid_link()
        for t in (1e-2, 1e-3):
            kl, bound, holds = gm.kl_link_bound_check(np.zeros(100), np.full(100, t), link)
            assert holds
            assert abs(kl / bound - 0.5) < 1e-3


class TestFanoCertificate:
    def test_classification_certificate(self):
        s = gm.path_spectrum_closed_form(2048)
        cert = gm.fano_certificate(s, BALL, gm.sigmoid_link(), seed=3)
        assert cert.valid
        assert cert.mode == "classification"
        assert cert.N == 13 and cert.M >= 3
        assert cert.alpha <= 0.5
        # on the risk scale the bound is 3.6 times the 1.5407e-4 that a delta
        # searched for on the worst-case vertex KL gave
        assert cert.separation_min**2 * cert.fano_bound >= 3.5 * 1.5407e-4
        assert cert.sobolev_max <= BALL.Q**2
        # separation is bounded below by the norm identity at the minimum
        # disagreement of the packing
        floor = 2.0 * cert.delta * cert.N ** (-1.5) * math.sqrt(math.ceil(cert.N / 8))
        pack = gm.vg_packing(cert.N, cert.seed)
        assert pack.M == cert.M
        base_floor = cert.delta * cert.N ** (-1.0)
        assert cert.separation_min >= min(floor, base_floor) - 1e-12

    def test_calibrates_with_the_certificates_link(self):
        # psi(t) = sigmoid(4t) has 16 times the sigmoid's KL constant, so at the
        # sigmoid's delta its KL bound gives alpha far above the 1/2 target;
        # the certificate calibrates delta on the link's own constant
        s = gm.path_spectrum_closed_form(2048)
        sigmoid = gm.fano_certificate(s, BALL, gm.sigmoid_link(), seed=3)
        cert = gm.fano_certificate(s, BALL, steep_link(), seed=3)
        assert cert.valid and cert.alpha <= 0.5
        assert cert.delta < sigmoid.delta
        kappa = 0.5 * steep_link().kl_constant
        assert _alpha(_kl_per_alternative(kappa, s.n, BALL, cert.N, sigmoid.delta), cert.M) > 0.5

    @pytest.mark.parametrize(
        "eig, r",
        [("path2048_eig", 1.0), ("grid48_eig", 2.0), ("torus16_eig", 2.0), ("ws512_eig", 2.0)],
    )
    @pytest.mark.parametrize("link, sigma", [(gm.sigmoid_link(), 2.0), (steep_link(), 0.5)])
    def test_link_certificate_is_the_regression_certificate_at_sigma_one_over_sqrt_c(
        self, eig, r, link, sigma, request
    ):
        # kappa = c/2 for the link and 1/(2 sigma^2) for the noise coincide, and
        # both modes take delta and every field from kappa by one rule
        s = request.getfixturevalue(eig)
        ball = gm.SobolevSpec(beta=1.0, Q=1.0, r=r)
        assert 0.5 * link.kl_constant == 0.5 / sigma**2
        cert = gm.fano_certificate(s, ball, link, seed=3)
        reg = gm.fano_certificate(s, ball, sigma, seed=3)
        assert cert.mode == "classification" and cert.valid and cert.alpha <= 0.5
        assert dataclasses.replace(cert, mode="regression") == reg

    def test_separation_has_the_minimax_slope(self):
        # ||f_theta - f_theta'||_n^2 at the closest pair, fitted over path
        # 512...16384, against -2 beta / (2 beta + r) = -2/3
        ns = [512 * 2**k for k in range(6)]
        seps = [
            gm.fano_certificate(gm.eigendecompose(gm.build_path(n)), BALL, gm.sigmoid_link(), 3)
            for n in ns
        ]
        slope = gm.fit_rate(ns, [c.separation_min**2 for c in seps])[0]
        assert abs(slope + 2.0 / 3.0) <= 0.05

    def test_regression_certificate(self):
        s = gm.path_spectrum_closed_form(2048)
        cert = gm.fano_certificate(s, BALL, 1.0, seed=3)
        assert cert.valid and cert.mode == "regression"
        assert cert.alpha <= 0.5
        assert cert.fano_bound > 0.0

    def test_revalidates_from_recorded_seed(self):
        s = gm.path_spectrum_closed_form(1024)
        c1 = gm.fano_certificate(s, BALL, gm.sigmoid_link(), seed=21)
        c2 = gm.fano_certificate(s, BALL, gm.sigmoid_link(), seed=c1.seed)
        assert c1 == c2

    def test_too_small_graph(self):
        s = gm.path_spectrum_closed_form(16)
        with pytest.raises(ValidationError, match=PACKING_LIMIT + "3"):
            gm.fano_certificate(s, BALL, gm.sigmoid_link(), seed=0)

    @pytest.mark.parametrize("how", ["clf", 1.0])
    def test_refuses_a_packing_above_the_limit_before_growing_factors(self, how):
        # grid 512x512 at beta = 1 needs N = 512; both modes refuse it before
        # any per-axis factor is grown
        s = gm.eigendecompose(gm.build_grid([512, 512]))
        ball = gm.SobolevSpec(beta=1.0, Q=1.0, r=2.0)
        with pytest.raises(ValidationError, match=PACKING_LIMIT + "512"):
            gm.fano_certificate(s, ball, gm.sigmoid_link() if how == "clf" else how, seed=0)
        assert s._factors is None

    def test_rejects_bad_sigma(self):
        s = gm.path_spectrum_closed_form(1024)
        for bad in (0.0, math.inf, math.nan):
            with pytest.raises(ValidationError, match=r"sigma must be in \(0, inf\), got "):
                gm.fano_certificate(s, BALL, bad, seed=0)

    def test_rejects_a_negative_seed_before_packing(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("packed before checking the seed")

        monkeypatch.setattr(fano, "vg_packing", refuse)
        s = gm.path_spectrum_closed_form(1024)
        with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
            gm.fano_certificate(s, BALL, gm.sigmoid_link(), seed=-1)

    @pytest.mark.parametrize("how", ["clf", 1.0])
    @pytest.mark.parametrize(
        "eig, r",
        [("path2048_eig", 1.0), ("grid32_eig", 2.0), ("torus16_eig", 2.0), ("ws512_eig", 2.0)],
    )
    def test_fields_match_vertex_space_oracle(self, eig, r, how, request):
        s = request.getfixturevalue(eig)
        ball = gm.SobolevSpec(beta=1.0, Q=1.0, r=r)
        link_or_sigma = gm.sigmoid_link() if how == "clf" else how
        cert = gm.fano_certificate(s, ball, link_or_sigma, seed=3)
        assert cert.valid
        want_fields, remainder = vertex_space_fields(s, ball, how, cert)
        alpha_remainder = remainder / math.log(cert.M)
        for name, want in want_fields.items():
            got = getattr(cert, name)
            if how == "clf" and name == "kl_budget":
                assert_closed_form_bounds(got, want, remainder)
            elif how == "clf" and name == "alpha":
                assert_closed_form_bounds(got, want, alpha_remainder)
            elif how == "clf" and name == "fano_bound":
                assert want - alpha_remainder <= got <= want
            else:
                assert got == pytest.approx(want, rel=1e-12, abs=0.0), name

    @pytest.mark.parametrize(
        "eig, r",
        [("path2048_eig", 1.0), ("grid32_eig", 2.0), ("ws512_eig", 2.0), ("grid48_eig", 2.0)],
    )
    def test_kl_budget_is_the_per_row_sum(self, eig, r, request):
        # the closed-form budget bounds what bernoulli_kl gives per row of the
        # whole M x n value matrix of the explicit head, within its quartic remainder
        s = request.getfixturevalue(eig)
        assert_kl_budget_is_the_per_row_sum(s, gm.SobolevSpec(beta=1.0, Q=1.0, r=r), 3)

    @pytest.mark.parametrize("n, M", [(16384, 9), (20001, 11)])
    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_kl_budget_is_the_per_row_sum_above_the_old_cap(self, n, M, seed):
        # paths above the dense cap of 8192 vertices, whose full basis is never formed
        s = gm.eigendecompose(gm.build_path(n))
        cert = assert_kl_budget_is_the_per_row_sum(s, BALL, seed)
        assert cert.M == M and cert.valid

    def test_classification_memory_stays_below_the_value_matrix(self):
        # grid 64^2: M x n values would be 256 x 4096 doubles = 8 MiB; the
        # certificate reads the eigenvalues alone and holds at most 1.5 MiB
        s = gm.eigenvalues(gm.build_grid([64, 64]))
        ball = gm.SobolevSpec(beta=1.0, Q=1.0, r=2.0)
        gm.vg_packing(8, seed=0)  # its first call imports numpy.random
        tracemalloc.start()
        try:
            cert = gm.fano_certificate(s, ball, gm.sigmoid_link(), seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cert.valid and cert.N == 64 and cert.M == 256
        assert peak <= 1.5 * 2**20

    def test_non_orthonormal_basis_rejected(self, monkeypatch):
        # Parseval's premise is checked where an explicit basis is made: eigh
        # vectors scaled by 1 + 1e-8 keep their residual within 1e-8 but
        # their Gram matrix is 2e-8 off the identity
        eigh = np.linalg.eigh

        def scaled(a):
            lams, vecs = eigh(a)
            return lams, vecs * (1.0 + 1e-8)

        monkeypatch.setattr(np.linalg, "eigh", scaled)
        with pytest.raises(NumericError, match="not orthonormal"):
            gm.eigendecompose(gm.build_small_world(128, 4, 0.1, seed=1))

    @pytest.mark.parametrize(
        "eig, graph, r",
        [
            ("path2048_eig", "path:2048", 1.0),
            ("grid32_eig", "grid:32x32", 2.0),
            ("torus16_eig", "torus:16x16", 2.0),
        ],
    )
    def test_certificates_need_eigenvalues_only(self, eig, graph, r, request):
        s = request.getfixturevalue(eig)
        ball = gm.SobolevSpec(beta=1.0, Q=1.0, r=r)
        for how in (1.0, 0.3, gm.sigmoid_link()):
            full = gm.fano_certificate(s, ball, how, seed=3)
            no_basis = gm.fano_certificate(dataclasses.replace(s, basis=None), ball, how, seed=3)
            assert no_basis == full
            # eigenvalues() is the exact closed form, while eigh rounds the small
            # eigenvalues by about 1e-15 absolute: agreement to 1e-10, not bitwise
            closed = gm.fano_certificate(gm.eigenvalues(gm.parse_graph_spec(graph)), ball, how, 3)
            for name in ("delta", "separation_min", "sobolev_max", "kl_budget", "alpha"):
                want = getattr(full, name)
                assert getattr(closed, name) == pytest.approx(want, rel=1e-10, abs=0.0), name
            assert (closed.M, closed.valid) == (full.M, full.valid)


class TestWorstCasePrior:
    def _setup(self, n=512):
        s = gm.path_spectrum_closed_form(n)
        w = gm.ellipsoid_weights(s, BALL)
        return w, gm.pinsker_plan(w, 1.0, n)

    def test_expected_ellipsoid_form(self):
        w, plan = self._setup()
        delta_p = 0.1
        forms = np.empty(10000)
        for i in range(10000):
            c = gm.worst_case_prior_sample(plan, w, delta_p, seed=1000 + i)
            forms[i] = np.sum(w.a**2 * c**2)
        target = (1.0 - delta_p) * w.R
        assert abs(forms.mean() - target) < 0.02 * target

    def test_delta_near_one_kills_draws(self):
        w, plan = self._setup()
        c = gm.worst_case_prior_sample(plan, w, 1.0 - 1e-12, seed=0)
        assert np.max(np.abs(c)) < 1e-5

    def test_bayes_risk_band(self):
        w, plan = self._setup()
        delta_p = 0.1
        risks = np.empty(5000)
        for i in range(5000):
            c = gm.worst_case_prior_sample(plan, w, delta_p, seed=50_000 + i)
            risks[i] = gm.linear_risk(plan.l, c, plan.epsilon)
        bayes = risks.mean()
        assert (1.0 - delta_p) * plan.S * 0.8 <= bayes <= plan.S * 1.05

    def test_support_matches_plan(self):
        w, plan = self._setup(128)
        c = gm.worst_case_prior_sample(plan, w, 0.2, seed=4)
        assert np.all(c[plan.N:] == 0.0)

    def test_deterministic(self):
        w, plan = self._setup(128)
        c1 = gm.worst_case_prior_sample(plan, w, 0.2, seed=9)
        c2 = gm.worst_case_prior_sample(plan, w, 0.2, seed=9)
        assert np.array_equal(c1, c2)

    def test_delta_validation(self):
        w, plan = self._setup(128)
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValidationError):
                gm.worst_case_prior_sample(plan, w, bad, seed=0)

    def test_rejects_a_plan_of_another_length(self):
        w64, plan64 = self._setup(64)
        w128, plan128 = self._setup(128)
        with pytest.raises(ValidationError, match="plan has 64 weights for 128 ellipsoid"):
            gm.worst_case_prior_sample(plan64, w128, 0.2, seed=0)
        with pytest.raises(ValidationError, match="plan has 128 weights for 64 ellipsoid"):
            gm.worst_case_prior_sample(plan128, w64, 0.2, seed=0)

    def test_seed_validation(self):
        w, plan = self._setup(128)
        for bad in (-3, True):
            with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
                gm.worst_case_prior_sample(plan, w, 0.2, seed=bad)


def test_certificate_csv_round_trip():
    s = gm.path_spectrum_closed_form(1024)
    cert = gm.fano_certificate(s, BALL, gm.sigmoid_link(), seed=3)
    text = gm.certificate_csv_text(cert)
    header, row = text.strip().split("\n")
    assert header == (
        "n,beta,r,Q,N,M,delta,separation_min,sobolev_max,kl_budget,alpha,fano_bound,valid,seed"
    )
    fields = row.split(",")
    assert fields[0] == "1024"
    assert fields[12] == "true"
    assert int(fields[13]) == 3
    assert float(fields[6]) == pytest.approx(cert.delta, rel=1e-11)

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import graphminimax as gm
from graphminimax.errors import NumericError, ValidationError
from graphminimax import fano
from graphminimax.fano import PackingSet, _bump_amplitude, _sobolev_delta_cap, _vg_target


BALL = gm.SobolevSpec(beta=1.0, Q=1.0, r=1.0)


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


def reference_calibrate(s, spec, N, link):
    """100 bisection steps, recomputing the base measure at every step."""
    profile = np.abs(s.basis[:, :N]).sum(axis=1)
    m = _vg_target(N)

    def alpha_bound(delta):
        amps = _bump_amplitude(delta, spec, N) * profile
        worst = gm.bernoulli_kl(link.psi(amps), link.psi(np.zeros(s.n)))
        return (m / (m + 1.0)) * worst / math.log(m)

    delta_a = _sobolev_delta_cap(s, spec, N) * (1.0 - 1e-9)
    if alpha_bound(delta_a) <= 0.5:
        return delta_a
    lo, hi = 0.0, delta_a
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if alpha_bound(mid) <= 0.5:
            lo = mid
        else:
            hi = mid
    return lo


def steep_link():
    """psi(t) = sigmoid(4t), a link whose KL constant is 16 times the sigmoid's."""
    sig = gm.sigmoid_link()
    return gm.LinkFunction(
        name="sigmoid(4t)",
        psi=lambda t: sig.psi(4.0 * np.asarray(t, dtype=float)),
        psi_inv=lambda p: sig.psi_inv(p) / 4.0,
        dpsi=lambda t: 4.0 * sig.dpsi(4.0 * np.asarray(t, dtype=float)),
        sup_dpsi=1.0,
        sup_ratio=4.0,
    )


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


def vertex_space_fields(s, ball, how, cert):
    """The certificate's fields recomputed from the hard_alternatives rows."""
    pack = gm.vg_packing(cert.N, cert.seed)
    alts = gm.hard_alternatives(s, ball, cert.delta, pack)
    gram = alts @ alts.T / s.n
    sq = np.diag(gram)
    dist2 = sq[:, None] + sq[None, :] - 2.0 * gram
    if how == "clf":
        link = gm.sigmoid_link()
        kls = [gm.bernoulli_kl(link.psi(f), link.psi(alts[0])) for f in alts[1:]]
    else:
        kls = [s.n * np.mean(f**2) / (2.0 * how**2) for f in alts[1:]]
    kl_budget = sum(kls) / (pack.M + 1)
    alpha = kl_budget / math.log(pack.M)
    return {
        "M": pack.M,
        "separation_min": math.sqrt(dist2[~np.eye(pack.M + 1, dtype=bool)].min()),
        "sobolev_max": max(gm.sobolev_form(s, ball, f) for f in alts),
        "kl_budget": kl_budget,
        "alpha": alpha,
        "fano_bound": (math.log(pack.M + 1) - math.log(2.0)) / math.log(pack.M) - alpha,
    }


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

    def test_rejects_infeasible_target(self):
        with pytest.raises(ValidationError):
            gm.vg_packing(512, seed=0)

    def test_largest_allowed_target(self):
        p = gm.vg_packing(96, seed=1)
        assert p.M == 4096
        assert p.min_hamming >= 12

    def test_target_limit_is_named(self):
        with pytest.raises(ValidationError, match=r"N=97 exceeds the greedy packing limit 4096"):
            gm.vg_packing(97, seed=0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_one_candidate_at_a_time_loop(self, seed):
        for N in range(8, 97):
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

    def test_packing_larger_than_graph(self):
        s = gm.path_spectrum_closed_form(8)
        pack = gm.vg_packing(16, seed=0)
        with pytest.raises(ValidationError):
            gm.hard_alternatives(s, BALL, 0.1, pack)


class TestCalibrateDelta:
    def test_closed_form_cap_when_kl_slack(self):
        # a tiny radius makes the smoothness condition the binding one
        s = gm.path_spectrum_closed_form(4096)
        spec = gm.SobolevSpec(beta=1.0, Q=0.05, r=1.0)
        N = 16
        head = np.sum(1.0 + 4096.0 ** 2 * s.lambdas[:N])
        delta_a = spec.Q * N ** 1.5 / math.sqrt(head)
        got = gm.calibrate_delta(s, spec, N)
        assert got == pytest.approx(delta_a * (1.0 - 1e-9), rel=1e-12)

    def test_returned_delta_satisfies_both_conditions(self):
        s = gm.path_spectrum_closed_form(4096)
        for Q in (0.05, 1.0, 5.0):
            spec = gm.SobolevSpec(beta=1.0, Q=Q, r=1.0)
            N = 16
            delta = gm.calibrate_delta(s, spec, N)
            head = np.sum(1.0 + 4096.0 ** 2 * s.lambdas[:N])
            assert delta**2 * N ** (-3.0) * head <= Q**2
            link = gm.sigmoid_link()
            amps = delta * N ** (-1.5) * np.abs(s.basis[:, :N]).sum(axis=1)
            worst = gm.bernoulli_kl(link.psi(amps), np.full(4096, 0.5))
            m = _vg_target(N)
            assert (m / (m + 1.0)) * worst / math.log(m) <= 0.5 + 1e-9

    @pytest.mark.parametrize(
        "eig, r, link",
        [
            ("path2048_eig", 1.0, gm.sigmoid_link()),
            ("grid32_eig", 2.0, gm.sigmoid_link()),
            ("ws512_eig", 2.0, gm.sigmoid_link()),
            ("path2048_eig", 1.0, steep_link()),
        ],
    )
    def test_equals_hundred_step_bisection(self, eig, r, link, request):
        s = request.getfixturevalue(eig)
        spec = gm.SobolevSpec(beta=1.0, Q=1.0, r=r)
        N = fano.packing_dimension(s.n, spec)
        want = reference_calibrate(s, spec, N, link)
        # the KL condition binds, so the bisection really ran
        assert want < _sobolev_delta_cap(s, spec, N) * (1.0 - 1e-9)
        assert gm.calibrate_delta(s, spec, N, link) == want

    @pytest.mark.parametrize("eig, r", [("path2048_eig", 1.0), ("grid48_eig", 2.0)])
    def test_bisection_stops_at_its_fixed_point(self, eig, r, request, monkeypatch):
        s = request.getfixturevalue(eig)
        spec = gm.SobolevSpec(beta=1.0, Q=1.0, r=r)
        N = fano.packing_dimension(s.n, spec)
        calls = []
        bound = fano._classification_alpha_bound
        monkeypatch.setattr(
            fano, "_classification_alpha_bound", lambda *a: calls.append(a) or bound(*a)
        )
        gm.calibrate_delta(s, spec, N)
        assert 40 <= len(calls) <= 60


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

    def test_nan_is_a_domain_error(self):
        with pytest.raises(ValidationError, match="strictly inside"):
            gm.bernoulli_kl(np.array([np.nan, 0.3]), np.array([0.5, 0.5]))
        with pytest.raises(ValidationError, match="strictly inside"):
            gm.bernoulli_kl(np.array([0.5, 0.3]), np.array([0.5, np.nan]))

    def test_certificate_kernel_rejects_nan(self):
        # a link that is undefined away from 0 reaches the kernel's own check
        link = gm.LinkFunction(
            name="broken",
            psi=lambda t: np.where(np.asarray(t) == 0.0, 0.5, np.nan),
            psi_inv=lambda p: p,
            dpsi=lambda t: t,
            sup_dpsi=1.0,
            sup_ratio=1.0,
        )
        head = gm.path_spectrum_closed_form(64).basis[:, :8]
        thetas = gm.vg_packing(8, seed=0).thetas
        with pytest.raises(ValidationError, match="strictly inside"):
            fano._classification_kl(head, thetas, 0.1, link)


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
        assert cert.fano_bound >= 0.4
        assert cert.sobolev_max <= BALL.Q**2
        # separation is bounded below by the norm identity at the minimum
        # disagreement of the packing
        floor = 2.0 * cert.delta * cert.N ** (-1.5) * math.sqrt(math.ceil(cert.N / 8))
        pack = gm.vg_packing(cert.N, cert.seed)
        assert pack.M == cert.M
        base_floor = cert.delta * cert.N ** (-1.0)
        assert cert.separation_min >= min(floor, base_floor) - 1e-12

    def test_calibrates_with_the_certificates_link(self):
        # psi(t) = sigmoid(4t) leaves the KL bound at a sigmoid-calibrated
        # delta far above the 1/2 target (alpha 0.735 when calibrated with the
        # sigmoid); calibrating with the link itself keeps alpha <= 1/2
        sig = gm.sigmoid_link()
        steep = steep_link()
        s = gm.path_spectrum_closed_form(2048)
        cert = gm.fano_certificate(s, BALL, steep, seed=3)
        assert cert.valid and cert.alpha <= 0.5
        sigmoid_delta = gm.calibrate_delta(s, BALL, cert.N)
        assert cert.delta == gm.calibrate_delta(s, BALL, cert.N, steep) < sigmoid_delta
        assert gm.calibrate_delta(s, BALL, cert.N, sig) == sigmoid_delta

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
        with pytest.raises(ValidationError, match="n too small for packing"):
            gm.fano_certificate(s, BALL, gm.sigmoid_link(), seed=0)

    def test_rejects_bad_sigma(self):
        s = gm.path_spectrum_closed_form(1024)
        with pytest.raises(ValidationError):
            gm.fano_certificate(s, BALL, 0.0, seed=0)

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
        for name, want in vertex_space_fields(s, ball, how, cert).items():
            assert getattr(cert, name) == pytest.approx(want, rel=1e-12, abs=0.0), name

    @pytest.mark.parametrize("rows", [None, 3, 5])
    @pytest.mark.parametrize(
        "eig, r",
        [("path2048_eig", 1.0), ("grid32_eig", 2.0), ("ws512_eig", 2.0), ("grid48_eig", 2.0)],
    )
    def test_kl_budget_is_the_per_row_sum(self, eig, r, rows, request, monkeypatch):
        # the row-blocked kernel adds exactly what bernoulli_kl gives per row
        # of the whole M x n value matrix, at the default block (14 rows of 64
        # on grid 48^2) and at blocks of at most 3 or 5 rows
        s = request.getfixturevalue(eig)
        if rows is not None:
            monkeypatch.setattr(fano, "_KL_BLOCK_VALUES", rows * s.n)
        ball = gm.SobolevSpec(beta=1.0, Q=1.0, r=r)
        link = gm.sigmoid_link()
        cert = gm.fano_certificate(s, ball, link, seed=3)
        pack = gm.vg_packing(cert.N, cert.seed)
        values = _bump_amplitude(cert.delta, ball, cert.N) * pack.thetas @ s.basis[:, : cert.N].T
        base = link.psi(np.zeros(s.n))
        kls = sum(gm.bernoulli_kl(link.psi(f), base) for f in values)
        assert cert.kl_budget == kls / (pack.M + 1)

    def test_classification_memory_stays_below_the_value_matrix(self):
        # grid 64^2: M x n values would be 256 x 4096 doubles = 8 MiB; the
        # n x N head profile of the calibration is 2 MiB
        s = gm.eigendecompose(gm.build_grid([64, 64]))
        ball = gm.SobolevSpec(beta=1.0, Q=1.0, r=2.0)
        tracemalloc.start()
        try:
            cert = gm.fano_certificate(s, ball, gm.sigmoid_link(), seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cert.valid and cert.M == 256
        assert peak < 4 * 2**20

    def test_non_orthonormal_basis_rejected(self, path2048_eig):
        bad = dataclasses.replace(path2048_eig, basis=path2048_eig.basis * (1.0 + 1e-8))
        with pytest.raises(NumericError, match="not orthonormal"):
            gm.fano_certificate(bad, BALL, gm.sigmoid_link(), seed=3)

    @pytest.mark.parametrize(
        "eig, graph, r",
        [
            ("path2048_eig", "path:2048", 1.0),
            ("grid32_eig", "grid:32x32", 2.0),
            ("torus16_eig", "torus:16x16", 2.0),
        ],
    )
    def test_regression_needs_eigenvalues_only(self, eig, graph, r, request):
        s = request.getfixturevalue(eig)
        ball = gm.SobolevSpec(beta=1.0, Q=1.0, r=r)
        for sigma in (1.0, 0.3):
            full = gm.fano_certificate(s, ball, sigma, seed=3)
            no_basis = gm.fano_certificate(dataclasses.replace(s, basis=None), ball, sigma, seed=3)
            assert gm.certificate_csv_text(no_basis) == gm.certificate_csv_text(full)
            # eigenvalues() is the exact closed form, while eigh rounds the small
            # eigenvalues by about 1e-15 absolute: agreement to 1e-10, not bitwise
            closed = gm.fano_certificate(gm.eigenvalues(gm.parse_graph_spec(graph)), ball, sigma, 3)
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

import math

import numpy as np
import pytest

import lyocert.geometry as geo
import lyocert.oracles as orc
import lyocert.verification as ver


DIAG = geo.MatrixTuple.from_matrices([np.diag([2.0, 0.5])])
REFERENCE = ver.reference_tuple()


# Per-trial reference implementation: one stream, one frame, one step at a
# time. The batched _run_trials must reproduce it trial by trial.

def _draw_indices_reference(spec, rng, n):
    if spec.kind == "iid":
        return rng.choice(spec.tuple.N, size=n, p=spec.weights).tolist()
    cum = np.cumsum(spec.transition, axis=1)
    cum[:, -1] = 1.0
    state = rng.choice(spec.tuple.N,
                       p=orc.stationary_distribution(spec.transition))
    u = rng.random(n)
    idx = []
    for t in range(n):
        state = int(np.searchsorted(cum[state], u[t]))
        idx.append(state)
    return idx


def _frame_trial_reference(matrices, idx, rng, steps, burnin, n_vectors):
    d = matrices[0].shape[0]
    frame = np.linalg.qr(rng.standard_normal((d, n_vectors)))[0]
    logs = np.zeros(n_vectors)
    interval = orc.block_length(np.array(matrices), n_vectors)
    t, total = 0, burnin + steps
    while t < total:
        block = min(interval, total - t)
        if t < burnin:
            block = min(block, burnin - t)
        for s in range(block):
            frame = matrices[idx[t + s]] @ frame
        t += block
        q, r = np.linalg.qr(frame)
        if t > burnin:
            logs += np.log(np.abs(np.diag(r)))
        frame = q * np.sign(np.diag(r))
    return logs / steps


def _run_trials_reference(spec, steps, trials, seed, burnin, n_vectors,
                          matrices):
    rows = []
    for trial in range(trials):
        rng = orc._trial_rng(seed, trial)
        idx = _draw_indices_reference(spec, rng, burnin + steps)
        rows.append(_frame_trial_reference(matrices, idx, rng, steps, burnin,
                                           n_vectors))
    return np.array(rows)


def _d3_tuple():
    rng = np.random.default_rng(11)
    return geo.MatrixTuple.from_matrices(
        [geo.sample_matrix(rng, 3) for _ in range(2)])


def _three_state_chain_with_a_zero_transition():
    # CocycleSpec.markov asks for positive entries; the sampler must still
    # never take the zero-probability transition 1 -> 2.
    c, s = math.cos(0.7), math.sin(0.7)
    T = geo.MatrixTuple.from_matrices(
        [*REFERENCE.matrices, [[c, -1.5 * s], [s, 1.5 * c]]])
    P = np.array([[0.2, 0.3, 0.5], [0.6, 0.4, 0.0], [0.3, 0.3, 0.4]])
    return orc.CocycleSpec(kind="markov", tuple=T, transition=P)


def _eight_matrix_tuple():
    # (8 + 1)^4 words exceed WORD_TABLE_LIMIT: blocks take words of 2 steps
    rng = np.random.default_rng(5)
    return geo.MatrixTuple.from_matrices(
        [geo.sample_matrix(rng, 2) for _ in range(8)])


def _six_step_d3_tuple():
    # singular values (8, 1, 1/8): 64^6 <= 1e12 < 64^7, so frames renormalize
    # every 6 steps, which words of 3 steps divide but words of 4 do not
    rng = np.random.default_rng(6)
    mats = []
    for _ in range(2):
        q1 = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        q2 = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        mats.append(q1 @ np.diag([8.0, 1.0, 0.125]) @ q2)
    return geo.MatrixTuple.from_matrices(mats)


@pytest.mark.parametrize("case", ["iid_top", "markov_top", "d3_spectrum",
                                  "partial_sum", "markov_zero_transition",
                                  "no_burnin", "burnin_on_block_edge",
                                  "steps_below_block", "eight_matrices",
                                  "d3_six_step_frame", "ill_conditioned_top",
                                  "ill_conditioned_frame"])
def test_batched_trials_match_per_trial_loop(case):
    # burn-in not a multiple of RENORM_INTERVAL, so a short block occurs
    steps, burnin = 1500, 250
    if case == "iid_top":
        spec, n_vectors = orc.CocycleSpec.iid(REFERENCE, (0.5, 0.5)), 1
        mats = spec.tuple.matrices
    elif case == "markov_top":
        spec = orc.CocycleSpec.markov(REFERENCE, [[0.7, 0.3], [0.4, 0.6]])
        n_vectors, mats = 1, spec.tuple.matrices
    elif case == "d3_spectrum":
        spec, n_vectors = orc.CocycleSpec.iid(_d3_tuple(), (0.3, 0.7)), 3
        mats = spec.tuple.matrices
    elif case == "partial_sum":
        spec, n_vectors = orc.CocycleSpec.iid(_d3_tuple(), (0.3, 0.7)), 1
        mats = [geo.exterior_power(m, 2) for m in spec.tuple.matrices]
    elif case == "eight_matrices":
        spec = orc.CocycleSpec.iid(_eight_matrix_tuple(), np.full(8, 0.125))
        n_vectors, mats = 1, spec.tuple.matrices
        assert orc._word_length(16, 9) == 2
    elif case == "d3_six_step_frame":
        spec, n_vectors = orc.CocycleSpec.iid(_six_step_d3_tuple(),
                                              (0.3, 0.7)), 3
        mats = spec.tuple.matrices
        assert orc.block_length(np.array(mats), 3) == 6
        assert orc._word_length(6, 3) == 3
    elif case.startswith("ill_conditioned"):
        spec = orc.CocycleSpec.iid(_ill_conditioned_d3_tuple(), (0.4, 0.6))
        n_vectors = 1 if case.endswith("top") else 3
        mats = spec.tuple.matrices
    elif case == "markov_zero_transition":
        spec, n_vectors = _three_state_chain_with_a_zero_transition(), 2
        mats = spec.tuple.matrices
        idx = orc._draw_indices(spec, [orc._trial_rng(7, 0)], 5000)[0]
        assert idx.tolist() == _draw_indices_reference(
            spec, orc._trial_rng(7, 0), 5000)
        assert not np.any((idx[:-1] == 1) & (idx[1:] == 2))
    else:
        spec, n_vectors = orc.CocycleSpec.iid(REFERENCE, (0.5, 0.5)), 1
        mats = spec.tuple.matrices
        if case == "no_burnin":
            burnin = 0
        elif case == "burnin_on_block_edge":
            burnin = 16 * orc.RENORM_INTERVAL
        else:
            steps = orc.RENORM_INTERVAL - 3
    args = (spec, steps, 5, 7, burnin, n_vectors)
    got = orc._run_trials(*args, np.array(mats))
    want = _run_trials_reference(*args, mats)
    assert got.shape == want.shape == (5, n_vectors)
    tol = np.full(n_vectors, 1e-12)
    if case in ("d3_six_step_frame", "ill_conditioned_frame"):
        # These frames renormalize every 6 and 2 steps, with block products
        # of condition number up to 7e10 and 1e8, which amplifies the
        # rounding of any product order into the lower exponents: the
        # loop's step-by-step order and a batched block product (of words
        # of any length, 1 included) differ there by up to 6e-10. A
        # misplaced step moves them by far more than 1e-8.
        tol[1:] = 1e-8
    assert np.all(np.max(np.abs(got - want), axis=0) <= tol)


@pytest.mark.parametrize("N", [2, 3, 5])
@pytest.mark.parametrize("n", [1, 17, 5000])
def test_iid_indices_match_per_trial_choice(N, n):
    # one rng.random(n) per trial, counted against Generator.choice's cdf:
    # the indices and the streams after them are choice's, bit for bit
    rng = np.random.default_rng(N)
    T = geo.MatrixTuple.from_matrices(
        [geo.sample_matrix(rng, 2) for _ in range(N)])
    weights = rng.dirichlet(np.full(N, 0.5))
    spec = orc.CocycleSpec.iid(T, weights / weights.sum())
    rngs = [orc._trial_rng(4, trial) for trial in range(3)]
    idx = orc._draw_indices(spec, rngs, n)
    assert idx.shape == (3, n) and idx.dtype == np.uint8
    for trial, (row, after) in enumerate(zip(idx, rngs)):
        want = orc._trial_rng(4, trial)
        assert row.tolist() == _draw_indices_reference(spec, want, n)
        assert after.random() == want.random()


@pytest.mark.parametrize("n", [1, 15, 16, 17, 1750])
def test_chain_indices_match_per_step_loop(n):
    # lengths below, on and past a multiple of CHAIN_SEGMENT
    spec = _three_state_chain_with_a_zero_transition()
    rngs = [orc._trial_rng(3, trial) for trial in range(4)]
    idx = orc._draw_indices(spec, rngs, n)
    assert idx.shape == (4, n)
    for trial, row in enumerate(idx):
        assert row.tolist() == _draw_indices_reference(
            spec, orc._trial_rng(3, trial), n)


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200])
def test_one_vector_renormalization_matches_qr(d, scale):
    # a division by the length against the sign-fixed QR of the same
    # stack; at 1e+-200 every square over- or underflows unless the length
    # is scaled
    v = scale * np.random.default_rng(d).standard_normal((16, d, 1))
    frames, lengths = orc._renormalize(v)
    q, r = np.linalg.qr(v)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    assert np.max(np.abs(frames - q * np.sign(diag)[..., None, :])) <= 1e-15
    assert np.max(np.abs(lengths / np.abs(diag) - 1.0)) <= 1e-15


def _ill_conditioned_d3_tuple():
    # two products Q1 diag(100, 1, 0.01) Q2 with random rotations; det = 1
    rng = np.random.default_rng(1)
    mats = []
    for _ in range(2):
        q1 = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        q2 = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        mats.append(q1 @ np.diag([100.0, 1.0, 0.01]) @ q2)
    return geo.MatrixTuple.from_matrices(mats)


def test_block_length_keeps_block_products_well_conditioned():
    assert orc.block_length(np.array(REFERENCE.matrices), 1) == 16
    assert orc.block_length(np.array(REFERENCE.matrices), 2) == 16
    assert orc.block_length(np.array(_d3_tuple().matrices), 3) == 16
    ill = _ill_conditioned_d3_tuple()
    assert orc.block_length(np.array(ill.matrices), 1) == 16
    block = orc.block_length(np.array(ill.matrices), 3)
    assert ill.ecc ** block <= 1e12 < ill.ecc ** (block + 1)


def test_ill_conditioned_spectrum_sums_to_log_det():
    # 16-step block products reach condition number 1e64, past which a QR
    # loses the lower exponents in rounding; det = 1 makes the exact sum 0
    spec = orc.CocycleSpec.iid(_ill_conditioned_d3_tuple(), (0.4, 0.6))
    est = orc.estimate_spectrum(spec, steps=3000, trials=4, seed=3,
                                burnin=500)
    assert abs(orc.determinant_log_mean(spec)) <= 1e-12
    assert abs(est.exponents.sum()) <= 1e-6
    # the exact exponents lie in [log 0.01, log 100] and are distinct
    assert np.all(np.abs(est.exponents) <= math.log(100.0) + 1e-9)
    assert est.exponents[1] < est.exponents[0] - 1.0


class TestCocycleSpec:
    def test_iid_normalizes_nothing_and_validates(self):
        spec = orc.CocycleSpec.iid(DIAG, [1.0])
        assert spec.kind == "iid"
        assert spec.weights == pytest.approx([1.0])

    def test_iid_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            orc.CocycleSpec.iid(REFERENCE, [0.7, 0.7])
        with pytest.raises(ValueError):
            orc.CocycleSpec.iid(REFERENCE, [1.2, -0.2])
        with pytest.raises(ValueError):
            orc.CocycleSpec.iid(REFERENCE, [1.0])

    def test_markov_validates_transition(self):
        P = [[0.7, 0.3], [0.4, 0.6]]
        spec = orc.CocycleSpec.markov(REFERENCE, P)
        assert spec.kind == "markov"
        assert 0.0 < spec.chain_gap <= 1.0
        with pytest.raises(ValueError):
            orc.CocycleSpec.markov(REFERENCE, [[0.5, 0.6], [0.4, 0.6]])

    def test_chain_gap_value(self):
        # rho_P = 1 - |second eigenvalue| = 1 - 0.3 for this 2-state chain.
        spec = orc.CocycleSpec.markov(REFERENCE, [[0.7, 0.3], [0.4, 0.6]])
        assert spec.chain_gap == pytest.approx(0.7)


class TestStationaryDistribution:
    def test_two_state_closed_form(self):
        P = np.array([[0.7, 0.3], [0.4, 0.6]])
        pi = orc.stationary_distribution(P)
        assert pi == pytest.approx([4.0 / 7.0, 3.0 / 7.0])
        assert np.allclose(pi @ P, pi)

    def test_uniform_for_doubly_stochastic(self):
        P = np.full((3, 3), 1.0 / 3.0)
        assert orc.stationary_distribution(P) == pytest.approx([1 / 3] * 3)


class TestTopExponent:
    def test_single_diagonal_matrix_exact(self):
        spec = orc.CocycleSpec.iid(DIAG, [1.0])
        lam, se = orc.estimate_top_exponent(spec, steps=500, trials=4, seed=0)
        assert lam == pytest.approx(math.log(2.0), abs=max(3 * se, 1e-9))

    def test_rotation_has_zero_exponent(self):
        c, s = math.cos(1.1), math.sin(1.1)
        T = geo.MatrixTuple.from_matrices([[[c, -s], [s, c]]])
        spec = orc.CocycleSpec.iid(T, [1.0])
        lam, se = orc.estimate_top_exponent(spec, steps=500, trials=4, seed=0)
        assert abs(lam) <= max(3 * se, 1e-9)

    def test_scaling_shifts_exponent(self):
        spec = orc.CocycleSpec.iid(REFERENCE, (0.5, 0.5))
        spec2 = orc.CocycleSpec.iid(geo.MatrixTuple.from_matrices(
            [2.0 * A for A in REFERENCE.matrices]), (0.5, 0.5))
        lam, se = orc.estimate_top_exponent(spec, steps=3000, trials=6, seed=3)
        lam2, se2 = orc.estimate_top_exponent(spec2, steps=3000, trials=6,
                                              seed=3)
        assert lam2 - lam == pytest.approx(math.log(2.0),
                                           abs=3 * (se + se2) + 1e-9)

    def test_seed_reproducibility(self):
        spec = orc.CocycleSpec.iid(REFERENCE, (0.5, 0.5))
        a = orc.estimate_top_exponent(spec, steps=1000, trials=4, seed=11)
        b = orc.estimate_top_exponent(spec, steps=1000, trials=4, seed=11)
        c = orc.estimate_top_exponent(spec, steps=1000, trials=4, seed=12)
        assert a == b
        assert a != c

    def test_frozen_reference_value(self):
        # Frozen regression value for the reference tuple at seed 0.
        spec = orc.CocycleSpec.iid(REFERENCE, (0.5, 0.5))
        lam, se = orc.estimate_top_exponent(spec, steps=20000, trials=12,
                                            seed=0)
        assert lam == pytest.approx(0.472, abs=0.01)
        assert se < 0.01

    def test_standard_errors_are_calibrated(self):
        # z-scores of 40 seeds against the transfer-operator value
        # (lyapunov_via_log_deriv at m = 2000; it moves by 9e-7 from m =
        # 1000, against a stderr near 7e-4): at most 2 beyond 3, and a mean
        # square near 1, so the stderr is neither too small nor too large
        spec = orc.CocycleSpec.iid(REFERENCE, (0.5, 0.5))
        z = np.array([(lam - 0.4720039436) / se for lam, se in (
            orc.estimate_top_exponent(spec, steps=4000, trials=16, seed=seed,
                                      burnin=1000) for seed in range(40))])
        assert np.count_nonzero(np.abs(z) > 3.0) <= 2
        assert 0.5 <= np.mean(z ** 2) <= 2.0

    def test_rejects_bad_parameters(self):
        spec = orc.CocycleSpec.iid(REFERENCE, (0.5, 0.5))
        with pytest.raises(ValueError):
            orc.estimate_top_exponent(spec, steps=0, trials=4, seed=0)
        with pytest.raises(ValueError):
            orc.estimate_top_exponent(spec, steps=100, trials=0, seed=0)


class TestSpectrum:
    def test_descending_and_sum_rule(self):
        spec = orc.CocycleSpec.iid(REFERENCE, (0.5, 0.5))
        est = orc.estimate_spectrum(spec, steps=5000, trials=8, seed=0)
        assert np.all(np.diff(est.exponents) <= 0.0)
        total = float(est.exponents.sum())
        se = float(np.sqrt((est.standard_errors ** 2).sum()))
        assert total == pytest.approx(orc.determinant_log_mean(spec),
                                      abs=3 * se + 1e-9)

    def test_diagonal_spectrum_exact(self):
        spec = orc.CocycleSpec.iid(DIAG, [1.0])
        est = orc.estimate_spectrum(spec, steps=500, trials=4, seed=0)
        assert est.exponents == pytest.approx([math.log(2.0), -math.log(2.0)],
                                              abs=1e-9)

    def test_top_matches_top_exponent_estimator(self):
        spec = orc.CocycleSpec.iid(REFERENCE, (0.5, 0.5))
        est = orc.estimate_spectrum(spec, steps=5000, trials=8, seed=5)
        lam, se = orc.estimate_top_exponent(spec, steps=5000, trials=8, seed=5)
        tol = 3 * math.hypot(se, float(est.standard_errors[0])) + 1e-9
        assert est.exponents[0] == pytest.approx(lam, abs=tol)


class TestPartialSumAndGap:
    def test_partial_sum_diagonal_exact(self):
        T = geo.MatrixTuple.from_matrices([np.diag([2.0, 1.0, 0.5])])
        spec = orc.CocycleSpec.iid(T, [1.0])
        val, _ = orc.estimate_partial_sum(spec, 2, steps=300, trials=3, seed=0)
        assert val == pytest.approx(math.log(2.0), abs=1e-9)

    def test_partial_sum_consistent_with_spectrum(self):
        rng = np.random.default_rng(7)
        T = geo.MatrixTuple.from_matrices(
            [geo.sample_matrix(rng, 3) for _ in range(2)])
        spec = orc.CocycleSpec.iid(T, (0.5, 0.5))
        est = orc.estimate_spectrum(spec, steps=4000, trials=8, seed=0)
        val, se = orc.estimate_partial_sum(spec, 2, steps=4000, trials=8,
                                           seed=1)
        direct = float(est.exponents[:2].sum())
        direct_se = float(np.sqrt((est.standard_errors[:2] ** 2).sum()))
        assert val == pytest.approx(direct, abs=3 * math.hypot(se, direct_se))

    def test_gap_positive_on_reference(self):
        spec = orc.CocycleSpec.iid(REFERENCE, (0.5, 0.5))
        gap, se = orc.lyapunov_gap(spec, steps=5000, trials=8, seed=0)
        assert gap - 3 * se > 0.26

    def test_partial_sum_rejects_bad_k(self):
        spec = orc.CocycleSpec.iid(REFERENCE, (0.5, 0.5))
        with pytest.raises(ValueError):
            orc.estimate_partial_sum(spec, 0, steps=100, trials=2, seed=0)
        with pytest.raises(ValueError):
            orc.estimate_partial_sum(spec, 3, steps=100, trials=2, seed=0)


class TestMarkov:
    def test_identical_rows_reduces_to_iid(self):
        P = [[0.5, 0.5], [0.5, 0.5]]
        mspec = orc.CocycleSpec.markov(REFERENCE, P)
        ispec = orc.CocycleSpec.iid(REFERENCE, (0.5, 0.5))
        lam_m, se_m = orc.estimate_markov_exponent(mspec, steps=8000,
                                                   trials=8, seed=0)
        lam_i, se_i = orc.estimate_top_exponent(ispec, steps=8000, trials=8,
                                                seed=0)
        assert lam_m == pytest.approx(lam_i, abs=3 * math.hypot(se_m, se_i))

    def test_markov_estimator_rejects_iid_spec(self):
        spec = orc.CocycleSpec.iid(REFERENCE, (0.5, 0.5))
        with pytest.raises(ValueError):
            orc.estimate_markov_exponent(spec, steps=100, trials=2, seed=0)

    def test_sampler_stays_in_range_when_row_sums_below_one(self):
        # The first row sums to 1 - 9e-13, inside the validation tolerance;
        # a uniform draw above that sum must still pick the last state.
        class StubRng:
            def choice(self, n, p=None):
                return 0

            def random(self, n):
                return np.full(n, 1.0 - 1e-13)

        spec = orc.CocycleSpec.markov(REFERENCE,
                                      [[0.5, 0.5 - 9e-13], [0.5, 0.5]])
        idx = orc._draw_indices(spec, [StubRng()], 4)
        assert idx[0].tolist() == [1, 1, 1, 1]

    def test_tied_draw_picks_searchsorted_state(self):
        # Dyadic rows make the cumulative sums exact, so u can equal one.
        class StubRng:
            def choice(self, n, p=None):
                return 1

            def random(self, n):
                return np.array([0.25, 0.5, 0.0, 0.5, 0.25, 0.75])[:n]

        P = [[0.5, 0.5], [0.25, 0.75]]
        spec = orc.CocycleSpec.markov(REFERENCE, P)
        idx = orc._draw_indices(spec, [StubRng()], 6)
        assert idx[0].tolist() == _draw_indices_reference(spec, StubRng(), 6)
        assert idx[0].tolist() == [0, 0, 0, 0, 0, 1]


class TestOverflowSafety:
    def test_large_norms_stay_finite(self):
        # Periodic QR renormalization keeps accumulators finite at
        # ||A|| ~ 1e10, far beyond where naive products would lose lambda_2.
        T = geo.MatrixTuple.from_matrices([np.diag([1e10, 1e-10])])
        spec = orc.CocycleSpec.iid(T, [1.0])
        lam, _ = orc.estimate_top_exponent(spec, steps=200, trials=2, seed=0)
        assert lam == pytest.approx(10 * math.log(10.0), rel=1e-9)

    def test_extreme_norms_raise_overflow_error(self):
        # Beyond float range within one renormalization window the oracle
        # fails loudly instead of returning garbage.
        T = geo.MatrixTuple.from_matrices([np.diag([1e150, 1e-150])])
        spec = orc.CocycleSpec.iid(T, [1.0])
        with pytest.raises(orc.NumericOverflowError):
            with np.errstate(over="ignore", invalid="ignore"):
                orc.estimate_top_exponent(spec, steps=200, trials=2, seed=0)

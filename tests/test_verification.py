import itertools
import math

import numpy as np
import pytest

import lyocert.certificates as cert
import lyocert.geometry as geo
import lyocert.operator as top
import lyocert.verification as ver


REFERENCE = ver.reference_tuple()
MC_2000 = {"steps": 2000, "trials": 4, "seed": 0, "burnin": 1000}


class TestReportPlumbing:
    def test_passed_ignores_indeterminate(self):
        rep = ver.VerificationReport()
        rep.add(ver.CheckRecord(name="a", status="pass", measured=1,
                                target=1, tolerance=0))
        rep.add(ver.CheckRecord(name="b", status="indeterminate", measured=None,
                                target=None, tolerance=None))
        assert rep.passed
        rep.add(ver.CheckRecord(name="c", status="fail", measured=2,
                                target=1, tolerance=0))
        assert not rep.passed

    def test_to_dict_sorted_by_name(self):
        rep = ver.VerificationReport()
        for name in ("z", "a", "m"):
            rep.add(ver.CheckRecord(name=name, status="pass", measured=0,
                                    target=0, tolerance=0))
        names = [c["name"] for c in rep.to_dict()["checks"]]
        assert names == sorted(names)

    def test_extend_concatenates(self):
        a, b = ver.VerificationReport(), ver.VerificationReport()
        a.add(ver.CheckRecord(name="x", status="pass", measured=0, target=0,
                              tolerance=0))
        b.add(ver.CheckRecord(name="y", status="pass", measured=0, target=0,
                              tolerance=0))
        a.extend(b)
        assert len(a.checks) == 2


class TestReferenceTuple:
    def test_matrices_are_conjugate_pair(self):
        assert REFERENCE.N == 2 and REFERENCE.d == 2
        assert np.allclose(REFERENCE.matrices[0], np.diag([2.0, 0.5]))
        # Conjugation preserves eccentricity and determinant.
        assert REFERENCE.eccentricities == pytest.approx([4.0, 4.0])
        assert REFERENCE.determinants == pytest.approx([1.0, 1.0])

    def test_reference_example_report(self):
        rep = ver.reproduce_reference_example(ver.reference_certificate())
        assert rep.passed
        assert len(rep.checks) == 10
        by_name = {c.name: c for c in rep.checks}
        assert by_name["reference.n0"].measured == 11
        assert by_name["reference.N_theta"].measured == 1056

    def test_reference_tolerances_render_the_applied_tolerance(self):
        tol = {c.name: c.tolerance
               for c in ver.reproduce_reference_example(
                   ver.reference_certificate()).checks}
        assert tol["reference.C2"] == "1e-10% relative"
        assert tol["reference.tau0"] == "3% relative"
        assert tol["reference.cauchy_second"] == "5% relative"
        assert tol["reference.n0"] == "exact"


def _unit_wedge_reference(basis):
    """The wedge of a 3 x 2 basis as one np.linalg.det per lex pair of rows,
    normalized."""
    w = np.array([np.linalg.det(basis[list(rows)])
                  for rows in itertools.combinations(range(3), 2)])
    return w / np.linalg.norm(w)


def _lemma_tallies_reference(samples, seed):
    """Blocks drawn with the two calls of ver._lemma_block, then one sample
    at a time: worst lhs/rhs ratio and violation count."""
    rng = np.random.default_rng(seed)
    d, k = 3, 2
    worst = {"proj_contract": 0.0, "logform_lip_g": 0.0, "logform_lip_v": 0.0,
             "grassmann_contract": 0.0, "grassmann_perturb": 0.0}
    violations = dict.fromkeys(worst, 0)

    def tally(name, lhs, rhs):
        worst[name] = max(worst[name], lhs / rhs if rhs > 0 else 0.0)
        violations[name] += lhs > rhs * (1 + 1e-10)

    def sample(uniforms, normals):
        # columns: two rotations, two directions, perturbation, two bases
        rot = normals[:2 * d * d].reshape(2, d, d)
        u, v = normals[2 * d * d:2 * d * d + 2 * d].reshape(2, d)
        delta = normals[2 * d * d + 2 * d:3 * d * d + 2 * d].reshape(d, d)
        bases = normals[3 * d * d + 2 * d:].reshape(2, d, k)
        g = geo.matrix_law(uniforms[:d], rot)[0]
        u, v = u / np.linalg.norm(u), v / np.linalg.norm(v)
        delta = delta * (0.1 * uniforms[d] / np.linalg.norm(delta, 2))
        return g, u, v, delta, bases

    done = 0
    while done < samples:
        n = min(ver.LEMMA_BLOCK, samples - done)
        uniforms = rng.random((n, d + 1))
        normals = rng.standard_normal((n, 3 * d * d + 2 * d + 2 * d * k))
        for g, u, v, delta, bases in map(sample, uniforms, normals):
            sv = np.linalg.svd(g, compute_uv=False)
            nrm, inv = sv[0], 1.0 / sv[-1]
            ecc = nrm * inv
            tally("proj_contract", geo.fs_distance_vec(g @ u, g @ v),
                  ecc ** 2 * geo.fs_distance_vec(u, v))
            g2 = g + delta
            sv2 = np.linalg.svd(g2, compute_uv=False)
            phi_gu = math.log(np.linalg.norm(g @ u))
            tally("logform_lip_g",
                  abs(phi_gu - math.log(np.linalg.norm(g2 @ u))),
                  max(inv, 1.0 / sv2[-1]) * np.linalg.norm(delta, 2))
            tally("logform_lip_v",
                  abs(phi_gu - math.log(np.linalg.norm(g @ v))),
                  (ecc + 1.0) * geo.fs_distance_vec(u, v))
            # planes V, W and their images through orthonormal bases:
            # the wedge of g Q for B = QR
            V, W = (_unit_wedge_reference(b) for b in bases)
            QV, QW = (np.linalg.qr(b)[0] for b in bases)
            gV = _unit_wedge_reference(g @ QV)
            tally("grassmann_contract",
                  geo.wedge_distance(gV, _unit_wedge_reference(g @ QW)),
                  ecc ** k * geo.wedge_distance(V, W))
            tally("grassmann_perturb",
                  geo.wedge_distance(gV, _unit_wedge_reference(g2 @ QV)),
                  k * max(nrm, sv2[0]) ** (k - 1)
                  * max(inv, 1.0 / sv2[-1]) ** k * np.linalg.norm(delta, 2))
        done += n
    return worst, violations


# 2500 samples span two full blocks and a partial one.
@pytest.mark.parametrize("samples", [300, 1000, 2500])
@pytest.mark.parametrize("seed", [0, 5])
def test_batched_lemma_tallies_match_per_sample_loop(samples, seed):
    worst, violations = ver._lemma_tallies(samples, seed)
    want_worst, want_violations = _lemma_tallies_reference(samples, seed)
    assert violations == want_violations
    for name, w in want_worst.items():
        assert abs(worst[name] - w) <= 1e-12 * w, name


def test_lemma_singular_values_are_the_drawn_ones():
    # the drawn singular values against the SVD of g, over 10^4 draws
    rng = np.random.default_rng(6)
    for _ in range(10):
        g, sv = ver._lemma_block(rng, ver.LEMMA_BLOCK)[:2]
        want = np.linalg.svd(g, compute_uv=False)
        assert np.max(np.abs(sv / want - 1.0)) <= 1e-13


def test_closed_form_factors_match_lapack():
    # 10^5 draws in 100 blocks. The Gram-Schmidt rotations against the
    # sign-fixed Householder Q: both round to order eps * cond, so they are
    # compared to 4 eps cond (measured worst 2 eps cond, 2.4e-14 absolute).
    # The closed-form 3 x 3 singular values against the SVD.
    rng = np.random.default_rng(8)
    eps = np.finfo(float).eps
    for _ in range(100):
        normals = rng.standard_normal((ver.LEMMA_BLOCK, 2, 3, 3))
        q, r = np.linalg.qr(normals)
        want = q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]
        err = np.max(np.abs(geo._gram_schmidt(normals) - want), axis=(-2, -1))
        assert np.all(err <= 4 * eps * np.linalg.cond(normals))

        g, _, _, delta, delta_norm, _ = ver._lemma_block(
            rng, ver.LEMMA_BLOCK)
        want = np.linalg.svd(delta, compute_uv=False)[:, 0]
        assert np.max(np.abs(delta_norm / want - 1.0)) <= 1e-13
        want = np.linalg.svd(g + delta, compute_uv=False)
        top = ver._top_singular_value(g + delta)
        bottom = ver._bottom_singular_value(g + delta)
        assert np.max(np.abs(top / want[:, 0] - 1.0)) <= 1e-13
        assert np.max(np.abs(bottom / want[:, -1] - 1.0)) <= 1e-13


@pytest.mark.parametrize("m", [100, 101])
@pytest.mark.parametrize("theta", [0.5, 1.0])
def test_grid_holder_seminorm_matches_all_pairs(m, theta):
    angles = np.arange(m) * (math.pi / m)
    dists = np.abs(np.sin(angles[:, None] - angles[None, :]))
    np.fill_diagonal(dists, 1.0)
    rng = np.random.default_rng(m)
    fs = [rng.standard_normal(m), np.cos(2 * angles) + 0.1 * angles]
    stacked = ver._grid_holder_seminorm(np.array(fs), theta)
    for f, row in zip(fs, stacked):
        want = np.max(np.abs(f[:, None] - f[None, :]) / dists ** theta)
        got = ver._grid_holder_seminorm(f, theta)
        assert abs(got - want) <= 1e-13 * want
        assert row == got  # a row of a stack is the function on its own


def _grid_holder_seminorm_all_shifts(f, theta):
    """The seminorm over every shift s = 1..m // 2, no row left out."""
    m = f.shape[-1]
    half = m // 2
    wrapped = np.concatenate([f, f[..., :half]], axis=-1)
    dists = np.sin(np.arange(1, half + 1) * (math.pi / m)) ** theta
    out = np.zeros(f.shape[:-1])
    for s in range(1, half + 1):
        gaps = np.max(np.abs(wrapped[..., s:s + m] - f), axis=-1)
        out = np.maximum(out, gaps / dists[s - 1])
    return out


@pytest.mark.parametrize("m", [9, 100, 101, 601])
@pytest.mark.parametrize("theta", [0.1, 0.5, 1.0])
def test_pruned_holder_seminorm_matches_all_shifts(m, theta):
    # rows leave the shift loop once their oscillation cannot beat their
    # max: the result is the all-shift one bit for bit, NaN rows included
    rng = np.random.default_rng(m)
    angles = np.arange(m) * (math.pi / m)
    f = rng.standard_normal((2, 3, m))
    f[0, 1] = 2.5                                   # constant
    f[0, 2] = np.cos(2 * angles) + 0.1 * angles     # smooth, one jump
    f[1, 0, m // 3] = np.nan
    f[1, 1] = np.cumsum(f[1, 1]) * 1e-3             # a random walk
    # two infinities m // 2 apart: inf from shift 1, inf - inf = NaN only
    # at the last shift
    f[1, 2, [1, 1 + m // 2]] = np.inf
    with np.errstate(invalid="ignore", over="ignore"):
        got = ver._grid_holder_seminorm(f, theta)
        want = _grid_holder_seminorm_all_shifts(f, theta)
        alone = [ver._grid_holder_seminorm(row, theta)
                 for row in f.reshape(-1, m)]
    assert got.shape == (2, 3)
    assert got.tobytes() == want.tobytes()
    assert got[0, 1] == 0.0 and np.isnan(got[1, 0]) and np.isnan(got[1, 2])
    assert not np.isnan(np.delete(got.ravel(), [3, 5])).any()
    for row, value in zip(alone, got.ravel()):
        assert row.shape == () and row.tobytes() == value.tobytes()


def test_stacked_transfer_norm_check_matches_per_function_loop():
    # The check as one T @ f and one Holder quotient per test function,
    # with the same draws, bound and skip of near-zero functions.
    theta, grid_m, functions, slack = 0.5, 200, 200, 0.05
    rng = np.random.default_rng(2)
    basis = top.TransferBasis(REFERENCE, top.build_grid(grid_m))
    angles = basis.grid.angles

    def holder_norm(f):
        return float(np.max(np.abs(f))) + float(
            ver._grid_holder_seminorm(f, theta))

    worst, violations = 0.0, 0
    for i, T in enumerate(basis.blocks):
        bound = 1.0 + REFERENCE.eccentricities[i] ** (2.0 * theta) + slack
        for _ in range(functions // REFERENCE.N + 1):
            freqs = rng.integers(1, 6, size=3)
            coefs = rng.standard_normal((3, 2))
            f = sum(c[0] * np.cos(2 * fq * angles)
                    + c[1] * np.sin(2 * fq * angles)
                    for fq, c in zip(freqs, coefs))
            nf = holder_norm(f)
            if nf < 1e-12:
                continue
            ratio = holder_norm(T @ f) / nf
            worst = max(worst, ratio / bound)
            violations += ratio > bound
    record, = ver.holder_operator_norm_check(
        basis, theta, functions=functions, slack=slack).checks
    assert record.measured == violations == 0
    assert record.detail == f"worst ratio/bound {worst:.6f}" \
        == "worst ratio/bound 0.351297"


@pytest.mark.parametrize("grid_m, count", [(601, 101), (200, 7)])
def test_trig_test_functions_match_per_function_loop(grid_m, count):
    # same draws in the same order, each function's terms summed in order:
    # the stacked functions equal the loop's bit for bit
    angles = top.build_grid(grid_m).angles
    rng = np.random.default_rng(2)
    want = []
    for _ in range(count):
        freqs = rng.integers(1, 6, size=3)
        coefs = rng.standard_normal((3, 2))
        want.append(sum(c[0] * np.cos(2 * fq * angles)
                        + c[1] * np.sin(2 * fq * angles)
                        for fq, c in zip(freqs, coefs)))
    want = np.array(want)
    other = np.random.default_rng(2)
    got = ver._trig_test_functions(other, angles, count)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    assert other.random() == rng.random()  # the streams end in step


def test_batched_exterior_norm_check_matches_per_sample_loop():
    # 1500 samples span a full and a partial block, each drawn with two
    # generator calls; g = R1 diag(s) R2 has the drawn s as singular values.
    rng = np.random.default_rng(4)
    want = 0.0
    for n in (1000, 500):
        uniforms = rng.random((n, 4))
        normals = rng.standard_normal((n, 2, 4, 4))
        for u, rot in zip(uniforms, normals):
            g, s = geo.matrix_law(u, rot)
            top2 = np.prod(s[:2])
            minors = geo.exterior_power(g, 2)
            lhs = np.sqrt(np.linalg.eigvalsh(minors.T @ minors)[-1])
            want = max(want, abs(lhs - top2) / top2)
    rep = ver.exterior_norm_identity_check(samples=1500, seed=4)
    assert rep.checks[0].measured == want


def _resolvent_identity_loop(trials, seed, n):
    """The check one trial at a time: the measured identity error, series
    error and series-checked count."""
    rng = np.random.default_rng(seed)
    worst_identity, worst_series, series_checked = 0.0, 0.0, 0
    eye = np.eye(n)
    for _ in range(trials):
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        E = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        B = A + 0.1 * E / np.linalg.norm(E, 2)
        zeta = ((np.linalg.norm(A, 2) + 2.0)
                * np.exp(2j * math.pi * rng.random()))
        RA = np.linalg.inv(zeta * eye - A)
        RB = np.linalg.inv(zeta * eye - B)
        lhs = RB - RA
        rhs = RB @ (B - A) @ RA
        worst_identity = max(worst_identity,
                             float(np.linalg.norm(lhs - rhs, 2)
                                   / max(np.linalg.norm(RB, 2), 1.0)))
        errors = _neumann_series_loop(RA[None], RB[None], ((B - A) @ RA)[None])
        series_checked += len(errors)
        worst_series = max([worst_series] + errors)
    return worst_identity, worst_series, series_checked


def _neumann_series_loop(RA, RB, C):
    """The partial sums one trial and one term at a time."""
    errors = []
    for ra, rb, c in zip(RA, RB, C):
        q = float(np.linalg.norm(c, 2))
        if q < 0.9:
            terms = max(20, int(math.log(1e-12) / math.log(max(q, 1e-6))) + 2)
            acc = np.zeros_like(ra)
            power = np.eye(len(ra)).astype(complex)
            for _ in range(terms):
                acc = acc + ra @ power
                power = power @ c
            errors.append(float(np.linalg.norm(acc - rb, 2)))
    return errors


@pytest.mark.parametrize("seed, trials, n", [(3, 20, 8), (4, 7, 5),
                                             (11, 33, 8)])
def test_stacked_resolvent_check_matches_per_trial_loop(seed, trials, n):
    identity, series = ver.resolvent_identity_check(trials, seed, n).checks
    worst_identity, worst_series, checked = _resolvent_identity_loop(
        trials, seed, n)
    assert identity.measured == worst_identity
    assert series.measured == worst_series
    assert series.detail == (f"{checked}/{trials} instances had "
                             "contraction < 0.9")


def test_stacked_neumann_series_matches_per_trial_loop():
    # ||RA|| <= 1/2 in the check keeps its contraction near 0.02, where
    # every trial takes the minimum of 20 terms. Here C is q times a
    # unitary matrix, so ||C^j|| = q^j and a term past a trial's count
    # would still move its sum: q = 0.02 .. 0.99, term counts 20 to 239
    # for the six trials at q < 0.9; the three at q >= 0.9 are left out.
    rng = np.random.default_rng(8)
    shape = (9, 6, 6)
    RA, RB, C = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                 for _ in range(3))
    RA /= 4.0
    C = np.linalg.qr(C)[0] * np.array(
        [0.5, 0.99, 0.7, 0.02, 0.95, 0.89, 0.9, 0.3, 0.85])[:, None, None]
    RB = RA @ np.linalg.inv(np.eye(6) - C) + 1e-9 * RB
    got = ver._neumann_series_errors(RA, RB, C)
    want = _neumann_series_loop(RA, RB, C)
    assert len(got) == len(want) == 6
    assert got.tolist() == want


class TestSamplingSuites:
    def test_lemma_suite_small_sample_passes(self):
        rep = ver.lemma_sampling_suite(samples=2000, seed=0)
        assert rep.passed
        names = {c.name for c in rep.checks}
        assert {"lemma.proj_contract", "lemma.grassmann_contract"} <= names

    def test_lemma_suite_seed_reproducible(self):
        a = ver.lemma_sampling_suite(samples=500, seed=5)
        b = ver.lemma_sampling_suite(samples=500, seed=5)
        assert [c.measured for c in a.checks] == [c.measured for c in b.checks]

    def test_exterior_norm_identity(self):
        rep = ver.exterior_norm_identity_check(samples=1000)
        assert rep.passed

    def test_holder_operator_norm(self):
        basis = top.TransferBasis(REFERENCE, top.build_grid(100))
        rep = ver.holder_operator_norm_check(basis, 0.5, functions=50)
        assert rep.passed

    def test_resolvent_identities(self):
        rep = ver.resolvent_identity_check(trials=5, n=6)
        assert rep.passed


class TestConsistencyChecks:
    def test_partial_sum_consistency(self):
        rng = np.random.default_rng(2)
        T = geo.MatrixTuple.from_matrices(
            [geo.sample_matrix(rng, 3) for _ in range(2)])
        rep = ver.partial_sum_consistency(
            T, (0.5, 0.5), 2,
            {"steps": 4000, "trials": 8, "seed": 0, "burnin": 1000})
        assert rep.passed

    def test_markov_iid_reduction(self):
        rep = ver.markov_iid_reduction_check(
            top.TransferBasis(REFERENCE, top.build_grid(200)), (0.5, 0.5),
            {"steps": 8000, "trials": 8, "seed": 0, "burnin": 1000})
        assert rep.passed

    def test_one_trial_fails_for_want_of_a_stderr(self):
        mc = {"steps": 400, "trials": 1, "seed": 0, "burnin": 100}
        rng = np.random.default_rng(2)
        T = geo.MatrixTuple.from_matrices(
            [geo.sample_matrix(rng, 3) for _ in range(2)])
        reports = [
            ver.partial_sum_consistency(T, (0.5, 0.5), 2, mc),
            ver.markov_iid_reduction_check(
                top.TransferBasis(REFERENCE, top.build_grid(60)),
                (0.5, 0.5), mc)]
        for rep in reports:
            record = rep.checks[-1]
            assert not rep.passed
            assert record.status == "fail"
            assert record.tolerance == "3 combined stderr = inf"
            assert record.detail.startswith(
                "standard error not finite (needs mc.trials >= 2); ")

    def test_cauchy_dominance_small(self):
        rep = cert.certify(REFERENCE, (0.5, 0.5), 0.5, 0.26)
        rep = ver.check_cauchy_dominance(
            top.TransferBasis(REFERENCE, top.build_grid(150)), (0.5, 0.5),
            rep, rep.r_extension.value, max_order=2)
        assert rep.passed


class TestBoundaryScan:
    def test_default_t_max_on_three_matrices(self):
        # Uniform p0 on three matrices puts 1/3 on the scanned weight; the
        # default t_max = 0.9 p0[index] scans it down to 0.1/3.
        T = geo.MatrixTuple.from_matrices(
            [*REFERENCE.matrices, ver.reference_tuple(1.5, 0.6).matrices[1]])
        scan = ver.boundary_scan(T, 0.5, MC_2000, steps=3, grid_m=100)
        p_min = [r["p_min"] for r in scan["rows"]]
        assert p_min[-1] == pytest.approx(0.1 / 3, abs=1e-15)
        assert p_min == sorted(p_min, reverse=True)

    def test_reference_scan_shape_and_flags(self):
        scan = ver.boundary_scan(
            REFERENCE, 0.5,
            {"steps": 4000, "trials": 4, "seed": 0, "burnin": 1000},
            steps=4, grid_m=300)
        assert len(scan["rows"]) == 4
        assert not scan["indeterminate"]
        assert scan["r_star_positive"]
        assert scan["r_star_nonincreasing"]
        assert scan["fit"]["gamma_hat"] == pytest.approx(1.0, abs=0.3)

    def test_constant_gap_tuple_is_indeterminate(self):
        # Both matrices equal: the weight sweep cannot change the operator,
        # so the measured-gap decay fit is degenerate and must be flagged.
        g = np.diag([2.0, 0.5])
        T = geo.MatrixTuple.from_matrices([g, g])
        scan = ver.boundary_scan(T, 0.5, MC_2000, steps=4, grid_m=150)
        assert scan["indeterminate"]

    def test_triangular_pair_fits_positive_exponent(self):
        # Upper-triangular pair with opposite expansion on the fixed line:
        # the measured gap decays toward the boundary with some positive
        # power, and the fitted lower envelope must hold at every row.
        T = geo.MatrixTuple.from_matrices([[[2.0, 1.0], [0.0, 0.5]],
                                           [[0.5, 1.0], [0.0, 2.0]]])
        scan = ver.boundary_scan(T, 0.5, MC_2000, steps=5, grid_m=150)
        assert not scan["indeterminate"]
        assert scan["fit"]["gamma_hat"] > 0.0
        assert scan["lower_bound_holds_everywhere"]


class TestCollapseScan:
    R_EXTENSION = ver.reference_certificate().r_extension.value

    def test_no_collision_inside_extension_disc(self):
        scan = ver.collapse_scan(REFERENCE, (0.5, 0.5), self.R_EXTENSION,
                                 grid_m=100)
        if scan["collision_found"]:
            assert scan["min_distance"] > scan["r_extension"]

    def test_widened_scan_finds_the_collision_outside_the_polydisc(self):
        # Past the first radius where isolation is lost, a leading left
        # vector can have vanishing mass; that counts as lost isolation.
        scan = ver.collapse_scan(REFERENCE, (0.5, 0.5), self.R_EXTENSION,
                                 grid_m=201,
                                 radii=np.geomspace(1e-3, 3.0, 40))
        assert scan["collision_found"]
        assert scan["outside_polydisc"]

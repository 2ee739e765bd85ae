import math

import numpy as np
import pytest

import lyocert.certificates as cert
import lyocert.geometry as geo
import lyocert.verification as ver


REFERENCE = ver.reference_tuple()


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
        rep = ver.reproduce_reference_example()
        assert rep.passed
        assert len(rep.checks) == 10
        by_name = {c.name: c for c in rep.checks}
        assert by_name["reference.n0"].measured == 11
        assert by_name["reference.N_theta"].measured == 1056


def _lemma_tallies_reference(samples, seed, d=3):
    """One sample at a time: worst lhs/rhs ratio and violation count."""
    rng = np.random.default_rng(seed)
    k = 2 if d >= 3 else 1
    worst = {"proj_contract": 0.0, "logform_lip_g": 0.0, "logform_lip_v": 0.0,
             "grassmann_contract": 0.0, "grassmann_perturb": 0.0}
    violations = dict.fromkeys(worst, 0)

    def tally(name, lhs, rhs):
        worst[name] = max(worst[name], lhs / rhs if rhs > 0 else 0.0)
        violations[name] += lhs > rhs * (1 + 1e-10)

    for _ in range(samples):
        g = geo.sample_matrix(rng, d)
        sv = geo.singular_values(g)
        nrm, inv = sv[0], 1.0 / sv[-1]
        ecc = nrm * inv
        u, v = geo.sample_directions(rng, 2, d)
        tally("proj_contract", geo.fs_distance_vec(g @ u, g @ v),
              ecc ** 2 * geo.fs_distance_vec(u, v))
        delta = rng.standard_normal((d, d))
        delta *= 0.1 * rng.random() / np.linalg.norm(delta, 2)
        g2 = g + delta
        sv2 = geo.singular_values(g2)
        phi_gu = math.log(np.linalg.norm(g @ u))
        tally("logform_lip_g",
              abs(phi_gu - math.log(np.linalg.norm(g2 @ u))),
              max(inv, 1.0 / sv2[-1]) * np.linalg.norm(delta, 2))
        tally("logform_lip_v",
              abs(phi_gu - math.log(np.linalg.norm(g @ v))),
              (ecc + 1.0) * geo.fs_distance_vec(u, v))
        V = geo.GrassmannPoint.from_basis(rng.standard_normal((d, k)))
        W = geo.GrassmannPoint.from_basis(rng.standard_normal((d, k)))
        gV = geo.grassmann_action(g, V)
        tally("grassmann_contract",
              geo.grassmann_distance(gV, geo.grassmann_action(g, W)),
              ecc ** k * geo.grassmann_distance(V, W))
        tally("grassmann_perturb",
              geo.grassmann_distance(gV, geo.grassmann_action(g2, V)),
              k * max(nrm, sv2[0]) ** (k - 1) * max(inv, 1.0 / sv2[-1]) ** k
              * np.linalg.norm(delta, 2))
    return worst, violations


@pytest.mark.parametrize("samples", [300, 1000])
@pytest.mark.parametrize("seed", [0, 5])
def test_batched_lemma_tallies_match_per_sample_loop(samples, seed):
    worst, violations = ver._lemma_tallies(samples, seed, 3, 2)
    want_worst, want_violations = _lemma_tallies_reference(samples, seed)
    assert violations == want_violations
    for name, w in want_worst.items():
        assert abs(worst[name] - w) <= 1e-12 * w, name


def test_batched_exterior_norm_check_matches_per_sample_loop():
    # 1500 samples span a full and a partial block.
    rng = np.random.default_rng(4)
    want = 0.0
    for _ in range(1500):
        g = geo.sample_matrix(rng, 4)
        sv = geo.singular_values(g)
        lhs = np.linalg.norm(geo.exterior_power(g, 2), 2)
        want = max(want, abs(lhs - np.prod(sv[:2])) / np.prod(sv[:2]))
    rep = ver.exterior_norm_identity_check(samples=1500, seed=4)
    assert rep.checks[0].measured == want


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
        rep = ver.holder_operator_norm_check(REFERENCE, 0.5, grid_m=100,
                                             functions=50)
        assert rep.passed

    def test_resolvent_identities(self):
        rep = ver.resolvent_identity_check(trials=5, n=6)
        assert rep.passed


class TestConsistencyChecks:
    def test_partial_sum_consistency(self):
        rng = np.random.default_rng(2)
        T = geo.MatrixTuple.from_matrices(
            [geo.sample_matrix(rng, 3) for _ in range(2)])
        rep = ver.partial_sum_consistency(T, (0.5, 0.5), 2, mc_steps=4000,
                                          mc_trials=8)
        assert rep.passed

    def test_markov_iid_reduction(self):
        rep = ver.markov_iid_reduction_check(REFERENCE, (0.5, 0.5),
                                             grid_m=200, mc_steps=8000,
                                             mc_trials=8, seed=0)
        assert rep.passed

    def test_cauchy_dominance_small(self):
        rep = ver.check_cauchy_dominance(REFERENCE, (0.5, 0.5), 0.5, 0.26,
                                         max_order=2, grid_m=150)
        assert rep.passed


class TestBoundaryScan:
    def test_reference_scan_shape_and_flags(self):
        scan = ver.boundary_scan(REFERENCE, 0.5, steps=4, grid_m=300,
                                 gap_proxy="measured", mc_steps=4000,
                                 mc_trials=4, seed=0)
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
        scan = ver.boundary_scan(T, 0.5, steps=4, grid_m=150,
                                 gap_proxy="measured", mc_steps=2000,
                                 mc_trials=4, seed=0)
        assert scan["indeterminate"]

    def test_triangular_pair_fits_positive_exponent(self):
        # Upper-triangular pair with opposite expansion on the fixed line:
        # the measured gap decays toward the boundary with some positive
        # power, and the fitted lower envelope must hold at every row.
        T = geo.MatrixTuple.from_matrices([[[2.0, 1.0], [0.0, 0.5]],
                                           [[0.5, 1.0], [0.0, 2.0]]])
        scan = ver.boundary_scan(T, 0.5, steps=5, grid_m=150,
                                 gap_proxy="measured", mc_steps=2000,
                                 mc_trials=4, seed=0)
        assert not scan["indeterminate"]
        assert scan["fit"]["gamma_hat"] > 0.0
        assert scan["lower_bound_holds_everywhere"]


class TestCollapseScan:
    def test_no_collision_inside_extension_disc(self):
        scan = ver.collapse_scan(REFERENCE, (0.5, 0.5), grid_m=100,
                                 theta=ver.REFERENCE_THETA,
                                 gap=ver.REFERENCE_GAP)
        if scan["collision_found"]:
            assert scan["min_distance"] > scan["r_extension"]

    def test_radius_certified_for_the_scanned_tuple(self):
        # A non-reference tuple and weights: the default radius must come
        # from this tuple's own certificate, not the reference one.
        tuple_ = ver.reference_tuple(a=3.0, psi=math.pi / 4)
        p0, theta, gap = (0.3, 0.7), 0.4, 0.5
        scan = ver.collapse_scan(tuple_, p0, grid_m=40, radii=[1e-6],
                                 directions=1, theta=theta, gap=gap)
        want = cert.certify(tuple_, p0, theta, gap).r_extension
        assert scan["r_extension"] == want
        assert want != cert.certify(REFERENCE, p0, ver.REFERENCE_THETA,
                                    ver.REFERENCE_GAP).r_extension

    def test_radius_needs_theta_and_gap(self):
        with pytest.raises(ValueError):
            ver.collapse_scan(REFERENCE, (0.5, 0.5), grid_m=40)
        with pytest.raises(ValueError):
            ver.collapse_scan(REFERENCE, (0.5, 0.5), grid_m=40, theta=0.5)

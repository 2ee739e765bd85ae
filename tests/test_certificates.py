import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lyocert.certificates as cert
import lyocert.geometry as geo
import lyocert.verification as ver


REFERENCE = ver.reference_tuple()
THETA, GAP = 0.5, 0.26
LADDER = cert.build_ladder(REFERENCE, THETA, GAP)


class TestLogValue:
    def test_small_value_round_trips(self):
        lv = cert.LogValue(math.log(42.0))
        assert lv.value == pytest.approx(42.0)
        assert math.isfinite(lv.value)
        assert lv.to_dict() == {"value": lv.value, "logValue": lv.log}

    def test_astronomical_value_is_inf(self):
        lv = cert.LogValue(1899.0)
        assert lv.value == math.inf
        assert math.isfinite(lv.log)


class TestLadderPieces:
    def test_simplicity_threshold_reference(self):
        assert cert.simplicity_threshold(THETA, GAP) == 11

    def test_simplicity_threshold_rounds_the_exact_quotient_up(self):
        # the float quotient 2 log 2 / (theta * gap) rounds to 7.0; the
        # exact quotient of these doubles is 7.00000000000000065
        assert cert.simplicity_threshold(0.5, 0.39608410317711157) == 8

    @pytest.mark.parametrize("theta", [0.25, 0.5, 1.0])
    def test_simplicity_threshold_near_ceiling_boundaries(self, theta):
        # gaps within 4 ulps of 2 log 2 / (n theta), against the exact
        # ceiling at 60 digits: n0 may exceed it by one (the upper bound of
        # 2 log 2), never fall below it
        gaps = []
        for n in range(2, 100):
            gap = 2.0 * math.log(2.0) / (n * theta)
            gaps.append(gap)
            for direction in (math.inf, -math.inf):
                g = gap
                for _ in range(4):
                    g = math.nextafter(g, direction)
                    gaps.append(g)
        with mpmath.workdps(60):
            two_log2 = 2 * mpmath.log(2)
            for g in gaps:
                exact = int(mpmath.ceil(
                    two_log2 / (mpmath.mpf(theta) * mpmath.mpf(g))))
                n0 = cert.simplicity_threshold(theta, g)
                assert exact <= n0 <= exact + 1, g

    def test_simplicity_threshold_rejects_bad_input(self):
        with pytest.raises(cert.GapNotSimpleError):
            cert.simplicity_threshold(THETA, 0.0)
        with pytest.raises(ValueError):
            cert.simplicity_threshold(1.5, GAP)

    def test_oscillation_rate_variants(self):
        rates = cert.oscillation_rate(11, THETA, GAP, 4.0)
        assert rates["pessimistic"] == pytest.approx(
            1.0 - math.log(2.0) / (4.0 * math.log(8.0)))
        assert rates["optimistic"] == pytest.approx(
            math.exp(-11 * THETA * GAP / 2.0))
        assert LADDER.tau0 == cert.oscillation_rate(
            LADDER.n0, THETA, GAP, LADDER.ecc)["pessimistic"]
        with pytest.raises(ValueError):
            cert.oscillation_rate(11, THETA, GAP, 0.5)

    def test_holder_iteration_reference(self):
        C2, N = cert.holder_iteration(11, 4.0, LADDER.tau0)
        assert C2 == 16.0 and N == 1056

    def test_composite_gap_monotone_in_tau0(self):
        t1, _ = cert.composite_gap(0.9, 1056, 11)
        t2, _ = cert.composite_gap(0.95, 1056, 11)
        assert 0.0 < t1 < t2 < 1.0

    def test_build_ladder_raises_when_vacuous(self):
        # A near-isometric tuple makes the optimistic tau0 >= 1 impossible,
        # but pessimistic tau0 < 1 always; optimistic with tiny gap is fine.
        # The vacuous branch needs ecc so small that log(2 ecc) <= 0: ecc=0.5
        # is impossible (ecc >= 1), so vacuity arises only at ecc == 0.5.
        # Exercise the validation error path via a zero gap instead.
        with pytest.raises(cert.GapNotSimpleError):
            cert.build_ladder(REFERENCE, THETA, 0.0)


class TestResolventAndRadii:
    def test_spectral_radius_bound_reference(self):
        _, k_sp = cert.resolvent_bound(LADDER)
        assert k_sp == pytest.approx(1519.04, rel=1e-3)

    def test_explicit_bound_is_astronomical_but_finite_log(self):
        K_full, _ = cert.resolvent_bound(LADDER)
        assert K_full.value == math.inf
        assert 1000.0 < K_full.log < 1e4

    def test_polydisc_radius_reference(self):
        _, k_sp = cert.resolvent_bound(LADDER)
        r, r_ext = cert.polydisc_radius(LADDER, k_sp, REFERENCE)
        assert r == pytest.approx(1.6458e-5, rel=1e-3)
        assert r_ext == r / 2.0

    def test_log_radius_matches_linear_radius(self):
        _, k_sp = cert.resolvent_bound(LADDER)
        r, _ = cert.polydisc_radius(LADDER, k_sp, REFERENCE)
        log_r = cert.log_polydisc_radius(LADDER, math.log(k_sp), REFERENCE)
        assert log_r == pytest.approx(math.log(r), abs=1e-12)

    def test_sup_bound_reference(self):
        _, k_sp = cert.resolvent_bound(LADDER)
        assert cert.sup_bound(LADDER, math.log(k_sp),
                              REFERENCE).value == pytest.approx(22.77,
                                                                rel=5e-3)

    def test_sup_bound_rejects_a_nonpositive_bracket(self):
        # max_i(log||A_i|| + ecc(A_i) + 1) = log 0.05 + 2.25 < 0: M* would
        # be negative, which bounds nothing and has no log.
        T = geo.MatrixTuple.from_matrices([np.diag([0.05, 0.04])] * 2)
        with pytest.raises(ValueError, match="sup bound needs"):
            cert.sup_bound(cert.build_ladder(T, THETA, GAP), 0.0, T)

    def test_radius_rejects_nonpositive_K(self):
        with pytest.raises(ValueError):
            cert.polydisc_radius(LADDER, 0.0, REFERENCE)


class TestCauchyBound:
    M, R = cert.LogValue(math.log(22.77)), cert.LogValue(math.log(1.6458e-5))

    def test_example_convention_matches_piecewise_rule(self):
        b1 = cert.cauchy_bound(self.M, self.R, (1, 0), "example")
        b2 = cert.cauchy_bound(self.M, self.R, (2, 0), "example")
        assert b1.value == pytest.approx(2.0 * self.M.value / self.R.value)
        assert b2.value == pytest.approx(2.0 * self.M.value
                                         / self.R.value ** 2)

    def test_proof_convention(self):
        b2 = cert.cauchy_bound(self.M, self.R, (0, 2), "theoremB-proof")
        assert b2.value == pytest.approx(2.0 * self.M.value
                                         / (self.R.value / 2.0) ** 2)

    def test_order_zero_is_sup_bound(self):
        assert cert.cauchy_bound(self.M, self.R, (0, 0), "example") == self.M

    def test_multi_index_factorial(self):
        b = cert.cauchy_bound(self.M, self.R, (2, 3), "example")
        assert b.value == pytest.approx(12.0 * self.M.value
                                        / self.R.value ** 5)

    def test_unknown_convention_rejected(self):
        with pytest.raises(ValueError):
            cert.cauchy_bound(self.M, self.R, (1, 0), "bogus")

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=6),
           st.integers(min_value=0, max_value=6))
    def test_proof_convention_dominates_example(self, a, b):
        ex = cert.cauchy_bound(self.M, self.R, (a, b), "example")
        pf = cert.cauchy_bound(self.M, self.R, (a, b), "theoremB-proof")
        assert pf.log >= ex.log


class TestGeometricConstants:
    def test_c_geom_positive_and_blows_up_at_rho_limit(self):
        g = np.diag([2.0, 0.5])
        c1 = cert.c_geom(2.0, 2.0, 0.01)
        c2 = cert.c_geom(2.0, 2.0, 0.49)
        assert 0.0 < c1 < c2

    def test_c_geom_rejects_rho_beyond_invertibility(self):
        with pytest.raises(ValueError):
            cert.c_geom(2.0, 2.0, 0.5)

    def test_validate_c_geom_holds_by_sampling(self):
        checked = cert.validate_c_geom(REFERENCE, rho=0.01, samples=20000,
                                       seed=0)
        assert checked == 20000  # zero violations, all samples checked

    def test_validate_c_geom_raises_on_a_violation(self, monkeypatch):
        monkeypatch.setattr(cert, "c_geom", lambda *args: 0.0)
        with pytest.raises(cert.ConstantValidationError,
                           match=r"c_geom violated: \S+ > 0\.0 at rho = 0\.01"):
            cert.validate_c_geom(REFERENCE, rho=0.01, samples=100, seed=0)

    def test_k_mat_positive(self):
        assert cert.k_mat(REFERENCE, 0.01, THETA) > 0.0


class TestJointAndChainRadii:
    def test_joint_radii_positive(self):
        _, k_sp = cert.resolvent_bound(LADDER)
        joint = cert.joint_radii(REFERENCE, THETA, math.log(k_sp), 0.01,
                                 (0.5, 0.5))
        assert joint["r_star_A"].value > 0.0
        assert joint["r_star_p"].value > 0.0
        assert joint["L_p"] > 0.0 and joint["L_A"] > 0.0

    def test_joint_weight_radius_shrinks_with_K(self):
        j1 = cert.joint_radii(REFERENCE, THETA, math.log(100.0), 0.01,
                              (0.5, 0.5))
        j2 = cert.joint_radii(REFERENCE, THETA, math.log(1000.0), 0.01,
                              (0.5, 0.5))
        assert j2["r_star_p"].value < j1["r_star_p"].value

    def test_chain_radii_reduce_to_tau0_for_strong_chains(self):
        # For rho_P > 1 - tau0 the ladder rate tau0 is binding, so the chain
        # radius is independent of the chain gap.
        a = cert.chain_radii(REFERENCE, THETA, LADDER, 0.9)
        b = cert.chain_radii(REFERENCE, THETA, LADDER, 0.5)
        assert a["r_star_P"] == pytest.approx(b["r_star_P"])

    def test_chain_radii_degrade_for_weak_chains(self):
        strong = cert.chain_radii(REFERENCE, THETA, LADDER, 0.05)
        weak = cert.chain_radii(REFERENCE, THETA, LADDER, 0.001)
        assert 0.0 < weak["r_star_P"] < strong["r_star_P"]

    def test_chain_exponent_scales_tau(self):
        c1 = cert.chain_radii(REFERENCE, THETA, LADDER, 0.01, c_exponent=1.0)
        c2 = cert.chain_radii(REFERENCE, THETA, LADDER, 0.01, c_exponent=0.5)
        assert c2["tau_chain"] == pytest.approx(c1["tau_chain"] ** 0.5)

    def test_chain_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            cert.chain_radii(REFERENCE, THETA, LADDER, 0.0)
        with pytest.raises(ValueError):
            cert.chain_radii(REFERENCE, THETA, LADDER, 0.5, c_exponent=2.0)


class TestBoundaryConstants:
    def test_log_space_constants(self):
        b = cert.boundary_constants(REFERENCE, THETA, LADDER, 1.0, 1.0)
        assert isinstance(b["C_K"], cert.LogValue)
        assert isinstance(b["c_E"], cert.LogValue)
        assert b["C_K"].value == math.inf and math.isfinite(b["C_K"].log)
        assert b["alpha_E"] > 0.0

    def test_rejects_nonpositive_fit(self):
        with pytest.raises(ValueError):
            cert.boundary_constants(REFERENCE, THETA, LADDER, 0.0, 1.0)
        with pytest.raises(ValueError):
            cert.boundary_constants(REFERENCE, THETA, LADDER, 1.0, 0.0)

    def test_fractional_exponent_allowed(self):
        b = cert.boundary_constants(REFERENCE, THETA, LADDER, 0.5, 0.8)
        assert b["gamma_tau"] == 0.8


class TestGrassmannCertificate:
    def test_level_one_positive(self):
        c = cert.grassmann_certificate(REFERENCE, THETA, 1, 0.9)
        for key in ("rho_star_k", "C_star_k", "r_persist", "r_kato", "r_H"):
            assert c[key] > 0.0
        assert c["rho_star_k"] == pytest.approx(math.exp(-THETA * 0.9 / 2.0))

    def test_individual_radius_uses_previous_level(self):
        rng = np.random.default_rng(3)
        T = geo.MatrixTuple.from_matrices(
            [geo.sample_matrix(rng, 3) for _ in range(2)])
        c1 = cert.grassmann_certificate(T, THETA, 1, 0.7)
        c2 = cert.grassmann_certificate(T, THETA, 2, 0.4,
                                        r_H_previous=c1["r_H"])
        assert c2["r_individual"] == min(c2["r_H"], c1["r_H"])

    def test_rejects_nonpositive_gap(self):
        with pytest.raises(ValueError):
            cert.grassmann_certificate(REFERENCE, THETA, 1, 0.0)


class TestOptimizeTheta:
    def test_picks_largest_radius(self):
        result = cert.optimize_theta(REFERENCE, GAP, [0.25, 0.5, 0.75, 1.0])
        radii = {row["theta"]: row["r_star"] for row in result["table"]}
        assert result["r_star_best"] == max(radii.values())
        assert radii[result["theta_best"]] == result["r_star_best"]

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            cert.optimize_theta(REFERENCE, GAP, [])


class TestCertify:
    def test_full_report_reference(self):
        report = cert.certify(REFERENCE, (0.5, 0.5), THETA, GAP)
        assert report.ladder.n0 == 11
        assert report.ladder.N_theta == 1056
        assert report.r_star.value == pytest.approx(1.6458e-5, rel=1e-3)
        assert report.M_star.value == pytest.approx(22.77, rel=5e-3)
        assert report.cauchy_first.value == pytest.approx(2.767e6, rel=1e-3)
        assert report.cauchy_second.value == pytest.approx(1.682e11,
                                                           rel=1e-3)
        assert report.chain is None
        assert not report.rigorous

    def test_rigorous_route_underflows_to_log_space(self):
        report = cert.certify(REFERENCE, (0.5, 0.5), THETA, GAP,
                              rigorous=True)
        assert report.rigorous
        assert report.K_star.value == math.inf
        assert math.isfinite(report.K_star.log)
        # exp(log r*) underflows double range; the log stays finite.
        assert report.r_star.value == 0.0
        assert report.r_star.log == pytest.approx(-1902.634, abs=1e-3)
        assert report.r_extension.log == report.r_star.log - math.log(2.0)
        assert report.cauchy_first.value == math.inf
        assert math.isfinite(report.cauchy_first.log)

    def test_every_K_derived_constant_follows_the_chosen_K(self):
        # Each constant scales as a power of K, so the two routes differ by
        # that power of log K* - log K*_sp.
        sp = cert.certify(REFERENCE, (0.5, 0.5), THETA, GAP)
        rig = cert.certify(REFERENCE, (0.5, 0.5), THETA, GAP, rigorous=True)
        shift = rig.K_star.log - math.log(rig.K_star_sp)
        for name, power in (("r_star", -1), ("r_extension", -1),
                            ("M_star", 1), ("cauchy_first", 2),
                            ("cauchy_second", 3)):
            assert (getattr(rig, name).log - getattr(sp, name).log
                    == pytest.approx(power * shift, rel=1e-12)), name
        for key in ("r_star_A", "r_star_p"):
            assert (rig.joint[key].log - sp.joint[key].log
                    == pytest.approx(-shift, rel=1e-12)), key

    def test_chain_and_boundary_blocks(self):
        report = cert.certify(REFERENCE, (0.5, 0.5), THETA, GAP,
                              chain_gap=0.7, c_tau=1.0, gamma_tau=1.0)
        assert report.chain is not None and report.chain["r_star_P"] > 0.0
        assert report.boundary is not None

    def test_rejects_mismatched_weights(self):
        with pytest.raises(ValueError):
            cert.certify(REFERENCE, (0.3, 0.3, 0.4), THETA, GAP)

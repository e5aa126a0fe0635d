import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack
from scipy.optimize import linear_sum_assignment

from fixtures import (flat_response, oracle_grid, overmodel_response, random_oracle_net,
                      random_pf_model, same_bits, sample_model, wideband_model)
from pzid import ratfit
from pzid.errors import NumericError, UsageError
from pzid.freqresp import FrequencyGrid, FrequencyResponseSet, PortLabel
from pzid.netsim import analytic_poles, current_probe, frequency_response, frequency_responses
from pzid.ratfit import (_QR_NB, _SIGMA_TOL, FitConfig, FitReport, PartialFractionModel,
                         PolynomialRatioModel, RankDeficiencyError, _aaa_degree, _aaa_errors,
                         _canonical_order,
                         _canonical_pf, _coeffs_to_residues, _initial_poles, _n_real,
                         _pf_basis,
                         _PoleWalk, _qr_r, _real_realization, _Relocation, evaluate_model,
                         fit_common_denominator, fit_error, fit_polynomial_ratio,
                         load_model, poles_and_zeros, save_model)


def single_port(freqs_hz, samples, name="p1"):
    return FrequencyResponseSet(FrequencyGrid(freqs_hz), (PortLabel(name),),
                                (np.asarray(samples, dtype=complex),))


def worst_pole_error(fitted, truth):
    return max(np.min(np.abs(fitted - p)) / abs(p) for p in truth)


def step_alone(buffers, poles):
    """One relocation step of a batch of one: (poles, settled, rank), or
    raise the member's NumericError."""
    new, settled, rank, _, failed = buffers.step([0], poles[None], [_n_real(poles)])
    if failed:
        raise failed[0]
    return new[0], float(settled[0]), int(rank[0])


def relocate(poles, s, f_mat):
    """One relocation step from ``poles`` on fresh buffers."""
    return step_alone(_Relocation(s, f_mat[None], poles.size), poles)


class TestPolynomialRatioFit:
    def test_recovers_quadratic_denominator(self):
        # H(s) = 1/(s^2 + 2s + 101): roots -1 +- 10j by the quadratic formula
        w = np.linspace(1.0, 100.0, 200)
        h = 1.0 / ((1j * w) ** 2 + 2 * (1j * w) + 101.0)
        model, report = fit_polynomial_ratio(single_port(w / (2 * np.pi), h),
                                             FitConfig(order=2))
        poles, _ = poles_and_zeros(model)
        assert worst_pole_error(poles, [complex(-1, 10), complex(-1, -10)]) < 1e-8
        assert report.rms_rel_error < 1e-10
        assert report.stop in ("coeff-move", "rank-deficient", "iteration-cap")
        assert report.converged == (report.stop == "coeff-move")

    def test_constant_fit(self):
        w = np.linspace(1.0, 100.0, 200)
        model, _ = fit_polynomial_ratio(single_port(w, np.full(200, 2.0 + 0j)),
                                        FitConfig(order=0))
        assert abs(model.num_coeffs[0] / model.den_coeffs[0] - 2.0) < 1e-12

    def test_rhp_poles_not_flipped(self):
        # netsim-grade fixture: parallel RLC with R = -50 ohm
        from fixtures import parallel_rlc
        from pzid.netsim import analytic_poles, current_probe, frequency_response
        net = parallel_rlc(-50.0)
        truth = analytic_poles(net)
        grid = FrequencyGrid(np.linspace(1e9, 9e9, 300))
        resp = frequency_response(net, current_probe("n1"), grid)
        model, _ = fit_polynomial_ratio(resp, FitConfig(order=2))
        poles, _ = poles_and_zeros(model)
        assert np.all(poles.real > 0)
        assert worst_pole_error(poles, truth) < 1e-8

    def test_order_too_high_raises(self):
        w = np.linspace(1.0, 100.0, 200)
        with pytest.raises(RankDeficiencyError):
            fit_polynomial_ratio(single_port(w, np.full(200, 2.0 + 0j)),
                                 FitConfig(order=3))

    def test_point_budget(self):
        w = np.linspace(1.0, 100.0, 5)
        with pytest.raises(UsageError, match="grid points"):
            fit_polynomial_ratio(single_port(w, np.ones(5)),
                                 FitConfig(order=2))


class TestCommonDenominatorFit:
    def test_two_ports_share_poles(self):
        p = complex(-1e9, 2 * np.pi * 1.4e9)
        truth = np.array([p, np.conj(p)])
        r1 = np.array([complex(5e8, 2e8), complex(5e8, -2e8)])
        r2 = np.array([complex(-1e8, 9e8), complex(-1e8, -9e8)])
        f = np.linspace(0.1e9, 3e9, 400)
        s = 1j * 2 * np.pi * f
        h1 = (r1 / (s[:, None] - truth)).sum(1) + 0.5
        h2 = (r2 / (s[:, None] - truth)).sum(1) + 3.0
        rset = FrequencyResponseSet(FrequencyGrid(f),
                                    (PortLabel("a"), PortLabel("b")),
                                    (h1, h2))
        model, report = fit_common_denominator(rset, FitConfig(order=2, iters=15))
        assert worst_pole_error(model.poles, truth) < 1e-8
        assert model.port_names == ("a", "b")
        assert report.converged

    def test_constant_response_gives_zero_residues(self):
        f = np.linspace(1e8, 1e9, 400)
        model, _ = fit_common_denominator(
            single_port(f, np.full(400, 3.0 + 0j)), FitConfig(order=2))
        assert abs(model.direct[0] - 3.0) < 1e-9
        assert np.all(np.abs(model.residues) <= 1e-9 * 3.0 * np.abs(model.poles))

    def test_no_flip_property(self):
        for seed in (11, 12, 13):
            model, f_lo, f_hi = random_pf_model(seed)
            if not np.any(model.poles.real > 0):
                continue
            fit, _ = fit_common_denominator(sample_model(model, f_lo, f_hi),
                                            FitConfig(order=model.order, iters=25))
            n_rhp_true = int(np.sum(model.poles.real > 0))
            n_rhp_fit = int(np.sum(fit.poles.real > 0))
            assert n_rhp_fit == n_rhp_true

    def test_order_zero(self):
        f = np.linspace(1e8, 1e9, 100)
        model, report = fit_common_denominator(single_port(f, np.full(100, 7.0 + 0j)),
                                               FitConfig(order=0))
        assert model.poles.size == 0 and abs(model.direct[0] - 7.0) < 1e-12
        assert report.stop == "no-poles" and report.iters_used == 0

    def test_point_budget(self):
        f = np.linspace(1e8, 1e9, 6)
        with pytest.raises(UsageError, match="point budget"):
            fit_common_denominator(single_port(f, np.ones(6)), FitConfig(order=6))

    def test_lapack_failure_is_numeric_error(self):
        f = np.linspace(1e8, 1e9, 200)
        with np.errstate(all="ignore"), pytest.raises(NumericError):
            fit_common_denominator(single_port(f, np.full(200, 1e200 + 0j)),
                                   FitConfig(order=2))



def reference_initial_poles(n, w_lo, w_hi):
    """Start poles as they were before they followed the grid: pairs
    spaced linearly over [max(w_lo, 1e-3 w_hi), w_hi]."""
    w_lo = max(w_lo, 1e-3 * w_hi)
    poles = []
    if n % 2:
        poles.append(complex(-0.5 * (w_lo + w_hi), 0.0))
    n_pairs = n // 2
    if n_pairs:
        betas = np.linspace(w_lo, w_hi, n_pairs) if n_pairs > 1 else [0.5 * (w_lo + w_hi)]
        for b in betas:
            poles.append(complex(-b / 100.0, b))
            poles.append(complex(-b / 100.0, -b))
    return np.asarray(poles, dtype=complex)


class TestInitialPoles:
    @pytest.mark.parametrize("m", [5, 200, 401, 2000])
    @pytest.mark.parametrize("f_lo", [10e6, 0.3e9, 5e9])
    def test_linear_grid_keeps_linear_spacing(self, m, f_lo):
        w = np.linspace(f_lo, 10e9, m) / 10e9
        for n in range(1, min(m, 41)):
            ref = reference_initial_poles(n, w[0], 1.0)
            assert np.all(np.abs(_initial_poles(n, w) - ref) <= 1e-15 * np.abs(ref)), n

    def test_log_grid_spaces_pairs_geometrically(self):
        # 9 (n_pairs - 1) divides m - 1, so every pair sits on a sample
        w = np.geomspace(1e6, 40e9, 451) / 40e9
        poles = _initial_poles(20, w)
        im = poles.imag[::2]
        assert np.all(poles.real[::2] == -im / 100.0)
        ratios = im[1:] / im[:-1]
        assert np.allclose(ratios, (40e9 / 1e6) ** (1 / 9), rtol=1e-12, atol=0.0)
        assert im[0] == w[0] and im[-1] == 1.0

    @pytest.mark.parametrize("n", [1, 3, 7, 21])
    def test_odd_order_puts_real_pole_first(self, n):
        w = np.geomspace(1e6, 40e9, 400) / 40e9
        poles = _initial_poles(n, w)
        assert _canonical_order(poles) == (list(range(n)), 1)
        assert poles[0] == -np.interp(199.5, np.arange(400), w)

    @pytest.mark.parametrize("w", [np.linspace(0.0, 1.0, 200),
                                   np.concatenate([[0.0], np.geomspace(1e-4, 1.0, 199)])])
    def test_dc_sample_gives_no_pole_at_zero(self, w):
        for n in range(1, 21):
            poles = _initial_poles(n, w)
            assert np.all(poles != 0.0), n
            if n >= 4:  # the first of two or more pairs reads the DC sample
                assert poles[n % 2] == complex(-1e-5, 1e-3), n

    def test_fit_on_a_dc_grid_raises_no_warning(self):
        model, _, f_hi = random_pf_model(300)
        resp = sample_model(model, 0.0, f_hi)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit, _ = fit_common_denominator(resp, FitConfig(order=model.order))
        assert np.all(fit.poles != 0.0)

    def test_wideband_fit_converges_in_two_steps(self):
        # criterion 1's 4.6-decade fixture: log-spaced start pairs reach
        # the pole-move stop on the 2nd step (linearly spaced ones took 4)
        wide = wideband_model()
        resp = sample_model(wide, 1e6, 40e9, n=400, log=True)
        fit, report = fit_common_denominator(resp, FitConfig(order=20))
        assert report.converged and report.iters_used == 2
        assert worst_pole_error(fit.poles, wide.poles) <= 1e-6


class TestRelocationStop:
    def test_fit_stops_on_settled_sigma(self):
        # at the 2nd step the poles still move by 8e-10 of the band edge,
        # 8x the pole-move threshold, while sigma has settled to 9e-10
        model, f_lo, f_hi = random_pf_model(7)
        truth = model.poles
        assert truth.size == 20
        resp = sample_model(model, f_lo, f_hi)
        cfg = FitConfig(order=20)
        fit, report = fit_common_denominator(resp, cfg)
        assert report.stop == "sigma-settled" and report.converged
        assert report.iters_used < cfg.iters
        assert worst_pole_error(fit.poles, truth) <= 1e-6

    def test_settled_ratio_is_sigma_residue_size(self):
        model, f_lo, f_hi = random_pf_model(300)
        w = 2 * np.pi * np.linspace(f_lo, f_hi, 400)
        s = 1j * w / w[-1]
        f_mat = evaluate_model(model, FrequencyGrid(w / (2 * np.pi)), 0)[None, :]
        _, far, _ = relocate(_initial_poles(model.order, w / w[-1]), s, f_mat)
        _, at_truth, _ = relocate(model.poles / w[-1], s, f_mat)
        assert far > _SIGMA_TOL
        assert at_truth < 1e-3 * _SIGMA_TOL

    @pytest.mark.parametrize("seed", [21, 300, 1001])
    def test_overmodeled_exact_fit_stops_rank_deficient(self, seed):
        # the two spare poles leave the relocation least squares short of
        # full rank by the same amount on every step; the stop needs that
        # rank twice, so it cannot come before the second step
        model, f_lo, f_hi = random_pf_model(seed)
        fit, report = fit_common_denominator(sample_model(model, f_lo, f_hi),
                                             FitConfig(order=model.order + 2))
        assert report.stop == "rank-deficient" and not report.converged
        assert 2 <= report.iters_used <= 4
        assert report.rms_rel_error <= 1e-12
        assert worst_pole_error(fit.poles, model.poles) <= 1e-9

    def test_shrinking_rank_deficit_does_not_stop(self, monkeypatch):
        # on a linear grid the start pairs sit 4.4 GHz apart, and 8 of this
        # model's 10 resonances lie below the second pair.  The first steps
        # are rank-deficient by a deficit that shrinks to zero (ranks 16,
        # 19, 21, 21), and the fit runs on to the true poles.  On 6000
        # points the worst pole error is 2e-9 to 6e-9; on 4000 it is 3e-7
        # or 1.1e-6, depending on the BLAS thread count
        ranks = []
        step = _Relocation.step

        def recording_step(self, *args):
            out = step(self, *args)
            ranks.extend(out[2])
            return out

        monkeypatch.setattr(_Relocation, "step", recording_step)
        wide = wideband_model()
        fit, report = fit_common_denominator(sample_model(wide, 1e6, 40e9, n=6000),
                                             FitConfig(order=20, iters=30))
        assert ranks[0] < 21
        assert report.stop in ("pole-move", "sigma-settled") and report.converged
        assert worst_pole_error(fit.poles, wide.poles) <= 1e-6

    def test_noisy_overmodeled_fit_is_not_rank_deficient(self):
        # noise keeps the relocation system at full rank on every step, so
        # a rank that merely repeats must not stop the fit
        _, report = fit_common_denominator(flat_response(noise=1e-4), FitConfig(order=6))
        assert report.stop != "rank-deficient"

    def test_iteration_cap_is_not_converged(self):
        model, f_lo, f_hi = random_pf_model(21)
        _, report = fit_common_denominator(sample_model(model, f_lo, f_hi),
                                           FitConfig(order=model.order, iters=1))
        assert report.stop == "iteration-cap" and not report.converged

    def test_unknown_stop_rejected(self):
        with pytest.raises(ValueError, match="unknown fit stop"):
            FitReport(0.0, 0.0, 1, True, "settled")


class TestConditioningSplit:
    def test_vf_succeeds_where_poly_cannot(self):
        # 4.5-decade band at order 20: the polynomial basis is numerically
        # rank deficient while the partial-fraction basis is fine
        model = wideband_model()
        resp = sample_model(model, 1e6, 40e9, n=400, log=True)
        fit, _ = fit_common_denominator(resp, FitConfig(order=20, iters=30))
        assert worst_pole_error(fit.poles, model.poles) < 1e-6
        try:
            pmodel, _ = fit_polynomial_ratio(resp, FitConfig(order=20, iters=30))
            ppoles, _ = poles_and_zeros(pmodel)
            poly_result = f"worst pole error {worst_pole_error(ppoles, model.poles):.3e}"
        except NumericError as exc:
            poly_result = f"{type(exc).__name__}: {exc}"
        print(f"\npolynomial-ratio full-band result (recorded): {poly_result}")


class TestEvaluateAndErrors:
    def pf_with_direct(self):
        return PartialFractionModel(np.array([complex(-1, 10), complex(-1, -10)]),
                                    np.array([[1 + 0j, 1 - 0j]]), np.array([1.0]))

    def test_pf_evaluation_matches_expansion(self):
        # oracle: 1 + (2s + 2)/((s-p)(s-p*)) at s = 10j
        model = self.pf_with_direct()
        grid = FrequencyGrid(np.array([0.1, 0.5, 1.0, 10.0 / (2 * np.pi)]))
        got = evaluate_model(model, grid, 0)[-1]
        expect = 1 + (2 + 20j) / (1 + 20j)
        assert abs(got - expect) < 1e-14

    def test_single_port_default(self):
        model = self.pf_with_direct()
        grid = FrequencyGrid(np.array([0.1, 0.5, 1.0, 10.0]))
        assert np.array_equal(evaluate_model(model, grid), evaluate_model(model, grid, 0))

    def test_mimo_evaluation_needs_port(self):
        model = PartialFractionModel(
            np.array([complex(-1, 10), complex(-1, -10)]),
            np.array([[1 + 0j, 1 - 0j], [2 + 0j, 2 - 0j]]),
            np.array([1.0, 2.0]))
        grid = FrequencyGrid(np.array([0.1, 0.5, 1.0, 10.0]))
        with pytest.raises(UsageError, match="name the port"):
            evaluate_model(model, grid)

    def test_poly_constant(self):
        model = PolynomialRatioModel(np.array([2.0]), np.array([1.0]), 1e9)
        grid = FrequencyGrid(np.array([1e6, 1e7, 1e8, 1e9]))
        assert np.allclose(evaluate_model(model, grid), 2.0)

    def test_evaluation_at_pole_guarded(self):
        model = PartialFractionModel(np.array([complex(0, 2 * np.pi * 1e9),
                                               complex(0, -2 * np.pi * 1e9)]),
                                     np.array([[1 + 0j, 1 - 0j]]), np.array([0.0]))
        grid = FrequencyGrid(np.array([0.5e9, 0.9e9, 1e9, 2e9]))
        with pytest.raises(NumericError, match="pole frequency"):
            evaluate_model(model, grid, 0)

    def test_fit_error_self_comparison(self):
        model, f_lo, f_hi = random_pf_model(31)
        resp = sample_model(model, f_lo, f_hi)
        rep = fit_error(model, resp)
        assert rep.rms_rel_error <= 1e-10
        assert rep.max_phase_err_deg <= 1e-8

    def test_single_point_phase_perturbation(self):
        model, f_lo, f_hi = random_pf_model(32)
        resp = sample_model(model, f_lo, f_hi)
        values = resp.values[0].copy()
        values[200] *= (1 + 0.01j)
        bumped = FrequencyResponseSet(resp.grid, resp.ports, (values,))
        rep = fit_error(model, bumped)
        assert abs(rep.max_phase_err_deg - np.degrees(np.arctan(0.01))) < 1e-9

    def test_constant_phase_error(self):
        f = np.linspace(1.0, 2.0, 10)
        model = PolynomialRatioModel(np.array([2.0]), np.array([1.0]), 1.0)
        data = single_port(f, np.full(10, 2.0 * np.exp(1j * np.radians(0.01))))
        rep = fit_error(model, data)
        assert abs(rep.max_phase_err_deg - 0.01) < 1e-9


def reference_expanded_zeros(model, k=0):
    """Zeros as they were computed before the system-matrix pencil: roots of
    the expanded numerator sum_i r_i prod_{j != i} (s - p_j), the direct
    term ignored."""
    num = np.zeros(model.poles.size, dtype=complex)
    for i in range(model.poles.size):
        num += model.residues[k, i] * np.poly(np.delete(model.poles, i))
    return np.roots(num.real)


def with_direct(model, frac):
    """``model`` with its direct term set to ``frac`` times its largest residue."""
    d = frac * float(np.max(np.abs(model.residues[0])))
    return PartialFractionModel(model.poles, model.residues, np.array([d]))


class TestPolesAndZeros:
    def test_quadratic_formula(self):
        model = PolynomialRatioModel(np.array([1.0]), np.array([101.0, 2.0, 1.0]), 1.0)
        poles, zeros = poles_and_zeros(model)
        assert worst_pole_error(poles, [complex(-1, 10), complex(-1, -10)]) < 1e-12
        assert zeros.size == 0

    def test_pf_zero_without_direct(self):
        # numerator 2s + 2 -> single zero at -1
        model = PartialFractionModel(np.array([complex(-1, 10), complex(-1, -10)]),
                                     np.array([[1 + 0j, 1 - 0j]]), np.array([0.0]))
        _, zeros = poles_and_zeros(model, 0)
        assert zeros.size == 1 and abs(zeros[0] - (-1.0)) < 1e-12

    def test_identical_num_den_zeros_equal_poles(self):
        model = PolynomialRatioModel(np.array([101.0, 2.0, 1.0]),
                                     np.array([101.0, 2.0, 1.0]), 1.0)
        poles, zeros = poles_and_zeros(model)
        assert np.allclose(np.sort_complex(poles), np.sort_complex(zeros))

    def test_pf_zeros_with_direct_term(self):
        # with D != 0, zeros are the eigenvalues of A - B C / D; cross-check
        # against the expanded numerator evaluated at the zeros
        model, f_lo, f_hi = random_pf_model(41)
        _, zeros = poles_and_zeros(model, 0)
        s = zeros
        h = np.array([np.sum(model.residues[0] / (z - model.poles)) + model.direct[0]
                      for z in s])
        scale = np.abs(model.direct[0]) + np.max(np.abs(model.residues))
        assert np.all(np.abs(h) < 1e-6 * scale)

    def test_zero_count_follows_the_direct_term(self):
        # d at rounding level of the residues puts its zero at infinity, as d = 0 does
        model, _, _ = random_pf_model(41)
        n = model.order
        counts = [poles_and_zeros(with_direct(model, frac), 0)[1].size
                  for frac in (0.0, 1e-24, 1e-3)]
        assert counts == [n - 1, n - 1, n]

    @pytest.mark.parametrize("direct", [0.0, 2.0])
    def test_order_zero_model_has_no_zeros(self, direct):
        model = PartialFractionModel(np.zeros(0, dtype=complex), np.zeros((1, 0), dtype=complex),
                                     np.array([direct]))
        poles, zeros = poles_and_zeros(model, 0)
        assert poles.size == 0 and zeros.size == 0

    @pytest.mark.parametrize("frac", [0.0, 1e-24, 1e-3, None])
    def test_pf_zeros_are_exact_conjugate_pairs(self, frac):
        for seed in range(25):
            model, _, _ = random_pf_model(seed)
            if frac is not None:
                model = with_direct(model, frac)
            _, zeros = poles_and_zeros(model, 0)
            assert np.array_equal(np.sort_complex(zeros), np.sort_complex(zeros.conj())), seed

    def test_pf_zeros_match_the_expanded_numerator(self):
        for seed in range(25):
            model = with_direct(random_pf_model(seed)[0], 0.0)
            _, zeros = poles_and_zeros(model, 0)
            ref = reference_expanded_zeros(model)
            assert zeros.size == ref.size == model.order - 1, seed
            cost = np.abs(zeros[:, None] - ref[None, :]) / np.abs(ref)[None, :]
            rows, cols = linear_sum_assignment(cost)
            assert cost[rows, cols].max() < 1e-9, seed
            h = np.array([np.sum(model.residues[0] / (z - model.poles)) for z in zeros])
            assert np.all(np.abs(h) <= 1e-6 * np.sum(np.abs(model.residues[0]))), seed

    def test_qz_failure_is_a_numeric_error(self, monkeypatch):
        def failing_dggev(a, b, **kwargs):
            n = a.shape[0]
            return np.zeros(n), np.zeros(n), np.zeros(n), None, None, None, n
        monkeypatch.setattr("pzid.ratfit.lapack.dggev", failing_dggev)
        with pytest.raises(NumericError, match="dggev info"):
            poles_and_zeros(random_pf_model(41)[0], 0)

    def test_single_port_default(self):
        model, _, _ = random_pf_model(41)
        poles, zeros = poles_and_zeros(model)
        poles_0, zeros_0 = poles_and_zeros(model, 0)
        assert np.array_equal(poles, poles_0) and np.array_equal(zeros, zeros_0)

    def test_mimo_zeros_need_port(self):
        model = PartialFractionModel(
            np.array([complex(-1, 10), complex(-1, -10)]),
            np.array([[1 + 0j, 1 - 0j], [2 + 0j, 2 - 0j]]),
            np.array([1.0, 2.0]))
        with pytest.raises(UsageError, match="name the port"):
            poles_and_zeros(model)
        poles_and_zeros(model, "p2")


class TestModelValidationAndSerialization:
    def test_conjugate_closure_enforced(self):
        with pytest.raises(ValueError, match="conjugate"):
            PartialFractionModel(np.array([complex(-1, 10), complex(-1, -11)]),
                                 np.array([[1 + 0j, 1 + 0j]]), np.array([0.0]))
        with pytest.raises(ValueError, match="conjugate"):
            PartialFractionModel(np.array([complex(-1, 10), complex(-1, -10)]),
                                 np.array([[1 + 1j, 1 + 1j]]), np.array([0.0]))

    def test_real_pole_needs_real_residue(self):
        with pytest.raises(ValueError, match="complex residue"):
            PartialFractionModel(np.array([complex(-1, 0)]),
                                 np.array([[1 + 1j]]), np.array([0.0]))

    def test_conjugate_symmetric_evaluation(self):
        model, f_lo, f_hi = random_pf_model(51)
        w = np.linspace(f_lo, f_hi, 50) * 2 * np.pi
        up = np.array([np.sum(model.residues[0] / (1j * wi - model.poles))
                       + model.direct[0] for wi in w])
        dn = np.array([np.sum(model.residues[0] / (-1j * wi - model.poles))
                       + model.direct[0] for wi in w])
        assert np.array_equal(up, np.conj(dn))

    def test_unit_norm_convention(self):
        model = PolynomialRatioModel(np.array([3.0, 4.0]), np.array([5.0]), 2.0)
        joint = np.concatenate([model.num_coeffs, model.den_coeffs])
        assert abs(np.linalg.norm(joint) - 1.0) < 1e-15

    def test_save_load_roundtrip_pf(self):
        model, f_lo, f_hi = random_pf_model(61)
        fit, report = fit_common_denominator(sample_model(model, f_lo, f_hi),
                                             FitConfig(order=model.order, iters=20))
        again, rep2 = load_model(save_model(fit, report))
        assert again == fit
        assert rep2 == report and rep2.stop is not None
        assert load_model(save_model(again, rep2))[0] == again

    def test_save_load_roundtrip_rank_deficient_stop(self):
        model, f_lo, f_hi = random_pf_model(61)
        fit, report = fit_common_denominator(sample_model(model, f_lo, f_hi),
                                             FitConfig(order=model.order + 2))
        assert report.stop == "rank-deficient"
        again, rep2 = load_model(save_model(fit, report))
        assert again == fit
        assert rep2 == report and not rep2.converged

    def test_report_saved_without_stop_still_loads(self):
        model, f_lo, f_hi = random_pf_model(61)
        fit, report = fit_common_denominator(sample_model(model, f_lo, f_hi),
                                             FitConfig(order=model.order))
        doc = json.loads(save_model(fit, report))
        del doc["report"]["stop"]
        again, old = load_model(json.dumps(doc))
        assert again == fit
        assert old == dataclasses.replace(report, stop=None)

    def test_save_load_roundtrip_poly(self):
        w = np.linspace(1.0, 100.0, 200)
        h = 1.0 / ((1j * w) ** 2 + 2 * (1j * w) + 101.0)
        model, report = fit_polynomial_ratio(single_port(w / (2 * np.pi), h),
                                             FitConfig(order=2))
        again, _ = load_model(save_model(model, report))
        assert again == model


class TestRoundTripRecoveryProperty:
    def test_both_fitters_recover_random_models(self):
        # the acceptance suite runs the full 50-model batch; spot-check here
        for seed in (1000, 1005, 1010):
            model, f_lo, f_hi = random_pf_model(seed)
            resp = sample_model(model, f_lo, f_hi)
            vf, _ = fit_common_denominator(resp, FitConfig(order=model.order, iters=30))
            assert worst_pole_error(vf.poles, model.poles) < 1e-6
            poly, _ = fit_polynomial_ratio(resp, FitConfig(order=model.order, iters=30))
            ppoles, _ = poles_and_zeros(poly)
            assert worst_pole_error(ppoles, model.poles) < 1e-6


def reference_canonical_pf(poles, residues):
    """Pairwise walk that stored models in canonical order before the
    single sort-based pass; the canonical order must not move."""
    n = poles.size
    used = np.zeros(n, dtype=bool)
    reals, pairs = [], []
    for i in range(n):
        if used[i]:
            continue
        p = poles[i]
        if p.imag == 0.0:
            reals.append(i)
            used[i] = True
            continue
        mates = np.nonzero(~used & (poles == np.conj(p)))[0]
        mates = mates[mates != i]
        j = int(mates[0])
        used[i] = used[j] = True
        pairs.append(i if p.imag > 0 else j)
    reals.sort(key=lambda i: poles[i].real)
    pairs.sort(key=lambda i: (poles[i].imag, poles[i].real))
    order = list(reals)
    for i in pairs:
        order.append(i)
        order.append(int(np.nonzero(poles == np.conj(poles[i]))[0][0]))
    new_p = poles[order].copy()
    new_r = residues[:, order].copy()
    k = len(reals)
    while k < n:
        new_p[k + 1] = np.conj(new_p[k])
        new_r[:, k + 1] = np.conj(new_r[:, k])
        k += 2
    return new_p, new_r


def reference_canonical_eigs(lam):
    """Canonical order the pole relocation gave its eigenvalues."""
    reals = sorted(float(v.real) for v in lam[lam.imag == 0.0])
    reps = sorted((complex(v) for v in lam[lam.imag > 0.0]), key=lambda p: (p.imag, p.real))
    out = [complex(v, 0.0) for v in reals]
    for p in reps:
        out.append(p)
        out.append(np.conj(p))
    return np.asarray(out, dtype=complex)


class TestCanonicalOrder:
    def assert_matches_reference(self, poles, residues):
        got_p, got_r = _canonical_pf(poles, residues)
        ref_p, ref_r = reference_canonical_pf(poles, residues)
        assert np.array_equal(got_p, ref_p) and np.array_equal(got_r, ref_r)

    def test_shuffled_models_match_reference(self):
        rng = np.random.default_rng(7)
        for seed in range(20):
            model, _, _ = random_pf_model(200 + seed)
            n_real = int(rng.integers(0, 3))
            poles = np.concatenate([model.poles, -rng.uniform(1e9, 1e10, n_real)])
            residues = np.hstack([model.residues, rng.standard_normal((1, n_real)) + 0j])
            perm = rng.permutation(poles.size)
            self.assert_matches_reference(poles[perm], residues[:, perm])

    def test_repeated_pair_pairs_kth_with_kth(self):
        p = complex(-1.0, 10.0)
        r1, r2 = complex(1.0, 2.0), complex(3.0, -4.0)
        for layout in ([0, 1, 2, 3], [2, 0, 1, 3], [0, 2, 3, 1], [2, 3, 0, 1]):
            # occurrences of p and of conj(p) each keep their relative order
            slots = {0: (p, r1), 1: (p, r2), 2: (np.conj(p), np.conj(r1)),
                     3: (np.conj(p), np.conj(r2))}
            poles = np.array([slots[k][0] for k in layout])
            residues = np.array([[slots[k][1] for k in layout]])
            self.assert_matches_reference(poles, residues)
            model = PartialFractionModel(poles, residues, np.array([0.0]))
            assert list(model.residues[0]) == [r1, np.conj(r1), r2, np.conj(r2)]

    def test_eigenvalue_order_matches_relocation_reference(self):
        rng = np.random.default_rng(3)
        for n in range(1, 12):
            mat = rng.standard_normal((n, n))
            for lam in (np.linalg.eigvals(mat), np.linalg.eigvals(mat + mat.T)):
                order, n_real = _canonical_order(lam)
                got = lam[order].astype(complex)
                got[n_real + 1::2] = np.conj(got[n_real::2])
                assert np.array_equal(got, reference_canonical_eigs(lam))

    def test_pole_without_mate_rejected(self):
        with pytest.raises(ValueError, match="has no exact conjugate mate"):
            PartialFractionModel(np.array([complex(-1, 10), complex(-1, 10),
                                           complex(-1, -10)]),
                                 np.array([[1 + 0j, 1 + 0j, 1 + 0j]]), np.array([0.0]))

    def test_nonconjugate_residues_rejected(self):
        with pytest.raises(ValueError, match="are not conjugate"):
            PartialFractionModel(np.array([complex(-1, -10), complex(-1, 10)]),
                                 np.array([[1 + 1j, 1 + 1j]]), np.array([0.0]))


@st.composite
def canonical_models(draw):
    """A single-port model of order 0..12 (all real, all pairs or mixed) in
    canonical storage, and real basis coefficients for its poles."""
    n_real = draw(st.integers(0, 12))
    n_pairs = draw(st.integers(0, (12 - n_real) // 2))
    coord = st.floats(-100.0, 100.0)
    pairs = [complex(draw(coord), draw(st.floats(0.01, 100.0))) for _ in range(n_pairs)]
    poles = np.array([complex(draw(coord), 0.0) for _ in range(n_real)]
                     + pairs + [p.conjugate() for p in pairs], dtype=complex)
    x = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=poles.size,
                               max_size=poles.size)))
    model = PartialFractionModel(poles, np.zeros((1, poles.size), dtype=complex),
                                 np.array([0.0]))
    return model, x


def reference_pair_helpers(poles, x):
    """Per-pole loops over the canonical layout: residues, then (A, b, c)."""
    n_real = int(np.count_nonzero(poles.imag == 0))
    n = poles.size
    r = np.empty(n, dtype=complex)
    amat, bvec, cvec = np.zeros((n, n)), np.zeros(n), np.zeros(n)
    for i in range(n_real):
        r[i] = x[i]
        amat[i, i], bvec[i], cvec[i] = poles[i].real, 1.0, x[i]
    for i in range(n_real, n, 2):
        r[i] = x[i] + 1j * x[i + 1]
        r[i + 1] = np.conj(r[i])
        sig, beta = poles[i].real, poles[i].imag
        amat[i:i + 2, i:i + 2] = [[sig, beta], [-beta, sig]]
        bvec[i] = 2.0
        cvec[i], cvec[i + 1] = r[i].real, r[i].imag
    return r, (amat, bvec, cvec)


class TestPairLayout:
    @settings(max_examples=300, derandomize=True)
    @given(canonical_models())
    def test_helpers_read_canonical_storage(self, case):
        model, x = case
        p = model.poles
        scale = max(1.0, float(np.max(np.abs(p), initial=0.0)))
        lam = np.linalg.eigvals(_real_realization(p)[0])
        dist = np.abs(lam[:, None] - p[None, :])
        rows, cols = linear_sum_assignment(dist)
        assert np.all(dist[rows, cols] <= 1e-13 * scale)

        s = 1j * np.array([0.0731, 2.917, 41.37]) + 0.0113
        r = _coeffs_to_residues(p, x)
        ref_r, ref_abc = reference_pair_helpers(p, x)
        assert np.array_equal(r, ref_r)
        for got, ref in zip(_real_realization(p, r), ref_abc):
            assert got.dtype == ref.dtype and np.array_equal(got, ref)
        terms = r / (s[:, None] - p)
        got = _pf_basis(p, s) @ x
        assert np.all(np.abs(got - terms.sum(axis=1))
                      <= 1e-12 * np.abs(terms).sum(axis=1) + 1e-300)

        covered = sorted(i for pair in model.pole_pairs() for i in pair.indices)
        assert covered == list(range(p.size))
        for pair in model.pole_pairs():
            assert pair.pole == p[pair.indices[0]] and pair.pole.imag >= 0
            if len(pair.indices) == 2:
                assert pair.pole.imag > 0 and p[pair.indices[1]] == pair.pole.conjugate()
            else:
                assert pair.pole.imag == 0


def reference_relocate_poles(poles, s, f_mat):
    """Relocation step as it was on NumPy's (dgeqrf-based) QR."""
    n = poles.size
    m = f_mat.shape[1]
    phi = _pf_basis(poles, s)
    phi1 = np.hstack([phi, np.ones((m, 1))])
    blocks = []
    for f in f_mat:
        a = np.hstack([phi1, -f[:, None] * phi1])
        a_ri = np.vstack([a.real, a.imag])
        r = np.linalg.qr(a_ri, mode="r")
        blocks.append(r[n + 1:, n + 1:])
    scale = float(np.linalg.norm([np.linalg.norm(f) for f in f_mat])) / m
    relax_row = np.empty(n + 1)
    relax_row[:n] = np.sum(phi.real, axis=0)
    relax_row[n] = m
    aa = np.vstack(blocks + [scale * relax_row])
    bb = np.zeros(aa.shape[0])
    bb[-1] = scale * m
    col_scale = np.linalg.norm(aa, axis=0)
    col_scale[col_scale == 0.0] = 1.0
    x, *_ = np.linalg.lstsq(aa / col_scale, bb, rcond=None)
    x = x / col_scale
    c_sigma, d_sigma = x[:n], float(x[n])
    if abs(d_sigma) < 1e-8:
        d_sigma = 1e-8 if d_sigma >= 0 else -1e-8
    hmat, bvec, _ = _real_realization(poles)
    hmat -= np.outer(bvec, c_sigma) / d_sigma
    lam = np.linalg.eigvals(hmat)
    order, n_real = _canonical_order(lam)
    new_poles = lam[order].astype(complex)
    new_poles[n_real + 1::2] = np.conj(new_poles[n_real::2])
    return new_poles


def normalized_samples(seed, n_ports, real_pole):
    """Relocation inputs in the fitter's units: s = jw / w_max and one row
    of f per port, each port with its own conjugate-symmetric residues.
    ``real_pole`` adds a real pole to the data, giving it an odd order.
    Returns (order, s, f_mat, w) with w the normalised linear grid."""
    model, f_lo, f_hi = random_pf_model(seed)
    w = 2 * np.pi * np.linspace(f_lo, f_hi, 400)
    w_scale = float(w[-1])
    s = 1j * w / w_scale
    poles = model.poles / w_scale
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n_ports):
        res = model.residues[0] / w_scale * np.repeat(
            np.exp(1j * rng.uniform(0, 2 * np.pi, poles.size // 2)), 2)
        res[1::2] = np.conj(res[::2])
        h = np.sum(res / (s[:, None] - poles), axis=1) + rng.uniform(-1, 1)
        if real_pole:
            h += rng.uniform(0.1, 1.0) / (s + rng.uniform(0.2, 0.8))
        rows.append(h)
    return model.order + real_pole, s, np.array(rows), w / w_scale


class TestRelocationQr:
    @pytest.mark.parametrize("shape", [(40, 4), (40, _QR_NB), (200, 2 * _QR_NB + 3),
                                       (6, 9)])
    def test_r_matches_numpy_qr(self, shape):
        a = np.random.default_rng(shape[1]).standard_normal(shape)
        ref = np.linalg.qr(a, mode="r")
        got = np.triu(_qr_r(np.asfortranarray(a))[:min(shape)])
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_appended_column_is_projected_rhs(self):
        rng = np.random.default_rng(5)
        n = 7
        a = rng.standard_normal((300, 2 * n + 1))
        b = rng.standard_normal(300)
        q, _ = np.linalg.qr(a, mode="reduced")
        r = np.triu(_qr_r(np.asfortranarray(np.column_stack([a, b])))[:2 * n + 2])
        ref = q[:, n + 1:].T @ b
        assert np.max(np.abs(r[n + 1:2 * n + 1, 2 * n + 1] - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n_ports", [1, 3])
    def test_relocation_matches_numpy_qr_reference(self, n_ports):
        # data orders 2..11 on linear grids, where the start poles are
        # spaced linearly.  From order 14 up, the first step off them is so
        # ill-conditioned that two backward-stable QRs agree only to
        # 1e-11..1e-8; the steps after it agree to ~1e-13.
        for seed in (300, 301, 303, 305):
            for real_pole in (False, True):
                n, s, f_mat, w = normalized_samples(seed, n_ports, real_pole)
                poles = _initial_poles(n, w)
                for _ in range(3):
                    ref = reference_relocate_poles(poles, s, f_mat)
                    got, _, _ = relocate(poles, s, f_mat)
                    assert np.all(np.abs(got - ref) <= 1e-11 * np.abs(ref))
                    poles = ref

    def test_lapack_failure_is_numeric_error(self, monkeypatch):
        model, f_lo, f_hi = random_pf_model(300)
        monkeypatch.setattr("pzid.ratfit.lapack.dgeqrt",
                            lambda nb, a, overwrite_a=0: (a, None, -2))
        with pytest.raises(NumericError, match="info -2"):
            fit_common_denominator(sample_model(model, f_lo, f_hi),
                                   FitConfig(order=model.order))


def nodal_impedances(seed):
    """Every node's impedance of a random oracle net, whether each grows
    like s far above the band, and the pencil's pole count."""
    net, poles = random_oracle_net(seed)
    grid = oracle_grid(poles)
    probes = [current_probe(node) for node in net.nodes]
    far = FrequencyGrid(1e3 * grid.f_hi * np.arange(1.0, 5.0))
    grows = [abs(z[1]) > 1.5 * abs(z[0])
             for z in frequency_responses(net, probes, far).values]
    return frequency_responses(net, probes, grid), grows, poles.size


def port_subset(resps, rows):
    return FrequencyResponseSet(resps.grid, tuple(resps.ports[i] for i in rows),
                                tuple(resps.values[i] for i in rows))


class TestOrderProbe:
    @pytest.mark.parametrize("seed", range(200, 212))
    def test_reveals_the_pencil_pole_count(self, seed):
        # a bounded nodal impedance has the pencil's degree; one growing
        # like s has one degree more (no partial-fraction order fits it)
        resps, grows, n = nodal_impedances(seed)
        for k, grow in enumerate(grows):
            assert _aaa_degree(port_subset(resps, [k]), 1e-10, n + 4) == n + grow, k
        assert _aaa_degree(resps, 1e-10, n + 4) == n + any(grows)

    def test_multiport_takes_the_largest_port_degree(self):
        grid = FrequencyGrid(np.linspace(1e9, 10e9, 300))
        rows = []
        for n_pairs in (1, 3, 2):
            w = 2 * np.pi * 1e9 * np.arange(2.0, 2.0 + 2 * n_pairs, 2.0)
            poles = np.concatenate([-0.05 * w + 1j * w, -0.05 * w - 1j * w])
            model = PartialFractionModel(poles, np.ones((1, poles.size)) * 1e9, [0.5])
            rows.append(evaluate_model(model, grid))
        names = (PortLabel("a"), PortLabel("b"), PortLabel("c"))
        resps = FrequencyResponseSet(grid, names, rows)
        assert [_aaa_degree(port_subset(resps, [k]), 1e-10, 10) for k in range(3)] == [2, 6, 4]
        assert _aaa_degree(resps, 1e-10, 10) == 6
        assert _aaa_degree(port_subset(resps, [2, 0]), 1e-10, 10) == 4

    @pytest.mark.parametrize("scale", [1e30, 1e-30])
    def test_rescaling_keeps_the_degree(self, scale):
        resps, _, n = nodal_impedances(201)
        scaled = FrequencyResponseSet(resps.grid, resps.ports, scale * resps.values)
        assert _aaa_degree(scaled, 1e-6, n + 4) == _aaa_degree(resps, 1e-6, n + 4)

    def test_noise_above_the_target_reveals_nothing(self):
        assert _aaa_degree(flat_response(noise=1e-5), 1e-6, 8) is None
        assert _aaa_degree(flat_response(), 1e-6, 8) == 0

    def test_degree_beyond_the_budget_reveals_nothing(self):
        resps, grows, n = nodal_impedances(211)
        bounded = port_subset(resps, [k for k, grow in enumerate(grows) if not grow])
        assert _aaa_degree(bounded, 1e-10, n - 1) == n  # n + 1 support points
        assert _aaa_degree(bounded, 1e-10, n - 2) is None

    def test_dc_sample_is_not_mirrored(self):
        # s = 0 is its own mirror image; a second copy would put a zero
        # distance into the Cauchy matrix once it becomes a support point
        model = PartialFractionModel(np.array([-1e9 + 0j]), np.array([[1e9 + 0j]]), [0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _aaa_degree(sample_model(model, 0.0, 10e9), 1e-8, 8) == 1

    def test_overflowing_peak_reveals_nothing(self):
        f = np.linspace(1e8, 1e9, 200)
        assert _aaa_degree(single_port(f, np.full(f.size, 1e308 + 1e308j)), 1e-6, 8) is None


# ---------------------------------------------------------------------------
# Frozen references: the relocation step, the residue solve and the AAA
# probe as they ran on np.linalg's lstsq, eigvals, qr and svd with fresh
# temporaries each step, and the partial-fraction helpers as per-pole loops
# over one pole set.  The batched steps on direct LAPACK calls must
# reproduce them bit for bit.

def frozen_pf_basis(poles, s):
    n_real = int(np.count_nonzero(poles.imag == 0.0))
    phi = np.empty((s.size, poles.size), dtype=complex)
    for i in range(n_real):
        phi[:, i] = 1.0 / (s - poles[i])
    for i in range(n_real, poles.size, 2):
        u = 1.0 / (s - poles[i])
        v = 1.0 / (s - np.conj(poles[i]))
        phi[:, i] = u + v
        phi[:, i + 1] = 1j * (u - v)
    return phi


def frozen_coeffs_to_residues(poles, x):
    n_real = int(np.count_nonzero(poles.imag == 0.0))
    r = np.array(x, dtype=complex)
    r[n_real::2] = x[n_real::2] + 1j * x[n_real + 1::2]
    r[n_real + 1::2] = np.conj(r[n_real::2])
    return r


def frozen_pole_matrix(poles):
    n_real = int(np.count_nonzero(poles.imag == 0.0))
    amat = np.diag(poles.real)
    pairs = amat[n_real:, n_real:]
    np.fill_diagonal(pairs[::2, 1::2], poles.imag[n_real::2])
    np.fill_diagonal(pairs[1::2, ::2], -poles.imag[n_real::2])
    bvec = np.zeros(poles.size)
    bvec[:n_real] = 1.0
    bvec[n_real::2] = 2.0
    return amat, bvec


def frozen_relocate_poles(poles, s, f_mat):
    n = poles.size
    m = f_mat.shape[1]
    k = 2 * (n + 1)
    phi = frozen_pf_basis(poles, s)
    phi1_ri = np.zeros((2 * m, n + 1), order="F")
    phi1_ri[:m, :n] = phi.real
    phi1_ri[m:, :n] = phi.imag
    phi1_ri[:m, n] = 1.0
    buf = np.empty((2 * m, k), order="F")
    blocks = []
    for f in f_mat:
        buf[:, :n + 1] = phi1_ri
        fphi = -f[:, None] * phi
        buf[:m, n + 1:k - 1] = fphi.real
        buf[m:, n + 1:k - 1] = fphi.imag
        buf[:m, k - 1] = -f.real
        buf[m:, k - 1] = -f.imag
        qr, _, info = lapack.dgeqrt(min(_QR_NB, *buf.shape), buf, overwrite_a=True)
        assert info == 0
        blocks.append(np.triu(qr[:min(buf.shape)])[n + 1:, n + 1:])
    with np.errstate(over="ignore", invalid="ignore"):
        scale = float(np.linalg.norm([np.linalg.norm(f) for f in f_mat])) / m
        relax_row = np.empty(n + 1)
        relax_row[:n] = np.sum(phi.real, axis=0)
        relax_row[n] = m
        aa = np.vstack(blocks + [scale * relax_row])
        bb = np.zeros(aa.shape[0])
        bb[-1] = scale * m
        col_scale = np.linalg.norm(aa, axis=0)
    col_scale[col_scale == 0.0] = 1.0
    x, _, rank, _ = np.linalg.lstsq(aa / col_scale, bb, rcond=None)
    x = x / col_scale
    c_sigma, d_sigma = x[:n], float(x[n])
    if abs(d_sigma) < 1e-8:
        d_sigma = 1e-8 if d_sigma >= 0 else -1e-8
    settled = float(np.linalg.norm(c_sigma)) / abs(d_sigma)
    hmat, bvec = frozen_pole_matrix(poles)
    hmat -= np.outer(bvec, c_sigma) / d_sigma
    lam = np.linalg.eigvals(hmat)
    order, n_real = _canonical_order(lam)
    new_poles = lam[order].astype(complex)
    new_poles[n_real + 1::2] = np.conj(new_poles[n_real::2])
    return new_poles, settled, int(rank)


def frozen_residues(poles, s, f_mat):
    n, m = poles.size, s.size
    phi = frozen_pf_basis(poles, s)
    phi1 = np.hstack([phi, np.ones((m, 1))])
    residues = np.empty((f_mat.shape[0], n), dtype=complex)
    direct = np.empty(f_mat.shape[0])
    a_ri = np.vstack([phi1.real, phi1.imag])
    for kport, f in enumerate(f_mat):
        b_ri = np.concatenate([f.real, f.imag])
        x, *_ = np.linalg.lstsq(a_ri, b_ri, rcond=None)
        residues[kport] = frozen_coeffs_to_residues(poles, x[:n])
        direct[kport] = x[n]
    return residues, direct


def frozen_aaa_degree(resps, rms_target, max_degree):
    omega = resps.grid.omega
    step = -(-omega.size // 200)
    s = 1j * omega[::step] / omega[-1]
    mirror = s != 0.0
    z = np.concatenate([s, -s[mirror]])
    budget = min(max_degree + 2, z.size // 2)
    degree = 0
    for h in resps.values:
        peak = float(np.max(np.abs(h)))
        if not (np.isfinite(peak) and peak > 0.0):
            return None
        f = h[::step] / peak
        f = np.concatenate([f, np.conj(f[mirror])])
        fit = np.full(f.size, np.mean(f))
        free = np.ones(f.size, dtype=bool)
        support = []
        for k in range(budget):
            j = int(np.argmax(np.abs(f - fit)))
            support.append(j)
            free[j] = False
            cauchy = 1.0 / (z[free, None] - z[support])
            try:
                loewner_r = np.linalg.qr(cauchy * (f[free, None] - f[support]), mode="r")
                vh = np.linalg.svd(loewner_r)[2]
            except np.linalg.LinAlgError:
                return None
            w = np.conj(vh[-1])
            fit = f.copy()
            with np.errstate(all="ignore"):
                fit[free] = (cauchy @ (w * f[support])) / (cauchy @ w)
                rms = float(np.sqrt(np.mean(np.abs(f - fit) ** 2)))
            if rms <= rms_target:
                degree = max(degree, k)
                break
        else:
            return None
    return degree


def frozen_aaa_errors(z, f, budget):
    """The inner loop of ``frozen_aaa_degree``, yielding each step's rms."""
    fit = np.full(f.size, np.mean(f))
    free = np.ones(f.size, dtype=bool)
    support = []
    for k in range(budget):
        j = int(np.argmax(np.abs(f - fit)))
        support.append(j)
        free[j] = False
        cauchy = 1.0 / (z[free, None] - z[support])
        try:
            loewner_r = np.linalg.qr(cauchy * (f[free, None] - f[support]), mode="r")
            vh = np.linalg.svd(loewner_r)[2]
        except np.linalg.LinAlgError:
            yield None
            return
        w = np.conj(vh[-1])
        fit = f.copy()
        with np.errstate(all="ignore"):
            fit[free] = (cauchy @ (w * f[support])) / (cauchy @ w)
            rms = float(np.sqrt(np.mean(np.abs(f - fit) ** 2)))
        yield rms


def probe_samples(resps):
    """The AAA probe's sample points z and each port's samples f."""
    omega = resps.grid.omega
    step = -(-omega.size // 200)
    s = 1j * omega[::step] / omega[-1]
    mirror = s != 0.0
    rows = []
    for h in resps.values:
        f = h[::step] / np.max(np.abs(h))
        rows.append(np.concatenate([f, np.conj(f[mirror])]))
    return np.concatenate([s, -s[mirror]]), rows


def probe_inputs():
    sets = [nodal_impedances(seed)[0] for seed in (200, 203, 207, 211)]
    return sets + [sample_model(wideband_model(), 1e6, 40e9, n=2000, log=True),
                   overmodel_response(3), flat_response(noise=1e-6), flat_response()]


def relocation_inputs():
    """(label, order, s, f_mat, start poles) in the fitter's units: random
    models with 1 and 3 ports and even and odd orders, the wideband model on
    2000 log-spaced points and two noisy responses."""
    cases = []
    for seed in (300, 301, 303, 305):
        for n_ports in (1, 3):
            for real_pole in (False, True):
                n, s, f_mat, w = normalized_samples(seed, n_ports, real_pole)
                cases.append((f"{seed}/{n_ports}/{n}", n, s, f_mat, _initial_poles(n, w)))
    for label, resps, n in (("wideband", sample_model(wideband_model(), 1e6, 40e9,
                                                       n=2000, log=True), 20),
                            ("overmodel", overmodel_response(3), 6),
                            ("flat", flat_response(noise=1e-4), 5)):
        w = resps.grid.omega / resps.grid.omega[-1]
        cases.append((label, n, 1j * w, resps.values, _initial_poles(n, w)))
    return cases


def residues_alone(buffers, poles):
    """The residue solve of a batch of one: (residues, direct)."""
    residues, direct, failed = buffers.residues([0], poles[None], [_n_real(poles)])
    assert not failed
    return residues[0], direct[0]


class TestFrozenReferences:
    @pytest.mark.parametrize("case", relocation_inputs(), ids=lambda case: case[0])
    def test_walk_and_residues_are_bit_identical(self, case):
        # one buffer set carries the whole walk, as in _PoleWalk's batch of one
        _, n, s, f_mat, poles = case
        buffers = _Relocation(s, f_mat[None], n)
        for _ in range(4):
            got, settled, rank = step_alone(buffers, poles)
            ref, ref_settled, ref_rank = frozen_relocate_poles(poles, s, f_mat)
            assert same_bits(got, ref)
            assert same_bits(settled, ref_settled) and rank == ref_rank
            residues, direct = residues_alone(buffers, got)
            ref_residues, ref_direct = frozen_residues(got, s, f_mat)
            assert same_bits(residues, ref_residues) and same_bits(direct, ref_direct)
            poles = got

    def test_order_zero_residues_are_bit_identical(self):
        resps = flat_response(noise=1e-4)
        s = 1j * resps.grid.omega / resps.grid.omega[-1]
        got = residues_alone(_Relocation(s, resps.values[None], 0), np.zeros(0, dtype=complex))
        ref = frozen_residues(np.zeros(0, dtype=complex), s, resps.values)
        assert all(same_bits(a, b) for a, b in zip(got, ref))

    def test_probe_steps_are_bit_identical(self):
        # every step's rms, with no target to stop the walk early
        for resps in probe_inputs():
            z, rows = probe_samples(resps)
            for f in rows:
                got = list(_aaa_errors(z, f, min(26, z.size // 2)))
                ref = list(frozen_aaa_errors(z, f, min(26, z.size // 2)))
                assert None not in ref and same_bits(np.array(got), np.array(ref))

    @pytest.mark.parametrize("target", [1e-4, 1e-6, 1e-8, 1e-10, 1e-12])
    def test_probe_reveals_the_same_degree(self, target):
        for resps in probe_inputs():
            for max_degree in (4, 12, 24):
                assert (_aaa_degree(resps, target, max_degree)
                        == frozen_aaa_degree(resps, target, max_degree))


def walk_poles(walks, interleaved):
    """Each walk's pole sets, the walks (batches of one) stepped in turn or
    one after another, then each walk's finished model."""
    seen = [[] for _ in walks]
    iters = [iter(walk) for walk in walks]
    if interleaved:
        active = list(range(len(walks)))
        while active:
            for i in list(active):
                try:
                    seen[i].extend(next(iters[i]))
                except StopIteration:
                    active.remove(i)
    else:
        for i, it in enumerate(iters):
            seen[i].extend(poles for (poles,) in it)
    return seen, [walk.finish()[0][0] for walk in walks]


class TestWalkBuffers:
    def test_interleaved_walks_match_walks_one_after_another(self):
        # same order, different response sets and port counts: buffers that
        # leaked between walks would mix their systems
        n, s, f_mat, w = normalized_samples(301, 3, False)
        one = FrequencyResponseSet(FrequencyGrid(w * 1e9 / (2 * np.pi)),
                                   tuple(PortLabel(f"p{i}") for i in range(3)), f_mat)
        other = sample_model(wideband_model(), 1e6, 40e9, n=2000, log=True)

        def walks():
            return [_PoleWalk((one,), FitConfig(order=n)),
                    _PoleWalk((other,), FitConfig(order=n)),
                    _PoleWalk((other,), FitConfig(order=n + 2))]

        steps_apart, models_apart = walk_poles(walks(), interleaved=False)
        steps_mixed, models_mixed = walk_poles(walks(), interleaved=True)
        for apart, mixed in zip(steps_apart, steps_mixed):
            assert len(apart) == len(mixed) >= 2
            assert all(same_bits(a, b) for a, b in zip(apart, mixed))
        assert models_apart == models_mixed


# flat_response's grid, which every member of a batch shares
BATCH_GRID = FrequencyGrid(np.linspace(1e8, 1e9, 200))


def on_batch_grid(poles, residues, noise=0.0, seed=0):
    """One port of sum r / (s - p) + 1 on BATCH_GRID, with poles and
    residues in units of 2 pi GHz, times 1 + ``noise`` complex Gaussian."""
    scale = 2 * np.pi * 1e9
    model = PartialFractionModel(np.asarray(poles) * scale, np.asarray([residues]) * scale,
                                 [1.0])
    h = evaluate_model(model, BATCH_GRID, 0)
    rng = np.random.default_rng(seed)
    h = h * (1.0 + noise * (rng.standard_normal(h.size) + 1j * rng.standard_normal(h.size)))
    return single_port(BATCH_GRID.freqs_hz, h)


def stop_members():
    """Response sets on BATCH_GRID whose order-4 fits end on every stop a
    relocation walk can take, and hold 0 or 2 real poles on its first step."""
    tanks = ([-0.02 + 0.3j, -0.02 - 0.3j, 0.01 + 0.7j, 0.01 - 0.7j],
             [0.05 + 0.01j, 0.05 - 0.01j, 0.02, 0.02])
    tank = ([-0.03 + 0.4j, -0.03 - 0.4j], [0.05, 0.05])
    return {"two tanks": on_batch_grid(*tanks),
            "tank and two reals": on_batch_grid([-0.2, -0.6, -0.02 + 0.5j, -0.02 - 0.5j],
                                                [0.1, 0.3, 0.05, 0.05]),
            "one tank": on_batch_grid(*tank),
            "settling tanks": on_batch_grid(*tanks, noise=1e-8, seed=3),
            "noisy tank": on_batch_grid(*tank, noise=1e-3),
            "flat": flat_response(noise=1e-4)}


def walk_batch(batch, cfg):
    """One walk of the whole batch: the walk, each member's pole sets step
    by step, and each member's outcome."""
    walk = _PoleWalk(batch, cfg)
    steps = [[] for _ in walk.batch]
    for stepped in walk:
        for seen, poles in zip(steps, stepped):
            if poles is not None:
                seen.append(poles)
    return walk, steps, walk.finish()


def walk_alone(resps, cfg):
    """A walk of one member: its pole sets and its outcome."""
    walk = _PoleWalk((resps,), cfg)
    return [poles for (poles,) in walk], walk.finish()[0]


def assert_same_fit(steps, outcome, ref_steps, ref_outcome):
    """The same pole sets at every step, and the same model and report, bit
    for bit."""
    assert len(steps) == len(ref_steps) >= 1
    assert all(same_bits(a, b) for a, b in zip(steps, ref_steps))
    (model, report), (ref_model, ref_report) = outcome, ref_outcome
    assert model == ref_model and report == ref_report
    assert all(same_bits(getattr(model, name), getattr(ref_model, name))
               for name in ("poles", "residues", "direct"))


class TestBatchedWalk:
    # a batch shares one relocation walk, and each member's fit equals its
    # fit alone, bit for bit
    def test_members_end_on_every_stop(self):
        members = stop_members()
        cfg = FitConfig(order=4)
        walk, steps, outcomes = walk_batch(members.values(), cfg)
        assert dict(zip(members, walk.stop)) == {
            "two tanks": "pole-move", "tank and two reals": "pole-move",
            "one tank": "rank-deficient", "settling tanks": "sigma-settled",
            "noisy tank": "iteration-cap", "flat": "iteration-cap"}
        assert {_n_real(poles[0]) for poles in steps} == {0, 2}
        for resps, seen, outcome in zip(members.values(), steps, outcomes):
            assert_same_fit(seen, outcome, *walk_alone(resps, cfg))
            assert outcome == fit_common_denominator(resps, cfg)

    def test_odd_order_beside_even_layouts(self):
        # at order 5 the members hold 1 or 3 real poles, and the flat
        # response's walk moves between the two
        members = stop_members()
        cfg = FitConfig(order=5)
        _, steps, outcomes = walk_batch(members.values(), cfg)
        assert {_n_real(poles[0]) for poles in steps} == {1, 3}
        for resps, seen, outcome in zip(members.values(), steps, outcomes):
            assert_same_fit(seen, outcome, *walk_alone(resps, cfg))

    def test_three_port_members(self):
        # four 3-port sets on one grid, two with a real pole in their data
        _, _, _, w = normalized_samples(301, 3, False)
        grid = FrequencyGrid(w * 1e9 / (2 * np.pi))
        ports = tuple(PortLabel(f"p{i}") for i in range(3))
        members = [FrequencyResponseSet(grid, ports, normalized_samples(seed, 3, real)[2])
                   for seed, real in ((300, False), (301, True), (303, False), (305, True))]
        for cfg in (FitConfig(order=6), FitConfig(order=7, iters=4)):
            _, steps, outcomes = walk_batch(members, cfg)
            for resps, seen, outcome in zip(members, steps, outcomes):
                assert_same_fit(seen, outcome, *walk_alone(resps, cfg))

    def test_a_member_that_fails_at_once_leaves_the_batch(self):
        members = list(stop_members().values())
        huge = single_port(BATCH_GRID.freqs_hz, np.full(200, 1e200 + 0j))
        batch = members[:2] + [huge] + members[2:]
        cfg = FitConfig(order=4)
        walk, steps, outcomes = walk_batch(batch, cfg)
        assert isinstance(outcomes[2], NumericError) and outcomes[2] is walk.failures[2]
        assert "overflows the column scaling" in str(outcomes[2]) and steps[2] == []
        with pytest.raises(NumericError, match="overflows the column scaling"):
            fit_common_denominator(huge, cfg)
        for resps, seen, outcome in zip(members, steps[:2] + steps[3:],
                                        outcomes[:2] + outcomes[3:]):
            assert_same_fit(seen, outcome, *walk_alone(resps, cfg))

    def test_a_member_that_fails_partway_leaves_the_batch(self, monkeypatch):
        # every member takes a second step; the eigenproblem of the third
        # member's second step fails
        members = list(stop_members().values())
        cfg = FitConfig(order=4)
        alone = [walk_alone(resps, cfg) for resps in members]
        calls = []
        dgeev = lapack.dgeev

        def third_fails_second(*args, **kwargs):
            calls.append(len(calls))
            if len(calls) == len(members) + 3:
                return None, None, None, None, 1
            return dgeev(*args, **kwargs)

        monkeypatch.setattr("pzid.ratfit.lapack.dgeev", third_fails_second)
        walk, steps, outcomes = walk_batch(members, cfg)
        assert str(outcomes[2]) == ("defective relocation eigenproblem: "
                                    "Eigenvalues did not converge")
        assert walk.stop[2] is None and walk.iters_used[2] == 1
        assert len(steps[2]) == 1 and same_bits(steps[2][0], alone[2][0][0])
        for j, (seen, outcome) in enumerate(zip(steps, outcomes)):
            if j != 2:
                assert_same_fit(seen, outcome, *alone[j])

    def test_a_member_that_leaves_changes_no_other_member(self):
        members = list(stop_members().values())
        cfg = FitConfig(order=4)
        alone = [walk_alone(resps, cfg) for resps in members]
        assert len(alone[1][0]) > 1  # alone, it walks on after its first step
        walk = _PoleWalk(members, cfg)
        steps = [[] for _ in members]
        for stepped in walk:
            for seen, poles in zip(steps, stepped):
                if poles is not None:
                    seen.append(poles)
            walk.leave(1)
        outcomes = walk.finish()
        assert walk.left == [False, True, False, False, False, False]
        assert outcomes[1] is None and walk.stop[1] is None and walk.iters_used[1] == 1
        assert len(steps[1]) == 1 and same_bits(steps[1][0], alone[1][0][0])
        for j, (seen, outcome) in enumerate(zip(steps, outcomes)):
            if j != 1:
                assert_same_fit(seen, outcome, *alone[j])

    def test_batches_of_every_size_fit_alike(self, monkeypatch):
        members = list(stop_members().values())
        cfg = FitConfig(order=4)
        whole = ratfit._fit_batch(members, cfg)
        monkeypatch.setattr(ratfit, "_BATCH_MEMBERS", 4)
        assert ratfit._fit_batch(members, cfg) == whole
        assert whole == [fit_common_denominator(resps, cfg) for resps in members]
        assert ratfit._fit_batch([], cfg) == []

    def test_a_poles_only_batch_ends_at_each_members_model_poles(self, monkeypatch):
        members = list(stop_members().values())
        huge = single_port(BATCH_GRID.freqs_hz, np.full(200, 1e200 + 0j))
        batch = members[:3] + [huge] + members[3:]
        cfg = FitConfig(order=4)
        models = [fit_common_denominator(resps, cfg)[0] for resps in members]
        monkeypatch.setattr(ratfit, "_BATCH_MEMBERS", 4)
        monkeypatch.setattr(_Relocation, "residues", None)  # no residue solve runs
        outcomes = ratfit._batch_poles(batch, cfg)
        assert isinstance(outcomes[3], NumericError)
        assert "overflows the column scaling" in str(outcomes[3])
        for poles, model in zip(outcomes[:3] + outcomes[4:], models):
            assert same_bits(poles, model.poles)
        assert ratfit._batch_poles([], cfg) == []

    def test_members_share_one_grid(self):
        other = flat_response()
        other = single_port(other.grid.freqs_hz * 2.0, other.values[0])
        with pytest.raises(ValueError, match="one frequency grid"):
            _PoleWalk((flat_response(), other), FitConfig(order=2))

    def test_order_above_the_budget_is_refused_before_any_step(self):
        with pytest.raises(UsageError, match="point budget"):
            ratfit._fit_batch([flat_response(), flat_response(noise=1e-4)],
                              FitConfig(order=200))


def failing(info, *out):
    """A LAPACK wrapper stand-in that returns ``out`` and then ``info``."""
    return lambda *args, **kwargs: (*out, info)


class TestLapackFailures:
    # each direct LAPACK call fails with the NumericError text, or the
    # probe's None, that the np.linalg call it replaces gave
    def fit(self, order=None):
        model, f_lo, f_hi = random_pf_model(300)
        return fit_common_denominator(sample_model(model, f_lo, f_hi),
                                      FitConfig(order=model.order if order is None else order))

    def test_relocation_least_squares(self, monkeypatch):
        monkeypatch.setattr("pzid.ratfit.lapack.dgelsd", failing(1, None, None, 0))
        with pytest.raises(NumericError, match=r"^relocation least squares failed: "
                                               r"SVD did not converge in Linear Least Squares$"):
            self.fit()

    def test_residue_least_squares(self, monkeypatch):
        monkeypatch.setattr("pzid.ratfit.lapack.dgelsd", failing(1, None, None, 0))
        with pytest.raises(NumericError, match=r"^residue least squares failed: "
                                               r"SVD did not converge in Linear Least Squares$"):
            self.fit(order=0)

    def test_relocation_eigenproblem(self, monkeypatch):
        monkeypatch.setattr("pzid.ratfit.lapack.dgeev", failing(1, None, None, None, None))
        with pytest.raises(NumericError, match=r"^defective relocation eigenproblem: "
                                               r"Eigenvalues did not converge$"):
            self.fit()

    def test_non_finite_eigenproblem_is_refused_before_lapack(self, monkeypatch):
        realization = ratfit._real_realization

        def with_inf(*args, **kwargs):
            amat, bvec, cvec = realization(*args, **kwargs)
            amat[0, 0] = np.inf
            return amat, bvec, cvec

        monkeypatch.setattr(ratfit, "_real_realization", with_inf)
        monkeypatch.setattr("pzid.ratfit.lapack.dgeev", None)  # must not be called
        with pytest.raises(NumericError, match=r"^defective relocation eigenproblem: "
                                               r"Array must not contain infs or NaNs$"):
            self.fit()

    @pytest.mark.parametrize("name, out", [("zgeqrf", (None, None, None)),
                                           ("zgesdd", (None, None, None))])
    def test_probe_reveals_nothing(self, monkeypatch, name, out):
        calls = []
        fail = failing(-1, *out)
        monkeypatch.setattr(f"pzid.ratfit.lapack.{name}",
                            lambda *args, **kwargs: calls.append(name) or fail())
        assert _aaa_degree(flat_response(), 1e-6, 8) is None
        assert calls == [name]

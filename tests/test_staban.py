import json

import numpy as np
import pytest

from fixtures import (COMBINER_GRID, DOUBLE_RESONATOR_GRID, TWO_STAGE_GRID, combiner,
                      double_resonator, flat_response, overmodel_response,
                      random_pf_model, two_stage)
from pzid import staban
from pzid.errors import UsageError
from pzid.freqresp import FrequencyGrid, FrequencyResponseSet, PortLabel
from pzid.netsim import (analytic_poles, current_probe, frequency_response,
                         frequency_responses, modal_probe)
from pzid.ratfit import FitConfig, PartialFractionModel, fit_common_denominator
from pzid.staban import (_RHO_GUARD, OrderScan, StabilityConfig, auto_identify,
                         classify_poles, detect_quasi_cancellations, rank_ports,
                         rho_factor, rho_matrix, serialize_verdict,
                         subband_consistency_check)

RHO_PAIR_MODEL = PartialFractionModel(
    np.array([complex(-1, 10), complex(-1, -10)]),
    np.array([[1 + 0j, 1 - 0j]]), np.array([1.0]))


class TestClassifyPoles:
    def test_basic_classes(self):
        out = classify_poles([complex(-1, 1)], 0.0)
        assert out[0].label == "stable"

    def test_unstable_at_resonance(self):
        out = classify_poles([complex(1e8, 2 * np.pi * 1.4e9)], 0.0)
        assert out[0].label == "unstable"
        assert abs(out[0].resonant_freq_hz - 1.4e9) < 1.0

    def test_marginal_band(self):
        out = classify_poles([complex(0, 5)], 1e-3)
        assert out[0].label == "marginal"

    def test_sorted_by_descending_real(self):
        out = classify_poles([complex(-3, 0), complex(2, 1), complex(-1, 5)], 0.0)
        assert [cp.value.real for cp in out] == [2, -1, -3]

    def test_conjugates_share_class(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            p = complex(rng.standard_normal(), rng.standard_normal())
            tol = abs(rng.standard_normal()) * 0.1
            a, b = classify_poles([p, np.conj(p)], tol)
            assert a.label == b.label

    def test_damping(self):
        cp = classify_poles([complex(-3, 4)], 0.0)[0]
        assert abs(cp.damping - 0.6) < 1e-15


class TestQuasiCancellations:
    def test_exact_cancellation(self):
        out = detect_quasi_cancellations([complex(-1, 10)], [complex(-1, 10)], 0.05)
        assert len(out) == 1 and out[0].rel_distance == 0.0

    def test_distant_zero_not_reported(self):
        out = detect_quasi_cancellations([complex(-1, 10)], [complex(-1, 1000)], 0.05)
        assert out == []

    def test_assignment_beats_greedy(self):
        # greedy would bind z=10.4 to p=10.5 first, leaving p=10.0 with z=11.0
        # (total 2% + 10%); the optimal assignment pairs 10.0-10.4, 10.5-11.0
        poles = [complex(0, 10.0), complex(0, 10.5)]
        zeros = [complex(0, 10.4), complex(0, 11.0)]
        out = detect_quasi_cancellations(poles, zeros, 0.06)
        pairs = {(q.pole.imag, q.zero.imag) for q in out}
        assert pairs == {(10.0, 10.4), (10.5, 11.0)}

    def test_2x2_assignment_matches_enumeration(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            out = detect_quasi_cancellations(p, z, 0.999999, omega_floor=1e-12)
            straight = abs(p[0] - z[0]) + abs(p[1] - z[1])
            crossed = abs(p[0] - z[1]) + abs(p[1] - z[0])
            got = sum(abs(q.pole - q.zero) for q in out)
            if len(out) == 2:
                assert got <= min(straight, crossed) + 1e-12

    def test_threshold_domain(self):
        with pytest.raises(UsageError):
            detect_quasi_cancellations([1j], [1j], 1.5)


class TestRhoFactor:
    def test_pair_with_unit_direct(self):
        rho = rho_factor(RHO_PAIR_MODEL, 0, 0)
        assert abs(rho - np.sqrt(404.0) / np.sqrt(401.0)) < 1e-12

    def test_zero_residues(self):
        m = PartialFractionModel(np.array([complex(-1, 10), complex(-1, -10)]),
                                 np.array([[0j, 0j]]), np.array([1.0]))
        assert rho_factor(m, 0, 0) == 0.0

    def test_large_direct_swamps(self):
        m = PartialFractionModel(RHO_PAIR_MODEL.poles, RHO_PAIR_MODEL.residues,
                                 np.array([100.0]))
        expect = np.sqrt(404.0) / np.sqrt(401.0) / 100.0
        assert abs(rho_factor(m, 0, 0) - expect) < 1e-12

    def test_whole_response_is_pair(self):
        m = PartialFractionModel(RHO_PAIR_MODEL.poles, RHO_PAIR_MODEL.residues,
                                 np.array([0.0]))
        assert rho_factor(m, 0, 0) == float("inf")

    def test_scale_invariance(self):
        for seed in range(5):
            model, _, _ = random_pf_model(seed + 300)
            scaled = PartialFractionModel(model.poles, model.residues * 17.3,
                                          model.direct * 17.3)
            for k in range(len(model.pole_pairs())):
                a = rho_factor(model, 0, k)
                b = rho_factor(scaled, 0, k)
                assert abs(a - b) <= 1e-12 * max(a, 1.0)

    def test_real_pole_uses_zero_frequency(self):
        m = PartialFractionModel(np.array([complex(-2, 0)]),
                                 np.array([[4.0 + 0j]]), np.array([1.0]))
        # H_pair(0) = 4/(0-(-2)) = 2; rest = 1
        assert abs(rho_factor(m, 0, 0) - 2.0) < 1e-15


class TestSubbandConsistency:
    def test_true_pole_is_physical_at_all_widths(self):
        resp = overmodel_response(seed=0)
        suspect = complex(+2e8, 2 * np.pi * 6e9)
        cfg = StabilityConfig(rms_target=1e-4)
        # the last three sub-bands hold 9, 7 and 5 points: their top usable
        # orders meet the rms target but cannot afford the order+2 fit
        out = subband_consistency_check(resp, suspect,
                                        (9e9, 4.5e9, 2.25e9, 2e8, 1.6e8, 1.13e8),
                                        range(2, 9), cfg)
        assert out == "physical"

    def test_orders_may_be_a_generator(self):
        # every width scans the orders, so a one-shot iterable is read once
        resp = overmodel_response(seed=0)
        out = subband_consistency_check(resp, complex(+2e8, 2 * np.pi * 6e9),
                                        (9e9, 4.5e9), (n for n in range(2, 9)),
                                        StabilityConfig(rms_target=1e-4))
        assert out == "physical"

    def test_out_of_band_suspect_rejected(self):
        resp = overmodel_response(seed=0)
        with pytest.raises(UsageError, match="outside the grid"):
            subband_consistency_check(resp, complex(1e8, 2 * np.pi * 99e9),
                                      (9e9,), range(2, 9))

    def test_too_narrow_subband(self):
        resp = overmodel_response(seed=0)
        with pytest.raises(UsageError, match="too narrow|grid points"):
            subband_consistency_check(resp, complex(2e8, 2 * np.pi * 6e9),
                                      (1e6,), range(2, 9))


class TestAutoIdentify:
    def test_underfitting_misses_instability(self):
        resp = overmodel_response(seed=0)
        cfg = StabilityConfig(rms_target=1e-4)
        v = auto_identify(resp, [2], cfg)
        assert v.stable and not v.scan.converged

    def test_adequate_order_detects(self):
        resp = overmodel_response(seed=0)
        cfg = StabilityConfig(rms_target=1e-4)
        v = auto_identify(resp, [4], cfg)
        assert not v.stable
        assert len(v.critical_poles) == 2

    def test_scan_selects_smallest_adequate_order(self):
        resp = overmodel_response(seed=0)
        cfg = StabilityConfig(rms_target=1e-4)
        v = auto_identify(resp, range(2, 9), cfg)
        assert v.scan.model.order == 4 and not v.stable
        assert len(v.critical_poles) == 2

    @pytest.mark.parametrize("rho_floor", [1e-4, 1e300])
    def test_orders_may_be_a_generator(self, rho_floor):
        # the scan, the skipped-order note and the sub-band check (every
        # RHP pair under a floor of 1e300) each read the orders
        resp = overmodel_response(seed=0)
        cfg = StabilityConfig(rms_target=1e-4, rho_floor=rho_floor)
        v = auto_identify(resp, (n for n in range(2, 9)), cfg)
        assert v.notes == ("orders 2, 3 not scanned: the AAA probe revealed degree 4",)
        assert serialize_verdict(v) == serialize_verdict(auto_identify(resp, range(2, 9), cfg))

    def test_constant_response_selects_order_zero(self):
        from pzid.freqresp import FrequencyResponseSet, PortLabel
        f = np.linspace(1e8, 1e9, 100)
        resp = FrequencyResponseSet(FrequencyGrid(f), (PortLabel("p1"),),
                                    (np.full(100, 2.0 + 0j),))
        v = auto_identify(resp, range(0, 5), StabilityConfig())
        assert v.scan.model.order == 0 and v.stable
        assert v.scan.model.poles.size == 0

    def test_netsim_fixture_matches_oracle(self):
        net = two_stage()
        truth = analytic_poles(net)
        mimo = frequency_responses(net, [current_probe("n1"), current_probe("n2")],
                                   TWO_STAGE_GRID, port_names=["stage1", "stage2"])
        v = auto_identify(mimo, range(2, 9), StabilityConfig())
        assert not v.stable
        worst = max(np.min(np.abs(v.scan.model.poles - p)) / abs(p) for p in truth)
        assert worst < 1e-6

    def test_overmodeled_fit_prunes_rhp_artifact(self):
        # force the over-modeled order so the internal rho routing and
        # sub-band pruning must clean up the verdict themselves
        cfg = StabilityConfig(rms_target=1e-4)
        for seed in range(20):
            resp = overmodel_response(seed)
            m6, _ = fit_common_denominator(resp, FitConfig(order=6, iters=12))
            if int(np.sum(m6.poles.real > 0)) != 4:
                continue  # artifact pair landed in the LHP for this seed
            v = auto_identify(resp, [6], cfg)
            assert not v.stable
            assert len(v.critical_poles) == 2  # artifact pair pruned, true pair kept
            assert any("numerical" in line for line in v.audit)
            assert any(qc.origin == "numerical-overmodeling" for qc in v.cancellations)
            return
        pytest.fail("no seed produced an RHP over-modeling artifact")

    @pytest.mark.parametrize("n_points", [22, 24])
    def test_short_grid_routes_to_subbands_without_budget_error(self, n_points):
        # rho_floor 1e300 sends every RHP pair to the sub-band check, whose
        # narrow bands cannot afford the order+2 persistence fit
        resp = overmodel_response(seed=0)
        idx = np.linspace(0, len(resp.grid) - 1, n_points).round().astype(int)
        short = FrequencyResponseSet(FrequencyGrid(resp.grid.freqs_hz[idx]), resp.ports,
                                     (resp.values[0][idx],))
        v = auto_identify(short, range(2, 9),
                          StabilityConfig(rms_target=1e-4, rho_floor=1e300))
        assert not v.stable and v.scan.model.order == 4

    def test_deterministic(self):
        resp = overmodel_response(seed=3)
        cfg = StabilityConfig(rms_target=1e-4)
        a = serialize_verdict(auto_identify(resp, range(2, 9), cfg))
        b = serialize_verdict(auto_identify(resp, range(2, 9), cfg))
        assert a == b

    def test_orders_must_ascend(self):
        resp = overmodel_response(seed=0)
        with pytest.raises(UsageError):
            auto_identify(resp, [4, 2], StabilityConfig())


class TestOrderScanRecord:
    def test_steps_carry_each_orders_own_fit(self):
        # the AAA probe reveals degree 4, so orders 2 and 3 are not fitted
        resp = overmodel_response(seed=0)
        v = auto_identify(resp, range(2, 9), StabilityConfig(rms_target=1e-4))
        scan = v.scan
        assert scan.revealed == 4
        assert [step.order for step in scan.steps] == [4]
        model, report = fit_common_denominator(resp, FitConfig(order=4))
        assert scan.steps[0].report == report and scan.model == model
        assert scan.converged and scan.model.order == 4
        assert scan.steps[0].persisted is True and scan.steps[0].drifted is None
        assert v.notes == ("orders 2, 3 not scanned: the AAA probe revealed degree 4",)

    def test_without_a_revealed_degree_the_scan_walks_up(self, monkeypatch):
        monkeypatch.setattr(staban, "_aaa_degree",
                            lambda resps, rms_target, max_degree: None)
        resp = overmodel_response(seed=0)
        v = auto_identify(resp, range(2, 9), StabilityConfig(rms_target=1e-4))
        scan = v.scan
        assert scan.revealed is None and v.notes == ()
        assert [step.order for step in scan.steps] == [2, 3, 4]
        for step in scan.steps:
            _, report = fit_common_denominator(resp, FitConfig(order=step.order))
            assert step.report == report
        assert scan.converged and scan.model.order == 4
        assert scan.steps[-1].persisted is True and scan.steps[-1].drifted is None
        assert all(step.persisted is not True for step in scan.steps[:-1])
        assert scan.model == fit_common_denominator(resp, FitConfig(order=4))[0]

    @pytest.mark.parametrize("revealed, first", [(1, 2), (2, 2), (4, 3), (6, 6), (20, 8)])
    def test_scan_starts_at_the_largest_order_within_the_degree(self, monkeypatch,
                                                                revealed, first):
        monkeypatch.setattr(staban, "_aaa_degree", lambda resps, rms_target,
                            max_degree: revealed)
        scan = auto_identify(overmodel_response(seed=0), (2, 3, 6, 8),
                             StabilityConfig(rms_target=1e-4)).scan
        assert scan.revealed == revealed and scan.steps[0].order == first

    def test_flat_response_fails_persistence(self, monkeypatch):
        resp = flat_response()
        fitted = []

        def recording_fit(resps, cfg):
            if resps is resp:
                fitted.append(cfg.order)
            return fit_common_denominator(resps, cfg)

        monkeypatch.setattr(staban, "fit_common_denominator", recording_fit)
        v = auto_identify(resp, range(2, 7))
        assert sorted(fitted) == list(range(2, 9))  # orders 2..6 and their +2, once each
        assert [step.order for step in v.scan.steps] == [2, 3, 4, 5, 6]
        assert all(step.report.rms_rel_error <= 1e-6 for step in v.scan.steps)
        assert all(step.persisted is False for step in v.scan.steps)
        assert all(isinstance(step.drifted, complex) for step in v.scan.steps)
        assert not v.scan.converged
        assert v.notes == ("no order in 2..6 passed the selection rule (rms <= 1e-06 "
                           "plus pole persistence); best attempt order 2",)

    def test_overmodeled_persistence_fit_stops_rank_deficient(self, monkeypatch):
        # exact data of true order 4: the order-6 persistence fit has two
        # spare poles, so it ends on the settled rank deficit, not the cap
        net = double_resonator()
        resp = frequency_response(net, current_probe("A"), DOUBLE_RESONATOR_GRID)
        reports = {}

        def recording_fit(resps, cfg):
            model, report = fit_common_denominator(resps, cfg)
            if resps is resp:
                reports[cfg.order] = report
            return model, report

        monkeypatch.setattr(staban, "fit_common_denominator", recording_fit)
        v = auto_identify(resp, range(2, 7))
        assert v.scan.model.order == 4 and not v.stable
        truth = analytic_poles(net)
        unstable = truth[truth.real > 0]
        crit = np.array([cp.value for cp in v.critical_poles])
        assert crit.size == 2
        assert max(np.min(np.abs(crit - p)) / abs(p) for p in unstable) <= 1e-6
        assert reports[6].stop == "rank-deficient" and reports[6].iters_used <= 4

    def test_noise_misses_the_rms_target(self):
        v = auto_identify(flat_response(noise=1e-4), range(2, 9))
        assert [step.order for step in v.scan.steps] == list(range(2, 9))
        assert all(step.persisted is None and step.drifted is None
                   for step in v.scan.steps)
        assert not v.scan.converged
        assert v.notes == ("no order in 2..8 passed the selection rule (rms <= 1e-06 "
                           "plus pole persistence); best attempt order 6",)

    def test_report_renders_the_scan(self):
        v = auto_identify(flat_response(), range(2, 7))
        doc = json.loads(serialize_verdict(v))
        assert doc["converged"] is False and doc["selected_order"] == v.scan.model.order
        assert doc["order_scan"] == [
            {"order": step.order, "rms_rel_error": step.report.rms_rel_error}
            for step in v.scan.steps]


class TestRankPorts:
    def verdict(self):
        mimo = frequency_responses(two_stage(),
                                   [current_probe("n1"), current_probe("n2")],
                                   TWO_STAGE_GRID, port_names=["stage1", "stage2"])
        return auto_identify(mimo, range(2, 9), StabilityConfig())

    def test_unstable_stage_ranks_first(self):
        v = self.verdict()
        k = next(i for i, p in enumerate(v.rho.pair_poles) if p.real > 0)
        ranking = rank_ports(v, k)
        assert ranking[0][0] == "stage2"
        assert ranking[0][1] / ranking[1][1] >= 1e3

    def test_singleton(self):
        model = RHO_PAIR_MODEL
        rm = rho_matrix(model)
        assert rm.values.shape == (1, 1)

    def test_tie_breaks_by_declaration_order(self):
        m = PartialFractionModel(
            np.array([complex(-1, 10), complex(-1, -10)]),
            np.array([[1 + 0j, 1 - 0j], [1 + 0j, 1 - 0j]]),
            np.array([1.0, 1.0]), ("pa", "pb"))
        from pzid.staban import StabilityVerdict
        v = StabilityVerdict(True, (), (), rho_matrix(m), OrderScan((), True, m))
        assert [name for name, _ in rank_ports(v, 0)] == ["pa", "pb"]


class TestVirtualGroundModes:
    def test_combining_node_misses_odd_mode(self):
        net = combiner()
        mimo = frequency_responses(
            net, [current_probe("c"), modal_probe(["a", "b"], [0.0, 180.0])],
            COMBINER_GRID, port_names=["combine", "odd"])
        model, rep = fit_common_denominator(mimo, FitConfig(order=5, iters=20))
        assert rep.rms_rel_error < 1e-8
        from pzid.netsim import ground_node
        odd_pole = analytic_poles(ground_node(net, "c"))
        odd_pole = odd_pole[odd_pole.imag > 0][0]
        k = next(i for i, pp in enumerate(model.pole_pairs())
                 if abs(pp.pole - odd_pole) / abs(odd_pole) < 1e-6)
        pair = model.pole_pairs()[k]
        r_combine = abs(model.residues[0, pair.indices[0]])
        r_modal = abs(model.residues[1, pair.indices[0]])
        assert r_combine <= 1e-8 * r_modal
        rho_combine = rho_factor(model, 0, k)
        rho_modal = rho_factor(model, 1, k)
        assert rho_modal >= 1e4 * rho_combine

    def test_minimal_siso_fit_lacks_odd_mode(self):
        net = combiner()
        from pzid.netsim import frequency_response, ground_node
        resp = frequency_response(net, current_probe("c"), COMBINER_GRID)
        model, rep = fit_common_denominator(resp, FitConfig(order=3, iters=20))
        assert rep.rms_rel_error < 1e-9
        odd_pole = analytic_poles(ground_node(net, "c"))
        odd_pole = odd_pole[odd_pole.imag > 0][0]
        assert np.min(np.abs(model.poles - odd_pole)) / abs(odd_pole) > 0.05


class TestSerialization:
    def test_verdict_report_is_json_with_required_tables(self):
        resp = overmodel_response(seed=0)
        v = auto_identify(resp, range(2, 9), StabilityConfig(rms_target=1e-4))
        doc = json.loads(serialize_verdict(v))
        assert doc["stable"] is False
        assert [step["order"] for step in doc["order_scan"]] == [4]
        assert doc["notes"] == ["orders 2, 3 not scanned: the AAA probe revealed degree 4"]
        assert "rho" in doc and "cancellations" in doc and "audit" in doc
        assert all("rad_s" in p for p in doc["poles"])


def reference_rho_matrix(model):
    """The per-entry loop that the vectorized rho_matrix replaced."""
    def contribution(k, pair, s):
        r = model.residues[k, list(pair.indices)]
        p = model.poles[list(pair.indices)]
        if np.any(np.abs(s - p) < _RHO_GUARD):
            return complex(np.inf, 0.0)
        return complex(np.sum(r / (s - p)))

    def factor(k, pair):
        s = 1j * pair.resonant_omega
        num = abs(contribution(k, pair, s))
        if not np.isfinite(num):
            return float("inf")
        rest = complex(model.direct[k])
        for other in pairs:
            if other.indices != pair.indices:
                rest += contribution(k, other, s)
        den = abs(rest)
        if not np.isfinite(den):
            return 0.0
        if den < _RHO_GUARD:
            return float("inf")
        return num / den

    pairs = model.pole_pairs()
    vals = np.empty((model.n_ports, len(pairs)))
    for k in range(model.n_ports):
        for j, pair in enumerate(pairs):
            vals[k, j] = factor(k, pair)
    return vals


def random_rho_model(rng):
    """Multi-port model mixing real poles (one at 0), on-axis and RHP/LHP
    pairs, shared resonances and zero residues."""
    n_ports = int(rng.integers(1, 5))
    poles, res = [], []
    for _ in range(int(rng.integers(0, 13))):
        kind = int(rng.integers(0, 5))
        w = 10 ** rng.uniform(-2.0, 10.0)
        r = (rng.normal(size=n_ports) + 1j * rng.normal(size=n_ports)) * 10 ** rng.uniform(-3, 3)
        if rng.uniform() < 0.15:
            r[:] = 0.0
        if kind == 0:
            poles.append(complex(rng.choice([0.0, -w, w])))
            res.append(r.real)
        else:
            sigma = 0.0 if kind == 1 else 0.1 * w * rng.normal()
            poles += [complex(sigma, w), complex(sigma, -w)]
            res += [r, r.conj()]
    residues = np.array(res).T if poles else np.zeros((n_ports, 0))
    return PartialFractionModel(np.array(poles, dtype=complex), residues,
                                rng.normal(size=n_ports) * (rng.uniform() < 0.8))


class TestVectorizedRho:
    def test_matches_per_entry_loop(self):
        rng = np.random.default_rng(20)
        models = [random_rho_model(rng) for _ in range(400)]
        models += [random_pf_model(seed)[0] for seed in range(40)]
        n_inf = n_zero = 0
        with np.errstate(all="ignore"):
            for model in models:
                ref = reference_rho_matrix(model)
                assert np.array_equal(rho_matrix(model).values, ref)
                n_inf += int(np.count_nonzero(np.isinf(ref)))
                n_zero += int(np.count_nonzero(ref == 0.0))
        assert n_inf > 100 and n_zero > 100  # the guard branches were exercised

    def test_factor_takes_pair_or_index(self):
        model = random_pf_model(3)[0]
        pairs = model.pole_pairs()
        for k, pair in enumerate(pairs):
            assert rho_factor(model, 0, pair) == rho_factor(model, 0, k)
            assert rho_factor(model, "p1", k) == rho_matrix(model).values[0, k]

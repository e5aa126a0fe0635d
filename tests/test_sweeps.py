import numpy as np
import pytest

import pzid.sweeps
from fixtures import (DC_SINGULAR_GRID, DOUBLE_RESONATOR_GRID, PROVISO_GRID,
                      dc_singular_net, double_resonator, masked_loop, parallel_rlc,
                      passive_loop, same_bits)
from pzid.errors import NumericError, UsageError
from pzid.freqresp import FrequencyGrid, FrequencyResponseSet
from pzid.netsim import (Netlist, SingularSystemError, TerminationPort, analytic_poles,
                         capacitor, current_probe, frequency_response, ground_node,
                         set_element_value, voltage_probe, with_termination)
from pzid.staban import StabilityConfig
from pzid.sweeps import (SweepConfig, monte_carlo_cloud, proviso_scan,
                         spiral_path, stabilization_threshold,
                         trace_pole_locus)

CFG = SweepConfig(order=4, iters=15)


def oracle_threshold(net, param, lo, hi, iters=60):
    """Brute-force bisection on the eigenpencil itself."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if analytic_poles(set_element_value(net, param, mid)).real.max() > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestPoleLocus:
    def test_node_b_shunt_crosses_into_lhp(self):
        net = double_resonator("B")
        values = np.geomspace(10.0, 1e6, 13)
        traj = trace_pole_locus(net, current_probe("B"), DOUBLE_RESONATOR_GRID,
                                "rstab", values, CFG)
        assert traj.tracks.shape == (4, 13)
        assert len(traj.crossing_events) >= 1
        # crossing parameter agrees with the analytic oracle within 1 %
        t_star = oracle_threshold(net, "rstab", 10.0, 1e6)
        for t, _ in traj.crossing_events:
            assert abs(t - t_star) / t_star < 0.01

    def test_node_a_shunt_never_stabilizes(self):
        net = double_resonator("A")
        values = np.geomspace(10.0, 1e6, 9)
        traj = trace_pole_locus(net, current_probe("A"), DOUBLE_RESONATOR_GRID,
                                "rstab", values, CFG)
        max_re = np.nanmax(traj.tracks.real, axis=0)
        assert np.all(max_re > 0)
        assert traj.crossing_events == ()

    def test_single_value_degenerate_sweep(self):
        net = double_resonator("B")
        traj = trace_pole_locus(net, current_probe("B"), DOUBLE_RESONATOR_GRID,
                                "rstab", [1e3], CFG)
        assert traj.tracks.shape == (4, 1)
        assert traj.crossing_events == ()

    def test_track_continuity(self):
        # consecutive entries on one track stay closer than distinct tracks
        net = double_resonator("B")
        values = np.geomspace(100.0, 1e4, 9)
        traj = trace_pole_locus(net, current_probe("B"), DOUBLE_RESONATOR_GRID,
                                "rstab", values, CFG)
        tracks = traj.tracks
        for j in range(tracks.shape[1] - 1):
            step = np.abs(tracks[:, j + 1] - tracks[:, j])
            for i in range(tracks.shape[0]):
                others = np.abs(tracks[:, j] - tracks[i, j + 1])
                others[i] = np.inf
                assert step[i] < others.min()

    def test_crossing_without_oracle_pole_is_linear_estimate(self, monkeypatch):
        monkeypatch.setattr(pzid.sweeps, "analytic_poles",
                            lambda net: np.zeros(0, dtype=complex))
        values = np.geomspace(10.0, 1e6, 13)
        traj = trace_pole_locus(double_resonator("B"), current_probe("B"),
                                DOUBLE_RESONATOR_GRID, "rstab", values, CFG)
        linear = []
        for track in traj.tracks:
            for j in range(len(values) - 1):
                a, b = track[j], track[j + 1]
                if a.real * b.real < 0.0:
                    t = values[j] + a.real / (a.real - b.real) * (values[j + 1] - values[j])
                    linear.append((t, a + (b - a) * (t - values[j]) / (values[j + 1] - values[j])))
        assert linear
        assert list(traj.crossing_events) == sorted(linear, key=lambda c: c[0])

    def test_values_must_ascend(self):
        with pytest.raises(UsageError):
            trace_pole_locus(double_resonator("B"), current_probe("B"),
                             DOUBLE_RESONATOR_GRID, "rstab", [10.0, 5.0], CFG)

    def test_oracle_solved_once_per_value(self, monkeypatch):
        solved = []

        def counting(net):
            solved.append(net.element("rstab").value)
            return analytic_poles(net)

        args = (double_resonator("B"), current_probe("B"), DOUBLE_RESONATOR_GRID, "rstab",
                [100.0, 150.0, 200.0, 250.0, 300.0], CFG)
        clean = trace_pole_locus(*args)
        monkeypatch.setattr(pzid.sweeps, "analytic_poles", counting)
        traj = trace_pole_locus(*args)
        # both tracks of the conjugate pair bisect the same interval
        assert len(traj.crossing_events) == 2
        assert solved and len(solved) == len(set(solved))
        assert traj.crossing_events == clean.crossing_events


class TestStabilizationThreshold:
    def test_matches_eigenpencil_bisection(self):
        net = double_resonator("B")
        got = stabilization_threshold(net, current_probe("B"),
                                      DOUBLE_RESONATOR_GRID, "rstab",
                                      50.0, 1000.0, 1e-4, CFG)
        expect = oracle_threshold(net, "rstab", 50.0, 1000.0)
        assert abs(got - expect) / expect < 1e-3

    @pytest.mark.parametrize("param, lo, hi, tol", [
        ("rstab", 50.0, 1000.0, 1e-2),
        ("rstab", 50.0, 1000.0, 1e-4),
        ("rneg", -1e4, -100.0, 1e-2),  # a negative bracket
    ])
    def test_few_fits(self, monkeypatch, param, lo, hi, tol):
        calls = []
        fit = pzid.sweeps._fit_poles

        def counted(*args):
            calls.append(args)
            return fit(*args)

        monkeypatch.setattr(pzid.sweeps, "_fit_poles", counted)
        net = double_resonator("B")
        got = stabilization_threshold(net, current_probe("B"),
                                      DOUBLE_RESONATOR_GRID, param, lo, hi, tol, CFG)
        expect = oracle_threshold(net, param, lo, hi)
        assert abs(got - expect) / abs(expect) < tol
        assert 1 <= len(calls) <= 8

    def test_tolerance_below_float_floor(self):
        def run(tol):
            return stabilization_threshold(double_resonator("B"), current_probe("B"),
                                           DOUBLE_RESONATOR_GRID, "rstab",
                                           50.0, 1000.0, tol, CFG)

        floor = run(8 * np.finfo(float).eps)
        assert run(1e-20) == floor
        expect = oracle_threshold(double_resonator("B"), "rstab", 50.0, 1000.0)
        assert abs(floor - expect) / expect < 1e-6

    def test_root_search_failure_is_numeric(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise RuntimeError("Failed to converge after 100 iterations")

        monkeypatch.setattr(pzid.sweeps.scipy.optimize, "brentq", no_convergence)
        with pytest.raises(NumericError, match="did not converge"):
            stabilization_threshold(double_resonator("B"), current_probe("B"),
                                    DOUBLE_RESONATOR_GRID, "rstab",
                                    50.0, 1000.0, 1e-2, CFG)

    def test_unconfirmed_by_oracle_raises(self, monkeypatch):
        monkeypatch.setattr(pzid.sweeps, "analytic_poles",
                            lambda net: np.array([-1e9 + 1e10j, -1e9 - 1e10j]))
        with pytest.raises(NumericError, match="not confirmed by the analytic oracle"):
            stabilization_threshold(double_resonator("B"), current_probe("B"),
                                    DOUBLE_RESONATOR_GRID, "rstab",
                                    50.0, 1000.0, 1e-2, CFG)

    def test_equal_bracket_rejected(self):
        with pytest.raises(UsageError):
            stabilization_threshold(double_resonator("B"), current_probe("B"),
                                    DOUBLE_RESONATOR_GRID, "rstab",
                                    100.0, 100.0, 1e-4, CFG)

    def test_node_a_has_no_threshold(self):
        net = double_resonator("A")
        with pytest.raises(UsageError, match="same sign"):
            stabilization_threshold(net, current_probe("A"),
                                    DOUBLE_RESONATOR_GRID, "rstab",
                                    10.0, 1e6, 1e-4, CFG)


def per_value_loader(net, name, probe, grid):
    """What the element loader replaces: an edit and a solve per value."""
    net.element(name)
    return lambda value: frequency_response(set_element_value(net, name, value), probe, grid)


class TestLoadedSweeps:
    """Locus and threshold fit rank-one loads of one solve; an edit and a
    solve per value is the reference."""

    @pytest.mark.parametrize("net, probe, param, values", [
        (double_resonator("B"), current_probe("B"), "rstab", np.geomspace(10.0, 1e6, 13)),
        (double_resonator("B"), voltage_probe("rstab"), "rstab", np.geomspace(50.0, 1e3, 9)),
        (double_resonator("B"), current_probe("A"), "rneg", np.linspace(-8000.0, -3000.0, 8)),
        # far from the netlist's -200 ohm, where a reference there lost digits
        (double_resonator("B"), voltage_probe("rneg"), "rneg", -np.geomspace(1e4, 200.0, 9)),
        (double_resonator("B", 300.0), current_probe("B"), "c1", np.geomspace(0.5e-12, 2e-12, 7)),
        (double_resonator("B", 300.0), voltage_probe("l1"), "l1", np.geomspace(0.5e-9, 2e-9, 7)),
        (dc_singular_net(), current_probe("x"), "gx", np.linspace(-0.53, -0.47, 7)),
    ])
    def test_locus_matches_per_value_solves(self, monkeypatch, net, probe, param, values):
        grid = DC_SINGULAR_GRID if param == "gx" else DOUBLE_RESONATOR_GRID
        cfg = SweepConfig(order=3, iters=15) if param == "gx" else CFG
        loaded = trace_pole_locus(net, probe, grid, param, values, cfg)
        monkeypatch.setattr(pzid.sweeps, "element_loader", per_value_loader)
        solved = trace_pole_locus(net, probe, grid, param, values, cfg)
        assert loaded.crossing_events == solved.crossing_events
        np.testing.assert_allclose(loaded.tracks, solved.tracks, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("probe, param, lo, hi, tol", [
        (current_probe("B"), "rstab", 50.0, 1000.0, 1e-4),
        (voltage_probe("rstab"), "rstab", 50.0, 1000.0, 1e-8),
        (current_probe("B"), "rneg", -1e4, -100.0, 1e-2),
    ])
    def test_threshold_matches_per_value_solves(self, monkeypatch, probe, param, lo, hi, tol):
        args = (double_resonator("B"), probe, DOUBLE_RESONATOR_GRID, param, lo, hi, tol, CFG)
        loaded = stabilization_threshold(*args)
        monkeypatch.setattr(pzid.sweeps, "element_loader", per_value_loader)
        assert loaded == pytest.approx(stabilization_threshold(*args), rel=1e-10, abs=0.0)

    def test_resistor_bracket_spanning_zero_solves_at_lo(self):
        # its middle is 0 ohm, which no resistor takes; Brent then closes on
        # the jump at 0 ohm, which the oracle refuses as it does per value
        with pytest.raises(NumericError, match="not confirmed by the analytic oracle"):
            stabilization_threshold(double_resonator("B"), current_probe("B"),
                                    DOUBLE_RESONATOR_GRID, "rneg", -1000.0, 1000.0, 1e-6, CFG)

    def test_a_short_has_no_value_to_sweep(self, monkeypatch):
        no_fits(monkeypatch)
        net = ground_node(double_resonator("B"), "A")
        with pytest.raises(UsageError, match="'__gnd_A' is a SHORT and has no value"):
            trace_pole_locus(net, current_probe("B"), DOUBLE_RESONATOR_GRID, "__gnd_A",
                             [1.0, 2.0], CFG)
        with pytest.raises(UsageError, match="'__gnd_A' is a SHORT and has no value"):
            stabilization_threshold(net, current_probe("B"), DOUBLE_RESONATOR_GRID,
                                    "__gnd_A", 1.0, 2.0, 1e-2, CFG)

    def test_singular_sample_leaves_its_locus_step_nan(self):
        # gm = -0.5 leaves node x no conductance at 0 Hz; the netlist's own
        # value is that one, but the sweep solves at its middle value
        traj = trace_pole_locus(dc_singular_net(-0.5), current_probe("x"), DC_SINGULAR_GRID,
                                "gx", [-0.52, -0.5, -0.47, -0.45],
                                SweepConfig(order=3, iters=15))
        assert traj.tracks.shape == (3, 4)
        assert np.isnan(traj.tracks[:, 1]).all()
        assert not np.isnan(np.delete(traj.tracks, 1, axis=1)).any()

    def test_unsolvable_reference_falls_back_to_per_value_solves(self, monkeypatch):
        # the locus solves at its middle value and the threshold at its
        # bracket's middle, here the singular gm = -0.5; only that value fails
        args = (dc_singular_net(), current_probe("x"), DC_SINGULAR_GRID, "gx")
        cfg = SweepConfig(order=3, iters=15)
        loaded = trace_pole_locus(*args, [-0.52, -0.5, -0.47], cfg)
        assert loaded.tracks.shape == (3, 3)
        assert np.isnan(loaded.tracks[:, 1]).all()
        assert not np.isnan(np.delete(loaded.tracks, 1, axis=1)).any()
        threshold = stabilization_threshold(*args, -0.75, -0.25, 1e-6, cfg)
        monkeypatch.setattr(pzid.sweeps, "element_loader", per_value_loader)
        solved = trace_pole_locus(*args, [-0.52, -0.5, -0.47], cfg)
        np.testing.assert_array_equal(loaded.tracks, solved.tracks)
        assert loaded.crossing_events == solved.crossing_events
        assert threshold == stabilization_threshold(*args, -0.75, -0.25, 1e-6, cfg)


class TestMonteCarlo:
    GRID = FrequencyGrid(np.linspace(1e9, 9e9, 200))

    def test_zero_sigma_collapses(self):
        cloud = monte_carlo_cloud(parallel_rlc(50.0), current_probe("n1"),
                                  self.GRID, 0.0, 5,
                                  seed=1, cfg=SweepConfig(order=2))
        poles = {p for _, p in cloud.points}
        assert len(poles) == 2  # one conjugate pair, identical across trials
        assert cloud.margin_stats["fraction_unstable"] == 0.0

    def test_seeded_determinism(self):
        a = monte_carlo_cloud(parallel_rlc(50.0), current_probe("n1"), self.GRID,
                              0.05, 20, seed=42, cfg=SweepConfig(order=2))
        b = monte_carlo_cloud(parallel_rlc(50.0), current_probe("n1"), self.GRID,
                              0.05, 20, seed=42, cfg=SweepConfig(order=2))
        assert a == b

    def test_margin_erosion_straddles_zero(self):
        # R barely below the instability threshold: +-5 % tolerance pushes
        # some trials across the axis
        net = double_resonator("B", r_stab=205.0)
        cloud = monte_carlo_cloud(net, current_probe("B"), DOUBLE_RESONATOR_GRID,
                                  0.05, 40, seed=7, cfg=CFG)
        frac = cloud.margin_stats["fraction_unstable"]
        assert 0.0 < frac < 1.0

    def test_sigma_by_element_class(self):
        cloud = monte_carlo_cloud(parallel_rlc(50.0), current_probe("n1"),
                                  self.GRID, {"R": 0.0, "L": 0.0, "C": 0.0, "G": 0.0},
                                  3, seed=3, cfg=SweepConfig(order=2))
        assert len({p for _, p in cloud.points}) == 2

    @pytest.mark.parametrize("sigma", [1.0, 1.5, -0.01, float("nan"), {"C": 1.0}])
    def test_sigma_outside_unit_interval_rejected_up_front(self, sigma, monkeypatch):
        no_fits(monkeypatch)
        with pytest.raises(UsageError, match=r"outside \[0, 1\)"):
            monte_carlo_cloud(parallel_rlc(50.0), current_probe("n1"), self.GRID,
                              sigma, 5, seed=1, cfg=SweepConfig(order=2))

    def test_sigma_key_not_an_element_kind_rejected(self):
        with pytest.raises(UsageError, match="sigma key 'r' is not an element kind"):
            monte_carlo_cloud(parallel_rlc(50.0), current_probe("n1"), self.GRID,
                              {"r": 0.05}, 5, seed=1, cfg=SweepConfig(order=2))

    def test_trials_match_oracle_of_same_draw(self):
        # rebuild each trial's circuit from the documented draw: one uniform
        # per element, in declaration order, scaled by its kind's sigma
        net = double_resonator("B", r_stab=300.0)
        sigma = {"R": 0.04, "L": 0.02, "C": 0.03}
        cloud = monte_carlo_cloud(net, current_probe("B"), DOUBLE_RESONATOR_GRID,
                                  sigma, 6, seed=5, cfg=CFG)
        assert cloud.n_failed == 0
        rng = np.random.default_rng(5)
        for trial in range(6):
            patched = net
            for e in net.elements:
                f = 1.0 + sigma.get(e.kind, 0.0) * rng.uniform(-1.0, 1.0)
                patched = set_element_value(patched, e.name, e.value * f)
            truth = analytic_poles(patched)
            got = np.array([p for t, p in cloud.points if t == trial])
            assert got.size == truth.size == 4
            for p in truth:
                assert np.min(np.abs(got - p)) / abs(p) < 1e-6

    def test_a_singular_trial_fails_alone(self, monkeypatch):
        # trial 2 gets rx = 2 ohm against gx = -0.5 S exactly, which leaves
        # node x no conductance at 0 Hz; the draws of the others are kept
        args = (dc_singular_net(-0.5), current_probe("x"), DC_SINGULAR_GRID,
                {"R": 0.2, "C": 0.05}, 5)
        cfg = SweepConfig(order=3, iters=15)
        responses = pzid.sweeps._responses
        stacks = []

        def spy(net, probe, grid, values):
            stacks.append(values.copy())
            if len(stacks) == 2:
                values[2, 0] = 2.0
            return responses(net, probe, grid, values)

        monkeypatch.setattr(pzid.sweeps, "_responses", spy)
        clean = monte_carlo_cloud(*args, seed=4, cfg=cfg)
        cloud = monte_carlo_cloud(*args, seed=4, cfg=cfg)
        assert np.array_equal(stacks[0], stacks[1])
        assert (clean.n_failed, cloud.n_failed) == (0, 1)
        assert {t for t, _ in clean.points} == {0, 1, 2, 3, 4}
        assert cloud.points == tuple((t, p) for t, p in clean.points if t != 2)
        with pytest.raises(SingularSystemError, match=r"^singular MNA system at 0\.0 Hz$"):
            frequency_response(set_element_value(args[0], "rx", 2.0), args[1], args[2])

    def test_a_scaled_value_that_overflows_is_refused(self, monkeypatch):
        no_fits(monkeypatch)
        net = Netlist((capacitor("c1", "n1", "0", 1e-12),
                       pzid.netsim.inductor("l1", "n1", "0", 1e-9),
                       pzid.netsim.resistor("rbig", "n1", "0", 1.7e308)))
        with pytest.raises(ValueError, match="^element 'rbig' value is not finite$"):
            monte_carlo_cloud(net, current_probe("n1"), self.GRID, 0.5, 8, seed=1,
                              cfg=SweepConfig(order=2))


class TestSpiralPath:
    def test_endpoints_and_radius(self):
        sp = spiral_path(11, 2000)
        assert sp.gamma[0] == 0.0
        assert abs(sp.gamma[-1] - (-0.999)) < 1e-12
        assert np.allclose(np.abs(sp.gamma), 0.999 * sp.h)
        assert np.max(np.abs(sp.gamma)) <= 0.999

    def test_midpoint(self):
        sp = spiral_path(11, 3)
        # e^{j 11.5 pi} = -j
        assert abs(sp.gamma[1] - (-0.4995j)) < 1e-12

    def test_cumulative_phase(self):
        sp = spiral_path(11, 2000)
        phase = np.unwrap(np.angle(sp.gamma[1:]))
        total = phase[-1]  # first nonzero sample starts at (2N+1) pi h1
        assert abs(total - 23 * np.pi) < 1e-9

    def test_domain_checks(self):
        with pytest.raises(UsageError):
            spiral_path(11, 1)
        with pytest.raises(UsageError):
            spiral_path(11, 10, r_max=1.5)


class TestProvisoScan:
    def test_all_passive_is_clean(self):
        rep = proviso_scan(passive_loop(), "out", current_probe("I"),
                           spiral_path(11, 16), PROVISO_GRID, range(2, 7),
                           StabilityConfig())
        assert rep.clean and rep.failures == ()
        assert rep.n_scanned == 18

    def test_masked_loop_found_under_short(self):
        rep = proviso_scan(masked_loop(), "out", current_probe("I"),
                           spiral_path(11, 16), PROVISO_GRID, range(2, 7),
                           StabilityConfig())
        labels = {f.label for f in rep.findings}
        assert "short-like" in labels
        # eigenpencil confirms the RHP pole under the exact short
        shorted = with_termination(masked_loop(), "out", -1.0)
        truth = analytic_poles(shorted)
        assert truth.real.max() > 0
        finding = next(f for f in rep.findings if f.label == "short-like")
        got = max(finding.poles, key=lambda p: p.real)
        ref = truth[int(np.argmin(np.abs(truth - got)))]
        assert ref.real > 0
        assert abs(got - ref) / abs(ref) < 1e-3

    def test_masked_loop_stable_when_matched(self):
        matched = with_termination(masked_loop(), "out", 0.0)
        assert analytic_poles(matched).real.max() < 0

    def test_orders_may_be_a_generator(self):
        # every termination case runs auto_identify over the same orders
        args = (masked_loop(), "out", current_probe("I"), spiral_path(11, 4), PROVISO_GRID)
        rep = proviso_scan(*args, (n for n in range(2, 7)), StabilityConfig())
        assert rep.failures == () and rep.findings
        assert rep == proviso_scan(*args, range(2, 7), StabilityConfig())

    @staticmethod
    def scan_per_case(monkeypatch, net, *args):
        """The scan with one terminated netlist and one solve per case."""
        def per_case(reference, port, probe, grid):
            return lambda gamma, f_ref=None: frequency_response(
                with_termination(net, port, gamma, f_ref), probe, grid)

        with monkeypatch.context() as m:
            m.setattr(pzid.sweeps, "termination_loader", per_case)
            return proviso_scan(net, *args)

    @staticmethod
    def assert_same_findings(got, want):
        assert (got.failures, got.n_scanned) == (want.failures, want.n_scanned)
        assert [(f.label, f.gamma, f.h, len(f.poles)) for f in got.findings] == \
            [(f.label, f.gamma, f.h, len(f.poles)) for f in want.findings]
        for f, g in zip(got.findings, want.findings):
            np.testing.assert_allclose(f.poles, g.poles, rtol=1e-12)

    @pytest.mark.parametrize("r_max", [0.999, 1.0])
    def test_loaded_scan_matches_per_case_scan(self, monkeypatch, r_max):
        # demo 05's circuit and scan; r_max = 1 makes the corners an exact open and short
        args = ("out", current_probe("I"), spiral_path(11, 40, r_max), PROVISO_GRID,
                range(2, 7))
        got = proviso_scan(masked_loop(), *args)
        want = self.scan_per_case(monkeypatch, masked_loop(), *args)
        assert len(want.findings) > 10 and want.failures == ()
        self.assert_same_findings(got, want)

    def test_port_on_ground_fails_only_the_exact_short(self, monkeypatch):
        net = Netlist(masked_loop().elements, ports=(TerminationPort("out", "0", 50.0),))
        args = ("out", current_probe("I"), spiral_path(11, 6, 1.0), PROVISO_GRID, range(2, 7))
        got = proviso_scan(net, *args)
        assert got.failures == ("short-like: unknown node '0'",)
        self.assert_same_findings(got, self.scan_per_case(monkeypatch, net, *args))

    def test_dc_singular_circuit_fails_every_case_alike(self, monkeypatch):
        net = Netlist(masked_loop().elements + (capacitor("cx", "x", "0", 1e-12),),
                      masked_loop().ports)
        args = ("out", current_probe("I"), spiral_path(11, 6),
                FrequencyGrid(np.linspace(0.0, 12e9, 300)), range(2, 7))
        got = proviso_scan(net, *args)
        assert got.n_scanned == 8 and len(got.failures) == 8
        assert all(f.endswith(": singular MNA system at 0.0 Hz") for f in got.failures)
        assert got == self.scan_per_case(monkeypatch, net, *args)

    def test_unknown_probe_node_fails_every_case_alike(self, monkeypatch):
        args = ("out", current_probe("nowhere"), spiral_path(11, 4), PROVISO_GRID, range(2, 7))
        got = proviso_scan(masked_loop(), *args)
        assert got.failures[0] == "open-like: probe references unknown node 'nowhere'"
        assert got == self.scan_per_case(monkeypatch, masked_loop(), *args)

    def test_single_sample_spiral_is_matched_case(self):
        sp = spiral_path(11, 2)
        rep = proviso_scan(passive_loop(), "out", current_probe("I"),
                           sp, PROVISO_GRID, range(2, 7), StabilityConfig())
        assert rep.n_scanned == 4


def fail_fits_where(monkeypatch, pick):
    """Make the batched sweep fit of every response that ``pick`` selects
    fail with NumericError, as a member whose walk raised it does; the
    other responses are walked to their poles as one batch."""
    batch_poles = pzid.sweeps._batch_poles

    def patched(batch, cfg):
        picked = [pick(resp) for resp in batch]
        fits = iter(batch_poles([resp for resp, p in zip(batch, picked) if not p], cfg))
        return [NumericError("injected fit failure") if p else next(fits) for p in picked]

    monkeypatch.setattr(pzid.sweeps, "_batch_poles", patched)


def no_fits(monkeypatch):
    """Make any sweep fit, batched or alone, fail the test."""
    monkeypatch.setattr(pzid.sweeps, "_fit_poles", None)
    monkeypatch.setattr(pzid.sweeps, "_fit_pole_sets", None)


def fail_loads_where(monkeypatch, pick):
    """Make every swept element value that ``pick`` selects fail to load."""
    loader = pzid.sweeps.element_loader

    def patched(*args):
        load = loader(*args)

        def failing(value):
            if pick(value):
                raise NumericError("injected load failure")
            return load(value)

        return failing

    monkeypatch.setattr(pzid.sweeps, "element_loader", patched)


class TestFailedFits:
    def test_locus_leaves_nan_at_a_failed_step(self, monkeypatch):
        args = (double_resonator("B"), current_probe("B"), DOUBLE_RESONATOR_GRID, "rstab",
                [100.0, 150.0, 200.0, 250.0, 300.0], CFG)
        clean = trace_pole_locus(*args)
        fail_loads_where(monkeypatch, lambda value: value == 250.0)
        traj = trace_pole_locus(*args)
        assert np.isnan(traj.tracks[:, 3]).all()
        assert not np.isnan(np.delete(traj.tracks, 3, axis=1)).any()
        assert np.array_equal(traj.tracks[:, :3], clean.tracks[:, :3])
        # the pair crosses near 208 ohm, next to the failed step: no fit, no crossing
        assert len(clean.crossing_events) == 2 and traj.crossing_events == ()

    def test_monte_carlo_counts_a_failed_trial(self, monkeypatch):
        args = (parallel_rlc(50.0), current_probe("n1"), TestMonteCarlo.GRID, 0.05, 4)
        clean = monte_carlo_cloud(*args, seed=42, cfg=SweepConfig(order=2))
        calls = iter(range(4))
        fail_fits_where(monkeypatch, lambda net: next(calls) == 1)
        cloud = monte_carlo_cloud(*args, seed=42, cfg=SweepConfig(order=2))
        assert (clean.n_failed, cloud.n_failed) == (0, 1)
        # the failed trial still draws its factors: the later trials are unchanged
        assert cloud.points == tuple((t, p) for t, p in clean.points if t != 1)

    @pytest.mark.parametrize("error", [NumericError, UsageError])
    def test_proviso_records_a_failed_case_and_goes_on(self, monkeypatch, error):
        # the short-like case's batched order scan fails, and then its verdict
        args = (masked_loop(), "out", current_probe("I"), spiral_path(11, 4), PROVISO_GRID,
                range(2, 7))
        clean = proviso_scan(*args)
        scan_orders = pzid.sweeps._scan_orders
        identify = pzid.sweeps.auto_identify

        def failing_scan(batch, orders, cfg):
            scans = scan_orders(batch, orders, cfg)
            scans[1] = error("injected")
            return scans

        def failing_verdict(resp, orders, cfg, *, scan):
            if next(calls) == 1:
                raise error("injected")
            return identify(resp, orders, cfg, scan=scan)

        for name, failing in (("_scan_orders", failing_scan),
                              ("auto_identify", failing_verdict)):
            calls = iter(range(clean.n_scanned))
            with monkeypatch.context() as m:
                m.setattr(pzid.sweeps, name, failing)
                rep = proviso_scan(*args)
            assert "short-like" in {f.label for f in clean.findings} and clean.failures == ()
            assert rep.failures == ("short-like: injected",)
            assert rep.n_scanned == clean.n_scanned == 6
            assert rep.findings == tuple(f for f in clean.findings if f.label != "short-like")


def fit_each_alone(monkeypatch):
    """Make the sweeps fit each response on its own instead of as one batch."""
    def alone(resps, cfg):
        pole_sets = []
        for resp in resps:
            try:
                pole_sets.append(pzid.sweeps._fit_poles(resp, cfg))
            except NumericError:
                pole_sets.append(None)
        return pole_sets

    monkeypatch.setattr(pzid.sweeps, "_fit_pole_sets", alone)


class TestBatchedFits:
    """A locus's values and a cloud's trials are fitted as one batch; the
    result is the one fitting each alone gives, bit for bit."""

    @pytest.mark.parametrize("net, probe, grid, param, values, cfg", [
        (double_resonator("B"), current_probe("B"), DOUBLE_RESONATOR_GRID, "rstab",
         np.geomspace(10.0, 1e6, 13), CFG),
        (double_resonator("B"), current_probe("A"), DOUBLE_RESONATOR_GRID, "rneg",
         np.linspace(-8000.0, -3000.0, 8), SweepConfig(order=5)),
        # the sample at gm = -0.5 is singular: that value fails alone
        (dc_singular_net(), current_probe("x"), DC_SINGULAR_GRID, "gx",
         [-0.52, -0.5, -0.47, -0.45], SweepConfig(order=3, iters=15)),
    ])
    def test_locus_matches_fits_alone(self, monkeypatch, net, probe, grid, param, values, cfg):
        batched = trace_pole_locus(net, probe, grid, param, values, cfg)
        fit_each_alone(monkeypatch)
        alone = trace_pole_locus(net, probe, grid, param, values, cfg)
        assert np.array_equal(batched.tracks, alone.tracks, equal_nan=True)
        assert batched.crossing_events == alone.crossing_events

    @pytest.mark.parametrize("sigma, trials", [(0.05, 12), (0.3, 7)])
    def test_monte_carlo_matches_fits_alone(self, monkeypatch, sigma, trials):
        args = (double_resonator("B", 300.0), current_probe("B"), DOUBLE_RESONATOR_GRID,
                sigma, trials)
        batched = monte_carlo_cloud(*args, seed=5, cfg=CFG)
        fit_each_alone(monkeypatch)
        alone = monte_carlo_cloud(*args, seed=5, cfg=CFG)
        assert batched.points == alone.points and batched.n_failed == alone.n_failed
        assert batched.margin_stats == alone.margin_stats

    def test_pole_sets_match_fit_poles_alone(self, monkeypatch):
        # the third response overflows the relocation's column scaling;
        # the batch never solves residues
        resps = [frequency_response(set_element_value(double_resonator("B"), "rstab", v),
                                    current_probe("B"), DOUBLE_RESONATOR_GRID)
                 for v in (100.0, 200.0, 400.0)]
        huge = FrequencyResponseSet(DOUBLE_RESONATOR_GRID, resps[0].ports,
                                    (np.full(len(DOUBLE_RESONATOR_GRID), 1e200 + 0j),))
        batch = resps[:2] + [huge] + resps[2:]
        alone = []
        for resp in batch:
            try:
                alone.append(pzid.sweeps._fit_poles(resp, CFG))
            except NumericError as exc:
                alone.append(exc)
        assert "overflows the column scaling" in str(alone[2])
        monkeypatch.setattr(pzid.ratfit._Relocation, "residues", None)
        batched = pzid.sweeps._fit_pole_sets(batch, CFG)
        assert batched[2] is None
        for got, want in zip(batched[:2] + batched[3:], alone[:2] + alone[3:]):
            assert want.size == 4 and same_bits(got, want)

    def test_failed_fits_leave_the_others_unchanged(self, monkeypatch):
        args = (double_resonator("B", 300.0), current_probe("B"), DOUBLE_RESONATOR_GRID,
                0.05, 6)
        clean = monte_carlo_cloud(*args, seed=5, cfg=CFG)
        calls = iter(range(6))
        fail_fits_where(monkeypatch, lambda resp: next(calls) in (0, 4))
        cloud = monte_carlo_cloud(*args, seed=5, cfg=CFG)
        assert (clean.n_failed, cloud.n_failed) == (0, 2)
        assert cloud.points == tuple((t, p) for t, p in clean.points if t not in (0, 4))


class TestUsageErrors:
    @pytest.mark.parametrize("tol", [0.0, -1e-4])
    def test_threshold_tolerance_must_be_positive(self, monkeypatch, tol):
        no_fits(monkeypatch)
        with pytest.raises(UsageError, match="^tol_rel must be positive$"):
            stabilization_threshold(double_resonator("B"), current_probe("B"),
                                    DOUBLE_RESONATOR_GRID, "rstab", 50.0, 1000.0, tol, CFG)

    @pytest.mark.parametrize("name", ["lo", "hi", "tol_rel"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_threshold_arguments_must_be_finite(self, monkeypatch, name, value):
        no_fits(monkeypatch)
        monkeypatch.setattr(pzid.sweeps, "element_loader", None)  # no solve may run
        monkeypatch.setattr(pzid.sweeps, "frequency_response", None)
        args = {"lo": 50.0, "hi": 1000.0, "tol_rel": 1e-2, name: value}
        with pytest.raises(UsageError, match=rf"^{name} must be finite, got {value!r}$"):
            stabilization_threshold(double_resonator("B"), current_probe("B"),
                                    DOUBLE_RESONATOR_GRID, "rstab", cfg=CFG, **args)

    def test_monte_carlo_needs_a_trial(self, monkeypatch):
        no_fits(monkeypatch)
        with pytest.raises(UsageError, match="^trials must be >= 1$"):
            monte_carlo_cloud(parallel_rlc(50.0), current_probe("n1"), TestMonteCarlo.GRID,
                              0.05, 0, seed=1, cfg=SweepConfig(order=2))

    @pytest.mark.parametrize("trials", [2.5, "3", None, float("nan")])
    def test_monte_carlo_trials_must_be_integral(self, monkeypatch, trials):
        no_fits(monkeypatch)
        monkeypatch.setattr(pzid.sweeps.np.random, "default_rng", None)  # no draw may run
        with pytest.raises(UsageError, match=rf"^trials must be an integer, got {trials!r}$"):
            monte_carlo_cloud(parallel_rlc(50.0), current_probe("n1"), TestMonteCarlo.GRID,
                              0.05, trials, seed=1, cfg=SweepConfig(order=2))

    @pytest.mark.parametrize("orders, bad", [([-1, 2], -1), ([2.5, 4], 2.5),
                                             ([2, float("inf")], float("inf"))])
    def test_proviso_orders_must_be_nonnegative_integers(self, monkeypatch, orders, bad):
        monkeypatch.setattr(pzid.sweeps, "termination_loader", None)  # no solve may run
        with pytest.raises(UsageError, match=rf"^orders must be nonnegative integers, "
                                             rf"got {bad!r}$"):
            proviso_scan(masked_loop(), "out", current_probe("I"), spiral_path(11, 4),
                         PROVISO_GRID, orders)

    @pytest.mark.parametrize("orders", [[], [4, 2], [2, 2, 3]])
    def test_proviso_orders_must_be_nonempty_and_ascending(self, monkeypatch, orders):
        monkeypatch.setattr(pzid.sweeps, "termination_loader", None)  # no solve may run
        with pytest.raises(UsageError, match="^orders must be a nonempty ascending sequence$"):
            proviso_scan(masked_loop(), "out", current_probe("I"), spiral_path(11, 4),
                         PROVISO_GRID, orders)

    def test_spiral_turns_must_be_nonnegative(self):
        with pytest.raises(UsageError, match="^turns must be >= 0$"):
            spiral_path(-1, 10)

import numpy as np
import pytest

import pzid.sweeps
from fixtures import (DOUBLE_RESONATOR_GRID, PROVISO_GRID, double_resonator,
                      masked_loop, parallel_rlc, passive_loop)
from pzid.errors import NumericError, UsageError
from pzid.freqresp import FrequencyGrid
from pzid.netsim import (analytic_poles, current_probe, set_element_value,
                         with_termination)
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


class TestStabilizationThreshold:
    def test_matches_eigenpencil_bisection(self):
        net = double_resonator("B")
        got = stabilization_threshold(net, current_probe("B"),
                                      DOUBLE_RESONATOR_GRID, "rstab",
                                      50.0, 1000.0, 1e-4, CFG)
        expect = oracle_threshold(net, "rstab", 50.0, 1000.0)
        assert abs(got - expect) / expect < 1e-3

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

    def test_single_sample_spiral_is_matched_case(self):
        sp = spiral_path(11, 2)
        rep = proviso_scan(passive_loop(), "out", current_probe("I"),
                           sp, PROVISO_GRID, range(2, 7), StabilityConfig())
        assert rep.n_scanned == 4

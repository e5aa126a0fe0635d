import numpy as np
import pytest

from fixtures import parallel_rlc, random_oracle_net, series_rlc_loop, oracle_grid
from pzid import netsim
from pzid.cli import dispatch
from pzid.errors import ParseError, UsageError
from pzid.freqresp import FrequencyGrid, ResponseParseError
from pzid.netsim import (Netlist, NetlistParseError, SingularSystemError,
                         TerminationPort, analytic_poles, capacitor, current_probe,
                         frequency_response, ground_node, modal_probe,
                         parse_netlist, parse_probe, parse_value,
                         pencil_eigenvalues, resistor, set_element_value,
                         vccs, voltage_probe, with_termination)

GRID = FrequencyGrid(np.linspace(1e9, 9e9, 50))


def rlc_pole(r, l, c):
    sigma = -1.0 / (2.0 * r * c)
    beta = np.sqrt(1.0 / (l * c) - sigma ** 2)
    return complex(sigma, beta)


class TestFrequencyResponse:
    def test_parallel_rlc_resonance_is_r(self):
        # Z(j w0) = R at w0 = 1/sqrt(LC)
        f0 = 1.0 / (2 * np.pi * np.sqrt(1e-9 * 1e-12))
        grid = FrequencyGrid(np.array([f0 / 2, f0 * 0.9, f0, f0 * 2]))
        resp = frequency_response(parallel_rlc(50.0), current_probe("n1"), grid)
        assert resp.ports[0].kind == "impedance"
        assert abs(resp.values[0][2] - 50.0) < 1e-9

    def test_two_shunt_resistors_parallel(self):
        net = Netlist((resistor("ra", "n1", "0", 100.0),
                       resistor("rb", "n1", "0", 100.0)))
        resp = frequency_response(net, current_probe("n1"), GRID)
        assert np.allclose(resp.values[0], 50.0)

    def test_series_branch_admittance_blocks_dc(self):
        grid = FrequencyGrid(np.array([1e3, 1e4, 1e5, 1e6]))
        resp = frequency_response(series_rlc_loop(), voltage_probe("rs"), grid)
        assert resp.ports[0].kind == "admittance"
        assert abs(resp.values[0][0]) < 1e-7

    def test_series_admittance_at_resonance(self):
        f0 = 1.0 / (2 * np.pi * np.sqrt(1e-9 * 1e-12))
        grid = FrequencyGrid(np.array([1e8, 1e9, f0, 1e11]))
        resp = frequency_response(series_rlc_loop(r=10.0), voltage_probe("rs"), grid)
        assert abs(resp.values[0][2] - 0.1) < 1e-12

    def test_modal_probe_kind_and_output_node(self):
        net = parallel_rlc(50.0)
        resp = frequency_response(net, modal_probe(["n1"], [0.0]), GRID)
        assert resp.ports[0].kind == "transfer"
        ref = frequency_response(net, current_probe("n1"), GRID)
        # inode:n1 and modal:n1@0 are one stamp, a unit drive read at n1
        assert np.array_equal(resp.values[0], ref.values[0])

    def test_unknown_probe_node(self):
        with pytest.raises(UsageError, match="unknown node"):
            frequency_response(parallel_rlc(), current_probe("nope"), GRID)


class TestPencil:
    def test_voltage_probe_is_a_short_element(self):
        # rs (0-n1) is spliced onto __probe; the probe SHORT from __probe to
        # ground takes the last branch row, after the inductor's.
        # Unknowns: v(n1), v(n2), v(__probe), i(ls), i(probe)
        G, C, b, c = netsim._pencil(series_rlc_loop(), voltage_probe("rs"))
        assert np.array_equal(G, [[0.1, 0.0, -0.1, 1.0, 0.0],
                                  [0.0, 0.0, 0.0, -1.0, 0.0],
                                  [-0.1, 0.0, 0.1, 0.0, -1.0],
                                  [1.0, -1.0, 0.0, 0.0, 0.0],
                                  [0.0, 0.0, 1.0, 0.0, 0.0]])
        assert np.array_equal(C, np.diag([0.0, 1e-12, 0.0, -1e-9, 0.0]))
        assert np.array_equal(b, [0, 0, 0, 0, 1])
        assert np.array_equal(c, [0, 0, 0, 0, 1])

    @pytest.mark.parametrize("name", ["a", "x"])
    def test_netlist_node_named_like_the_splice(self, name):
        # a netlist node called __probe must not merge with the probe's
        # splice node; "a" keeps the sorted node order, "x" does not
        text = "R r1 {0} 0 50\nC c1 {0} n1 1p\nR r2 n1 0 10\n"
        probe = voltage_probe("r2")
        got = frequency_response(parse_netlist(text.format("__probe")), probe, GRID)
        want = frequency_response(parse_netlist(text.format(name)), probe, GRID)
        assert np.array_equal(got.values, want.values)


def per_point_response(net, probe, grid):
    """Reference: one lone solve per grid point."""
    G, C, b, c = netsim._pencil(net, probe)
    return np.array([c @ np.linalg.solve(G + 1j * w * C, b) for w in grid.omega])


def probes_of(net):
    branch = next(e.name for e in net.elements if e.kind in ("R", "L", "C"))
    nodes = net.nodes[:2]
    return (current_probe(net.nodes[-1]), voltage_probe(branch),
            modal_probe(nodes, [0.0, 180.0][:len(nodes)]))


class TestStackedSolve:
    @pytest.mark.parametrize("seed", [3, 11, 29, 401])
    def test_bit_identical_to_per_point_solves(self, seed):
        net, ap = random_oracle_net(seed)
        grid = oracle_grid(ap, n=301)
        for probe in probes_of(net):
            got = frequency_response(net, probe, grid).values[0]
            assert np.array_equal(got, per_point_response(net, probe, grid)), probe

    @pytest.mark.parametrize("per_block", [7, 0])
    def test_blocked_bit_identical(self, monkeypatch, per_block):
        # 7 points per block: 42 full blocks and a ragged last one of 6;
        # a budget below one matrix still solves one point per block
        net, ap = random_oracle_net(11)
        grid = oracle_grid(ap, n=300)
        for probe in probes_of(net):
            dim = netsim._pencil(net, probe)[0].shape[0]
            monkeypatch.setattr(netsim, "_BLOCK_BYTES", per_block * 16 * dim * dim + 1)
            got = frequency_response(net, probe, grid).values[0]
            assert np.array_equal(got, per_point_response(net, probe, grid)), probe

    def test_rhs_shape_read_alike_by_numpy_1_and_2(self, monkeypatch):
        # NumPy 1.x reads b as vectors when b.ndim == A.ndim - 1, NumPy 2.x
        # when b.ndim == 1; a shape where the rules disagree fails on 1.x
        solve = np.linalg.solve
        shapes = []

        def spy(a, b):
            shapes.append((a.ndim, b.ndim))
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", spy)
        frequency_response(parallel_rlc(), current_probe("n1"), GRID)
        with pytest.raises(SingularSystemError):
            frequency_response(parse_netlist(CAP_ONLY_NETLIST), current_probe("n1"),
                               TestSingularSystem.GRID)
        assert shapes
        for a_ndim, b_ndim in shapes:
            assert (b_ndim == a_ndim - 1) == (b_ndim == 1), (a_ndim, b_ndim)


# n2 is reached only through capacitors, so G + j*0*C is singular at DC
CAP_ONLY_NETLIST = """\
R r1 n1 0 50
C c1 n1 n2 1p
C c2 n2 0 1p
"""


class TestSingularSystem:
    GRID = FrequencyGrid(np.linspace(0.0, 5e9, 40))

    @pytest.mark.parametrize("budget", [None, 1])
    def test_dc_point_named(self, monkeypatch, budget):
        if budget is not None:
            monkeypatch.setattr(netsim, "_BLOCK_BYTES", budget)
        net = parse_netlist(CAP_ONLY_NETLIST)
        with pytest.raises(SingularSystemError, match=r"singular MNA system at 0\.0 Hz"):
            frequency_response(net, current_probe("n1"), self.GRID)

    def test_synth_exit_code_3(self, tmp_path, capsys):
        path = tmp_path / "cap.cir"
        path.write_text(CAP_ONLY_NETLIST)
        code = dispatch(["synth", "--netlist", str(path), "--probe", "inode:n1",
                         "--fstart", "0", "--fstop", "5e9", "--points", "40",
                         "--out", str(tmp_path / "out.csv")])
        assert code == 3
        assert "0.0 Hz" in capsys.readouterr().err


class TestAnalyticPoles:
    def test_parallel_rlc_closed_form(self):
        p = analytic_poles(parallel_rlc(50.0, 1e-9, 1e-12))
        expect = rlc_pole(50.0, 1e-9, 1e-12)
        assert sorted(np.round(p.real, 3)) == [-1e10, -1e10]
        assert np.allclose(sorted(p.imag), [-expect.imag, expect.imag])

    def test_negative_resistor_flips_sign(self):
        p = analytic_poles(parallel_rlc(-50.0, 1e-9, 1e-12))
        assert np.allclose(p.real, 1e10)

    def test_resistive_divider_has_no_poles(self):
        net = Netlist((resistor("ra", "n1", "0", 100.0),
                       resistor("rb", "n1", "n2", 100.0),
                       resistor("rc", "n2", "0", 100.0)))
        assert analytic_poles(net).size == 0

    def test_infinite_modes_counted(self):
        res = pencil_eigenvalues(parallel_rlc(50.0))
        # 1 node + 1 inductor current = 2 unknowns, both dynamic: no infinite modes
        assert res.n_discarded == 0
        net = Netlist((resistor("r1", "n1", "0", 50.0),
                       capacitor("c1", "n1", "n2", 1e-12),
                       resistor("r2", "n2", "0", 50.0)))
        res2 = pencil_eigenvalues(net)
        assert res2.poles.size == 1 and res2.n_discarded == 1

    def test_passivity(self):
        # all-positive RLC nets only have poles in the closed left half-plane
        for seed in range(60, 70):
            net, poles = random_oracle_net(seed, with_vccs=False)
            assert np.all(poles.real <= 1e-6 * np.max(np.abs(poles)))


class TestProbeInvariance:
    def test_pole_set_shared_between_probes(self):
        # same poles from different probes, bar quasi-cancellations
        from pzid.ratfit import FitConfig, fit_common_denominator
        net, ap = random_oracle_net(77, with_vccs=False)
        grid = oracle_grid(ap)
        models = []
        for node in net.nodes[:2]:
            resp = frequency_response(net, current_probe(node), grid)
            model, _ = fit_common_denominator(resp, FitConfig(order=len(ap), iters=20))
            models.append(model)
        for p in models[0].poles:
            rho_scale = max(abs(p), 1e-9 * np.max(grid.omega))
            assert np.min(np.abs(models[1].poles - p)) / rho_scale < 1e-5


class TestTerminations:
    def net(self):
        return Netlist((resistor("r1", "n1", "0", 100.0),
                        capacitor("c1", "n1", "0", 1e-12)),
                       ports=(TerminationPort("out", "n1", 50.0),))

    def test_matched_attaches_z0(self):
        t = with_termination(self.net(), "out", 0.0)
        elem = t.element("__term_out_r")
        assert elem.value == 50.0

    def test_near_short_value(self):
        t = with_termination(self.net(), "out", -0.999)
        expect = 50.0 * (1 - 0.999) / (1 + 0.999)
        assert abs(t.element("__term_out_r").value - expect) < 1e-15
        assert abs(expect - 0.02501) < 5e-6

    def test_open_leaves_elements_untouched(self):
        base = self.net()
        t = with_termination(base, "out", 1.0)
        assert t.elements == base.elements
        assert t.port("out").gamma == 1.0

    def test_exact_short_grounds_node(self):
        t = with_termination(self.net(), "out", -1.0)
        assert any(e.kind == "SHORT" for e in t.elements)
        resp = frequency_response(t, current_probe("n1"), GRID)
        assert np.allclose(resp.values[0], 0.0)

    def test_complex_gamma_matches_at_fref(self):
        gamma = 0.3 + 0.4j
        f_ref = 2e9
        t = with_termination(self.net(), "out", gamma, f_ref=f_ref)
        # impedance of the attached branch at f_ref equals z0(1+g)/(1-g)
        z_expect = 50.0 * (1 + gamma) / (1 - gamma)
        new = [e for e in t.elements if e.name.startswith("__term_out")]
        w = 2 * np.pi * f_ref
        z = 0.0
        for e in new:
            if e.kind == "R":
                z += e.value
            elif e.kind == "L":
                z += 1j * w * e.value
            else:
                z += 1.0 / (1j * w * e.value)
        assert abs(z - z_expect) < 1e-9 * abs(z_expect)

    def test_complex_gamma_requires_fref(self):
        with pytest.raises(UsageError, match="f_ref"):
            with_termination(self.net(), "out", 0.3 + 0.4j)

    def test_gamma_magnitude_checked(self):
        with pytest.raises(UsageError, match="exceeds 1"):
            with_termination(self.net(), "out", 1.5)

    def test_unknown_port(self):
        with pytest.raises(KeyError):
            with_termination(self.net(), "nope", 0.0)


class TestZeroOracleIdentity:
    def test_driving_point_zeros_equal_grounded_poles(self):
        # single handcrafted case; the acceptance suite runs the random batch
        from pzid.ratfit import FitConfig, fit_common_denominator, poles_and_zeros
        net, ap = random_oracle_net(401, with_vccs=False)
        node = net.nodes[0]
        gp = analytic_poles(ground_node(net, node))
        grid = oracle_grid(np.concatenate([ap, gp]))
        resp = frequency_response(net, current_probe(node), grid)
        model, _ = fit_common_denominator(resp, FitConfig(order=len(ap), iters=20))
        _, zeros = poles_and_zeros(model, 0)
        for z in gp:
            assert np.min(np.abs(zeros - z)) / abs(z) < 1e-6


class TestNetlistParsing:
    def test_engineering_suffixes(self):
        assert parse_value("1n") == 1e-9
        assert parse_value("2.2k") == 2200.0
        assert parse_value("-50") == -50.0
        assert parse_value("0.5p") == 5e-13
        assert parse_value("3M") == 3e6
        assert parse_value("1e-9") == 1e-9
        with pytest.raises(ValueError):
            parse_value("1x")

    def test_parse_and_probe_roundtrip(self):
        net = parse_netlist(
            "# comment\n"
            "R r1 n1 0 -50\n"
            "L l1 n1 0 1n\n"
            "C c1 n1 0 1p\n"
            "G g1 n2 0 n1 0 10m\n"
            "R r2 n2 0 1k\n"
            "PORT out n1 50\n")
        assert net.element("r1").value == -50.0
        assert net.element("g1").value == 0.01
        assert net.port("out").z0 == 50.0

    def test_bad_card_reports_line(self):
        with pytest.raises(NetlistParseError, match="line 2"):
            parse_netlist("R r1 n1 0 50\nX bogus\n")

    @pytest.mark.parametrize("text, message", [
        ("R r1 n1 0\n", "R line needs 5 fields at line 2"),
        ("c c1 n1 0 1p 2p\n", "C line needs 5 fields at line 2"),
        ("G g1 n1 0 n2 0\n", "G line needs 7 fields at line 2"),
        ("PORT out n1\n", "PORT line needs 4 fields at line 2"),
        ("X bogus\n", "unknown card 'X' at line 2"),
    ])
    def test_field_count_per_card(self, text, message):
        with pytest.raises(NetlistParseError) as info:
            parse_netlist("R r0 n1 0 50\n" + text)
        assert str(info.value) == message

    def test_parse_errors_share_one_base_and_keep_the_line(self):
        with pytest.raises(NetlistParseError) as info:
            parse_netlist("R r1 a 0\n")
        assert info.value.line == 1
        assert str(info.value) == "R line needs 5 fields at line 1"
        with pytest.raises(NetlistParseError) as info:
            parse_netlist("# nothing\n")
        assert info.value.line is None
        assert str(info.value) == "netlist has no elements"
        for err in (NetlistParseError, ResponseParseError):
            assert issubclass(err, ParseError) and issubclass(err, ValueError)

    def test_floating_node_rejected(self):
        with pytest.raises(ValueError, match="floating"):
            Netlist((resistor("r1", "n1", "0", 50.0),
                     resistor("r2", "n2", "n3", 50.0)))

    def test_vccs_input_only_node_rejected(self):
        with pytest.raises(ValueError, match="floating"):
            Netlist((resistor("r1", "n1", "0", 50.0),
                     vccs("g1", "n1", "0", "nowhere", "0", 0.01)))

    def test_set_element_value(self):
        net = parallel_rlc(50.0)
        net2 = set_element_value(net, "r1", 75.0)
        assert net2.element("r1").value == 75.0
        assert net.element("r1").value == 50.0

    def test_parse_probe_forms(self):
        assert parse_probe("inode:n1").kind == "inode"
        assert parse_probe("vbranch:r1").kind == "vbranch"
        m = parse_probe("modal:a@0,b@180")
        assert m.nodes == ("a", "b") and m.phases_deg == (0.0, 180.0)
        with pytest.raises(ValueError):
            parse_probe("wat:x")

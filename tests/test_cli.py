import argparse
import json
import os
import pathlib
import re
import subprocess
import sys
import warnings
import xml.dom.minidom

import numpy as np
import pytest

from fixtures import sample_model, wideband_model
from pzid import cli, netsim, staban, sweeps
from pzid.cli import dispatch
from pzid.freqresp import FrequencyGrid, emit_csv, parse_csv
from pzid.ratfit import FitConfig, PartialFractionModel, save_model

NETLIST = """\
# unstable parallel tank behind a port
R r1 n1 0 -50
L l1 n1 0 1n
C c1 n1 0 1p
PORT out n1 50
"""

STABLE_NETLIST = NETLIST.replace("-50", "50")

TOUCHSTONE = "# GHz S RI R 50\n" + "\n".join(
    f"{f} {0.5 / f} {-0.1 * f}" for f in (1.0, 2.0, 3.0, 4.0)) + "\n"


@pytest.fixture
def net_file(tmp_path):
    p = tmp_path / "net.cir"
    p.write_text(NETLIST)
    return str(p)


@pytest.fixture
def resp_file(tmp_path, net_file):
    out = tmp_path / "resp.csv"
    code = dispatch(["synth", "--netlist", net_file, "--probe", "inode:n1",
                     "--fstart", "1e9", "--fstop", "9e9", "--points", "200",
                     "--out", str(out)])
    assert code == 0
    return str(out)


class TestSynthAndFit:
    def test_synth_writes_parseable_csv(self, resp_file):
        from pzid.freqresp import parse_csv
        with open(resp_file) as fh:
            rset = parse_csv(fh.read())
        assert [p.kind for p in rset.ports] == ["impedance"]
        assert len(rset.grid) == 200

    def test_fit_then_rho(self, tmp_path, resp_file):
        model = tmp_path / "model.json"
        assert dispatch(["fit", "--in", resp_file, "--order", "2",
                         "--method", "vf", "--out", str(model)]) == 0
        rho_out = tmp_path / "rho.json"
        assert dispatch(["rho", "--model", str(model), "--out", str(rho_out)]) == 0
        doc = json.loads(rho_out.read_text())
        assert len(doc["rho"]) == 1
        assert doc["config"]["model"] == str(model)

    def test_rho_table_matches_verdict_report(self, tmp_path):
        # port a is the pair alone, so its rho is +inf
        model = PartialFractionModel(
            np.array([complex(-3e9, 0), complex(-1e9, 2e10), complex(-1e9, -2e10)]),
            np.array([[0j, 1e9 + 2e8j, 1e9 - 2e8j], [5e8 + 0j, 1e9 + 0j, 1e9 - 0j]]),
            np.array([0.0, 1.0]), ("a", "b"))
        path = tmp_path / "model.json"
        path.write_text(save_model(model))
        rho_out = tmp_path / "rho.json"
        assert dispatch(["rho", "--model", str(path), "--out", str(rho_out)]) == 0
        doc = json.loads(rho_out.read_text())
        verdict = staban.StabilityVerdict(True, (), (), staban.rho_matrix(model),
                                          staban.OrderScan((), True, model))
        block = json.loads(staban.serialize_verdict(verdict))["rho"]
        assert doc["rho"][0][1] == "inf"
        assert doc["rho"] == block["values"]
        assert doc["pair_poles"] == block["pair_poles"] == [[-3e9, 0.0], [-1e9, 2e10]]
        assert doc["ports"] == block["ports"] == ["a", "b"]

    def test_fit_poly(self, tmp_path, resp_file):
        model = tmp_path / "model.json"
        assert dispatch(["fit", "--in", resp_file, "--order", "2",
                         "--method", "poly", "--out", str(model)]) == 0
        doc = json.loads(model.read_text())
        assert doc["method"] == "poly"

    def test_fit_accepts_touchstone(self, tmp_path):
        ts = tmp_path / "meas.s1p"
        ts.write_text(TOUCHSTONE)
        model = tmp_path / "model.json"
        assert dispatch(["fit", "--in", str(ts), "--order", "1",
                         "--method", "vf", "--out", str(model)]) == 0


class TestStability:
    def test_unstable_verdict_and_exit_code(self, tmp_path, resp_file):
        report = tmp_path / "verdict.json"
        svg = tmp_path / "map.svg"
        code = dispatch(["stability", "--in", resp_file, "--orders", "2:6",
                         "--report", str(report), "--svg", str(svg),
                         "--fail-on-unstable"])
        assert code == 1
        doc = json.loads(report.read_text())
        assert doc["stable"] is False
        assert doc["config"]["orders"] == "2:6"
        xml.dom.minidom.parseString(svg.read_text())

    def test_exit_zero_without_flag(self, tmp_path, resp_file):
        report = tmp_path / "verdict.json"
        assert dispatch(["stability", "--in", resp_file, "--orders", "2:6",
                         "--report", str(report)]) == 0

    def test_reports_byte_identical(self, tmp_path, resp_file):
        r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
        for r in (r1, r2):
            dispatch(["stability", "--in", resp_file, "--orders", "2:6",
                      "--report", str(r)])
        a, b = r1.read_text(), r2.read_text()
        assert a.replace(str(r1), "X") == b.replace(str(r2), "X")

    def test_report_is_the_serialized_verdict_plus_config(self, tmp_path, resp_file):
        report = tmp_path / "verdict.json"
        dispatch(["stability", "--in", resp_file, "--orders", "2:6", "--report", str(report)])
        with open(resp_file, encoding="utf-8") as fh:
            verdict = staban.auto_identify(parse_csv(fh.read()), range(2, 7))
        doc = json.loads(staban.serialize_verdict(verdict))
        doc["config"] = json.loads(report.read_text())["config"]
        assert report.read_text() == json.dumps(doc, indent=2, sort_keys=True) + "\n"


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_python(code, args, cwd, **threads):
    """Run ``code`` in a fresh interpreter that imports pzid from this
    checkout, with the BLAS thread variables unset except those given."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(threads)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=cwd,
                          capture_output=True, text=True)


class TestBlasThreads:
    def test_default_is_one_blas_thread(self, tmp_path):
        # on 2000 points a wideband fit rounds differently on two BLAS
        # threads, so the output bytes show which thread count ran
        resp = tmp_path / "wide.csv"
        resp.write_text(emit_csv(sample_model(wideband_model(), 1e6, 40e9, n=2000, log=True)))
        outputs = []
        for threads in ({}, dict.fromkeys(THREAD_VARS, "1")):
            run_dir = tmp_path / f"run-{len(outputs)}"
            run_dir.mkdir()
            done = run_python("from pzid.cli import main; main()",
                              ["stability", "--in", str(resp), "--orders", "16:24",
                               "--report", "report.json", "--svg", "map.svg"],
                              run_dir, **threads)
            assert done.returncode == 0, done.stderr
            outputs.append([(run_dir / name).read_bytes() for name in ("report.json", "map.svg")])
        assert outputs[0] == outputs[1]

    def test_user_setting_wins(self, tmp_path):
        code = f"import json, os, pzid; print(json.dumps([os.environ[v] for v in {THREAD_VARS}]))"
        done = run_python(code, [], tmp_path, OMP_NUM_THREADS="3")
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == ["1", "3", "1"]


class TestModalProbeFiles:
    def test_synth_then_stability(self, tmp_path):
        net = tmp_path / "combiner.cir"
        net.write_text("L la c a 1n\nL lb c b 1n\nC ca a 0 1p\nC cb b 0 1p\n"
                       "R ra a 0 200\nR rb b 0 200\nR rcm c 0 50\nC ccm c 0 0.5p\n")
        resp = tmp_path / "modal.csv"
        assert dispatch(["synth", "--netlist", str(net), "--probe", "modal:a@0,b@180",
                         "--fstart", "0.5e9", "--fstop", "12e9", "--points", "200",
                         "--out", str(resp)]) == 0
        report = tmp_path / "r.json"
        assert dispatch(["stability", "--in", str(resp), "--orders", "2:6",
                         "--report", str(report)]) == 0
        assert json.loads(report.read_text())["stable"] is True


COMBINER_NETLIST = ("L la c a 1n\nL lb c b 1n\nC ca a 0 1p\nC cb b 0 1p\n"
                    "R ra a 0 200\nR rb b 0 200\nR rcm c 0 50\nC ccm c 0 0.5p\n")


class TestProbeDescriptors:
    def synth(self, tmp_path, probe, name):
        net = tmp_path / "combiner.cir"
        net.write_text(COMBINER_NETLIST)
        out = tmp_path / name
        code = dispatch(["synth", "--netlist", str(net), "--probe", probe,
                         "--fstart", "0.5e9", "--fstop", "12e9", "--points", "200",
                         "--out", str(out)])
        return code, out

    def test_recorded_excitation_resynthesizes_exactly(self, tmp_path):
        code, first = self.synth(tmp_path, "modal:a@0,b@123.4567891", "first.csv")
        assert code == 0
        resp = parse_csv(first.read_text())
        recorded = resp.ports[0].excitation
        assert recorded == "modal:a@0,b@123.4567891"
        code, second = self.synth(tmp_path, recorded, "second.csv")
        assert code == 0
        assert np.array_equal(parse_csv(second.read_text()).values[0], resp.values[0])

    @pytest.mark.parametrize("probe", ["inode:", "vbranch:"])
    def test_cli_and_csv_reject_alike(self, tmp_path, capsys, probe):
        code, _ = self.synth(tmp_path, probe, "never.csv")
        assert code == 2
        cli_err = capsys.readouterr().err
        resp = tmp_path / "labelled.csv"
        rows = "\n".join(f"{f}e9,1.0,0.0" for f in range(1, 5))
        resp.write_text(f"# excitation: p1={probe}\nfreq_hz,p1_re,p1_im\n{rows}\n")
        with pytest.raises(ValueError) as exc:
            parse_csv(resp.read_text())
        assert dispatch(["stability", "--in", str(resp), "--orders", "2:2",
                         "--report", str(tmp_path / "r.json")]) == 2
        csv_err = capsys.readouterr().err
        assert cli_err.partition("error: ")[2] == csv_err.partition("error: ")[2]
        assert cli_err.partition("error: ")[2].strip() == str(exc.value)


class TestSweepCommands:
    def test_spiral_endpoint(self, tmp_path):
        out = tmp_path / "spiral.csv"
        assert dispatch(["spiral", "--turns", "11", "--points", "2000",
                         "--out", str(out)]) == 0
        last = out.read_text().strip().splitlines()[-1].split(",")
        gamma = complex(float(last[1]), float(last[2]))
        assert abs(gamma - (-0.999)) < 1e-12

    def test_mc_byte_identical(self, tmp_path, net_file):
        out = tmp_path / "mc.csv"
        args = ["mc", "--netlist", net_file, "--probe", "inode:n1",
                "--sigma", "0.05", "--trials", "10", "--seed", "42",
                "--order", "2", "--fstart", "1e9", "--fstop", "9e9",
                "--out", str(out)]
        assert dispatch(args) == 0
        first = out.read_text()
        assert dispatch(args) == 0
        assert out.read_text() == first

    def test_mc_svg_byte_identical(self, tmp_path, net_file):
        svg = tmp_path / "mc.svg"
        args = ["mc", "--netlist", net_file, "--probe", "inode:n1",
                "--sigma", "0.05", "--trials", "5", "--seed", "42",
                "--order", "2", "--fstart", "1e9", "--fstop", "9e9",
                "--out", str(tmp_path / "mc.csv"), "--svg", str(svg)]
        assert dispatch(args) == 0
        first = svg.read_bytes()
        assert dispatch(args) == 0
        assert svg.read_bytes() == first
        xml.dom.minidom.parseString(first)
        # two translucent strokes per plotted pole: the upper-half-plane pole
        # of each of the 5 trials
        assert first.count(b'stroke-opacity="0.35"') == 2 * 5

    def test_mc_sigma_outside_unit_interval_is_usage_error(self, tmp_path, net_file, capsys):
        assert dispatch(["mc", "--netlist", net_file, "--probe", "inode:n1",
                         "--sigma", "1.5", "--trials", "3", "--seed", "1",
                         "--out", str(tmp_path / "mc.csv")]) == 2
        assert "sigma 1.5 for R is outside [0, 1)" in capsys.readouterr().err

    def test_locus_csv_and_svg(self, tmp_path):
        net = tmp_path / "dr.cir"
        net.write_text(
            "C c1 B 0 1p\nL l1 B 0 1n\nR rneg B 0 -200\n"
            "C c2 A 0 2p\nL l2 A 0 2n\nR r2 A 0 300\n"
            "R rc A B 5k\nR rstab B 0 1M\n")
        out = tmp_path / "locus.csv"
        svg = tmp_path / "locus.svg"
        assert dispatch(["locus", "--netlist", str(net), "--probe", "inode:B",
                         "--param", "rstab", "--values", "10:1e6:9:log",
                         "--order", "4", "--fstart", "0.3e9", "--fstop", "8e9",
                         "--out", str(out), "--svg", str(svg)]) == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "param_value,track,re_rad_s,im_rad_s"
        assert any(line.startswith("# crossing:") for line in lines)
        xml.dom.minidom.parseString(svg.read_text())

    def test_threshold_stdout(self, tmp_path, capsys):
        net = tmp_path / "dr.cir"
        net.write_text(
            "C c1 B 0 1p\nL l1 B 0 1n\nR rneg B 0 -200\n"
            "C c2 A 0 2p\nL l2 A 0 2n\nR r2 A 0 300\n"
            "R rc A B 5k\nR rstab B 0 1M\n")
        code = dispatch(["threshold", "--netlist", str(net), "--probe", "inode:B",
                         "--param", "rstab", "--lo", "50", "--hi", "1000",
                         "--tol", "1e-4", "--order", "4",
                         "--fstart", "0.3e9", "--fstop", "8e9"])
        assert code == 0
        value = float(capsys.readouterr().out.strip())
        assert 200.0 < value < 220.0

    def test_proviso_report(self, tmp_path):
        net = tmp_path / "passive.cir"
        net.write_text("C c1 I 0 1p\nL l1 I 0 1n\nR r1 I 0 150\n"
                       "L lc I P 0.3n\nR rleak P 0 1M\nPORT out P 50\n")
        report = tmp_path / "proviso.json"
        assert dispatch(["proviso", "--netlist", str(net), "--port", "out",
                         "--probe", "inode:I", "--turns", "3", "--points", "8",
                         "--fstart", "0.5e9", "--fstop", "12e9",
                         "--grid-points", "300", "--orders", "2:6",
                         "--report", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["clean"] is True
        assert doc["n_scanned"] == 10

    def test_proviso_findings(self, tmp_path):
        # the masked twin of the loop above: stable matched, unstable shorted
        text = ("C c1 I 0 1p\nL l1 I 0 1n\nR r1 I 0 -150\n"
                "L lc I P 0.3n\nR rleak P 0 1M\nPORT out P 50\n")
        net = tmp_path / "masked.cir"
        net.write_text(text)
        report = tmp_path / "proviso.json"
        assert dispatch(["proviso", "--netlist", str(net), "--port", "out",
                         "--probe", "inode:I", "--turns", "3", "--points", "8",
                         "--fstart", "0.5e9", "--fstop", "12e9",
                         "--grid-points", "300", "--orders", "2:6",
                         "--report", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["clean"] is False and doc["failures"] == []
        found = {f["label"]: f for f in doc["findings"]}
        short = found["short-like"]
        assert short["gamma"] == [-0.999, 0.0] and short["h"] is None
        truth = netsim.analytic_poles(netsim.with_termination(
            netsim.parse_netlist(text), "out", -0.999, f_ref=(0.5e9 * 12e9) ** 0.5))
        truth = truth[truth.real > 0]
        poles = np.array([complex(*p) for p in short["poles"]])
        assert poles.size == truth.size == 2
        for p in truth:
            assert np.min(np.abs(poles - p)) / abs(p) < 1e-6


class TestParserDefaults:
    def test_defaults_are_the_library_defaults(self):
        parser = cli.build_parser()
        stability = parser.parse_args(["stability", "--in", "r.csv", "--orders", "2:4",
                                       "--report", "v.json"])
        cfg = staban.StabilityConfig()
        assert stability.rho_floor == cfg.rho_floor
        assert stability.cancel_tol == cfg.cancel_threshold
        assert stability.rms_target == cfg.rms_target
        fit = parser.parse_args(["fit", "--in", "r.csv", "--order", "2", "--out", "m.json"])
        locus = parser.parse_args(["locus", "--netlist", "n.cir", "--probe", "inode:n1",
                                   "--param", "r1", "--values", "1:2:3", "--out", "l.csv"])
        assert fit.iters == locus.iters == FitConfig(order=2).iters

    def test_readme_synopsis_lists_every_option(self):
        """Each subcommand's lines in the README's command synopsis name
        every option its parser defines, and no subcommand is missing."""
        readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
        block = readme.read_text().split("## Command line\n\n```\n", 1)[1].split("```", 1)[0]
        synopsis = {}
        for line in block.splitlines():
            if line.startswith("pzid "):
                command = line.split()[1]
            synopsis[command] = synopsis.get(command, "") + line + "\n"
        subparsers = next(a for a in cli.build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        assert set(synopsis) == set(subparsers.choices)
        for command, parser in subparsers.choices.items():
            options = {opt for action in parser._actions for opt in action.option_strings
                       if opt not in ("-h", "--help")}
            missing = {opt for opt in options
                       if not re.search(rf"(?<![\w-]){re.escape(opt)}(?![\w-])",
                                        synopsis[command])}
            assert not missing, f"{command}: {sorted(missing)}"


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert dispatch(["frobnicate"]) == 2

    def test_parser_is_built_once_and_survives_errors(self, tmp_path, monkeypatch, capsys):
        built = []
        monkeypatch.setattr(cli, "build_parser",
                            lambda build=cli.build_parser: built.append(1) or build())
        cli._parser.cache_clear()
        out = tmp_path / "s.csv"
        try:
            assert dispatch(["frobnicate"]) == 2
            assert dispatch(["spiral", "--turns", "1", "--points", "4", "--bogus"]) == 2
            for _ in range(2):
                assert dispatch(["spiral", "--turns", "1", "--points", "4",
                                 "--out", str(out)]) == 0
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1
        assert out.read_text().startswith("# config: out=")

    def test_unknown_flag_rejected(self, capsys):
        assert dispatch(["spiral", "--turns", "1", "--points", "4",
                         "--out", "/dev/null", "--bogus", "1"]) == 2

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        assert dispatch(["fit", "--in", str(tmp_path / "nope.csv"),
                         "--order", "2", "--out", str(tmp_path / "m.json")]) == 2

    @pytest.mark.parametrize("name, text, message", [
        ("nan.csv", "freq_hz,p1_re,p1_im\n1e9,1,0\n2e9,1,0\nnan,1,0\n4e9,1,0\n",
         "non-finite number 'nan' at line 4"),
        ("inf.s1p", "# GHz S RI R 50\n1 0.5 0\n2 0.5 0\n3 inf 0\n4 0.5 0\n",
         "non-finite number 'inf' at line 4"),
        ("db.s1p", "# GHz S DB R 50\n1 0 0\n2 0 0\n3 1e4 0\n4 0 0\n",
         "overflow scaling to Hz or converting from dB at line 4")])
    def test_non_finite_sample_is_a_usage_error_at_its_line(self, tmp_path, capsys,
                                                           name, text, message):
        resp = tmp_path / name
        resp.write_text(text)
        assert dispatch(["stability", "--in", str(resp), "--orders", "2:2",
                         "--report", str(tmp_path / "r.json")]) == 2
        assert capsys.readouterr().err.rstrip().endswith(message)
        assert not (tmp_path / "r.json").exists()

    def test_numeric_failure_exit_code(self, tmp_path, capsys):
        # over-ordered polynomial fit on constant data: rank-deficient
        resp = tmp_path / "const.csv"
        rows = "\n".join(f"{f}e6,2.0,0.0" for f in range(1, 41))
        resp.write_text("freq_hz,p1_re,p1_im\n" + rows + "\n")
        code = dispatch(["fit", "--in", str(resp), "--order", "3",
                         "--method", "poly", "--out", str(tmp_path / "m.json")])
        assert code == 3

    def test_lapack_failure_is_numeric_not_usage(self, tmp_path, capsys):
        # a constant 1e200 response breaks the relocation least squares
        resp = tmp_path / "huge.csv"
        rows = "\n".join(f"{float(f)!r},1e200,0.0" for f in np.linspace(1e8, 1e9, 200))
        resp.write_text("freq_hz,p1_re,p1_im\n" + rows + "\n")
        with np.errstate(all="ignore"):
            code = dispatch(["stability", "--in", str(resp), "--orders", "2:6",
                             "--report", str(tmp_path / "r.json")])
        assert code == 3
        assert "numeric failure" in capsys.readouterr().err

    def test_numeric_failure_prints_only_the_typed_error(self, tmp_path, capfd):
        # the column scaling overflowed: numpy warnings, then LAPACK's DLASCL
        # complaint on stdout, came before the typed error
        resp = tmp_path / "huge.csv"
        rows = "\n".join(f"{float(f)!r},1e200,0.0" for f in np.linspace(1e8, 1e9, 200))
        resp.write_text("freq_hz,p1_re,p1_im\n" + rows + "\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = dispatch(["stability", "--in", str(resp), "--orders", "2:6",
                             "--report", str(tmp_path / "r.json")])
        out, err = capfd.readouterr()
        assert code == 3
        assert not caught and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("pzid stability: numeric failure: ")

    def test_fit_error_overflow_is_not_an_instability(self, tmp_path, capsys):
        # squaring the 1e300 peak before dividing overflowed in fit_error
        resp = tmp_path / "huge.csv"
        rows = "\n".join(f"{float(f)!r},1e300,0.0" for f in np.linspace(1e8, 1e9, 200))
        resp.write_text("freq_hz,p1_re,p1_im\n" + rows + "\n")
        with np.errstate(all="ignore"):
            code = dispatch(["stability", "--in", str(resp), "--orders", "0:0",
                             "--report", str(tmp_path / "r.json")])
        assert code in (0, 3)
        assert "Traceback" not in capsys.readouterr().err

    def test_bad_values_spec(self, tmp_path, net_file, capsys):
        assert dispatch(["locus", "--netlist", net_file, "--probe", "inode:n1",
                         "--param", "r1", "--values", "nonsense",
                         "--out", str(tmp_path / "x.csv")]) == 2


class TestSvgRendering:
    def test_empty_pole_map_is_valid(self):
        from pzid.polemap import render_pole_map
        from pzid.staban import OrderScan, StabilityVerdict, rho_matrix
        model = PartialFractionModel(np.zeros(0, complex), np.zeros((1, 0), complex),
                                     np.array([1.0]))
        doc = render_pole_map(StabilityVerdict(True, (), (), rho_matrix(model),
                                               OrderScan((), True, model)))
        xml.dom.minidom.parseString(doc)

    def test_upper_half_plane_filter(self):
        from pzid.polemap import render_pole_map, PoleMapStyle
        model = PartialFractionModel(
            np.array([complex(-1e9, 2e10), complex(-1e9, -2e10)]),
            np.array([[1e9 + 0j, 1e9 - 0j]]), np.array([1.0]))
        v = staban.StabilityVerdict(True, (), (), staban.rho_matrix(model),
                                    staban.OrderScan((), True, model))
        half = render_pole_map(v)
        full = render_pole_map(v, PoleMapStyle(full_plane=True))
        assert half.count("<line") < full.count("<line")

    def test_unstable_marker_in_shaded_region(self, tmp_path, net_file):
        # smoke-level: the SVG contains the shading rect and pole markers
        resp = tmp_path / "r.csv"
        dispatch(["synth", "--netlist", net_file, "--probe", "inode:n1",
                  "--fstart", "1e9", "--fstop", "9e9", "--points", "200",
                  "--out", str(resp)])
        svg = tmp_path / "m.svg"
        dispatch(["stability", "--in", str(resp), "--orders", "2:4",
                  "--report", str(tmp_path / "v.json"), "--svg", str(svg)])
        text = svg.read_text()
        assert 'fill="#fbdada"' in text
        assert 'stroke="red"' in text


DOUBLE_RESONATOR = ("C c1 B 0 1p\nL l1 B 0 1n\nR rneg B 0 -200\n"
                    "C c2 A 0 2p\nL l2 A 0 2n\nR r2 A 0 300\n"
                    "R rc A B 5k\nR rstab B 0 1M\n")


class TestArgumentErrors:
    """Each malformed argument exits 2 with its message and writes nothing."""

    @pytest.fixture
    def dr_file(self, tmp_path):
        p = tmp_path / "dr.cir"
        p.write_text(DOUBLE_RESONATOR)
        return str(p)

    def run(self, capsys, tmp_path, argv, message):
        assert dispatch(argv) == 2
        assert capsys.readouterr().err == f"pzid {argv[0]}: error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("orders, message", [
        ("2-6", "bad range '2-6', expected LO:HI"),
        ("2:x", "bad range '2:x', expected LO:HI"),
        ("6:2", "bad range '6:2': HI < LO")])
    def test_bad_orders(self, tmp_path, capsys, resp_file, orders, message):
        self.run(capsys, tmp_path, ["stability", "--in", resp_file, "--orders", orders,
                                    "--report", str(tmp_path / "out")], message)

    def test_negative_order(self, tmp_path, capsys, resp_file):
        self.run(capsys, tmp_path, ["stability", "--in", resp_file, "--orders=-1:2",
                                    "--report", str(tmp_path / "out")],
                 "orders must be nonnegative integers, got -1")
        # without the '=', argparse reads -1:2 as an option and refuses it too
        assert dispatch(["stability", "--in", resp_file, "--orders", "-1:2",
                         "--report", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    def test_mc_scaled_value_that_overflows(self, tmp_path, capsys):
        net = tmp_path / "big.cir"
        net.write_text("C c1 n1 0 1p\nL l1 n1 0 1n\nR rbig n1 0 1.7e308\n")
        self.run(capsys, tmp_path, ["mc", "--netlist", str(net), "--probe", "inode:n1",
                                    "--sigma", "0.5", "--trials", "8", "--seed", "1",
                                    "--order", "2", "--out", str(tmp_path / "out")],
                 "element 'rbig' value is not finite")

    @pytest.mark.parametrize("values, message", [
        ("1:2", "bad values '1:2', expected LO:HI:N[:log]"),
        ("1:2:3:4:5", "bad values '1:2:3:4:5', expected LO:HI:N[:log]"),
        ("1:2:3:lin", "bad values '1:2:3:lin', expected LO:HI:N[:log]"),
        ("a:2:3", "bad values 'a:2:3'"),
        ("1:2:3.5", "bad values '1:2:3.5'"),
        ("1:2:0", "bad values '1:2:0'"),
        ("5:1:3", "bad values '5:1:3'"),
        ("0:1:3:log", "log spacing needs LO > 0"),
        ("-1:1:3:log", "log spacing needs LO > 0")])
    def test_bad_values(self, tmp_path, capsys, dr_file, values, message):
        self.run(capsys, tmp_path, ["locus", "--netlist", dr_file, "--probe", "inode:B",
                                    "--param", "rstab", f"--values={values}",
                                    "--out", str(tmp_path / "out")], message)

    @pytest.mark.parametrize("values", ["nan:400:3", "100:nan:3", "-inf:400:3", "100:inf:3",
                                        "nan:400:3:log", "100:nan:3:log", "inf:400:3:log",
                                        "100:inf:3:log"])
    def test_non_finite_values_bound(self, tmp_path, capsys, dr_file, values):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.test_bad_values(tmp_path, capsys, dr_file, values, f"bad values {values!r}")

    @pytest.mark.parametrize("flag, name", [("--lo", "lo"), ("--hi", "hi"), ("--tol", "tol_rel")])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_threshold_argument(self, tmp_path, capsys, monkeypatch, dr_file,
                                           flag, name, value):
        monkeypatch.setattr(sweeps, "element_loader", None)  # refused before any solve
        args = {"--lo": "50", "--hi": "1000", "--tol": "1e-2", flag: value}
        self.run(capsys, tmp_path, ["threshold", "--netlist", dr_file, "--probe", "inode:B",
                                    "--param", "rstab", *(f"{k}={v}" for k, v in args.items()),
                                    "--order", "4", "--fstart", "0.3e9", "--fstop", "8e9"],
                 f"{name} must be finite, got {float(value)!r}")

    @pytest.mark.parametrize("fstart, fstop", [("2e9", "1e9"), ("1e9", "1e9")])
    def test_fstart_must_be_below_fstop(self, tmp_path, capsys, net_file, fstart, fstop):
        self.run(capsys, tmp_path, ["synth", "--netlist", net_file, "--probe", "inode:n1",
                                    "--fstart", fstart, "--fstop", fstop, "--points", "20",
                                    "--out", str(tmp_path / "out")],
                 "--fstart must be below --fstop")

    def test_rho_needs_a_vf_model(self, tmp_path, capsys, resp_file):
        model = tmp_path / "poly.json"
        assert dispatch(["fit", "--in", resp_file, "--order", "2", "--method", "poly",
                         "--out", str(model)]) == 0
        self.run(capsys, tmp_path, ["rho", "--model", str(model), "--out", str(tmp_path / "out")],
                 "rho needs a partial-fraction (vf) model")

    @pytest.mark.parametrize("name, text", [
        ("neg.csv", "freq_hz,p1_re,p1_im\n-1,0,0\n1e9,1,0\n2e9,1,0\n3e9,1,0\n"),
        ("neg.s1p", "# Hz S RI R 50\n-1 0 0\n1 0.5 0\n2 0.5 0\n3 0.5 0\n")])
    def test_negative_frequency_is_refused_at_its_line(self, tmp_path, capsys, name, text):
        resp = tmp_path / name
        resp.write_text(text)
        self.run(capsys, tmp_path, ["stability", "--in", str(resp), "--orders", "2:2",
                                    "--report", str(tmp_path / "out")],
                 "negative frequency '-1' at line 2")


def read_table(path):
    """(comment lines before the header, header, rows parsed with float(),
    comment lines after the rows) of a CSV table the CLI wrote."""
    lines = path.read_text().splitlines()
    head = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    end = next((i for i in range(head + 1, len(lines)) if lines[i].startswith("#")), len(lines))
    assert all(line.startswith("#") for line in lines[end:])
    rows = [[float(cell) for cell in line.split(",")] for line in lines[head + 1:end]]
    return lines[:head], lines[head], rows, lines[end:]


def same_rows(got, want):
    """Row lists equal bit for bit, signed zeros included."""
    return np.array(got).tobytes() == np.array(want, dtype=float).tobytes()


class TestSweepTables:
    """The locus, mc and spiral tables hold, bit for bit, what the sweep
    functions return for the same arguments, and no cell holds a NumPy repr."""

    GRID = FrequencyGrid(np.linspace(0.3e9, 8e9, 400))

    def test_locus_rows(self, tmp_path, monkeypatch):
        net = tmp_path / "dr.cir"
        net.write_text(DOUBLE_RESONATOR)
        out = tmp_path / "locus.csv"
        # a fit that keeps no pole at 350 ohm leaves a NaN step on every track
        loader, fit = sweeps.element_loader, sweeps._fit_pole_sets
        at_350 = []

        def recording(*args):
            load = loader(*args)

            def recorded(value):
                resp = load(value)
                if value == 350.0:
                    at_350.append(resp)
                return resp

            return recorded

        monkeypatch.setattr(sweeps, "element_loader", recording)
        monkeypatch.setattr(sweeps, "_fit_pole_sets", lambda resps, cfg: [
            np.zeros(0, complex) if any(resp is r for r in at_350) else poles
            for resp, poles in zip(resps, fit(resps, cfg))])
        assert dispatch(["locus", "--netlist", str(net), "--probe", "inode:B",
                         "--param", "rstab", "--values", "100:400:7", "--order", "4",
                         "--fstart", "0.3e9", "--fstop", "8e9", "--out", str(out)]) == 0
        traj = sweeps.trace_pole_locus(netsim.parse_netlist(DOUBLE_RESONATOR),
                                       netsim.parse_probe("inode:B"), self.GRID, "rstab",
                                       np.linspace(100, 400, 7), FitConfig(order=4))
        assert np.isnan(traj.tracks[:, 5]).all() and traj.crossing_events
        before, header, rows, after = read_table(out)
        assert [line.split(":")[0] for line in before] == ["# config"]
        assert header == "param_value,track,re_rad_s,im_rad_s"
        assert same_rows(rows, [(v, ti, p.real, p.imag) for ti, track in enumerate(traj.tracks)
                                for v, p in zip(traj.param_values, track) if not np.isnan(p)])
        assert 350.0 not in {row[0] for row in rows}
        assert len(after) == len(traj.crossing_events)
        assert all(line.startswith("# crossing: param=") for line in after)
        assert "np." not in out.read_text()

    def test_locus_linear_values(self, tmp_path, monkeypatch):
        swept = []

        def record(net, probe, grid, param, values, cfg):
            swept.append(values)
            return sweeps.PoleTrajectory(values, np.zeros((0, values.size)), ())

        monkeypatch.setattr(sweeps, "trace_pole_locus", record)
        net = tmp_path / "dr.cir"
        net.write_text(DOUBLE_RESONATOR)
        assert dispatch(["locus", "--netlist", str(net), "--probe", "inode:B",
                         "--param", "rstab", "--values", "100:400:7",
                         "--out", str(tmp_path / "locus.csv")]) == 0
        assert swept[0].tobytes() == np.linspace(100, 400, 7).tobytes()

    def test_mc_rows(self, tmp_path, net_file):
        out = tmp_path / "mc.csv"
        assert dispatch(["mc", "--netlist", net_file, "--probe", "inode:n1",
                         "--sigma", "0.05", "--trials", "6", "--seed", "42", "--order", "2",
                         "--fstart", "1e9", "--fstop", "9e9", "--out", str(out)]) == 0
        cloud = sweeps.monte_carlo_cloud(netsim.parse_netlist(NETLIST),
                                         netsim.parse_probe("inode:n1"),
                                         FrequencyGrid(np.linspace(1e9, 9e9, 400)),
                                         0.05, 6, 42, FitConfig(order=2))
        before, header, rows, after = read_table(out)
        assert [line.split(":")[0] for line in before] == ["# config", "# margin"]
        assert before[1] == (f"# margin: max_re={cloud.margin_stats['max_re']!r} "
                             f"min_damping={cloud.margin_stats['min_damping']!r} "
                             f"fraction_unstable={cloud.margin_stats['fraction_unstable']!r} "
                             f"failed_trials=0")
        assert header == "trial,re_rad_s,im_rad_s" and after == []
        assert same_rows(rows, [(t, p.real, p.imag) for t, p in cloud.points])
        assert "np." not in out.read_text()

    def test_spiral_rows(self, tmp_path):
        out = tmp_path / "spiral.csv"
        assert dispatch(["spiral", "--turns", "3", "--points", "50", "--rmax", "0.9",
                         "--out", str(out)]) == 0
        path = sweeps.spiral_path(3, 50, 0.9)
        before, header, rows, after = read_table(out)
        assert [line.split(":")[0] for line in before] == ["# config"]
        assert header == "h,re_gamma,im_gamma" and after == []
        assert same_rows(rows, np.column_stack((path.h, path.gamma.real, path.gamma.imag)))
        assert "np." not in out.read_text()

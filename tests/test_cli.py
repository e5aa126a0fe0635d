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
from pzid import cli, netsim, staban
from pzid.cli import dispatch
from pzid.freqresp import emit_csv, parse_csv
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

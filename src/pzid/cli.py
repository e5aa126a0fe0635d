"""Command-line front end.

Subcommands: synth, fit, stability, rho, locus, threshold, mc, spiral,
proviso.  Exit codes: 0 success, 1 instability declared with
--fail-on-unstable set, 2 usage error, 3 numeric failure.  Every report
embeds the fully resolved configuration, and reruns with identical inputs,
flags and seed produce byte-identical outputs at a fixed BLAS thread count
(an ill-conditioned fit can round differently under another count).
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import netsim, polemap, ratfit, staban, sweeps
from .errors import NumericError, UsageError
from .freqresp import FrequencyGrid, emit_csv, parse_csv, parse_touchstone

__all__ = ["dispatch", "main"]


def _parse_range(text):
    """LO:HI inclusive integer range."""
    try:
        lo, hi = text.split(":")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise UsageError(f"bad range {text!r}, expected LO:HI") from None
    if hi < lo:
        raise UsageError(f"bad range {text!r}: HI < LO")
    return list(range(lo, hi + 1))


def _parse_values(text):
    """LO:HI:N[:log] sweep values."""
    parts = text.split(":")
    if len(parts) not in (3, 4) or (len(parts) == 4 and parts[3] != "log"):
        raise UsageError(f"bad values {text!r}, expected LO:HI:N[:log]")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise UsageError(f"bad values {text!r}") from None
    if n < 1 or hi < lo:
        raise UsageError(f"bad values {text!r}")
    if len(parts) == 4:
        if lo <= 0:
            raise UsageError("log spacing needs LO > 0")
        return np.geomspace(lo, hi, n)
    return np.linspace(lo, hi, n)


def _circuit(args):
    """The ``--netlist`` circuit and its ``--probe``."""
    with open(args.netlist, encoding="utf-8") as fh:
        net = netsim.parse_netlist(fh.read())
    return net, netsim.parse_probe(args.probe)


def _load_responses(path):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if path.lower().endswith((".s1p", ".s2p", ".snp")):
        return parse_touchstone(text)
    return parse_csv(text)


def _grid(args):
    if not args.fstart < args.fstop:
        raise UsageError("--fstart must be below --fstop")
    n = getattr(args, "grid_points", None)
    if n is None:
        n = args.points
    return FrequencyGrid(np.linspace(args.fstart, args.fstop, n))


def _write(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _write_json(path, doc):
    _write(path, ratfit._json_text(doc))


def _config_echo(args):
    out = {}
    for k, v in sorted(vars(args).items()):
        if k == "func" or v is None:
            continue
        out[k.replace("_", "-")] = v if isinstance(v, (int, float, bool, str)) else str(v)
    return out


def _config_comment(args):
    cfg = _config_echo(args)
    body = " ".join(f"{k}={cfg[k]}" for k in sorted(cfg))
    return f"# config: {body}\n"


def _render_svg(path, report, args):
    style = polemap.PoleMapStyle(axis=args.axis, full_plane=args.full_plane)
    _write(path, polemap.render_pole_map(report, style))


def _fit_config(args):
    return ratfit.FitConfig(order=args.order, iters=args.iters)


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_synth(args):
    net, probe = _circuit(args)
    resp = netsim.frequency_response(net, probe, _grid(args))
    _write(args.out, _config_comment(args) + emit_csv(resp))
    return 0


def _cmd_fit(args):
    resp = _load_responses(getattr(args, "in"))
    fit = ratfit.fit_polynomial_ratio if args.method == "poly" else ratfit.fit_common_denominator
    model, report = fit(resp, _fit_config(args))
    _write(args.out, ratfit.save_model(model, report))
    return 0


def _cmd_stability(args):
    resp = _load_responses(getattr(args, "in"))
    cfg = staban.StabilityConfig(rho_floor=args.rho_floor,
                                 cancel_threshold=args.cancel_tol,
                                 rms_target=args.rms_target)
    verdict = staban.auto_identify(resp, _parse_range(args.orders), cfg)
    doc = staban.verdict_report(verdict)
    doc["config"] = _config_echo(args)
    _write_json(args.report, doc)
    if args.svg:
        _render_svg(args.svg, verdict, args)
    if args.fail_on_unstable and not verdict.stable:
        return 1
    return 0


def _cmd_rho(args):
    with open(args.model, encoding="utf-8") as fh:
        model, _ = ratfit.load_model(fh.read())
    if not isinstance(model, ratfit.PartialFractionModel):
        raise UsageError("rho needs a partial-fraction (vf) model")
    doc = staban.rho_table(staban.rho_matrix(model))
    doc.update(schema=1, config=_config_echo(args), rho=doc.pop("values"))
    _write_json(args.out, doc)
    return 0


def _cmd_locus(args):
    net, probe = _circuit(args)
    traj = sweeps.trace_pole_locus(net, probe, _grid(args), args.param,
                                   _parse_values(args.values), _fit_config(args))
    lines = [_config_comment(args),
             "param_value,track,re_rad_s,im_rad_s\n"]
    for ti, track in enumerate(traj.tracks):
        for v, p in zip(traj.param_values, track):
            if not np.isnan(p):
                lines.append(f"{float(v)!r},{ti},{float(p.real)!r},{float(p.imag)!r}\n")
    for v, p in traj.crossing_events:
        lines.append(f"# crossing: param={float(v)!r} pole={float(p.real)!r}{float(p.imag):+}j\n")
    _write(args.out, "".join(lines))
    if args.svg:
        _render_svg(args.svg, traj, args)
    return 0


def _cmd_threshold(args):
    net, probe = _circuit(args)
    value = sweeps.stabilization_threshold(net, probe, _grid(args), args.param,
                                           args.lo, args.hi, args.tol, _fit_config(args))
    print(repr(float(value)))
    return 0


def _cmd_mc(args):
    net, probe = _circuit(args)
    cloud = sweeps.monte_carlo_cloud(net, probe, _grid(args), args.sigma,
                                     args.trials, args.seed, _fit_config(args))
    lines = [_config_comment(args)]
    stats = cloud.margin_stats
    lines.append(f"# margin: max_re={stats['max_re']!r} "
                 f"min_damping={stats['min_damping']!r} "
                 f"fraction_unstable={stats['fraction_unstable']!r} "
                 f"failed_trials={cloud.n_failed}\n")
    lines.append("trial,re_rad_s,im_rad_s\n")
    for trial, p in cloud.points:
        lines.append(f"{trial},{float(p.real)!r},{float(p.imag)!r}\n")
    _write(args.out, "".join(lines))
    if args.svg:
        _render_svg(args.svg, cloud, args)
    return 0


def _cmd_spiral(args):
    path = sweeps.spiral_path(args.turns, args.points, args.rmax)
    lines = [_config_comment(args), "h,re_gamma,im_gamma\n"]
    for h, g in zip(path.h, path.gamma):
        lines.append(f"{float(h)!r},{float(g.real)!r},{float(g.imag)!r}\n")
    _write(args.out, "".join(lines))
    return 0


def _cmd_proviso(args):
    net, probe = _circuit(args)
    spiral = sweeps.spiral_path(args.turns, args.points, args.rmax)
    report = sweeps.proviso_scan(net, args.port, probe, spiral, _grid(args),
                                 _parse_range(args.orders), staban.StabilityConfig())
    _write_json(args.report, {
        "schema": 1,
        "config": _config_echo(args),
        "n_scanned": report.n_scanned,
        "clean": report.clean,
        "findings": [
            {"label": f.label, "gamma": ratfit._c2pair(f.gamma), "h": f.h,
             "poles": [ratfit._c2pair(p) for p in f.poles]}
            for f in report.findings],
        "failures": list(report.failures),
    })
    return 0


# ---------------------------------------------------------------------------

def _add_circuit_opts(p):
    """Circuit file and probe descriptor of the netlist subcommands."""
    p.add_argument("--netlist", required=True)
    p.add_argument("--probe", required=True,
                   help="inode:<n> | vbranch:<e> | modal:<n1>@<deg1>,<n2>@<deg2>")


def _add_fit_opts(p):
    """Fit order and relocation-iteration cap of the sweep subcommands."""
    p.add_argument("--order", type=int, default=8)
    p.add_argument("--iters", type=int, default=ratfit.FitConfig.iters)


def _add_grid_opts(p, points_flag="--points"):
    p.add_argument("--fstart", type=float, default=1e8, help="band start in Hz")
    p.add_argument("--fstop", type=float, default=1e10, help="band stop in Hz")
    p.add_argument(points_flag, type=int, default=400, dest="grid_points",
                   help="grid point count")


def _add_svg_opts(p):
    p.add_argument("--svg", help="also render a pole map to this SVG file")
    p.add_argument("--axis", choices=("rad/s", "hz"), default="rad/s")
    p.add_argument("--full-plane", action="store_true",
                   help="plot both half-planes instead of positive frequencies only")


def build_parser():
    top = argparse.ArgumentParser(prog="pzid",
                                  description="pole-zero identification toolkit")
    sub = top.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("synth", help="simulate a probed frequency response")
    _add_circuit_opts(p)
    p.add_argument("--fstart", type=float, required=True)
    p.add_argument("--fstop", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("fit", help="fit a rational model to a response file")
    p.add_argument("--in", required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--method", choices=("vf", "poly"), default="vf")
    p.add_argument("--iters", type=int, default=ratfit.FitConfig.iters)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("stability", help="auto-identify and classify stability")
    p.add_argument("--in", required=True)
    p.add_argument("--orders", required=True, help="LO:HI order scan range")
    defaults = staban.StabilityConfig
    p.add_argument("--rho-floor", type=float, default=defaults.rho_floor)
    p.add_argument("--cancel-tol", type=float, default=defaults.cancel_threshold)
    p.add_argument("--rms-target", type=float, default=defaults.rms_target)
    p.add_argument("--report", required=True)
    p.add_argument("--fail-on-unstable", action="store_true")
    _add_svg_opts(p)
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser("rho", help="residue factors of a fitted model")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_rho)

    p = sub.add_parser("locus", help="pole trajectory versus an element value")
    _add_circuit_opts(p)
    p.add_argument("--param", required=True, help="element name to sweep")
    p.add_argument("--values", required=True, help="LO:HI:N[:log]")
    _add_fit_opts(p)
    _add_grid_opts(p)
    p.add_argument("--out", required=True)
    _add_svg_opts(p)
    p.set_defaults(func=_cmd_locus)

    p = sub.add_parser("threshold", help="find the stabilizing element value "
                       "(Brent root search, confirmed by the analytic oracle)")
    _add_circuit_opts(p)
    p.add_argument("--param", required=True)
    p.add_argument("--lo", type=float, required=True)
    p.add_argument("--hi", type=float, required=True)
    p.add_argument("--tol", type=float, required=True,
                   help="relative tolerance: the value lies within tol/2*|value| "
                        "of the fitted crossing")
    _add_fit_opts(p)
    _add_grid_opts(p)
    p.set_defaults(func=_cmd_threshold)

    p = sub.add_parser("mc", help="Monte Carlo pole cloud under element tolerances")
    _add_circuit_opts(p)
    p.add_argument("--sigma", type=float, required=True,
                   help="relative element tolerance in [0, 1)")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    _add_fit_opts(p)
    _add_grid_opts(p)
    p.add_argument("--out", required=True)
    _add_svg_opts(p)
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("spiral", help="Smith-chart spiral coverage path")
    p.add_argument("--turns", type=int, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--rmax", type=float, default=0.999)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_spiral)

    p = sub.add_parser("proviso", help="termination scan for hidden internal instability")
    _add_circuit_opts(p)
    p.add_argument("--port", required=True)
    p.add_argument("--turns", type=int, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--rmax", type=float, default=0.999)
    p.add_argument("--orders", default="2:8")
    _add_grid_opts(p, points_flag="--grid-points")
    p.add_argument("--report", required=True)
    p.set_defaults(func=_cmd_proviso)

    return top


@functools.cache
def _parser():
    """The parser of :func:`build_parser`, built once per process."""
    return build_parser()


def dispatch(argv):
    """Run one subcommand; returns the process exit code."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        return args.func(args)
    except (UsageError, ValueError, KeyError, OSError) as exc:
        print(f"pzid {args.subcommand}: error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"pzid {args.subcommand}: numeric failure: {exc}", file=sys.stderr)
        return 3


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()

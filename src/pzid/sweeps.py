"""Parametric analyses on top of the circuit engine and the fitters.

Pole loci versus a stabilization element, bisection for the stabilization
threshold, Monte Carlo pole clouds under element tolerances, the spiral
Smith-chart path, and termination scans for hidden internal instabilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.optimize

from .errors import NumericError, UsageError
from .netsim import (Netlist, analytic_poles, frequency_response,
                     set_element_value, with_termination)
from .ratfit import FitConfig, fit_common_denominator
from .staban import StabilityConfig, auto_identify

__all__ = [
    "PoleTrajectory",
    "PoleCloud",
    "SpiralPath",
    "SweepConfig",
    "ProvisoFinding",
    "ProvisoReport",
    "trace_pole_locus",
    "stabilization_threshold",
    "monte_carlo_cloud",
    "spiral_path",
    "proviso_scan",
]


# The sweep drivers fit at one fixed order per call and take a plain
# vector-fitting ``FitConfig``; ``SweepConfig`` is the same class.
SweepConfig = FitConfig


@dataclass(frozen=True)
class PoleTrajectory:
    """Pole tracks across a parameter sweep.

    ``tracks`` is (n_tracks, n_values) complex; NaN entries mark steps where
    the fit failed or kept a different number of in-band poles.  Crossing
    events are (parameter value, interpolated pole) where a track's real
    part changes sign.
    """

    param_values: np.ndarray
    tracks: np.ndarray
    crossing_events: tuple[tuple[float, complex], ...]


@dataclass(frozen=True)
class PoleCloud:
    """Monte Carlo pole scatter: (trial, pole) points plus margin statistics."""

    trials: int
    seed: int
    points: tuple[tuple[int, complex], ...]
    margin_stats: dict
    n_failed: int = 0


@dataclass(frozen=True)
class SpiralPath:
    """Smith-chart spiral gamma(h) = r_max * h * exp(j*(2N+1)*pi*h)."""

    turns: int
    r_max: float
    h: np.ndarray
    gamma: np.ndarray


def _fit_poles(net, probe, grid, cfg):
    """Fitted poles restricted to the analyzed band.

    Fitted poles far outside the swept band are extrapolation artifacts of
    the over-specified order, not circuit dynamics; they are dropped here so
    sweep decisions (crossings, thresholds, margins) stay meaningful.
    """
    resp = frequency_response(net, probe, grid)
    model, _ = fit_common_denominator(resp, cfg)
    keep = np.abs(model.poles) <= 3.0 * float(np.max(grid.omega))
    return model.poles[keep]


def _match_order(prev, new, scale):
    """Assignment of new poles to previous ones, minimizing total distance."""
    cost = np.abs(prev[:, None] - new[None, :]) / scale
    _, cols = scipy.optimize.linear_sum_assignment(cost)
    return cols


def trace_pole_locus(net, probe, grid, param, values, cfg):
    """Fit poles at each parameter value and join them into tracks.

    Matching across consecutive steps uses minimum-total-distance assignment
    in the complex plane scaled by the band's angular width.  Sign changes
    of a track's real part are localized by linear interpolation, then
    bisected against the analytic pole oracle until the crossing lies within
    0.2 % of the parameter; without a matching oracle pole the linear
    estimate stands.
    """
    values = [float(v) for v in values]
    if any(b <= a for a, b in zip(values, values[1:])):
        raise UsageError("parameter values must be ascending")
    net.element(param)
    scale = float(np.max(grid.omega) - np.min(grid.omega)) or float(np.max(grid.omega))

    pole_sets = []
    for v in values:
        try:
            poles = _fit_poles(set_element_value(net, param, v), probe, grid, cfg)
        except NumericError:
            poles = None
        pole_sets.append(poles)

    n_tracks = max((p.size for p in pole_sets if p is not None), default=0)
    tracks = np.full((n_tracks, len(values)), np.nan, dtype=complex)
    prev_idx = None  # track index -> pole for the last successful step
    for j, poles in enumerate(pole_sets):
        if poles is None or poles.size != n_tracks:
            continue
        if prev_idx is None:
            tracks[:, j] = poles
        else:
            ref = tracks[:, prev_idx]
            cols = _match_order(ref, poles, scale)
            tracks[:, j] = poles[cols]
        prev_idx = j

    crossings = []
    for track in tracks:
        for j in range(len(values) - 1):
            a, b = track[j], track[j + 1]
            if np.isnan(a) or np.isnan(b):
                continue
            ra, rb = a.real, b.real
            if ra == 0.0 or ra * rb >= 0.0:
                continue
            frac = ra / (ra - rb)
            t_lin = values[j] + frac * (values[j + 1] - values[j])
            t_cross, p_cross = _refine_crossing(net, param, values[j], values[j + 1],
                                                a, b, t_lin, scale)
            crossings.append((float(t_cross), complex(p_cross)))
    crossings.sort(key=lambda c: c[0])
    return PoleTrajectory(np.asarray(values), tracks, tuple(crossings))


def _refine_crossing(net, param, v_lo, v_hi, p_lo, p_hi, t_lin, scale):
    """Tighten the linear crossing estimate against the analytic oracle.

    The pencil is cheap to evaluate, so bisect the sweep interval on the
    sign of the matched analytic pole's real part until the crossing is
    localized to 0.2 % of the parameter.  Falls back to the linear estimate
    when no oracle pole corresponds to the fitted track.
    """
    p_lin = p_lo + (p_hi - p_lo) * (t_lin - v_lo) / (v_hi - v_lo)

    def matched(v, ref):
        try:
            poles = analytic_poles(set_element_value(net, param, v))
        except NumericError:
            return None
        if poles.size == 0:
            return None
        p = poles[int(np.argmin(np.abs(poles - ref)))]
        return p if abs(p - ref) / scale <= 0.1 else None

    a, b = v_lo, v_hi
    pa, pb = matched(a, p_lo), matched(b, p_hi)
    if pa is None or pb is None or pa.real == 0.0 or (pa.real > 0) == (pb.real > 0):
        return t_lin, p_lin
    while (b - a) > 0.002 * max(abs(a), abs(b)):
        mid = 0.5 * (a + b)
        pm = matched(mid, 0.5 * (pa + pb))
        if pm is None:
            break
        if pm.real == 0.0:
            return mid, pm
        if (pm.real > 0) == (pa.real > 0):
            a, pa = mid, pm
        else:
            b, pb = mid, pm
    frac = pa.real / (pa.real - pb.real)
    return a + frac * (b - a), pa + (pb - pa) * frac


def stabilization_threshold(net, probe, grid, param, lo, hi, tol_rel, cfg):
    """Bisect the parameter value where the dominant fitted pole crosses Re=0.

    Requires opposite stability at the bracket ends.  The result is verified
    against the analytic pole oracle of the patched netlist; disagreement
    raises rather than returning a silently wrong threshold.
    """
    if not (lo < hi):
        raise UsageError("need lo < hi")
    if tol_rel <= 0:
        raise UsageError("tol_rel must be positive")
    net.element(param)

    def max_re(v):
        poles = _fit_poles(set_element_value(net, param, v), probe, grid, cfg)
        if poles.size == 0:
            raise NumericError(f"no poles fitted at {param}={v}")
        return float(np.max(poles.real))

    r_lo, r_hi = max_re(lo), max_re(hi)
    if r_lo == 0.0 or r_hi == 0.0 or (r_lo > 0) == (r_hi > 0):
        raise UsageError(
            f"max Re(poles) has the same sign at both ends "
            f"({r_lo:.3g} at {lo}, {r_hi:.3g} at {hi}); no threshold inside")
    a, b = lo, hi
    while (b - a) > tol_rel * 0.5 * (a + b):
        mid = 0.5 * (a + b)
        if mid in (a, b):
            break
        r_mid = max_re(mid)
        if (r_mid > 0) == (r_lo > 0):
            a = mid
        else:
            b = mid
    value = 0.5 * (a + b)

    def oracle_re(v):
        poles = analytic_poles(set_element_value(net, param, v))
        return float(np.max(poles.real)) if poles.size else -math.inf

    span = max(4.0 * tol_rel * value, 1e-12 * value)
    o_lo, o_hi = oracle_re(value - span), oracle_re(value + span)
    if o_lo == 0.0 or o_hi == 0.0:
        return value
    if (o_lo > 0) == (o_hi > 0):
        raise NumericError(
            f"threshold {value} not confirmed by the analytic oracle "
            f"(oracle max Re = {o_lo:.3g} / {o_hi:.3g} around it)")
    return value


def monte_carlo_cloud(net, probe, grid, sigma, trials, seed, cfg):
    """Pole dispersion under bounded element tolerances.

    Per trial every element value is scaled by (1 + sigma*u) with u drawn
    uniformly from [-1, 1] by a seeded generator; sigma may be one number or
    a mapping per element kind ({'R': .., 'L': .., 'C': .., 'G': ..}).
    Trials whose fit fails are skipped and counted.
    """
    if trials < 1:
        raise UsageError("trials must be >= 1")
    sig = dict(sigma) if isinstance(sigma, dict) else \
        {k: float(sigma) for k in ("R", "L", "C", "G")}
    for v in sig.values():
        if v < 0:
            raise UsageError("sigma must be >= 0")
    rng = np.random.default_rng(seed)
    points = []
    n_failed = 0
    for trial in range(trials):
        # one draw per element in declaration order keeps runs reproducible
        factors = [1.0 + sig.get(e.kind, 0.0) * rng.uniform(-1.0, 1.0)
                   for e in net.elements]
        patched = Netlist(tuple(replace(e, value=e.value * f)
                                for e, f in zip(net.elements, factors)), net.ports)
        try:
            poles = _fit_poles(patched, probe, grid, cfg)
        except NumericError:
            n_failed += 1
            continue
        points.extend((trial, complex(p)) for p in poles)
    all_poles = np.asarray([p for _, p in points], dtype=complex)
    trial_ids = np.asarray([t for t, _ in points])
    if all_poles.size:
        mags = np.abs(all_poles)
        damping = np.where(mags > 0, -all_poles.real / np.where(mags > 0, mags, 1.0), 0.0)
        unstable_trials = set(trial_ids[all_poles.real > 0].tolist())
        n_ok = trials - n_failed
        stats = {
            "max_re": float(np.max(all_poles.real)),
            "min_damping": float(np.min(damping)),
            "fraction_unstable": len(unstable_trials) / n_ok if n_ok else math.nan,
        }
    else:
        stats = {"max_re": math.nan, "min_damping": math.nan, "fraction_unstable": math.nan}
    return PoleCloud(trials, seed, tuple(points), stats, n_failed)


def spiral_path(turns, points, r_max=0.999):
    """Single-parameter spiral covering the Smith chart.

    gamma(h) = r_max * h * exp(j*(2*turns+1)*pi*h) sampled at uniform h in
    [0, 1]: the radius grows linearly while the phase wraps 'turns' times,
    ending at -r_max.
    """
    if points < 2:
        raise UsageError("need at least 2 samples")
    if not 0.0 < r_max <= 1.0:
        raise UsageError("r_max must be in (0, 1]")
    if turns < 0:
        raise UsageError("turns must be >= 0")
    h = np.linspace(0.0, 1.0, points)
    gamma = r_max * h * np.exp(1j * (2 * turns + 1) * np.pi * h)
    return SpiralPath(int(turns), float(r_max), h, gamma)


@dataclass(frozen=True)
class ProvisoFinding:
    label: str
    gamma: complex
    h: float | None
    poles: tuple[complex, ...]


@dataclass(frozen=True)
class ProvisoReport:
    findings: tuple[ProvisoFinding, ...]
    failures: tuple[str, ...]
    n_scanned: int

    @property
    def clean(self):
        return not self.findings


def proviso_scan(net, port, probe, spiral, grid, orders, cfg=StabilityConfig()):
    """Hunt internal RHP poles over open/short-like corners plus a spiral sweep.

    Port-based stability criteria are only sufficient when no internal
    unstable loop hides from the external ports; this scan terminates the
    declared port at gamma = +r_max, -r_max and every spiral sample, running
    the identification pipeline at an internal probe each time.
    """
    orders = list(orders)
    net.port(port)
    f_ref = math.sqrt(grid.f_lo * grid.f_hi) if grid.f_lo > 0 else grid.f_hi / 2.0
    cases = [("open-like", complex(spiral.r_max), None),
             ("short-like", complex(-spiral.r_max), None)]
    cases += [(f"h={h:.6g}", complex(g), float(h))
              for h, g in zip(spiral.h, spiral.gamma)]
    findings = []
    failures = []
    for label, gamma, h in cases:
        try:
            terminated = with_termination(net, port, gamma, f_ref=f_ref)
            verdict = auto_identify(frequency_response(terminated, probe, grid),
                                    orders, cfg)
        except (NumericError, UsageError) as exc:
            failures.append(f"{label}: {exc}")
            continue
        if verdict.critical_poles:
            findings.append(ProvisoFinding(
                label, gamma, h, tuple(cp.value for cp in verdict.critical_poles)))
    return ProvisoReport(tuple(findings), tuple(failures), len(cases))

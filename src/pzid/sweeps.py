"""Parametric analyses on top of the circuit engine and the fitters.

Pole loci versus a stabilization element, a Brent root search for the
stabilization threshold, Monte Carlo pole clouds under element tolerances,
the spiral Smith-chart path, and termination scans for hidden internal
instabilities.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .errors import NumericError, PzidError, UsageError
from .netsim import (_responses, analytic_poles, element_loader, frequency_response,
                     set_element_value, termination_loader, with_termination)
from .ratfit import FitConfig, _batch_poles, fit_common_denominator
from .staban import StabilityConfig, _check_orders, _integer, _scan_orders, auto_identify

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


def _in_band(poles, grid):
    """The poles within 3x the band's top angular frequency.

    Fitted poles far outside the swept band are extrapolation artifacts of
    the over-specified order, not circuit dynamics; they are dropped so
    sweep decisions (crossings, thresholds, margins) stay meaningful.
    """
    return poles[np.abs(poles) <= 3.0 * float(np.max(grid.omega))]


def _fit_poles(resp, cfg):
    """Poles fitted to one response, restricted to the analyzed band."""
    model, _ = fit_common_denominator(resp, cfg)
    return _in_band(model.poles, resp.grid)


def _fit_pole_sets(resps, cfg):
    """:func:`_fit_poles` of each response, all walked as one batch that
    ends at its poles (``ratfit._batch_poles``), with None for a response
    whose relocation failed.  No residues are solved, so a response whose
    fit would fail only in its residue solve or its model's evaluation
    keeps the poles its relocation reached."""
    return [None if isinstance(poles, NumericError) else _in_band(poles, resp.grid)
            for resp, poles in zip(resps, _batch_poles(resps, cfg))]


def _value_loader(net, probe, grid, param, ref):
    """``load(v)``, the response with ``param`` at v, from one solve at ``ref``.

    The rank-one update of :func:`element_loader` loses digits on loads far
    from its reference, so ``ref`` lies inside the sweep.  Where the circuit
    at ``ref`` cannot be solved, each value is solved on its own, so a
    value still fails only by itself.
    """
    try:
        return element_loader(set_element_value(net, param, ref), param, probe, grid)
    except NumericError:
        return lambda v: frequency_response(set_element_value(net, param, v), probe, grid)


def _match_order(prev, new, scale):
    """Assignment of new poles to previous ones, minimizing total distance."""
    cost = np.abs(prev[:, None] - new[None, :]) / scale
    _, cols = scipy.optimize.linear_sum_assignment(cost)
    return cols


def trace_pole_locus(net, probe, grid, param, values, cfg):
    """Fit poles at each parameter value and join them into tracks.

    The circuit is solved once, with the element at the middle value, and
    each value is loaded onto that solve as a rank-one update
    (:func:`_value_loader`).  The loaded values are then fitted as one
    batch that ends at its poles (:func:`_fit_pole_sets`), whose every
    value gets the poles its fit alone would give.  A step whose load or
    pole relocation fails is left NaN, and the other steps are unchanged;
    a step whose fit would fail only in its residue solve or its model's
    evaluation keeps its poles.  A SHORT has no value to sweep and is
    refused with :class:`UsageError`.

    Matching across consecutive steps uses minimum-total-distance assignment
    in the complex plane scaled by the band's angular width.  Sign changes
    of a track's real part are localized by linear interpolation, then
    bisected against the analytic pole oracle until the crossing lies within
    0.2 % of the parameter; without a matching oracle pole the linear
    estimate stands.  The oracle is solved once per parameter value within
    a call, so conjugate tracks that bisect the same interval share it.
    """
    values = [float(v) for v in values]
    if any(b <= a for a, b in zip(values, values[1:])):
        raise UsageError("parameter values must be ascending")
    middle = values[len(values) // 2] if values else net.element(param).value
    load = _value_loader(net, probe, grid, param, middle)
    scale = float(np.max(grid.omega) - np.min(grid.omega)) or float(np.max(grid.omega))

    loaded = []
    for v in values:
        try:
            loaded.append(load(v))
        except NumericError:
            loaded.append(None)
    fitted = iter(_fit_pole_sets([resp for resp in loaded if resp is not None], cfg))
    pole_sets = [None if resp is None else next(fitted) for resp in loaded]

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

    @functools.cache
    def oracle(v):
        try:
            return analytic_poles(set_element_value(net, param, v))
        except NumericError:
            return None

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
            t_cross, p_cross = _refine_crossing(oracle, values[j], values[j + 1],
                                                a, b, t_lin, scale)
            crossings.append((float(t_cross), complex(p_cross)))
    crossings.sort(key=lambda c: c[0])
    return PoleTrajectory(np.asarray(values), tracks, tuple(crossings))


def _refine_crossing(oracle, v_lo, v_hi, p_lo, p_hi, t_lin, scale):
    """Tighten the linear crossing estimate against the analytic oracle.

    ``oracle(v)`` gives the analytic poles at parameter value v, or None
    where the pencil fails.  The pencil is cheap to evaluate, so bisect the
    sweep interval on the sign of the matched analytic pole's real part
    until the crossing is localized to 0.2 % of the parameter.  Falls back
    to the linear estimate when no oracle pole corresponds to the fitted
    track.
    """
    p_lin = p_lo + (p_hi - p_lo) * (t_lin - v_lo) / (v_hi - v_lo)

    def matched(v, ref):
        poles = oracle(v)
        if poles is None or poles.size == 0:
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
    """Find the parameter value where the dominant fitted pole crosses Re=0.

    Requires opposite stability at the bracket ends.  Brent's method on the
    largest fitted real part keeps a sign-change bracket and returns a value
    within tol_rel/2 * |value| of the fitted crossing (or as tight as floats
    allow, for tol_rel below 8.9e-16).  Each value is fitted on a rank-one
    load of one solve (:func:`_value_loader`), made with the element at the
    bracket's middle, or at lo where lo and hi differ in sign.  The values
    are fitted one at a time, as Brent's method picks each from the fits
    before it.  A load or fit that fails raises :class:`NumericError`; a
    non-finite lo, hi or tol_rel is refused with :class:`UsageError`
    before any solve, and so is a SHORT.  The result is verified against
    the analytic pole oracle of the patched netlist; disagreement raises
    rather than returning a silently wrong threshold.
    """
    for name, value in (("lo", lo), ("hi", hi), ("tol_rel", tol_rel)):
        if not math.isfinite(value):
            raise UsageError(f"{name} must be finite, got {value!r}")
    if not (lo < hi):
        raise UsageError("need lo < hi")
    if tol_rel <= 0:
        raise UsageError("tol_rel must be positive")
    # a resistor has no 0 ohm, so a bracket that spans zero solves at lo
    ref = lo if (lo > 0) != (hi > 0) else 0.5 * lo + 0.5 * hi
    load = _value_loader(net, probe, grid, param, ref)

    @functools.cache  # brentq's first calls reuse the bracket-end fits
    def max_re(v):
        poles = _fit_poles(load(v), cfg)
        if poles.size == 0:
            raise NumericError(f"no poles fitted at {param}={v}")
        return float(np.max(poles.real))

    r_lo, r_hi = max_re(lo), max_re(hi)
    if r_lo == 0.0 or r_hi == 0.0 or (r_lo > 0) == (r_hi > 0):
        raise UsageError(
            f"max Re(poles) has the same sign at both ends "
            f"({r_lo:.3g} at {lo}, {r_hi:.3g} at {hi}); no threshold inside")
    # brentq rejects an rtol below 4 eps; the tiny xtol only keeps it positive
    rtol = max(0.5 * tol_rel, 4.0 * np.finfo(float).eps)
    try:
        value = scipy.optimize.brentq(max_re, lo, hi, xtol=np.finfo(float).tiny,
                                      rtol=rtol)
    except RuntimeError as exc:
        raise NumericError(f"threshold search for {param} did not converge: {exc}") from exc

    def oracle_re(v):
        poles = analytic_poles(set_element_value(net, param, v))
        return float(np.max(poles.real)) if poles.size else -math.inf

    span = max(4.0 * tol_rel, 1e-12) * abs(value)
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
    uniformly from [-1, 1] by a seeded generator, trial by trial and within
    a trial in element order; sigma may be one number or a mapping per
    element kind ({'R': .., 'L': .., 'C': .., 'G': ..}), each in [0, 1) so
    that no scaled value reaches zero or changes sign.  A scaled value that
    no element takes (one that overflows) raises ``ValueError``.  The
    trials are stamped as one stack of pencils and solved together, each
    the response :func:`frequency_response` gives on its patched netlist
    (``netsim._responses``); they are then fitted as one batch that ends at
    its poles (:func:`_fit_pole_sets`), whose every trial gets the poles
    its fit alone would give.  Trials whose solve or pole relocation fails
    are skipped and counted, and the other trials are unchanged; a trial
    whose fit would fail only in its residue solve or its model's
    evaluation keeps its poles.  A non-integral or nonpositive ``trials``
    is refused with :class:`UsageError` before any draw.
    """
    count = _integer(trials)
    if count is None:
        raise UsageError(f"trials must be an integer, got {trials!r}")
    if count < 1:
        raise UsageError("trials must be >= 1")
    kinds = ("R", "L", "C", "G")
    sig = dict(sigma) if isinstance(sigma, dict) else dict.fromkeys(kinds, float(sigma))
    for kind, v in sig.items():
        if kind not in kinds:
            raise UsageError(f"sigma key {kind!r} is not an element kind (R, L, C, G)")
        if not 0.0 <= v < 1.0:
            raise UsageError(f"sigma {v!r} for {kind} is outside [0, 1)")
    rng = np.random.default_rng(seed)
    # one draw per element in declaration order, trial by trial, keeps runs
    # reproducible: one call of size (trials, elements) draws that sequence
    draws = rng.uniform(-1.0, 1.0, size=(count, len(net.elements)))
    spread = np.array([sig.get(e.kind, 0.0) for e in net.elements], dtype=float)
    nominal = np.array([e.value for e in net.elements], dtype=float)
    with np.errstate(over="ignore"):  # an overflow is refused as its element refuses it
        values = nominal * (1.0 + spread * draws)
    responses = _responses(net, probe, grid, values)
    solved = [(trial, resp) for trial, resp in enumerate(responses)
              if not isinstance(resp, NumericError)]
    n_failed = count - len(solved)
    points = []
    for (trial, _), poles in zip(solved, _fit_pole_sets([resp for _, resp in solved], cfg)):
        if poles is None:
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
    the identification pipeline at an internal probe each time.  The circuit
    is solved once, terminated in z0, and every termination is loaded onto
    that solve as a rank-one update (:func:`termination_loader`), realized
    as :func:`with_termination` would realize it.  The loaded cases are
    order-scanned as one batch, whose every case gets the scan it would get
    alone, and each case's verdict is then read off its own scan by
    :func:`auto_identify`.  A case whose load, scan or verdict fails is
    recorded as a failure, in case order, and the others are unchanged; a
    reference circuit that cannot be solved fails every case with the same
    error.  An empty or non-ascending ``orders``, or one that holds a
    negative or non-integral order, is refused with :class:`UsageError`
    before any solve.
    """
    orders = _check_orders(orders)
    net.port(port)
    f_ref = math.sqrt(grid.f_lo * grid.f_hi) if grid.f_lo > 0 else grid.f_hi / 2.0
    cases = [("open-like", complex(spiral.r_max), None),
             ("short-like", complex(-spiral.r_max), None)]
    cases += [(f"h={h:.6g}", complex(g), float(h))
              for h, g in zip(spiral.h, spiral.gamma)]
    try:
        load = termination_loader(with_termination(net, port, 0.0), port, probe, grid)
    except (NumericError, UsageError) as exc:
        # a reference circuit that cannot be solved fails every case alike
        return ProvisoReport((), tuple(f"{label}: {exc}" for label, _, _ in cases),
                             len(cases))
    loaded = []  # per case its response, or the error that failed its load
    for _, gamma, _ in cases:
        try:
            loaded.append(load(gamma, f_ref))
        except (NumericError, UsageError) as exc:
            loaded.append(exc)
    scans = iter(_scan_orders([resp for resp in loaded if not isinstance(resp, PzidError)],
                              orders, cfg))
    findings = []
    failures = []
    for (label, gamma, h), resp in zip(cases, loaded):
        try:
            if isinstance(resp, PzidError):
                raise resp
            scan = next(scans)
            if isinstance(scan, PzidError):
                raise scan
            verdict = auto_identify(resp, orders, cfg, scan=scan)
        except (NumericError, UsageError) as exc:
            failures.append(f"{label}: {exc}")
            continue
        if verdict.critical_poles:
            findings.append(ProvisoFinding(
                label, gamma, h, tuple(cp.value for cp in verdict.critical_poles)))
    return ProvisoReport(tuple(findings), tuple(failures), len(cases))

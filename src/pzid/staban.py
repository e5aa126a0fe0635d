"""Stability interpretation of fitted pole-zero data.

Turns fitted models into verdicts: classifies poles against the imaginary
axis, pairs poles with nearby zeros (quasi-cancellations), quantifies each
conjugate pair's contribution per observation port (the residue factor),
prunes over-modeling artifacts through sub-band re-identification, and
ranks ports by their sensitivity to a critical resonance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .errors import UsageError
from .freqresp import _fields_equal, _readonly, slice_band
from .ratfit import (FitConfig, FitReport, PartialFractionModel, PolePair, _c2pair,
                     _json_text, _PoleWalk, _aaa_degree, fit_common_denominator,
                     poles_and_zeros)

__all__ = [
    "ClassifiedPole",
    "OrderScan",
    "QuasiCancellation",
    "RhoMatrix",
    "ScanStep",
    "StabilityConfig",
    "StabilityVerdict",
    "classify_poles",
    "detect_quasi_cancellations",
    "rho_factor",
    "rho_matrix",
    "subband_consistency_check",
    "auto_identify",
    "rank_ports",
    "rho_table",
    "serialize_verdict",
    "verdict_report",
]


@dataclass(frozen=True)
class ClassifiedPole:
    """A pole with its resonant frequency, damping ratio and stability class."""

    value: complex
    label: str  # 'stable' | 'unstable' | 'marginal'

    @property
    def resonant_freq_hz(self):
        return abs(self.value.imag) / (2.0 * np.pi)

    @property
    def damping(self):
        mag = abs(self.value)
        return -self.value.real / mag if mag > 0 else 0.0


@dataclass(frozen=True)
class QuasiCancellation:
    """A pole-zero pair closer than the detection threshold."""

    pole: complex
    zero: complex
    rel_distance: float
    origin: str = "undecided"  # | 'physical-low-sensitivity' | 'numerical-overmodeling'


@dataclass(frozen=True)
class RhoMatrix:
    """Residue factors per (port, conjugate-pair); real poles count as pairs."""

    values: np.ndarray  # (n_ports, n_pairs)
    pair_poles: tuple[complex, ...]  # representative pole per pair
    port_names: tuple[str, ...]

    def __post_init__(self):
        v = np.array(self.values, dtype=float)  # a copy: the caller's array stays writable
        if v.shape != (len(self.port_names), len(self.pair_poles)):
            raise ValueError("rho matrix shape mismatch")
        if np.any(v < 0) or np.any(np.isnan(v)):
            raise ValueError("rho entries must be nonnegative")
        object.__setattr__(self, "values", _readonly(v))

    __eq__ = _fields_equal


_MARGIN_TOL_REL = 1e-6  # marginal band half-width, times max grid omega
_PERSIST_REL_TOL = 0.02  # relative pole-location tolerance of every persistence test
# Consecutive order+2 relocation steps on which every pole must have a mate
# before it counts as persisted.  Well-determined poles settle within one or
# two relocations while the spare pair keeps wandering (Gustavsen, IEEE
# TPWRD 2006), so the test need not wait for the spare pair.  One agreeing
# step is not enough: a walk can pass by the poles and move on (order 19 on
# 1000 linear samples of the tests' wideband model agrees on step 2 only).
_PERSIST_AGREEMENT = 2
_SUBBAND_FRACTIONS = (1.0, 0.5, 0.25)  # sub-band widths, as fractions of the band


@dataclass(frozen=True)
class StabilityConfig:
    """Pipeline thresholds; the defaults implement the tool's house rules.

    An order's poles are tested for persistence at order+2 once its rms
    meets ``rms_target`` and the grid holds order+3 samples; RHP pairs with
    best rho under ``rho_floor`` are re-identified in sub-bands;
    ``cancel_threshold`` bounds the reported quasi-cancellations.  Scanned
    orders use the default ``FitConfig``.
    """

    rms_target: float = 1e-6
    rho_floor: float = 1e-4
    cancel_threshold: float = 0.05


@dataclass(frozen=True)
class ScanStep:
    """One scanned order and its fit ``report``.  ``persisted`` is None when
    order+2 was not fitted, because the rms missed the target or the grid
    holds fewer than order+3 samples; else whether every pole has a mate at
    order+2, on two consecutive relocation steps or where that relocation
    stops.  ``drifted`` is the first pole without one at the stop."""

    order: int
    report: FitReport
    persisted: bool | None
    drifted: complex | None


@dataclass(frozen=True)
class OrderScan:
    """Scan result.  ``revealed`` is the degree the AAA probe found in the
    data, or None; the scan starts at the largest listed order at most
    ``revealed``, else at the lowest.  ``steps`` end at the first order
    meeting the rms target with persisting poles (``converged``), or list
    every scanned order when none does and ``model`` is the fit of the
    lowest-rms one (first on ties); ``model.order`` is the selected order."""

    steps: tuple[ScanStep, ...]
    converged: bool
    model: PartialFractionModel
    revealed: int | None = None


@dataclass(frozen=True)
class StabilityVerdict:
    stable: bool
    critical_poles: tuple[ClassifiedPole, ...]
    cancellations: tuple[QuasiCancellation, ...]
    rho: RhoMatrix
    scan: OrderScan
    audit: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()
    margin_tol: float = 0.0


def classify_poles(poles, margin_tol):
    """Classify poles as stable/unstable/marginal, sorted by descending Re."""
    if margin_tol < 0:
        raise UsageError("margin_tol must be >= 0")
    out = []
    for p in poles:
        p = complex(p)
        if abs(p.real) <= margin_tol:
            label = "marginal"
        elif p.real > 0:
            label = "unstable"
        else:
            label = "stable"
        out.append(ClassifiedPole(p, label))
    out.sort(key=lambda cp: (-cp.value.real, cp.value.imag))
    return out


def detect_quasi_cancellations(poles, zeros, threshold, omega_floor=None):
    """Optimally pair poles with zeros and report the close pairs.

    The pairing minimizes total |p - z| over one-to-one assignments (greedy
    nearest-neighbor misbinds when loci curve toward each other).
    rel_distance divides by max(|p|, omega_floor); the floor keeps pairs
    near the origin from blowing up the ratio.
    """
    if not 0.0 < threshold < 1.0:
        raise UsageError("threshold must be in (0, 1)")
    poles = np.asarray(poles, dtype=complex)
    zeros = np.asarray(zeros, dtype=complex)
    if poles.size == 0 or zeros.size == 0:
        return []
    if omega_floor is None:
        omega_floor = 1e-9 * float(np.max(np.abs(np.concatenate([poles, zeros]))))
    cost = np.abs(poles[:, None] - zeros[None, :])
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    found = []
    for i, j in zip(rows, cols):
        rel = cost[i, j] / max(abs(poles[i]), omega_floor)
        if rel <= threshold:
            found.append(QuasiCancellation(complex(poles[i]), complex(zeros[j]), float(rel)))
    found.sort(key=lambda qc: qc.rel_distance)
    return found


_RHO_GUARD = 1e-300


def _mag(z):
    # hypot is what Python's complex abs computes; NumPy's vectorized
    # complex abs can differ from it in the last bit
    return np.hypot(z.real, z.imag)


def rho_matrix(model):
    """Residue factors for every (port, pair) of a partial-fraction model.

    rho = |H_pair(j w_r)| / |H_rest(j w_r)| with w_r the pair's resonant
    frequency (0 for a real pole) and H_rest the remaining terms plus the
    direct term, summed directly, pair by pair, to avoid cancellation.  An
    entry is +inf when the pair is essentially the whole response and 0.0
    when another pair resonating at the same frequency dominates it.
    """
    pairs = model.pole_pairs()
    n = len(pairs)
    s = 1j * np.array([p.resonant_omega for p in pairs], dtype=float)
    # terms[port, i, j]: pair j's terms summed at pair i's resonance
    terms = np.empty((model.n_ports, n, n), dtype=complex)
    with np.errstate(all="ignore"):
        for j, pair in enumerate(pairs):
            idx = list(pair.indices)
            gap = s[:, None] - model.poles[idx]
            terms[:, :, j] = np.sum(model.residues[:, None, idx] / gap, axis=-1)
            terms[:, np.any(_mag(gap) < _RHO_GUARD, axis=1), j] = complex(np.inf, 0.0)
        num = _mag(np.diagonal(terms, axis1=1, axis2=2))
        terms[:, np.arange(n), np.arange(n)] = 0.0
        rest = np.repeat(model.direct.astype(complex)[:, None], n, axis=1)
        for j in range(n):
            rest += terms[:, :, j]
        den = _mag(rest)
        vals = num / den
    vals[den < _RHO_GUARD] = np.inf
    vals[~np.isfinite(den)] = 0.0  # some other pair dominates this frequency completely
    vals[~np.isfinite(num)] = np.inf  # pair resonates exactly on the axis
    return RhoMatrix(vals, tuple(p.pole for p in pairs), model.port_names)


def rho_factor(model, port, pair):
    """Residue factor of one pair, given by index or ``PolePair``, on one port.

    One entry of :func:`rho_matrix`.
    """
    if isinstance(pair, PolePair):
        pair = [p.indices for p in model.pole_pairs()].index(pair.indices)
    return float(rho_matrix(model).values[model.port_index(port), pair])


def rank_ports(verdict, pair_index):
    """Ports ordered by descending rho for one pair; ties keep declaration order."""
    rho = verdict.rho
    if not 0 <= pair_index < len(rho.pair_poles):
        raise UsageError(f"no pair {pair_index} in the verdict")
    col = rho.values[:, pair_index]
    order = sorted(range(len(rho.port_names)), key=lambda i: (-col[i], i))
    return [(rho.port_names[i], float(col[i])) for i in order]


# ---------------------------------------------------------------------------
# order selection and over-modeling pruning

def _omega_floor(grid):
    """Smallest magnitude a relative pole distance divides by."""
    return 1e-9 * float(np.max(grid.omega))


def _poles_persist(poles_a, poles_b, floor):
    """First pole in a with no mate in b within the relative location
    tolerance, or None when every pole persists."""
    for p in poles_a:
        if poles_b.size == 0 or \
                np.min(np.abs(poles_b - p)) / max(abs(p), floor) > _PERSIST_REL_TOL:
            return complex(p)
    return None


def _persistence_walk(resps, poles, floor, fits):
    """First of ``poles`` without a mate at order+2, or None when all persist.

    Walks the order+2 relocation from its own start poles and decides
    "persisted" once every pole has a mate on ``_PERSIST_AGREEMENT``
    consecutive steps.  "Drifted" is read only where the walk stops; the
    walk is then finished into the order+2 fit and cached in ``fits``.
    """
    walk = _PoleWalk(resps, FitConfig(order=poles.size + 2))
    agreed = 0
    for walked in walk:
        drifted = _poles_persist(poles, walked, floor)
        agreed = agreed + 1 if drifted is None else 0
        if agreed == _PERSIST_AGREEMENT:
            return None
    fits[walk.poles.size] = walk.finish()
    return drifted


def _scan_orders(resps, orders, cfg):
    """Fit ascending orders from the one the AAA probe reveals; select the
    smallest meeting the rms target whose poles persist at order+2, else
    the lowest-rms scanned order.

    Persistence is decided on the order+2 relocation walk: "persisted" as
    soon as every pole has had a mate on two consecutive steps, "drifted"
    only at the walk's stop, whose finished order+2 fit a later scanned
    order reuses."""
    orders = [int(n) for n in orders]
    if not orders or any(b <= a for a, b in zip(orders, orders[1:])):
        raise UsageError("orders must be a nonempty ascending sequence")
    revealed = _aaa_degree(resps, cfg.rms_target, orders[-1])
    if revealed is not None:  # start at the largest order not above it
        orders = orders[max(sum(n <= revealed for n in orders) - 1, 0):]
    floor = _omega_floor(resps.grid)
    fits = {}

    steps = []
    for n in orders:
        if n not in fits:
            fits[n] = fit_common_denominator(resps, FitConfig(order=n))
        model, report = fits[n]
        persisted = drifted = None
        # the order+2 fit needs n + 3 samples
        if report.rms_rel_error <= cfg.rms_target and n + 3 <= len(resps.grid):
            drifted = _persistence_walk(resps, model.poles, floor, fits)
            persisted = drifted is None
        steps.append(ScanStep(n, report, persisted, drifted))
        if persisted:
            return OrderScan(tuple(steps), True, model, revealed)
    best = min(steps, key=lambda step: step.report.rms_rel_error)
    return OrderScan(tuple(steps), False, fits[best.order][0], revealed)


def subband_consistency_check(resps, suspect, widths_hz, orders, cfg=StabilityConfig()):
    """Re-identify in sub-bands centered on a suspect pole's resonance.

    Physical poles reappear at the same location whatever the bandwidth;
    over-modeling artifacts drift.  Returns 'physical' only if the suspect
    persists (within the location tolerance) in every sub-band.
    """
    orders = list(orders)
    suspect = complex(suspect)
    f_r = abs(suspect.imag) / (2.0 * np.pi)
    g = resps.grid
    if not g.f_lo <= f_r <= g.f_hi:
        raise UsageError(
            f"suspect resonant frequency {f_r} Hz lies outside the grid "
            f"[{g.f_lo}, {g.f_hi}] Hz")
    floor = _omega_floor(g)
    for width in widths_hz:
        lo = max(f_r - width / 2.0, g.f_lo)
        hi = min(f_r + width / 2.0, g.f_hi)
        try:
            sub = slice_band(resps, lo, hi)
        except ValueError as exc:
            raise UsageError(f"sub-band of width {width} Hz is too narrow: {exc}") from None
        usable = [n for n in orders if len(sub.grid) >= n + 1]
        if not usable:
            raise UsageError(f"sub-band of width {width} Hz is too narrow for any fit")
        sub_poles = _scan_orders(sub, usable, cfg).model.poles
        if _poles_persist([suspect], sub_poles, floor) is not None:
            return "numerical"
    return "physical"


def auto_identify(resps, orders, cfg=StabilityConfig()):
    """Full pipeline: order scan, rho analysis, over-modeling pruning, verdict.

    RHP pairs whose best rho over all ports falls below the floor are
    routed to sub-band consistency checking; artifacts classified numerical
    are pruned before the stability verdict is read off the pole map.
    """
    orders = list(orders)
    scan = _scan_orders(resps, orders, cfg)
    model = scan.model
    margin_tol = _MARGIN_TOL_REL * float(np.max(resps.grid.omega))
    rho = rho_matrix(model)
    pairs = model.pole_pairs()
    band = resps.grid.f_hi - resps.grid.f_lo
    widths = tuple(frac * band for frac in _SUBBAND_FRACTIONS)

    audit = []
    notes = []
    skipped = [str(n) for n in orders if n < scan.steps[0].order]
    if skipped:
        notes.append(f"orders {', '.join(skipped)} not scanned: the AAA probe "
                     f"revealed degree {scan.revealed}")
    if not scan.converged:
        notes.append(f"no order in {scan.steps[0].order}..{scan.steps[-1].order} passed "
                     f"the selection rule (rms <= {cfg.rms_target} plus pole "
                     f"persistence); best attempt order {model.order}")

    tested = ", ".join(f"{w:.4g} Hz" for w in widths)
    kept_poles = []
    origin_of = {}
    for k, pair in enumerate(pairs):
        rep = pair.pole
        members = model.poles[list(pair.indices)]
        origin = "undecided"
        if rep.real > margin_tol:
            origin = "physical-low-sensitivity"
            max_rho = float(np.max(rho.values[:, k]))
            f_r = abs(rep.imag) / (2.0 * np.pi)
            if max_rho >= cfg.rho_floor:
                audit.append(f"pair {k} at {rep:.6g}: rho {max_rho:.3g} >= floor, kept")
            elif not resps.grid.f_lo <= f_r <= resps.grid.f_hi:
                audit.append(f"pair {k} at {rep:.6g}: resonance outside grid, kept unverified")
            else:
                sub = subband_consistency_check(resps, rep, widths, orders, cfg)
                audit.append(f"pair {k} at {rep:.6g}: rho {max_rho:.3g} < floor, "
                             f"re-identified in sub-bands of width {tested} -> {sub}")
                if sub == "numerical":
                    origin = "numerical-overmodeling"
        if origin != "numerical-overmodeling":
            kept_poles.extend(members)
        for p in members:
            origin_of.setdefault(p, origin)
    classified = classify_poles(kept_poles, margin_tol)
    critical = tuple(cp for cp in classified if cp.label == "unstable")

    cancellations = []
    floor = _omega_floor(resps.grid)
    for name in model.port_names:
        _, zeros = poles_and_zeros(model, name)
        for qc in detect_quasi_cancellations(model.poles, zeros,
                                             cfg.cancel_threshold, floor):
            origin = origin_of.get(qc.pole, "undecided")
            cancellations.append(QuasiCancellation(qc.pole, qc.zero, qc.rel_distance, origin))
    cancellations.sort(key=lambda qc: (qc.rel_distance, qc.pole.real, qc.pole.imag))

    return StabilityVerdict(
        stable=not critical,
        critical_poles=critical,
        cancellations=tuple(cancellations),
        rho=rho,
        scan=scan,
        audit=tuple(audit),
        notes=tuple(notes),
        margin_tol=margin_tol,
    )


def rho_table(rm):
    """JSON-ready rho table: ports, each pair's representative pole as
    [re, im] and the values, a non-finite entry written as its repr."""
    return {
        "ports": list(rm.port_names),
        "pair_poles": [_c2pair(p) for p in rm.pair_poles],
        "values": [[v if np.isfinite(v) else repr(v) for v in map(float, row)]
                   for row in rm.values],
    }


def verdict_report(verdict):
    """JSON-ready report: poles, cancellation table, rho matrix, order-scan
    trace and the pruning audit log."""
    def pole(cp):
        return {"rad_s": _c2pair(cp.value), "freq_hz": cp.resonant_freq_hz,
                "damping": cp.damping, "class": cp.label}

    return {
        "schema": 1,
        "stable": verdict.stable,
        "converged": verdict.scan.converged,
        "selected_order": verdict.scan.model.order,
        "margin_tol_rad_s": verdict.margin_tol,
        "critical_poles": [pole(cp) for cp in verdict.critical_poles],
        "cancellations": [
            {"pole": _c2pair(qc.pole), "zero": _c2pair(qc.zero),
             "rel_distance": qc.rel_distance, "origin": qc.origin}
            for qc in verdict.cancellations],
        "order_scan": [{"order": step.order, "rms_rel_error": step.report.rms_rel_error}
                       for step in verdict.scan.steps],
        "audit": list(verdict.audit),
        "notes": list(verdict.notes),
        "rho": rho_table(verdict.rho),
        "poles": [pole(cp) for cp in classify_poles(verdict.scan.model.poles,
                                                    verdict.margin_tol)],
    }


def serialize_verdict(verdict):
    """:func:`verdict_report` as indented JSON text with sorted keys."""
    return _json_text(verdict_report(verdict))

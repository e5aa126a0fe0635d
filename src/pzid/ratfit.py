"""Rational-model fitting of sampled frequency responses.

Two engines share the task of turning samples H(jw) into pole-zero data:

* a polynomial-ratio fitter (numerator/denominator coefficients) using the
  Levy linearization with Sanathanan-Koerner reweighting, solved as the
  unit-norm null direction of the stacked real system; and
* a partial-fraction vector-fitting engine that relocates a common pole set
  shared by all ports, then solves per-port residues and direct terms.

Neither engine enforces model stability: right-half-plane poles are kept
exactly where the data puts them, which is the whole point when the fitted
poles are read as a stability verdict.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass, replace

import numpy as np
from scipy.linalg import lapack

from .errors import NumericError, UsageError
from .freqresp import _fields_equal, _readonly

__all__ = [
    "PolynomialRatioModel",
    "PartialFractionModel",
    "PolePair",
    "FitConfig",
    "FitReport",
    "RankDeficiencyError",
    "fit_polynomial_ratio",
    "fit_common_denominator",
    "poles_and_zeros",
    "evaluate_model",
    "fit_error",
    "save_model",
    "load_model",
]


class RankDeficiencyError(NumericError):
    """The fit system has no unique solution (order too high for the data)."""


@dataclass(frozen=True)
class FitConfig:
    """Knobs shared by both fitting engines; the function called picks the engine.

    ``iters`` bounds the Sanathanan-Koerner reweighting or vector-fitting
    pole-relocation loop.  The loop may stop earlier: reweighting once the
    coefficients stop moving, relocation once the poles stop moving, the
    scaling function has settled (||c_sigma|| / |d_sigma| <= ``_SIGMA_TOL``)
    or the relocation least squares keeps the same rank deficit on two
    steps in a row.  :class:`FitReport` records which stop ended the loop.
    Pole relocation always uses the relaxed nontriviality constraint.
    """

    order: int
    iters: int = 12

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("order must be >= 0")
        if not 1 <= self.iters <= 100:
            raise ValueError("iters must be in 1..100")


# the stops on which a fitting loop's iterate settled: its fit is ``converged``
_SETTLED = ("pole-move", "sigma-settled", "no-poles", "coeff-move")
_FIT_STOPS = _SETTLED + ("iteration-cap", "rank-deficient")


@dataclass(frozen=True)
class FitReport:
    """Accuracy of a fitted model and how its fitting loop ended.

    ``stop`` names what ended the loop.  Vector fitting: ``pole-move`` (no
    band-normalized pole moved by 1e-10 of max(1, largest magnitude)),
    ``sigma-settled`` (the scaling function's residues vanished against its
    direct term, ||c_sigma|| / |d_sigma| <= ``_SIGMA_TOL``),
    ``rank-deficient`` (the relocation least squares had the same rank,
    below n + 1, on two steps in a row: the order exceeds the data's and
    the spare poles are not determined), ``iteration-cap`` or ``no-poles``
    (order 0, nothing to relocate).  Polynomial ratio: ``coeff-move``
    (coefficients moved by less than 1e-14), ``rank-deficient`` (the null
    space became ambiguous after a clean iterate) or ``iteration-cap``.
    ``stop`` is None for a report of :func:`fit_error` alone and for a model
    file saved without it.

    ``converged`` is True when the loop stopped because its iterate
    settled: on ``pole-move`` or ``sigma-settled``, on ``coeff-move``, and
    for ``no-poles``.  It is False on ``rank-deficient`` and
    ``iteration-cap``.
    """

    rms_rel_error: float
    max_phase_err_deg: float
    iters_used: int
    converged: bool
    stop: str | None = None

    def __post_init__(self):
        if self.rms_rel_error < 0 or self.max_phase_err_deg < 0:
            raise ValueError("error metrics must be nonnegative")
        if self.stop is not None and self.stop not in _FIT_STOPS:
            raise ValueError(f"unknown fit stop {self.stop!r}")


@dataclass(frozen=True)
class PolynomialRatioModel:
    """H(s) = A(s/s_scale)/B(s/s_scale) with real, jointly unit-norm coefficients.

    Coefficients are ascending in powers of the normalized variable;
    ``s_scale`` (rad/s) is the normalization used during fitting.
    """

    num_coeffs: np.ndarray
    den_coeffs: np.ndarray
    s_scale: float

    def __post_init__(self):
        a = np.asarray(self.num_coeffs, dtype=float)
        b = np.asarray(self.den_coeffs, dtype=float)
        if a.ndim != 1 or b.ndim != 1 or a.size == 0 or b.size == 0:
            raise ValueError("coefficient vectors must be nonempty 1-D")
        if not np.any(b):
            raise ValueError("denominator coefficients are all zero")
        if not (math.isfinite(self.s_scale) and self.s_scale > 0):
            raise ValueError("s_scale must be positive and finite")
        joint = math.hypot(np.linalg.norm(a), np.linalg.norm(b))
        a, b = a / joint, b / joint
        # deterministic sign: largest-magnitude joint coefficient positive
        stacked = np.concatenate([a, b])
        if stacked[int(np.argmax(np.abs(stacked)))] < 0:
            a, b = -a, -b
        object.__setattr__(self, "num_coeffs", _readonly(a))
        object.__setattr__(self, "den_coeffs", _readonly(b))

    __eq__ = _fields_equal

    @property
    def order(self):
        return self.den_coeffs.size - 1


@dataclass(frozen=True)
class PolePair:
    """One conjugate pair (indices i, i+1) or one real pole (single index)."""

    indices: tuple[int, ...]
    pole: complex  # representative, Im >= 0

    @property
    def resonant_omega(self):
        """Resonant frequency |Im p| in rad/s; 0 for a real pole."""
        return abs(self.pole.imag)


@dataclass(frozen=True)
class PartialFractionModel:
    """H_n(s) = sum_k r_{n,k}/(s - p_k) + D_n with a pole set shared by all ports.

    Poles are closed under conjugation with exactly conjugate residues, so
    evaluation on conjugate-symmetric grids yields conjugate values and the
    impulse response is real.  Canonical storage: real poles first
    (ascending), then conjugate pairs (positive-imag member first).
    """

    poles: np.ndarray
    residues: np.ndarray
    direct: np.ndarray
    port_names: tuple[str, ...] = ()

    def __post_init__(self):
        p = np.asarray(self.poles, dtype=complex).reshape(-1)
        r = np.atleast_2d(np.asarray(self.residues, dtype=complex))
        d = np.array(self.direct, dtype=float).reshape(-1)  # a copy, as p and r are
        if r.shape != (d.size, p.size):
            raise ValueError(f"residues shape {r.shape} != (n_ports={d.size}, n_poles={p.size})")
        if not (np.isfinite(p).all() and np.isfinite(r).all() and np.isfinite(d).all()):
            raise ValueError("model parameters must be finite")
        names = tuple(self.port_names) or tuple(f"p{i + 1}" for i in range(d.size))
        if len(names) != d.size:
            raise ValueError("port_names length does not match direct terms")
        p, r = _canonical_pf(p, r)
        object.__setattr__(self, "poles", _readonly(p))
        object.__setattr__(self, "residues", _readonly(r))
        object.__setattr__(self, "direct", _readonly(d))
        object.__setattr__(self, "port_names", names)

    __eq__ = _fields_equal

    @property
    def order(self):
        return self.poles.size

    @property
    def n_ports(self):
        return self.direct.size

    def port_index(self, port=None):
        """Row of a port given by name or index; None names the only port."""
        if port is None:
            if self.n_ports != 1:
                raise UsageError("MIMO model: name the port")
            return 0
        if isinstance(port, str):
            try:
                return self.port_names.index(port)
            except ValueError:
                raise KeyError(f"no port named {port!r}") from None
        return int(port)

    def pole_pairs(self):
        """Real poles as singleton groups, then conjugate pairs."""
        n_real = _n_real(self.poles)
        return tuple([PolePair((i,), self.poles[i]) for i in range(n_real)]
                     + [PolePair((i, i + 1), self.poles[i])
                        for i in range(n_real, self.order, 2)])


def _canonical_order(poles):
    """Index order of the canonical storage, and the number of real poles.

    Real poles come first, ascending; then one conjugate pair after another,
    the Im > 0 member first, pairs ascending by (Im, Re).  The k-th
    occurrence of a complex pole pairs with the k-th occurrence of its
    exact conjugate; a pole left without one raises ``ValueError``.
    """
    vals = poles.tolist()
    reals, pairs, waiting = [], [], {}
    for i, p in enumerate(vals):
        if p.imag == 0.0:
            reals.append(i)
            continue
        mates = waiting.get(p.conjugate())
        if mates:
            j = mates.pop(0)
            pairs.append((i, j) if p.imag > 0 else (j, i))
        else:
            waiting.setdefault(p, []).append(i)
    for p, left in waiting.items():
        if left:
            raise ValueError(f"pole {p} has no exact conjugate mate")
    reals.sort(key=lambda i: vals[i].real)
    pairs.sort(key=lambda ij: (vals[ij[0]].imag, vals[ij[0]].real))
    return reals + [i for pair in pairs for i in pair], len(reals)


def _n_real(poles):
    """Number of real poles.  In canonical storage they come first, so pair k
    starts at index n_real + 2k with its Im > 0 member."""
    return int(np.count_nonzero(poles.imag == 0.0))


def _canonical_pf(poles, residues):
    """Validate conjugate closure and reorder into canonical form."""
    order, n_real = _canonical_order(poles)
    new_p = poles[order]
    new_r = residues[:, order]
    bad = np.flatnonzero((new_r[:, :n_real].imag != 0.0).any(axis=0))
    if bad.size:
        raise ValueError(f"real pole {new_p[bad[0]]} has a complex residue")
    reps, mates = new_r[:, n_real::2], new_r[:, n_real + 1::2]
    bad = np.flatnonzero((mates != np.conj(reps)).any(axis=0))
    if bad.size:
        p = new_p[n_real + 2 * bad[0]]
        raise ValueError(f"residues at conjugate poles {p}, {np.conj(p)} are not conjugate")
    # rebuild exact conjugates from the representatives
    new_p[n_real + 1::2] = np.conj(new_p[n_real::2])
    new_r[:, n_real + 1::2] = np.conj(reps)
    return new_p, new_r


# ---------------------------------------------------------------------------
# evaluation and error metrics

_POLE_GUARD = 1e-300


def _eval_pfs(poles, residues, direct, s):
    """A batch of partial-fraction models at the points s, term by term.

    ``poles`` is (K, n), ``residues`` (K, P, n) and ``direct`` (K, P) for K
    models of P response rows each.  Returns the (K, P, m) values and which
    models have a point within ``_POLE_GUARD`` of a pole; those models'
    values are not meaningful.
    """
    delta = s[:, None] - poles[:, None, :]
    at_pole = (np.abs(delta) < _POLE_GUARD).any(axis=(1, 2))
    if at_pole.any():
        delta[at_pole] = 1.0  # keeps their division from raising floating-point warnings
    values = (residues[:, :, None, :] / delta[:, None]).sum(axis=-1) + direct[:, :, None]
    return values, at_pole


def _eval_pf(model, rows, s):
    """The model's response ``rows`` (port indices) at the points s."""
    values, at_pole = _eval_pfs(model.poles[None], model.residues[None, rows],
                                model.direct[None, rows], np.asarray(s, dtype=complex))
    if at_pole[0]:
        raise NumericError("evaluation at a pole frequency")
    return values[0]


def _eval_poly(model, s_raw):
    sp = np.asarray(s_raw, dtype=complex) / model.s_scale
    num = np.polynomial.polynomial.polyval(sp, model.num_coeffs)
    den = np.polynomial.polynomial.polyval(sp, model.den_coeffs)
    if np.any(np.abs(den) < _POLE_GUARD):
        raise NumericError("evaluation at a pole frequency")
    return num / den


def evaluate_model(model, grid, port=None):
    """Evaluate a fitted model at s = j*2*pi*f over a grid.

    Partial-fraction models are evaluated term by term (never expanded) to
    preserve conditioning; ``port`` picks the response of a MIMO model and
    may be omitted for single-port models.
    """
    s = 1j * grid.omega
    if isinstance(model, PolynomialRatioModel):
        return _eval_poly(model, s)
    return _eval_pf(model, [model.port_index(port)], s)[0]


def _wrapped_phase_deg(h_fit, h_ref):
    ratio_phase = np.angle(h_fit * np.conj(h_ref))
    return np.degrees(np.abs(ratio_phase))


def _fit_errors(fits, values):
    """:func:`fit_error`'s two metrics for a batch: the model values
    ``fits`` against the data ``values``, both (K, P, m).  Returns the K rms
    relative errors and the K worst wrapped phase errors."""
    scale = np.abs(values).max(axis=-1)
    scale[scale == 0.0] = 1.0
    rel_sq = ((np.abs(fits - values) / scale[..., None]) ** 2).reshape(len(fits), -1)
    rms = np.sqrt(rel_sq.sum(axis=1) / rel_sq.shape[1])  # np.mean's sum and division
    return rms, _wrapped_phase_deg(fits, values).max(axis=(1, 2))


def fit_error(model, resp):
    """RMS relative error and worst wrapped phase error of a model vs data.

    The RMS is over all ports and samples, each port normalized by its own
    peak magnitude.
    """
    s = 1j * resp.grid.omega
    if isinstance(model, PolynomialRatioModel):
        if resp.n_ports != 1:
            raise UsageError("polynomial model is single-port")
        fits = _eval_poly(model, s)[None]
    else:
        fits = _eval_pf(model, [model.port_index(p.name) for p in resp.ports], s)
    rms, phase = _fit_errors(fits[None], resp.values[None])
    return FitReport(rms_rel_error=float(rms[0]), max_phase_err_deg=float(phase[0]),
                     iters_used=0, converged=True)


# ---------------------------------------------------------------------------
# polynomial-ratio fitting (Levy / Sanathanan-Koerner)

def fit_polynomial_ratio(resp, cfg):
    """Fit one response to a ratio of degree-N polynomials.

    Minimizes the linearized residual |A(jw) - H(jw) B(jw)| with iterative
    1/|B_prev| reweighting; real and imaginary parts are stacked as separate
    rows so the coefficients come out real, and the solution is the smallest
    singular direction of the stacked system (unit joint norm).  RHP poles
    are returned as fitted.
    """
    if resp.n_ports != 1:
        raise UsageError("fit_polynomial_ratio takes a single-port response")
    n = cfg.order
    h = resp.values[0]
    m = h.size
    if m < 2 * (n + 1):
        raise UsageError(f"order {n} needs at least {2 * (n + 1)} grid points, got {m}")
    omega = resp.grid.omega
    s_scale = float(omega[-1])
    sp = 1j * omega / s_scale
    powers = sp[:, None] ** np.arange(n + 1)

    b_prev = np.ones(m)
    best = None
    x_prev = None
    stop = "iteration-cap"
    iters_used = 0
    for it in range(cfg.iters):
        iters_used = it + 1
        w = 1.0 / b_prev
        rows = np.hstack([powers, -h[:, None] * powers]) * w[:, None]
        mat = np.vstack([rows.real, rows.imag])
        col_scale = np.linalg.norm(mat, axis=0)
        col_scale[col_scale == 0.0] = 1.0
        try:
            _, svals, vh = np.linalg.svd(mat / col_scale, full_matrices=False)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"SVD failed during polynomial fit: {exc}") from None
        # an ambiguous null space (two smallest singular values both at null
        # level and comparable) means the order is too high at the current
        # weighting.  Reweighting often repairs a borderline first pass, so
        # keep iterating while no clean iterate exists; once one does, a
        # degenerating system just ends the loop.
        noise_floor = 200.0 * np.finfo(float).eps * svals[0]
        deficient = (svals[-2] < 1e-12 * svals[0]
                     and svals[-2] < max(30.0 * svals[-1], noise_floor))
        if deficient and best is not None:
            stop = "rank-deficient"
            break
        x = vh[-1] / col_scale
        x = x / np.linalg.norm(x)
        if x[int(np.argmax(np.abs(x)))] < 0:
            x = -x
        a_c, b_c = x[:n + 1], x[n + 1:]
        den = powers @ b_c
        num = powers @ a_c
        scale = np.max(np.abs(h))
        with np.errstate(divide="ignore", invalid="ignore"):
            h_fit = num / den
        resid = np.where(np.isfinite(h_fit), np.abs(h_fit - h), np.inf)
        rms = float(np.sqrt(np.mean((resid / scale) ** 2)))
        if not deficient and (best is None or rms < best[0]):
            best = (rms, a_c, b_c)
        if not deficient and x_prev is not None and np.linalg.norm(x - x_prev) < 1e-14:
            stop = "coeff-move"
            break
        x_prev = x
        mag = np.abs(den)
        b_prev = np.maximum(mag, 1e-12 * np.max(mag))

    if best is None:
        raise RankDeficiencyError(
            f"order {n} is too high for the data (ambiguous null space)")
    _, a_c, b_c = best
    model = PolynomialRatioModel(a_c, b_c, s_scale)
    return model, replace(fit_error(model, resp), iters_used=iters_used,
                          converged=stop in _SETTLED, stop=stop)


# ---------------------------------------------------------------------------
# vector fitting with a common denominator

def _initial_poles(n, w):
    """Start poles that follow the normalised sample grid ``w`` (w[-1] = 1).

    Pair k of the N/2 pairs gets Im = the grid frequency at the evenly
    spaced sample position k (m - 1) / (N/2 - 1), interpolated over the
    sample index, and Re = -Im/100.  A lone pair sits at the middle sample
    position, and an odd order adds one real pole -w there, first in
    canonical order.  On a linear grid the pairs are spaced linearly over
    the band, on a log grid geometrically, as Gustavsen & Semlyen (IEEE
    TPWRD 1999) recommend for wide bands.  A pole that would land on w = 0
    (a DC sample) goes to 1e-3 w[-1].
    """
    n_real, n_pairs = n % 2, n // 2
    last = w.size - 1
    at = [0.5 * last] * (n_real + (n_pairs == 1))
    if n_pairs > 1:  # np.linspace(0, last, n_pairs) bit for bit, without its 8 us per call
        step = last / (n_pairs - 1)
        at += [k * step for k in range(n_pairs - 1)] + [last]
    beta = np.interp(at, np.arange(w.size), w)
    beta[beta == 0.0] = 1e-3 * w[-1]
    poles = np.empty(n, dtype=complex)
    poles[:n_real] = -beta[:n_real]
    poles[n_real::2] = -beta[n_real:] / 100.0 + 1j * beta[n_real:]
    poles[n_real + 1::2] = np.conj(poles[n_real::2])
    return poles


def _layouts(n_real):
    """A batch's pole sets grouped by how many real poles they hold, given
    each set's count: (n_real, rows) pairs, with rows a slice over the whole
    batch when every set holds the same number."""
    if n_real.count(n_real[0]) == len(n_real):
        return [(n_real[0], slice(None))]
    rows = {}
    for j, count in enumerate(n_real):
        rows.setdefault(count, []).append(j)
    return list(rows.items())


def _by_layout(layouts, build):
    """The batch array whose rows ``build(rows, n_real)`` gives for each
    group of ``_layouts``."""
    if len(layouts) == 1:
        n_real, rows = layouts[0]
        return build(rows, n_real)
    parts = [(rows, build(rows, n_real)) for n_real, rows in layouts]
    out = np.empty((sum(len(rows) for rows, _ in parts),) + parts[0][1].shape[1:],
                   dtype=parts[0][1].dtype)
    for rows, part in parts:
        out[rows] = part
    return out


def _pf_basis(poles, s, n_real=None):
    """Real-coefficient partial-fraction basis columns at sample points:
    (m, n) for one pole set, or (K, m, n) for a batch (K, n) of sets that
    each hold ``n_real`` real poles."""
    n_real = _n_real(poles) if n_real is None else n_real
    n = poles.shape[-1]
    phi = np.empty(poles.shape[:-1] + (s.size, n), dtype=complex)
    # 1/(s - p) over the samples, one pole or pair at a time: a whole-matrix
    # form runs up to 2x slower.  A pair's second pole is conj p exactly.
    p = poles[..., None]
    for i in range(n_real):
        phi[..., i] = 1.0 / (s - p[..., i, :])
    for i in range(n_real, n, 2):
        inv = 1.0 / (s - p[..., i:i + 2, :])
        u, v = inv[..., 0, :], inv[..., 1, :]
        phi[..., i] = u + v
        phi[..., i + 1] = 1j * (u - v)
    return phi


def _coeffs_to_residues(poles, x, n_real=None):
    """Map real solution coefficients back to complex residues per pole.

    The last axis of ``x`` runs over the poles; a batch of rows shares one
    ``n_real``."""
    n_real = _n_real(poles) if n_real is None else n_real
    r = np.array(x, dtype=complex)
    r[..., n_real::2] = x[..., n_real::2] + 1j * x[..., n_real + 1::2]
    r[..., n_real + 1::2] = np.conj(r[..., n_real::2])
    return r


def _real_realization(poles, residues=None, n_real=None):
    """Real block-diagonal realization (A, b, c) of sum_k r_k / (s - p_k).

    A real pole is a 1x1 block with b = 1 and c = r; a conjugate pair is the
    2x2 block [[Re p, Im p], [-Im p, Re p]] with b = (2, 0) and
    c = (Re r, Im r), both read off the Im > 0 member.  Without residues,
    c is zero.  A batch (K, n) of pole sets that each hold ``n_real`` real
    poles gives a batch of realizations.
    """
    n_real = _n_real(poles) if n_real is None else n_real
    n = poles.shape[-1]
    r = np.zeros(poles.shape) if residues is None else residues
    amat = np.zeros(poles.shape + (n,))
    # A's entry (i, j) is entry i n + j of its flat view: the diagonal is
    # every (n + 1)-th entry, and a pair's off-diagonal entries (h, h + 1)
    # and (h + 1, h) are h (n + 1) + 1 and h (n + 1) + n, for each head h
    flat = amat.reshape(poles.shape[:-1] + (n * n,))
    first = n_real * (n + 1)  # the first head's diagonal entry
    flat[..., ::n + 1] = poles.real
    flat[..., first + 1::2 * (n + 1)] = poles.imag[..., n_real::2]
    flat[..., first + n::2 * (n + 1)] = -poles.imag[..., n_real::2]
    bvec = np.zeros(poles.shape)
    bvec[..., :n_real] = 1.0
    bvec[..., n_real::2] = 2.0
    cvec = r.real.copy()
    cvec[..., n_real + 1::2] = r.imag[..., n_real::2]
    return amat, bvec, cvec


# Block size of the relocation QR.  Relocation matrices have at most a few
# dozen columns; 4 and 8 run within noise of each other.
_QR_NB = 8


def _qr_r(a):
    """Householder QR of a real Fortran-ordered matrix, in place.

    Returns ``a`` itself, or a copy when it is not Fortran-ordered float64,
    holding R on and above the diagonal.  NumPy's QR calls LAPACK's dgeqrf,
    which falls back to its unblocked level-2 kernel (dgeqr2) below 128
    columns; the recursive compact-WY dgeqrt is level-3 at every width and
    gives the same R, diagonal signs included.
    """
    qr, _, info = lapack.dgeqrt(min(_QR_NB, *a.shape), a, overwrite_a=True)
    if info != 0:
        raise NumericError(f"relocation QR failed (LAPACK dgeqrt info {info})")
    return qr


# Relocation has reached its fixed point when the scaling function
# sigma(s) = sum c_k / (s - p_k) + d_sigma has collapsed onto its direct
# term (Gustavsen, IEEE Trans. Power Delivery 2006): its zeros, the next
# poles, then equal its poles.  The loop stops once ||c_sigma|| / |d_sigma|
# is at most this.  At 1e-3 the stop already made 11 of the benchmark's
# identify jobs fail; at 1e-5 no verdict changed.
_SIGMA_TOL = 1e-5

# np.linalg's words for a failed LAPACK call, kept in pzid's error texts
_LSTSQ_FAILED = "SVD did not converge in Linear Least Squares"


# the sizes of the walks of one process repeat: orders times grids
@functools.lru_cache(maxsize=64)
def _lstsq_sizes(rows, cols):
    """(rcond, lwork, liwork) of np.linalg.lstsq on a rows x cols system
    with one right-hand side: rcond = eps * max(rows, cols) and LAPACK's
    optimal dgelsd workspace."""
    cond = float(np.finfo(float).eps * max(rows, cols))
    work, iwork, _ = lapack.dgelsd_lwork(rows, cols, 1, cond)
    return cond, int(work), int(iwork)


@functools.lru_cache(maxsize=64)
def _geev_lwork(n):
    """LAPACK's optimal dgeev workspace for n x n, without eigenvectors."""
    return int(lapack.dgeev_lwork(n, compute_vl=0, compute_vr=0)[0])


@functools.lru_cache(maxsize=64)
def _upper(n):
    """A read-only mask of the upper triangle of n x n."""
    return _readonly(np.triu(np.ones((n, n), dtype=bool)))


def _fortran_slots(size, rows, cols):
    """``size`` buffers of rows x cols, each one Fortran-ordered, as one
    (size, rows, cols) array: LAPACK works on a slot in place."""
    return np.empty((size, cols, rows)).transpose(0, 2, 1)


class _Relocation:
    """The buffers of a batch of walks' relocation steps and residue solves.

    The members share the normalised grid ``s``, the order n and the port
    count; ``f_mats`` holds their samples, (members, ports, m).  ``step``
    and ``residues`` take the pole sets of some of the members, one row
    each in member order, and fill the leading slots of the buffers in
    place.  Element-wise work and reductions run as one NumPy call for the
    whole batch (per port, for the per-port systems), and LAPACK's dgeqrt,
    dgelsd and dgeev run once per member on its own slot.  So each member's
    results equal, bit for bit, those of np.linalg.lstsq and eigvals on
    freshly built matrices of that member alone: every operation reduces
    along the same axes of arrays of the same memory order, dgelsd gets
    lstsq's rcond and optimal workspace, and dgeev runs without
    eigenvectors after eigvals' finiteness check.  A member whose LAPACK
    call fails, or whose system is not finite, fails alone: both methods
    return its ``NumericError`` by row and carry on with the others.
    """

    def __init__(self, s, f_mats, n):
        size, n_ports, m = f_mats.shape
        self.s, self.f_mats, self.n = s, f_mats, n
        self.neg_f = -f_mats
        # [Phi, 1] real-stacked, refilled for each pole set
        self.phi1_ri = _fortran_slots(size, 2 * m, n + 1)
        self.phi1_ri[:, :m, n] = 1.0
        self.phi1_ri[:, m:, n] = 0.0
        # one port's [Phi, 1, -f Phi, -f] real-stacked, reduced in place;
        # its leading n + 1 columns hold the residue least squares
        self.stack = _fortran_slots(size, 2 * m, 2 * (n + 1))
        self.f_phi = np.empty((size, m, n), dtype=complex)
        self.rhs = np.empty((size, 2 * m, 1))
        # sigma least squares: n + 1 rows of R per port, then the relaxation
        # row; C order, so its column norms add up rows as np.vstack's did
        rows = n_ports * (n + 1) + 1
        self.sigma_a = np.zeros((size, rows, n + 1))
        self.upper = _upper(n + 1)
        self.relax_row = np.empty((size, n + 1))
        self.relax_row[:, n] = m
        self.lsq_a = _fortran_slots(size, rows, n + 1)
        self.lsq_b = np.empty((size, rows, 1))
        self._slot_views = {}
        with np.errstate(over="ignore", invalid="ignore"):
            # np.linalg.norm of the per-port norms: square roots of BLAS dots
            norms = [np.array([math.sqrt(f.real.dot(f.real) + f.imag.dot(f.imag))
                               for f in f_mat]) for f_mat in f_mats]
            self.scale = np.array([math.sqrt(x.dot(x)) for x in norms]) / m
            self.sigma_b = np.zeros((size, rows))
            self.sigma_b[:, -1] = self.scale * m
        self.sigma_b_finite = np.isfinite(self.sigma_b).all(axis=1)
        self.all_finite = bool(self.sigma_b_finite.all())
        self.residue_sizes = _lstsq_sizes(2 * m, n + 1)
        if n:
            self.sigma_sizes = _lstsq_sizes(rows, n + 1)
            self.geev_lwork = _geev_lwork(n)

    def _rows(self, members):
        """Index of ``members`` (ascending) into the per-member arrays: a
        slice, which makes views, when they are every member."""
        return slice(None) if len(members) == len(self.scale) else members

    def _slots(self, size):
        """The leading ``size`` slots of the step's buffers."""
        if size not in self._slot_views:
            self._slot_views[size] = tuple(buffer[:size] for buffer in (
                self.phi1_ri, self.stack, self.f_phi, self.sigma_a, self.relax_row,
                self.lsq_a, self.lsq_b))
        return self._slot_views[size]

    def step(self, members, poles, n_real):
        """One pole-relocation step of each of ``members`` under the relaxed
        nontriviality constraint; ``poles`` holds their pole sets, of which
        the k-th holds ``n_real[k]`` real poles.

        Returns, a row or entry per member, the new pole sets (never
        flipped), ||c_sigma|| / |d_sigma|, how far each scaling function
        still is from its direct term, the numerical rank of each sigma
        least squares (at most n + 1) and each new set's number of real
        poles; then a dict from row to the ``NumericError`` of every member
        whose step failed, which keeps its old poles.

        Each port's real-stacked system [Phi, 1, -f Phi, -f] (2m x 2(n+1))
        is reduced by ``_qr_r``; the trailing (n+1) x (n+1) block of R gives
        that port's rows of the sigma equations, with the direct term
        d_sigma as the last unknown.  One appended row fixes the sum of
        Re sigma over the samples, which keeps the solution nontrivial.  A
        response too large for the column scaling fails before the
        least-squares solve.
        """
        n, m = self.n, self.s.size
        k = 2 * (n + 1)
        size, rows = len(members), self._rows(members)
        layouts = _layouts(n_real)
        phi = _by_layout(layouts, lambda group, n_real: _pf_basis(poles[group], self.s, n_real))
        phi1_ri, stack, f_phi, aa, relax, lsq_a, lsq_b = self._slots(size)
        phi1_ri[:, :m, :n] = phi.real
        phi1_ri[:, m:, :n] = phi.imag
        failed = {}
        for port in range(self.neg_f.shape[1]):
            neg_f = self.neg_f[rows, port]
            stack[:, :, :n + 1] = phi1_ri
            np.multiply(neg_f[:, :, None], phi, out=f_phi)
            stack[:, :m, n + 1:k - 1] = f_phi.real
            stack[:, m:, n + 1:k - 1] = f_phi.imag
            stack[:, :m, k - 1] = neg_f.real
            stack[:, m:, k - 1] = neg_f.imag
            for j in range(size):
                if j not in failed:
                    try:
                        _qr_r(stack[j])
                    except NumericError as exc:
                        failed[j] = exc
            np.copyto(aa[:, port * (n + 1):(port + 1) * (n + 1)], stack[:, n + 1:k, n + 1:],
                      where=self.upper)
        with np.errstate(over="ignore", invalid="ignore"):
            relax[:, :n] = phi.real.sum(axis=1)
            np.multiply(self.scale[rows, None], relax, out=aa[:, -1])
            col_scale = np.sqrt(np.add.reduce(aa * aa, axis=1))  # np.linalg.norm's
            finite = np.isfinite(col_scale)
            col_scale[col_scale == 0.0] = 1.0
            np.divide(aa, col_scale[:, None, :], out=lsq_a)
        # a finite column norm bounds every entry of its column of aa
        if not (finite.all() and self.all_finite):
            finite = finite.all(axis=1) & self.sigma_b_finite[rows]
            for j in np.flatnonzero(~finite).tolist():
                failed.setdefault(j, NumericError("relocation least squares failed: response "
                                                  "magnitude overflows the column scaling"))
        lsq_b[:, :, 0] = self.sigma_b[rows]
        cond, lwork, liwork = self.sigma_sizes
        solutions, rank = [np.zeros(n + 1)] * size, [0] * size
        for j in range(size):
            if j in failed:
                continue
            x, _, rank[j], info = lapack.dgelsd(lsq_a[j], lsq_b[j], lwork, liwork, cond,
                                                overwrite_a=1, overwrite_b=1)
            if info != 0:
                failed[j] = NumericError(f"relocation least squares failed: {_LSTSQ_FAILED}")
                continue
            solutions[j] = x[:n + 1, 0]
        x_all = np.array(solutions) / col_scale
        if failed:
            x_all[list(failed)] = 0.0
        c_sigma = x_all[:, :n]
        d_sigma = [(1e-8 if d >= 0 else -1e-8) if abs(d) < 1e-8 else d
                   for d in x_all[:, n].tolist()]
        # np.linalg.norm of one vector is the square root of its BLAS dot
        settled = [math.sqrt(c.dot(c)) / abs(d) for c, d in zip(c_sigma, d_sigma)]
        d_sigma = np.array(d_sigma)

        # zeros of sigma: eigenvalues of the pole matrix minus the rank-one
        # update, in real block form for conjugate pairs
        def pole_matrix(group, n_real):
            hmat, bvec, _ = _real_realization(poles[group], n_real=n_real)
            hmat -= bvec[:, :, None] * c_sigma[group, None, :] / d_sigma[group, None, None]
            return hmat

        hmat = _by_layout(layouts, pole_matrix)
        finite = np.isfinite(hmat).all(axis=(1, 2)).tolist()
        new_poles, new_n_real = poles.copy(), list(n_real)
        for j in range(size):
            if j in failed:
                continue
            if not finite[j]:
                failed[j] = NumericError("defective relocation eigenproblem: "
                                         "Array must not contain infs or NaNs")
                continue
            wr, wi, _, _, info = lapack.dgeev(hmat[j], compute_vl=0, compute_vr=0,
                                              lwork=self.geev_lwork, overwrite_a=1)
            if info != 0:
                failed[j] = NumericError("defective relocation eigenproblem: "
                                         "Eigenvalues did not converge")
                continue
            lam = wr  # all real: eigvals returns the real parts alone
            if wi.any():
                lam = np.empty(n, dtype=complex)
                lam.real, lam.imag = wr, wi
            try:
                order, count = _canonical_order(lam)
            except ValueError as exc:
                failed[j] = NumericError(f"defective relocation eigenproblem: {exc}")
                continue
            row = new_poles[j]
            row[:] = lam[order]
            row[count + 1::2] = np.conj(row[count::2])
            new_n_real[j] = count
        return new_poles, settled, rank, new_n_real, failed

    def residues(self, members, poles, n_real):
        """Per-port residues and real direct terms of each of ``members``
        against its fixed poles: the least squares [Phi, 1] x = f,
        real-stacked.  ``poles`` and ``n_real`` are as in ``step``.  Returns
        the (members, ports, n) residues, the (members, ports) direct terms
        and a dict from row to the ``NumericError`` of every member whose
        solve failed."""
        n, m = self.n, self.s.size
        size, rows = len(members), self._rows(members)
        layouts = _layouts(n_real)
        phi = _by_layout(layouts, lambda group, n_real: _pf_basis(poles[group], self.s, n_real))
        phi1_ri = self.phi1_ri[:size]
        phi1_ri[:, :m, :n] = phi.real
        phi1_ri[:, m:, :n] = phi.imag
        a_ri, b_ri = self.stack[:size, :, :n + 1], self.rhs[:size]
        cond, lwork, liwork = self.residue_sizes
        coeffs = np.zeros((size, self.f_mats.shape[1], n + 1))
        failed = {}
        for port in range(self.f_mats.shape[1]):
            f = self.f_mats[rows, port]
            a_ri[...] = phi1_ri
            b_ri[:, :m, 0] = f.real
            b_ri[:, m:, 0] = f.imag
            for j in range(size):
                if j in failed:
                    continue
                x, _, _, info = lapack.dgelsd(a_ri[j], b_ri[j], lwork, liwork, cond,
                                              overwrite_a=1, overwrite_b=1)
                if info != 0:
                    failed[j] = NumericError(f"residue least squares failed: {_LSTSQ_FAILED}")
                    continue
                coeffs[j, port] = x[:n + 1, 0]
        residues = _by_layout(layouts, lambda group, n_real: _coeffs_to_residues(
            poles[group], coeffs[group, :, :n], n_real))
        return residues, coeffs[..., n], failed


class _PoleWalk:
    """The pole relocations of a batch of vector fits, one step at a time.

    The members are response sets on one grid with one port count, fitted
    at one order; their steps share one ``_Relocation``.  Iterating steps
    every member that has neither stopped nor failed, and yields after
    each step a list with each member's pole set in rad/s, or None for a
    member that did not step.  It ends once every member has stopped, on
    the first stop :func:`fit_common_denominator` names, or failed:
    ``stop[k]`` and ``iters_used[k]`` then say how member k ended
    (``stop[k]`` is None while it walks or once it failed) and
    ``failures[k]`` holds the ``NumericError`` of a failed step.
    ``leave(k)``, called between steps, takes member k out of the walk: it
    steps no more, and either ending gives it None.  ``finish()`` solves
    each other member's residues and direct terms against the poles it
    reached and returns, per member, (model, report) or the
    ``NumericError`` that failed it.  ``relocated()`` ends at the poles:
    per member, the poles it reached in rad/s, in the canonical order its
    model would store them, or the ``NumericError`` of its failed step.  A
    walk is iterated once.  Each member's steps, model, report and poles
    equal, bit for bit, those of a walk of that member alone, whichever
    members leave.
    """

    def __init__(self, batch, cfg):
        self.batch = tuple(batch)
        grid = self.batch[0].grid
        n = cfg.order
        m = len(grid)
        if 2 * m < 2 * (n + 1):
            raise UsageError(f"order {n} exceeds the point budget of {m} samples")
        if any(resps.grid is not grid and resps.grid != grid for resps in self.batch):
            raise ValueError("a batch of fits shares one frequency grid")
        omega = grid.omega
        self.iters = cfg.iters
        self.w_scale = float(omega[-1])
        self.s = 1j * omega / self.w_scale
        size = len(self.batch)
        self.iters_used = [0] * size
        self.failures = [None] * size
        self.n_real = [n % 2] * size
        self.left = [False] * size
        self._relocation = _Relocation(self.s, np.array([r.values for r in self.batch]), n)
        if n == 0:
            self.poles = np.zeros((size, 0), dtype=complex)
            self.stop = ["no-poles"] * size
        else:
            self.poles = np.repeat(_initial_poles(n, omega / self.w_scale)[None], size, axis=0)
            self.stop = [None] * size

    def __iter__(self):
        n = self.poles.shape[1]
        size = len(self.batch)
        prev_rank = [n + 1] * size
        walking = [k for k, stop in enumerate(self.stop) if stop is None]
        while walking:
            rows = slice(None) if len(walking) == size else walking
            old = self.poles[rows]
            new, settled, rank, n_real, failed = self._relocation.step(
                walking, old, [self.n_real[k] for k in walking])
            move = np.abs(np.sort(new, axis=1) - np.sort(old, axis=1)).max(axis=1)
            largest = np.abs(new).max(axis=1)
            self.poles[rows] = new  # a failed member's row holds its old poles
            scaled = new * self.w_scale
            stepped = [None] * size
            for j, (k, moved, big, ratio) in enumerate(zip(walking, move.tolist(),
                                                           largest.tolist(), settled)):
                if j in failed:
                    self.failures[k] = failed[j]
                    continue
                self.n_real[k] = n_real[j]
                self.iters_used[k] += 1
                if moved < 1e-10 * max(1.0, big):
                    self.stop[k] = "pole-move"
                elif ratio <= _SIGMA_TOL:
                    self.stop[k] = "sigma-settled"
                elif rank[j] <= n and rank[j] == prev_rank[k]:
                    self.stop[k] = "rank-deficient"
                elif self.iters_used[k] == self.iters:
                    self.stop[k] = "iteration-cap"
                prev_rank[k] = rank[j]
                stepped[k] = scaled[j]
            if len(failed) < len(walking):
                yield stepped
            walking = [k for k in walking if self.stop[k] is None
                       and self.failures[k] is None and not self.left[k]]

    def leave(self, k):
        self.left[k] = True

    def relocated(self):
        # a step stores each set in canonical order, and scaling by w_scale > 0
        # keeps it canonical: these are the poles PartialFractionModel stores
        return [None if left else failure if failure is not None else poles * self.w_scale
                for poles, left, failure in zip(self.poles, self.left, self.failures)]

    def finish(self):
        outcomes = [None if left else failure
                    for left, failure in zip(self.left, self.failures)]
        done = [k for k, failure in enumerate(self.failures)
                if failure is None and not self.left[k]]
        if not done:
            return outcomes
        rows = slice(None) if len(done) == len(self.batch) else done
        residues, direct, failed = self._relocation.residues(
            done, self.poles[rows], [self.n_real[k] for k in done])
        fitted, models = [], []
        for j, k in enumerate(done):
            if j in failed:
                outcomes[k] = failed[j]
                continue
            fitted.append(k)
            models.append(PartialFractionModel(self.poles[k] * self.w_scale,
                                               residues[j] * self.w_scale, direct[j],
                                               self.batch[k].port_names))
        if not models:
            return outcomes
        values, at_pole = _eval_pfs(np.array([model.poles for model in models]),
                                    np.array([model.residues for model in models]),
                                    np.array([model.direct for model in models]),
                                    1j * self.batch[0].grid.omega)
        rows = slice(None) if len(fitted) == len(self.batch) else fitted
        rms, phase = _fit_errors(values, self._relocation.f_mats[rows])
        for k, model, off_pole, rms_k, phase_k in zip(fitted, models, ~at_pole,
                                                       rms.tolist(), phase.tolist()):
            outcomes[k] = NumericError("evaluation at a pole frequency")
            if off_pole:
                stop = self.stop[k]
                outcomes[k] = model, FitReport(rms_k, phase_k, self.iters_used[k],
                                               stop in _SETTLED, stop)
        return outcomes


# Members one walk steps at most: a batch's buffers grow with its size
_BATCH_MEMBERS = 32


def _walk_batch(batch, cfg, end):
    """``end(walk)`` of the walks that step ``batch`` up to
    ``_BATCH_MEMBERS`` response sets at a time, joined in member order."""
    batch = list(batch)
    outcomes = []
    for start in range(0, len(batch), _BATCH_MEMBERS):
        walk = _PoleWalk(batch[start:start + _BATCH_MEMBERS], cfg)
        for _ in walk:
            pass
        outcomes += end(walk)
    return outcomes


def _fit_batch(batch, cfg):
    """Fit each response set in ``batch`` as :func:`fit_common_denominator`
    would fit it alone, stepping up to ``_BATCH_MEMBERS`` of them as one
    walk.  The sets share one grid and port count.  Returns per set its
    (model, report) or the ``NumericError`` its fit raised; a member that
    fails leaves its walk, and the others carry on unchanged."""
    return _walk_batch(batch, cfg, _PoleWalk.finish)


def _batch_poles(batch, cfg):
    """The poles :func:`fit_common_denominator` would give each response
    set in ``batch``, walked as :func:`_fit_batch` walks them, or the
    ``NumericError`` its relocation step raised.  The walks end at their
    poles (``_PoleWalk.relocated``): no residues are solved and no model
    is built or evaluated, so a member whose residue solve or evaluation at
    a pole frequency would fail its fit still gets its poles."""
    return _walk_batch(batch, cfg, _PoleWalk.relocated)


def fit_common_denominator(resps, cfg):
    """Vector-fit all ports of a response set against one shared pole set.

    The initial poles follow the sample grid (``_initial_poles``): pairs
    sit at evenly spaced sample positions, so a log grid gets geometrically
    spaced pairs.  Each iteration relocates them to the zeros of the fitted
    scaling function under the relaxed nontriviality constraint, until the
    poles stop moving, the scaling function settles (``_SIGMA_TOL``), the
    relocation least squares keeps one rank below n + 1 on two consecutive
    steps (an over-modeled fit whose spare poles would wander to the cap;
    the step just taken is kept) or ``cfg.iters`` runs out.  The first
    steps off the initial poles can be rank-deficient by a deficit that
    shrinks as the poles move (a wide band on a linear grid, where the
    start pairs miss its lowest decades), so one deficient step alone never
    stops the loop.
    Final residues and one real direct term per port are solved against the
    fixed relocated poles.  Unstable poles are preserved at every stage.

    This is a relocation walk of one member.  The sweeps walk a locus's
    values and a Monte Carlo cloud's trials as one batch that ends at its
    poles (``_batch_poles``), whose every member gets, bit for bit, the
    poles of the model this function gives it, and whose failed member
    fails alone.  The order scan fits a proviso sweep's cases in batches
    that end in models (``_fit_batch``), and its persistence test walks
    the same steps, where a member may leave off earlier
    (``staban._scan_orders``).
    """
    (outcome,) = _fit_batch((resps,), cfg)
    if isinstance(outcome, NumericError):
        raise outcome
    return outcome


# ---------------------------------------------------------------------------
# order probe: AAA rational interpolation (Nakatsukasa, Sete & Trefethen,
# SISC 2018)

# Grid points one probe reads per port: every ceil(m / 200)-th sample.
_AAA_SAMPLES = 200


def _aaa_degree(resps, rms_target, max_degree):
    """Rational degree the data reveals, or None.

    Each port, divided by its peak magnitude, is sampled at s = jw/w_max on
    every ceil(m / ``_AAA_SAMPLES``)-th grid point, plus the conjugate
    samples at -s (s = 0 is its own mirror image).  Greedy AAA adds the
    worst-fitted sample as a support point and takes the barycentric
    weights from the smallest right singular vector of the Loewner matrix
    (read off its R factor, which has the same right singular vectors),
    until the rms relative error over the samples (the order scan's
    metric) is at most ``rms_target``; the port's degree is its
    support-point count minus one.  Returns the largest degree of any
    port, or None when a port has a non-finite or zero peak, a QR or SVD
    fails, or a port misses the target within ``max_degree + 2`` support
    points (fewer if the Loewner matrix would have fewer rows than columns).
    """
    omega = resps.grid.omega
    step = -(-omega.size // _AAA_SAMPLES)
    s = 1j * omega[::step] / omega[-1]
    mirror = s != 0.0
    z = np.concatenate([s, -s[mirror]])
    budget = min(max_degree + 2, z.size // 2)
    degree = 0
    for h in resps.values:
        peak = float(np.max(np.abs(h)))
        if not (math.isfinite(peak) and peak > 0.0):
            return None
        f = h[::step] / peak
        f = np.concatenate([f, np.conj(f[mirror])])
        for k, rms in enumerate(_aaa_errors(z, f, budget)):
            if rms is None:
                return None
            if rms <= rms_target:
                degree = max(degree, k)
                break
        else:
            return None
    return degree


def _aaa_errors(z, f, budget):
    """The rms error over the samples f at the points z after each of up to
    ``budget`` greedy AAA steps, or None, as the last item, when a QR or SVD
    fails.

    Column k of the Cauchy and Loewner buffers is support point k's column
    over every sample: a step appends one column of each, instead of
    building both matrices again, and reads the rows of the samples still
    free.
    """
    cauchy_cols = np.empty((z.size, budget), dtype=complex, order="F")
    loewner_cols = np.empty((z.size, budget), dtype=complex, order="F")
    upper = np.triu(np.ones((budget, budget), dtype=bool))
    fit = np.full(f.size, np.mean(f))
    free = np.ones(f.size, dtype=bool)
    support = []
    for k in range(budget):
        j = int(np.argmax(np.abs(f - fit)))
        support.append(j)
        free[j] = False
        column = 1.0 / (z[free] - z[j])
        cauchy_cols[free, k] = column
        loewner_cols[free, k] = column * (f[free] - f[j])
        # C order: the BLAS matrix-vector product below sums in an order
        # that depends on the layout
        cauchy = np.ascontiguousarray(cauchy_cols[free, :k + 1])
        qr = _zgeqrf(loewner_cols[free, :k + 1])
        # the SVD of the R factor, as np.triu(qr[:k + 1]) would give it
        vh = None if qr is None else _right_singular_vectors(
            np.where(upper[:k + 1, :k + 1], qr[:k + 1], 0j))
        if vh is None:
            yield None
            return
        w = np.conj(vh[-1])
        fit = f.copy()
        with np.errstate(all="ignore"):
            fit[free] = (cauchy @ (w * f[support])) / (cauchy @ w)
            rms = float(np.sqrt(np.mean(np.abs(f - fit) ** 2)))
        yield rms


def _zgeqrf(a):
    """LAPACK's zgeqrf of ``a`` with np.linalg.qr's optimal workspace: R on
    and above the diagonal of the returned array, or None when it fails.
    ``a`` is overwritten when Fortran-ordered."""
    work, _ = lapack.zgeqrf_lwork(*a.shape)
    qr, _, _, info = lapack.zgeqrf(a, lwork=int(work.real), overwrite_a=1)
    return None if info != 0 else qr


def _right_singular_vectors(a):
    """V^H of np.linalg.svd(a) on LAPACK's zgesdd, or None when it fails."""
    work, _ = lapack.zgesdd_lwork(*a.shape, compute_uv=1, full_matrices=1)
    _, _, vh, info = lapack.zgesdd(a, compute_uv=1, full_matrices=1,
                                   lwork=int(work.real), overwrite_a=1)
    return None if info != 0 else vh


# ---------------------------------------------------------------------------
# pole / zero extraction

_COEFF_TRIM = 1e-13


def _trimmed_roots(coeffs):
    c = np.asarray(coeffs, dtype=float)
    keep = np.abs(c) > _COEFF_TRIM * np.max(np.abs(c))
    deg = int(np.nonzero(keep)[0][-1]) if np.any(keep) else -1
    if deg < 0:
        return None
    return np.roots(c[:deg + 1][::-1])


def _sorted_c(vals):
    vals = np.asarray(vals, dtype=complex)
    return vals[np.lexsort((vals.imag, vals.real))]


def poles_and_zeros(model, port=None):
    """Extract (poles, zeros) from a fitted model.

    For polynomial models both sets are companion-matrix eigenvalues of the
    de-normalized coefficient polynomials.  For partial-fraction models the
    poles are stored, and the zeros are the finite generalized eigenvalues
    of the port's Rosenbrock system-matrix pencil ([[A, b], [c, d]],
    diag(I, 0)) on the real block-diagonal realization (Emami-Naeini & Van
    Dooren, Automatica 1982).  An eigenvalue counts as finite when its
    homogeneous beta is nonzero: LAPACK's QZ sets beta to exactly 0 when a
    diagonal entry of the triangular E falls below ulp * ||E||.  So d = 0
    gives n - 1 zeros when the residues sum to nonzero, and a direct term
    lost in the rounding of the system matrix adds no zero near infinity.
    The pencil is left unbalanced for that reason: scaling b against c
    would resolve such a d into a far zero.  Complex zeros come back as
    exact conjugate pairs, each Im > 0 member mirrored.
    """
    if isinstance(model, PolynomialRatioModel):
        poles = _trimmed_roots(model.den_coeffs)
        if poles is None:
            raise NumericError("zero denominator polynomial")
        zeros = _trimmed_roots(model.num_coeffs)
        zeros = np.zeros(0, dtype=complex) if zeros is None else zeros
        return _sorted_c(poles * model.s_scale), _sorted_c(zeros * model.s_scale)

    k = model.port_index(port)
    poles = model.poles
    n = poles.size
    amat, bvec, cvec = _real_realization(poles, model.residues[k])
    system = np.empty((n + 1, n + 1))
    system[:n, :n] = amat
    system[:n, n] = bvec
    system[n, :n] = cvec
    system[n, n] = model.direct[k]
    e_mat = np.eye(n + 1)
    e_mat[n, n] = 0.0
    # LAPACK's dggev directly: scipy.linalg.eigvals computes the same
    # (alpha, beta) but adds input checks and a workspace query that cost
    # more than the QZ itself on small models
    alpha_re, alpha_im, beta, _, _, _, info = lapack.dggev(
        system, e_mat, compute_vl=0, compute_vr=0, overwrite_a=1)
    if info != 0:
        raise NumericError(f"zero eigenproblem failed (LAPACK dggev info {info})")
    finite = beta != 0.0
    lam = (alpha_re[finite] + 1j * alpha_im[finite]) / beta[finite]
    upper = lam[lam.imag > 0.0]
    zeros = np.concatenate([lam[lam.imag == 0.0], upper, upper.conj()])
    return _sorted_c(poles), _sorted_c(zeros)


# ---------------------------------------------------------------------------
# serialization

_SCHEMA = 1


def _c2pair(z):
    """A complex number as the ``[re, im]`` pair of every JSON report."""
    return [float(np.real(z)), float(np.imag(z))]


def _json_text(doc):
    """The text of every JSON report: indented, keys sorted, one final newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def save_model(model, report=None):
    """Serialize a model (and optional report) to JSON text.

    Floats are written with shortest round-trip representation, so a
    load/save cycle is stable well past 17 significant digits.
    """
    doc = {"schema": _SCHEMA}
    if isinstance(model, PolynomialRatioModel):
        doc.update(method="poly", order=model.order, s_scale=model.s_scale,
                   num_coeffs=[float(c) for c in model.num_coeffs],
                   den_coeffs=[float(c) for c in model.den_coeffs])
    elif isinstance(model, PartialFractionModel):
        doc.update(method="vf", order=model.order, s_scale=1.0,
                   poles=[_c2pair(p) for p in model.poles],
                   port_names=list(model.port_names),
                   residues={name: [_c2pair(z) for z in model.residues[i]]
                             for i, name in enumerate(model.port_names)},
                   direct={name: float(model.direct[i])
                           for i, name in enumerate(model.port_names)})
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    if report is not None:
        doc["report"] = asdict(report)
    return _json_text(doc)


def load_model(text):
    """Inverse of :func:`save_model`; returns (model, report_or_None)."""
    doc = json.loads(text)
    if doc.get("schema") != _SCHEMA:
        raise ValueError(f"unsupported model schema {doc.get('schema')!r}")
    rep = doc.get("report")
    report = FitReport(**rep) if rep else None
    if doc["method"] == "poly":
        model = PolynomialRatioModel(np.asarray(doc["num_coeffs"]),
                                     np.asarray(doc["den_coeffs"]),
                                     doc["s_scale"])
    elif doc["method"] == "vf":
        names = tuple(doc["port_names"])
        poles = np.asarray([complex(a, b) for a, b in doc["poles"]])
        residues = np.asarray([[complex(a, b) for a, b in doc["residues"][n]] for n in names])
        direct = np.asarray([doc["direct"][n] for n in names])
        model = PartialFractionModel(poles, residues, direct, names)
    else:
        raise ValueError(f"unknown method {doc['method']!r}")
    return model, report

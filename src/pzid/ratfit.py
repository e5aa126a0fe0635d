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
        if not (np.all(np.isfinite(p)) and np.all(np.isfinite(r)) and np.all(np.isfinite(d))):
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
    bad = np.flatnonzero(np.any(new_r[:, :n_real].imag != 0.0, axis=0))
    if bad.size:
        raise ValueError(f"real pole {new_p[bad[0]]} has a complex residue")
    reps, mates = new_r[:, n_real::2], new_r[:, n_real + 1::2]
    bad = np.flatnonzero(np.any(mates != np.conj(reps), axis=0))
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


def _eval_pf(model, port_idx, s):
    s = np.asarray(s, dtype=complex)
    delta = s[..., None] - model.poles
    if np.any(np.abs(delta) < _POLE_GUARD):
        raise NumericError("evaluation at a pole frequency")
    return np.sum(model.residues[port_idx] / delta, axis=-1) + model.direct[port_idx]


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
    return _eval_pf(model, model.port_index(port), s)


def _wrapped_phase_deg(h_fit, h_ref):
    ratio_phase = np.angle(h_fit * np.conj(h_ref))
    return np.degrees(np.abs(ratio_phase))


def fit_error(model, resp):
    """RMS relative error and worst wrapped phase error of a model vs data.

    The RMS is over all ports and samples, each port normalized by its own
    peak magnitude.
    """
    s = 1j * resp.grid.omega
    if isinstance(model, PolynomialRatioModel):
        if resp.n_ports != 1:
            raise UsageError("polynomial model is single-port")
        fits = [_eval_poly(model, s)]
    else:
        fits = [_eval_pf(model, model.port_index(p.name), s) for p in resp.ports]
    rel_sq = []
    phase = []
    for h, h_fit in zip(resp.values, fits):
        scale = float(np.max(np.abs(h))) or 1.0
        rel_sq.append((np.abs(h_fit - h) / scale) ** 2)
        phase.append(_wrapped_phase_deg(h_fit, h))
    rms = float(np.sqrt(np.mean(np.concatenate(rel_sq))))
    return FitReport(rms_rel_error=rms,
                     max_phase_err_deg=float(np.max(np.concatenate(phase))),
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


def _pf_basis(poles, s):
    """Real-coefficient partial-fraction basis columns at sample points."""
    n_real = _n_real(poles)
    phi = np.empty((s.size, poles.size), dtype=complex)
    for i in range(n_real):
        phi[:, i] = 1.0 / (s - poles[i])
    for i in range(n_real, poles.size, 2):
        u = 1.0 / (s - poles[i])
        v = 1.0 / (s - np.conj(poles[i]))
        phi[:, i] = u + v
        phi[:, i + 1] = 1j * (u - v)
    return phi


def _coeffs_to_residues(poles, x):
    """Map real solution coefficients back to complex residues per pole."""
    n_real = _n_real(poles)
    r = np.array(x, dtype=complex)
    r[n_real::2] = x[n_real::2] + 1j * x[n_real + 1::2]
    r[n_real + 1::2] = np.conj(r[n_real::2])
    return r


def _real_realization(poles, residues=None):
    """Real block-diagonal realization (A, b, c) of sum_k r_k / (s - p_k).

    A real pole is a 1x1 block with b = 1 and c = r; a conjugate pair is the
    2x2 block [[Re p, Im p], [-Im p, Re p]] with b = (2, 0) and
    c = (Re r, Im r), both read off the Im > 0 member.  Without residues,
    c is zero.
    """
    n_real = _n_real(poles)
    n = poles.size
    r = np.zeros(n) if residues is None else residues
    amat = np.diag(poles.real)
    # each pair block's off-diagonal entries lie on the diagonals of the
    # (even, odd) and (odd, even) sub-grids of the pair rows and columns
    pairs = amat[n_real:, n_real:]
    np.fill_diagonal(pairs[::2, 1::2], poles.imag[n_real::2])
    np.fill_diagonal(pairs[1::2, ::2], -poles.imag[n_real::2])
    bvec = np.zeros(n)
    bvec[:n_real] = 1.0
    bvec[n_real::2] = 2.0
    cvec = r.real.copy()
    cvec[n_real + 1::2] = r.imag[n_real::2]
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


def _lstsq_sizes(rows, cols):
    """(rcond, lwork, liwork) of np.linalg.lstsq on a rows x cols system
    with one right-hand side: rcond = eps * max(rows, cols) and LAPACK's
    optimal dgelsd workspace."""
    cond = float(np.finfo(float).eps * max(rows, cols))
    work, iwork, _ = lapack.dgelsd_lwork(rows, cols, 1, cond)
    return cond, int(work), int(iwork)


class _Relocation:
    """The buffers of one walk's relocation steps and residue solve.

    ``step`` and ``residues`` fill them in place and call LAPACK's dgeqrt,
    dgelsd and dgeev directly.  Their results equal, bit for bit, those of
    np.linalg.lstsq and eigvals on freshly built matrices: the element-wise
    operations and reductions run on arrays of the same memory order,
    dgelsd gets lstsq's rcond and optimal workspace, and dgeev runs without
    eigenvectors after eigvals' finiteness check.
    """

    def __init__(self, s, f_mat, n):
        m, n_ports = s.size, f_mat.shape[0]
        self.s, self.f_mat, self.n = s, f_mat, n
        self.neg_f = -f_mat
        # [Phi, 1] real-stacked, refilled for each pole set
        self.phi1_ri = np.zeros((2 * m, n + 1), order="F")
        self.phi1_ri[:m, n] = 1.0
        # one port's [Phi, 1, -f Phi, -f] real-stacked, reduced in place;
        # its leading n + 1 columns hold the residue least squares
        self.stack = np.empty((2 * m, 2 * (n + 1)), order="F")
        self.f_phi = np.empty((m, n), dtype=complex)
        self.rhs = np.empty((2 * m, 1), order="F")
        # sigma least squares: n + 1 rows of R per port, then the relaxation
        # row; C order, so its column norms add up rows as np.vstack's did
        rows = n_ports * (n + 1) + 1
        self.sigma_a = np.zeros((rows, n + 1))
        self.r_rows = [self.sigma_a[i:i + n + 1] for i in range(0, rows - 1, n + 1)]
        self.upper = np.triu(np.ones((n + 1, n + 1), dtype=bool))
        self.relax_row = np.empty(n + 1)
        self.relax_row[n] = m
        self.lsq_a = np.empty((rows, n + 1), order="F")
        self.lsq_b = np.empty((rows, 1), order="F")
        with np.errstate(over="ignore", invalid="ignore"):
            self.scale = float(np.linalg.norm([np.linalg.norm(f) for f in f_mat])) / m
            self.sigma_b = np.zeros(rows)
            self.sigma_b[-1] = self.scale * m
        self.sigma_b_finite = bool(np.isfinite(self.sigma_b).all())
        self.residue_sizes = _lstsq_sizes(2 * m, n + 1)
        if n:
            self.sigma_sizes = _lstsq_sizes(rows, n + 1)
            self.geev_lwork = int(lapack.dgeev_lwork(n, compute_vl=0, compute_vr=0)[0])

    def step(self, poles):
        """One pole-relocation step under the relaxed nontriviality constraint.

        Returns the new pole set (never flipped), ||c_sigma|| / |d_sigma|,
        how far the scaling function still is from its direct term, and the
        numerical rank of the sigma least squares (at most n + 1).

        Each port's real-stacked system [Phi, 1, -f Phi, -f] (2m x 2(n+1))
        is reduced by ``_qr_r``; the trailing (n+1) x (n+1) block of R gives
        that port's rows of the sigma equations, with the direct term
        d_sigma as the last unknown.  One appended row fixes the sum of
        Re sigma over the samples, which keeps the solution nontrivial.  A
        response too large for the column scaling raises ``NumericError``
        before the least-squares solve.
        """
        n, m = self.n, self.s.size
        k = 2 * (n + 1)
        phi = _pf_basis(poles, self.s)
        self.phi1_ri[:m, :n] = phi.real
        self.phi1_ri[m:, :n] = phi.imag
        stack, f_phi = self.stack, self.f_phi
        for r_rows, neg_f in zip(self.r_rows, self.neg_f):
            stack[:, :n + 1] = self.phi1_ri
            np.multiply(neg_f[:, None], phi, out=f_phi)
            stack[:m, n + 1:k - 1] = f_phi.real
            stack[m:, n + 1:k - 1] = f_phi.imag
            stack[:m, k - 1] = neg_f.real
            stack[m:, k - 1] = neg_f.imag
            np.copyto(r_rows, _qr_r(stack)[n + 1:k, n + 1:], where=self.upper)
        aa = self.sigma_a
        with np.errstate(over="ignore", invalid="ignore"):
            self.relax_row[:n] = np.sum(phi.real, axis=0)
            np.multiply(self.scale, self.relax_row, out=aa[-1])
            col_scale = np.linalg.norm(aa, axis=0)
        # a finite column norm bounds every entry of its column of aa
        if not (np.isfinite(col_scale).all() and self.sigma_b_finite):
            raise NumericError("relocation least squares failed: response magnitude "
                               "overflows the column scaling")
        col_scale[col_scale == 0.0] = 1.0
        np.divide(aa, col_scale, out=self.lsq_a)
        self.lsq_b[:, 0] = self.sigma_b
        cond, lwork, liwork = self.sigma_sizes
        x, _, rank, info = lapack.dgelsd(self.lsq_a, self.lsq_b, lwork, liwork, cond,
                                         overwrite_a=1, overwrite_b=1)
        if info != 0:
            raise NumericError(f"relocation least squares failed: {_LSTSQ_FAILED}")
        x = x[:n + 1, 0] / col_scale
        c_sigma, d_sigma = x[:n], float(x[n])
        if abs(d_sigma) < 1e-8:
            d_sigma = 1e-8 if d_sigma >= 0 else -1e-8
        settled = float(np.linalg.norm(c_sigma)) / abs(d_sigma)

        # zeros of sigma: eigenvalues of the pole matrix minus the rank-one
        # update, in real block form for conjugate pairs
        hmat, bvec, _ = _real_realization(poles)
        hmat -= np.outer(bvec, c_sigma) / d_sigma
        if not np.isfinite(hmat).all():
            raise NumericError("defective relocation eigenproblem: "
                               "Array must not contain infs or NaNs")
        wr, wi, _, _, info = lapack.dgeev(hmat, compute_vl=0, compute_vr=0,
                                          lwork=self.geev_lwork, overwrite_a=1)
        if info != 0:
            raise NumericError("defective relocation eigenproblem: "
                               "Eigenvalues did not converge")
        lam = wr  # all real: eigvals returns the real parts alone
        if wi.any():
            lam = np.empty(n, dtype=complex)
            lam.real, lam.imag = wr, wi
        try:
            order, n_real = _canonical_order(lam)
        except ValueError as exc:
            raise NumericError(f"defective relocation eigenproblem: {exc}") from None
        new_poles = lam[order].astype(complex)
        new_poles[n_real + 1::2] = np.conj(new_poles[n_real::2])
        return new_poles, settled, int(rank)

    def residues(self, poles):
        """Per-port residues and real direct terms against fixed poles:
        the least squares [Phi, 1] x = f, real-stacked."""
        n, m = self.n, self.s.size
        phi = _pf_basis(poles, self.s)
        self.phi1_ri[:m, :n] = phi.real
        self.phi1_ri[m:, :n] = phi.imag
        a_ri, b_ri = self.stack[:, :n + 1], self.rhs
        cond, lwork, liwork = self.residue_sizes
        residues = np.empty((self.f_mat.shape[0], n), dtype=complex)
        direct = np.empty(self.f_mat.shape[0])
        for kport, f in enumerate(self.f_mat):
            a_ri[...] = self.phi1_ri
            b_ri[:m, 0] = f.real
            b_ri[m:, 0] = f.imag
            x, _, _, info = lapack.dgelsd(a_ri, b_ri, lwork, liwork, cond,
                                          overwrite_a=1, overwrite_b=1)
            if info != 0:
                raise NumericError(f"residue least squares failed: {_LSTSQ_FAILED}")
            residues[kport] = _coeffs_to_residues(poles, x[:n, 0])
            direct[kport] = x[n, 0]
        return residues, direct


class _PoleWalk:
    """The pole relocation of one vector fit, one step at a time.

    Iterating yields the pole set in rad/s after each relocation step and
    ends on the first stop :func:`fit_common_denominator` names; ``stop``
    and ``iters_used`` then say how it ended (``stop`` is None while the
    walk is unfinished).  ``finish()`` solves the residues and direct
    terms against the poles reached so far and returns (model, report).
    A walk is iterated once.  Its buffers (``_Relocation``) are its own,
    so walks may be iterated interleaved.
    """

    def __init__(self, resps, cfg):
        n = cfg.order
        m = len(resps.grid)
        if 2 * m < 2 * (n + 1):
            raise UsageError(f"order {n} exceeds the point budget of {m} samples")
        omega = resps.grid.omega
        self.resps = resps
        self.iters = cfg.iters
        self.w_scale = float(omega[-1])
        self.s = 1j * omega / self.w_scale
        self.iters_used = 0
        self._relocation = _Relocation(self.s, resps.values, n)
        if n == 0:
            self.poles = np.zeros(0, dtype=complex)
            self.stop = "no-poles"
        else:
            self.poles = _initial_poles(n, omega / self.w_scale)
            self.stop = None

    def __iter__(self):
        n = self.poles.size
        prev_rank = n + 1
        while self.stop is None:
            new_poles, settled, rank = self._relocation.step(self.poles)
            move = np.max(np.abs(np.sort_complex(new_poles) - np.sort_complex(self.poles)))
            self.poles = new_poles
            self.iters_used += 1
            if move < 1e-10 * max(1.0, float(np.max(np.abs(new_poles)))):
                self.stop = "pole-move"
            elif settled <= _SIGMA_TOL:
                self.stop = "sigma-settled"
            elif rank <= n and rank == prev_rank:
                self.stop = "rank-deficient"
            elif self.iters_used == self.iters:
                self.stop = "iteration-cap"
            prev_rank = rank
            yield new_poles * self.w_scale

    def finish(self):
        residues, direct = self._relocation.residues(self.poles)
        model = PartialFractionModel(self.poles * self.w_scale, residues * self.w_scale, direct,
                                     self.resps.port_names)
        return model, replace(fit_error(model, self.resps), iters_used=self.iters_used,
                              converged=self.stop in _SETTLED, stop=self.stop)


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
    The relocation runs to its stop here; the order scan's persistence
    test walks the same steps and may leave off earlier
    (``staban._scan_orders``).
    """
    walk = _PoleWalk(resps, cfg)
    for _ in walk:
        pass
    return walk.finish()


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

"""Shared circuit fixtures and random generators for the test suite."""

import numpy as np

from pzid.freqresp import FrequencyGrid, FrequencyResponseSet, PortLabel
from pzid.netsim import (Netlist, TerminationPort, analytic_poles, capacitor,
                         inductor, resistor, vccs)
from pzid.ratfit import PartialFractionModel, evaluate_model


def parallel_rlc(r=50.0, l=1e-9, c=1e-12, node="n1"):
    """One tank to ground; poles -1/(2RC) +- j sqrt(1/LC - (1/(2RC))^2)."""
    return Netlist((resistor("r1", node, "0", r),
                    inductor("l1", node, "0", l),
                    capacitor("c1", node, "0", c)))


def series_rlc_loop(r=10.0, l=1e-9, c=1e-12):
    """Series R-L-C ring through ground, for voltage-probe fixtures."""
    return Netlist((resistor("rs", "0", "n1", r),
                    inductor("ls", "n1", "n2", l),
                    capacitor("cs", "n2", "0", c)))


def double_resonator(stab_node=None, r_stab=1e6):
    """Two weakly coupled tanks; the B tank is destabilized by a negative R.

    Probing at A sees the instability only through the weak coupling (the
    quasi-cancelled situation); a shunt resistor at B stabilizes below a
    threshold near 207 ohm, while no shunt at A ever does.
    """
    els = [
        capacitor("c1", "B", "0", 1e-12),
        inductor("l1", "B", "0", 1e-9),
        resistor("rneg", "B", "0", -200.0),
        capacitor("c2", "A", "0", 2e-12),
        inductor("l2", "A", "0", 2e-9),
        resistor("r2", "A", "0", 300.0),
        resistor("rc", "A", "B", 5000.0),
    ]
    if stab_node:
        els.append(resistor("rstab", stab_node, "0", r_stab))
    return Netlist(tuple(els))


DOUBLE_RESONATOR_GRID = FrequencyGrid(np.linspace(0.3e9, 8e9, 400))


def combiner():
    """Symmetric two-branch power combiner.

    The combining node c is a virtual ground for the odd mode (branch
    resonance with c shorted), so a current probe at c cannot see it; the
    180-degree modal excitation at a/b can.
    """
    return Netlist((
        inductor("la", "c", "a", 1e-9), inductor("lb", "c", "b", 1e-9),
        capacitor("ca", "a", "0", 1e-12), capacitor("cb", "b", "0", 1e-12),
        resistor("ra", "a", "0", 200.0), resistor("rb", "b", "0", 200.0),
        resistor("rcm", "c", "0", 50.0), capacitor("ccm", "c", "0", 0.5e-12),
    ))


COMBINER_GRID = FrequencyGrid(np.linspace(0.5e9, 12e9, 500))


def two_stage():
    """Two-stage sketch with the instability confined to stage 2.

    Unilateral VCCS coupling plus a large reverse leak keep the unstable
    tank's residue at the stage-1 probe orders of magnitude below stage 2's.
    """
    return Netlist((
        capacitor("c1", "n1", "0", 5e-12), inductor("l1", "n1", "0", 1e-9),
        resistor("r1", "n1", "0", 150.0),
        capacitor("c2", "n2", "0", 1e-12), inductor("l2", "n2", "0", 1e-9),
        resistor("rneg", "n2", "0", -250.0),
        vccs("gm1", "n2", "0", "n1", "0", 0.02),
        resistor("rrev", "n1", "n2", 2e5),
    ))


TWO_STAGE_GRID = FrequencyGrid(np.linspace(0.5e9, 9e9, 500))


def masked_loop():
    """Internal negative-resistance loop damped only through the port.

    Stable under a matched load, unstable under short (and open): the
    classic case where port criteria alone miss an internal instability.
    """
    return Netlist((
        capacitor("c1", "I", "0", 1e-12),
        inductor("l1", "I", "0", 1e-9),
        resistor("rneg", "I", "0", -150.0),
        inductor("lc", "I", "P", 0.3e-9),
        resistor("rleak", "P", "0", 1e6),
    ), ports=(TerminationPort("out", "P", 50.0),))


def passive_loop():
    """All-passive variant of :func:`masked_loop`."""
    return Netlist((
        capacitor("c1", "I", "0", 1e-12),
        inductor("l1", "I", "0", 1e-9),
        resistor("r1", "I", "0", 150.0),
        inductor("lc", "I", "P", 0.3e-9),
        resistor("rleak", "P", "0", 1e6),
    ), ports=(TerminationPort("out", "P", 50.0),))


PROVISO_GRID = FrequencyGrid(np.linspace(0.5e9, 12e9, 300))


def dc_singular_net(gm=0.0):
    """2 ohm, 1 pF and a VCCS of gm on its own voltage at node x, which an
    inductor ties to a capacitor at y: gm = -0.5 leaves x no conductance to
    ground at 0 Hz, and the poles cross into the RHP below it."""
    return Netlist((resistor("rx", "x", "0", 2.0), capacitor("cx", "x", "0", 1e-12),
                    inductor("lx", "x", "y", 1e-9), capacitor("cy", "y", "0", 1e-12),
                    vccs("gx", "x", "0", "x", "0", gm)))


DC_SINGULAR_GRID = FrequencyGrid(np.linspace(0.0, 12e9, 200))


# ---------------------------------------------------------------------------
# random partial-fraction models (rational round-trip suite)

def random_pf_model(seed):
    """Mixed-stability model with identifiable, stratified resonances.

    Band ratio stays within the polynomial fitter's operating envelope;
    residue magnitudes span several decades but every resonance peak stays
    far enough above rounding noise to be identifiable from 400 samples.
    Returns (model, f_lo, f_hi).
    """
    rng = np.random.default_rng(seed)
    n_pairs = int(rng.integers(1, 11))
    ratio = rng.uniform(max(3.0, 1.22 ** n_pairs), 12.0)
    f_hi = 10 ** rng.uniform(9.0, np.log10(40e9))
    f_lo = f_hi / ratio
    w_lo, w_hi = 2 * np.pi * f_lo * 1.25, 2 * np.pi * f_hi * 0.85
    g = (w_hi / w_lo) ** (1.0 / n_pairs)
    betas = np.array([w_lo * g ** (k + 0.1 + 0.8 * rng.uniform())
                      for k in range(n_pairs)])
    mags = 10 ** rng.uniform(-np.log10(500.0), 0.0, n_pairs)
    poles, res = [], []
    for beta, mag in zip(betas, mags):
        q = rng.uniform(5.0, 50.0)
        sigma = -beta / (2.0 * q)
        if rng.uniform() < 0.3:
            sigma = -sigma
        poles += [complex(sigma, beta), complex(sigma, -beta)]
        r = mag * beta * 0.05 * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        res += [r, np.conj(r)]
    model = PartialFractionModel(np.asarray(poles), np.asarray([res]),
                                 np.asarray([rng.uniform(0.5, 2.0)]))
    return model, f_lo, f_hi


def sample_model(model, f_lo, f_hi, n=400, log=False, port_name="p1"):
    f = np.geomspace(f_lo, f_hi, n) if log else np.linspace(f_lo, f_hi, n)
    grid = FrequencyGrid(f)
    h = evaluate_model(model, grid, 0)
    return FrequencyResponseSet(grid, (PortLabel(port_name),), (h,))


def flat_response(noise=0.0, seed=0):
    """H = 1 over 0.1-1 GHz plus ``noise`` times complex Gaussian noise."""
    f = np.linspace(1e8, 1e9, 200)
    rng = np.random.default_rng(seed)
    h = 1.0 + noise * (rng.standard_normal(f.size) + 1j * rng.standard_normal(f.size))
    return FrequencyResponseSet(FrequencyGrid(f), (PortLabel("p1"),), (h,))


def wideband_model(n_pairs=10, f_lo=1e6, f_hi=40e9, q=30.0, seed=3):
    """Log-spaced resonances over 4.5 decades; the conditioning fixture.

    Polynomial powers of s cannot span this band at order 20, while the
    partial-fraction basis can.
    """
    rng = np.random.default_rng(seed)
    betas = 2 * np.pi * np.geomspace(f_lo * 1.5, f_hi * 0.7, n_pairs)
    poles, res = [], []
    for i, beta in enumerate(betas):
        sigma = -beta / (2.0 * q)
        if i == n_pairs // 2:
            sigma = -sigma
        poles += [complex(sigma, beta), complex(sigma, -beta)]
        r = beta * 0.05 * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        res += [r, np.conj(r)]
    return PartialFractionModel(np.asarray(poles), np.asarray([res]), np.asarray([1.0]))


def wideband_net(seed=2, n_tanks=10):
    """Parallel RLC tanks in series from t0 to ground, one with negative R.

    The impedance at t0 has 2 * n_tanks poles with resonances log-spaced
    over 4.5 decades (1.5 MHz - 28 GHz), quality 20-50; its pencil
    eigenvalues are the oracle.
    """
    rng = np.random.default_rng(seed)
    f0s = np.geomspace(1.5e6, 28e9, n_tanks) * np.exp(rng.uniform(-0.1, 0.1, n_tanks))
    bad = int(rng.integers(0, n_tanks))
    els = []
    for k, f0 in enumerate(f0s):
        w = 2 * np.pi * f0
        c = 1.0 / (w * 10 ** rng.uniform(1.0, 2.0))
        r = rng.uniform(20.0, 50.0) / (w * c)
        a, b = f"t{k}", f"t{k + 1}" if k < n_tanks - 1 else "0"
        els += [resistor(f"r{k}", a, b, -r if k == bad else r),
                inductor(f"l{k}", a, b, 1.0 / (w * w * c)), capacitor(f"c{k}", a, b, c)]
    return Netlist(tuple(els))


# ---------------------------------------------------------------------------
# under/over-modeling fixture: a weak RHP resonance beside a strong stable one

OVERMODEL_TRUE_POLES = np.array([
    complex(-6e8, 2 * np.pi * 3e9), complex(-6e8, -2 * np.pi * 3e9),
    complex(+2e8, 2 * np.pi * 6e9), complex(+2e8, -2 * np.pi * 6e9),
])

OVERMODEL_GRID = FrequencyGrid(np.linspace(1e9, 10e9, 400))


def overmodel_generator():
    """Order-4 truth: strong stable pair plus a weak RHP resonance."""
    res = np.array([[5e9, 5e9, 2e8 * 1j, -2e8 * 1j]], dtype=complex)
    return PartialFractionModel(OVERMODEL_TRUE_POLES, res, np.array([1.0]))


def overmodel_response(seed, sigma=1e-5):
    """Noisy samples of the order-4 truth (multiplicative complex noise)."""
    h0 = evaluate_model(overmodel_generator(), OVERMODEL_GRID, 0)
    rng = np.random.default_rng(seed)
    noise = 1.0 + sigma * (rng.standard_normal(len(OVERMODEL_GRID))
                           + 1j * rng.standard_normal(len(OVERMODEL_GRID)))
    return FrequencyResponseSet(OVERMODEL_GRID, (PortLabel("p1"),), (h0 * noise,))


# ---------------------------------------------------------------------------
# random RLC(+VCCS) netlists for the eigenpencil and zero oracles

def _random_net(rng, with_vccs):
    n_extra = int(rng.integers(2, 7))  # nodes beyond n1
    nodes = ["n1"]
    els = []
    count = {"R": 0, "L": 0, "C": 0, "G": 0}

    def fresh(kind):
        count[kind] += 1
        return f"{kind.lower()}{count[kind]}"

    def draw(kind, a, b):
        if kind == "R":
            els.append(resistor(fresh("R"), a, b, 10 ** rng.uniform(1.5, 3.3)))
        elif kind == "L":
            els.append(inductor(fresh("L"), a, b, 10 ** rng.uniform(-9.3, -8.7)))
        else:
            els.append(capacitor(fresh("C"), a, b, 10 ** rng.uniform(-12.3, -11.7)))

    # anchor tank keeps n1 conducting to ground and dynamic
    draw("R", "n1", "0")
    draw("C", "n1", "0")
    for i in range(n_extra):
        new = f"n{i + 2}"
        attach = nodes[int(rng.integers(0, len(nodes)))]
        draw(("R", "L", "C")[int(rng.integers(0, 3))], new, attach)
        draw(("R", "L", "C")[int(rng.integers(0, 3))], new, "0")
        nodes.append(new)
    for _ in range(int(rng.integers(1, 4))):
        a, b = rng.choice(len(nodes), size=2, replace=False)
        draw(("R", "L", "C")[int(rng.integers(0, 3))], nodes[a], nodes[b])
    if with_vccs:
        for _ in range(int(rng.integers(1, 3))):
            a, b = rng.choice(len(nodes), size=2, replace=False)
            els.append(vccs(fresh("G"), nodes[a], "0", nodes[b], "0",
                            10 ** rng.uniform(-3.0, -1.7)))
    return Netlist(tuple(els))


def _net_is_clean(net, require_band=None):
    """Screen for fixtures a one-band fit can resolve: well-separated finite
    poles, moderate magnitude spread."""
    try:
        poles = analytic_poles(net)
    except Exception:
        return None
    if poles.size == 0:
        return None
    mags = np.abs(poles)
    if mags.min() <= 0 or mags.max() / mags.min() > 30.0:
        return None
    reps = poles[poles.imag >= 0]
    for i in range(reps.size):
        for j in range(i + 1, reps.size):
            if abs(reps[i] - reps[j]) / max(abs(reps[i]), abs(reps[j])) < 0.03:
                return None
    if require_band is not None:
        lo, hi = require_band
        if mags.min() < lo or mags.max() > hi:
            return None
    return poles


def random_oracle_net(seed, with_vccs=True):
    """Deterministic rejection sampling: returns (net, analytic_poles)."""
    rng = np.random.default_rng(seed)
    for _ in range(200):
        try:
            net = _random_net(rng, with_vccs)
        except ValueError:
            continue
        poles = _net_is_clean(net)
        if poles is not None:
            return net, poles
    raise RuntimeError(f"no usable random net for seed {seed}")


def oracle_grid(poles, n=500):
    """Linear grid spanning the pole magnitudes with margin."""
    mags = np.abs(poles)
    f_lo = mags.min() / (2 * np.pi) / 3.0
    f_hi = mags.max() / (2 * np.pi) * 1.5
    return FrequencyGrid(np.linspace(f_lo, f_hi, n))


def same_bits(got, ref):
    """Bit-for-bit equality of two float or complex arrays, signed zeros
    included."""
    got, ref = np.asarray(got), np.asarray(ref)
    return (got.dtype == ref.dtype and got.shape == ref.shape
            and np.array_equal(np.ascontiguousarray(got).view(np.uint64),
                               np.ascontiguousarray(ref).view(np.uint64)))

"""Seeded inputs, timed calls and oracle checks for the three workloads.

Each workload builds a *pool* of jobs from the seed.  A job is one timed
call into pzid (``call``) plus a check run after the clock stops
(``check``), which returns the canonical output bytes, the number of
results the job produced and how many of them failed.  A result fails when
the call raised, the CLI exited 2 or 3, or the answer disagrees with the
pencil oracle of :mod:`oracle`.  Every oracle solve happens while the pool
is built, never inside a job.

pzid functions are looked up as module attributes at call time, so the
traced run's wrappers see every call.  Import this module only after
``run.load_pzid`` has put the checkout's ``src`` first on the path.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pzid
from pzid import cli, sweeps

import oracle as O
from oracle import El

POLE_TOL = 0.02   # relative pole-location agreement, pzid's own persistence tolerance
SWEEP_TOL = 0.01  # relative agreement of sweep poles and crossings
Z0 = 50.0


@dataclass
class Job:
    key: str  # "<position in the pool>-<kind>"
    call: Callable[[], object]
    check: Callable[[object], tuple[bytes, int, int]]
    n_results: int = 1  # results counted as failed if the call raises


def build(workload, seed, smoke):
    return {"identify": _identify_pool, "sweep": _sweep_pool,
            "proviso": _proviso_pool}[workload](np.random.default_rng(seed), smoke)


def _netlist(elements, ports=()):
    make = {"R": pzid.resistor, "L": pzid.inductor, "C": pzid.capacitor}
    out = []
    for e in elements:
        if e.kind == "G":
            out.append(pzid.vccs(e.name, *e.nodes, e.value))
        else:
            out.append(make[e.kind](e.name, *e.nodes, e.value))
    return pzid.Netlist(tuple(out), ports)


def _margin(freqs_hz):
    """pzid's default marginal band: 1e-6 of the largest grid omega."""
    return 1e-6 * 2.0 * math.pi * float(np.max(freqs_hz))


def _poles_match(got, want, tol):
    """Same count and every wanted pole has a got pole within ``tol``."""
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    if got.size != want.size:
        return False
    return all(np.min(np.abs(got - w)) <= tol * abs(w) for w in want)


def _c(z):
    return f"{float(z.real)!r},{float(z.imag)!r}"


# ---------------------------------------------------------------------------
# identify: CLI stability jobs on files written during setup

def _tank(k, a, b, f0, q, residue, rhp):
    """Parallel RLC between a and b: impedance poles at f0 with quality q and
    residue magnitude ``residue`` (1/2C); negative R puts them in the RHP."""
    w = 2.0 * math.pi * f0
    c = 1.0 / (2.0 * residue)
    r = q / (w * c)
    return [El("R", f"r{k}", (a, b), -r if rhp else r),
            El("L", f"l{k}", (a, b), 1.0 / (w * w * c)),
            El("C", f"c{k}", (a, b), c)]


def _wideband(rng):
    """Ten tanks in series, resonances log-spaced over 4.5 decades, one RHP."""
    n = 10
    f0s = np.geomspace(1.5e6, 28e9, n) * np.exp(rng.uniform(-0.1, 0.1, n))
    bad = int(rng.integers(0, n))
    els = []
    for k, f0 in enumerate(f0s):
        z0 = 10 ** rng.uniform(1.0, 2.0)
        q = rng.uniform(20.0, 50.0)
        b = f"t{k + 1}" if k < n - 1 else O.GROUND
        els += _tank(k, f"t{k}", b, f0, q, 2 * math.pi * f0 * z0 / 2.0, k == bad)
    return tuple(els), ["t0"], np.geomspace(1e6, 40e9, 2000)


def _noisy_weak_rhp(rng):
    """Series R plus a strong stable tank plus a weak RHP tank."""
    els = [El("R", "rs", ("in", "t"), 1.0)]
    els += _tank(0, "t", "m", 3e9 * rng.uniform(0.9, 1.1), rng.uniform(10.0, 20.0),
                 5e9 * rng.uniform(0.7, 1.4), False)
    els += _tank(1, "m", O.GROUND, 6e9 * rng.uniform(0.9, 1.1), rng.uniform(60.0, 120.0),
                 2e8 * rng.uniform(0.7, 1.4), True)
    return tuple(els), ["in"], np.linspace(1e9, 10e9, 400)


def _random_rlc(rng):
    """Random connected R/L/C network with an optional VCCS."""
    nodes = ["n1"]
    count = {}
    els = []

    def add(kind, a, b):
        count[kind] = count.get(kind, 0) + 1
        value = {"R": 10 ** rng.uniform(1.5, 3.3), "L": 10 ** rng.uniform(-9.3, -8.7),
                 "C": 10 ** rng.uniform(-12.3, -11.7)}[kind]
        els.append(El(kind, f"{kind.lower()}{count[kind]}", (a, b), value))

    add("R", "n1", O.GROUND)
    add("C", "n1", O.GROUND)
    for i in range(int(rng.integers(2, 5))):
        new = f"n{i + 2}"
        add("RLC"[int(rng.integers(0, 3))], new, nodes[int(rng.integers(0, len(nodes)))])
        add("RLC"[int(rng.integers(0, 3))], new, O.GROUND)
        nodes.append(new)
    for _ in range(int(rng.integers(1, 3))):
        a, b = rng.choice(len(nodes), size=2, replace=False)
        add("RLC"[int(rng.integers(0, 3))], nodes[a], nodes[b])
    if rng.uniform() < 0.5:
        a, b = rng.choice(len(nodes), size=2, replace=False)
        els.append(El("G", "g1", (nodes[a], O.GROUND, nodes[b], O.GROUND),
                      10 ** rng.uniform(-3.0, -1.7)))
    return tuple(els), nodes


def _screen(p):
    """Oracle-only screen: 2..8 finite poles, magnitudes within 30x, pairs at
    least 3 % apart, none within 1e-3 of the imaginary axis."""
    if not 2 <= p.size <= 8:
        return False
    mags = np.abs(p)
    if mags.min() <= 0 or mags.max() / mags.min() > 30.0:
        return False
    if np.any(np.abs(p.real) < 1e-3 * mags):
        return False
    reps = p[p.imag >= 0]
    return all(abs(reps[i] - reps[j]) / max(abs(reps[i]), abs(reps[j])) >= 0.03
               for i in range(reps.size) for j in range(i + 1, reps.size))


def _random_probed(rng, fmt):
    """Screened random netlist: (elements, probe nodes, oracle poles, freqs).
    For the S-parameter formats the oracle circuit carries z0 shunts."""
    n_probes = 2 if fmt in ("csv2", "s2p") else 1
    while True:
        els, nodes = _random_rlc(rng)
        probes = ["n1", nodes[-1]][:n_probes]
        ref = els
        if fmt in ("s1p", "s2p"):
            ref = els + tuple(El("R", f"rz{i}", (n, O.GROUND), Z0)
                              for i, n in enumerate(probes))
        try:
            p = O.poles(ref)
        except (ValueError, np.linalg.LinAlgError):
            continue
        if _screen(p):
            mags = np.abs(p)
            f = np.linspace(mags.min() / (2 * math.pi) / 3.0,
                            mags.max() / (2 * math.pi) * 1.5, 400)
            return els, probes, p, f


def _write_csv(path, freqs, cols, names):
    lines = ["# kind: " + ",".join(f"{n}=impedance" for n in names),
             "freq_hz," + ",".join(f"{n}_re,{n}_im" for n in names)]
    for i, f in enumerate(freqs):
        lines.append(",".join([repr(float(f))] + [_c(c[i]) for c in cols]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_touchstone(path, freqs, S):
    k = S.shape[1]
    order = [(0, 0)] if k == 1 else [(0, 0), (1, 0), (0, 1), (1, 1)]
    lines = ["! written by perfbench", f"# HZ S RI R {Z0:g}"]
    for i, f in enumerate(freqs):
        cells = [repr(float(f))]
        for a, b in order:
            cells += [repr(float(S[i, a, b].real)), repr(float(S[i, a, b].imag))]
        lines.append(" ".join(cells))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _stability_job(key, path, orders, oracle_poles, freqs):
    report, svg = f"{key}.json", f"{key}.svg"
    argv = ["stability", "--in", path, "--orders", orders, "--report", report, "--svg", svg]
    want = oracle_poles[oracle_poles.real > _margin(freqs)]

    def check(code):
        out = {}
        for name in (report, svg):  # removed so a later failing call cannot reuse them
            if os.path.exists(name):
                with open(name, "rb") as fh:
                    out[name] = fh.read()
                os.remove(name)
        ok = code == 0 and report in out
        if ok:
            doc = json.loads(out[report])
            got = [complex(*cp["rad_s"]) for cp in doc["critical_poles"]]
            ok = doc["stable"] == (want.size == 0) and _poles_match(got, want, POLE_TOL)
        data = out.get(report, b"") + out.get(svg, b"") + f"exit={code}\n".encode()
        return data, 1, int(not ok)

    return Job(key, lambda: cli.dispatch(argv), check)


def _identify_pool(rng, smoke):
    """Per pass: 14 wideband, 4 random netlists (csv1, csv2, s1p, s2p) and
    3 noisy weak-RHP responses; the wideband jobs are two thirds of the
    jobs so both p50 and p90 fall inside one homogeneous group."""
    plan = ["wide"] * 14 + ["csv1", "csv2", "s1p", "s2p"] + ["noisy"] * 3
    if smoke:
        plan = ["wide", "csv2", "s2p", "noisy"]
    plan = [plan[i] for i in rng.permutation(len(plan))]
    jobs = []
    for i, kind in enumerate(plan):
        key = f"{i:02d}-{kind}"
        if kind == "wide":
            els, probes, f = _wideband(rng)
            orders, p = "16:24", O.poles(els)
        elif kind == "noisy":
            els, probes, f = _noisy_weak_rhp(rng)
            orders, p = "2:6", O.poles(els)
        else:
            els, probes, p, f = _random_probed(rng, kind)
            orders = "2:12"
        Z = O.impedance_matrix(els, probes, f)
        if kind in ("s1p", "s2p"):
            path = f"{key}.{kind}"
            _write_touchstone(path, f, O.s_from_z(Z, Z0))
        else:
            cols = [Z[:, k, k] for k in range(len(probes))]
            if kind == "noisy":
                noise = 1e-5 * (rng.standard_normal(f.size) + 1j * rng.standard_normal(f.size))
                cols = [cols[0] * (1.0 + noise)]
            path = f"{key}.csv"
            _write_csv(path, f, cols, [f"z{k}" for k in range(len(probes))])
        jobs.append(_stability_job(key, path, orders, p, f))
    return jobs


# ---------------------------------------------------------------------------
# sweep: Monte Carlo clouds, pole loci and stabilization thresholds

SWEEP_GRID_HZ = np.linspace(0.3e9, 8e9, 400)
SWEEP_ORDER = 4


def _double_resonator(rng):
    """Two weakly coupled tanks, B destabilized by a negative R, shunt rstab at B."""
    j = lambda: rng.uniform(0.9, 1.1)  # noqa: E731
    return (El("C", "c1", ("B", "0"), 1e-12 * j()), El("L", "l1", ("B", "0"), 1e-9 * j()),
            El("R", "rneg", ("B", "0"), -200.0 * j()),
            El("C", "c2", ("A", "0"), 2e-12 * j()), El("L", "l2", ("A", "0"), 2e-9 * j()),
            El("R", "r2", ("A", "0"), 300.0 * j()), El("R", "rc", ("A", "B"), 5000.0 * j()),
            El("R", "rstab", ("B", "0"), 1e6))


def _mc_job(key, els, probe_node, trials, mc_seed, sigma):
    net = _netlist(els)
    grid = pzid.FrequencyGrid(SWEEP_GRID_HZ)
    cfg = sweeps.SweepConfig(order=SWEEP_ORDER)
    w_max = 2 * math.pi * SWEEP_GRID_HZ[-1]
    # the documented draw: one uniform per element in declaration order
    rng = np.random.default_rng(mc_seed)
    want = []
    for _ in range(trials):
        factors = [1.0 + sigma * rng.uniform(-1.0, 1.0) for _ in els]
        trial = tuple(e._replace(value=e.value * f) for e, f in zip(els, factors))
        p = O.poles(trial)
        want.append(p[np.abs(p) <= 3.0 * w_max])

    def check(cloud):
        got = [[p for t, p in cloud.points if t == k] for k in range(trials)]
        bad = cloud.n_failed + sum(not _poles_match(g, w, SWEEP_TOL) for g, w in zip(got, want))
        text = "".join(f"{t},{_c(p)}\n" for t, p in cloud.points)
        text += f"stats={sorted(cloud.margin_stats.items())!r} failed={cloud.n_failed}\n"
        return text.encode(), 1, int(bad > 0)

    return Job(key, lambda: sweeps.monte_carlo_cloud(
        net, pzid.current_probe(probe_node), grid, sigma, trials, mc_seed, cfg), check)


def _locus_job(key, els, values):
    net = _netlist(els)
    grid = pzid.FrequencyGrid(SWEEP_GRID_HZ)
    cfg = sweeps.SweepConfig(order=SWEEP_ORDER)
    want = [O.poles(O.set_value(els, "rstab", v)) for v in values]
    cross = O.crossing(els, "rstab", values[0], values[-1])

    def check(traj):
        ok = all(_poles_match(traj.tracks[:, j], w, SWEEP_TOL) for j, w in enumerate(want))
        events = [v for v, _ in traj.crossing_events]
        ok = ok and bool(events) and all(abs(v - cross) <= SWEEP_TOL * cross for v in events)
        text = "".join(",".join(_c(p) for p in row) + "\n" for row in traj.tracks)
        text += "".join(f"cross {v!r} {_c(p)}\n" for v, p in traj.crossing_events)
        return text.encode(), 1, int(not ok)

    return Job(key, lambda: sweeps.trace_pole_locus(
        net, pzid.current_probe("B"), grid, "rstab", values, cfg), check)


def _threshold_job(key, els, lo, hi, tol, want):
    net = _netlist(els)
    grid = pzid.FrequencyGrid(SWEEP_GRID_HZ)
    cfg = sweeps.SweepConfig(order=SWEEP_ORDER)

    def check(value):
        ok = abs(value - want) <= tol * want
        return f"{float(value)!r}\n".encode(), 1, int(not ok)

    return Job(key, lambda: sweeps.stabilization_threshold(
        net, pzid.current_probe("B"), grid, "rstab", lo, hi, tol, cfg), check)


def _sweep_pool(rng, smoke):
    """Per pass: 6 Monte Carlo clouds (10 trials), 6 loci (10 values) and 6
    thresholds (1 % tolerance), each on its own double-resonator variant."""
    n = 1 if smoke else 6
    jobs = []
    for i in range(n):
        els = _double_resonator(rng)
        jobs.append(_mc_job(f"{i:02d}-mc", els, "AB"[i % 2], 10,
                            int(rng.integers(2 ** 31)), 0.05))
        els = _double_resonator(rng)
        c = O.crossing(els, "rstab", 20.0, 5000.0)
        jobs.append(_locus_job(f"{i:02d}-locus", els, np.geomspace(0.5 * c, 2.0 * c, 10)))
        els = _double_resonator(rng)
        c = O.crossing(els, "rstab", 20.0, 5000.0)
        jobs.append(_threshold_job(f"{i:02d}-threshold", els, 0.5 * c, 2.0 * c, 1e-2, c))
    return jobs


# ---------------------------------------------------------------------------
# proviso: spiral termination scans

PROVISO_GRID_HZ = np.linspace(0.5e9, 12e9, 300)
PROVISO_ORDERS = range(2, 7)


def _loop(rng, masked):
    """Internal tank behind a series inductor to the port; negative R when masked."""
    j = lambda: rng.uniform(0.9, 1.1)  # noqa: E731
    return (El("C", "c1", ("I", "0"), 1e-12 * j()), El("L", "l1", ("I", "0"), 1e-9 * j()),
            El("R", "rneg", ("I", "0"), (-150.0 if masked else 150.0) * j()),
            El("L", "lc", ("I", "P"), 0.3e-9 * j()), El("R", "rleak", ("P", "0"), 1e6))


def _proviso_job(key, els, turns, points):
    port = pzid.TerminationPort("out", "P", Z0)
    net = _netlist(els, (port,))
    grid = pzid.FrequencyGrid(PROVISO_GRID_HZ)
    spiral = sweeps.spiral_path(turns, points)
    f_ref = math.sqrt(PROVISO_GRID_HZ[0] * PROVISO_GRID_HZ[-1])
    cases = [("open-like", complex(spiral.r_max)), ("short-like", complex(-spiral.r_max))]
    cases += [(f"h={h:.6g}", complex(g)) for h, g in zip(spiral.h, spiral.gamma)]
    margin = _margin(PROVISO_GRID_HZ)
    want = {}
    for label, gamma in cases:
        extra, shorted = O.termination_elements("P", Z0, gamma, f_ref, "__term_out")
        p = O.poles(els + extra, shorted)
        want[label] = p[p.real > margin]

    def check(report):
        found = {f.label: f.poles for f in report.findings}
        failed_labels = {f.split(":", 1)[0] for f in report.failures}
        bad = 0
        for label, _ in cases:
            ok = label not in failed_labels and _poles_match(found.get(label, ()),
                                                             want[label], POLE_TOL)
            bad += not ok
        bad += abs(report.n_scanned - len(cases))
        text = "".join(f"{f.label} {_c(f.gamma)} {f.h!r} " + " ".join(_c(p) for p in f.poles)
                       + "\n" for f in report.findings)
        text += "".join(f"fail {f}\n" for f in report.failures)
        text += f"scanned={report.n_scanned}\n"
        return text.encode(), len(cases), bad

    return Job(key, lambda: sweeps.proviso_scan(
        net, "out", pzid.current_probe("I"), spiral, grid, PROVISO_ORDERS,
        pzid.StabilityConfig()), check, n_results=len(cases))


def _proviso_pool(rng, smoke):
    """Per pass: 6 scans alternating masked and passive loops, 10 cases each."""
    n = 2 if smoke else 6
    return [_proviso_job(f"{i:02d}-{'masked' if i % 2 == 0 else 'passive'}",
                         _loop(rng, i % 2 == 0), 1, 8) for i in range(n)]

"""Independent modified-nodal-analysis oracle for the benchmark.

The benchmark never asks pzid for the answers it checks.  This module keeps
its own element tuples, stamps its own G and C matrices, and takes the
natural frequencies from the generalized eigenvalues of the pencil
det(G + sC) = 0.  Responses written to the identify workload's input files
come from here too, so a change in pzid's circuit engine cannot change the
inputs or the reference the outputs are checked against.

An element is ``(kind, name, nodes, value)`` with kind R, L, C (two nodes)
or G (a VCCS with nodes out+, out-, in+, in-).  Node "0" is ground.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np
import scipy.linalg

GROUND = "0"

El = namedtuple("El", "kind name nodes value")


def _assemble(elements, shorted=()):
    """G, C and the node index; nodes in ``shorted`` are merged into ground."""
    gnd = {GROUND, *shorted}
    nodes = sorted({n for e in elements for n in e.nodes} - gnd)
    idx = {n: i for i, n in enumerate(nodes)}
    inductors = [e for e in elements if e.kind == "L"]
    dim = len(nodes) + len(inductors)
    G = np.zeros((dim, dim))
    C = np.zeros((dim, dim))

    def at(n):
        return idx.get(n)

    def stamp(M, a, b, y):
        a, b = at(a), at(b)
        if a is not None:
            M[a, a] += y
        if b is not None:
            M[b, b] += y
        if a is not None and b is not None:
            M[a, b] -= y
            M[b, a] -= y

    branch = len(nodes)
    for e in elements:
        if e.kind == "R":
            stamp(G, *e.nodes, 1.0 / e.value)
        elif e.kind == "C":
            stamp(C, *e.nodes, e.value)
        elif e.kind == "L":
            a, b = at(e.nodes[0]), at(e.nodes[1])
            for n, sign in ((a, 1.0), (b, -1.0)):
                if n is not None:
                    G[n, branch] += sign
                    G[branch, n] += sign
            C[branch, branch] -= e.value
            branch += 1
        elif e.kind == "G":
            op, on, ip, in_ = (at(n) for n in e.nodes)
            for row, sign in ((op, 1.0), (on, -1.0)):
                if row is None:
                    continue
                if ip is not None:
                    G[row, ip] += sign * e.value
                if in_ is not None:
                    G[row, in_] -= sign * e.value
        else:
            raise ValueError(f"unknown element kind {e.kind!r}")
    return G, C, idx


def _corner_omega(elements):
    rs = [abs(e.value) for e in elements if e.kind == "R"]
    rs += [1.0 / abs(e.value) for e in elements if e.kind == "G"]
    ls = [e.value for e in elements if e.kind == "L"]
    cs = [e.value for e in elements if e.kind == "C"]
    corners = [1.0 / (r * c) for r in rs for c in cs]
    corners += [r / l for r in rs for l in ls]
    corners += [1.0 / math.sqrt(l * c) for l in ls for c in cs]
    return max(corners)


def poles(elements, shorted=()):
    """Finite natural frequencies in rad/s, sorted by (Re, Im).

    Eigenvalues beyond 1e3 times the largest element corner frequency are
    the descriptor pencil's infinite modes and are dropped.
    """
    G, C, _ = _assemble(elements, shorted)
    lam = scipy.linalg.eigvals(-G, C)
    keep = np.isfinite(lam) & (np.abs(lam) <= 1e3 * _corner_omega(elements))
    lam = lam[keep]
    return lam[np.lexsort((lam.imag, lam.real))]


def impedance_matrix(elements, nodes, freqs_hz):
    """Open-circuit Z between the probe nodes, shape (n_freq, k, k)."""
    G, C, idx = _assemble(elements)
    cols = [idx[n] for n in nodes]
    B = np.zeros((G.shape[0], len(cols)))
    B[cols, range(len(cols))] = 1.0
    w = 2.0 * np.pi * np.asarray(freqs_hz)
    A = G[None, :, :] + 1j * w[:, None, None] * C[None, :, :]
    X = np.linalg.solve(A, np.broadcast_to(B, (w.size,) + B.shape))
    return X[:, cols, :]


def s_from_z(Z, z0):
    """S = (Z - z0 I)(Z + z0 I)^-1 per frequency."""
    eye = np.eye(Z.shape[1])
    return np.linalg.solve((Z + z0 * eye).transpose(0, 2, 1),
                           (Z - z0 * eye).transpose(0, 2, 1)).transpose(0, 2, 1)


def termination_elements(port_node, z0, gamma, f_ref, prefix):
    """Extra elements and shorted nodes realizing gamma at ``port_node``.

    Mirrors the documented contract of ``pzid.with_termination``: +1 is an
    open, -1 a short, a real impedance a resistor, and a complex one a
    series R-L or R-C network exact at ``f_ref``.
    """
    gamma = complex(gamma)
    if gamma == 1.0:
        return (), ()
    if gamma == -1.0:
        return (), (port_node,)
    z = z0 * (1.0 + gamma) / (1.0 - gamma)
    r, x = max(z.real, 0.0), z.imag
    if abs(x) <= 1e-15 * abs(z):
        if r == 0.0:
            return (), (port_node,)
        return (El("R", f"{prefix}_r", (port_node, GROUND), r),), ()
    w_ref = 2.0 * math.pi * f_ref
    top = port_node
    extra = []
    if r > 0.0:
        extra.append(El("R", f"{prefix}_r", (port_node, f"{prefix}_m"), r))
        top = f"{prefix}_m"
    if x > 0.0:
        extra.append(El("L", f"{prefix}_l", (top, GROUND), x / w_ref))
    else:
        extra.append(El("C", f"{prefix}_c", (top, GROUND), -1.0 / (x * w_ref)))
    return tuple(extra), ()


def max_real_part(elements, shorted=()):
    p = poles(elements, shorted)
    return float(np.max(p.real)) if p.size else -math.inf


def set_value(elements, name, value):
    return tuple(e._replace(value=float(value)) if e.name == name else e
                 for e in elements)


def crossing(elements, name, lo, hi, steps=60):
    """Element value in [lo, hi] where max Re(pole) changes sign, by bisection."""
    s_lo = max_real_part(set_value(elements, name, lo)) > 0
    if s_lo == (max_real_part(set_value(elements, name, hi)) > 0):
        return None
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if (max_real_part(set_value(elements, name, mid)) > 0) == s_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)

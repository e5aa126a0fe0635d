"""Linear-circuit frequency-response engine via modified nodal analysis.

Node voltages are the primary unknowns, plus one branch current per inductor
and per voltage constraint, so a netlist stamps into a linear pencil
(G + sC) x = b.  Poles are then exact generalized eigenvalues of (G, C),
which makes the engine an analytic oracle for every fitted result.

Negative resistors stand in for active-device reflection gain: they make
unstable fixtures possible without nonlinear device models.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .errors import NumericError, ParseError, UsageError
from .freqresp import (FrequencyResponseSet, PortLabel, ProbeSpec, current_probe,
                       merge_sets, modal_probe, parse_probe, voltage_probe)

__all__ = [
    "Element",
    "Netlist",
    "ProbeSpec",
    "TerminationPort",
    "PencilEigenvalues",
    "NetlistParseError",
    "SingularSystemError",
    "resistor",
    "inductor",
    "capacitor",
    "vccs",
    "current_probe",
    "voltage_probe",
    "modal_probe",
    "parse_probe",
    "parse_value",
    "parse_netlist",
    "frequency_response",
    "frequency_responses",
    "pencil_eigenvalues",
    "analytic_poles",
    "with_termination",
    "ground_node",
    "set_element_value",
]

GROUND = "0"

# Byte budget for one block of stacked complex MNA matrices in
# frequency_response: it bounds memory on large netlists, where bigger
# blocks also solved slower, and still holds a whole 400-point grid in one
# block for netlists of up to 12 unknowns.
_BLOCK_BYTES = 1 << 20

_CONDUCTING = ("R", "L", "C", "SHORT")
_CUTOFF_FACTOR = 1e3  # see pencil_eigenvalues


class NetlistParseError(ParseError):
    """Malformed netlist; carries a 1-based line number when known."""


class SingularSystemError(NumericError):
    pass


@dataclass(frozen=True)
class Element:
    """One stamped circuit element.

    kind 'R' (ohm, sign carries negative-resistor semantics), 'L' (henry),
    'C' (farad), 'G' (VCCS transconductance in siemens, 4 terminals) or
    'SHORT' (ideal 0 V constraint used for grounding and -1 reflection).
    """

    kind: str
    name: str
    nodes: tuple[str, ...]
    value: float = 0.0

    def __post_init__(self):
        if self.kind not in ("R", "L", "C", "G", "SHORT"):
            raise ValueError(f"unknown element kind {self.kind!r}")
        n_terms = 4 if self.kind == "G" else 2
        if len(self.nodes) != n_terms:
            raise ValueError(f"{self.kind} element {self.name!r} needs {n_terms} terminals")
        if not math.isfinite(self.value):
            raise ValueError(f"element {self.name!r} value is not finite")
        if self.kind in ("R", "L", "C") and self.value == 0.0:
            raise ValueError(f"element {self.name!r} value must be nonzero")
        if self.kind in ("L", "C") and self.value < 0.0:
            raise ValueError(f"element {self.name!r} value must be positive")


def resistor(name, n1, n2, ohms):
    return Element("R", name, (n1, n2), float(ohms))


def inductor(name, n1, n2, henry):
    return Element("L", name, (n1, n2), float(henry))


def capacitor(name, n1, n2, farad):
    return Element("C", name, (n1, n2), float(farad))


def vccs(name, out_p, out_n, in_p, in_n, siemens):
    """Current ``gm * (v_inp - v_inn)`` flowing from out_p to out_n."""
    return Element("G", name, (out_p, out_n, in_p, in_n), float(siemens))


@dataclass(frozen=True)
class TerminationPort:
    """Declared reference plane: a node plus its reference impedance.

    ``gamma`` is None until the port is terminated; the corresponding
    termination impedance z0*(1+gamma)/(1-gamma) is passive for |gamma| <= 1.
    """

    name: str
    node: str
    z0: float
    gamma: complex | None = None

    def __post_init__(self):
        if not (math.isfinite(self.z0) and self.z0 > 0.0):
            raise ValueError(f"port {self.name!r}: z0 must be positive and finite")
        if self.gamma is not None and abs(self.gamma) > 1.0 + 1e-12:
            raise ValueError(f"port {self.name!r}: |gamma| must be <= 1")


@dataclass(frozen=True)
class Netlist:
    """Immutable linear circuit; ground is the literal node name '0'."""

    elements: tuple[Element, ...]
    ports: tuple[TerminationPort, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        object.__setattr__(self, "ports", tuple(self.ports))
        names = [e.name for e in self.elements]
        if len(set(names)) != len(names):
            raise ValueError("duplicate element names")
        pnames = [p.name for p in self.ports]
        if len(set(pnames)) != len(pnames):
            raise ValueError("duplicate port names")
        for p in self.ports:
            if p.node != GROUND and p.node not in self.nodes:
                raise ValueError(f"port {p.name!r} references undeclared node {p.node!r}")
        self._check_connected()

    @property
    def nodes(self):
        """All non-ground node names, sorted."""
        seen = set()
        for e in self.elements:
            seen.update(e.nodes)
        seen.discard(GROUND)
        return tuple(sorted(seen))

    def element(self, name):
        for e in self.elements:
            if e.name == name:
                return e
        raise KeyError(f"no element named {name!r}")

    def port(self, name):
        for p in self.ports:
            if p.name == name:
                return p
        raise KeyError(f"no port named {name!r}")

    def _check_connected(self):
        # Every node must reach ground through conducting (R/L/C/SHORT) edges,
        # otherwise the MNA matrix is structurally singular.
        adj = {GROUND: set()}
        for e in self.elements:
            for n in e.nodes:
                adj.setdefault(n, set())
            if e.kind in _CONDUCTING:
                a, b = e.nodes
                adj[a].add(b)
                adj[b].add(a)
        reached = {GROUND}
        stack = [GROUND]
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt not in reached:
                    reached.add(nxt)
                    stack.append(nxt)
        floating = sorted(set(adj) - reached)
        if floating:
            raise ValueError(f"floating nodes (no conducting path to ground): {floating}")


# ---------------------------------------------------------------------------
# value / file parsing

_SUFFIX = {"p": 1e-12, "n": 1e-9, "u": 1e-6, "m": 1e-3, "k": 1e3, "M": 1e6, "G": 1e9}


def parse_value(text):
    """Parse a number with an optional engineering suffix (p n u m k M G)."""
    try:
        return float(text)
    except ValueError:
        pass
    if text and text[-1] in _SUFFIX:
        try:
            return float(text[:-1]) * _SUFFIX[text[-1]]
        except ValueError:
            pass
    raise ValueError(f"unparseable value {text!r}")


_FIELDS = {"R": 5, "L": 5, "C": 5, "G": 7, "PORT": 4}  # tokens per card, the card included


def parse_netlist(text):
    """Parse the line-based netlist format.

    ``R/L/C <name> <n1> <n2> <value>``, ``G <name> <o+> <o-> <i+> <i-> <gm>``,
    ``PORT <name> <node> <z0>``; ``#`` starts a comment; ground node is ``0``.
    """
    elements = []
    ports = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        card = toks[0].upper()
        try:
            if card not in _FIELDS:
                raise ValueError(f"unknown card {toks[0]!r}")
            if len(toks) != _FIELDS[card]:
                raise ValueError(f"{card} line needs {_FIELDS[card]} fields")
            if card == "PORT":
                ports.append(TerminationPort(toks[1], toks[2], parse_value(toks[3])))
            else:
                elements.append(Element(card, toks[1], tuple(toks[2:-1]), parse_value(toks[-1])))
        except ValueError as exc:
            raise NetlistParseError(str(exc), lineno) from None
    if not elements:
        raise NetlistParseError("netlist has no elements")
    return Netlist(tuple(elements), tuple(ports))


# ---------------------------------------------------------------------------
# pencil assembly

def _pencil(net, probe=None):
    """Real MNA matrices G, C with the probe's drive b and readout c.

    A voltage probe splices its element onto a fresh ``__probe`` node (a
    name the netlist does not use) and appends an ordinary SHORT from there
    to the element's first node; b and c pick that short's branch current,
    the last unknown.  A current probe is a one-node modal drive at 0
    degrees: b holds a unit current of each drive node's phase and c reads
    the first drive node.
    """
    nodes = list(net.nodes)
    elements = list(net.elements)
    if probe is not None and probe.kind == "vbranch":
        branch = net.element(probe.branch)
        if branch.kind not in ("R", "L", "C"):
            raise UsageError(f"voltage probe target {probe.branch!r} must be R, L or C")
        a, b = branch.nodes
        splice = "__probe"
        i = 0
        while splice in nodes:
            i += 1
            splice = f"__probe_{i}"
        elements[elements.index(branch)] = replace(branch, nodes=(splice, b))
        elements.append(Element("SHORT", splice, (splice, a)))
        nodes.append(splice)

    node_idx = {n: i for i, n in enumerate(nodes)}
    nn = len(nodes)
    branches = [i for i, e in enumerate(elements) if e.kind in ("L", "SHORT")]
    branch_idx = {i: nn + k for k, i in enumerate(branches)}
    dim = nn + len(branches)
    G = np.zeros((dim, dim))
    C = np.zeros((dim, dim))

    def node(n):
        return None if n == GROUND else node_idx[n]

    for i, e in enumerate(elements):
        if e.kind == "R":
            g = 1.0 / e.value
            _stamp_admittance(G, node(e.nodes[0]), node(e.nodes[1]), g)
        elif e.kind == "C":
            _stamp_admittance(C, node(e.nodes[0]), node(e.nodes[1]), e.value)
        elif e.kind in ("L", "SHORT"):
            # branch row: v(a) - v(b) = L di/dt, or 0 for a short; an
            # inductor's current flows a -> b, a short's is delivered out of a
            bi = branch_idx[i]
            a, b = node(e.nodes[0]), node(e.nodes[1])
            kcl = 1.0 if e.kind == "L" else -1.0
            if a is not None:
                G[a, bi] += kcl
                G[bi, a] += 1.0
            if b is not None:
                G[b, bi] -= kcl
                G[bi, b] -= 1.0
            if e.kind == "L":
                C[bi, bi] -= e.value
        elif e.kind == "G":
            op, on, ip, in_ = (node(n) for n in e.nodes)
            for orow, sign in ((op, 1.0), (on, -1.0)):
                if orow is None:
                    continue
                if ip is not None:
                    G[orow, ip] += sign * e.value
                if in_ is not None:
                    G[orow, in_] -= sign * e.value

    b_vec = np.zeros(dim, dtype=complex)
    c_vec = np.zeros(dim)
    if probe is not None and probe.kind == "vbranch":
        b_vec[-1] = 1.0
        c_vec[-1] = 1.0
    elif probe is not None:
        drives = list(zip(probe.nodes, probe.phases_deg)) or [(probe.node, 0.0)]
        for n, ph in drives:
            if n not in node_idx:
                raise UsageError(f"probe references unknown node {n!r}")
            b_vec[node_idx[n]] += cmath.exp(1j * math.radians(ph))
        c_vec[node_idx[drives[0][0]]] = 1.0
    return G, C, b_vec, c_vec


def _stamp_admittance(M, a, b, y):
    if a is not None:
        M[a, a] += y
    if b is not None:
        M[b, b] += y
    if a is not None and b is not None:
        M[a, b] -= y
        M[b, a] -= y


# ---------------------------------------------------------------------------
# operations

def frequency_response(net, probe, grid, port_name=None):
    """Closed-loop response seen by a probe, solved block by block.

    Each block of grid points stacks its matrices G + j*omega*C into one
    tensor and solves them with a single batched ``np.linalg.solve``; every
    matrix still goes through the same LAPACK factorization as a lone
    solve, so results do not depend on the blocking.  Block length is set
    so the stacked tensor stays within ``_BLOCK_BYTES``, which bounds memory
    on large netlists while small ones solve their whole grid in one call.

    Current probe at a node (a unit drive there) returns the impedance seen
    by the probe; voltage probe in a branch (a SHORT spliced in series, see
    :func:`_pencil`) returns the admittance presented to it; modal probe
    (phased unit drives) returns the voltage at its first listed node.
    """
    G, C, b, c = _pencil(net, probe)
    omega = grid.omega
    dim = G.shape[0]
    step = max(1, _BLOCK_BYTES // (16 * dim * dim))
    # A right-hand side with as many dimensions as the stack is read as a
    # matrix by both NumPy 1.x and 2.x; a 1-D one is rejected by NumPy 1.x.
    rhs = b[None, :, None]
    out = np.empty(len(grid), dtype=complex)
    for lo in range(0, len(grid), step):
        A = G + (1j * omega[lo:lo + step])[:, None, None] * C
        try:
            x = np.linalg.solve(A, rhs)[..., 0]
        except np.linalg.LinAlgError:
            _raise_first_singular(A, b, grid.freqs_hz[lo:lo + step])
            raise
        out[lo:lo + step] = x @ c
    # the default name is the descriptor with ';' between modal terms, so
    # that it can head a CSV column
    name = port_name or probe.descriptor().replace(",", ";")
    label = PortLabel(name, probe.descriptor(), probe.response_kind)
    return FrequencyResponseSet(grid, (label,), (out,))


def _raise_first_singular(A, b, freqs_hz):
    """Name the first grid point whose MNA matrix LAPACK finds singular."""
    for a, f in zip(A, freqs_hz):
        try:
            np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            raise SingularSystemError(f"singular MNA system at {f} Hz") from None


def frequency_responses(net, probes, grid, port_names=None):
    """MIMO convenience: one response set with a port per probe."""
    names = port_names or [None] * len(probes)
    return merge_sets([frequency_response(net, p, grid, n)
                       for p, n in zip(probes, names, strict=True)])


@dataclass(frozen=True)
class PencilEigenvalues:
    """Finite natural frequencies plus how many spurious modes were dropped."""

    poles: np.ndarray
    n_discarded: int
    cutoff: float


def _corner_frequencies(net):
    rs = [abs(e.value) for e in net.elements if e.kind == "R"]
    rs += [1.0 / abs(e.value) for e in net.elements if e.kind == "G" and e.value != 0.0]
    ls = [e.value for e in net.elements if e.kind == "L"]
    cs = [e.value for e in net.elements if e.kind == "C"]
    corners = []
    corners += [1.0 / (r * c) for r in rs for c in cs]
    corners += [r / l for r in rs for l in ls]
    corners += [1.0 / math.sqrt(l * c) for l in ls for c in cs]
    return corners


def pencil_eigenvalues(net):
    """All finite generalized eigenvalues of det(G + s C) = 0.

    Descriptor pencils carry infinite eigenvalues (algebraic constraints);
    these, and rounding artifacts beyond ``_CUTOFF_FACTOR`` times the largest
    element corner frequency, are discarded and counted.
    """
    G, C, _, _ = _pencil(net)
    if not np.any(C):
        return PencilEigenvalues(np.zeros(0, dtype=complex), G.shape[0], math.inf)
    try:
        lam = scipy.linalg.eigvals(-G, C)
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise NumericError(f"generalized eigenvalue solve failed: {exc}") from None
    if np.any(np.isnan(lam)):
        raise NumericError("singular pencil: det(G + sC) vanishes identically")
    corners = _corner_frequencies(net)
    cutoff = _CUTOFF_FACTOR * max(corners) if corners else math.inf
    finite = np.isfinite(lam) & (np.abs(lam) <= cutoff)
    poles = lam[finite]
    order = np.lexsort((poles.imag, poles.real))
    return PencilEigenvalues(poles[order], int(np.count_nonzero(~finite)), cutoff)


def analytic_poles(net):
    """Finite poles of the netlist in rad/s (see :func:`pencil_eigenvalues`)."""
    return pencil_eigenvalues(net).poles


def ground_node(net, node):
    """Short a node to ground with an ideal constraint."""
    if node not in net.nodes:
        raise UsageError(f"unknown node {node!r}")
    name = f"__gnd_{node}"
    i = 0
    while any(e.name == name for e in net.elements):
        i += 1
        name = f"__gnd_{node}_{i}"
    return Netlist(net.elements + (Element("SHORT", name, (node, GROUND)),), net.ports)


def with_termination(net, port_name, gamma, f_ref=None):
    """Attach the passive termination z0*(1+gamma)/(1-gamma) at a port.

    gamma exactly +1 is an open (no element); exactly -1 is an ideal short.
    A complex gamma maps to a series R-L or R-C network presenting the exact
    reflection coefficient at ``f_ref`` (required in that case); this keeps
    the pencil real and responses conjugate-symmetric, which constant
    complex impedances cannot.
    """
    port = net.port(port_name)
    gamma = complex(gamma)
    if abs(gamma) > 1.0 + 1e-12:
        raise UsageError(f"|gamma| = {abs(gamma)} exceeds 1")
    ports = tuple(replace(p, gamma=gamma) if p.name == port_name else p for p in net.ports)
    if gamma == 1.0:
        return Netlist(net.elements, ports)
    z = port.z0 * (1.0 + gamma) / (1.0 - gamma)
    r, x = z.real, z.imag
    if r < 0.0:
        r = 0.0  # rounding; Re(Z) >= 0 holds for |gamma| <= 1
    prefix = f"__term_{port_name}"
    if abs(x) <= 1e-15 * abs(z):
        if r == 0.0:
            return Netlist(ground_node(net, port.node).elements, ports)
        extra = (resistor(f"{prefix}_r", port.node, GROUND, r),)
    else:
        if f_ref is None:
            raise UsageError(
                f"complex gamma {gamma} needs f_ref to realize the reactive part")
        w_ref = 2.0 * math.pi * f_ref
        mid = f"{prefix}_m"
        top = port.node
        extra = []
        if r > 0.0:
            extra.append(resistor(f"{prefix}_r", port.node, mid, r))
            top = mid
        if x > 0.0:
            extra.append(inductor(f"{prefix}_l", top, GROUND, x / w_ref))
        else:
            extra.append(capacitor(f"{prefix}_c", top, GROUND, -1.0 / (x * w_ref)))
        extra = tuple(extra)
    return Netlist(net.elements + extra, ports)


def set_element_value(net, name, value):
    """Copy of the netlist with one element's value replaced."""
    net.element(name)  # KeyError on an unknown name
    elements = tuple(replace(e, value=float(value)) if e.name == name else e
                     for e in net.elements)
    return Netlist(elements, net.ports)

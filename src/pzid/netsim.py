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
    "termination_loader",
    "element_loader",
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

def _fresh_name(base, taken):
    """``base``, else the first of ``base_1``, ``base_2``, ... not in ``taken``."""
    i = 0
    while (name := f"{base}_{i}" if i else base) in taken:
        i += 1
    return name


def _pencil(net, probe=None):
    """Real MNA matrices G, C with the probe's drive b and readout c.

    See :func:`_assemble`, which also gives each element's stamp vectors.
    """
    return _assemble(net, probe)[:4]


# How an element's value w enters the pencil: as y(w) * u v' in C when the
# flag is set (so times j*omega in G + j*omega*C), else in G.  An inductor's
# branch row reads v(a) - v(b) - j*omega*L*i = 0.
_VALUE_STAMP = {
    "R": (False, lambda w: 1.0 / w),
    "C": (True, lambda w: w),
    "L": (True, lambda w: -w),
    "G": (False, lambda w: w),
}


def _assemble(net, probe=None, values=None):
    """Real MNA matrices G, C with the probe's drive b and readout c, and
    the stamp vectors of every element that has a value.

    ``values`` is an optional (rows, elements) array of value sets, one
    column per element of ``net.elements`` in order (a SHORT's column is
    not read).  G and C are then (rows, dim, dim) stacks whose row r equals,
    bit for bit, the matrices of the netlist with row r's values; without
    it they are the matrices of the netlist's own values.

    A voltage probe splices its element onto a fresh ``__probe`` node (a
    name the netlist does not use) and appends an ordinary SHORT from there
    to the element's first node; b and c pick that short's branch current,
    the last unknown.  A current probe is a one-node modal drive at 0
    degrees: b holds a unit current of each drive node's phase and c reads
    the first drive node.

    Every element of value w is stamped as one rank-one term y(w) * u v'
    (``_VALUE_STAMP``): u = v = e_a - e_b for R and C, u = v = the branch
    row's unit vector for L, and u = e_out+ - e_out-, v = e_in+ - e_in- for
    a VCCS, ground rows left out.  The fifth item maps each such element's
    index in ``net.elements`` to its ``(u, v)``, on the nodes a voltage
    probe's splice gives it, each vector as its ``(row, sign)`` entries
    (:func:`_vector` makes it dense).
    """
    stacked = values is not None
    if not stacked:
        values = np.array([[e.value for e in net.elements]], dtype=float)
    nodes = list(net.nodes)
    elements = list(net.elements)
    if probe is not None and probe.kind == "vbranch":
        branch = net.element(probe.branch)
        if branch.kind not in ("R", "L", "C"):
            raise UsageError(f"voltage probe target {probe.branch!r} must be R, L or C")
        a, b = branch.nodes
        splice = _fresh_name("__probe", nodes)
        elements[elements.index(branch)] = replace(branch, nodes=(splice, b))
        elements.append(Element("SHORT", splice, (splice, a)))
        nodes.append(splice)

    node_idx = {n: i for i, n in enumerate(nodes)}
    nn = len(nodes)
    branches = [i for i, e in enumerate(elements) if e.kind in ("L", "SHORT")]
    branch_idx = {i: nn + k for k, i in enumerate(branches)}
    dim = nn + len(branches)
    G = np.zeros((len(values), dim, dim))
    C = np.zeros((len(values), dim, dim))

    def incidence(plus, minus):
        entries = []
        if plus != GROUND:
            entries.append((node_idx[plus], 1.0))
        if minus != GROUND:
            entries.append((node_idx[minus], -1.0))
        return entries

    stamps = {}
    for i, e in enumerate(elements):
        if e.kind in ("L", "SHORT"):
            # branch row: v(a) - v(b) = L di/dt, or 0 for a short; an
            # inductor's current flows a -> b, a short's is delivered out of a
            bi = branch_idx[i]
            kcl = 1.0 if e.kind == "L" else -1.0
            for row, sign in incidence(*e.nodes):
                G[:, row, bi] += sign * kcl
                G[:, bi, row] += sign
            if e.kind == "SHORT":
                continue
            u = v = [(bi, 1.0)]
        elif e.kind == "G":
            u, v = incidence(*e.nodes[:2]), incidence(*e.nodes[2:])
        else:
            u = v = incidence(*e.nodes)
        reactive, y = _VALUE_STAMP[e.kind]
        M, w = (C if reactive else G), y(values[:, i])
        for row, su in u:
            for col, sv in v:
                M[:, row, col] += su * sv * w
        stamps[i] = (u, v)

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
    if not stacked:
        G, C = G[0], C[0]
    return G, C, b_vec, c_vec, stamps


def _vector(entries, dim):
    """Dense vector of a stamp's ``(row, sign)`` entries."""
    w = np.zeros(dim)
    for row, sign in entries:
        w[row] += sign
    return w


# ---------------------------------------------------------------------------
# operations

def frequency_response(net, probe, grid, port_name=None):
    """Closed-loop response seen by a probe, solved block by block.

    This is the one-row case of :func:`_responses`, which stamps a stack of
    value sets and solves it with :func:`_solve_blocks`: each block of grid
    points stacks its matrices G + j*omega*C into one tensor and solves
    them with a single batched ``np.linalg.solve``.  Every matrix still goes
    through the same LAPACK factorization as a lone solve, and the readout
    picks one unknown, so results do not depend on the blocking or on the
    other rows of a stack.  A singular grid point raises
    :class:`SingularSystemError` naming the first one.

    Current probe at a node (a unit drive there) returns the impedance seen
    by the probe; voltage probe in a branch (a SHORT spliced in series, see
    :func:`_pencil`) returns the admittance presented to it; modal probe
    (phased unit drives) returns the voltage at its first listed node.
    """
    (resp,) = _responses(net, probe, grid, port_name=port_name)
    if isinstance(resp, NumericError):
        raise resp
    return resp


def _responses(net, probe, grid, values=None, port_name=None):
    """Per row of ``values``, the response set :func:`frequency_response`
    gives on the netlist with that row's element values, or the
    :class:`SingularSystemError` that failed the row.

    ``values`` is as in :func:`_assemble`; without it the netlist's own
    values make the one row.  A value that :class:`Element` refuses raises
    its ``ValueError`` before any solve, the first such value in row order.
    All rows are stamped as one stack and solved in blocks of (row,
    frequency) pairs (:func:`_solve_blocks`), so a row that is singular at
    some grid point fails alone and the other rows are unchanged.
    """
    if values is not None:
        _check_values(net, values)
    G, C, b, c, _ = _assemble(net, probe, values)
    if values is None:
        G, C = G[None], C[None]
    out = np.empty((len(G), len(grid)), dtype=complex)
    failed = {}
    for row, points, x in _solve_blocks(G, C, b[:, None], grid):
        if isinstance(x, NumericError):
            failed.setdefault(row, x)  # a row's first failing block names its first singular point
        elif row not in failed:
            out[row, points] = x[..., 0] @ c
    label = _response_label(probe, port_name)
    return [failed[row] if row in failed else FrequencyResponseSet(grid, (label,), (h,))
            for row, h in enumerate(out)]


def _check_values(net, values):
    """Raise the ``ValueError`` :class:`Element` raises for the first value,
    in row order, that it refuses as the value of its column's element."""
    suspect = ~np.isfinite(values) | (values <= 0.0)  # of which a negative R or G passes
    for row, col in zip(*np.nonzero(suspect)):
        replace(net.elements[col], value=float(values[row, col]))


def _solve_blocks(G, C, rhs, grid):
    """Solve a stack of pencils, (G[r] + j*omega*C[r]) x = rhs at every grid
    point of every row r, in blocks over the (row, frequency) pairs.

    ``G`` and ``C`` are (rows, dim, dim) and ``rhs`` is (dim, k).  Pairs run
    row by row, and a block holds as many as keep its stacked complex
    matrices within ``_BLOCK_BYTES``.  Yields ``(row, points, x)`` for each
    row's share of each block, in order: ``points`` is a slice of the grid
    and x is (points, dim, k).  Where a block's stacked solve finds a
    singular matrix, each of its rows is solved alone, and a row that is
    singular yields, in place of x, the :class:`SingularSystemError` naming
    its first singular point in the block.  A right-hand side with as many
    dimensions as the stack is read as a matrix by both NumPy 1.x and 2.x;
    a 1-D one is rejected by NumPy 1.x.
    """
    jw = (1j * grid.omega)[:, None, None]
    rows, dim = G.shape[:2]
    points = len(grid)
    step = max(1, _BLOCK_BYTES // (16 * dim * dim))
    for lo in range(0, rows * points, step):
        hi = min(lo + step, rows * points)
        shares = []  # (row, points of the row, pairs of the block)
        for row in range(lo // points, (hi - 1) // points + 1):
            first, last = max(lo, row * points), min(hi, (row + 1) * points)
            shares.append((row, slice(first - row * points, last - row * points),
                           slice(first - lo, last - lo)))
        A = np.empty((hi - lo, dim, dim), dtype=complex)
        for row, pts, pairs in shares:
            A[pairs] = G[row] + jw[pts] * C[row]
        try:
            x = np.linalg.solve(A, rhs[None])
        except np.linalg.LinAlgError:
            for row, pts, pairs in shares:
                yield row, pts, _solve_alone(A[pairs], rhs, grid.freqs_hz[pts])
            continue
        for row, pts, pairs in shares:
            yield row, pts, x[pairs]


def _solve_alone(A, rhs, freqs_hz):
    """x solving the stack ``A`` against rhs, or the
    :class:`SingularSystemError` naming its first singular point."""
    try:
        return np.linalg.solve(A, rhs[None])
    except np.linalg.LinAlgError:
        for a, f in zip(A, freqs_hz):
            try:
                np.linalg.solve(a, rhs)
            except np.linalg.LinAlgError:
                return SingularSystemError(_singular_at(f))
        raise


def _response_label(probe, port_name):
    # the default name is the descriptor with ';' between modal terms, so
    # that it can head a CSV column
    name = port_name or probe.descriptor().replace(",", ";")
    return PortLabel(name, probe.descriptor(), probe.response_kind)


def _singular_at(f):
    return f"singular MNA system at {f} Hz"


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
    _check_node(net, node)
    name = _fresh_name(f"__gnd_{node}", {e.name for e in net.elements})
    return Netlist(net.elements + (Element("SHORT", name, (node, GROUND)),), net.ports)


def _check_node(net, node):
    if node not in net.nodes:
        raise UsageError(f"unknown node {node!r}")


def _termination(port, gamma, f_ref):
    """The passive network that presents ``gamma`` at a port, as
    ``(kind, r, value)``.

    kind None is an open and 'SHORT' an ideal short; 'R' is a resistor of
    r ohm to ground; 'L' and 'C' are an inductor or capacitor of ``value``
    henry or farad to ground, behind a series resistor of r ohm when r > 0,
    sized to present ``gamma`` exactly at ``f_ref``.
    """
    if abs(gamma) > 1.0 + 1e-12:
        raise UsageError(f"|gamma| = {abs(gamma)} exceeds 1")
    if gamma == 1.0:
        return None, 0.0, 0.0
    z = port.z0 * (1.0 + gamma) / (1.0 - gamma)
    r, x = z.real, z.imag
    if r < 0.0:
        r = 0.0  # rounding; Re(Z) >= 0 holds for |gamma| <= 1
    if abs(x) <= 1e-15 * abs(z):
        return ("R", r, r) if r > 0.0 else ("SHORT", 0.0, 0.0)
    if f_ref is None:
        raise UsageError(f"complex gamma {gamma} needs f_ref to realize the reactive part")
    w_ref = 2.0 * math.pi * f_ref
    if x > 0.0:
        return "L", r, x / w_ref
    return "C", r, -1.0 / (x * w_ref)


def with_termination(net, port_name, gamma, f_ref=None):
    """Attach the passive termination z0*(1+gamma)/(1-gamma) at a port.

    gamma exactly +1 is an open (no element); exactly -1 is an ideal short.
    A complex gamma maps to a series R-L or R-C network presenting the exact
    reflection coefficient at ``f_ref`` (required in that case); this keeps
    the pencil real and responses conjugate-symmetric, which constant
    complex impedances cannot.  :func:`termination_loader` loads the same
    network onto a circuit solved once.
    """
    port = net.port(port_name)
    gamma = complex(gamma)
    kind, r, value = _termination(port, gamma, f_ref)
    ports = tuple(replace(p, gamma=gamma) if p.name == port_name else p for p in net.ports)
    if kind is None:
        return Netlist(net.elements, ports)
    if kind == "SHORT":
        return Netlist(ground_node(net, port.node).elements, ports)
    prefix = f"__term_{port_name}"
    if kind == "R":
        return Netlist(net.elements + (resistor(f"{prefix}_r", port.node, GROUND, r),), ports)
    extra = []
    top = port.node
    if r > 0.0:
        extra.append(resistor(f"{prefix}_r", port.node, f"{prefix}_m", r))
        top = f"{prefix}_m"
    extra.append(Element(kind, f"{prefix}_{kind.lower()}", (top, GROUND), value))
    return Netlist(net.elements + tuple(extra), ports)


def _rank_one(G, C, b, c, u, v, grid, label):
    """The reference pencil solved once for a later rank-one change.

    (G + j*omega*C) x = rhs is solved once per grid point for the probe
    drive b and for u, which gives h0 = c'x_b, t_out = c'x_u, t_in = v'x_b
    and z = v'x_u.  Once the matrix gains the term delta * u v', Sherman and
    Morrison give the probe's response as

        h = h0 - delta * t_out * t_in / (1 + delta * z).

    Returns z and ``respond(gain)``, the response set of
    h = h0 - gain * t_out * t_in for gain = delta / (1 + delta * z).  Both
    loaders fail alike: a reference that cannot be solved raises
    :class:`SingularSystemError` here, when the loader is built, and a
    loaded sample that comes out non-finite raises it naming its frequency.
    """
    readout = np.stack([c, v])
    t = np.empty((len(grid), 2, 2), dtype=complex)
    for _, points, x in _solve_blocks(G[None], C[None], np.stack([b, u], axis=1), grid):
        if isinstance(x, NumericError):
            raise x
        t[points] = readout @ x
    h0, t_out, t_in, z = t[:, 0, 0], t[:, 0, 1], t[:, 1, 0], t[:, 1, 1]
    t_out_in = t_out * t_in

    def respond(gain):
        h = h0 - gain * t_out_in
        bad = ~np.isfinite(h)
        if bad.any():
            raise SingularSystemError(_singular_at(grid.freqs_hz[np.argmax(bad)]))
        return FrequencyResponseSet(grid, (label,), (h,))

    return z, respond


def termination_loader(reference, port_name, probe, grid):
    """Responses of every termination at a port from one solve.

    ``reference`` is the circuit terminated in the port's own z0
    (``with_termination(net, port_name, 0.0)``).  A termination of
    admittance y_L to ground changes its MNA matrix by the rank-one term
    dy * u u', with u the port node's unit vector and dy = y_L - 1/z0, so
    :func:`_rank_one` solves the reference once and gives each response as

        h = h0 - dy * t_out * t_in / (1 + dy * z_p),

    z_p being the port impedance.  The returned ``load(gamma, f_ref=None)``
    evaluates it for the network :func:`with_termination` would attach,
    with y_L = p/q written so that the open (p = 0) and the short (q = 0)
    stay finite, and returns the response set :func:`frequency_response`
    would give on that terminated circuit.  Solve failures are those of
    :func:`_rank_one`.
    """
    port = reference.port(port_name)
    if port.gamma != 0.0:
        raise UsageError(f"port {port_name!r} must be terminated in its z0 (gamma 0)")
    G, C, b, c = _pencil(reference, probe)
    u = np.zeros(G.shape[0])
    if port.node != GROUND:
        u[reference.nodes.index(port.node)] = 1.0
    z_p, respond = _rank_one(G, C, b, c, u, u, grid, _response_label(probe, None))
    jw = 1j * grid.omega

    def load(gamma, f_ref=None):
        kind, r, value = _termination(port, complex(gamma), f_ref)
        if kind == "SHORT":
            _check_node(reference, port.node)
        if kind is None:
            p, q = 0.0, 1.0
        elif kind == "L":
            p, q = 1.0, r + jw * value
        elif kind == "C":
            p, q = jw * value, 1.0 + jw * (r * value)
        else:  # 'R', or 'SHORT' with r = 0
            p, q = 1.0, r
        # dy / (1 + dy z_p) with dy = p/q - 1/z0, multiplied through by q z0
        dz = p * port.z0 - q
        with np.errstate(all="ignore"):
            return respond(dz / (q * port.z0 + dz * z_p))

    return load


def element_loader(net, name, probe, grid):
    """Responses of every value of one element from one solve.

    The netlist is the reference, and the element's value w0 enters its
    pencil as y(w0) * u v' (see :func:`_assemble`).  A value w changes
    G + j*omega*C by the rank-one term delta * u v', with delta = 1/w - 1/w0
    for a resistor, j*omega*(w - w0) for a capacitor, -j*omega*(w - w0) for
    an inductor (on its branch row) and w - w0 for a VCCS, so
    :func:`_rank_one` solves the netlist once and gives each response as

        h = h0 - delta * t_out * t_in / (1 + delta * z).

    The update loses digits to cancellation when a load shrinks the
    response far below the reference's, so a sweep should set w0 inside its
    range.  The returned ``load(value)`` gives the response set
    :func:`frequency_response` would give on
    ``set_element_value(net, name, value)``, and refuses the values it
    refuses with the same ``ValueError``.  A SHORT has no value and is
    refused with :class:`UsageError`.  Solve failures are those of
    :func:`_rank_one`.
    """
    element = net.element(name)
    if element.kind == "SHORT":
        raise UsageError(f"element {name!r} is a SHORT and has no value to sweep")
    G, C, b, c, stamps = _assemble(net, probe)
    u, v = (_vector(entries, G.shape[0]) for entries in stamps[net.elements.index(element)])
    z, respond = _rank_one(G, C, b, c, u, v, grid, _response_label(probe, None))
    reactive, y = _VALUE_STAMP[element.kind]
    y0 = y(element.value)
    jw = 1j * grid.omega

    def load(value):
        w = replace(element, value=float(value)).value
        with np.errstate(all="ignore"):
            delta = jw * (y(w) - y0) if reactive else y(w) - y0
            return respond(delta / (1.0 + delta * z))

    return load


def set_element_value(net, name, value):
    """Copy of the netlist with one element's value replaced."""
    net.element(name)  # KeyError on an unknown name
    elements = tuple(replace(e, value=float(value)) if e.name == name else e
                     for e in net.elements)
    return Netlist(elements, net.ports)

"""Sampled frequency-response containers, file parsing and band slicing.

Responses are stored at positive frequencies only (Hz).  Conjugate symmetry
H(-jw) = conj(H(jw)) is assumed by every fitter downstream, never stored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FrequencyGrid",
    "PortLabel",
    "FrequencyResponseSet",
    "ResponseParseError",
    "RESPONSE_KINDS",
    "parse_csv",
    "emit_csv",
    "parse_touchstone",
    "slice_band",
    "merge_sets",
    "ProbeSpec",
    "current_probe",
    "voltage_probe",
    "modal_probe",
    "parse_probe",
]

RESPONSE_KINDS = ("impedance", "admittance", "transfer")

MIN_POINTS = 4


class ResponseParseError(ValueError):
    """Malformed response file; carries a 1-based line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"{message} at line {line}"
        super().__init__(message)


def _readonly(arr):
    arr = np.asarray(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class FrequencyGrid:
    """Strictly increasing grid of nonnegative frequencies in Hz."""

    freqs_hz: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.freqs_hz, dtype=float)
        if f.ndim != 1 or f.size < MIN_POINTS:
            raise ValueError(f"grid needs at least {MIN_POINTS} points, got {f.size}")
        if not np.all(np.isfinite(f)):
            raise ValueError("grid contains non-finite frequencies")
        if np.any(f < 0.0):
            raise ValueError("grid contains negative frequencies")
        if np.any(np.diff(f) <= 0.0):
            raise ValueError("grid is not strictly increasing")
        object.__setattr__(self, "freqs_hz", _readonly(f))

    def __len__(self):
        return self.freqs_hz.size

    def __eq__(self, other):
        if not isinstance(other, FrequencyGrid):
            return NotImplemented
        return np.array_equal(self.freqs_hz, other.freqs_hz)

    @property
    def omega(self):
        """Angular frequencies 2*pi*f in rad/s."""
        return 2.0 * np.pi * self.freqs_hz

    @property
    def f_lo(self):
        return float(self.freqs_hz[0])

    @property
    def f_hi(self):
        return float(self.freqs_hz[-1])


def _check_name(what, name, forbidden):
    """Reject a probe or port name that a descriptor or the CSV cannot
    carry: one holding a separator, a line break or other unprintable
    character, or leading or trailing whitespace (CSV cells and directive
    entries are stripped)."""
    bad = [c for c in forbidden if c in name]
    if bad:
        raise ValueError(f"{what} {name!r} contains {bad[0]!r}")
    if name != name.strip() or not name.isprintable():
        raise ValueError(f"{what} {name!r} has surrounding whitespace or an "
                         f"unprintable character")


@dataclass(frozen=True)
class ProbeSpec:
    """Small-signal probe: current at a node, voltage in a branch, or modal.

    A modal probe injects unit currents with the listed phases at each
    listed node and reads the voltage at the first listed node.  The
    descriptor ``inode:<node>``, ``vbranch:<element>`` or
    ``modal:<n1>@<deg1>,<n2>@<deg2>,...`` is the one text form of a probe:
    :func:`parse_probe` reads every descriptor back to an equal spec.
    Names must survive that text form and the CSV ``# excitation:``
    directive, so they may not contain ``,`` or ``=`` (nor ``@`` in a
    modal node), surrounding whitespace or unprintable characters.
    """

    kind: str
    node: str | None = None
    branch: str | None = None
    nodes: tuple[str, ...] = ()
    phases_deg: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind == "inode":
            if not self.node:
                raise ValueError("current probe needs a node")
            _check_name("current probe node", self.node, ",=")
        elif self.kind == "vbranch":
            if not self.branch:
                raise ValueError("voltage probe needs a branch element name")
            _check_name("voltage probe branch", self.branch, ",=")
        elif self.kind == "modal":
            if not self.nodes:
                raise ValueError("modal probe needs at least one node")
            if len(self.nodes) != len(self.phases_deg):
                raise ValueError("modal node and phase lists differ in length")
            for n in self.nodes:
                if not n:
                    raise ValueError("modal node is empty")
                _check_name("modal node", n, ",=@")
            for p in self.phases_deg:
                if not 0.0 <= p < 360.0:
                    raise ValueError(f"modal phase {p} outside [0, 360)")
        else:
            raise ValueError(f"unknown probe kind {self.kind!r}")

    def descriptor(self):
        if self.kind == "inode":
            return f"inode:{self.node}"
        if self.kind == "vbranch":
            return f"vbranch:{self.branch}"
        # shortest round-trip repr, so the recorded phase is the exact one
        terms = ",".join(f"{n}@{repr(float(p)).removesuffix('.0')}"
                         for n, p in zip(self.nodes, self.phases_deg))
        return f"modal:{terms}"

    @property
    def response_kind(self):
        return {"inode": "impedance", "vbranch": "admittance", "modal": "transfer"}[self.kind]


def current_probe(node):
    return ProbeSpec("inode", node=node)


def voltage_probe(branch):
    return ProbeSpec("vbranch", branch=branch)


def modal_probe(nodes, phases_deg):
    """Modal probe; each phase in degrees is wrapped into [0, 360)."""
    # a tiny negative phase wraps to exactly 360.0, which is 0
    phases = tuple(float(p) % 360.0 % 360.0 for p in phases_deg)
    return ProbeSpec("modal", nodes=tuple(nodes), phases_deg=phases)


def parse_probe(text):
    """Parse ``inode:<n>``, ``vbranch:<e>`` or ``modal:<n1>@<d1>,...``."""
    if text.startswith("inode:"):
        return current_probe(text[len("inode:"):])
    if text.startswith("vbranch:"):
        return voltage_probe(text[len("vbranch:"):])
    if text.startswith("modal:"):
        nodes, phases = [], []
        for term in text[len("modal:"):].split(","):
            node, at, deg = term.partition("@")
            if not at:
                raise ValueError(f"modal term {term!r} missing @phase")
            try:
                phases.append(float(deg))
            except ValueError:
                raise ValueError(f"bad modal phase {deg!r}") from None
            nodes.append(node)
        return modal_probe(nodes, phases)
    raise ValueError(f"unrecognized probe descriptor {text!r}")


@dataclass(frozen=True)
class PortLabel:
    """Named observation port, optionally recording how it was excited.

    ``kind`` is the physical unit of the port's samples: impedance (ohm),
    admittance (siemens) or a dimensionless transfer.  The name heads CSV
    columns and keys directives, so it follows the probe-name rules: no
    ``,``, ``=``, surrounding whitespace or unprintable character."""

    name: str
    excitation: str | None = None
    kind: str = "transfer"

    def __post_init__(self):
        if not self.name:
            raise ValueError("port name must be nonempty")
        _check_name("port name", self.name, ",=")
        if self.kind not in RESPONSE_KINDS:
            raise ValueError(f"unknown response kind {self.kind!r}")
        if self.excitation is not None:
            object.__setattr__(self, "excitation", parse_probe(self.excitation).descriptor())


@dataclass(frozen=True)
class FrequencyResponseSet:
    """Complex samples for one or more ports sharing a frequency grid.

    ``values`` is one read-only complex array of shape (n_ports, len(grid)),
    a row per port in port order; any sequence of per-port rows builds it.
    """

    grid: FrequencyGrid
    ports: tuple[PortLabel, ...]
    values: np.ndarray

    def __post_init__(self):
        ports = tuple(self.ports)
        if not ports:
            raise ValueError("response set needs at least one port")
        names = [p.name for p in ports]
        if len(set(names)) != len(names):
            raise ValueError("duplicate port names")
        values = np.empty((len(ports), len(self.grid)), dtype=complex)
        for p, row, v in zip(ports, values, self.values, strict=True):
            v = np.asarray(v, dtype=complex)
            if v.shape != row.shape:
                raise ValueError(f"port {p.name}: {v.size} samples for {len(self.grid)}-point grid")
            if not np.all(np.isfinite(v)):
                raise ValueError(f"port {p.name}: non-finite samples")
            row[:] = v
        object.__setattr__(self, "ports", ports)
        object.__setattr__(self, "values", _readonly(values))

    def __eq__(self, other):
        if not isinstance(other, FrequencyResponseSet):
            return NotImplemented
        return (
            self.grid == other.grid
            and self.ports == other.ports
            and np.array_equal(self.values, other.values)
        )

    @property
    def n_ports(self):
        return len(self.ports)

    @property
    def port_names(self):
        return tuple(p.name for p in self.ports)


def _split_csv_line(line):
    return [tok.strip() for tok in line.split(",")]


def _parse_directive(body, lineno, label):
    """``name=value,...`` entries; an entry without ``=`` continues the
    previous value, so a modal excitation keeps its comma-separated terms."""
    out = {}
    name = None
    for item in body.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" in item:
            name, _, val = item.partition("=")
            name = name.strip()
            out[name] = val.strip()
        elif name is None:
            raise ResponseParseError(f"malformed {label} directive entry {item!r}", lineno)
        else:
            out[name] += "," + item
    return out


def parse_csv(text):
    """Parse the canonical CSV interchange format.

    Header row is ``freq_hz,<port>_re,<port>_im,...``.  ``#``-prefixed lines
    are comments; ``# kind: p=impedance,...`` and ``# excitation: p=...,...``
    directives override the per-port defaults (kind defaults to transfer).
    """
    kinds_map = {}
    excit_map = {}
    header = None
    port_names = []
    freqs = []
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("kind:"):
                kinds_map.update(_parse_directive(body[len("kind:"):], lineno, "kind"))
            elif body.startswith("excitation:"):
                excit_map.update(_parse_directive(body[len("excitation:"):], lineno, "excitation"))
            continue
        if header is None:
            header = _split_csv_line(line)
            if not header or header[0] != "freq_hz":
                raise ResponseParseError("header must start with freq_hz", lineno)
            cols = header[1:]
            if not cols or len(cols) % 2 != 0:
                raise ResponseParseError("header needs <port>_re,<port>_im column pairs", lineno)
            for re_col, im_col in zip(cols[0::2], cols[1::2]):
                if not re_col.endswith("_re") or not im_col.endswith("_im"):
                    raise ResponseParseError(
                        f"column pair {re_col!r},{im_col!r} must end in _re,_im", lineno)
                if re_col[:-3] != im_col[:-3]:
                    raise ResponseParseError(
                        f"column pair {re_col!r},{im_col!r} names disagree", lineno)
                try:
                    port_names.append(PortLabel(re_col[:-3]).name)
                except ValueError as exc:
                    raise ResponseParseError(str(exc), lineno) from None
            continue
        toks = _split_csv_line(line)
        if len(toks) != 1 + 2 * len(port_names):
            raise ResponseParseError(
                f"ragged row: expected {1 + 2 * len(port_names)} fields, got {len(toks)}", lineno)
        nums = []
        for tok in toks:
            try:
                nums.append(float(tok))
            except ValueError:
                raise ResponseParseError(f"unparseable number {tok!r}", lineno) from None
        if freqs and nums[0] <= freqs[-1]:
            raise ResponseParseError("non-monotone grid", lineno)
        freqs.append(nums[0])
        rows.append(nums[1:])
    if header is None:
        raise ResponseParseError("no header row found")
    if len(freqs) < MIN_POINTS:
        raise ResponseParseError(f"fewer than {MIN_POINTS} points")
    data = np.asarray(rows)
    values = (data[:, 0::2] + 1j * data[:, 1::2]).T
    for label, named in (("kind", kinds_map), ("excitation", excit_map)):
        unknown = sorted(set(named) - set(port_names))
        if unknown:
            raise ResponseParseError(f"{label} directive for unknown port {unknown[0]!r}")
    try:
        ports = tuple(PortLabel(n, excit_map.get(n), kinds_map.get(n, "transfer"))
                      for n in port_names)
    except ValueError as exc:
        raise ResponseParseError(str(exc)) from None
    return FrequencyResponseSet(FrequencyGrid(np.asarray(freqs)), ports, values)


def emit_csv(rset):
    """Serialize to the CSV schema; ``parse_csv`` round-trips bit-identically."""
    lines = []
    if any(p.kind != "transfer" for p in rset.ports):
        pairs = ",".join(f"{p.name}={p.kind}" for p in rset.ports)
        lines.append(f"# kind: {pairs}")
    if any(p.excitation for p in rset.ports):
        pairs = ",".join(f"{p.name}={p.excitation}" for p in rset.ports if p.excitation)
        lines.append(f"# excitation: {pairs}")
    lines.append("freq_hz," + ",".join(f"{p.name}_re,{p.name}_im" for p in rset.ports))
    for i, f in enumerate(rset.grid.freqs_hz):
        cells = [repr(float(f))]
        for v in rset.values:
            cells.append(repr(float(v[i].real)))
            cells.append(repr(float(v[i].imag)))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


_TS_UNITS = {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9}


def parse_touchstone(text):
    """Parse a Touchstone v1.x one- or two-port S-parameter file.

    Only the S parameter type is supported; formats RI, MA and DB.  Each
    S_ij becomes one transfer-kind port named ``s11``, ``s21``, ...
    """
    unit = None
    fmt = None
    option_line_no = None
    data_rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("!", 1)[0].strip()
        if not line:
            continue
        if line.startswith("#"):
            if option_line_no is not None:
                continue
            toks = line[1:].strip().split()
            toks = [t.lower() for t in toks]
            toks.extend(["ghz", "s", "ma", "r", "50"][len(toks):])
            if toks[0] not in _TS_UNITS:
                raise ResponseParseError(f"unknown frequency unit {toks[0]!r}", lineno)
            if toks[1] != "s":
                raise ResponseParseError(
                    f"unsupported parameter type {toks[1].upper()}", lineno)
            if toks[2] not in ("ri", "ma", "db"):
                raise ResponseParseError(f"unknown format {toks[2]!r}", lineno)
            unit, fmt = _TS_UNITS[toks[0]], toks[2]
            option_line_no = lineno
            continue
        if option_line_no is None:
            raise ResponseParseError("data before option line (missing option line?)", lineno)
        toks = line.split()
        try:
            nums = [float(t) for t in toks]
        except ValueError:
            raise ResponseParseError(f"unparseable number in {line!r}", lineno) from None
        data_rows.append((lineno, nums))
    if option_line_no is None:
        raise ResponseParseError("missing option line")
    if not data_rows:
        raise ResponseParseError("no data rows")
    width = len(data_rows[0][1])
    if width == 3:
        labels = ["s11"]
    elif width == 9:
        labels = ["s11", "s21", "s12", "s22"]
    else:
        raise ResponseParseError(
            f"unsupported row layout ({width} values; expected 3 for 1-port or 9 for 2-port)",
            data_rows[0][0])
    freqs = []
    cols = [[] for _ in labels]
    for lineno, nums in data_rows:
        if len(nums) != width:
            raise ResponseParseError(f"ragged row: expected {width} values, got {len(nums)}", lineno)
        f = nums[0] * unit
        if freqs and f <= freqs[-1]:
            raise ResponseParseError("non-monotone grid", lineno)
        freqs.append(f)
        for k in range(len(labels)):
            a, b = nums[1 + 2 * k], nums[2 + 2 * k]
            if fmt == "ri":
                val = complex(a, b)
            elif fmt == "ma":
                val = a * np.exp(1j * np.deg2rad(b))
            else:  # db
                val = 10.0 ** (a / 20.0) * np.exp(1j * np.deg2rad(b))
            cols[k].append(val)
    if len(freqs) < MIN_POINTS:
        raise ResponseParseError(f"fewer than {MIN_POINTS} points")
    ports = tuple(PortLabel(n) for n in labels)
    return FrequencyResponseSet(FrequencyGrid(np.asarray(freqs)), ports, cols)


def slice_band(rset, f_lo, f_hi):
    """Restrict a response set to grid points inside [f_lo, f_hi]."""
    if not f_lo < f_hi:
        raise ValueError(f"need f_lo < f_hi, got [{f_lo}, {f_hi}]")
    f = rset.grid.freqs_hz
    mask = (f >= f_lo) & (f <= f_hi)
    n = int(np.count_nonzero(mask))
    if n < MIN_POINTS:
        raise ValueError(
            f"sub-band [{f_lo}, {f_hi}] Hz has {n} grid points (< {MIN_POINTS})")
    return FrequencyResponseSet(
        FrequencyGrid(f[mask]), rset.ports, rset.values[:, mask])


def merge_sets(sets):
    """Combine single- or multi-port sets sharing one grid into one MIMO set."""
    sets = list(sets)
    if not sets:
        raise ValueError("nothing to merge")
    grid = sets[0].grid
    if any(s.grid != grid for s in sets):
        raise ValueError("sets do not share a frequency grid")
    return FrequencyResponseSet(
        grid, tuple(p for s in sets for p in s.ports),
        np.vstack([s.values for s in sets]))

"""Sampled frequency-response containers, file parsing and band slicing.

Responses are stored at positive frequencies only (Hz).  Conjugate symmetry
H(-jw) = conj(H(jw)) is assumed by every fitter downstream, never stored.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields

import numpy as np

from .errors import ParseError

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


class ResponseParseError(ParseError):
    """Malformed response file; carries a 1-based line number when known."""


def _readonly(arr):
    """``arr`` frozen against writes, in place: a record passes only arrays it owns."""
    arr = np.asarray(arr)
    arr.setflags(write=False)
    return arr


def _fields_equal(self, other):
    """``__eq__`` of a frozen record, field by field, a field added later too:
    array fields under ``np.array_equal``, the others under ``==``."""
    if type(other) is not type(self):
        return NotImplemented
    for f in fields(self):
        a, b = getattr(self, f.name), getattr(other, f.name)
        if not (np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b):
            return False
    return True


@dataclass(frozen=True)
class FrequencyGrid:
    """Strictly increasing grid of nonnegative frequencies in Hz."""

    freqs_hz: np.ndarray

    def __post_init__(self):
        f = np.array(self.freqs_hz, dtype=float)  # a copy: the caller's array stays writable
        if f.ndim != 1 or f.size < MIN_POINTS:
            raise ValueError(f"grid needs at least {MIN_POINTS} points, got {f.size}")
        if not np.all(np.isfinite(f)):
            raise ValueError("grid contains non-finite frequencies")
        if np.any(f < 0.0):
            raise ValueError("grid contains negative frequencies")
        if np.any(np.diff(f) <= 0.0):
            raise ValueError("grid is not strictly increasing")
        object.__setattr__(self, "freqs_hz", _readonly(f))

    __eq__ = _fields_equal

    def __len__(self):
        return self.freqs_hz.size

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

    __eq__ = _fields_equal

    @property
    def n_ports(self):
        return len(self.ports)

    @property
    def port_names(self):
        return tuple(p.name for p in self.ports)


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


def _nonblank_lines(text, comment=""):
    """(line number, stripped line) of each line that holds more than
    whitespace and does not start with a ``comment`` character."""
    return [(n, s) for n, raw in enumerate(text.splitlines(), start=1)
            if (s := raw.strip()) and s[0] not in comment]


def _float_table(lines, delimiter, comments):
    """The float64 table of text rows, converted in one C-level call, or None
    when a field is not a number or the rows differ in width.

    ``np.loadtxt`` reads a field bit for bit as ``float()`` does, but
    without ``_`` separators or non-ASCII digits.  It skips blank lines, so
    callers pass none: the table has one row per line."""
    try:
        return np.loadtxt(lines, delimiter=delimiter, comments=comments, ndmin=2)
    except ValueError:
        return None


def _raise_if_non_monotone(freqs, rows):
    """Raise at the first data row (line, text) whose frequency is not above
    the one before."""
    down = np.flatnonzero(freqs[1:] <= freqs[:-1])
    if down.size:
        raise ResponseParseError("non-monotone grid", rows[down[0] + 1][0])


def _raise_if_non_finite(row, tokens, lineno):
    """Raise at a converted row that holds a nan or inf, naming the first."""
    bad = np.flatnonzero(~np.isfinite(row))
    if bad.size:
        raise ResponseParseError(f"non-finite number {tokens[bad[0]]!r}", lineno)


def _raise_first_row_error(rows, read_row, width):
    """Rescan data rows (line, text) one at a time and raise the first error
    in file order: the one ``read_row(text, line, width)`` raises, or a
    frequency in Hz, which it returns, below zero or not above the row before.
    It runs only after the one-call conversion or a check on its table failed,
    to name the line; a table that fails to convert has a row that fails alone."""
    prev = np.nan
    for lineno, line in rows:
        f = read_row(line, lineno, width)
        if f < 0.0:  # named by its first field, comma- or space-separated
            raise ResponseParseError(
                f"negative frequency {line.split(',')[0].split()[0]!r}", lineno)
        if f <= prev:
            raise ResponseParseError("non-monotone grid", lineno)
        prev = f


def _complex_columns(table):
    """(ports, rows) samples from the (re, im) column pairs after a float
    table's first column; the view keeps signed zeros, which ``re + 1j * im``
    does not (it turns an imaginary -0.0 into +0.0)."""
    return table[:, 1:].view(complex).T


def _csv_port_names(line, lineno):
    """Port names from a ``freq_hz,<port>_re,<port>_im,...`` header row."""
    header = [tok.strip() for tok in line.split(",")]
    if header[0] != "freq_hz":
        raise ResponseParseError("header must start with freq_hz", lineno)
    cols = header[1:]
    if not cols or len(cols) % 2 != 0:
        raise ResponseParseError("header needs <port>_re,<port>_im column pairs", lineno)
    names = []
    for re_col, im_col in zip(cols[0::2], cols[1::2]):
        if not re_col.endswith("_re") or not im_col.endswith("_im"):
            raise ResponseParseError(
                f"column pair {re_col!r},{im_col!r} must end in _re,_im", lineno)
        if re_col[:-3] != im_col[:-3]:
            raise ResponseParseError(
                f"column pair {re_col!r},{im_col!r} names disagree", lineno)
        try:
            names.append(PortLabel(re_col[:-3]).name)
        except ValueError as exc:
            raise ResponseParseError(str(exc), lineno) from None
    return names


def _read_csv_row(line, lineno, width):
    """One CSV data row's frequency, or its error: a ragged row before an
    unparseable number before a nan or inf."""
    toks = line.split(",")
    if len(toks) != width:
        raise ResponseParseError(f"ragged row: expected {width} fields, got {len(toks)}", lineno)
    toks = [tok.strip() for tok in toks]
    row = _float_table([line], ",", None)
    if row is None:
        bad = next(tok for tok in toks if not tok or _float_table([tok], ",", None) is None)
        raise ResponseParseError(f"unparseable number {bad!r}", lineno)
    _raise_if_non_finite(row[0], toks, lineno)
    return row[0, 0]


def parse_csv(text):
    """Parse the canonical CSV interchange format.

    Header row is ``freq_hz,<port>_re,<port>_im,...``.  A line starting with
    ``#`` is a comment (a ``#`` after a value is not); ``# kind:
    p=impedance,...`` and ``# excitation: p=...,...`` directives override
    the per-port defaults (kind defaults to transfer).  Blank and
    whitespace-only lines are skipped.  Numbers are plain decimal floats,
    read bit for bit as ``float()`` reads them, without ``_`` separators;
    a nan or inf is refused at its line.
    """
    lines = _nonblank_lines(text)
    kinds_map = {}
    excit_map = {}
    bad_directive = None  # raised unless a row above it fails first
    try:
        for lineno, line in [r for r in lines if r[1][0] == "#"]:
            body = line[1:].strip()
            if body.startswith("kind:"):
                kinds_map.update(_parse_directive(body[len("kind:"):], lineno, "kind"))
            elif body.startswith("excitation:"):
                excit_map.update(_parse_directive(body[len("excitation:"):], lineno,
                                                  "excitation"))
    except ResponseParseError as exc:
        bad_directive = exc
    rows = [r for r in lines if r[1][0] != "#"]
    if not rows:
        raise bad_directive or ResponseParseError("no header row found")
    (head_line, head), rows = rows[0], rows[1:]
    if bad_directive and bad_directive.line < head_line:
        raise bad_directive
    port_names = _csv_port_names(head, head_line)
    width = 1 + 2 * len(port_names)
    data = _float_table([s for _, s in rows], ",", None) if rows else np.empty((0, width))
    if (bad_directive or data is None or data.shape[1] != width
            or not np.isfinite(data).all() or (data[:, 0] < 0.0).any()):
        above = [r for r in rows if not bad_directive or r[0] < bad_directive.line]
        _raise_first_row_error(above, _read_csv_row, width)
        raise bad_directive  # else the rescan has raised: a table that fails, fails on a row
    _raise_if_non_monotone(data[:, 0], rows)
    if len(rows) < MIN_POINTS:
        raise ResponseParseError(f"fewer than {MIN_POINTS} points")
    for label, named in (("kind", kinds_map), ("excitation", excit_map)):
        unknown = sorted(set(named) - set(port_names))
        if unknown:
            raise ResponseParseError(f"{label} directive for unknown port {unknown[0]!r}")
    try:
        ports = tuple(PortLabel(n, excit_map.get(n), kinds_map.get(n, "transfer"))
                      for n in port_names)
    except ValueError as exc:
        raise ResponseParseError(str(exc)) from None
    return FrequencyResponseSet(FrequencyGrid(data[:, 0]), ports, _complex_columns(data))


def _csv_row(values):
    """Python ints and floats as one CSV row of shortest reprs, which ``parse_csv``
    reads back bit for bit, signed zeros too (a NumPy scalar's repr is no number)."""
    return ",".join(map(repr, values))


def emit_csv(rset):
    """Serialize to the CSV schema; ``parse_csv`` round-trips it bit for bit."""
    lines = []
    if any(p.kind != "transfer" for p in rset.ports):
        pairs = ",".join(f"{p.name}={p.kind}" for p in rset.ports)
        lines.append(f"# kind: {pairs}")
    if any(p.excitation for p in rset.ports):
        pairs = ",".join(f"{p.name}={p.excitation}" for p in rset.ports if p.excitation)
        lines.append(f"# excitation: {pairs}")
    lines.append("freq_hz," + ",".join(f"{p.name}_re,{p.name}_im" for p in rset.ports))
    re_im = np.ascontiguousarray(rset.values.T).view(float)  # each port's (re, im)
    table = np.column_stack((rset.grid.freqs_hz, re_im))
    lines.extend(map(_csv_row, table.tolist()))
    return "\n".join(lines) + "\n"


_TS_UNITS = {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9}
_TS_PORTS = {3: ("s11",), 9: ("s11", "s21", "s12", "s22")}


def _ts_samples(table, unit, fmt):
    """Frequencies in Hz and (ports, rows) complex samples of a Touchstone
    float table, or None if it is missing, not 3 or 9 wide, or holds a nan
    or inf, read or from an overflow in the conversion (which warns nothing)."""
    if table is None or table.shape[1] not in _TS_PORTS or not np.isfinite(table).all():
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        freqs = table[:, 0] * unit
        values = _complex_columns(table)
        if fmt != "ri":  # the pairs hold magnitude (linear or dB) and angle in degrees
            mag = values.real if fmt == "ma" else np.float_power(10.0, values.real / 20.0)
            values = mag * np.exp(1j * np.deg2rad(values.imag))
    return (freqs, values) if np.isfinite(freqs).all() and np.isfinite(values).all() else None


def _read_touchstone_row(line, lineno, width, unit, fmt):
    """One Touchstone data row's frequency in Hz, or its error: an
    unparseable number, then a first row of neither 3 nor 9 values, then a
    ragged row, then a nan or inf, then an overflow in the conversion."""
    row = _float_table([line], None, "!")
    if row is None:
        raise ResponseParseError(
            f"unparseable number in {line.split('!', 1)[0].strip()!r}", lineno)
    if width not in _TS_PORTS:
        raise ResponseParseError(f"unsupported row layout ({width} values; "
                                 f"expected 3 for 1-port or 9 for 2-port)", lineno)
    if row.shape[1] != width:
        raise ResponseParseError(
            f"ragged row: expected {width} values, got {row.shape[1]}", lineno)
    _raise_if_non_finite(row[0], line.split("!", 1)[0].split(), lineno)
    if _ts_samples(row, unit, fmt) is None:
        raise ResponseParseError("overflow scaling to Hz or converting from dB", lineno)
    return row[0, 0] * unit


def parse_touchstone(text):
    """Parse a Touchstone v1.x one- or two-port S-parameter file.

    Only the S parameter type is supported; formats RI, MA and DB, with the
    option line's omitted fields taken from ``# GHz S MA R 50``.  Each S_ij
    becomes one transfer-kind port named ``s11``, ``s21``, ...  ``!`` starts
    a comment anywhere in a line, and blank and whitespace-only lines are
    skipped.  Values are separated by spaces or tabs and are plain decimal
    floats, read bit for bit as ``float()`` reads them, without ``_``
    separators; a nan or inf is refused at its line, and so is a value that
    overflows when scaled to Hz or converted from dB.
    """
    lines = _nonblank_lines(text, comment="!")
    if not lines:
        raise ResponseParseError("missing option line")
    lineno, line = lines[0]
    if line[0] != "#":
        raise ResponseParseError("data before option line (missing option line?)", lineno)
    toks = line.split("!", 1)[0][1:].lower().split()
    toks.extend(["ghz", "s", "ma", "r", "50"][len(toks):])
    if toks[0] not in _TS_UNITS:
        raise ResponseParseError(f"unknown frequency unit {toks[0]!r}", lineno)
    if toks[1] != "s":
        raise ResponseParseError(f"unsupported parameter type {toks[1].upper()}", lineno)
    if toks[2] not in ("ri", "ma", "db"):
        raise ResponseParseError(f"unknown format {toks[2]!r}", lineno)
    unit, fmt = _TS_UNITS[toks[0]], toks[2]
    rows = [r for r in lines[1:] if r[1][0] != "#"]  # a second option line is ignored
    if not rows:
        raise ResponseParseError("no data rows")
    samples = _ts_samples(_float_table([s for _, s in rows], None, "!"), unit, fmt)
    if samples is None or (samples[0] < 0.0).any():
        width = len(rows[0][1].split("!", 1)[0].split())
        _raise_first_row_error(
            rows, functools.partial(_read_touchstone_row, unit=unit, fmt=fmt), width)
    freqs, values = samples
    _raise_if_non_monotone(freqs, rows)
    if len(rows) < MIN_POINTS:
        raise ResponseParseError(f"fewer than {MIN_POINTS} points")
    ports = tuple(PortLabel(n) for n in _TS_PORTS[1 + 2 * len(values)])
    return FrequencyResponseSet(FrequencyGrid(freqs), ports, values)


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

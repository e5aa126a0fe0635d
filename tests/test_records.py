"""Validation, equality and freezing of the toolkit's records.

Every record compares all of its dataclass fields, so a field added later
cannot be skipped by ``==``: each record below lists a changed value for
every one of its fields, and the field list is checked against the class.
"""

import dataclasses
from functools import partial

import numpy as np
import pytest

from pzid.freqresp import (FrequencyGrid, FrequencyResponseSet, PortLabel, ProbeSpec,
                           merge_sets, slice_band)
from pzid.netsim import Element, Netlist, TerminationPort, resistor
from pzid.polemap import PoleMapStyle
from pzid.ratfit import FitConfig, FitReport, PartialFractionModel, PolynomialRatioModel
from pzid.staban import RhoMatrix


def _grid():
    return FrequencyGrid(np.array([1e9, 2e9, 3e9, 4e9]))


def _response_set():
    return FrequencyResponseSet(_grid(), (PortLabel("a"), PortLabel("b", kind="impedance")),
                                np.array([[1, 2j, 3, 4], [5, 6, 7j, 8]], dtype=complex))


def _poly():
    return PolynomialRatioModel(np.array([1.0, 2.0]), np.array([3.0, 4.0, 5.0]), 1e9)


def _pf():
    return PartialFractionModel(np.array([-2.0, -1 + 3j, -1 - 3j]),
                                np.array([[1.0, 1 + 1j, 1 - 1j], [2.0, 3j, -3j]]),
                                np.array([0.5, 0.25]), ("x", "y"))


def _rho():
    return RhoMatrix(np.array([[1.0, np.inf], [0.0, 2.0]]), (-2 + 0j, -1 + 3j), ("x", "y"))


# record builder, and a changed value for each field
RECORDS = {
    "FrequencyGrid": (_grid, {"freqs_hz": np.array([1e9, 2e9, 3e9, 5e9])}),
    "FrequencyResponseSet": (_response_set, {
        "grid": FrequencyGrid(np.array([1e9, 2e9, 3e9, 5e9])),
        "ports": (PortLabel("a"), PortLabel("b")),
        "values": np.array([[1, 2j, 3, 4], [5, 6, 7j, 9]], dtype=complex),
    }),
    "PolynomialRatioModel": (_poly, {
        "num_coeffs": np.array([1.0, 2.5]),
        "den_coeffs": np.array([3.0, 4.0, 6.0]),
        "s_scale": 2e9,
    }),
    "PartialFractionModel": (_pf, {
        "poles": np.array([-2.0, -1 + 4j, -1 - 4j]),
        "residues": np.array([[1.0, 1 + 1j, 1 - 1j], [2.0, 1 + 3j, 1 - 3j]]),
        "direct": np.array([0.5, -0.25]),
        "port_names": ("x", "z"),
    }),
    "RhoMatrix": (_rho, {
        "values": np.array([[1.0, np.inf], [0.5, 2.0]]),
        "pair_poles": (-2 + 0j, -1 + 4j),
        "port_names": ("y", "x"),
    }),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equality_covers_every_field(name):
    make, changed = RECORDS[name]
    rec = make()
    assert set(changed) == {f.name for f in dataclasses.fields(rec)}, \
        "list a changed value for every field of the record"
    assert rec == make() and not rec != make()
    assert rec == dataclasses.replace(rec)
    for field, value in changed.items():
        other = dataclasses.replace(rec, **{field: value})
        assert rec != other and not rec == other, field
        assert other == dataclasses.replace(rec, **{field: value}), field


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_other_types_are_not_compared(name):
    rec = RECORDS[name][0]()
    assert rec.__eq__(object()) is NotImplemented
    assert rec != "not a record"
    assert all(rec != other[0]() for key, other in RECORDS.items() if key != name)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_array_fields_are_frozen_copies(name):
    """A record's arrays are read-only, and the caller's arrays it was built
    from stay writable and detached from it."""
    rec = RECORDS[name][0]()
    inputs = {f.name: getattr(rec, f.name) for f in dataclasses.fields(rec)}
    inputs = {k: v.copy() if isinstance(v, np.ndarray) else v for k, v in inputs.items()}
    built = type(rec)(**inputs)
    kept = {k: getattr(built, k).copy() for k, v in inputs.items() if isinstance(v, np.ndarray)}
    for field, arr in kept.items():
        assert not getattr(built, field).flags.writeable, field
        assert inputs[field].flags.writeable, field
        inputs[field][...] = 7.0
        assert np.array_equal(getattr(built, field), arr), field



_SHUNT = (resistor("r", "a", "0", 50.0),)

# each rule a record or band operation enforces: a call that breaks it, and
# the message it raises
INVALID = [
    (partial(FitConfig, order=-1), "order must be >= 0"),
    (partial(FitConfig, order=2, iters=0), "iters must be in 1..100"),
    (partial(FitConfig, order=2, iters=101), "iters must be in 1..100"),
    (partial(FitReport, -1.0, 0.0, 0, True), "error metrics must be nonnegative"),
    (partial(FitReport, 0.0, -1.0, 0, True), "error metrics must be nonnegative"),
    (partial(FitReport, 0.0, 0.0, 1, False, "diverged"), "unknown fit stop 'diverged'"),
    (partial(PolynomialRatioModel, [], [1.0], 1.0), "coefficient vectors must be nonempty 1-D"),
    (partial(PolynomialRatioModel, [[1.0]], [1.0], 1.0),
     "coefficient vectors must be nonempty 1-D"),
    (partial(PolynomialRatioModel, [1.0], [0.0, 0.0], 1.0),
     "denominator coefficients are all zero"),
    (partial(PolynomialRatioModel, [1.0], [1.0], 0.0), "s_scale must be positive and finite"),
    (partial(PolynomialRatioModel, [1.0], [1.0], np.inf), "s_scale must be positive and finite"),
    (partial(PartialFractionModel, [-1.0], [[1.0, 2.0]], [0.0]),
     "residues shape (1, 2) != (n_ports=1, n_poles=1)"),
    (partial(PartialFractionModel, [-1.0], [[np.nan]], [0.0]), "model parameters must be finite"),
    (partial(PartialFractionModel, [-1.0], [[1.0]], [0.0], ("a", "b")),
     "port_names length does not match direct terms"),
    (partial(Element, "X", "e", ("a", "0"), 1.0), "unknown element kind 'X'"),
    (partial(Element, "G", "g", ("a", "0"), 1.0), "G element 'g' needs 4 terminals"),
    (partial(Element, "R", "r", ("a", "0"), np.inf), "element 'r' value is not finite"),
    (partial(Element, "C", "c", ("a", "0"), 0.0), "element 'c' value must be nonzero"),
    (partial(Element, "L", "l", ("a", "0"), -1e-9), "element 'l' value must be positive"),
    (partial(TerminationPort, "p", "a", 0.0), "port 'p': z0 must be positive and finite"),
    (partial(TerminationPort, "p", "a", np.nan), "port 'p': z0 must be positive and finite"),
    (partial(TerminationPort, "p", "a", 50.0, 1.5j), "port 'p': |gamma| must be <= 1"),
    (partial(Netlist, _SHUNT * 2), "duplicate element names"),
    (partial(Netlist, _SHUNT, (TerminationPort("p", "a", 50.0),) * 2), "duplicate port names"),
    (partial(Netlist, _SHUNT, (TerminationPort("p", "b", 50.0),)),
     "port 'p' references undeclared node 'b'"),
    (partial(ProbeSpec, "modal"), "modal probe needs at least one node"),
    (partial(ProbeSpec, "modal", nodes=("a", "b"), phases_deg=(0.0,)),
     "modal node and phase lists differ in length"),
    (partial(ProbeSpec, "bogus"), "unknown probe kind 'bogus'"),
    (partial(PortLabel, ""), "port name must be nonempty"),
    (partial(FrequencyResponseSet, _grid(), (), np.zeros((0, 4))),
     "response set needs at least one port"),
    (partial(FrequencyResponseSet, _grid(), (PortLabel("a"),) * 2, np.zeros((2, 4))),
     "duplicate port names"),
    (partial(RhoMatrix, np.ones((1, 2)), (-1 + 0j,), ("x",)), "rho matrix shape mismatch"),
    (partial(RhoMatrix, [[-1.0]], (-1 + 0j,), ("x",)), "rho entries must be nonnegative"),
    (partial(RhoMatrix, [[np.nan]], (-1 + 0j,), ("x",)), "rho entries must be nonnegative"),
    (partial(PoleMapStyle, axis="deg"), "unknown axis mode 'deg'"),
    (partial(slice_band, _response_set(), 3e9, 2e9),
     "need f_lo < f_hi, got [3000000000.0, 2000000000.0]"),
    (partial(slice_band, _response_set(), 1e9, 2e9),
     "sub-band [1000000000.0, 2000000000.0] Hz has 2 grid points (< 4)"),
    (partial(merge_sets, []), "nothing to merge"),
    (partial(merge_sets, [_response_set(), dataclasses.replace(
        _response_set(), grid=FrequencyGrid([1e9, 2e9, 3e9, 5e9]))]),
     "sets do not share a frequency grid"),
]


@pytest.mark.parametrize("build, message", INVALID,
                         ids=[build.func.__name__ for build, _ in INVALID])
def test_invalid_input_raises_its_message(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message

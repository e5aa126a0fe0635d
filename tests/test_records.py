"""Equality and freezing of the toolkit's array-holding records.

Every record compares all of its dataclass fields, so a field added later
cannot be skipped by ``==``: each record below lists a changed value for
every one of its fields, and the field list is checked against the class.
"""

import dataclasses

import numpy as np
import pytest

from pzid.freqresp import FrequencyGrid, FrequencyResponseSet, PortLabel
from pzid.ratfit import PartialFractionModel, PolynomialRatioModel
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

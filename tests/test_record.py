"""The record classes: each binds its fields as a hand-written constructor would."""

from fractions import Fraction

import pytest

from qortho.closedforms import VerificationEntry, VerificationReport
from qortho.momentfamilies import FamilyId, _Spec
from qortho.orthocore import RecurrenceTable, _Packed
from qortho.xpoly import _Ints

# each record class with one value per field, in field order
RECORDS = [
    (FamilyId, ("multifactorial", 2, 3)),
    (RecurrenceTable, ((Fraction(1),), (), (Fraction(1),))),
    (_Packed, ([[1]], 4, [Fraction(1)], [[1]], [], _Ints)),
    (VerificationEntry, ("f", 0, "c", "mismatch", "1", "2", "why")),
    (VerificationReport, ("f", 1, [VerificationEntry("f", 0, "c", "match")])),
    (_Spec, (None, None, {"m": 0}, ({},), True, None, None, None, None, None)),
]


@pytest.mark.parametrize("cls, values", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_constructor_binds_fields_by_position_or_name(cls, values):
    names = cls.__slots__
    record = cls(*values)
    assert tuple(getattr(record, name) for name in names) == values
    assert record == cls(**dict(zip(names, values)))
    with pytest.raises(TypeError):
        cls(*values, values[-1])
    with pytest.raises(TypeError):
        cls(*values[:-1], unknown=values[-1])
    if names[0] not in cls._defaults:
        with pytest.raises(TypeError):
            cls(**dict(zip(names[1:], values[1:])))
    # a mutable default is a fresh copy, left out or given as None
    required = [value for name, value in zip(names, values) if name not in cls._defaults]
    for name, default in cls._defaults.items():
        if type(default) in (list, dict):
            made = [cls(*required), cls(*required), cls(*required, **{name: None})]
            fields = [getattr(r, name) for r in made]
            assert all(field == default for field in fields)
            assert len({id(field) for field in [default, *fields]}) == 4

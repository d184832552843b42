"""Every Enum-valued field of the public dataclasses rejects a value that is not a member.

A name string such as "globa" where a ControllerKind belongs used to construct
and then fail later, or silently take another branch.  The scan reads the
annotations with typing.get_type_hints: each dataclass exported by polarpark
with a field annotated by an Enum must raise ValueError, naming the field,
when that field holds the value of a member instead of the member.
"""

import dataclasses
import typing
from enum import Enum

import numpy as np
import pytest

import polarpark
from polarpark import (
    Compositor,
    ControllerKind,
    ControllerSpec,
    Frame,
    Gains,
    LyapunovFn,
    SimConfig,
    SimStatus,
    Trajectory,
)


def enum_fields(cls):
    """{field name: Enum} for the fields of the dataclass cls annotated by an Enum."""
    hints = typing.get_type_hints(cls)
    return {field.name: hints[field.name] for field in dataclasses.fields(cls)
            if isinstance(hints[field.name], type) and issubclass(hints[field.name], Enum)}


SCANNED = [obj for obj in (getattr(polarpark, name) for name in polarpark.__all__)
           if isinstance(obj, type) and dataclasses.is_dataclass(obj) and enum_fields(obj)]

_GAINS = Gains(1.0, 1.0, 1.0, 1.0)
# one valid instance of each scanned class
VALID = {
    ControllerSpec: ControllerSpec(ControllerKind.GLOBA, _GAINS),
    LyapunovFn: LyapunovFn(ControllerKind.GLOBA, _GAINS),
    Compositor: Compositor.sum_form(),
    SimConfig: SimConfig(),
    Trajectory: Trajectory(*[np.zeros(1)] * 11, status=SimStatus.CAPTURED, frame=Frame.POLAR),
}


@dataclasses.dataclass
class _Example:
    kind: ControllerKind
    frame: typing.Optional[Frame]
    count: int


def test_the_scan_finds_enum_fields():
    assert enum_fields(_Example) == {"kind": ControllerKind}
    assert set(VALID) <= set(SCANNED)  # so the scan is not empty, and the table not stale


@pytest.mark.parametrize("cls", SCANNED, ids=lambda cls: cls.__name__)
def test_every_enum_field_rejects_a_member_value(cls):
    assert cls in VALID, f"VALID holds no {cls.__name__} to check"
    for name, kind in enum_fields(cls).items():
        for member in kind:
            with pytest.raises(ValueError, match=f"^{name} must be a member of {kind.__name__}, "
                                                 f"got '{member.value}'$"):
                dataclasses.replace(VALID[cls], **{name: member.value})

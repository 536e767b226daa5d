"""Inputs come from the seed alone: the same seed gives the same inputs,
another seed different ones."""

import pytest

from perfbench.point import Point
from perfbench.restart import Restart
from perfbench.serving import Ingest, Mixed


@pytest.mark.parametrize("cls", [Point, Mixed, Ingest, Restart])
def test_same_seed_same_inputs_other_seed_other_inputs(cls):
    small = {"keys": 2000} if cls is Point else \
        {"committed": 2000} if cls is Restart else {"preload": 2000}
    first = cls(7, **small).inputs()
    assert cls(7, **small).inputs() == first
    assert cls(8, **small).inputs() != first

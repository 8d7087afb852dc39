"""Stacked endo maps for tests: single maps as the rows of one table."""

import numpy as np

from preoperad import endo
from preoperad.endo import MultilinearMap
from preoperad.errors import DegreeMismatch, ShapeMismatch


def stack_rows(maps) -> MultilinearMap:
    """Single maps of one ring, dimension and degree as the rows of one
    stacked map, in order. One map given for every row stays single: it
    serves every row."""
    first, *rest = maps
    if all(m is first for m in rest):
        return first
    for m in maps:
        endo._check_pair(first, m)
        if m.degree != first.degree:
            raise DegreeMismatch(f"degree {m.degree} vs {first.degree}")
        if m.batch is not None:
            raise ShapeMismatch("only single maps can be stacked")
    endo.check_entries(first.dim, first.degree, len(maps))
    table = np.stack([m.table for m in maps])
    table.setflags(write=False)
    return MultilinearMap(first.ring, first.dim, first.degree, table)

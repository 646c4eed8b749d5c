"""Tests of the index registry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cube.builder import SegregationDataCubeBuilder
from repro.data.schools import generate_schools
from repro.errors import SegregationIndexError
from repro.indexes.base import (
    DEFAULT_INDEXES,
    IndexSpec,
    get_index,
    register,
    resolve_indexes,
)
from repro.indexes.counts import UnitCounts


class TestRegistry:
    def test_six_default_indexes(self):
        assert [spec.name for spec in DEFAULT_INDEXES] == [
            "D", "G", "H", "Iso", "Int", "A",
        ]

    def test_lookup_is_case_insensitive(self):
        assert get_index("d").name == "D"
        assert get_index("ISO").name == "Iso"

    def test_unknown_name_raises(self):
        with pytest.raises(SegregationIndexError, match="unknown index"):
            get_index("nope")

    def test_resolve_none_gives_defaults(self):
        assert resolve_indexes(None) == list(DEFAULT_INDEXES)

    def test_resolve_names(self):
        specs = resolve_indexes(["D", "H"])
        assert [s.name for s in specs] == ["D", "H"]

    def test_repeated_name_rejected(self):
        """A cube holds one column per index: a name given twice, in any
        case, is refused before anything is built."""
        for names in (["D", "d"], ["Iso", "H", "ISO"]):
            with pytest.raises(SegregationIndexError, match="twice"):
                resolve_indexes(names)
        with pytest.raises(SegregationIndexError, match="twice"):
            SegregationDataCubeBuilder(indexes=["D", "d"], min_population=10, min_minority=3).build(*generate_schools())

    def test_bare_string_rejected(self):
        """A string is not a list of names: ``"DG"`` is not D and G, and
        ``"Iso"`` is not I, s and o."""
        for names in ("DG", "Iso", "D"):
            with pytest.raises(SegregationIndexError, match=repr(names)):
                resolve_indexes(names)
        with pytest.raises(SegregationIndexError, match="'DG'"):
            SegregationDataCubeBuilder(indexes="DG")

    def test_duplicate_registration_rejected(self):
        spec = IndexSpec("D", "dup", lambda block: block.proportion, (0, 1),
                         True)
        with pytest.raises(SegregationIndexError, match="already registered"):
            register(spec)

    def test_custom_index_registration(self):
        spec = IndexSpec(
            "TestOnly", "custom", lambda block: np.full(len(block.m), 0.5),
            (0.0, 1.0), True,
        )
        try:
            register(spec)
            assert get_index("testonly").compute(
                UnitCounts([10], [5])
            ) == 0.5
        finally:
            # Keep the global registry clean for other tests.
            from repro.indexes import base

            base._REGISTRY.pop("TESTONLY", None)

    def test_compute_delegates(self, two_unit_counts):
        assert get_index("D").compute(two_unit_counts) == pytest.approx(0.6)

    def test_bounds_metadata(self):
        for spec in DEFAULT_INDEXES:
            assert spec.bounds == (0.0, 1.0)

    def test_interaction_direction_flag(self):
        assert get_index("Int").higher_is_more_segregated is False
        assert get_index("D").higher_is_more_segregated is True

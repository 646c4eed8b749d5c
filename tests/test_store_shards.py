"""Tests of the shards.json manifest and the sharded snapshot writers.

The core invariant of every sharding scheme is *disjoint and complete*
partitioning: each cell of the logical cube lands in exactly one shard,
and the shard key a writer derives from a cell equals the one the query
router re-derives from the same key — that is what lets point queries
route to one shard and scans merge without duplicates.
"""

from __future__ import annotations

import json

import pytest

from repro.cube.builder import build_cube
from repro.errors import SnapshotError
from repro.store import open_snapshot
from repro.store.shards import (
    SHARDS_NAME,
    WILDCARD_SHARD,
    ShardEntry,
    ShardsManifest,
    attribute_shard_of_key,
    dump_sharded_snapshot,
    hash_shard_of_key,
    is_sharded,
    shard_keys_of_table,
)


@pytest.fixture(scope="module")
def built(schools):
    table, schema = schools
    return build_cube(table, schema, min_population=10, min_minority=3)


class TestManifest:
    def _manifest(self):
        return ShardsManifest(
            format_version=1,
            sharded_by="hash",
            n_words=1,
            entries=[
                ShardEntry(path="shard-0", key="0"),
                ShardEntry(path="shard-1", key="1"),
            ],
        )

    def test_round_trip(self, tmp_path):
        manifest = self._manifest()
        manifest.write(tmp_path)
        assert is_sharded(tmp_path)
        again = ShardsManifest.read(tmp_path)
        assert again == manifest
        assert again.n_shards == 2

    def test_missing_manifest_is_clean_error(self, tmp_path):
        with pytest.raises(SnapshotError, match="no shards manifest"):
            ShardsManifest.read(tmp_path)

    def test_bad_json_is_clean_error(self, tmp_path):
        (tmp_path / SHARDS_NAME).write_text("{nope")
        with pytest.raises(SnapshotError, match="not valid JSON"):
            ShardsManifest.read(tmp_path)

    def test_unknown_version_rejected(self, tmp_path):
        payload = json.loads(self._manifest().to_json())
        payload["format_version"] = 99
        (tmp_path / SHARDS_NAME).write_text(json.dumps(payload))
        with pytest.raises(SnapshotError, match="version"):
            ShardsManifest.read(tmp_path)

    def test_unknown_scheme_rejected(self, tmp_path):
        # "date" sharding was removed: a tree of dates is a plain
        # timeline, served by CubeService.
        for scheme in ("zodiac", "date"):
            payload = json.loads(self._manifest().to_json())
            payload["sharded_by"] = scheme
            (tmp_path / SHARDS_NAME).write_text(json.dumps(payload))
            with pytest.raises(SnapshotError, match=f"scheme {scheme!r}"):
                ShardsManifest.read(tmp_path)

    def test_duplicate_keys_rejected(self, tmp_path):
        payload = json.loads(self._manifest().to_json())
        payload["entries"][1]["key"] = "0"
        (tmp_path / SHARDS_NAME).write_text(json.dumps(payload))
        with pytest.raises(SnapshotError, match="duplicate"):
            ShardsManifest.read(tmp_path)


class TestPartitionFunctions:
    def test_writer_and_router_agree_on_hash(self, built):
        n_words = built.table.sa_masks.shape[1]
        writer_keys = shard_keys_of_table(built, "hash", 4)
        for row, key in enumerate(built.table.keys):
            assert writer_keys[row] == hash_shard_of_key(
                key[0], key[1], n_words, 4
            )

    def test_writer_and_router_agree_on_attribute(self, built):
        writer_keys = shard_keys_of_table(built, "attribute:city", 0)
        for row, key in enumerate(built.table.keys):
            assert writer_keys[row] == attribute_shard_of_key(
                key[1], built.dictionary, "city"
            )

    def test_wildcard_shard_for_cells_without_the_attribute(self, built):
        keys = shard_keys_of_table(built, "attribute:city", 0)
        wildcard_rows = [
            row for row, key in enumerate(built.table.keys)
            if not any(
                built.dictionary.item(i).attribute == "city"
                for i in key[1]
            )
        ]
        assert wildcard_rows  # the all-⋆ cell at least
        assert all(keys[row] == WILDCARD_SHARD for row in wildcard_rows)

    def test_non_context_attribute_rejected(self, built):
        with pytest.raises(SnapshotError, match="not a context attribute"):
            shard_keys_of_table(built, "attribute:ethnicity", 0)

    def test_unknown_scheme_rejected(self, built):
        with pytest.raises(SnapshotError, match="unknown sharding scheme"):
            shard_keys_of_table(built, "zodiac", 4)


class TestDumpShardedSnapshot:
    @pytest.mark.parametrize("by,n_shards", [
        ("hash", 3), ("hash", 1), ("attribute:city", 0),
    ])
    def test_partition_is_disjoint_and_complete(
        self, built, tmp_path, by, n_shards
    ):
        root = dump_sharded_snapshot(
            built, tmp_path / "sharded", by=by, n_shards=n_shards
        )
        manifest = ShardsManifest.read(root)
        assert manifest.sharded_by == by
        seen: "list[object]" = []
        for entry in manifest.entries:
            shard = open_snapshot(root / entry.path)
            assert len(shard.dictionary) == len(built.dictionary)
            assert all(
                shard.dictionary.item(i) == built.dictionary.item(i)
                for i in range(len(built.dictionary))
            )
            assert shard.metadata.extra["shard"]["key"] == entry.key
            seen.extend(shard.keys())
        assert sorted(map(repr, seen)) == sorted(map(repr, built.keys()))
        assert len(seen) == len(built)

    def test_hash_buckets_exist_even_when_empty(self, built, tmp_path):
        # More buckets than cells: some must be empty, yet every bucket
        # the routing function can land on needs a directory.
        root = dump_sharded_snapshot(
            built, tmp_path / "wide", by="hash", n_shards=64
        )
        manifest = ShardsManifest.read(root)
        assert manifest.n_shards == 64
        sizes = [
            len(open_snapshot(root / entry.path))
            for entry in manifest.entries
        ]
        assert sum(sizes) == len(built)
        assert 0 in sizes

    def test_invalid_n_shards_rejected(self, built, tmp_path):
        with pytest.raises(SnapshotError, match="n_shards"):
            dump_sharded_snapshot(built, tmp_path / "bad", n_shards=0)

    def test_shard_cells_identical_to_source(self, built, tmp_path):
        root = dump_sharded_snapshot(
            built, tmp_path / "parity", by="hash", n_shards=3
        )
        manifest = ShardsManifest.read(root)
        for entry in manifest.entries:
            shard = open_snapshot(root / entry.path)
            for key in shard.keys():
                ours = shard.cell_by_key(key)
                theirs = built.cell_by_key(key)
                assert (ours.population, ours.minority, ours.n_units) == (
                    theirs.population, theirs.minority, theirs.n_units
                )

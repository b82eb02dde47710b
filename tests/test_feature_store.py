"""Tests for the disk-backed feature store (Appendix B workflow)."""

import numpy as np
import pytest

from repro.cnn import build_model
from repro.core.config import VistaConfig
from repro.core.executor import FeatureTransferExecutor
from repro.core.plans import STAGED
from repro.data import foods_dataset, replicate_dataset
from repro.dataflow.context import local_context
from repro.exceptions import CheckpointIntegrityError
from repro.features.store import FeatureStore, dataset_fingerprint
from tests.test_recovery import forge_wave


@pytest.fixture
def store(tmp_path):
    return FeatureStore(tmp_path / "features")


def _rows(n=10, dim=8):
    return [
        {"id": i, "tensor": np.full(dim, float(i), dtype=np.float32)}
        for i in range(n)
    ]


class TestFingerprint:
    def test_deterministic(self):
        ds = foods_dataset(num_records=20)
        assert dataset_fingerprint(ds) == dataset_fingerprint(ds)

    def test_differs_across_datasets(self):
        a = foods_dataset(num_records=20)
        b = foods_dataset(num_records=21)
        assert dataset_fingerprint(a) != dataset_fingerprint(b)

    def test_sensitive_to_image_content(self):
        a = foods_dataset(num_records=20, seed=7)
        b = foods_dataset(num_records=20, seed=8)
        assert dataset_fingerprint(a) != dataset_fingerprint(b)

    def test_replication_changes_fingerprint(self):
        a = foods_dataset(num_records=10)
        assert dataset_fingerprint(a) != dataset_fingerprint(
            replicate_dataset(a, 2)
        )


class TestStore:
    def test_put_get_roundtrip(self, store):
        rows = _rows()
        store.put("alexnet", "conv5", "fp1", rows)
        back = store.get("alexnet", "conv5", "fp1")
        assert back.num_rows == 10
        assert back.column("id").tolist() == list(range(10))
        np.testing.assert_array_equal(
            back.column("tensor"), np.stack([r["tensor"] for r in rows])
        )

    def test_stored_file_is_the_vcb1_buffer(self, store):
        """The file is the buffer a cached or checkpointed partition of
        the same rows would be, then the wave footer that commits its
        length and digest."""
        import hashlib
        import json

        from repro.dataflow.columnar import ColumnarBlock
        from repro.recovery.store import WAVE_MAGIC

        rows = _rows()
        stored = store.put("alexnet", "conv5", "fp1", rows)
        (path,) = store.root.glob("*/*.ckpt")
        data = path.read_bytes()
        assert data[:stored] == ColumnarBlock.from_rows(rows).to_buffer()
        # payload, footer, the footer's SHA-256 and length, the tag
        assert data.endswith(WAVE_MAGIC)
        footer = data[stored:-44]
        assert int.from_bytes(data[-12:-4], "little") == len(footer)
        assert data[-44:-12] == hashlib.sha256(footer).digest()
        footer = json.loads(footer)
        meta = store.metadata("alexnet", "conv5", "fp1")
        assert meta["stored_bytes"] == stored
        digest = hashlib.sha256(data[:stored]).hexdigest()
        assert meta["sha256"] == digest
        assert footer["partitions"] == {"0": {
            "offset": 0, "nbytes": stored, "sha256": digest,
            "num_rows": 10}}
        assert not list(store.root.glob("*/*.tmp"))

    def test_non_vcb1_file_raises_instead_of_unpickling(self, store):
        """A pickle where the buffer should be — even one the footer
        vouches for — is refused by its magic, never loaded."""
        import pickle

        store.put("alexnet", "conv5", "fp1", _rows())
        (path,) = store.root.glob("*/*.ckpt")
        forge_wave(path, {"0": pickle.dumps(_rows())})
        with pytest.raises(CheckpointIntegrityError,
                           match="not a VCB1 buffer"):
            store.get("alexnet", "conv5", "fp1")

    def test_truncated_file_raises(self, store):
        """The payload loses its last bytes under an intact footer: the
        footer still names the entry, and its digest refuses the short
        payload."""
        stored = store.put("alexnet", "conv5", "fp1", _rows())
        (path,) = store.root.glob("*/*.ckpt")
        data = path.read_bytes()
        path.write_bytes(data[:stored - 7] + data[stored:])  # into the payload
        assert store.contains("alexnet", "conv5", "fp1")
        with pytest.raises(CheckpointIntegrityError,
                           match="alexnet__conv5__fp1"):
            store.get("alexnet", "conv5", "fp1")
        assert store.hits == 0

    def test_one_flipped_byte_raises(self, store):
        stored = store.put("alexnet", "conv5", "fp1", _rows())
        (path,) = store.root.glob("*/*.ckpt")
        data = bytearray(path.read_bytes())
        data[stored - 5] ^= 0x10    # inside a float: still a valid buffer
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointIntegrityError,
                           match="alexnet__conv5__fp1"):
            store.get("alexnet", "conv5", "fp1")

    def test_metadata_without_data_raises(self, store):
        """The footer survives, the payload it locates does not."""
        stored = store.put("alexnet", "conv5", "fp1", _rows())
        (path,) = store.root.glob("*/*.ckpt")
        path.write_bytes(path.read_bytes()[stored:])
        assert store.contains("alexnet", "conv5", "fp1")
        with pytest.raises(CheckpointIntegrityError,
                           match="alexnet__conv5__fp1"):
            store.get("alexnet", "conv5", "fp1")

    def test_data_without_metadata_is_a_miss(self, store):
        """A wave whose footer carries no entry record (one the bare
        stage API wrote) is no entry."""
        store.put("alexnet", "conv5", "fp1", _rows())
        (path,) = store.root.glob("*/*.ckpt")
        forge_wave(path, lineage=None)
        assert not store.contains("alexnet", "conv5", "fp1")
        assert store.get("alexnet", "conv5", "fp1") is None

    def test_entry_in_the_old_json_layout_is_a_miss_and_rewritten(
            self, store):
        """An entry in the layout from before the one durable store (a
        bare ``.vcb`` plus the ``.json`` that committed its length and
        digest) is not read: the run recomputes and the next put
        replaces it."""
        import hashlib
        import json

        from repro.dataflow.columnar import ColumnarBlock

        blob = ColumnarBlock.from_rows(_rows()).to_buffer()
        (store.root / "alexnet__conv5__fp1.vcb").write_bytes(blob)
        (store.root / "alexnet__conv5__fp1.json").write_text(json.dumps({
            "model": "alexnet", "layer": "conv5", "fingerprint": "fp1",
            "micro_batch": None, "num_rows": 10, "stored_bytes": len(blob),
            "sha256": hashlib.sha256(blob).hexdigest(),
        }))
        reopened = FeatureStore(store.root)
        assert not reopened.contains("alexnet", "conv5", "fp1")
        assert reopened.get("alexnet", "conv5", "fp1") is None
        reopened.put("alexnet", "conv5", "fp1", _rows(3))
        assert reopened.get("alexnet", "conv5", "fp1").num_rows == 3
        assert len(reopened.entries()) == 1

    def test_entry_under_an_older_manifest_schema_is_a_plain_miss(
            self, store):
        """An entry committed by the ``ckpt/v3`` layout (a manifest plus
        a wave whose footer names that schema) reads as a miss: the
        namespace is cleared and nothing counts as damage."""
        import json

        store.put("alexnet", "conv5", "fp1", _rows())
        (path,) = store.root.glob("*/*.ckpt")
        forge_wave(path, schema="ckpt/v3")
        (path.parent / "manifest.json").write_text(json.dumps(
            {"schema": "ckpt/v3", "fingerprint": path.parent.name,
             "seq": 1, "stages": {}}))
        reopened = FeatureStore(store.root)
        assert reopened.get("alexnet", "conv5", "fp1") is None
        assert reopened.misses == 1
        assert reopened.corrupt_total == 0
        assert list(path.parent.iterdir()) == []
        reopened.put("alexnet", "conv5", "fp1", _rows(3))
        assert reopened.get("alexnet", "conv5", "fp1").num_rows == 3

    def test_truncated_file_is_a_counted_miss(self, store):
        """A tear cuts the wave's footer, which is the entry: the reader
        finds no entry, and the bind counts the torn file and removes
        it. So does a ``ckpt/v2`` entry, whose waves had no footer."""
        stored = store.put("alexnet", "conv5", "fp1", _rows())
        (path,) = store.root.glob("*/*.ckpt")
        path.write_bytes(path.read_bytes()[:stored - 7])   # into the payload
        assert store.get("alexnet", "conv5", "fp1") is None
        assert (store.hits, store.misses) == (0, 1)
        assert store.corrupt_total == 1
        assert list(path.parent.iterdir()) == []

    def test_torn_entry_manifest_still_quarantines(self, store):
        """An entry's manifest is its wave's footer. Torn, it takes the
        entry with it, though the payload is whole: a reopened store
        counts the tear, removes the file and misses."""
        store.put("alexnet", "conv5", "fp1", _rows())
        (path,) = store.root.glob("*/*.ckpt")
        path.write_bytes(path.read_bytes()[:-9])
        reopened = FeatureStore(store.root)
        assert reopened.get("alexnet", "conv5", "fp1") is None
        assert reopened.corrupt_total == 1
        assert list(path.parent.iterdir()) == []

    def test_open_reclaims_stray_tmp_files(self, store):
        stray = (store.root / "alexnet__conv5__fp1"
                 / "alexnet__conv5__fp1__1.ckpt.tmp")
        stray.parent.mkdir()
        stray.write_bytes(b"half a buf")
        FeatureStore(store.root)
        assert not stray.exists()

    def test_miss_returns_none_and_counts(self, store):
        assert store.get("alexnet", "conv5", "nope") is None
        assert store.misses == 1
        assert store.hits == 0

    def test_hit_counting(self, store):
        store.put("alexnet", "conv5", "fp1", _rows())
        store.get("alexnet", "conv5", "fp1")
        assert store.hits == 1

    def test_another_micro_batch_is_a_miss(self, store):
        """OpenBLAS's bits depend on the rows per inference call, so an
        entry computed under another micro-batch is not served; an
        entry or a reader that names none matches any."""
        store.put("resnet50", "conv4_6", "fp1", _rows(), micro_batch=33)
        assert store.get("resnet50", "conv4_6", "fp1", micro_batch=16) is None
        assert store.misses == 1
        assert store.get("resnet50", "conv4_6", "fp1",
                         micro_batch=33).num_rows == 10
        assert store.get("resnet50", "conv4_6", "fp1").num_rows == 10
        assert store.metadata("resnet50", "conv4_6", "fp1")[
            "micro_batch"] == 33
        store.put("resnet50", "conv4_6", "fp2", _rows())
        assert store.get("resnet50", "conv4_6", "fp2",
                         micro_batch=16).num_rows == 10

    def test_contains(self, store):
        assert not store.contains("m", "l", "f")
        store.put("m", "l", "f", _rows())
        assert store.contains("m", "l", "f")

    def test_metadata(self, store):
        store.put("resnet50", "conv4_6", "fpX", _rows(5))
        meta = store.metadata("resnet50", "conv4_6", "fpX")
        assert meta["num_rows"] == 5
        assert meta["model"] == "resnet50"
        assert meta["stored_bytes"] > 0

    def test_entries_listing(self, store):
        store.put("a", "l1", "f", _rows())
        store.put("b", "l2", "f", _rows())
        assert len(store.entries()) == 2

    def test_evict(self, store):
        store.put("a", "l1", "f", _rows())
        store.evict("a", "l1", "f")
        assert not store.contains("a", "l1", "f")
        assert store.metadata("a", "l1", "f") is None

    def test_total_bytes(self, store):
        assert store.total_bytes() == 0
        store.put("a", "l1", "f", _rows(50, dim=100))
        assert store.total_bytes() > 0

    def test_keys_isolated(self, store):
        store.put("alexnet", "conv5", "fp1", _rows(3))
        assert store.get("alexnet", "fc6", "fp1") is None
        assert store.get("vgg16", "conv5", "fp1") is None
        assert store.get("alexnet", "conv5", "fp2") is None


class TestExecutorIntegration:
    def _executor(self, dataset, store, **kwargs):
        model = build_model("alexnet", profile="mini")
        config = VistaConfig(
            cpu=2, num_partitions=4, mem_storage_bytes=0,
            mem_user_bytes=0, mem_dl_bytes=0, join="shuffle",
            persistence="deserialized",
        )
        ctx = local_context(num_nodes=2, cores_per_node=4, cpu=2)
        return FeatureTransferExecutor(
            ctx, model, dataset, ["fc7", "fc8"], config,
            downstream_fn=lambda f, l: {"matrix": f.copy()},
            feature_store=store, **kwargs,
        )

    def test_first_run_populates_store(self, store):
        dataset = foods_dataset(num_records=16)
        result = self._executor(dataset, store).run(
            STAGED, premat_layer="fc7"
        )
        assert result.metrics["premat_store_hit"] is False
        fingerprint = dataset_fingerprint(dataset)
        assert store.contains("alexnet", "fc7", fingerprint)

    def test_second_run_reuses_store_and_skips_inference(self, store):
        dataset = foods_dataset(num_records=16)
        first = self._executor(dataset, store).run(
            STAGED, premat_layer="fc7"
        )
        second = self._executor(dataset, store).run(
            STAGED, premat_layer="fc7"
        )
        assert second.metrics["premat_store_hit"] is True
        assert second.metrics["premat_flops"] == 0
        # Kernels are per-record deterministic, so starting from the
        # stored base yields bit-identical features.
        for layer in ("fc7", "fc8"):
            np.testing.assert_array_equal(
                second.layer_results[layer].downstream["matrix"],
                first.layer_results[layer].downstream["matrix"],
            )

    def test_store_hit_never_builds_timg(self, store, monkeypatch):
        """Appendix B's point is not reading the images: a run that
        finds its base layer in the store reads T_str only, and trains
        on the same features as the cold run that read both."""
        from repro.dataflow.table import DistributedTable

        built = []
        from_block = DistributedTable.from_block.__func__

        def counting(cls, context, block, num_partitions, name=None,
                     key="id"):
            built.append(name)
            return from_block(cls, context, block, num_partitions, name, key)

        monkeypatch.setattr(
            DistributedTable, "from_block", classmethod(counting)
        )
        dataset = foods_dataset(num_records=16)
        cold = self._executor(dataset, store).run(STAGED, premat_layer="fc7")
        assert built == ["t_str", "t_img"]
        del built[:]
        executor = self._executor(dataset, store)
        warm = executor.run(STAGED, premat_layer="fc7")
        assert warm.metrics["premat_store_hit"] is True
        # the stored base layer stands in for T_img
        assert built == ["t_str", "t_premat_fc7"]
        assert "timg" not in vars(executor)
        for layer in ("fc7", "fc8"):
            np.testing.assert_array_equal(
                warm.layer_results[layer].downstream["matrix"],
                cold.layer_results[layer].downstream["matrix"],
            )
        # first use still reads it, through the same constructor
        assert executor.timg.num_rows() == 16
        assert built == ["t_str", "t_premat_fc7", "t_img"]

    def test_read_spans_report_what_was_read(self, store):
        from repro.trace import Tracer

        def read_counters(**run_kwargs):
            tracer = Tracer()
            self._executor(
                foods_dataset(num_records=16), store, tracer=tracer
            ).run(STAGED, **run_kwargs)
            reads = [s for s in tracer.export() if s["name"] == "read"]
            return [sorted(span["counters"]) for span in reads]

        structured = ["bytes_structured", "rows_structured"]
        images = ["bytes_images", "rows_images"]
        assert read_counters() == [structured, images]
        assert read_counters(premat_layer="fc7") == [structured, images]
        assert read_counters(premat_layer="fc7") == [structured]   # hit

    def test_executor_keys_entries_by_its_micro_batch(self, store):
        self._executor(foods_dataset(num_records=16), store).run(
            STAGED, premat_layer="fc7"
        )
        (meta,) = store.entries()
        assert meta["micro_batch"] == build_model(
            "alexnet"
        ).stats.micro_batch_rows

    def test_changed_dataset_misses_store(self, store):
        self._executor(foods_dataset(num_records=16), store).run(
            STAGED, premat_layer="fc7"
        )
        other = self._executor(
            foods_dataset(num_records=16, seed=99), store
        ).run(STAGED, premat_layer="fc7")
        assert other.metrics["premat_store_hit"] is False


def test_stored_outputs_are_keyed_by_the_model_seed(tmp_path):
    """Neither store serves one model's outputs to a model with other
    weights: a ``model_seed=1`` run over stores a ``model_seed=0`` run
    filled restores no checkpoint and misses the stored base layer, and
    trains on what a fresh seed-1 run trains on."""
    from repro.core.api import Vista, default_resources
    from repro.recovery import CheckpointStore

    dataset = foods_dataset(num_records=64)

    def run(seed, **kwargs):
        result = Vista(
            "alexnet", 2, dataset, default_resources(num_nodes=2),
            downstream_fn=lambda f, l: {"matrix": f.copy()},
            model_seed=seed,
        ).run(**kwargs)
        return result, {
            layer: got.downstream["matrix"]
            for layer, got in result.layer_results.items()
        }

    def assert_same(got, want):
        assert sorted(got) == sorted(want) == ["fc7", "fc8"]
        for layer in want:
            np.testing.assert_array_equal(got[layer], want[layer])

    run(0, checkpoint_store=CheckpointStore(tmp_path / "ckpt"))
    resumed = CheckpointStore(tmp_path / "ckpt")
    _, got = run(1, checkpoint_store=resumed)
    assert resumed.restore_total == 0
    assert_same(got, run(1)[1])

    features = FeatureStore(tmp_path / "features")
    run(0, premat_layer="conv5", feature_store=features)
    result, got = run(1, premat_layer="conv5", feature_store=features)
    assert result.metrics["premat_store_hit"] is False
    assert_same(got, run(1, premat_layer="conv5")[1])
    assert {entry["model_seed"] for entry in features.entries()} == {1}

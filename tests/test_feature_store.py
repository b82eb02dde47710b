"""Tests for the disk-backed feature store (Appendix B workflow)."""

import numpy as np
import pytest

from repro.cnn import build_model
from repro.core.config import VistaConfig
from repro.core.executor import FeatureTransferExecutor
from repro.core.plans import STAGED
from repro.data import foods_dataset, replicate_dataset
from repro.dataflow.context import local_context
from repro.features.store import FeatureStore, dataset_fingerprint


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
        """The file *is* the buffer a cached or checkpointed partition
        of the same rows would be, and the metadata commits its length
        and digest."""
        import hashlib

        from repro.dataflow.columnar import ColumnarBlock

        rows = _rows()
        stored = store.put("alexnet", "conv5", "fp1", rows)
        (path,) = store.root.glob("*.vcb")
        assert path.stat().st_size == stored
        assert path.read_bytes() == ColumnarBlock.from_rows(rows).to_buffer()
        meta = store.metadata("alexnet", "conv5", "fp1")
        assert meta["stored_bytes"] == stored
        assert meta["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
        assert not list(store.root.glob("*.tmp"))

    def test_non_vcb1_file_raises_instead_of_unpickling(self, store):
        """A pickle where the buffer should be — even one the metadata
        vouches for — is refused by its magic, never loaded."""
        import json
        import pickle

        from repro.recovery.store import sha256_hex

        store.put("alexnet", "conv5", "fp1", _rows())
        (path,) = store.root.glob("*.vcb")
        forged = pickle.dumps(_rows())
        path.write_bytes(forged)
        with pytest.raises(ValueError, match="alexnet__conv5__fp1.vcb"):
            store.get("alexnet", "conv5", "fp1")
        (meta_path,) = store.root.glob("*.json")
        meta = json.loads(meta_path.read_text())
        meta.update(stored_bytes=len(forged), sha256=sha256_hex(forged))
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="bad magic"):
            store.get("alexnet", "conv5", "fp1")

    def test_truncated_file_raises(self, store):
        store.put("alexnet", "conv5", "fp1", _rows())
        (path,) = store.root.glob("*.vcb")
        path.write_bytes(path.read_bytes()[:-7])
        with pytest.raises(ValueError, match="alexnet__conv5__fp1.vcb"):
            store.get("alexnet", "conv5", "fp1")
        assert store.hits == 0

    def test_one_flipped_byte_raises(self, store):
        store.put("alexnet", "conv5", "fp1", _rows())
        (path,) = store.root.glob("*.vcb")
        data = bytearray(path.read_bytes())
        data[-5] ^= 0x10        # inside a float: still a valid buffer
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="alexnet__conv5__fp1.vcb"):
            store.get("alexnet", "conv5", "fp1")

    def test_metadata_without_data_raises(self, store):
        store.put("alexnet", "conv5", "fp1", _rows())
        (path,) = store.root.glob("*.vcb")
        path.unlink()
        assert store.contains("alexnet", "conv5", "fp1")
        with pytest.raises(ValueError, match="alexnet__conv5__fp1.vcb"):
            store.get("alexnet", "conv5", "fp1")

    def test_data_without_metadata_is_a_miss(self, store):
        store.put("alexnet", "conv5", "fp1", _rows())
        (meta_path,) = store.root.glob("*.json")
        meta_path.unlink()
        assert not store.contains("alexnet", "conv5", "fp1")
        assert store.get("alexnet", "conv5", "fp1") is None

    def test_entry_from_before_the_digest_is_a_miss_and_rewritten(self, store):
        """A ``.vcb.z``-era entry (metadata without a digest) is not
        read: the run recomputes and the next put replaces it."""
        import json

        (store.root / "alexnet__conv5__fp1.json").write_text(json.dumps({
            "model": "alexnet", "layer": "conv5", "fingerprint": "fp1",
            "num_rows": 10, "stored_bytes": 99,
        }))
        (store.root / "alexnet__conv5__fp1.vcb.z").write_bytes(b"x" * 99)
        assert not store.contains("alexnet", "conv5", "fp1")
        assert store.get("alexnet", "conv5", "fp1") is None
        store.put("alexnet", "conv5", "fp1", _rows())
        assert store.get("alexnet", "conv5", "fp1").num_rows == 10

    def test_open_reclaims_stray_tmp_files(self, store):
        stray = store.root / "alexnet__conv5__fp1.vcb.tmp"
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
        from_rows = DistributedTable.from_rows.__func__

        def counting(cls, context, rows, num_partitions=None, name=None,
                     key="id"):
            built.append(name)
            return from_rows(cls, context, rows, num_partitions, name, key)

        monkeypatch.setattr(
            DistributedTable, "from_rows", classmethod(counting)
        )
        dataset = foods_dataset(num_records=16)
        cold = self._executor(dataset, store).run(STAGED, premat_layer="fc7")
        assert built == ["t_str", "t_img"]
        del built[:]
        executor = self._executor(dataset, store)
        warm = executor.run(STAGED, premat_layer="fc7")
        assert warm.metrics["premat_store_hit"] is True
        assert built == ["t_str"]
        assert "timg" not in vars(executor)
        for layer in ("fc7", "fc8"):
            np.testing.assert_array_equal(
                warm.layer_results[layer].downstream["matrix"],
                cold.layer_results[layer].downstream["matrix"],
            )
        # first use still reads it, through the same constructor
        assert executor.timg.num_rows() == 16
        assert built == ["t_str", "t_img"]

    def test_read_spans_report_what_was_read(self, store):
        from repro.trace import Tracer

        def read_counters(**run_kwargs):
            tracer = Tracer()
            self._executor(
                foods_dataset(num_records=16), store, tracer=tracer
            ).run(STAGED, **run_kwargs)
            reads = [s for s in tracer.root.walk() if s.name == "read"]
            return [sorted(span.counters) for span in reads]

        structured = ["bytes_structured", "rows_structured"]
        images = ["bytes_images", "rows_images"]
        assert read_counters() == [structured, images]
        assert read_counters(premat_layer="fc7") == [structured, images]
        assert read_counters(premat_layer="fc7") == [structured]   # hit

    def test_changed_dataset_misses_store(self, store):
        self._executor(foods_dataset(num_records=16), store).run(
            STAGED, premat_layer="fc7"
        )
        other = self._executor(
            foods_dataset(num_records=16, seed=99), store
        ).run(STAGED, premat_layer="fc7")
        assert other.metrics["premat_store_hit"] is False

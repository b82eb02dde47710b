"""Unit tests for the synthetic dataset generators and scaling."""

import numpy as np
import pytest

from repro.data import (
    amazon_dataset,
    foods_dataset,
    replicate_dataset,
    widen_structured_features,
)
from repro.data.foods import PAPER_NUM_STRUCTURED_FEATURES
from repro.data.synthetic import (
    generate_dataset,
    synthesize_image,
    synthesize_structured,
)
from repro.ml import LogisticRegression, f1_score, train_test_split


def test_foods_shape():
    ds = foods_dataset(num_records=50)
    assert len(ds) == 50
    assert ds.num_structured_features == PAPER_NUM_STRUCTURED_FEATURES == 130
    assert ds.structured_matrix().shape == (50, 130)
    assert ds.image_rows[0]["image"].shape == (32, 32, 3)


def test_amazon_shape():
    ds = amazon_dataset(num_records=40)
    assert ds.num_structured_features == 200
    assert ds.structured_matrix().shape == (40, 200)


def test_ids_align_across_modalities():
    ds = foods_dataset(num_records=30)
    assert [r["id"] for r in ds.structured_rows] \
        == [r["id"] for r in ds.image_rows]


def test_labels_binary_and_mixed():
    labels = foods_dataset(num_records=100).labels()
    assert set(np.unique(labels)) == {0, 1}


def test_generation_deterministic():
    a = foods_dataset(num_records=20)
    b = foods_dataset(num_records=20)
    np.testing.assert_array_equal(a.structured_matrix(), b.structured_matrix())
    np.testing.assert_array_equal(a.images()[3], b.images()[3])


@pytest.mark.parametrize("images_per_record", [1, 2])
def test_columns_hold_the_per_record_synthesis(images_per_record):
    """Writing records straight into preallocated columns draws the
    same random stream, record by record, as synthesizing each one."""
    ds = generate_dataset("d", 6, 20, image_shape=(8, 8, 3), seed=9,
                          images_per_record=images_per_record)
    rng = np.random.default_rng(9)
    for record in range(6):
        label = int(rng.random() < 0.5)
        features = synthesize_structured(rng, label, 20)
        images = [synthesize_image(rng, label, shape=(8, 8, 3))
                  for _ in range(images_per_record)]
        row, image_row = ds.structured_rows[record], ds.image_rows[record]
        assert (row["id"], row["label"], image_row["id"]) \
            == (record, label, record)
        np.testing.assert_array_equal(row["features"], features)
        stored = image_row["image"]
        if images_per_record == 1:
            stored = [stored]
        for got, want in zip(stored, images, strict=True):
            np.testing.assert_array_equal(got, want)


def test_scaling_builds_columns():
    ds = foods_dataset(num_records=5)
    scaled = replicate_dataset(ds, 3)
    np.testing.assert_array_equal(scaled.t_img.column("id"), np.arange(15))
    np.testing.assert_array_equal(
        scaled.t_img.column("image"), np.tile(ds.t_img.column("image"),
                                              (3, 1, 1, 1))
    )
    np.testing.assert_array_equal(
        scaled.structured_matrix(), np.tile(ds.structured_matrix(), (3, 1))
    )
    wide = widen_structured_features(ds, 140, seed=2)
    rng = np.random.default_rng(2)   # one draw per record, as rows were
    extra = np.stack([rng.normal(0.0, 1.0, size=10) for _ in range(5)])
    extra = extra.astype(np.float32)
    np.testing.assert_array_equal(wide.structured_matrix()[:, 130:], extra)
    assert wide.t_img is ds.t_img


def test_structured_features_carry_signal():
    ds = foods_dataset(num_records=300)
    x_tr, x_te, y_tr, y_te = train_test_split(
        ds.structured_matrix(), ds.labels()
    )
    model = LogisticRegression(iterations=30).fit(x_tr, y_tr)
    assert f1_score(y_te, model.predict(x_te)) > 0.6


def test_images_carry_signal_beyond_structured():
    """Raw-pixel features must be label-informative — the premise of
    the whole accuracy experiment (Figure 8)."""
    ds = foods_dataset(num_records=300)
    pixels = np.stack([img.mean(axis=2).ravel() for img in ds.images()])
    x_tr, x_te, y_tr, y_te = train_test_split(pixels, ds.labels())
    model = LogisticRegression(iterations=30).fit(x_tr, y_tr)
    assert f1_score(y_te, model.predict(x_te)) > 0.6


def test_replicate_dataset_scales_rows():
    ds = foods_dataset(num_records=25)
    scaled = replicate_dataset(ds, 4)
    assert len(scaled) == 100
    assert scaled.name.endswith("4X")


def test_replicate_assigns_unique_ids():
    ds = foods_dataset(num_records=10)
    scaled = replicate_dataset(ds, 3)
    ids = [r["id"] for r in scaled.structured_rows]
    assert len(set(ids)) == 30


def test_replicate_rejects_bad_factor():
    ds = foods_dataset(num_records=5)
    with pytest.raises(ValueError):
        replicate_dataset(ds, 0)
    with pytest.raises(ValueError):
        replicate_dataset(ds, 1.5)


def test_widen_structured_features_pads():
    ds = foods_dataset(num_records=10)
    wide = widen_structured_features(ds, 1000)
    assert wide.structured_matrix().shape == (10, 1000)
    # original informative block preserved
    np.testing.assert_array_equal(
        wide.structured_matrix()[:, :130], ds.structured_matrix()
    )


def test_widen_structured_features_truncates():
    ds = foods_dataset(num_records=10)
    narrow = widen_structured_features(ds, 10)
    assert narrow.structured_matrix().shape == (10, 10)


def test_amazon_weaker_structured_signal_than_foods():
    """The paper's baselines: Foods struct-only F1 ~80%, Amazon ~59%."""
    foods = foods_dataset(num_records=400)
    amazon = amazon_dataset(num_records=400)

    def struct_f1(ds):
        x_tr, x_te, y_tr, y_te = train_test_split(
            ds.structured_matrix(), ds.labels()
        )
        model = LogisticRegression(iterations=30).fit(x_tr, y_tr)
        return f1_score(y_te, model.predict(x_te))

    assert struct_f1(foods) > struct_f1(amazon)

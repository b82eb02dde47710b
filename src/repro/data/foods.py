"""Foods-like dataset (Open Food Facts analogue).

The paper's Foods dataset: "about 20,000 examples with 130 structured
numeric features such as nutrition facts along with their feature
interactions and an image of each food item. The target represents if
the food is plant-based or not" (~300 MB raw).

``num_records`` defaults far below 20,000 so mini-profile CNN runs
stay fast; benchmarks pass larger values and the cost model always
reasons at the paper's full 20,000.
"""

from __future__ import annotations

from repro.data.synthetic import generate_dataset

PAPER_NUM_RECORDS = 20_000
PAPER_NUM_STRUCTURED_FEATURES = 130
PAPER_RAW_SIZE_GB = 0.3


def foods_dataset(num_records=400, image_shape=(32, 32, 3), seed=7):
    """Generate the Foods analogue at a chosen scale."""
    return generate_dataset(
        name="foods",
        num_records=num_records,
        num_structured_features=PAPER_NUM_STRUCTURED_FEATURES,
        image_shape=image_shape,
        informative=12,
        structured_signal=0.55,
        image_signal=1.0,
        image_label_flip=0.15,
        positive_fraction=0.5,
        seed=seed,
    )

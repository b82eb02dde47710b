"""Amazon-like dataset (He & McAuley product-review analogue).

The paper's Amazon dataset: "about 200,000 examples with structured
features such as price, title, and categories, as well as a product
image. The target is the sales rank, which we binarize as a popular
product or not"; titles are embedded into 100 Doc2Vec features and
categories into 100 PCA features (3 GB raw).

We model the 200 derived numeric features directly. The structured
signal is weaker than Foods' (the paper's Amazon F1 baseline is ~59%
vs Foods' ~80%).
"""

from __future__ import annotations

from repro.data.synthetic import generate_dataset

PAPER_NUM_RECORDS = 200_000
PAPER_NUM_STRUCTURED_FEATURES = 200
PAPER_RAW_SIZE_GB = 3.0


def amazon_dataset(num_records=400, image_shape=(32, 32, 3), seed=11):
    """Generate the Amazon analogue at a chosen scale."""
    return generate_dataset(
        name="amazon",
        num_records=num_records,
        num_structured_features=PAPER_NUM_STRUCTURED_FEATURES,
        image_shape=image_shape,
        informative=8,
        structured_signal=0.18,
        image_signal=0.7,
        image_label_flip=0.3,
        positive_fraction=0.5,
        seed=seed,
    )

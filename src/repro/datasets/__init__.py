"""Dataset substrate: Table-I registry and synthetic analogs.

The paper evaluates on five public datasets (MNIST, UCIHAR, ISOLET, PAMAP2,
DIABETES).  This environment has no network access, so each dataset has a
deterministic synthetic analog matching the Table-I signature — same feature
count ``n`` and class count ``k``, sample counts scalable via ``scale`` — with
difficulty calibrated so the phenomena DistHD exploits (top-1 < top-2 < top-3
accuracy, class confusability) hold.
"""

from repro.datasets.loaders import Dataset, load_dataset
from repro.datasets.preprocessing import (
    MinMaxScaler,
    StandardScaler,
    l2_normalize,
)
from repro.datasets.registry import DATASETS, DatasetSpec, get_spec, list_datasets
from repro.datasets.splits import stratified_split, train_test_split
from repro.datasets.synthetic import make_classification

__all__ = [
    "Dataset",
    "DatasetSpec",
    "DATASETS",
    "MinMaxScaler",
    "StandardScaler",
    "get_spec",
    "l2_normalize",
    "list_datasets",
    "load_dataset",
    "make_classification",
    "stratified_split",
    "train_test_split",
]

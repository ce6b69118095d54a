"""Fig. 4 — classification accuracy of DistHD vs the full comparator zoo.

Paper shapes this bench must reproduce (averaged over datasets):

- DistHD (D_lo) beats BaselineHD (D_lo) clearly (paper: +6.96%);
- DistHD (D_lo) is at or above BaselineHD (D_hi = 8×D_lo) (paper: +1.82%);
- DistHD (D_lo) is at or above NeuralHD (D_lo) (paper: +1.88%);
- DistHD is comparable to the DNN and at or above the SVM.
"""

import numpy as np
import pytest

from common import ALL_DATASETS, bench_dataset, fig4_model_zoo
from repro.pipeline.report import format_markdown_table

_results_cache = {}


def _accuracy_table(seeds=(0, 1)):
    """Run the Fig. 4 zoo on every dataset analog, averaged over seeds."""
    if "table" in _results_cache:
        return _results_cache["table"]
    table = {}
    for name in ALL_DATASETS:
        ds = bench_dataset(name)
        row = {}
        for model_name, _ in fig4_model_zoo():
            row[model_name] = []
        for seed in seeds:
            for model_name, factory in fig4_model_zoo(seed=seed):
                clf = factory().fit(ds.train_x, ds.train_y)
                row[model_name].append(clf.score(ds.test_x, ds.test_y))
        table[name] = {m: float(np.mean(a)) for m, a in row.items()}
    _results_cache["table"] = table
    return table


def test_fig4_accuracy_comparison(benchmark):
    table = benchmark.pedantic(_accuracy_table, rounds=1, iterations=1)
    rows = [{"dataset": name, **metrics} for name, metrics in table.items()]
    print("\n=== Fig. 4: classification accuracy ===")
    print(format_markdown_table(rows, precision=3))

    means = {
        model: float(np.mean([table[d][model] for d in table]))
        for model in rows[0]
        if model != "dataset"
    }
    print("\naverages:", {m: round(a, 3) for m, a in means.items()})

    # Shape assertions (averaged across datasets, small tolerances for the
    # scaled-down analogs):
    assert means["DistHD"] > means["BaselineHD-lo"] + 0.01, (
        "DistHD at D_lo must clearly beat the static bipolar encoder at D_lo"
    )
    assert means["DistHD"] >= means["BaselineHD-hi"] - 0.05, (
        "DistHD at D_lo must be comparable to BaselineHD at 8x dimensionality "
        "(paper: +1.82%; our analogs land within a few points)"
    )
    assert means["DistHD"] >= means["NeuralHD"] - 0.01, (
        "DistHD must match or beat NeuralHD at equal dimensionality"
    )
    assert means["DistHD"] >= means["SVM"] - 0.02
    assert abs(means["DistHD"] - means["DNN"]) < 0.10, (
        "DistHD and the DNN should be in the same accuracy band"
    )

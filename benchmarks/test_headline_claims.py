"""Headline claims — the abstract's aggregate numbers.

Paper: DistHD achieves on average (i) 2.12% higher accuracy than SOTA HDC
while reducing dimensionality 8.0×, (ii) 5.97× faster training than SOTA
DNNs and 8.09× faster inference than SOTA learning algorithms, (iii) 12.90×
higher robustness against hardware errors than SOTA DNNs.

This bench aggregates the same quantities from our scaled analogs and
prints paper-vs-measured side by side.
"""

import time

import numpy as np

from common import (
    ALL_DATASETS,
    DIM_HI,
    DIM_LO,
    SEED,
    bench_dataset,
    make_baselinehd,
    make_disthd,
    make_mlp,
)
from repro.noise.robustness import quality_loss_sweep, robustness_ratio


def _aggregate():
    acc_gain_vs_static_hi = []
    train_speedup_vs_dnn = []
    infer_speedup_vs_hi = []

    for name in ALL_DATASETS:
        ds = bench_dataset(name)

        disthd = make_disthd()
        start = time.perf_counter()
        disthd.fit(ds.train_x, ds.train_y)
        disthd_train = time.perf_counter() - start
        start = time.perf_counter()
        disthd.predict(ds.test_x)
        disthd_infer = time.perf_counter() - start
        disthd_acc = disthd.score(ds.test_x, ds.test_y)

        static_hi = make_baselinehd(dim=DIM_HI)
        static_hi.fit(ds.train_x, ds.train_y)
        start = time.perf_counter()
        static_hi.predict(ds.test_x)
        hi_infer = time.perf_counter() - start
        acc_gain_vs_static_hi.append(
            disthd_acc - static_hi.score(ds.test_x, ds.test_y)
        )
        infer_speedup_vs_hi.append(hi_infer / max(disthd_infer, 1e-9))

        mlp = make_mlp()
        start = time.perf_counter()
        mlp.fit(ds.train_x, ds.train_y)
        mlp_train = time.perf_counter() - start
        train_speedup_vs_dnn.append(mlp_train / max(disthd_train, 1e-9))

    # Robustness ratio on one dataset (full grid lives in the Fig. 8 bench).
    ds = bench_dataset("ucihar")
    disthd = make_disthd(dim=DIM_HI).fit(ds.train_x, ds.train_y)
    mlp = make_mlp().fit(ds.train_x, ds.train_y)
    # Skip the 1% point: losses there are fractions of a point and the
    # ratio is noise-dominated at bench scale.
    rates = (0.02, 0.05, 0.10, 0.15)
    dnn_losses = [
        p.quality_loss
        for p in quality_loss_sweep(mlp, ds.test_x, ds.test_y, bits=8,
                                    error_rates=rates, n_trials=2, seed=SEED)
    ]
    hdc_losses = [
        p.quality_loss
        for p in quality_loss_sweep(disthd, ds.test_x, ds.test_y, bits=1,
                                    error_rates=rates, n_trials=2, seed=SEED)
    ]
    return {
        "acc_gain_vs_8x_static_pct": float(np.mean(acc_gain_vs_static_hi)) * 100,
        "dim_reduction": DIM_HI / DIM_LO,
        "train_speedup_vs_dnn": float(np.mean(train_speedup_vs_dnn)),
        "infer_speedup_vs_8x_static": float(np.mean(infer_speedup_vs_hi)),
        "robustness_ratio_vs_dnn": robustness_ratio(dnn_losses, hdc_losses),
    }


def test_headline_claims(benchmark):
    measured = benchmark.pedantic(_aggregate, rounds=1, iterations=1)
    paper = {
        "acc_gain_vs_8x_static_pct": 1.82,
        "dim_reduction": 8.0,
        "train_speedup_vs_dnn": 5.97,
        "infer_speedup_vs_8x_static": 8.09,
        "robustness_ratio_vs_dnn": 12.90,
    }
    print("\n=== Headline claims: paper vs measured ===")
    for key in paper:
        print(f"  {key:30s} paper={paper[key]:>6.2f}  measured={measured[key]:>6.2f}")

    # Shape assertions: direction and rough magnitude (our analogs land
    # within a few points of the 8x static baseline rather than above it).
    assert measured["acc_gain_vs_8x_static_pct"] > -5.0, (
        "DistHD at D_lo must stay within 5pts of the 8x static baseline"
    )
    assert measured["dim_reduction"] == 8.0
    assert measured["infer_speedup_vs_8x_static"] > 1.5, (
        "compressed dimensionality must deliver a material inference speedup"
    )
    assert measured["robustness_ratio_vs_dnn"] > 1.5

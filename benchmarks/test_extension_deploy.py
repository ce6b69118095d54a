"""Extension benches (not paper figures): streaming training and
fixed-point deployment.

Quantifies the two `repro.deploy` extensions against their batch / float
counterparts so regressions in the edge-lifecycle path are caught:

- streaming DistHD must approach batch DistHD accuracy given equal epochs;
- quantised deployment must trade ≤ a few points of accuracy for its 8–64×
  memory compression at 8→1 bits.
"""

import numpy as np

from common import SEED, bench_dataset, make_disthd
from repro.deploy import QuantizedHDCModel
from repro.models import make_model
from repro.pipeline.report import format_markdown_table


def test_extension_streaming_vs_batch(benchmark):
    def run():
        ds = bench_dataset("pamap2")
        batch = make_disthd(dim=256).fit(ds.train_x, ds.train_y)
        # "disthd-stream" defaults to regen_rate=0.2, union selection.
        stream = make_model(
            "disthd-stream", dim=256, reservoir_size=400, regen_every=5,
            seed=SEED,
        )
        classes = np.arange(ds.n_classes)
        rng = np.random.default_rng(SEED)
        for _ in range(5):
            order = rng.permutation(ds.n_train)
            for start in range(0, ds.n_train, 64):
                idx = order[start : start + 64]
                stream.partial_fit(
                    ds.train_x[idx], ds.train_y[idx], classes=classes
                )
        return (
            batch.score(ds.test_x, ds.test_y),
            stream.score(ds.test_x, ds.test_y),
        )

    batch_acc, stream_acc = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\n=== Extension: streaming vs batch DistHD (PAMAP2 analog) ===")
    print(f"  batch   : {batch_acc:.4f}")
    print(f"  streaming: {stream_acc:.4f}")
    assert stream_acc > batch_acc - 0.08, (
        "streaming training must approach batch accuracy"
    )


def test_extension_quantized_deployment(benchmark):
    def run():
        ds = bench_dataset("ucihar")
        clf = make_disthd(dim=512).fit(ds.train_x, ds.train_y)
        float_acc = clf.score(ds.test_x, ds.test_y)
        rows = []
        for bits in (8, 4, 2, 1):
            model = QuantizedHDCModel(clf, bits=bits)
            rows.append(
                {
                    "bits": bits,
                    "accuracy": model.score(ds.test_x, ds.test_y),
                    "memory_bytes": model.memory_bytes,
                    "compression_vs_float": model.footprint_report()["compression"],
                }
            )
        packed = QuantizedHDCModel(clf, bits=1, packed=True)
        rows.append(
            {
                "bits": "1 (packed)",
                "accuracy": packed.score(ds.test_x, ds.test_y),
                "memory_bytes": packed.memory_bytes,
                "compression_vs_float": packed.footprint_report()["compression"],
            }
        )
        packed_report = packed.footprint_report()
        return float_acc, rows, packed_report

    float_acc, rows, packed_report = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    print("\n=== Extension: fixed-point deployment (UCIHAR analog) ===")
    print(f"  float reference accuracy: {float_acc:.4f}")
    print(format_markdown_table(rows, precision=3))

    by_bits = {r["bits"]: r for r in rows}
    # 8-bit deployment is accuracy-free; 1-bit costs at most a few points
    # while compressing the class memory storage-width x (32x against the
    # float32 hot-path default — the footprint report measures against
    # the base memory's actual dtype, not a hard-coded float64).
    assert by_bits[8]["accuracy"] > float_acc - 0.01
    assert by_bits[1]["accuracy"] > float_acc - 0.06
    assert by_bits[1]["compression_vs_float"] > 30
    assert by_bits[1]["memory_bytes"] < by_bits[8]["memory_bytes"]
    # Bit-packing stores 64 cells per uint64 word: ~64x below the int8
    # artifact (exactly 64x when D % 64 == 0, as here at D=512) and ~64x
    # below the unpacked 1-bit float64 serving image.
    packed_row = by_bits["1 (packed)"]
    assert by_bits[8]["memory_bytes"] / packed_row["memory_bytes"] == 8.0
    assert packed_report["compression_vs_unpacked"] == 64.0
    assert packed_row["accuracy"] > float_acc - 0.10

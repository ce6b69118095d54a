"""Quickstart: train DistHD on a dataset analog in a dozen lines.

Run with::

    python examples/quickstart.py
"""

from repro import load_dataset, make_model

def main() -> None:
    # A scaled-down synthetic analog of the UCIHAR activity-recognition
    # dataset (561 features, 12 classes): the real data needs a download,
    # and the analog keeps its feature and class counts (repro.datasets).
    dataset = load_dataset("ucihar", scale=0.10, seed=0)
    print(
        f"dataset: {dataset.name}  "
        f"{dataset.n_train} train / {dataset.n_test} test samples, "
        f"{dataset.n_features} features, {dataset.n_classes} classes"
    )

    # Any registered model is one make_model call away; DistHD with the
    # paper's defaults: D=500 physical dimensions, 10% regeneration rate,
    # top-2-driven dimension regeneration.
    clf = make_model("disthd", dim=500, iterations=20, seed=0)
    clf.fit(dataset.train_x, dataset.train_y)

    accuracy = clf.score(dataset.test_x, dataset.test_y)
    print(f"test accuracy: {accuracy:.3f}")
    print(f"physical dimensionality D: {clf.config.dim}")
    print(f"effective dimensionality D* (after regeneration): {clf.effective_dim_}")
    print(f"iterations run: {clf.n_iterations_}")

    # The training history records the dynamic-encoding activity.
    total_regen = clf.history_.total_regenerated
    print(f"dimensions regenerated during training: {total_regen}")

    # Top-2 predictions (the signal DistHD's regeneration is driven by).
    top2 = clf.predict_topk(dataset.test_x[:5], k=2)
    print("first five top-2 predictions:")
    for i, pair in enumerate(top2):
        print(f"  sample {i}: {pair[0]} (best) / {pair[1]} (runner-up)"
              f"   true={dataset.test_y[i]}")


if __name__ == "__main__":
    main()

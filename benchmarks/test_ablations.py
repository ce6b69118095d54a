"""Ablations — the design choices the paper leaves open.

Not figures from the paper; these quantify the under-specified decisions:

- incorrect-sample scoring rule: §III-C prose vs Algorithm-2 box;
- candidate-set combination: intersection (paper) vs union / single-matrix;
- regeneration rate sweep;
- rebundle-on-regen (our completion of "regenerate for positive impact")
  vs reset-and-heal;
- α/β weight ratio.
"""

import numpy as np

from common import SEED, bench_dataset, make_disthd, make_onlinehd
from repro.pipeline.report import format_markdown_table

_cache = {}


def _fit_score(**overrides):
    ds = bench_dataset("isolet")
    accs = []
    for seed in (0, 1):
        clf = make_disthd(seed=seed, **overrides).fit(ds.train_x, ds.train_y)
        accs.append(clf.score(ds.test_x, ds.test_y))
    return float(np.mean(accs))


def test_ablation_incorrect_rule(benchmark):
    def run():
        return {
            "prose": _fit_score(incorrect_rule="prose"),
            "algorithm-box": _fit_score(incorrect_rule="algorithm-box"),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\n=== Ablation: incorrect-sample scoring rule ===")
    for rule, acc in results.items():
        print(f"  {rule:15s} {acc:.4f}")
    # Both are functional; the prose rule (our default) must not lose badly.
    assert results["prose"] >= results["algorithm-box"] - 0.03


def test_ablation_selection_policy(benchmark):
    def run():
        return {
            policy: _fit_score(selection=policy)
            for policy in ("intersection", "union", "m-only", "n-only")
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\n=== Ablation: candidate-set combination policy ===")
    for policy, acc in results.items():
        print(f"  {policy:14s} {acc:.4f}")
    # The paper's intersection avoids over-elimination: it must be at least
    # as good as the aggressive union.
    assert results["intersection"] >= results["union"] - 0.02


def test_ablation_regen_rate(benchmark):
    rates = (0.0, 0.05, 0.1, 0.2, 0.4)

    def run():
        return [(_fit_score(regen_rate=r), r) for r in rates]

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\n=== Ablation: regeneration rate R ===")
    rows = [{"R": r, "accuracy": acc} for acc, r in results]
    print(format_markdown_table(rows))
    accs = dict((r, acc) for acc, r in results)
    # Moderate regeneration must not hurt relative to a static encoder, and
    # the paper's default (0.1) should sit at or near the top.
    best = max(accs.values())
    assert accs[0.1] >= best - 0.02


def test_ablation_rebundle_on_regen(benchmark):
    def run():
        return {
            "rebundle": _fit_score(rebundle_on_regen=True),
            "reset-and-heal": _fit_score(rebundle_on_regen=False),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\n=== Ablation: regenerated-column initialisation ===")
    for mode, acc in results.items():
        print(f"  {mode:15s} {acc:.4f}")
    assert results["rebundle"] >= results["reset-and-heal"] - 0.02


def test_ablation_adaptive_vs_regeneration(benchmark):
    """Decompose DistHD's gain: adaptive-only (OnlineHD) vs adaptive+regen."""
    def run():
        ds = bench_dataset("isolet")
        accs = {"OnlineHD (no regen)": [], "DistHD": []}
        for seed in (0, 1):
            accs["OnlineHD (no regen)"].append(
                make_onlinehd(seed=seed).fit(ds.train_x, ds.train_y).score(
                    ds.test_x, ds.test_y
                )
            )
            accs["DistHD"].append(
                make_disthd(seed=seed).fit(ds.train_x, ds.train_y).score(
                    ds.test_x, ds.test_y
                )
            )
        return {k: float(np.mean(v)) for k, v in accs.items()}

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\n=== Ablation: adaptive learning vs + dimension regeneration ===")
    for name, acc in results.items():
        print(f"  {name:22s} {acc:.4f}")
    assert results["DistHD"] >= results["OnlineHD (no regen)"] - 0.01


def test_ablation_alpha_beta_ratio(benchmark):
    def run():
        return {
            "alpha/beta=0.5": _fit_score(alpha=0.5, beta=1.0, theta=0.25),
            "alpha/beta=1": _fit_score(alpha=1.0, beta=1.0, theta=0.25),
            "alpha/beta=2": _fit_score(alpha=2.0, beta=1.0, theta=0.25),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\n=== Ablation: alpha/beta weight ratio ===")
    for name, acc in results.items():
        print(f"  {name:15s} {acc:.4f}")
    # All settings must stay in a tight accuracy band (the ratio trades
    # sensitivity vs specificity, not raw accuracy — paper Fig. 6).
    values = list(results.values())
    assert max(values) - min(values) < 0.05

"""Tests for repro.core.config.DistHDConfig."""

import pytest

from repro.core.config import DistHDConfig


class TestDefaults:
    def test_paper_defaults(self):
        cfg = DistHDConfig()
        assert cfg.dim == 500
        assert cfg.regen_rate == pytest.approx(0.10)
        assert cfg.theta < cfg.beta
        assert cfg.selection == "intersection"
        assert cfg.incorrect_rule == "prose"

    def test_with_overrides_returns_copy(self):
        cfg = DistHDConfig()
        other = cfg.with_overrides(dim=1000)
        assert other.dim == 1000
        assert cfg.dim == 500

    def test_with_overrides_validates(self):
        with pytest.raises(ValueError, match="dim"):
            DistHDConfig().with_overrides(dim=-1)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"dim": 0}, "dim"),
            ({"lr": 0.0}, "lr"),
            ({"alpha": -1.0}, "non-negative"),
            ({"theta": 2.0, "beta": 1.0}, "theta < beta"),
            ({"regen_rate": 1.5}, "regen_rate"),
            ({"iterations": 0}, "iterations"),
            ({"batch_size": 0}, "batch_size"),
            ({"bandwidth": 0.0}, "bandwidth"),
            ({"incorrect_rule": "bogus"}, "incorrect_rule"),
            ({"normalization": "bogus"}, "normalization"),
            ({"selection": "bogus"}, "selection"),
            ({"convergence_patience": 0}, "convergence_patience"),
            ({"convergence_tol": -0.1}, "convergence_tol"),
            ({"reservoir_size": 0}, "reservoir"),
            ({"regen_every": 0}, "regen_every"),
        ],
    )
    def test_rejects(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            DistHDConfig(**kwargs)

    def test_theta_equal_beta_rejected(self):
        """Paper requires strict theta < beta."""
        with pytest.raises(ValueError):
            DistHDConfig(beta=0.5, theta=0.5)

    def test_patience_none_allowed(self):
        assert DistHDConfig(convergence_patience=None).convergence_patience is None

    def test_zero_regen_allowed(self):
        assert DistHDConfig(regen_rate=0.0).regen_rate == 0.0


class TestEffectiveDim:
    def test_paper_formula(self):
        """D* = D + D·R%·iterations: 0.5k at R=10% over 70 iters gives 4k."""
        cfg = DistHDConfig(dim=500, regen_rate=0.10, iterations=70)
        assert cfg.effective_dim() == pytest.approx(4000.0)

    def test_custom_iterations(self):
        cfg = DistHDConfig(dim=100, regen_rate=0.5)
        assert cfg.effective_dim(iterations=4) == pytest.approx(300.0)

"""Unit tests for the autoscaler's policy configuration."""

import pytest

from repro.scaling import AutoScalerConfig

NAN = float("nan")
INF = float("inf")


class TestAutoScalerConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("budget", NAN),
            ("budget", INF),
            ("budget", 0.0),
            ("up_threshold", NAN),
            ("up_threshold", INF),
            ("up_threshold", 0.0),
            ("down_threshold", NAN),
            ("down_threshold", -0.1),
            ("down_threshold", 1.0),
            ("breach_ticks", 0),
            ("cold_ticks", 0),
            ("cooldown", -1),
            ("reopt_hold", -1),
            ("k_max", 0),
            ("target_util", NAN),
            ("target_util", 0.0),
            ("alpha", NAN),
            ("alpha", 0.0),
            ("alpha", 1.5),
        ],
    )
    def test_rejects_bad_value_at_construction(self, field, value):
        # NaN fails every comparison, so a NaN budget or threshold would
        # silently stop the scaler from ever acting; a zero tick count
        # would scale on every tick.
        with pytest.raises(ValueError, match=field):
            AutoScalerConfig(**{field: value})

    def test_boundary_values_accepted(self):
        AutoScalerConfig(
            down_threshold=0.0,
            breach_ticks=1,
            cold_ticks=1,
            cooldown=0,
            k_max=1,
            target_util=1.0,
            alpha=1.0,
        )

"""The training recipe: `TrainConfig`, the gate phase's `iog_config` and
`CHOICES`. It imports only the standard library, so the command line can
be parsed, and `--threads` applied, before numpy loads."""

import math
from dataclasses import dataclass, asdict, replace

# The allowed values of TrainConfig's choice fields, and the CLI flags' choices.
CHOICES = {
    "phase": ("base", "iog"),
    "optimizer": ("sgd", "adam"),
    "lr_schedule": ("inverse_sqrt_epoch", "constant", "step"),
    "gate_variant": ("input_only", "with_hidden", "lstm_gate"),
}


@dataclass(frozen=True)
class TrainConfig:
    """One training run's settings, frozen and checked when built: a bad field
    raises a `ValueError` naming it from `TrainConfig(...)` or `replace`."""

    phase: str = "base"
    batch_size: int = 20
    bptt_length: int = 35
    max_epochs: int = 10
    optimizer: str = "sgd"
    initial_lr: float = 1.0
    lr_schedule: str = "step"
    lr_step_factor: float = 0.5
    lr_step_start: int = 5
    dropout_rate: float = 0.0
    grad_clip_norm: float = 5.0
    seed: int = 0
    d_g: int = 300
    gate_variant: str = "input_only"

    def __post_init__(self):
        self.validate()

    def validate(self) -> "TrainConfig":
        for key, allowed in CHOICES.items():
            value = getattr(self, key)
            if value not in allowed:
                raise ValueError(f"unknown {key} {value!r}, expected one of {allowed}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if min(self.batch_size, self.bptt_length, self.max_epochs, self.d_g) < 1:
            raise ValueError("batch_size, bptt_length, max_epochs, and d_g must be positive")
        for key in ("initial_lr", "grad_clip_norm", "seed", "lr_step_start"):
            value = getattr(self, key)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{key} must be finite and non-negative, got {value}")
        if not 0.0 < self.lr_step_factor < math.inf:
            raise ValueError(f"lr_step_factor must be finite and positive, "
                             f"got {self.lr_step_factor}")
        return self

    def to_dict(self) -> dict:
        return asdict(self)


def iog_config(**overrides) -> TrainConfig:
    """The gate-training recipe: Adam at 0.001 with 1/sqrt(epoch) decay,
    dropout 50% on the gate embedding, at most 5 epochs, gate width 300.
    Batch size and block length default to the base phase's values."""
    cfg = TrainConfig(phase="iog", max_epochs=5, optimizer="adam", initial_lr=0.001,
                      lr_schedule="inverse_sqrt_epoch", dropout_rate=0.5)
    return replace(cfg, **overrides)

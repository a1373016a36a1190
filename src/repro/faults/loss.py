"""Pluggable per-transmission loss models.

The paper's network model drops each transmission independently with
probability ε (Bernoulli loss).  Real wireless and overlay links lose
packets in *bursts*: once a link degrades it tends to stay degraded for a
while.  The classic two-state Gilbert--Elliott chain captures this with
four parameters and reduces to Bernoulli loss when the two states have the
same loss probability.

Models are stateful per link and draw exclusively from the injected
``random.Random`` -- the shared ``"loss"`` stream -- so runs remain
deterministic and replayable.  A model is the loss component of a link
or of the out-of-band channel, in place of the network's shared
:class:`BernoulliLoss`; the ``LossModel`` protocol and ``BernoulliLoss``
live with the links in :mod:`repro.network.link` and are re-exported here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.network.link import BernoulliLoss, LossModel

__all__ = [
    "BernoulliLoss",
    "GilbertElliottConfig",
    "GilbertElliottFactory",
    "GilbertElliottLoss",
    "LossModel",
]


@dataclass(frozen=True)
class GilbertElliottConfig:
    """Parameters of the two-state Gilbert--Elliott burst-loss chain.

    The channel is either GOOD or BAD; each transmission first makes one
    state-transition draw (GOOD→BAD with ``p_good_bad``, BAD→GOOD with
    ``p_bad_good``) and is then lost with the loss probability of the
    resulting state.  The stationary fraction of time spent BAD is
    ``p_good_bad / (p_good_bad + p_bad_good)`` and the mean burst length is
    ``1 / p_bad_good`` transmissions.
    """

    #: Per-transmission probability of entering the BAD state from GOOD.
    p_good_bad: float
    #: Per-transmission probability of returning to GOOD from BAD.
    p_bad_good: float
    #: Loss probability while GOOD (0 for the classic Gilbert model).
    loss_good: float = 0.0
    #: Loss probability while BAD (1 for the classic Gilbert model).
    loss_bad: float = 1.0

    def __post_init__(self) -> None:
        for name in ("p_good_bad", "p_bad_good", "loss_good", "loss_bad"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.p_good_bad + self.p_bad_good <= 0.0:
            raise ValueError("p_good_bad + p_bad_good must be positive")
        if self.loss_bad < self.loss_good:
            raise ValueError("loss_bad must be >= loss_good")

    def stationary_loss_rate(self) -> float:
        """Long-run loss fraction ε equivalent to this chain."""
        pi_bad = self.p_good_bad / (self.p_good_bad + self.p_bad_good)
        return pi_bad * self.loss_bad + (1.0 - pi_bad) * self.loss_good

    def mean_burst_length(self) -> float:
        """Expected number of consecutive transmissions spent BAD."""
        return 1.0 / self.p_bad_good if self.p_bad_good > 0.0 else float("inf")

    @classmethod
    def from_epsilon(
        cls,
        epsilon: float,
        mean_burst_length: float = 5.0,
        loss_bad: float = 1.0,
        loss_good: float = 0.0,
    ) -> "GilbertElliottConfig":
        """Build a chain whose stationary loss rate equals the paper's ε.

        Solves ``ε = π_bad·loss_bad + (1−π_bad)·loss_good`` for π_bad, then
        fixes the BAD-state dwell time to ``mean_burst_length``
        transmissions.  This makes burst-loss runs directly comparable to
        the paper's Bernoulli curves at the same average loss.
        """
        if not loss_good <= epsilon <= loss_bad:
            raise ValueError(
                f"epsilon must be in [loss_good, loss_bad] = "
                f"[{loss_good}, {loss_bad}], got {epsilon}"
            )
        if mean_burst_length < 1.0:
            raise ValueError("mean_burst_length must be >= 1 transmission")
        pi_bad = (epsilon - loss_good) / (loss_bad - loss_good)
        p_bad_good = 1.0 / mean_burst_length
        if pi_bad >= 1.0:
            raise ValueError("epsilon == loss_bad leaves no GOOD state")
        p_good_bad = pi_bad * p_bad_good / (1.0 - pi_bad)
        if p_good_bad > 1.0:
            raise ValueError(
                "epsilon too close to loss_bad for this burst length; "
                "shorten mean_burst_length or raise loss_bad"
            )
        return cls(
            p_good_bad=p_good_bad,
            p_bad_good=p_bad_good,
            loss_good=loss_good,
            loss_bad=loss_bad,
        )


class GilbertElliottLoss:
    """Stateful per-link instance of the Gilbert--Elliott chain.

    Starts GOOD.  Counts BAD-entry transitions and in-model drops so
    ``FaultStats`` can report burstiness without touching the hot path.
    """

    __slots__ = ("config", "bad", "transitions", "drops")

    def __init__(self, config: GilbertElliottConfig) -> None:
        self.config = config
        self.bad = False
        self.transitions = 0
        self.drops = 0

    def should_drop(self, rng: random.Random) -> bool:
        config = self.config
        if self.bad:
            if rng.random() < config.p_bad_good:
                self.bad = False
        elif rng.random() < config.p_good_bad:
            self.bad = True
            self.transitions += 1
        loss = config.loss_bad if self.bad else config.loss_good
        if loss > 0.0 and rng.random() < loss:
            self.drops += 1
            return True
        return False

    def __repr__(self) -> str:
        state = "BAD" if self.bad else "GOOD"
        return f"GilbertElliottLoss({self.config!r}, state={state})"


class GilbertElliottFactory:
    """Per-link model factory handed to ``Network`` at construction.

    ``Network.add_link`` calls the factory once per link so every link gets
    an independent channel state; the factory keeps the instances so the
    builder can aggregate burst counters into ``FaultStats`` afterwards.
    """

    def __init__(self, config: GilbertElliottConfig) -> None:
        self.config = config
        self.models: list[GilbertElliottLoss] = []

    def __call__(self, node_a: int, node_b: int) -> GilbertElliottLoss:
        model = GilbertElliottLoss(self.config)
        self.models.append(model)
        return model

    @property
    def transitions(self) -> int:
        return sum(model.transitions for model in self.models)

    @property
    def drops(self) -> int:
        return sum(model.drops for model in self.models)

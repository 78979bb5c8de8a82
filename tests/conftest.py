"""Shared fixtures. The session-scoped training run backs the acceptance
suite; everything else builds its own small worlds."""

import contextlib
import time
from types import SimpleNamespace

import pytest

from gvqa.model import ModelConfig, init_params
from gvqa.synth import (
    SynthConfig,
    fit_diagnostics,
    generate,
    split_by_video,
    split_diagnostic,
)
from gvqa.trainer import InsufficientPool, TrainConfig, train

# the calibrated end-to-end recipe: defaults-scale data, both objectives
RECOVERY_SYNTH = SynthConfig(seed=7)
RECOVERY_SCHEDULES = {
    "ng": TrainConfig(objective="ng", stages=1, epochs=60, patience=10,
                      lr=2e-3, gamma=0.8, seed=3),
    "ng+": TrainConfig(objective="ng+", stages=2, epochs=60, patience=10,
                       lr=2e-3, gamma=0.8, seed=3),
}


@pytest.fixture(scope="session")
def recovery_run():
    """Train NG and NG+ on the default synthetic scale once per session.

    Returns episodes, both trained parameter sets, the diagnostic split of
    the validation questions, and the wall-clock cost of the whole thing.
    """
    t0 = time.perf_counter()
    episodes = generate(RECOVERY_SYNTH)
    train_eps, val_eps = split_by_video(episodes, 0.15, seed=0)
    model_cfg = ModelConfig(d_v=RECOVERY_SYNTH.d_v, d_t=RECOVERY_SYNTH.d_t, width=64)

    params = {}
    history = {}
    for name, schedule in RECOVERY_SCHEDULES.items():
        # NG+ runs out of same-video negatives for some minibatches
        fallback = (pytest.warns(InsufficientPool) if schedule.objective == "ng+"
                    else contextlib.nullcontext())
        with fallback:
            best, hist = train(init_params(model_cfg, seed=1), train_eps, schedule,
                               val_episodes=val_eps)
        params[name] = best
        history[name] = hist

    blind, pos, neg = fit_diagnostics(train_eps)
    split = split_diagnostic(val_eps, blind, pos, neg)
    elapsed = time.perf_counter() - t0
    return SimpleNamespace(
        synth=RECOVERY_SYNTH,
        train_eps=train_eps,
        val_eps=val_eps,
        params=params,
        history=history,
        split=split,
        gamma=RECOVERY_SCHEDULES["ng"].gamma,
        elapsed=elapsed,
    )

"""Optimizer, negative sampling and training-loop behavior."""

import csv
import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

from gvqa import synth
from gvqa import trainer as trainer_module
from gvqa.gaussian import GaussianMask, confidence_interval
from gvqa.metrics import Prediction, evaluate
from gvqa.model import ModelConfig, init_params, predict_episode
from gvqa.synth import NotSynthetic, SynthConfig, episodes_to_labels, generate, split_by_video
from gvqa.temporal import VideoExtent
from gvqa.trainer import (
    HISTORY_COLUMNS,
    Adam,
    ConfigError,
    InsufficientPool,
    NegativePool,
    NonFiniteLoss,
    TrainConfig,
    sample_negatives,
    train,
    write_history_csv,
)

# small world shared by the loop tests: 3 answers so 2 negatives suffice
SCFG = SynthConfig(n_episodes=80, n_answers=3, seed=13)
MCFG = ModelConfig(d_v=SCFG.d_v, d_t=SCFG.d_t, width=32)


@pytest.fixture(scope="module")
def world():
    eps = generate(SCFG)
    train_eps, val_eps = split_by_video(eps, 0.2, seed=0)
    return eps, train_eps, val_eps


def fresh_params(seed=1):
    return init_params(MCFG, seed=seed)


# --- config ----------------------------------------------------------------------

def test_config_validation():
    for kwargs in (
        {"objective": "nope"},
        {"objective": "ng", "stages": 2},
        {"stages": 3, "objective": "ng+"},
        {"epochs": 0},
        {"batch": 0},
        {"patience": 0},
        {"lr": -1e-3},
        {"alpha": -0.5},
        {"p_same_video": 1.5},
        {"p_pos_swap": -0.1},
        {"gamma": 0.0},
    ):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)


def _int_fields(cls):
    return [f"{cls.__name__}.{f.name}" for f in dataclasses.fields(cls) if f.type == "int"]


@pytest.mark.parametrize("value", [2.5, np.float64(3.0)], ids=["2.5", "float64"])
@pytest.mark.parametrize("target", [*_int_fields(TrainConfig), *_int_fields(SynthConfig)])
def test_integer_field_rejects_a_float_naming_it(target, value):
    # a float count used to pass the range checks and fail later, in train
    # or generate, as a TypeError from range or numpy
    owner, name = target.split(".")
    with pytest.raises(ConfigError, match=f"^{name} must be an integer, got "):
        {"TrainConfig": TrainConfig, "SynthConfig": SynthConfig}[owner](**{name: value})


@pytest.mark.parametrize("cls,name", [(TrainConfig, "seed"), (SynthConfig, "seed"),
                                      (SynthConfig, "n_pos_variants")])
def test_negative_seed_or_variant_count_rejected(cls, name):
    # a negative seed used to fail inside numpy; -1 variants silently meant 0
    with pytest.raises(ConfigError, match=f"^{name} must be >= 0, got -1$"):
        cls(**{name: -1})


def _float_fields(cls):
    return [f"{cls.__name__}.{f.name}" for f in dataclasses.fields(cls) if f.type == "float"]


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("target", [*_float_fields(TrainConfig), *_float_fields(SynthConfig),
                                    "confidence_interval.gamma"])
def test_non_finite_float_rejected_naming_it(target, value):
    """Every float setting, and the window multiplier of confidence_interval,
    rejects NaN and inf with an error that names it."""
    owner, name = target.split(".")
    with pytest.raises(ValueError, match=name):
        if owner == "confidence_interval":
            confidence_interval(GaussianMask(0.5, 0.1), VideoExtent(40.0), value)
        else:
            {"TrainConfig": TrainConfig, "SynthConfig": SynthConfig}[owner](**{name: value})


def test_config_error_is_the_synth_class():
    assert ConfigError is synth.ConfigError


# --- Adam ------------------------------------------------------------------------

def test_adam_matches_reference_updates():
    w = np.array([1.0, 2.0])
    opt = Adam({"w": w}, lr=0.1)
    grads = [np.array([1.0, -1.0]), np.array([0.5, 0.5]), np.array([-2.0, 0.0])]

    ref = np.array([1.0, 2.0])
    m = np.zeros(2)
    v = np.zeros(2)
    for t, g in enumerate(grads, start=1):
        opt.step({"w": g})
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        ref -= 0.1 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
        assert np.allclose(w, ref, atol=1e-12)


def test_adam_zero_grad_is_noop():
    w = np.array([3.0])
    opt = Adam({"w": w}, lr=0.1)
    for _ in range(4):
        opt.step({"w": np.zeros(1)})
    assert w[0] == 3.0


class PerArrayAdam:
    """The per-array Adam update, a dozen numpy calls per array, with the
    gradients scaled before it: the reference the flat Adam must match bit
    for bit."""

    def __init__(self, arrays, lr):
        self.arrays, self.lr, self.t = arrays, lr, 0
        self.m = {k: np.zeros_like(v) for k, v in arrays.items()}
        self.v = {k: np.zeros_like(v) for k, v in arrays.items()}

    def step(self, grads, scale=1.0):
        for name, g in grads.items():
            if not np.all(np.isfinite(g)):
                raise NonFiniteLoss(f"non-finite gradient {name}")
        self.t += 1
        b1t = 1.0 - trainer_module.ADAM_BETA1**self.t
        b2t = 1.0 - trainer_module.ADAM_BETA2**self.t
        for name, g in grads.items():
            g = g * scale
            m = self.m[name]
            v = self.v[name]
            m *= trainer_module.ADAM_BETA1
            m += (1.0 - trainer_module.ADAM_BETA1) * g
            v *= trainer_module.ADAM_BETA2
            v += (1.0 - trainer_module.ADAM_BETA2) * g * g
            self.arrays[name] -= (self.lr * (m / b1t)
                                  / (np.sqrt(v / b2t) + trainer_module.ADAM_EPS))


# 0-d, 1-d and 2-d, as a_mu, b_v and W_q are
ADAM_SHAPES = {"a_mu": (), "b_v": (5,), "W_q": (5, 3)}


def adam_pair(rng, lr=0.01):
    start = {k: np.array(rng.normal(size=s)) for k, s in ADAM_SHAPES.items()}
    flat_arrays = {k: v.copy() for k, v in start.items()}
    ref_arrays = {k: v.copy() for k, v in start.items()}
    return flat_arrays, Adam(flat_arrays, lr), ref_arrays, PerArrayAdam(ref_arrays, lr)


def adam_grads(rng):
    # magnitudes over eight decades, so the moments' roundings vary
    return {k: np.array(rng.normal(size=s) * 10.0 ** rng.integers(-4, 4))
            for k, s in ADAM_SHAPES.items()}


def test_flat_adam_matches_the_per_array_update_bit_for_bit():
    rng = np.random.default_rng(4)
    flat_arrays, flat, ref_arrays, ref = adam_pair(rng)
    held = dict(flat_arrays)
    for t in range(1, 7):
        grads = adam_grads(rng)
        given = {k: g.copy() for k, g in grads.items()}
        flat.step(grads, scale=1.0 / 3.0)
        ref.step(grads, scale=1.0 / 3.0)
        assert flat.t == ref.t == t
        for i, k in enumerate(flat.names):
            assert flat_arrays[k] is held[k] and flat_arrays[k].shape == ADAM_SHAPES[k]
            assert np.array_equal(flat_arrays[k], ref_arrays[k]), (t, k)
            assert np.array_equal(flat.m[flat.slices[i]], ref.m[k].ravel()), (t, k)
            assert np.array_equal(flat.v[flat.slices[i]], ref.v[k].ravel()), (t, k)
            assert np.array_equal(grads[k], given[k]), "step changed a gradient"


def test_flat_adam_non_finite_gradient_changes_nothing():
    rng = np.random.default_rng(5)
    flat_arrays, flat, ref_arrays, ref = adam_pair(rng)
    grads = adam_grads(rng)
    flat.step(grads, scale=0.5)
    ref.step(grads, scale=0.5)
    before = (flat.t, flat.m.copy(), flat.v.copy(), {k: v.copy() for k, v in flat_arrays.items()})
    bad = adam_grads(rng)
    bad["b_v"][2] = np.nan
    bad["W_q"][1, 1] = np.inf  # later in the arrays' order than b_v
    with pytest.raises(NonFiniteLoss, match="^non-finite gradient b_v$"):
        flat.step(bad, scale=0.5)
    assert flat.t == before[0]
    assert np.array_equal(flat.m, before[1]) and np.array_equal(flat.v, before[2])
    for k, v in before[3].items():
        assert np.array_equal(flat_arrays[k], v), k
    # the failed step left no trace: the next one is the reference's second
    grads = adam_grads(rng)
    flat.step(grads, scale=0.5)
    ref.step(grads, scale=0.5)
    for k in ADAM_SHAPES:
        assert np.array_equal(flat_arrays[k], ref_arrays[k]), k


# --- negative sampling -------------------------------------------------------------

def test_sample_negatives_distinct_and_counted(world):
    eps, train_eps, _ = world
    pool = NegativePool(train_eps)
    rng = np.random.default_rng(0)
    picks = sample_negatives(pool, np.arange(20), 2, 0.3, rng)
    assert picks.shape == (20, 2)
    for i, row in enumerate(picks):
        ids = [train_eps[p].question_id for p in row]
        assert len(set(ids)) == 2
        assert train_eps[i].question_id not in ids
        for q in pool.questions[row]:
            assert not np.array_equal(q, train_eps[i].question)


def test_same_video_rate_monte_carlo(world):
    """Each negative slot picks a same-video question with the configured
    probability; measured over 10^4 draws, in minibatches of 100."""
    _, train_eps, _ = world
    pool = NegativePool(train_eps)
    rng = np.random.default_rng(42)
    same = 0
    total = 0
    for _ in range(50):
        picks = sample_negatives(pool, np.zeros(100, dtype=int), 2, 0.3, rng)
        same += int(np.sum(pool.videos[picks] == pool.videos[0]))
        total += picks.size
    assert total == 10_000
    assert abs(same / total - 0.3) < 0.02


def test_exhaustion_falls_back_with_warning(world):
    _, train_eps, _ = world
    pool = NegativePool(train_eps)
    rng = np.random.default_rng(1)
    siblings = sum(ep.video_id == train_eps[0].video_id for ep in train_eps[1:])
    # 3 siblings available but 5 slots forced to same-video
    assert siblings == 3
    with pytest.warns(InsufficientPool):
        (picks,) = sample_negatives(pool, [0], 5, 1.0, rng)
    assert len({train_eps[p].question_id for p in picks}) == 5
    assert pool.fallbacks == 5 - siblings


def test_pools_exhausted_raises(world):
    eps, _, _ = world
    two = eps[:2]  # same video, one candidate each
    pool = NegativePool(two)
    with pytest.raises(ConfigError):
        sample_negatives(pool, [0], 3, 0.0, np.random.default_rng(0))


def test_empty_pool_rejected():
    with pytest.raises(ConfigError):
        NegativePool([])


def _scan_sample_negatives(entries, positions, count, p_same_video, rng):
    """The scalar list-scan definition of one minibatch's draw over a pool of
    (question id, video id) entries: the same flags and the uniforms of the
    whole minibatch, then per episode and slot a tentative pick that stands
    unless it conflicts, and a conflict redrawn from the candidates, each
    list rebuilt from the whole pool in pool order. Returns the positions
    and the number of same-video slots that fell back."""
    b = len(positions)
    same = [[rng.random() < p_same_video for _ in range(count)] for _ in range(b)]
    u = [[rng.random() for _ in range(count)] for _ in range(b)]
    out = []
    warned = False
    fallbacks = 0
    for e, p0 in enumerate(positions):
        qid, vid = entries[p0]
        others = [p for p, (_, v) in enumerate(entries) if v == vid and p != p0]
        picked = [qid]
        row = []
        for j in range(count):
            if same[e][j]:
                pick = others[int(u[e][j] * len(others))] if others else None
            else:
                pick = int(u[e][j] * len(entries))
                if entries[pick][1] == vid:
                    pick = None
            if pick is None or entries[pick][0] in picked:
                same_c = [p for p, (q, v) in enumerate(entries) if v == vid and q not in picked]
                cross_c = [p for p, (q, v) in enumerate(entries) if v != vid and q not in picked]
                if same[e][j] and not same_c:
                    if not warned:
                        warnings.warn("same-video negatives exhausted; drawing cross-video",
                                      InsufficientPool)
                        warned = True
                    fallbacks += bool(cross_c)
                if same[e][j] and same_c:
                    cands = same_c
                elif cross_c:
                    cands = cross_c
                elif same_c:
                    cands = same_c
                else:
                    raise ConfigError("negative pools exhausted; need more episodes")
                pick = cands[int(rng.random() * len(cands))]
            picked.append(entries[pick][0])
            row.append(pick)
        out.append(row)
    return np.array(out, dtype=int).reshape(b, count), fallbacks


def _sampler_case(world, case):
    """The pool's episodes for one pool layout."""
    eps, train_eps, val_eps = world
    if case == "plain":
        return list(train_eps)
    if case == "shuffled":
        # a video's entries are not contiguous in the pool
        order = np.random.default_rng(5).permutation(len(train_eps))
        return [train_eps[i] for i in order]
    if case == "descriptive":
        # a pool that leaves questions out (as descriptive ones would be):
        # whole and partial sibling groups, down to videos with one entry
        return [ep for i, ep in enumerate(train_eps) if i % 3]
    if case == "duplicate_ids":
        # one id shared across two videos, another shared within a video
        first = train_eps[0]
        other = next(ep for ep in train_eps if ep.video_id != first.video_id)
        sibling = next(ep for ep in train_eps[1:] if ep.video_id == first.video_id)
        twins = [dataclasses.replace(other, question_id=first.question_id),
                 dataclasses.replace(sibling, question_id=train_eps[5].question_id)]
        return list(train_eps) + twins
    raise AssertionError(case)


@pytest.mark.parametrize("case", ["plain", "shuffled", "descriptive", "duplicate_ids"])
@pytest.mark.parametrize("p_same", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("count", [2, 5])
def test_sampler_matches_list_scan_stream(world, case, p_same, count):
    """Same positions, warnings and fallbacks, and the same generator state
    afterwards, as the scalar list-scan definition of the per-minibatch
    draw, over one permuted epoch in minibatches of 8; count 5 exhausts the
    3 siblings of a video."""
    pool_eps = _sampler_case(world, case)
    entries = [(ep.question_id, ep.video_id) for ep in pool_eps]
    pool = NegativePool(pool_eps)
    fast_rng = np.random.default_rng(11)
    scan_rng = np.random.default_rng(11)
    order = np.random.default_rng(3).permutation(len(pool_eps))
    scan_fallbacks = 0
    for lo in range(0, len(order), 8):
        index = order[lo:lo + 8]
        with warnings.catch_warnings(record=True) as fast_w:
            warnings.simplefilter("always")
            fast = sample_negatives(pool, index, count, p_same, fast_rng)
        with warnings.catch_warnings(record=True) as scan_w:
            warnings.simplefilter("always")
            scan, fell = _scan_sample_negatives(entries, index, count, p_same, scan_rng)
        scan_fallbacks += fell
        assert np.array_equal(fast, scan)
        assert [w.category for w in fast_w] == [w.category for w in scan_w]
        if count == 5 and p_same == 1.0:
            assert [w.category for w in fast_w] == [InsufficientPool]
    assert fast_rng.bit_generator.state == scan_rng.bit_generator.state
    assert pool.fallbacks == scan_fallbacks
    if p_same == 0.0:
        assert scan_fallbacks == 0
    if count == 5 and p_same == 1.0:
        assert scan_fallbacks > 0


# --- training loop ---------------------------------------------------------------

def test_lr_zero_keeps_params(world):
    _, train_eps, val_eps = world
    params = fresh_params()
    before = {k: v.copy() for k, v in params.arrays.items()}
    cfg = TrainConfig(objective="ng", epochs=2, lr=0.0, patience=10, seed=0)
    best, hist = train(params, train_eps, cfg, val_episodes=val_eps)
    for k, v in before.items():
        assert np.array_equal(best.arrays[k], v)


def test_flat_validation_stops_within_patience(world):
    _, train_eps, val_eps = world
    params = fresh_params()
    cfg = TrainConfig(objective="ng", epochs=50, lr=0.0, patience=5, seed=0)
    _, hist = train(params, train_eps, cfg, val_episodes=val_eps)
    # best at epoch 0, then exactly `patience` non-improving epochs
    assert len(hist) == 6


def test_single_episode_overfits(world):
    eps, _, _ = world
    one = [eps[0]]
    params = fresh_params()
    cfg = TrainConfig(objective="ng", epochs=150, lr=2e-3, patience=150, seed=0)
    _, hist = train(params, one, cfg, val_episodes=one)
    assert hist[-1]["loss"] < 0.01
    assert hist[-1]["acc_qa"] == 1.0


def test_seed_reproducibility(world):
    _, train_eps, val_eps = world
    cfg = TrainConfig(objective="ng+", stages=2, epochs=4, lr=1e-3, patience=10, seed=9)
    best1, hist1 = train(fresh_params(), train_eps, cfg, val_episodes=val_eps)
    best2, hist2 = train(fresh_params(), train_eps, cfg, val_episodes=val_eps)
    assert hist1 == hist2
    for k in best1.arrays:
        assert np.array_equal(best1.arrays[k], best2.arrays[k])

    cfg_other = TrainConfig(objective="ng+", stages=2, epochs=4, lr=1e-3, patience=10, seed=10)
    _, hist3 = train(fresh_params(), train_eps, cfg_other, val_episodes=val_eps)
    assert hist3 != hist1


def test_seed_reproducibility_ng(world):
    _, train_eps, val_eps = world
    cfg = TrainConfig(objective="ng", epochs=3, lr=1e-3, patience=10, seed=9)
    best1, hist1 = train(fresh_params(), train_eps, cfg, val_episodes=val_eps)
    best2, hist2 = train(fresh_params(), train_eps, cfg, val_episodes=val_eps)
    assert hist1 == hist2
    for k in best1.arrays:
        assert np.array_equal(best1.arrays[k], best2.arrays[k])


def test_train_matches_the_per_array_adam_bit_for_bit(world, monkeypatch):
    """A two-stage ng+ run, with a minibatch size that leaves a shorter tail,
    ends in the same bits and history under the flat Adam as under the
    per-array update fed pre-scaled gradients."""
    _, train_eps, val_eps = world
    cfg = TrainConfig(objective="ng+", stages=2, epochs=4, batch=24, lr=1e-3, patience=10,
                      seed=2)
    assert len(train_eps) % cfg.batch
    best_flat, hist_flat = train(fresh_params(), train_eps, cfg, val_episodes=val_eps)
    monkeypatch.setattr(trainer_module, "Adam", PerArrayAdam)
    best_ref, hist_ref = train(fresh_params(), train_eps, cfg, val_episodes=val_eps)
    assert hist_flat == hist_ref
    for k in best_ref.arrays:
        assert np.array_equal(best_flat.arrays[k], best_ref.arrays[k]), k


def test_two_stage_plan_and_answer_freeze(world):
    """Stage one trains only the grounding term: the answer projection must
    stay at its initial value until the joint stage begins."""
    _, train_eps, val_eps = world
    params = fresh_params()
    w_a_init = params.arrays["W_a"].copy()
    snaps = []

    def on_epoch(row):
        snaps.append((row["stage"], np.array_equal(params.arrays["W_a"], w_a_init)))

    cfg = TrainConfig(objective="ng+", stages=2, epochs=4, lr=1e-3, patience=10, seed=2)
    _, hist = train(params, train_eps, cfg, val_episodes=val_eps, on_epoch=on_epoch)
    stages = [r["stage"] for r in hist]
    assert stages == ["ground", "ground", "ng+", "ng+"]
    assert snaps[0] == ("ground", True)
    assert snaps[1] == ("ground", True)
    assert snaps[2][0] == "ng+" and not snaps[2][1]


def test_best_snapshot_comes_from_the_final_stage(world, monkeypatch):
    """A pretrain epoch that scores higher than every joint epoch must not
    supply the returned parameters: its answer head is untrained."""
    _, train_eps, val_eps = world
    scores = iter([0.9, 0.1, 0.3, 0.2])
    snapshots = []

    def scripted(params, episodes, labels, gamma):
        snapshots.append(params.copy())
        return {"acc_qa": 0.5, "acc_gqa": next(scores), "m_iop": 0.5, "m_iou": 0.5}

    monkeypatch.setattr(trainer_module, "_validate", scripted)
    cfg = TrainConfig(objective="ng+", stages=2, epochs=4, lr=1e-3, patience=10, seed=2)
    best, hist = train(fresh_params(), train_eps, cfg, val_episodes=val_eps)
    assert [r["stage"] for r in hist] == ["ground", "ground", "ng+", "ng+"]
    for k in best.arrays:
        assert np.array_equal(best.arrays[k], snapshots[2].arrays[k]), k


def test_single_stage_ngplus(world):
    _, train_eps, val_eps = world
    cfg = TrainConfig(objective="ng+", stages=1, epochs=2, lr=1e-3, patience=10, seed=2)
    _, hist = train(fresh_params(), train_eps, cfg, val_episodes=val_eps)
    assert [r["stage"] for r in hist] == ["ng+", "ng+"]


def test_empty_episodes_rejected(world):
    _, _, val_eps = world
    with pytest.raises(ConfigError):
        train(fresh_params(), [], TrainConfig(), val_episodes=val_eps)


def test_empty_validation_set_rejected_before_training(world, monkeypatch):
    # it used to train a full epoch, then fail in evaluate on the empty labels
    _, train_eps, _ = world
    monkeypatch.setattr(trainer_module, "loss_and_gradients", None)
    with pytest.raises(ConfigError, match="^no validation episodes$"):
        train(fresh_params(), train_eps, TrainConfig(objective="ng", epochs=1, seed=0),
              val_episodes=[])


def test_non_finite_loss_aborts(world):
    _, train_eps, val_eps = world
    params = fresh_params()
    params.arrays["W_v"][:] = np.nan
    cfg = TrainConfig(objective="ng", epochs=1, seed=0)
    with pytest.raises(NonFiniteLoss):
        train(params, train_eps, cfg, val_episodes=val_eps)


def test_non_finite_gradient_aborts_before_the_step(world, monkeypatch):
    # a finite loss with an infinite W_g gradient must not reach Adam
    _, train_eps, val_eps = world
    params = fresh_params()
    before = {k: v.copy() for k, v in params.arrays.items()}

    def inf_in_w_g(params, batch, **kwargs):
        grads = {k: np.zeros_like(v) for k, v in params.arrays.items()}
        grads["W_g"][0, 1] = np.inf
        grads["u"][0] = np.nan  # later in PARAM_NAMES order than W_g
        return 1.0, grads

    monkeypatch.setattr(trainer_module, "loss_and_gradients", inf_in_w_g)
    with pytest.raises(NonFiniteLoss, match=r"gradient W_g at epoch 0, batch starting 0, "
                                            r"stage ng"):
        train(params, train_eps, TrainConfig(objective="ng", epochs=1, seed=0),
              val_episodes=val_eps)
    for k, v in before.items():
        assert np.array_equal(params.arrays[k], v), k


def test_nan_head_in_a_minibatch_of_five_aborts(world):
    # one episode's non-finite frame makes its head output NaN: the batch
    # ends in NonFiniteLoss, not in GaussianMask's ValueError
    _, train_eps, val_eps = world
    five = [dataclasses.replace(ep, frames=ep.frames.copy()) for ep in train_eps[:5]]
    five[2].frames[3, 0] = np.nan
    cfg = TrainConfig(objective="ng+", epochs=1, batch=5, seed=0)
    with pytest.raises(NonFiniteLoss, match="loss at epoch 0, batch starting 0"):
        train(fresh_params(), five, cfg, val_episodes=val_eps)
    # finite frames scaled by 1e200 overflow the head to NaN the same way
    five[2].frames = train_eps[2].frames * 1e200
    with np.errstate(all="ignore"), pytest.raises(NonFiniteLoss, match="loss at epoch 0"):
        train(fresh_params(), five, cfg, val_episodes=val_eps)


def test_one_engine_call_per_minibatch(world, monkeypatch):
    _, train_eps, val_eps = world
    sizes = []
    real = trainer_module.loss_and_gradients

    def counting(params, batch, **kwargs):
        sizes.append(len(batch))
        return real(params, batch, **kwargs)

    monkeypatch.setattr(trainer_module, "loss_and_gradients", counting)
    train(fresh_params(), train_eps, TrainConfig(objective="ng", epochs=1, batch=16, seed=0),
          val_episodes=val_eps)
    n = len(train_eps)
    assert sizes == [16] * (n // 16) + ([n % 16] if n % 16 else [])


def test_ngplus_draw_order_matches_per_episode_loop(world, monkeypatch):
    """The negatives and positive questions of one ng+ epoch, recorded at
    the engine call, equal a replay of the draws: per minibatch, one sampler
    call for its episodes' negatives, then every episode's swap flag, then
    every episode's variant pick."""
    _, train_eps, val_eps = world
    cfg = TrainConfig(objective="ng+", epochs=1, batch=8, seed=4, p_pos_swap=0.5)
    calls = []
    sampled = []
    real_loss, real_sample = trainer_module.loss_and_gradients, trainer_module.sample_negatives

    def recording_loss(params, batch, **kwargs):
        calls.append(([ep.question_id for ep in batch], kwargs["candidates"]))
        return real_loss(params, batch, **kwargs)

    def recording_sample(pool, positions, *args):
        sampled.append(list(positions))
        return real_sample(pool, positions, *args)

    monkeypatch.setattr(trainer_module, "loss_and_gradients", recording_loss)
    monkeypatch.setattr(trainer_module, "sample_negatives", recording_sample)
    train(fresh_params(), train_eps, cfg, val_episodes=val_eps)

    rng = np.random.default_rng(cfg.seed)
    pool = NegativePool(train_eps)
    need = train_eps[0].n_answers - 1
    order = rng.permutation(len(train_eps))
    expected = []
    swapped = 0
    for lo in range(0, len(order), cfg.batch):
        index = order[lo:lo + cfg.batch]
        batch = [train_eps[i] for i in index]
        picks = real_sample(pool, index, need, cfg.p_same_video, rng)
        negs = [[train_eps[p].question for p in row] for row in picks]
        swap = [rng.random() < cfg.p_pos_swap for _ in batch]
        w = [rng.random() for _ in batch]
        pos = [ep.pos_variants[int(wi * len(ep.pos_variants))] if s and ep.pos_variants
               else ep.question for ep, s, wi in zip(batch, swap, w)]
        swapped += sum(s and bool(ep.pos_variants) for ep, s in zip(batch, swap))
        expected.append(([ep.question_id for ep in batch], pos, negs, index))

    assert sampled == [list(index) for _, _, _, index in expected]
    assert len(calls) == len(expected)
    assert swapped > 0
    for (ids, candidates), (e_ids, e_pos, e_negs, _) in zip(calls, expected):
        assert ids == e_ids
        assert candidates.shape == (len(ids), need + 1, train_eps[0].question.size)
        for p, e in zip(candidates[:, 0], e_pos):
            assert np.array_equal(p, e)
        for n, e in zip(candidates[:, 1:], e_negs):
            assert np.array_equal(n, np.stack(e))


def test_validation_is_metrics_evaluate(world):
    # lr 0 keeps the initial parameters, so the epoch's row must be the
    # evaluate report of their predictions, as fractions
    _, train_eps, val_eps = world
    params = fresh_params()
    cfg = TrainConfig(objective="ng", epochs=1, lr=0.0, seed=0, gamma=0.8)
    _, hist = train(params, train_eps, cfg, val_episodes=val_eps)
    preds = []
    for ep in val_eps:
        p = predict_episode(params, ep, gamma=0.8)
        preds.append(Prediction(ep.question_id, p.answer_index, p.window))
    report = evaluate(preds, episodes_to_labels(val_eps))
    for key in ("acc_qa", "acc_gqa", "m_iop", "m_iou"):
        assert hist[0][key] == pytest.approx(getattr(report, key) / 100.0, abs=1e-12)


def test_val_episode_without_moment_rejected(world):
    # validation cannot score an episode without a moment: fail before training
    _, train_eps, val_eps = world
    bare = dataclasses.replace(val_eps[0], gt_moment=None)
    rows = []
    with pytest.raises(NotSynthetic):
        train(fresh_params(), train_eps, TrainConfig(objective="ng", epochs=1, seed=0),
              val_episodes=[bare] + list(val_eps[1:]), on_epoch=rows.append)
    assert rows == []


def test_val_question_ids_must_be_distinct(world):
    _, train_eps, val_eps = world
    twin = dataclasses.replace(val_eps[1], question_id=val_eps[0].question_id)
    rows = []
    with pytest.raises(ConfigError, match="validation episodes need distinct question ids"):
        train(fresh_params(), train_eps, TrainConfig(objective="ng", epochs=1, seed=0),
              val_episodes=[val_eps[0], twin], on_epoch=rows.append)
    assert rows == []


def test_history_csv_roundtrip(tmp_path, world):
    _, train_eps, val_eps = world
    cfg = TrainConfig(objective="ng", epochs=2, lr=1e-3, patience=5, seed=0)
    _, hist = train(fresh_params(), train_eps, cfg, val_episodes=val_eps)
    path = tmp_path / "history.csv"
    write_history_csv(path, hist)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(HISTORY_COLUMNS)
    assert len(rows) == 1 + len(hist)
    for got, row in zip(rows[1:], hist):
        assert int(got[0]) == row["epoch"]
        assert got[1] == row["stage"] == "ng"
        assert float(got[2]) == pytest.approx(row["loss"], abs=1e-6)
        assert float(got[3]) == pytest.approx(row["acc_qa"], abs=1e-6)
        # the column early stopping selects on
        assert float(got[4]) == pytest.approx(row["acc_gqa"], abs=1e-6)
        # ng draws no negatives
        assert int(got[7]) == row["fallbacks"] == 0


def test_history_counts_sampler_fallbacks():
    # 5 answers need 4 negatives; with every slot same-video, an episode with
    # s siblings falls back in 4 - s slots, every epoch
    eps = generate(dataclasses.replace(SCFG, n_answers=5))
    train_eps, val_eps = split_by_video(eps, 0.2, seed=0)
    siblings = [sum(o.video_id == ep.video_id for o in train_eps) - 1 for ep in train_eps]
    cfg = TrainConfig(objective="ng+", stages=2, epochs=2, p_same_video=1.0, seed=0)
    with pytest.warns(InsufficientPool):
        _, hist = train(fresh_params(), train_eps, cfg, val_episodes=val_eps)
    assert [row["stage"] for row in hist] == ["ground", "ng+"]
    assert [row["fallbacks"] for row in hist] == [sum(4 - s for s in siblings)] * 2


# --- answer counts ---------------------------------------------------------------

def _with_two_answers(ep):
    return dataclasses.replace(ep, answers=ep.answers[:2], correct=min(ep.correct, 1),
                               neg_questions=ep.neg_questions[:1])


def test_ngplus_answer_count_mismatch_rejected_before_training(world):
    _, train_eps, val_eps = world
    odd = _with_two_answers(train_eps[3])
    mixed = list(train_eps[:3]) + [odd] + list(train_eps[4:])
    rows = []
    with pytest.raises(ConfigError, match=re.escape(odd.question_id)):
        train(fresh_params(), mixed, TrainConfig(objective="ng+", epochs=1, seed=0),
              val_episodes=val_eps, on_epoch=rows.append)
    assert rows == []


def test_ng_accepts_mixed_answer_counts(world):
    # the answer-only objective draws no negatives, so any count is fine
    _, train_eps, val_eps = world
    mixed = [_with_two_answers(ep) if i % 2 else ep for i, ep in enumerate(train_eps)]
    _, hist = train(fresh_params(), mixed, TrainConfig(objective="ng", epochs=1, seed=0),
                    val_episodes=val_eps)
    assert len(hist) == 1

"""Optimizer, negative sampling and training-loop behavior."""

import csv
import dataclasses
import re
import warnings

import numpy as np
import pytest

from gvqa import synth
from gvqa import trainer as trainer_module
from gvqa.metrics import Prediction, evaluate
from gvqa.model import ModelConfig, init_params, predict_episode
from gvqa.synth import NotSynthetic, SynthConfig, episodes_to_labels, generate, split_by_video
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
        {"p_same_video": 1.5},
        {"p_pos_swap": -0.1},
        {"gamma": 0.0},
    ):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)


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


# --- negative sampling -------------------------------------------------------------

def test_sample_negatives_distinct_and_counted(world):
    eps, train_eps, _ = world
    pool = NegativePool(train_eps)
    rng = np.random.default_rng(0)
    for ep in train_eps[:20]:
        negs = sample_negatives(pool, ep, 2, 0.3, rng)
        assert len(negs) == 2
        assert not np.array_equal(negs[0], negs[1])
        for q in negs:
            assert not np.array_equal(q, ep.question)


def test_same_video_rate_monte_carlo(world):
    """Each negative slot picks a same-video question with the configured
    probability; measured over 10^4 draws."""
    _, train_eps, _ = world
    pool = NegativePool(train_eps)
    rng = np.random.default_rng(42)
    ep = train_eps[0]
    sib_bytes = {q.tobytes() for qid, vid, q in pool.entries
                 if vid == ep.video_id and qid != ep.question_id}
    same = 0
    total = 0
    for _ in range(5000):
        for q in sample_negatives(pool, ep, 2, 0.3, rng):
            same += q.tobytes() in sib_bytes
            total += 1
    assert total == 10_000
    assert abs(same / total - 0.3) < 0.02


def test_exhaustion_falls_back_with_warning(world):
    _, train_eps, _ = world
    pool = NegativePool(train_eps)
    ep = train_eps[0]
    rng = np.random.default_rng(1)
    # 3 siblings available but 5 slots forced to same-video
    with pytest.warns(InsufficientPool):
        negs = sample_negatives(pool, ep, 5, 1.0, rng)
    assert len(negs) == 5
    seen = {q.tobytes() for q in negs}
    assert len(seen) == 5


def test_pools_exhausted_raises(world):
    eps, _, _ = world
    two = eps[:2]  # same video, one candidate each
    pool = NegativePool(two)
    with pytest.raises(ConfigError):
        sample_negatives(pool, two[0], 3, 0.0, np.random.default_rng(0))


def test_empty_pool_rejected():
    with pytest.raises(ConfigError):
        NegativePool([])


def test_descriptive_ids_excluded(world):
    _, train_eps, _ = world
    drop = frozenset(ep.question_id for ep in train_eps[:4])
    pool = NegativePool(train_eps, descriptive_ids=drop)
    assert all(qid not in drop for qid, _, _ in pool.entries)
    kept_bytes = {e.question.tobytes() for e in train_eps if e.question_id not in drop}
    rng = np.random.default_rng(3)
    for _ in range(50):
        for q in sample_negatives(pool, train_eps[5], 2, 0.5, rng):
            assert q.tobytes() in kept_bytes


def _scan_sample_negatives(pool, episode, count, p_same_video, rng):
    """The list-scan definition of the sampler: for every slot both candidate
    lists are rebuilt from the whole pool, in pool order."""
    picked = set()
    out = []
    same_all = [(qid, q) for qid, vid, q in pool.entries if vid == episode.video_id]
    warned = False
    for _ in range(count):
        same = [e for e in same_all if e[0] != episode.question_id and e[0] not in picked]
        cross = [e for e in pool.entries
                 if e[1] != episode.video_id and e[0] not in picked]
        want_same = rng.random() < p_same_video
        if want_same and not same and not warned:
            warnings.warn("same-video negatives exhausted; drawing cross-video",
                          InsufficientPool)
            warned = True
        if want_same and same:
            qid, q = same[int(rng.integers(len(same)))]
        elif cross:
            qid, _, q = cross[int(rng.integers(len(cross)))]
        elif same:
            qid, q = same[int(rng.integers(len(same)))]
        else:
            raise ConfigError("negative pools exhausted; need more episodes")
        picked.add(qid)
        out.append(q)
    return out


def _sampler_case(world, case):
    """(pool, episodes to draw for) for one pool layout."""
    eps, train_eps, val_eps = world
    if case == "plain":
        return NegativePool(train_eps), list(train_eps) + list(val_eps[:4])
    if case == "shuffled":
        # a video's entries are not contiguous in the pool
        order = np.random.default_rng(5).permutation(len(train_eps))
        shuffled = [train_eps[i] for i in order]
        return NegativePool(shuffled), shuffled
    if case == "descriptive":
        # drops whole and partial sibling groups, and episodes still drawn for
        drop = frozenset(ep.question_id for ep in train_eps[::3])
        return NegativePool(train_eps, descriptive_ids=drop), list(train_eps)
    if case == "duplicate_ids":
        # one id shared across two videos, another shared within a video
        first = train_eps[0]
        other = next(ep for ep in train_eps if ep.video_id != first.video_id)
        sibling = next(ep for ep in train_eps[1:] if ep.video_id == first.video_id)
        twins = [dataclasses.replace(other, question_id=first.question_id),
                 dataclasses.replace(sibling, question_id=train_eps[5].question_id)]
        pool_eps = list(train_eps) + twins
        return NegativePool(pool_eps), pool_eps
    raise AssertionError(case)


@pytest.mark.parametrize("case", ["plain", "shuffled", "descriptive", "duplicate_ids"])
@pytest.mark.parametrize("p_same", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("count", [2, 5])
def test_sampler_matches_list_scan_stream(world, case, p_same, count):
    """Same draws, same warnings and the same generator state afterwards as
    the list-scan definition; count 5 exhausts the 3 siblings of a video."""
    pool, draw_for = _sampler_case(world, case)
    fast_rng = np.random.default_rng(11)
    scan_rng = np.random.default_rng(11)
    for ep in draw_for:
        with warnings.catch_warnings(record=True) as fast_w:
            warnings.simplefilter("always")
            fast = sample_negatives(pool, ep, count, p_same, fast_rng)
        with warnings.catch_warnings(record=True) as scan_w:
            warnings.simplefilter("always")
            scan = _scan_sample_negatives(pool, ep, count, p_same, scan_rng)
        assert np.array_equal(np.stack(fast), np.stack(scan))
        assert [w.category for w in fast_w] == [w.category for w in scan_w]
        if count == 5 and p_same == 1.0:
            assert [w.category for w in fast_w] == [InsufficientPool]
    assert fast_rng.bit_generator.state == scan_rng.bit_generator.state


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
    """The negatives and positive swaps of one ng+ epoch, recorded at the
    engine call, equal a replay of the per-episode loop: for each episode of
    each minibatch, its negatives, then its swap draw."""
    _, train_eps, val_eps = world
    cfg = TrainConfig(objective="ng+", epochs=1, batch=8, seed=4, p_pos_swap=0.5)
    calls = []
    sampled = []
    real_loss, real_sample = trainer_module.loss_and_gradients, trainer_module.sample_negatives

    def recording_loss(params, batch, **kwargs):
        calls.append(([ep.question_id for ep in batch], kwargs["pos_question"],
                      kwargs["neg_questions"]))
        return real_loss(params, batch, **kwargs)

    def recording_sample(pool, ep, *args):
        sampled.append(ep.question_id)
        return real_sample(pool, ep, *args)

    monkeypatch.setattr(trainer_module, "loss_and_gradients", recording_loss)
    monkeypatch.setattr(trainer_module, "sample_negatives", recording_sample)
    train(fresh_params(), train_eps, cfg, val_episodes=val_eps)

    rng = np.random.default_rng(cfg.seed)
    pool = NegativePool(train_eps)
    need = train_eps[0].n_answers - 1
    order = rng.permutation(len(train_eps))
    expected = []
    for lo in range(0, len(order), cfg.batch):
        batch = [train_eps[i] for i in order[lo:lo + cfg.batch]]
        negs, pos = [], []
        for ep in batch:
            negs.append(real_sample(pool, ep, need, cfg.p_same_video, rng))
            swap = None
            if ep.pos_variants and rng.random() < cfg.p_pos_swap:
                swap = ep.pos_variants[int(rng.integers(len(ep.pos_variants)))]
            pos.append(swap)
        expected.append(([ep.question_id for ep in batch], pos, negs))

    assert sampled == [qid for ids, _, _ in expected for qid in ids]
    assert len(calls) == len(expected)
    assert any(p is not None for _, pos, _ in expected for p in pos)
    for (ids, pos, negs), (e_ids, e_pos, e_negs) in zip(calls, expected):
        assert ids == e_ids
        assert [p is None for p in pos] == [p is None for p in e_pos]
        for p, e in zip(pos, e_pos):
            assert p is None or np.array_equal(p, e)
        for n, e in zip(negs, e_negs):
            assert np.array_equal(np.stack(n), np.stack(e))


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

"""Twin-model contrastive training loop.

Two UNet++ instances with identical seeded initialization train on slice
pairs: positive pairs (augmented twins, normal-normal) pull the models'
probability maps together, cross-label pairs push them apart via swapped
targets, each pair weighted by its eta.  One optimizer tick per step updates
both models' parameters independently.  Everything downstream of the master
seed (init, pair draws, data order) is counter-derived, so runs replay
bit-exactly and checkpoints can resume mid-stream.

model_a is the canonical inference model; after training, the marker output
channel is calibrated from image-level labels alone (mean activation over
positive- vs negative-labeled training images).
"""

import copy
import math
import os
from dataclasses import dataclass

import numpy as np

from . import augment, checkpoint, config, losses
from . import tensor as T
from .errors import DataError, NonFiniteLossError, NumericError, UsageError
from .seeding import derive_key
from .unetpp import UnetPP


class Optimizer:
    """sgd (w <- w - lr g) or bias-corrected adam over a flat name->Tensor map."""

    def __init__(self, config, params):
        config.validate()
        self.config = config
        self.params = params
        self.t = 0
        if config.kind == "adam":
            self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
            self.v = {k: np.zeros_like(p.data) for k, p in params.items()}
        else:
            self.m = self.v = None

    def step(self):
        """One tick from each parameter's own ``.grad``, in sorted-name order."""
        cfg = self.config
        self.t += 1
        for name in sorted(self.params):
            w = self.params[name]
            g = w.grad
            if cfg.kind == "sgd":
                w.data = w.data - cfg.lr * g
            else:
                m = self.m[name] = cfg.beta1 * self.m[name] + (1 - cfg.beta1) * g
                v = self.v[name] = cfg.beta2 * self.v[name] + (1 - cfg.beta2) * g * g
                mhat = m / (1 - cfg.beta1 ** self.t)
                vhat = v / (1 - cfg.beta2 ** self.t)
                w.data = w.data - cfg.lr * mhat / (np.sqrt(vhat) + cfg.eps)


@dataclass
class TrainState:
    """The twins, their one optimizer and the pair policy; the step count is ``optimizer.t``."""
    model_a: UnetPP
    model_b: UnetPP
    optimizer: Optimizer
    policy: augment.PairPolicy
    seed: int
    marker_channel: int = 1

    @property
    def siamese(self):
        return self.model_b is self.model_a

    @property
    def step(self):
        return self.optimizer.t

    def models(self):
        if self.siamese:
            return [("a", self.model_a)]
        return [("a", self.model_a), ("b", self.model_b)]


def _new_state(model_a, model_b, opt_config, policy, seed):
    """A state at step 0 whose fresh optimizer holds both twins' parameters."""
    state = TrainState(model_a=model_a, model_b=model_b, optimizer=None, policy=policy,
                       seed=int(seed))
    state.optimizer = Optimizer(opt_config, {f"{tag}/{n}": t for tag, m in state.models()
                                             for n, t in m.parameter_items()})
    return state


def init_state(model_config, opt_config, policy, seed, siamese=False,
               truncated=False):
    if model_config.input_size != policy.tile_size:
        raise ValueError(f"model input size {model_config.input_size} must equal "
                         f"the pair tile size {policy.tile_size}")
    init_seed = derive_key(seed, "init")
    model_a = UnetPP(model_config, seed=init_seed, truncated=truncated)
    # the twins start from the same draws; a copy skips drawing them twice
    model_b = model_a if siamese else copy.deepcopy(model_a)
    return _new_state(model_a, model_b, opt_config, policy, seed)


def _batch_input(slices, dtype):
    """Stack H x W slices into one B x 1 x H x W model input."""
    return T.Tensor(np.stack(slices).astype(dtype, copy=False)[:, None])


def pair_loss_terms(model_a, model_b, pairs):
    """Eta-weighted total loss of a pair batch plus each pair's loss value.

    Every slice_a runs through model_a and every slice_b through model_b,
    one batched forward each; sample i is pair i.  The per-pair values are
    plain floats for the metrics log.
    """
    pa = model_a.forward(_batch_input([p.slice_a for p in pairs], model_a.dtype))
    pb = model_b.forward(_batch_input([p.slice_b for p in pairs], model_b.dtype))
    return losses.pair_batch_loss(pa, pb, [p.kind == "cross" for p in pairs],
                                  [p.eta for p in pairs])


def _pair_provenance(pair):
    return {"kind": pair.kind, "source_a": pair.source_a, "source_b": pair.source_b,
            "coords": pair.coords, "eta": pair.eta, "draws": pair.draws}


def train_step(state, pairs):
    """One optimizer tick over a pair batch -> metrics dict.

    A non-finite loss or gradient raises ``NonFiniteLossError`` before the
    optimizer runs, leaving the weights and the step count unchanged.
    """
    if not pairs:
        raise ValueError("empty pair batch")
    for _, model in state.models():
        model.zero_grads()
    try:
        total, per = pair_loss_terms(state.model_a, state.model_b, pairs)
        T.backward(total)
    except NumericError as e:
        raise NonFiniteLossError(
            f"non-finite loss at step {state.step}: {e}",
            provenance=[_pair_provenance(p) for p in pairs]) from e

    params = state.optimizer.params
    bad = [name for name, t in params.items() if not np.isfinite(t.grad).all()]
    if bad:
        raise NonFiniteLossError(
            f"non-finite gradient at step {state.step} in {', '.join(bad[:3])}"
            + (f" and {len(bad) - 3} more" if len(bad) > 3 else ""),
            provenance=[_pair_provenance(p) for p in pairs])
    sq = 0.0
    for t in params.values():
        sq += float(np.sum(t.grad.astype(np.float64) ** 2))
    state.optimizer.step()

    pos = [v for v, p in zip(per, pairs) if p.kind != "cross"]
    neg = [v for v, p in zip(per, pairs) if p.kind == "cross"]
    return {"step": state.step,
            "total_loss": total.item(),
            "pos_loss_mean": float(np.mean(pos)) if pos else float("nan"),
            "neg_loss_mean": float(np.mean(neg)) if neg else float("nan"),
            "grad_norm": math.sqrt(sq)}


# -- state serialization ----------------------------------------------------

# state beyond the RunConfig settings, recorded as `train.<key> = <int>` lines
# after the settings text
_TRAIN_KEYS = ("seed", "step", "truncated", "marker_channel")


def _settings_block(state):
    """A checkpoint's config block: the ``--config`` text of the state's
    settings, without the loop-only ``checkpoint_every``, then the train lines."""
    rc = config.to_run_config(state.model_a.config, state.optimizer.config,
                              state.policy, state.siamese)
    lines = [ln for ln in config.format_config(rc).splitlines(keepends=True)
             if not ln.startswith("checkpoint_every ")]
    values = (state.seed, state.step, int(state.model_a.truncated), state.marker_channel)
    lines += [f"train.{k} = {v}\n" for k, v in zip(_TRAIN_KEYS, values)]
    return "".join(lines)


def _checkpoint_arrays(state):
    """Each checkpoint tensor name -> the state's live array: ``model_<tag>/<param>``,
    then adam's ``opt/m|v/<tag>/<param>``.  Save, load and prune all read it."""
    arrays = {f"model_{tag}/{name}": t.data for tag, model in state.models()
              for name, t in model.parameter_items()}
    opt = state.optimizer
    if opt.m is not None:
        for slot, store in (("m", opt.m), ("v", opt.v)):
            arrays.update((f"opt/{slot}/{key}", arr) for key, arr in store.items())
    return arrays


def save_state(state, path):
    checkpoint.save_checkpoint(path, _settings_block(state), _checkpoint_arrays(state))


def load_state(path):
    text, tensors = checkpoint.load_checkpoint(path)
    settings, train = [], {}
    for ln in text.splitlines(keepends=True):
        if ln.startswith("train."):
            key, _, value = ln[len("train."):].partition("=")
            train[key.strip()] = value.strip()
        else:
            settings.append(ln)
    try:
        rc = config.parse_config("".join(settings), name=path)
        model_config = config.to_model_config(rc)
        opt_config = config.to_optimizer_config(rc)
        policy = config.to_policy(rc)
    except UsageError as e:
        raise DataError(f"{path}: bad config block: {e}") from None
    try:
        seed, step, truncated, marker_channel = (int(train[k]) for k in _TRAIN_KEYS)
    except KeyError as e:
        raise DataError(f"{path}: config block missing key 'train.{e.args[0]}'") from None
    except ValueError as e:
        raise DataError(f"{path}: bad train value: {e}") from None
    if step < 0 or marker_channel not in (0, 1):
        raise DataError(f"{path}: bad train values step={step} "
                        f"marker_channel={marker_channel}")

    state = init_state(model_config, opt_config, policy, seed, siamese=rc.siamese,
                       truncated=bool(truncated))
    state.optimizer.t = step
    state.marker_channel = marker_channel
    expected = _settings_block(state)
    if text != expected:
        absent = [ln for ln in expected.splitlines() if ln not in text.splitlines()]
        raise DataError(f"{path}: config block is not the text of its own settings"
                        + (f"; missing {absent[0].split('  #')[0]!r}" if absent else ""))
    arrays = _checkpoint_arrays(state)
    unmatched = sorted(set(tensors) ^ set(arrays))
    if unmatched:
        name = unmatched[0]
        raise DataError(f"{path}: {'unexpected' if name in tensors else 'missing'} "
                        f"tensor {name!r}")
    for name, arr in arrays.items():
        if tensors[name].shape != arr.shape:
            raise DataError(f"{path}: tensor {name!r} has shape {tensors[name].shape}, "
                            f"expected {arr.shape}")
        arr[...] = tensors[name]
    return state


def prune_state(state, depth):
    """Truncate both models to head `depth`, keeping optimizer moments for
    the surviving parameters; head outputs stay bit-identical."""
    model_a = state.model_a.prune(depth)
    model_b = model_a if state.siamese else state.model_b.prune(depth)
    new = _new_state(model_a, model_b, state.optimizer.config, state.policy, state.seed)
    new.optimizer.t = state.step
    new.marker_channel = state.marker_channel
    parent = _checkpoint_arrays(state)
    for name, arr in _checkpoint_arrays(new).items():
        arr[...] = parent[name]
    return new


# -- inference --------------------------------------------------------------

def stitch_probs(state, image, depth=None):
    """Forward model_a over raster tiles -> stitched 2 x S x S probability map.

    All tiles of the image run as one batch, without recording a tape.
    """
    if image.ndim != 2 or image.shape[0] != image.shape[1]:
        raise DataError(f"inference expects a square image, got shape {image.shape}")
    s = image.shape[0]
    t = state.policy.tile_size
    if s % t != 0:
        raise DataError(f"tile size {t} does not divide image size {s}")
    tiles = augment.tile(image, t)
    with T.no_grad():
        prob = state.model_a.forward(_batch_input([sl for _, sl in tiles], state.model_a.dtype),
                                     depth=depth)
    out = np.zeros((2, s, s), dtype=np.float32)
    for ((r, c), _), p in zip(tiles, prob.data):
        out[:, r * t:(r + 1) * t, c * t:(c + 1) * t] = p
    return out


def infer_state(state, image, depth=None, threshold=0.5):
    probs = stitch_probs(state, image, depth=depth)
    return probs[state.marker_channel] > threshold


def infer(ckpt_path, image, depth=None, threshold=0.5):
    """Tile, forward model_a, stitch the marker channel, threshold -> mask."""
    return infer_state(load_state(ckpt_path), image, depth=depth, threshold=threshold)


def calibrate_marker_channel(state, batch):
    """Pick the output channel that tracks positive-labeled images.

    Uses image-level labels only: the marker channel is the one whose mean
    activation is higher on positive-labeled than negative-labeled images.
    Falls back to the current channel when a class is absent.
    """
    means = {"pos": [], "neg": []}
    for b in batch:
        probs = stitch_probs(state, b.image)
        means[b.label].append(probs.mean(axis=(1, 2)))
    if not means["pos"] or not means["neg"]:
        return state.marker_channel
    gap = np.mean(means["pos"], axis=0) - np.mean(means["neg"], axis=0)
    return 1 if gap[1] >= gap[0] else 0


# -- the loop ---------------------------------------------------------------

def format_metrics_line(m):
    return (f"{m['step']}\t{m['total_loss']:.6f}\t{m['pos_loss_mean']:.6f}"
            f"\t{m['neg_loss_mean']:.6f}\t{m['grad_norm']:.6f}")


def _carried_log_lines(path, step):
    """The lines of metrics log ``path`` up to ``step``; none if it is absent (after ``prune``)."""
    if not os.path.exists(path):
        return []
    with open(path, encoding="ascii") as fh:
        try:
            return [ln for ln in fh if int(ln.split("\t", 1)[0]) <= step]
        except ValueError:
            raise DataError(f"{path}: not a metrics log") from None


def run_training(data_dir, model_config, opt_config, policy, steps, seed,
                 out_path, checkpoint_every=0, siamese=False, resume_from=None):
    """Train for `steps` total steps; write the checkpoint and its metrics log
    ``<out_path>.log``, one line per step as the step ends.

    With resume_from, the checkpoint's own config snapshot governs and
    training continues from its recorded step up to `steps`; the log starts
    with the resumed checkpoint's log lines up to its step.
    """
    carried = []
    if resume_from is not None:
        state = load_state(resume_from)
        carried = _carried_log_lines(resume_from + ".log", state.step)
    else:
        state = init_state(model_config, opt_config, policy, seed, siamese=siamese)
    if steps < state.step:
        raise ValueError(f"target steps {steps} below checkpoint step {state.step}")

    batch = augment.load_batch(data_dir, "train")
    metrics = []
    with open(out_path + ".log", "w", encoding="ascii") as log:
        log.writelines(carried)
        log.flush()
        for i in range(state.step, steps):
            step_seed = derive_key(state.seed, "step", f"{i:06d}")
            pairs = augment.make_pairs(batch, step_seed, state.policy)
            m = train_step(state, pairs)
            metrics.append(m)
            log.write(format_metrics_line(m) + "\n")
            log.flush()
            if checkpoint_every and state.step % checkpoint_every == 0:
                save_state(state, out_path)

    state.marker_channel = calibrate_marker_channel(state, batch)
    save_state(state, out_path)
    return state, metrics

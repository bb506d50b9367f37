"""Twin-model contrastive training loop.

Two UNet++ instances with identical seeded initialization train on slice
pairs: positive pairs (augmented twins, normal-normal) pull the models'
probability maps together, cross-label pairs push them apart via swapped
targets, each pair weighted by its eta.  One optimizer tick per step updates
both models' parameters independently.  Everything downstream of the master
seed (init, pair draws, data order) is counter-derived, so runs replay
bit-exactly and checkpoints can resume mid-stream.

Once the two maps of a step exist, each twin's half of the pair loss sees
the other's map only as a plain array, so its loss, backward pass and
optimizer update do not depend on the other twin's.  One ``_Half`` runs each
twin's half: twin a's in the calling process, and twin b's in ``TwinB``, a
forked ``cores.Child``, unless the state is siamese or ``cores.two_cpus``
finds one CPU; then ``LocalTwinB`` runs it in process, answering the same
messages.  The same code runs in either placement, so the bits cannot
differ.

model_a is the canonical inference model; after training, the marker output
channel is calibrated from image-level labels alone (mean activation over
positive- vs negative-labeled training images).  ``cores.split_in_two``
computes half of the images' channel means in a forked child; the pick reads
the same bits either way.
"""

import copy
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import augment, checkpoint, config, losses
from . import tensor as T
from .cores import Child, split_in_two, two_cpus
from .errors import DataError, NonFiniteLossError, NumericError, UsageError
from .files import read_text, write_atomic
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

    def step(self, names, t):
        """Tick ``t`` on the parameters ``names``, from each one's own
        ``.grad``, in sorted-name order.

        Both twins' halves of a training step update their own names as the
        same tick.
        """
        cfg = self.config
        self.t = t
        for name in sorted(names):
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


def init_state(model_config, opt_config, policy, seed, siamese=False):
    if model_config.input_size != policy.tile_size:
        raise ValueError(f"model input size {model_config.input_size} must equal "
                         f"the pair tile size {policy.tile_size}")
    init_seed = derive_key(seed, "init")
    model_a = UnetPP(model_config, seed=init_seed)
    # the twins start from the same draws; a copy skips drawing them twice
    model_b = model_a if siamese else copy.deepcopy(model_a)
    return _new_state(model_a, model_b, opt_config, policy, seed)


def _batch_input(slices, dtype):
    """Stack H x W slices into one B x 1 x H x W model input."""
    return T.Tensor(np.stack(slices).astype(dtype, copy=False)[:, None])


def _forward(model, slices):
    return model.forward(_batch_input(slices, model.dtype))


def pair_loss_terms(target, p, cross, etas):
    """One twin's half of a step's pair loss, back-propagated -> its terms.

    ``p`` is this twin's map of the step's pairs, sample i being pair i, and
    ``target`` the other twin's map as a plain array, so the gradient
    reaches this twin alone.  The terms (``losses.pair_half_terms``) are
    weighted by the pairs' etas for the backward pass and returned
    unweighted, as an array, for the step's loss values.
    """
    terms = losses.pair_half_terms(target, p, cross)
    T.backward(losses.pair_total(terms, etas)[0])
    return terms.data


def _pair_provenance(pair):
    return {"kind": pair.kind, "source_a": pair.source_a, "source_b": pair.source_b,
            "coords": pair.coords, "eta": pair.eta, "draws": pair.draws}


def _grad_report(params, names):
    """(names whose gradient is not finite, each gradient's squared norm or None)."""
    bad = [n for n in names if not np.isfinite(params[n].grad).all()]
    if bad:
        return bad, None
    return bad, [float(np.sum(params[n].grad.astype(np.float64) ** 2)) for n in names]


class _Half:
    """One twin's half of every training step: its forward pass, its half of
    the pair loss against the other twin's map, its backward pass and its
    optimizer update.

    ``train_step`` runs twin a's half, and sends twin b's the same calls as
    ``(method, *args)`` messages, which ``TwinB``'s worker or ``LocalTwinB``
    answers.
    """

    def __init__(self, state, tag):
        self.model = state.model_a if tag == "a" else state.model_b
        self.optimizer = state.optimizer
        self.names = [n for n in self.optimizer.params if n.startswith(f"{tag}/")]
        self.p = None

    def forward(self, slices):
        """Zero this twin's gradients and map its slices -> the map's array."""
        self.model.zero_grads()
        self.p = _forward(self.model, slices)
        return self.p.data

    def backward(self, target, cross, etas):
        """-> (loss terms, bad gradient names, squared gradient norms or None)."""
        return (pair_loss_terms(target, self.p, cross, etas),
                *_grad_report(self.optimizer.params, self.names))

    def commit(self, t):
        """Update this twin's parameters as optimizer tick ``t``."""
        self.optimizer.step(self.names, t)

    def answer(self, name, *args):
        """Run method ``name`` -> its result, or the exception that a forward
        or backward pass raised, reported as the step's error."""
        try:
            return getattr(self, name)(*args)
        except Exception as e:
            if name == "commit":
                raise
            return e


def _first_error(*replies):
    """Twin a's failure, else twin b's, else None."""
    return next((r for r in replies if isinstance(r, Exception)), None)


def train_step(state, pairs, twin_b=None):
    """One optimizer tick over a pair batch -> metrics dict.

    Twin a's half of the step runs here and twin b's in ``twin_b``: a
    ``TwinB`` worker, or by default a ``LocalTwinB`` in this process.  Both
    run ``_Half``, so the placement changes no bit.  A non-finite loss or
    gradient in either twin raises ``NonFiniteLossError`` before either
    optimizer update, leaving the weights and the step count unchanged.
    """
    if not pairs:
        raise ValueError("empty pair batch")
    twin_b = twin_b or LocalTwinB(state)
    half = _Half(state, "a")
    cross, etas = [p.kind == "cross" for p in pairs], [p.eta for p in pairs]
    twin_b.send(("forward", [p.slice_b for p in pairs]))
    p_a = half.answer("forward", [p.slice_a for p in pairs])
    p_b = twin_b.recv()
    error = _first_error(p_a, p_b)
    if error is None:
        # in process, twin b's backward runs within this send, so a siamese
        # state's one twin reports and commits the gradient of both halves
        twin_b.send(("backward", p_a, cross, etas))
        out_a = half.answer("backward", p_b, cross, etas)
        out_b = twin_b.recv()
        error = _first_error(out_a, out_b)

    provenance = [_pair_provenance(p) for p in pairs]
    cause = error if isinstance(error, NumericError) else None
    if cause is not None:
        error = NonFiniteLossError(f"non-finite loss at step {state.step}: {error}",
                                   provenance=provenance)
    elif error is None:
        (terms_a, bad, sq), (terms_b, bad_b, sq_b) = out_a, out_b
        bad += bad_b
        if bad:
            error = NonFiniteLossError(
                f"non-finite gradient at step {state.step} in {', '.join(bad[:3])}"
                + (f" and {len(bad) - 3} more" if len(bad) > 3 else ""),
                provenance=provenance)
    if error is not None:
        raise error from cause  # neither twin commits
    # b's terms plus a's, the order the loss has always added them in
    total, per = losses.pair_total(T.Tensor(terms_b + terms_a), etas)
    t = state.step + 1
    twin_b.send(("commit", t))
    half.commit(t)

    grad_sq = 0.0
    for v in sq + sq_b:  # a's parameters, then b's
        grad_sq += v
    pos = [v for v, p in zip(per, pairs) if p.kind != "cross"]
    neg = [v for v, p in zip(per, pairs) if p.kind == "cross"]
    return {"step": state.step,
            "total_loss": total.item(),
            "pos_loss_mean": float(np.mean(pos)) if pos else float("nan"),
            "neg_loss_mean": float(np.mean(neg)) if neg else float("nan"),
            "grad_norm": math.sqrt(grad_sq)}


# -- twin b's placements ----------------------------------------------------

class LocalTwinB:
    """Twin b's half of every training step in this process, behind
    ``TwinB``'s interface: for a siamese state, whose one twin cannot be
    split across processes, and in a process allowed one CPU."""

    def __init__(self, state):
        self.half = _Half(state, "b")
        self.reply = None

    def send(self, msg):
        self.reply = self.half.answer(*msg)

    def recv(self):
        return self.reply

    def pull(self, state):
        """Nothing to copy: twin b's arrays are ``state``'s own."""

    def close(self):
        pass


class TwinB(Child):
    """Twin b's half of every training step, in a forked worker process.

    The worker starts from a copy of the state and keeps twin b's weights
    and adam moments current from then on; the parent's copies of them go
    stale until ``pull``.  Per step, ``train_step`` sends twin b's slices,
    the two processes swap their maps, the worker returns its loss terms,
    bad-gradient names and squared gradient norms, and the parent sends a
    commit unless the step failed.
    """

    def __init__(self, state):
        super().__init__(_twin_b_worker, state)

    def pull(self, state):
        """Copy the worker's twin b arrays into ``state``'s."""
        self.send("pull")
        arrays = _checkpoint_arrays(state)
        for name, arr in self.recv().items():
            arrays[name][...] = arr


def _twin_b_worker(conn, state):
    """Answer twin b's messages, and ``pull`` requests, until EOF."""
    half = _Half(state, "b")
    while True:
        msg = conn.recv()
        if msg == "pull":
            reply = {k: v for k, v in _checkpoint_arrays(state).items()
                     if k.startswith(("model_b/", "opt/m/b/", "opt/v/b/"))}
        else:
            reply = half.answer(*msg)
        if reply is not None:
            conn.send(reply)


# -- state serialization ----------------------------------------------------

# state beyond the RunConfig settings, recorded as `train.<key> = <int>` lines
# after the settings text
_TRAIN_KEYS = ("seed", "step", "marker_channel")


def _settings_block(state):
    """A checkpoint's config block: the ``--config`` text of the state's
    settings, without the loop-only ``checkpoint_every``, then the train lines."""
    rc = config.to_run_config(state.model_a.config, state.optimizer.config,
                              state.policy, state.siamese)
    lines = [ln for ln in config.format_config(rc).splitlines(keepends=True)
             if not ln.startswith("checkpoint_every ")]
    values = (state.seed, state.step, state.marker_channel)
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
        seed, step, marker_channel = (int(train[k]) for k in _TRAIN_KEYS)
    except KeyError as e:
        raise DataError(f"{path}: config block missing key 'train.{e.args[0]}'") from None
    except ValueError as e:
        raise DataError(f"{path}: bad train value: {e}") from None
    if step < 0 or marker_channel not in (0, 1):
        raise DataError(f"{path}: bad train values step={step} "
                        f"marker_channel={marker_channel}")

    # the arrays below overwrite every parameter, so none is drawn
    model_a = UnetPP(model_config, seed=None)
    model_b = model_a if rc.siamese else UnetPP(model_config, seed=None)
    state = _new_state(model_a, model_b, opt_config, policy, seed)
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
    """Cut both models' heads to `depth`, keeping optimizer moments for
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
    per_image = split_in_two(lambda lo, hi: [stitch_probs(state, b.image).mean(axis=(1, 2))
                                             for b in batch[lo:hi]], len(batch))
    means = {"pos": [], "neg": []}
    for b, m in zip(batch, per_image):
        means[b.label].append(m)
    if not means["pos"] or not means["neg"]:
        return state.marker_channel
    gap = np.mean(means["pos"], axis=0) - np.mean(means["neg"], axis=0)
    return 1 if gap[1] >= gap[0] else 0


# -- the loop ---------------------------------------------------------------

# a run warns when total_loss has stayed within STALL_TOL of one value for
# STALL_STEPS steps in a row: the twins have most likely stopped learning
STALL_STEPS = 10
STALL_TOL = 1e-6

def format_metrics_line(m):
    return (f"{m['step']}\t{m['total_loss']:.6f}\t{m['pos_loss_mean']:.6f}"
            f"\t{m['neg_loss_mean']:.6f}\t{m['grad_norm']:.6f}")


def _carried_log_lines(path, step):
    """The lines of metrics log ``path`` up to ``step``: steps j..``step`` in
    order from its first step j, which is after 1 if the run began at a
    pruned checkpoint; none if the log is absent, empty or starts at ``step`` + 1."""
    if not os.path.exists(path):
        return []
    lines = read_text(path, "metrics log").splitlines(keepends=True)
    try:
        steps = [int(ln.split("\t", 1)[0]) for ln in lines]
    except ValueError:
        raise DataError(f"{path}: not a metrics log") from None
    first = steps[0] if steps else step + 1
    if not 1 <= first <= step + 1:
        raise DataError(f"{path}: starts at step {first}, not in 1..{step + 1}")
    for i, n in enumerate(range(first, step + 1)):
        if steps[i:i + 1] != [n] or not lines[i].endswith("\n"):
            raise DataError(f"{path}: step {n} is missing from its steps {first}..{step}")
    return lines[:step + 1 - first]


def run_training(data_dir, model_config, opt_config, policy, steps, seed,
                 out_path, checkpoint_every=0, siamese=False, resume_from=None):
    """Train for `steps` total steps; write the checkpoint and its metrics log
    ``<out_path>.log``, one line per step as the step ends.

    With resume_from, the checkpoint's own config snapshot governs and
    training continues from its recorded step up to `steps`; the log starts
    with the resumed checkpoint's log lines up to its step.
    """
    if checkpoint_every < 0:
        raise ValueError(f"checkpoint_every must be nonnegative, got {checkpoint_every}")
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
    held_loss, held = math.inf, 0
    # one rename puts the carried steps in place: no kill leaves the log without them
    write_atomic(out_path + ".log", "".join(carried))
    # a siamese state has one twin, and a process allowed one CPU has no
    # core to spare: both run twin b's half in process
    twin_b = LocalTwinB(state) if state.siamese or not two_cpus() else TwinB(state)
    try:
        with open(out_path + ".log", "a", encoding="ascii") as log:
            for i in range(state.step, steps):
                step_seed = derive_key(state.seed, "step", f"{i:06d}")
                pairs = augment.make_pairs(batch, step_seed, state.policy)
                m = train_step(state, pairs, twin_b)
                metrics.append(m)
                log.write(format_metrics_line(m) + "\n")
                log.flush()
                if abs(m["total_loss"] - held_loss) > STALL_TOL:
                    held_loss, held = m["total_loss"], 0
                held += 1
                if held == STALL_STEPS:
                    print(f"warning: total_loss has stayed within {STALL_TOL:g} of "
                          f"{held_loss:.6f} for {held} steps, to step {m['step']}; "
                          "the twins may have stopped learning", file=sys.stderr)
                if checkpoint_every and state.step % checkpoint_every == 0:
                    twin_b.pull(state)
                    save_state(state, out_path)
        twin_b.pull(state)
    finally:
        twin_b.close()

    state.marker_channel = calibrate_marker_channel(state, batch)
    save_state(state, out_path)
    return state, metrics

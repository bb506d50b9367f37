"""Run configuration: flat `key = value` text with `#` comments.

``RunConfig`` is the one settings schema: one file carries the model
architecture, optimizer, pair policy and loop settings, and the config block
of every checkpoint is the ``format_config`` text of the ``RunConfig`` that
rebuilds its state (see ``to_run_config``).  Every key has a default, so an
empty file is a valid config; unknown keys are rejected and parse errors cite
their line number.  The ``to_*`` functions validate a ``RunConfig`` into the
objects the trainer runs on.
"""

import math
from dataclasses import dataclass, fields

from .augment import PairPolicy
from .errors import UsageError
from .unetpp import UnetPPConfig


@dataclass
class OptimizerConfig:
    kind: str
    lr: float
    beta1: float
    beta2: float
    eps: float

    def validate(self):
        if self.kind not in ("sgd", "adam"):
            raise ValueError(f"optimizer kind must be sgd or adam, got {self.kind!r}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"learning rate must be positive and finite, got {self.lr}")
        for nm in ("beta1", "beta2"):
            b = getattr(self, nm)
            if not 0.0 < b < 1.0:
                raise ValueError(f"{nm} must be in (0, 1), got {b}")
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ValueError(f"eps must be positive and finite, got {self.eps}")


@dataclass
class RunConfig:
    levels: int = 3
    base_channels: int = 8
    kernel_schedule: str = ""
    repeat_levels: str = ""
    repeat_seed: str = ""
    heads: str = ""
    optimizer: str = "adam"
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    tile_size: int = 64
    n_augment: int = 4
    n_normal: int = 2
    n_cross: int = 2
    default_eta: float = 0.5
    siamese: bool = False
    checkpoint_every: int = 0


KEY_DOCS = {
    "levels": "UNet++ pyramid levels L",
    "base_channels": "channels at the top level (doubles per level down)",
    "kernel_schedule": "comma-separated odd kernel sizes per level; empty = 3,3,5,5,7,...",
    "repeat_levels": "comma-separated backbone levels that get a repeated conv; empty = none",
    "repeat_seed": "draw repeat levels at random from this seed; empty = off",
    "heads": "comma-separated head depths to build; empty = every depth 1..L-1",
    "optimizer": "sgd or adam",
    "lr": "learning rate",
    "beta1": "adam first-moment decay",
    "beta2": "adam second-moment decay",
    "eps": "adam denominator epsilon",
    "tile_size": "slice side T; the model trains on T x T tiles",
    "n_augment": "augmented-twin positive pairs per step",
    "n_normal": "normal-normal positive pairs per step",
    "n_cross": "cross-label negative pairs per step",
    "default_eta": "slice weight for negative pairs lacking a manifest eta",
    "siamese": "share one weight set between the two models (true/false)",
    "checkpoint_every": "also save every K steps; 0 = only at the end",
}

_BOOL_WORDS = {"true": True, "yes": True, "1": True,
               "false": False, "no": False, "0": False}


def config_help():
    lines = ["config file keys (key = value, # comments):"]
    for f in fields(RunConfig):
        default = f.default if f.default != "" else "(empty)"
        lines.append(f"  {f.name} (default {default}): {KEY_DOCS[f.name]}")
    return "\n".join(lines)


def _coerce(field, raw, where):
    raw = raw.strip()
    if field.type is bool or isinstance(field.default, bool):
        if raw.lower() not in _BOOL_WORDS:
            raise UsageError(f"{where}: {field.name} expects true/false, got {raw!r}")
        return _BOOL_WORDS[raw.lower()]
    try:
        if isinstance(field.default, int):
            return int(raw)
        if isinstance(field.default, float):
            return float(raw)
    except ValueError:
        raise UsageError(f"{where}: bad value {raw!r} for {field.name}") from None
    return raw


def parse_config(text, name="config"):
    by_name = {f.name: f for f in fields(RunConfig)}
    seen = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{name}:{ln}: expected key = value, got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in by_name:
            raise UsageError(f"{name}:{ln}: unknown config key {key!r}")
        if key in seen:
            raise UsageError(f"{name}:{ln}: duplicate key {key!r}")
        seen[key] = _coerce(by_name[key], value, f"{name}:{ln}")
    return RunConfig(**seen)


def load_config(path):
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except OSError as e:
        raise UsageError(f"cannot read config {path}: {e}") from None
    return parse_config(text, name=path)


def format_config(rc):
    out = []
    for f in fields(RunConfig):
        v = getattr(rc, f.name)
        if isinstance(v, bool):
            v = "true" if v else "false"
        out.append(f"{f.name} = {v}  # {KEY_DOCS[f.name]}")
    return "\n".join(out) + "\n"


def _ints_or_none(s):
    if not s.strip():
        return None
    return [int(v) for v in s.split(",") if v.strip() != ""]


def to_model_config(rc):
    try:
        return UnetPPConfig(
            levels=rc.levels, input_size=rc.tile_size,
            base_channels=rc.base_channels,
            kernel_schedule=_ints_or_none(rc.kernel_schedule),
            repeat_levels=_ints_or_none(rc.repeat_levels),
            repeat_seed=int(rc.repeat_seed) if rc.repeat_seed.strip() else None,
            heads=_ints_or_none(rc.heads))
    except ValueError as e:
        raise UsageError(f"bad model configuration: {e}") from None


def to_optimizer_config(rc):
    oc = OptimizerConfig(kind=rc.optimizer, lr=rc.lr, beta1=rc.beta1,
                         beta2=rc.beta2, eps=rc.eps)
    try:
        oc.validate()
    except ValueError as e:
        raise UsageError(f"bad optimizer configuration: {e}") from None
    return oc


def to_policy(rc):
    for k in ("n_augment", "n_normal", "n_cross"):
        if getattr(rc, k) < 0:
            raise UsageError(f"{k} must be nonnegative")
    if rc.n_augment + rc.n_normal + rc.n_cross == 0:
        raise UsageError("pair policy requests zero pairs per step")
    if rc.tile_size < 2:
        raise UsageError(f"tile_size must be at least 2, got {rc.tile_size}")
    if not 0.0 <= rc.default_eta <= 1.0:
        raise UsageError(f"default_eta {rc.default_eta} outside [0, 1]")
    return PairPolicy(n_augment=rc.n_augment, n_normal=rc.n_normal,
                      n_cross=rc.n_cross, tile_size=rc.tile_size,
                      default_eta=rc.default_eta)


def to_run_config(model_config, opt_config, policy, siamese):
    """The RunConfig that ``to_model_config``, ``to_optimizer_config`` and
    ``to_policy`` map back onto these settings.

    Kernel schedule, repeat levels and heads are written out explicitly, so
    ``repeat_seed`` stays empty; ``checkpoint_every`` keeps its default, as
    it steers the training loop and is not part of the settings.  Float
    settings are cast to float so that their text reads back unchanged.
    """
    def ints(values):
        return ",".join(str(v) for v in values)

    return RunConfig(
        levels=model_config.levels, base_channels=model_config.base_channels,
        kernel_schedule=ints(model_config.kernel_schedule),
        repeat_levels=ints(sorted(model_config.repeat_levels)),
        heads=ints(model_config.heads),
        optimizer=opt_config.kind, lr=float(opt_config.lr),
        beta1=float(opt_config.beta1), beta2=float(opt_config.beta2),
        eps=float(opt_config.eps), tile_size=policy.tile_size,
        n_augment=policy.n_augment, n_normal=policy.n_normal,
        n_cross=policy.n_cross, default_eta=float(policy.default_eta),
        siamese=bool(siamese))

"""INI configuration for the command line tools.

A config file carries the sections ``[plant]``, ``[costs]``,
``[constraints]``, ``[algorithm]``, ``[gp]``, ``[suite]`` and (optionally)
``[validation]``.  Every key is optional and falls back to the defaults of
:class:`feedopt.scenario.ScenarioConfig` / :class:`ValidationSettings`;
unknown sections (``[DEFAULT]`` included) or keys are rejected so typos
cannot silently change a study.  Each value is parsed by the type its
dataclass field declares: ``int``, ``float`` and ``str`` as written,
``X | None`` from ``auto`` or ``none`` (any case) or else as ``X``, and
tuples as comma-separated lists, whose length is checked when the type
fixes it.  A new setting is one dataclass field plus its key in
:data:`_SECTIONS`.
"""

from __future__ import annotations

import configparser
import typing
from dataclasses import dataclass, fields, replace

from .scenario import ScenarioConfig
from .subweibull import SubWeibull

__all__ = ["ConfigError", "ValidationSettings", "load_config", "dump_config", "default_ini"]


class ConfigError(ValueError):
    """Malformed configuration file (unknown key, bad value, bad syntax)."""


@dataclass(frozen=True)
class ValidationSettings:
    """Knobs of the ``validate-bounds`` and ``bound-curve`` commands."""

    instance: str = "synthetic"      # synthetic | scenario
    n_inputs: int = 6
    n_steps: int = 500
    p: float = 0.7
    alpha: float | None = None       # None: 1/L for the built instance
    error_scale: float = 0.1
    drift: float = 0.6
    n_trials_mean: int = 1000
    n_trials_hp: int = 2000
    deltas: tuple[float, ...] = (0.3, 0.1)
    check_times: tuple[int, ...] = (50, 250, 500)
    moment_zetas: tuple[float, ...] = (0.5, 0.9)
    moment_ps: tuple[float, ...] = (0.3, 0.7, 1.0)
    moment_ts: tuple[int, ...] = (5, 50)
    moment_ks: tuple[int, ...] = (1, 2, 4)
    moment_samples: int = 10**5
    sampler_samples: int = 10**6
    closure_dim: int = 4
    seed: int = 99

    def __post_init__(self):
        if self.instance not in ("synthetic", "scenario"):
            raise ConfigError(f"validation instance must be synthetic or scenario, got {self.instance!r}")
        if not 0.0 < self.p <= 1.0:
            raise ConfigError(f"validation p must lie in (0, 1], got {self.p}")
        if self.n_steps < 1:
            raise ConfigError(f"validation n_steps must be at least 1, got {self.n_steps}")
        for delta in self.deltas:
            SubWeibull(1.0, 1.0).hp_bound(delta)  # raises unless 0 < delta < 1


# Section -> keys, in the order the echo writes them.  A key names the field
# of the same name, with two exceptions: a [gp] key drops the ``gp_`` prefix
# of its ScenarioConfig field, and box_one..box_three are the rows of
# ``box_ranges``.
_SECTIONS = {
    "plant": ("n_ders", "n_pcc", "n_loads"),
    "costs": (
        "beta", "a_range_one", "a_range_two", "b_range", "switch_steps",
        "ref_base", "ref_amplitude", "ref_period",
        "dist_base", "dist_amplitude", "dist_period",
        "trace_decay", "obs_noise_sigma",
    ),
    "constraints": ("box_one", "box_two", "box_three", "box_period"),
    "algorithm": (
        "alpha", "p_values",
        "eps_kind", "eps_scale", "eps_theta",
        "xi_kind", "xi_scale", "xi_theta",
        "meas_kind", "meas_scale", "meas_theta",
    ),
    "gp": ("sigma_f2", "ell", "noise_var", "seed_obs", "eval_period", "max_obs"),
    "suite": ("horizon", "n_experiments", "modes", "seed"),
    "validation": tuple(f.name for f in fields(ValidationSettings)),
}

_BOXES = ("box_one", "box_two", "box_three")

_HINTS = {cls: typing.get_type_hints(cls) for cls in (ScenarioConfig, ValidationSettings)}

_COUNTS = {2: "two", 4: "four"}


def _field(section: str, key: str) -> tuple[type, str]:
    """The dataclass and field an INI key sets (``box_ranges`` for a box row)."""
    if section == "validation":
        return ValidationSettings, key
    if key in _BOXES:
        return ScenarioConfig, "box_ranges"
    if section == "gp" and "gp_" + key in _HINTS[ScenarioConfig]:
        return ScenarioConfig, "gp_" + key
    return ScenarioConfig, key


def _parse(hint, raw: str, where: str):
    """``raw`` read as a value of type ``hint``: ``int``, ``float``, ``str``,
    ``X | None``, ``tuple[X, ...]`` or a fixed-length tuple of one type."""
    args = typing.get_args(hint)
    if type(None) in args:
        return None if raw.strip().lower() in ("none", "auto") else _parse(args[0], raw, where)
    if typing.get_origin(hint) is tuple:
        parts = [part.strip() for part in raw.split(",") if part.strip()]
        vals = tuple(_parse(args[0], part, where) for part in parts)
        if args[-1] is not Ellipsis and len(vals) != len(args):
            raise ConfigError(f"{where}: expected {_COUNTS[len(args)]} comma-separated numbers, got {raw!r}")
        return vals
    try:
        return hint(raw.strip())
    except ValueError as exc:
        expected = "an integer" if hint is int else "a number"
        raise ConfigError(f"{where}: expected {expected}, got {raw!r}") from exc


def load_config(path) -> tuple[ScenarioConfig, ValidationSettings]:
    """Parse an INI file into ``(ScenarioConfig, ValidationSettings)``.

    Raises :class:`ConfigError` on unknown sections/keys, malformed values,
    or values the dataclasses reject.
    """
    # no default section: configparser would merge a [DEFAULT] section's keys
    # into every other section, so "" (never a section header) takes its
    # place and [DEFAULT] meets the unknown-section check like any other name
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), default_section="")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc

    kwargs = {ScenarioConfig: {}, ValidationSettings: {}}
    boxes = list(ScenarioConfig.box_ranges)  # the default rows
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SECTIONS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            cls, name = _field(section, key)
            hint, where = _HINTS[cls][name], f"[{section}] {key}"
            if key in _BOXES:
                boxes[_BOXES.index(key)] = _parse(typing.get_args(hint)[0], raw, where)
            else:
                kwargs[cls][name] = _parse(hint, raw, where)
    kwargs[ScenarioConfig]["box_ranges"] = tuple(boxes)
    try:
        return ScenarioConfig(**kwargs[ScenarioConfig]), ValidationSettings(**kwargs[ValidationSettings])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def with_seed(scen: ScenarioConfig, val: ValidationSettings, seed: int | None):
    """Apply a command line seed override to both configs."""
    if seed is None:
        return scen, val
    return replace(scen, seed=int(seed)), replace(val, seed=int(seed))


def _format(value) -> str:
    if value is None:
        return "auto"
    if isinstance(value, float):
        return format(value, ".15g")
    if isinstance(value, (list, tuple)):
        return ", ".join(_format(v) for v in value)
    return str(value)


def dump_config(scen: ScenarioConfig, val: ValidationSettings) -> str:
    """Render configs back to INI text (fixed key order, full echo)."""
    blocks = []
    for section, keys in _SECTIONS.items():
        lines = [f"[{section}]"]
        for key in keys:
            cls, name = _field(section, key)
            value = getattr(scen if cls is ScenarioConfig else val, name)
            if key in _BOXES:
                value = value[_BOXES.index(key)]
            lines.append(f"{key} = {_format(value)}")
        blocks.append("\n".join(lines) + "\n")
    return "\n".join(blocks)


def default_ini() -> str:
    """The full default configuration as INI text."""
    return dump_config(ScenarioConfig(), ValidationSettings())

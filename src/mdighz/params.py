"""Physical and protocol parameters, shared math helpers, config parsing.

All parameter containers are frozen dataclasses; invariants are checked at
construction time so downstream code never needs to re-validate.  Units:
distances in km, fiber loss in dB/km, everything else dimensionless.

`CONFIG_KEYS` is the config document's schema: one row per key with its
type, whether it is required and the ExperimentConfig field it fills.
Parsing, serializing and the `--help` text all read it.  Plain defaults
are the dataclass field defaults; only `decoy.mu2` (<- `source.mu`) and the
heralded trigger (<- the main detector) default to another key's value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from operator import attrgetter

__all__ = [
    "ConfigError",
    "NumericsError",
    "ChannelModel",
    "DetectorModel",
    "SystemParams",
    "SourceSpec",
    "DecoyPlan",
    "PhasePlan",
    "SweepGrid",
    "ExperimentConfig",
    "CONFIG_KEYS",
    "REQUIRED_KEYS",
    "overall_efficiency",
    "transmission_efficiency",
    "binary_entropy",
    "parse_config",
    "serialize_config",
]

# Slack for probabilities that undershoot/overshoot [0, 1] by pure rounding.
ENTROPY_DOMAIN_SLACK = 1e-15


class ConfigError(ValueError):
    """Invalid configuration document or parameter bundle."""

    def __init__(self, message, key=None, line=None):
        loc = ""
        if key is not None:
            loc += f" (key {key!r}"
            loc += f", line {line})" if line is not None else ")"
        elif line is not None:
            loc += f" (line {line})"
        super().__init__(message + loc)
        self.message = message
        self.key = key
        self.line = line


class NumericsError(RuntimeError):
    """A numerical tolerance contract was violated (quadrature, truncation,
    internal consistency)."""


@dataclass(frozen=True)
class ChannelModel:
    """Symmetric fiber channel: each user sits `length_km` from the middle node."""

    beta: float  # fiber loss coefficient, dB/km
    length_km: float = 0.0

    def __post_init__(self):
        if self.beta < 0:
            raise ConfigError("channel loss coefficient must be >= 0", key="channel.beta")
        if not 0 <= self.length_km < math.inf:
            raise ConfigError("distance must be a finite number >= 0", key="channel.L")


@dataclass(frozen=True)
class DetectorModel:
    """Threshold single-photon detector: efficiency + dark-count probability per gate."""

    eta_d: float
    p_d: float

    def __post_init__(self):
        if not 0.0 <= self.eta_d <= 1.0:
            raise ConfigError("detector efficiency must be in [0, 1]", key="detector.eta_d")
        if not 0.0 <= self.p_d < 1.0:
            raise ConfigError("dark-count probability must be in [0, 1)", key="detector.p_d")


@dataclass(frozen=True)
class SystemParams:
    channel: ChannelModel
    detector: DetectorModel
    e_d: float  # overall misalignment-error probability
    f: float  # error-correction efficiency

    def __post_init__(self):
        if not 0.0 <= self.e_d <= 0.5:
            raise ConfigError("misalignment error must be in [0, 0.5]", key="system.e_d")
        if self.f < 1.0:
            raise ConfigError("error-correction efficiency must be >= 1", key="system.f")

    def at_distance(self, length_km: float) -> "SystemParams":
        return replace(self, channel=replace(self.channel, length_km=length_km))


SOURCE_KINDS = ("wcs", "heralded", "wcs_qnd")


@dataclass(frozen=True)
class SourceSpec:
    """Light source for all three users.

    kind "wcs": phase-randomized weak coherent pulses of intensity mu.
    kind "heralded": triggered down-conversion pair source with mean pair
    number mu and a trigger detector.
    kind "wcs_qnd": weak coherent pulses filtered by a nondestructive
    photon-number check (<= 1 photon per arm) at the middle node.
    """

    kind: str
    mu: float
    trigger: DetectorModel | None = None

    def __post_init__(self):
        if self.kind not in SOURCE_KINDS:
            raise ConfigError(
                f"unknown source kind {self.kind!r}; expected one of {SOURCE_KINDS}",
                key="source.kind",
            )
        if self.mu < 0:
            raise ConfigError("intensity must be >= 0", key="source.mu")
        if self.kind == "heralded" and self.trigger is None:
            raise ConfigError("heralded source needs a trigger detector", key="source.kind")


@dataclass(frozen=True)
class DecoyPlan:
    """Two-decoy plan: signal mu2 > decoy mu1 > 0, plus an implicit vacuum level."""

    mu2: float
    mu1: float

    def __post_init__(self):
        if self.mu1 <= 0:
            raise ConfigError("decoy intensity mu1 must be > 0", key="decoy.mu1")
        if self.mu2 <= self.mu1:
            raise ConfigError("mu2 must exceed mu1", key="decoy.mu2")


@dataclass(frozen=True)
class PhasePlan:
    """Phase post-selection: the random overall phase is split into K regions."""

    k: int

    def __post_init__(self):
        if not isinstance(self.k, int) or self.k < 1:
            raise ConfigError("phase region count K must be an integer >= 1", key="phase.K")
        try:  # the sliced gains carry the factor 1/K^2
            float(self.k * self.k)
        except OverflowError:
            raise ConfigError("phase region count K is too large: K^2 overflows a float",
                              key="phase.K") from None


# A grid of more distances is a typo, not a curve: the bundled curves have
# 251, and at about 2 ms a point 10^6 of them already take over half an hour.
MAX_SWEEP_POINTS = 10**6


@dataclass(frozen=True)
class SweepGrid:
    """Distance grid (km) for rate/Mermin curves; empty grids are allowed."""

    l_min: float = 0.0
    l_max: float = 250.0
    l_step: float = 1.0

    def __post_init__(self):
        # a NaN or infinite bound or step would never end the distance loop
        for key, value in (("sweep.L_min", self.l_min), ("sweep.L_max", self.l_max),
                           ("sweep.L_step", self.l_step)):
            if not math.isfinite(value):
                raise ConfigError("sweep bounds and step must be finite", key=key)
        if self.l_step <= 0:
            raise ConfigError("sweep step must be > 0", key="sweep.L_step")
        if self.l_min < 0:
            raise ConfigError("sweep start must be >= 0", key="sweep.L_min")
        # distances()' own end test at n = MAX_SWEEP_POINTS: a step lost in rounding never ends it
        if self.l_min + MAX_SWEEP_POINTS * self.l_step <= self.l_max + 1e-9:
            raise ConfigError(f"sweep grid exceeds {MAX_SWEEP_POINTS} distances; "
                              "raise the step or narrow the range", key="sweep.L_step")

    def distances(self) -> list[float]:
        out = []
        n = 0
        while True:
            length = self.l_min + n * self.l_step
            if length > self.l_max + 1e-9:
                break
            out.append(round(length, 9))
            n += 1
        return out


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully validated parameter bundle for one protocol run."""

    system: SystemParams
    source: SourceSpec
    decoy: DecoyPlan
    sweep: SweepGrid
    phase: PhasePlan | None = None

    @property
    def method(self) -> str:
        """Protocol method implied by the source: pps | heralded | qnd."""
        return {"wcs": "pps", "heralded": "heralded", "wcs_qnd": "qnd"}[self.source.kind]


def overall_efficiency(channel: ChannelModel, detector: DetectorModel) -> float:
    """Per-user efficiency from source output to a detector click candidate:
    eta = eta_d * 10^(-beta*L/10)."""
    return detector.eta_d * transmission_efficiency(channel)


def transmission_efficiency(channel: ChannelModel) -> float:
    """Fiber-only transmission 10^(-beta*L/10)."""
    return 10.0 ** (-channel.beta * channel.length_km / 10.0)


def binary_entropy(x: float) -> float:
    """Binary Shannon entropy H(x) = -x log2 x - (1-x) log2 (1-x), in bits.

    Arguments within ENTROPY_DOMAIN_SLACK outside [0, 1] are clamped (bound
    estimates can undershoot 0 by rounding); anything further out is an error.
    """
    if x < -ENTROPY_DOMAIN_SLACK or x > 1.0 + ENTROPY_DOMAIN_SLACK:
        raise ValueError(f"entropy argument {x!r} outside [0, 1]")
    x = min(1.0, max(0.0, x))
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


# ---------------------------------------------------------------------------
# Config document:  lines of "section.key = value", "#" comments.
# ---------------------------------------------------------------------------

# One row per key, in document order: key -> (type, required, field), the
# field a dotted path into ExperimentConfig.
CONFIG_KEYS = {
    "channel.beta": (float, True, "system.channel.beta"),
    "channel.L": (float, False, "system.channel.length_km"),
    "detector.eta_d": (float, True, "system.detector.eta_d"),
    "detector.p_d": (float, True, "system.detector.p_d"),
    "system.e_d": (float, True, "system.e_d"),
    "system.f": (float, True, "system.f"),
    "source.kind": (str, True, "source.kind"),
    "source.mu": (float, True, "source.mu"),
    "source.trigger_eta_d": (float, False, "source.trigger.eta_d"),
    "source.trigger_p_d": (float, False, "source.trigger.p_d"),
    "decoy.mu2": (float, False, "decoy.mu2"),
    "decoy.mu1": (float, True, "decoy.mu1"),
    "phase.K": (int, False, "phase.k"),
    "sweep.L_min": (float, False, "sweep.l_min"),
    "sweep.L_max": (float, False, "sweep.l_max"),
    "sweep.L_step": (float, False, "sweep.l_step"),
}

REQUIRED_KEYS = tuple(key for key, (_, required, _) in CONFIG_KEYS.items() if required)


def _parse_value(key: str, raw: str, line_no: int):
    kind = CONFIG_KEYS[key][0]
    raw = raw.strip()
    try:
        if kind is int:
            return int(raw)
        if kind is not float:
            return raw
        value = float(raw)
    except ValueError:
        raise ConfigError(f"cannot parse value {raw!r}", key=key, line=line_no) from None
    if not math.isfinite(value):
        raise ConfigError(f"value must be a finite number, got {raw!r}", key=key,
                          line=line_no)
    return value


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a config document into an ExperimentConfig.

    Unknown keys, duplicate keys, missing required keys, and invariant
    violations are all reported with the offending key (and line number
    where one exists).
    """
    values: dict[str, object] = {}
    lines: dict[str, int] = {}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'section.key = value', got {raw_line!r}", line=line_no)
        key, _, raw_value = line.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError("unknown key", key=key, line=line_no)
        if key in values:
            raise ConfigError("duplicate key", key=key, line=line_no)
        values[key] = _parse_value(key, raw_value, line_no)
        lines[key] = line_no

    for key in REQUIRED_KEYS:
        if key not in values:
            raise ConfigError("missing required key", key=key)

    def build(cls, owner, **defaults):
        # The keys whose field belongs to `owner`, over `defaults`; an invariant
        # violation is re-raised with the line its key sits on.
        for key, (_, _, field) in CONFIG_KEYS.items():
            parent, _, name = field.rpartition(".")
            if parent == owner and key in values:
                defaults[name] = values[key]
        try:
            return cls(**defaults)
        except ConfigError as exc:
            of_trigger = owner == "source.trigger"  # DetectorModel errors name detector.* keys
            key = exc.key.replace("detector.", "source.trigger_") if of_trigger else exc.key
            if exc.line is None and key in lines:
                raise ConfigError(exc.message, key=key, line=lines[key]) from None
            raise

    channel = build(ChannelModel, "system.channel")
    detector = build(DetectorModel, "system.detector")
    system = build(SystemParams, "system", channel=channel, detector=detector)
    trigger = None
    if values["source.kind"] == "heralded":
        # The trigger detector defaults to the main detector model (assumption,
        # flagged in the docs); override via source.trigger_*.
        trigger = build(DetectorModel, "source.trigger", eta_d=detector.eta_d,
                        p_d=detector.p_d)
    else:
        for key in values:
            if key.startswith("source.trigger_"):
                raise ConfigError("trigger keys only apply to heralded sources",
                                  key=key, line=lines[key])
    source = build(SourceSpec, "source", trigger=trigger)
    decoy = build(DecoyPlan, "decoy", mu2=source.mu)
    # phase.K is only required once a phase-post-selection QSS run is asked for;
    # plain QCC configs omit the section.
    phase = build(PhasePlan, "phase") if "phase.K" in values else None
    return ExperimentConfig(system=system, source=source, decoy=decoy,
                            sweep=build(SweepGrid, "sweep"), phase=phase)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Emit the canonical config document; parse(serialize(cfg)) == cfg."""
    out = []
    for key, (_, _, field) in CONFIG_KEYS.items():
        if attrgetter(field.rpartition(".")[0])(cfg) is None:  # no trigger, no phase plan
            continue
        value = attrgetter(field)(cfg)
        out.append(f"{key} = {value if isinstance(value, str) else repr(value)}")
    return "\n".join(out) + "\n"

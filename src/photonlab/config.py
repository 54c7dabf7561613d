"""Scenario configuration: INI grammar, defaults, and validation.

A config document holds exactly one scenario section (verify, packet3d,
helicity, gauge, boost, medium1d, lifecycle1d, fock) plus optional
[tolerances], [emitter], [detector] sections. Every key is validated up
front; unknown sections or keys are rejected before any computation runs.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass

import numpy as np

from .csvio import fmt
from .medium import MediumSpec
from .modes import POL_LABELS, KGrid, gaussian_packet

SCENARIO_KINDS = ("verify", "packet3d", "helicity", "gauge", "boost",
                  "medium1d", "lifecycle1d", "fock")

# Default check tolerances. Order thresholds are lower bounds (a study
# passes when the measured order is >= the value); everything else is an
# upper bound on an absolute error.
TOLERANCE_DEFAULTS = {
    "norm_unity": 1e-6,
    "continuity_order": 1.9,
    "continuity_residual": 1e-4,
    "maxwell_order": 1.9,
    "helicity_pointwise": 1e-10,
    "helicity_longitudinal": 1e-12,
    "gauge_field": 1e-12,
    "gauge_norm": 1e-10,
    "boost_norm": 2e-2,
    "medium_pointwise": 1e-12,
    "medium_current": 1e-8,
    "medium_norm": 1e-6,
    "vacuum_reduction": 1e-14,
    "lifecycle_norm": 1e-6,
    "causality": 1e-12,
    "peak_cells": 1.0,
    "fock_commutator": 1e-14,
}


class ConfigError(ValueError):
    """Configuration problem with a location or field diagnostic."""

    def __init__(self, message: str, line: int | None = None,
                 col: int | None = None, field_name: str | None = None):
        self.line = line
        self.col = col
        self.field_name = field_name
        parts = []
        if line is not None:
            parts.append(f"line {line}" + (f", col {col}" if col is not None else ""))
        if field_name is not None:
            parts.append(f"field '{field_name}'")
        prefix = " ".join(parts)
        super().__init__(f"{prefix}: {message}" if prefix else message)


@dataclass(frozen=True)
class PacketParams:
    """Gaussian mode packet on a k-grid plus the dual-box sample count."""
    n_k: int
    dk: float
    k0: tuple[float, float, float]
    sigma: float
    pol: object          # +1, -1, or "par"
    n_x: int
    dimension: int


@dataclass(frozen=True)
class TimeWindow:
    start: float
    stop: float
    steps: int

    def checkpoints(self):
        return np.linspace(self.start, self.stop, self.steps + 1)


@dataclass(frozen=True)
class EventParams:
    """Raw emitter/detector settings; 'auto'/'matched' resolved by scenarios."""
    center: float
    time: object         # float or "auto" (detector: ballistic arrival)
    width: object        # float or "auto" (4 grid cells) or "matched"
    duration: object     # float or "auto" (4 time steps) or "matched"
    strength: object     # float or "matched"


@dataclass(frozen=True)
class LineParams:
    n_z: int
    z_min: float
    z_max: float


@dataclass(frozen=True)
class ScenarioConfig:
    kind: str
    output: str
    tolerances: dict
    units: str | None = None
    inject_dispersion_error: float | None = None
    packet: PacketParams | None = None
    times: TimeWindow | None = None
    t_stop: float | None = None
    medium: MediumSpec | None = None
    beta: float | None = None
    gauge_strength: float | None = None
    line: LineParams | None = None
    emitter: EventParams | None = None
    detector: EventParams | None = None
    n_states: int | None = None

    def echo_lines(self) -> tuple[str, ...]:
        """Effective settings, defaults included, for the report header."""
        out = [f"scenario = {self.kind}"]
        if self.units is not None:
            out.append(f"units = {self.units}")
        out.append(f"output = {self.output}")
        if self.kind == "verify":
            out.append(f"inject_dispersion_error = {fmt(self.inject_dispersion_error)}")
        if self.packet is not None:
            p = self.packet
            k0 = ",".join(fmt(v) for v in p.k0)
            out.append(f"packet: n_k = {p.n_k}, dk = {fmt(p.dk)}, k0 = ({k0}), "
                       f"sigma = {fmt(p.sigma)}, lambda = {POL_LABELS[p.pol]}, "
                       f"n_x = {p.n_x}, dimension = {p.dimension}")
        if self.times is not None:
            t = self.times
            out.append(f"times: start = {fmt(t.start)}, stop = {fmt(t.stop)}, steps = {t.steps}")
        if self.t_stop is not None:
            out.append(f"t_stop = {fmt(self.t_stop)}")
        if self.medium is not None:
            out.append(f"medium: epsilon_rel = {fmt(self.medium.epsilon_rel)}, "
                       f"mu_rel = {fmt(self.medium.mu_rel)}")
        if self.beta is not None:
            out.append(f"beta = {fmt(self.beta)}")
        if self.gauge_strength is not None:
            out.append(f"gauge_strength = {fmt(self.gauge_strength)}")
        if self.line is not None:
            ln = self.line
            out.append(f"line: n_z = {ln.n_z}, z_min = {fmt(ln.z_min)}, z_max = {fmt(ln.z_max)}")
        for name, ev in (("emitter", self.emitter), ("detector", self.detector)):
            if ev is not None:
                out.append(f"{name}: center = {fmt(ev.center)}, time = {_fmt_opt(ev.time)}, "
                           f"width = {_fmt_opt(ev.width)}, duration = {_fmt_opt(ev.duration)}, "
                           f"strength = {_fmt_opt(ev.strength)}")
        if self.kind == "lifecycle1d" and self.detector is None:
            out.append("detector: disabled")
        if self.n_states is not None:
            out.append(f"fock: n_states = {self.n_states}")
        for key in sorted(self.tolerances):
            out.append(f"tolerance {key} = {fmt(self.tolerances[key])}")
        return tuple(out)


def _fmt_opt(v) -> str:
    return v if isinstance(v, str) else fmt(v)


# ---------------------------------------------------------------------------
# value parsers

def _as_int(raw: str, key: str) -> int:
    try:
        return int(raw, 10)
    except ValueError:
        raise ConfigError(f"expected an integer, got {raw!r}", field_name=key) from None


def _as_float(raw: str, key: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"expected a number, got {raw!r}", field_name=key) from None
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {raw!r}", field_name=key)
    return value


def _as_triple(raw: str, key: str) -> tuple[float, float, float]:
    s = raw.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise ConfigError(f"expected a triple (a,b,c), got {raw!r}", field_name=key)
    parts = s[1:-1].split(",")
    if len(parts) != 3:
        raise ConfigError(f"expected exactly three components, got {raw!r}", field_name=key)
    return tuple(_as_float(p, key) for p in parts)


def _as_enum(options):
    def parse(raw: str, key: str):
        if raw in options:
            return raw
        choices = ", ".join(options)
        raise ConfigError(f"expected one of {{{choices}}}, got {raw!r}", field_name=key)
    return parse


def _as_pol(raw: str, key: str):
    for pol, label in POL_LABELS.items():
        if raw == label:
            return pol
    raise ConfigError(f"expected +1, -1, or par, got {raw!r}", field_name=key)


def _as_float_or(words):
    def parse(raw: str, key: str):
        if raw in words:
            return raw
        return _as_float(raw, key)
    return parse


def _as_path(raw: str, key: str) -> str:
    if not raw:
        raise ConfigError("expected a directory path", field_name=key)
    if len(raw) >= 2 and raw[0] == raw[-1] and raw[0] in "\"'":
        # quotes are not syntax here; taken verbatim they would name a directory
        raise ConfigError(f"expected an unquoted directory path, got {raw!r}", field_name=key)
    return raw


# ---------------------------------------------------------------------------
# schemas: key -> (parser, default); `units` where a time or a column is scaled

_OUTPUT = {"output": (_as_path, ".")}
_COMMON = {"units": (_as_enum(("natural", "si")), "natural"), **_OUTPUT}

_PACKET3D_KEYS = {
    "n_k": (_as_int, 16),
    "dk": (_as_float, 0.25),
    "k0": (_as_triple, (0.0, 0.0, 4.0)),
    "sigma": (_as_float, 0.5),
    "lambda": (_as_pol, 1),
    "n_x": (_as_int, 32),
    "t_start": (_as_float, 0.0),
    "t_stop": (_as_float, 6.0),
    "t_steps": (_as_int, 2),
}

_LINE_PACKET_KEYS = {**_PACKET3D_KEYS,
                     "k0": (_as_triple, (0.0, 0.0, 2.0)),
                     "n_x": (_as_int, 256),
                     "t_stop": (_as_float, 2.0)}

_SECTION_KEYS = {
    "verify": {**_OUTPUT, "inject_dispersion_error": (_as_float, 0.0)},
    "packet3d": {**_COMMON, **_PACKET3D_KEYS},
    "helicity": {**_COMMON, **_LINE_PACKET_KEYS},
    "gauge": {**_COMMON, **{k: v for k, v in _PACKET3D_KEYS.items()
                            if k not in ("t_start", "t_steps")},
              "k0": (_as_triple, (0.0, 0.0, 1.0)),
              "n_k": (_as_int, 8),
              "gauge_strength": (_as_float, 1.0)},
    "boost": {**_OUTPUT, **{k: v for k, v in _PACKET3D_KEYS.items()
                            if not k.startswith("t_") and k != "n_x"},
              "beta": (_as_float, 0.3)},
    "medium1d": {**_COMMON, **_LINE_PACKET_KEYS,
                 "epsilon_rel": (_as_float, 2.0),
                 "mu_rel": (_as_float, 1.0)},
    "lifecycle1d": {**_COMMON,
                    "epsilon_rel": (_as_float, 2.0),
                    "mu_rel": (_as_float, 1.0),
                    "n_z": (_as_int, 2048),
                    "z_min": (_as_float, -5.0),
                    "z_max": (_as_float, 25.0),
                    "t_start": (_as_float, 0.0),
                    "t_stop": (_as_float, 20.0),
                    "t_steps": (_as_int, 400)},
    "fock": {**_OUTPUT, "n_states": (_as_int, 32)},
}

_EMITTER_KEYS = {
    "center": (_as_float, 0.0),
    "time": (_as_float, 0.0),
    "width": (_as_float_or(("auto",)), "auto"),
    "duration": (_as_float_or(("auto",)), "auto"),
    "strength": (_as_float, 1.0),
}

_DETECTOR_KEYS = {
    "enabled": (_as_enum(("true", "false")), "true"),
    "center": (_as_float, 10.0),
    "time": (_as_float_or(("auto",)), "auto"),
    "width": (_as_float_or(("auto", "matched")), "matched"),
    "duration": (_as_float_or(("auto", "matched")), "matched"),
    "strength": (_as_float_or(("matched",)), "matched"),
}


def _line_of(text: str, section: str, key: str | None = None) -> int | None:
    """Best-effort line number of a section header or of a key inside it."""
    current = None
    for i, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            current = stripped[1:-1].strip()
            if key is None and current == section:
                return i
            continue
        if key is not None and current == section and "=" in stripped:
            if stripped.split("=", 1)[0].strip() == key:
                return i
    return None


def _read_section(parser, text, section, keyset):
    """Apply a keyset to one section: parse values, fill defaults."""
    raw = dict(parser[section]) if parser.has_section(section) else {}
    for key in raw:
        if key not in keyset:
            raise ConfigError(f"unknown key '{key}' in [{section}]",
                              line=_line_of(text, section, key), field_name=key)
    out = {}
    for key, (parse, default) in keyset.items():
        if key in raw:
            out[key] = parse(raw[key].strip(), key)
        else:
            out[key] = default
    return out


def _require(cond: bool, message: str, key: str):
    if not cond:
        raise ConfigError(message, field_name=key)


def _validate_packet(vals, dimension: int) -> PacketParams:
    _require(vals["n_k"] >= 2, "n_k must be >= 2", "n_k")
    _require(vals["dk"] > 0, "dk must be > 0", "dk")
    _require(vals["sigma"] > 0, "sigma must be > 0", "sigma")
    _require(vals["n_x"] >= 2, "n_x must be >= 2", "n_x")
    _require(vals["n_x"] > vals["n_k"] - 1,
             "n_x must exceed n_k - 1 (alias-free Riemann sums on the dual box)", "n_x")
    packet = PacketParams(n_k=vals["n_k"], dk=vals["dk"], k0=vals["k0"],
                          sigma=vals["sigma"], pol=vals["lambda"],
                          n_x=vals["n_x"], dimension=dimension)
    # the grid's zero-mode rule runs on its n_k^d axis values, centred on k0;
    # building the packet normalizes it, which a finite sigma or dk can fail
    with np.errstate(all="ignore"):  # the refusals name the key instead
        try:
            grid = KGrid(packet.n_k, packet.dk, dimension, packet.k0)
        except ValueError as exc:
            raise ConfigError(str(exc), field_name="k0") from None
        try:
            gaussian_packet(grid, packet.k0, packet.sigma, packet.pol)
        except OverflowError:
            raise ConfigError("dk overflows the mode measure dk^d", field_name="dk") from None
        except ValueError:  # a null state
            raise ConfigError("the packet's norm underflows to 0: sigma is too small for "
                              "dk, or dk^d underflows", field_name="sigma") from None
    return packet


def _validate_times(vals) -> TimeWindow:
    _require(vals["t_steps"] >= 1, "t_steps must be >= 1", "t_steps")
    _require(vals["t_stop"] > vals["t_start"], "t_stop must exceed t_start", "t_stop")
    return TimeWindow(start=vals["t_start"], stop=vals["t_stop"], steps=vals["t_steps"])


def _validate_medium(vals) -> MediumSpec:
    _require(vals["epsilon_rel"] >= 1.0, "epsilon_rel must be ≥ 1", "epsilon_rel")
    _require(vals["mu_rel"] >= 1.0, "mu_rel must be ≥ 1", "mu_rel")
    return MediumSpec(epsilon_rel=vals["epsilon_rel"], mu_rel=vals["mu_rel"])


def _validate_event(vals, name: str) -> EventParams:
    for key in ("width", "duration"):
        v = vals[key]
        if not isinstance(v, str):
            _require(v > 0, f"{name} {key} must be > 0", key)
    s = vals["strength"]
    if not isinstance(s, str):
        _require(0 < s <= 1.0, f"{name} strength must lie in (0, 1]", "strength")
    return EventParams(center=vals["center"], time=vals["time"],
                       width=vals["width"], duration=vals["duration"],
                       strength=vals["strength"])


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a configuration document into a ScenarioConfig."""
    parser = configparser.ConfigParser(
        delimiters=("=",), comment_prefixes=("#",),
        inline_comment_prefixes=("#",), strict=True,
        empty_lines_in_values=False, interpolation=None,
    )
    parser.optionxform = str  # keys are case-sensitive
    try:
        parser.read_file(io.StringIO(text))
    except configparser.MissingSectionHeaderError as exc:
        raise ConfigError("entry appears before any [section] header",
                          line=exc.lineno, col=1) from None
    except configparser.DuplicateSectionError as exc:
        raise ConfigError(f"duplicate section [{exc.section}]", line=exc.lineno, col=1) from None
    except configparser.DuplicateOptionError as exc:
        raise ConfigError(f"duplicate key '{exc.option}' in [{exc.section}]",
                          line=exc.lineno, col=1) from None
    except configparser.ParsingError as exc:
        lineno, bad = exc.errors[0]
        col = 1 + len(bad) - len(bad.lstrip()) if isinstance(bad, str) else 1
        raise ConfigError("expected 'key = value' or a [section] header",
                          line=lineno, col=col) from None

    sections = parser.sections()
    scenario_sections = [s for s in sections if s in SCENARIO_KINDS]
    aux = {"tolerances", "emitter", "detector"}
    for s in sections:
        if s not in SCENARIO_KINDS and s not in aux:
            raise ConfigError(f"unknown section [{s}]", line=_line_of(text, s))
    if len(scenario_sections) != 1:
        raise ConfigError("config must contain exactly one scenario section "
                          f"(one of: {', '.join(SCENARIO_KINDS)})")
    kind = scenario_sections[0]

    if kind != "lifecycle1d":
        for s in ("emitter", "detector"):
            if parser.has_section(s):
                raise ConfigError(f"[{s}] only applies to the lifecycle1d scenario",
                                  line=_line_of(text, s))

    vals = _read_section(parser, text, kind, _SECTION_KEYS[kind])

    tol = dict(TOLERANCE_DEFAULTS)
    tol_vals = _read_section(parser, text, "tolerances",
                             {k: (_as_float, v) for k, v in TOLERANCE_DEFAULTS.items()})
    for key, v in tol_vals.items():
        _require(v > 0, "tolerances must be > 0", key)
        tol[key] = v

    base = dict(kind=kind, units=vals.get("units"), output=vals["output"], tolerances=tol)

    if kind == "verify":
        _require(vals["inject_dispersion_error"] >= 0,
                 "inject_dispersion_error must be >= 0", "inject_dispersion_error")
        return ScenarioConfig(**base, inject_dispersion_error=vals["inject_dispersion_error"])

    if kind == "fock":
        _require(vals["n_states"] >= 2, "n_states must be >= 2", "n_states")
        return ScenarioConfig(**base, n_states=vals["n_states"])

    if kind == "lifecycle1d":
        _require(vals["n_z"] >= 2, "n_z must be >= 2", "n_z")
        _require(vals["z_max"] > vals["z_min"], "z_max must exceed z_min", "z_max")
        medium = _validate_medium(vals)
        times = _validate_times(vals)
        line = LineParams(n_z=vals["n_z"], z_min=vals["z_min"], z_max=vals["z_max"])
        emit_vals = _read_section(parser, text, "emitter", _EMITTER_KEYS)
        emitter = _validate_event(emit_vals, "emitter")
        det_vals = _read_section(parser, text, "detector", _DETECTOR_KEYS)
        detector = None
        if det_vals["enabled"] == "true":
            detector = _validate_event(det_vals, "detector")
        return ScenarioConfig(**base, medium=medium, times=times, line=line,
                              emitter=emitter, detector=detector)

    dimension = 1 if kind in ("helicity", "medium1d") else 3
    if kind == "boost":
        _require(abs(vals["beta"]) < 1.0, "beta must satisfy |beta| < 1", "beta")
        # boost scenarios reuse the packet grid as the deposit destination
        packet = _validate_packet({**vals, "n_x": vals["n_k"] + 1}, dimension)
        return ScenarioConfig(**base, packet=packet, beta=vals["beta"])

    if dimension == 1:
        _require(vals["k0"][0] == 0.0 and vals["k0"][1] == 0.0,
                 "1D scenarios need k0 = (0, 0, kz)", "k0")
    packet = _validate_packet(vals, dimension)
    if kind == "gauge":
        return ScenarioConfig(**base, packet=packet, t_stop=vals["t_stop"],
                              gauge_strength=vals["gauge_strength"])
    times = _validate_times(vals)
    if kind == "medium1d":
        if packet.pol == "par":
            # with phi = A_par, E_par = i(v|k| - |k|) s e_k is nonzero in a medium
            raise ConfigError("medium1d needs lambda = +1 or -1: its checks assume a "
                              "transverse packet, and a longitudinal one has E_par != 0 "
                              "in a medium",
                              line=_line_of(text, kind, "lambda"), field_name="lambda")
        return ScenarioConfig(**base, packet=packet, times=times,
                              medium=_validate_medium(vals))
    return ScenarioConfig(**base, packet=packet, times=times)


def default_verify_config() -> ScenarioConfig:
    """The configuration `photonlab verify` uses when no file is given."""
    return parse_config("[verify]")

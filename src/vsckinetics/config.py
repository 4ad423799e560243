"""Config ingestion, scenario orchestration, and deterministic export.

The JSON schema (all keys optional unless noted):

    {
      "name": "reaction1",
      "omega_v": 2000.0,                  # cm^-1, default 2000
      "energy_unit": "cm-1",              # or "hbar_omega_v"
      "species": [                        # required, non-empty
        {"label": "A", "energy": 0.0, "displacement": 0.0}, ...
      ],
      "couplings": [
        {"pair": ["A", "B"], "J": 20.0, "lambda_s": 160.0}, ...
      ],
      "cavity": {"omega_c": 2000.0, "g": 42.43, "kappa": 1.0},
      "bath": {"gamma": 0.01, "eta": 0.001, "omega_cut": 200.0,
               "temperature": 298.0},
      "regime": "vsc",                    # bare | weak | vsc
      "reactant": "A",                    # default: first species
      "grid": {"spacing": "log", "start": 0.1, "end": 5e4, "points": 400}
    }

Under "hbar_omega_v", species energies, couplings (J, lambda_s), omega_c, g
and omega_cut are read as multiples of omega_v; displacements, decay rates,
eta and the temperature are unit-free or absolute and never rescale. The
loader converts everything to cm^-1 immediately; downstream code only ever
sees canonical units. Exports are byte-deterministic and stamped with a
sha256 fingerprint of the effective (canonical) configuration.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .eigenmodes import CavitySpec, bare_mode_basis, build_mode_basis
from .propagate import (
    DEFAULT_GRID_END,
    DEFAULT_GRID_POINTS,
    DEFAULT_GRID_START,
    NumericalError,
    TimeGrid,
    Trajectory,
    clamp_for_output,
    propagate,
)
from .rates import REGIME_KINDS, BathSpec, RateMatrix, assemble_rate_matrix, effective_coupling
from .states import MOLECULES, CouplingSpec, ReactionNetwork, SpeciesSpec, initial_distribution
from .units import ANGULAR_PER_WAVENUMBER, HBAR, KB, SPEED_OF_LIGHT_CM_PER_PS

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "SweepSpec",
    "ScenarioResult",
    "ENERGY_UNITS",
    "SWEEP_PARAMETERS",
    "config_from_dict",
    "load_config",
    "bundled_config_path",
    "effective_config_dict",
    "config_fingerprint",
    "run_scenario",
    "run_comparison",
    "run_sweep",
    "export",
]

ENERGY_UNITS = ("cm-1", "hbar_omega_v")
# each sweep parameter and the config block that holds it
_SWEEP_BLOCKS = {"kappa": "cavity", "eta": "bath", "gamma": "bath", "g": "cavity"}
SWEEP_PARAMETERS = tuple(_SWEEP_BLOCKS)

DEFAULT_OMEGA_V = 2000.0  # cm^-1
DEFAULT_KAPPA = 1.0  # ps^-1
DEFAULT_GAMMA = 0.01  # ps^-1
DEFAULT_ETA = 0.001
DEFAULT_TEMPERATURE = 298.0  # K
DEFAULT_OMEGA_CUT_FACTOR = 0.1  # omega_cut = 0.1 * omega_v
DEFAULT_G_FACTOR = 0.03 / math.sqrt(2.0)  # g = 0.03 * omega_v / sqrt(2)

# state labels join species with "." and "|", CSV headers join columns with ",", and
# str.splitlines() also breaks at control characters and U+2028/U+2029
_LABEL_FORBIDDEN = re.compile(r"[.|,\x00-\x1f\x7f-\x9f\u2028\u2029]")

_SCHEMA_KEYS = {
    "name",
    "omega_v",
    "energy_unit",
    "species",
    "couplings",
    "cavity",
    "bath",
    "regime",
    "reactant",
    "grid",
}


class ConfigError(ValueError):
    """A configuration failed to load or violated a model invariant."""


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved scenario; every energy-like field is in cm^-1."""

    name: str
    omega_v: float
    network: ReactionNetwork
    cavity: CavitySpec
    bath: BathSpec
    regime_kind: str
    reactant: str
    grid: TimeGrid

    def __post_init__(self) -> None:
        if self.omega_v <= 0.0:
            raise ConfigError(f"omega_v must be > 0, got {self.omega_v}")
        if self.regime_kind not in REGIME_KINDS:
            raise ConfigError(
                f"regime must be one of {REGIME_KINDS}, got {self.regime_kind!r}"
            )
        if self.reactant not in self.network.labels():
            raise ConfigError(f"reactant {self.reactant!r} is not a declared species")
        if self.regime_kind == "weak" and self.cavity.kappa == 0.0 and self.bath.gamma == 0.0:
            # the resonant Purcell rate 4 g^2 / k has no finite limit as the linewidth k -> 0
            raise ConfigError("regime 'weak' needs cavity.kappa > 0 or bath.gamma > 0")


@dataclass(frozen=True)
class SweepSpec:
    """One swept parameter, its values, and the base scenario."""

    parameter: str
    values: Tuple[float, ...]
    base: ScenarioConfig

    def __post_init__(self) -> None:
        if self.parameter not in SWEEP_PARAMETERS:
            raise ConfigError(
                f"sweep parameter must be one of {SWEEP_PARAMETERS}, got {self.parameter!r}"
            )
        if not self.values:
            raise ConfigError("sweep needs at least one value")
        for value in self.values:
            if not math.isfinite(value):
                raise ConfigError(f"sweep values for {self.parameter} must be finite, got {value!r}")


@dataclass(frozen=True)
class ScenarioResult:
    """A completed run: generator, trajectory, and full provenance metadata."""

    label: str
    config: ScenarioConfig
    rate_matrix: RateMatrix
    trajectory: Trajectory
    metadata: Dict[str, Any]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _as_float(value: Any, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{field} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{field} must be finite, got {value!r}")
    return float(value)


def _as_str(value: Any, field: str) -> str:
    _require(isinstance(value, str), f"{field} must be a string, got {value!r}")
    return value


def _as_int(value: Any, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{field} must be an integer, got {value!r}")
    return value


def _as_block(value: Any, field: str) -> Dict[str, Any]:
    _require(isinstance(value, dict), f"{field} must be an object")
    return dict(value)


def _check_keys(block: Dict[str, Any], allowed: set, context: str) -> None:
    unknown = set(block) - allowed
    _require(not unknown, f"unknown key(s) {sorted(unknown)} in {context}")


def config_from_dict(raw: Dict[str, Any], name: str = "scenario") -> ScenarioConfig:
    """Validate and resolve a raw config mapping into a ScenarioConfig."""
    try:
        return _resolve_config(raw, name)
    except ConfigError:
        raise
    except ValueError as exc:
        # model-invariant violations from the component constructors
        raise ConfigError(str(exc)) from exc


def _resolve_config(raw: Dict[str, Any], name: str) -> ScenarioConfig:
    _require(isinstance(raw, dict), "config root must be a JSON object")
    _check_keys(raw, _SCHEMA_KEYS, "config root")
    name = _as_str(raw.get("name", name), "name")
    omega_v = _as_float(raw.get("omega_v", DEFAULT_OMEGA_V), "omega_v")
    _require(omega_v > 0.0, f"omega_v must be > 0, got {omega_v}")
    unit = raw.get("energy_unit", "cm-1")
    _require(unit in ENERGY_UNITS, f"energy_unit must be one of {ENERGY_UNITS}, got {unit!r}")
    scale = omega_v if unit == "hbar_omega_v" else 1.0

    species_raw = raw.get("species")
    _require(
        isinstance(species_raw, list) and species_raw,
        "species must be a non-empty list",
    )
    species = []
    for entry in species_raw:
        block = _as_block(entry, "species entry")
        _check_keys(block, {"label", "energy", "displacement"}, f"species entry {block.get('label')!r}")
        _require("label" in block, "species entry missing 'label'")
        label = _as_str(block["label"], "species.label")
        _require(label != "", "species.label must be non-empty")
        _require(
            not _LABEL_FORBIDDEN.search(label),
            "species.label must not contain '.', '|', ',', control characters or line"
            f" separators, got {label!r}",
        )
        species.append(
            SpeciesSpec(
                label=label,
                energy=_as_float(block.get("energy", 0.0), "species.energy") * scale,
                displacement=_as_float(block.get("displacement", 0.0), "species.displacement"),
            )
        )

    couplings_raw = raw.get("couplings", [])
    _require(isinstance(couplings_raw, list), f"couplings must be a list, got {couplings_raw!r}")
    couplings = []
    for entry in couplings_raw:
        block = _as_block(entry, "coupling entry")
        _check_keys(block, {"pair", "J", "lambda_s"}, f"coupling entry {block.get('pair')!r}")
        pair = block.get("pair")
        _require(
            isinstance(pair, list) and len(pair) == 2,
            f"coupling.pair must be a two-element list, got {pair!r}",
        )
        couplings.append(
            CouplingSpec(
                pair=tuple(_as_str(label, "coupling.pair") for label in pair),
                J=_as_float(block.get("J", 0.0), "coupling.J") * scale,
                lambda_s=_as_float(block.get("lambda_s", 0.0), "coupling.lambda_s") * scale,
            )
        )

    cavity_block = _as_block(raw.get("cavity", {}), "cavity")
    _check_keys(cavity_block, {"omega_c", "g", "kappa"}, "cavity")
    cavity = CavitySpec(
        omega_c=_as_float(cavity_block.get("omega_c", omega_v / scale), "cavity.omega_c") * scale,
        g=_as_float(cavity_block.get("g", DEFAULT_G_FACTOR * omega_v / scale), "cavity.g") * scale,
        kappa=_as_float(cavity_block.get("kappa", DEFAULT_KAPPA), "cavity.kappa"),
    )

    bath_block = _as_block(raw.get("bath", {}), "bath")
    _check_keys(bath_block, {"gamma", "eta", "omega_cut", "temperature"}, "bath")
    bath = BathSpec(
        gamma=_as_float(bath_block.get("gamma", DEFAULT_GAMMA), "bath.gamma"),
        eta=_as_float(bath_block.get("eta", DEFAULT_ETA), "bath.eta"),
        omega_cut=_as_float(
            bath_block.get("omega_cut", DEFAULT_OMEGA_CUT_FACTOR * omega_v / scale),
            "bath.omega_cut",
        )
        * scale,
        temperature=_as_float(bath_block.get("temperature", DEFAULT_TEMPERATURE), "bath.temperature"),
    )

    grid_block = _as_block(raw.get("grid", {}), "grid")
    _check_keys(grid_block, {"spacing", "start", "end", "points"}, "grid")
    spacing = grid_block.get("spacing", "log")
    start = _as_float(grid_block.get("start", DEFAULT_GRID_START), "grid.start")
    end = _as_float(grid_block.get("end", DEFAULT_GRID_END), "grid.end")
    n_points = _as_int(grid_block.get("points", DEFAULT_GRID_POINTS), "grid.points")
    if spacing == "log":
        grid = TimeGrid.logarithmic(start, end, n_points)
    elif spacing == "linear":
        grid = TimeGrid.linear(start, end, n_points)
    else:
        raise ConfigError(f"grid.spacing must be 'log' or 'linear', got {spacing!r}")
    network = ReactionNetwork(species=tuple(species), couplings=tuple(couplings))
    reactant = _as_str(raw.get("reactant", species[0].label), "reactant")
    return ScenarioConfig(
        name=name,
        omega_v=omega_v,
        network=network,
        cavity=cavity,
        bath=bath,
        regime_kind=_as_str(raw.get("regime", "vsc"), "regime"),
        reactant=reactant,
        grid=grid,
    )


def load_config(path: str | Path) -> ScenarioConfig:
    """Read and validate a JSON config file."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return config_from_dict(raw, name=path.stem)


def bundled_config_path(name: str) -> Path:
    """Path of a reference config shipped with the package (reaction1..reaction3)."""
    candidate = resources.files("vsckinetics").joinpath("configs", f"{name}.json")
    if not candidate.is_file():
        raise ConfigError(f"no bundled config named {name!r}")
    return Path(str(candidate))


def effective_config_dict(config: ScenarioConfig) -> Dict[str, Any]:
    """Schema-shaped mapping of the fully resolved config, canonical cm^-1 units.

    Feeding this back through config_from_dict reproduces the config exactly.
    """
    return {
        "name": config.name,
        "omega_v": config.omega_v,
        "energy_unit": "cm-1",
        "species": [
            {"label": s.label, "energy": s.energy, "displacement": s.displacement}
            for s in config.network.species
        ],
        "couplings": [
            {"pair": list(c.pair), "J": c.J, "lambda_s": c.lambda_s}
            for c in config.network.couplings
        ],
        "cavity": {
            "omega_c": config.cavity.omega_c,
            "g": config.cavity.g,
            "kappa": config.cavity.kappa,
        },
        "bath": {
            "gamma": config.bath.gamma,
            "eta": config.bath.eta,
            "omega_cut": config.bath.omega_cut,
            "temperature": config.bath.temperature,
        },
        "regime": config.regime_kind,
        "reactant": config.reactant,
        "grid": {
            "spacing": config.grid.spacing,
            "start": config.grid.points[0],
            "end": config.grid.points[-1],
            "points": len(config.grid.points),
        },
    }


def config_fingerprint(config: ScenarioConfig) -> str:
    """sha256 over the canonical JSON form of the effective config."""
    canonical = json.dumps(effective_config_dict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _metadata(config: ScenarioConfig, rate_matrix: RateMatrix) -> Dict[str, Any]:
    kind = config.regime_kind
    return {
        "config": effective_config_dict(config),
        "fingerprint": config_fingerprint(config),
        "derived": {
            "g_effective": effective_coupling(kind, config.cavity.g),
            "basis": "vsc" if kind == "vsc" else "bare",
            "state_count": len(rate_matrix.states),
            "state_labels": list(rate_matrix.states.labels()),
        },
        "constants": {
            "hbar_cm_ps": HBAR,
            "kB_cm_per_K": KB,
            "c_cm_per_ps": SPEED_OF_LIGHT_CM_PER_PS,
            "angular_per_wavenumber": ANGULAR_PER_WAVENUMBER,
        },
    }


def build_generator(config: ScenarioConfig) -> RateMatrix:
    """Choose the regime's mode basis once and assemble the generator over its states.

    VSC works in the polariton/dark eigenmodes; bare and weak work in the
    identity rotation over the uncoupled cavity and vibrations.
    """
    kind = config.regime_kind
    make_basis = build_mode_basis if kind == "vsc" else bare_mode_basis
    try:
        basis = make_basis(config.cavity, config.omega_v)
        return assemble_rate_matrix(config.network, basis, config.cavity, config.bath, kind)
    except OverflowError as exc:
        raise NumericalError(f"scenario {config.name!r}: overflow building the generator") from exc


def run_scenario(config: ScenarioConfig, label: Optional[str] = None) -> ScenarioResult:
    """Full pipeline: states, generator, thermal start, propagation, observables."""
    rate_matrix = build_generator(config)
    p0 = initial_distribution(rate_matrix.states, config.reactant, config.bath.temperature)
    trajectory = propagate(rate_matrix, p0, config.grid)
    return ScenarioResult(
        label=label if label is not None else config.name,
        config=config,
        rate_matrix=rate_matrix,
        trajectory=trajectory,
        metadata=_metadata(config, rate_matrix),
    )


def run_comparison(config: ScenarioConfig, regimes: Sequence[str]) -> List[ScenarioResult]:
    """Run the same scenario under several regimes on a shared grid.

    Every regime is validated before the first run starts.
    """
    if not regimes:
        raise ConfigError("comparison needs at least one regime")
    variants = [replace(config, regime_kind=kind) for kind in regimes]
    return [run_scenario(variant, label=variant.regime_kind) for variant in variants]


def _apply_sweep_value(base: ScenarioConfig, parameter: str, value: float) -> ScenarioConfig:
    block = _SWEEP_BLOCKS[parameter]  # SweepSpec has checked the parameter
    try:
        return replace(base, **{block: replace(getattr(base, block), **{parameter: value})})
    except ValueError as exc:
        raise ConfigError(f"sweep value {parameter}={value!r} rejected: {exc}") from exc


def run_sweep(sweep: SweepSpec) -> List[ScenarioResult]:
    """Run the base scenario once per sweep value, in the order given."""
    results = []
    for value in sweep.values:
        variant = _apply_sweep_value(sweep.base, sweep.parameter, value)
        results.append(run_scenario(variant, label=f"{sweep.parameter}={value!r}"))
    return results


def _safe_label(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9._+-]+", "-", label)


def _csv_lines(result: ScenarioResult) -> List[str]:
    traj = result.trajectory
    state_pop = clamp_for_output(traj.state_populations)
    species_pop = clamp_for_output(traj.species_populations)
    header = ["time_ps"]
    header += [f"p[{label}]" for label in traj.states.labels()]
    header += [f"N_{lab}" for lab in traj.species_labels]
    header += [f"frac_{lab}" for lab in traj.species_labels]
    lines = [f"# fingerprint={result.metadata['fingerprint']}", ",".join(header)]
    for k, t in enumerate(traj.grid.points):
        row = [repr(float(t))]
        row += [repr(float(x)) for x in state_pop[k]]
        row += [repr(float(x)) for x in species_pop[k]]
        row += [repr(float(x / MOLECULES)) for x in species_pop[k]]
        lines.append(",".join(row))
    return lines


def _json_run(result: ScenarioResult) -> Dict[str, Any]:
    traj = result.trajectory
    state_pop = clamp_for_output(traj.state_populations)
    species_pop = clamp_for_output(traj.species_populations)
    return {
        "label": result.label,
        "fingerprint": result.metadata["fingerprint"],
        "metadata": result.metadata,
        "time_ps": [float(t) for t in traj.grid.points],
        "states": list(traj.states.labels()),
        "state_populations": [[float(x) for x in row] for row in state_pop],
        "species": {
            lab: {
                "raw": [float(x) for x in species_pop[:, i]],
                "normalized": [float(x / MOLECULES) for x in species_pop[:, i]],
            }
            for i, lab in enumerate(traj.species_labels)
        },
    }


def export(results: Sequence[ScenarioResult], fmt: str, out_path: str | Path) -> List[Path]:
    """Write results deterministically; returns the written paths.

    "json" always produces one file holding every run. "csv" produces one
    file per run: a single run lands exactly at ``out_path``, several runs
    land at ``<stem>_<label><suffix>`` next to it.
    """
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format must be 'csv' or 'json', got {fmt!r}")
    if not results:
        raise ConfigError("nothing to export")
    out_path = Path(out_path)
    written: List[Path] = []
    try:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        if fmt == "json":
            payload = {"format_version": 1, "runs": [_json_run(r) for r in results]}
            out_path.write_text(json.dumps(payload, indent=2) + "\n")
            written.append(out_path)
        else:
            if len(results) == 1:
                targets = [out_path]
            else:
                targets = [
                    out_path.with_name(
                        f"{out_path.stem}_{_safe_label(r.label)}{out_path.suffix or '.csv'}"
                    )
                    for r in results
                ]
            for target, result in zip(targets, results):
                target.write_text("\n".join(_csv_lines(result)) + "\n")
                written.append(target)
    except OSError as exc:
        raise ConfigError(f"failed to write {out_path}: {exc}") from exc
    return written

"""Config ingestion, scenario orchestration, and deterministic export.

A config is one JSON object, of which the README shows every key; all but "species" are optional.
The keys of its "species", "couplings", "cavity", "bath" and "grid" blocks are the fields of SpeciesSpec,
CouplingSpec, CavitySpec, BathSpec and GridSpec, and ``_NUMBERS`` gives each of their floats its default
and its unit rule. Exports are byte-deterministic and stamped with a sha256 fingerprint of the
effective (canonical) configuration.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, TextIO, Tuple

import numpy as np

from .closed_forms import SWEEP_PARAMETERS, NumericalError
from .eigenmodes import CavitySpec, ModeBasis, mode_basis
from .propagate import TimeGrid, Trajectory, _lumped_start, clamp_for_output, propagate
from .rates import BathSpec, RateMatrix, assemble_rate_matrix, effective_coupling
from .states import MOLECULES, CouplingSpec, ReactionNetwork, SpeciesSpec, initial_distribution
from .units import ANGULAR_PER_WAVENUMBER, HBAR, KB, SPEED_OF_LIGHT_CM_PER_PS

__all__ = [
    "ConfigError",
    "GridSpec",
    "ScenarioConfig",
    "SweepSpec",
    "ScenarioResult",
    "ENERGY_UNITS",
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

DEFAULT_OMEGA_V = 2000.0  # cm^-1
DEFAULT_GRID_POINTS = 400
_ROW_BLOCK = 128  # export rows spelled at a time: each block's strings stay alive until it is written
MAX_GRID_POINTS = 100_000  # memory grows with the points: a 20,000-point reaction3 simulate peaks at 56 MB (CSV), 54 MB (JSON)


@dataclass(frozen=True)
class GridSpec:
    """``points`` output times from ``start`` to ``end`` ps, log or linear spaced, and every rule they obey.
    Their TimeGrid, ``time_grid``, is held outside the fields, which alone give equality, keys and ``asdict``."""

    spacing: str  # "log" or "linear"
    start: float  # ps
    end: float  # ps
    points: int

    def __post_init__(self) -> None:
        _require(self.spacing in ("log", "linear"), f"grid.spacing must be 'log' or 'linear', got {self.spacing!r}")
        if isinstance(self.points, bool) or not isinstance(self.points, int):
            raise ConfigError(f"grid.points must be an integer, got {self.points!r}")
        if self.spacing == "log":
            _require(self.start > 0.0, f"grid.start must be > 0 on a log grid, got {self.start!r}")
        _require(self.start >= 0.0, f"grid.start must be >= 0, got {self.start!r}")
        _require(self.end > self.start, f"grid.end must be > grid.start ({self.start!r}), got {self.end!r}")
        _require(self.end < math.inf, f"grid.end must be finite, got {self.end!r}")
        _require(2 <= self.points <= MAX_GRID_POINTS, f"grid.points must be in 2..{MAX_GRID_POINTS}, got {_int_text(self.points)}")
        start, end = float(self.start) + 0.0, float(self.end)  # an int or -0.0 spells the same grid as 0.0
        times = (np.geomspace if self.spacing == "log" else np.linspace)(start, end, self.points).tolist()
        try:
            self.__dict__.update(start=start, end=end, time_grid=TimeGrid(tuple(times)))
        except ValueError as exc:  # more points than doubles between start and end
            raise ConfigError(f"grid.points: {self.points} points from {self.start!r} to {self.end!r}: {exc}") from None


# Every float of a species, coupling, cavity, bath or grid block, in field order: name -> (default,
# energy?). The unit rule: an energy is read in cm^-1, or in multiples of omega_v under
# "energy_unit": "hbar_omega_v", and the loader converts it to cm^-1 at once; every other number
# (displacements, kappa and gamma in ps^-1, eta, the temperature in K, grid times in ps) never
# rescales. An energy's default is a multiple of omega_v, any other default absolute.
_NUMBERS: Dict[type, Dict[str, Tuple[float, bool]]] = {
    SpeciesSpec: {"energy": (0.0, True), "displacement": (0.0, False)},
    CouplingSpec: {"J": (0.0, True), "lambda_s": (0.0, True)},
    CavitySpec: {"omega_c": (1.0, True), "g": (0.03 / math.sqrt(2.0), True), "kappa": (1.0, False)},
    BathSpec: {"gamma": (0.01, False), "eta": (0.001, False), "omega_cut": (0.1, True), "temperature": (298.0, False)},
    GridSpec: {"start": (0.1, False), "end": (5.0e4, False)},
}

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
    grid: GridSpec
    basis: ModeBasis = field(init=False, compare=False, repr=False)  # derived from regime_kind, never given

    def __post_init__(self) -> None:
        try:  # the mode basis checks the kind, omega_v > 0 and, under vsc, that g keeps omega_minus > 0
            object.__setattr__(self, "basis", mode_basis(self.regime_kind, self.cavity, self.omega_v))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.reactant not in self.network.labels():
            raise ConfigError(f"reactant {self.reactant!r} is not a declared species")
        if self.regime_kind == "weak" and self.cavity.kappa == 0.0 and self.bath.gamma == 0.0:
            # the resonant Purcell rate 4 g^2 / k has no finite limit as the linewidth k -> 0
            raise ConfigError("regime 'weak' needs cavity.kappa > 0 or bath.gamma > 0")


# the ScenarioConfig block that holds each number of the cavity and bath specs, read from _NUMBERS
_SWEPT_BLOCKS = {name: block for block, spec in (("cavity", CavitySpec), ("bath", BathSpec)) for name in _NUMBERS[spec]}


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
        for k, value in enumerate(self.values):
            if not math.isfinite(value):
                raise ConfigError(f"sweep values for {self.parameter} must be finite, got {value!r}")
            if value in self.values[:k]:  # the two runs would share a label and so a CSV file
                raise ConfigError(f"sweep values for {self.parameter} repeat {value!r}")


@dataclass(frozen=True, eq=False)
class ScenarioResult:
    """A completed run: generator, trajectory, and full provenance metadata."""

    label: str
    config: ScenarioConfig
    rate_matrix: RateMatrix
    trajectory: Trajectory

    @property
    def metadata(self) -> Dict[str, Any]:
        """Effective config, its fingerprint, derived quantities and constants; a new dict built on each read."""
        effective = effective_config_dict(self.config)
        return {
            "config": effective,
            "fingerprint": _sha256(effective),
            "derived": {
                "g_effective": effective_coupling(self.config.regime_kind, self.config.cavity.g),
                "basis": "vsc" if self.config.regime_kind == "vsc" else "bare",
                "state_count": len(self.rate_matrix.states),
                "state_labels": list(self.rate_matrix.states.labels()),
            },
            "constants": {
                "hbar_cm_ps": HBAR,
                "kB_cm_per_K": KB,
                "c_cm_per_ps": SPEED_OF_LIGHT_CM_PER_PS,
                "angular_per_wavenumber": ANGULAR_PER_WAVENUMBER,
            },
        }


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _int_text(value: int) -> str:
    # str() of an int past 4,300 digits raises; 2**1024 is the first int past the largest double
    return str(value) if value.bit_length() <= 1024 else f"an integer of {value.bit_length()} bits"


def _as_float(value: Any, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{field} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int past the largest double
        raise ConfigError(f"{field} must be finite, got {_int_text(value)}") from None
    if not math.isfinite(number):
        raise ConfigError(f"{field} must be finite, got {value!r}")
    return number


def _as_str(value: Any, field: str) -> str:
    _require(isinstance(value, str), f"{field} must be a string, got {value!r}")
    return value


def _as_block(value: Any, field: str) -> Dict[str, Any]:
    _require(isinstance(value, dict), f"{field} must be an object")
    return dict(value)


def _check_keys(block: Dict[str, Any], allowed: Sequence[str], context: str) -> None:
    unknown = set(block).difference(allowed)
    _require(not unknown, f"unknown key(s) {sorted(unknown)} in {context}")


def _spec(
    cls: type, block: Dict[str, Any], field: str, omega_v: float, scale: float, context: str = "", **given: Any
) -> Any:
    """A ``cls`` from its config block: keys checked, numbers read, defaulted and scaled by ``_NUMBERS``.

    ``scale`` is the config's energy unit in cm^-1. A default energy is first put in that unit and
    then scaled like a given one.
    """
    _check_keys(block, [f.name for f in fields(cls)], context or field)
    for name, (default, energy) in _NUMBERS[cls].items():
        base, factor = (omega_v, scale) if energy else (1.0, 1.0)
        given[name] = _as_float(block.get(name, default * base / factor), f"{field}.{name}") * factor
    return cls(**given)


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
        _require("label" in block, "species entry missing 'label'")
        label = _as_str(block["label"], "species.label")
        species.append(_spec(SpeciesSpec, block, "species", omega_v, scale, f"species entry {label!r}", label=label))

    couplings_raw = raw.get("couplings", [])
    _require(isinstance(couplings_raw, list), f"couplings must be a list, got {couplings_raw!r}")
    couplings = []
    for entry in couplings_raw:
        block = _as_block(entry, "coupling entry")
        pair = block.get("pair")
        _require(
            isinstance(pair, list) and len(pair) == 2,
            f"coupling.pair must be a two-element list, got {pair!r}",
        )
        labels = tuple(_as_str(label, "coupling.pair") for label in pair)
        context = f"coupling entry {pair!r}"
        couplings.append(_spec(CouplingSpec, block, "coupling", omega_v, scale, context, pair=labels))

    cavity = _spec(CavitySpec, _as_block(raw.get("cavity", {}), "cavity"), "cavity", omega_v, scale)
    bath = _spec(BathSpec, _as_block(raw.get("bath", {}), "bath"), "bath", omega_v, scale)

    grid_block = _as_block(raw.get("grid", {}), "grid")
    given = {"spacing": grid_block.get("spacing", "log"), "points": grid_block.get("points", DEFAULT_GRID_POINTS)}
    grid = _spec(GridSpec, grid_block, "grid", omega_v, scale, **given)
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
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, an int past the digit limit, or too deep
        raise ConfigError(f"{path}: unreadable config: {exc}") from exc
    return config_from_dict(raw, name=path.stem)


def bundled_config_path(name: str) -> Path:
    """Path of a reference config shipped with the package (reaction1..reaction3)."""
    candidate = Path(__file__).with_name("configs") / f"{name}.json"
    if not candidate.is_file():
        raise ConfigError(f"no bundled config named {name!r}")
    return candidate


def effective_config_dict(config: ScenarioConfig) -> Dict[str, Any]:
    """Schema-shaped mapping of the fully resolved config, canonical cm^-1 units.

    Each block is its spec's fields, so config_from_dict of this gives back the config and its fingerprint.
    """
    return {
        "name": config.name,
        "omega_v": config.omega_v,
        "energy_unit": "cm-1",
        "species": [asdict(s) for s in config.network.species],
        "couplings": [dict(asdict(c), pair=list(c.pair)) for c in config.network.couplings],
        "cavity": asdict(config.cavity),
        "bath": asdict(config.bath),
        "regime": config.regime_kind,
        "reactant": config.reactant,
        "grid": asdict(config.grid),
    }


def config_fingerprint(config: ScenarioConfig) -> str:
    """sha256 over the canonical JSON form of the effective config."""
    return _sha256(effective_config_dict(config))


def _sha256(effective: Dict[str, Any]) -> str:
    canonical = json.dumps(effective, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def build_generator(config: ScenarioConfig) -> RateMatrix:
    """The generator of ``config`` over ``config.basis``, its reactive part shared by the
    process between equal networks, bases and temperatures (``assemble_rate_matrix``)."""
    try:
        return assemble_rate_matrix(config.network, config.basis, config.cavity, config.bath, config.regime_kind)
    except OverflowError as exc:
        raise NumericalError(f"scenario {config.name!r}: overflow building the generator") from exc


def _run(variants: Iterable[Tuple[str, ScenarioConfig]]) -> List[ScenarioResult]:
    """Run labelled configs in order: each builds its generator and propagates, sharing the
    reactive part and its states with earlier runs through the cache of ``assemble_rate_matrix``.
    Consecutive runs over one state space, reactant and temperature share one thermal p0, checked
    and lumped once (``propagate``'s start). A run whose start (states, reactant and temperature),
    grid and generator are all bit-identical to the run before it takes a copy of that run's
    populations through ``replace``, so it reports the path and declines of the propagation it copied.
    """
    results: List[ScenarioResult] = []
    last = drawn = None  # the inputs of the run before, and what its start was drawn from
    for label, config in variants:
        rate_matrix = build_generator(config)
        key = (rate_matrix.states, config.reactant, config.bath.temperature)
        if key != drawn:
            drawn, start = key, _lumped_start(key[0], initial_distribution(*key), key[2])
        inputs = (key, config.grid, rate_matrix.matrix.tobytes())
        if inputs == last:
            populations = results[-1].trajectory.state_populations.copy()
            trajectory = replace(results[-1].trajectory, state_populations=populations)
        else:
            trajectory = propagate(rate_matrix, start, config.grid.time_grid)
        results.append(ScenarioResult(label, config, rate_matrix, trajectory))
        last = inputs
    return results


def run_scenario(config: ScenarioConfig, label: Optional[str] = None) -> ScenarioResult:
    """Full pipeline: states, generator, thermal start, propagation, observables."""
    return _run([(label if label is not None else config.name, config)])[0]


def run_comparison(config: ScenarioConfig, regimes: Sequence[str]) -> List[ScenarioResult]:
    """Run the same scenario under several regimes on a shared grid.

    Every regime is validated before the first run starts. Bare and weak share
    the reactive part of the generator and its states through the cache of
    ``assemble_rate_matrix``; vsc has its own.
    """
    if not regimes:
        raise ConfigError("comparison needs at least one regime")
    for k, kind in enumerate(regimes):  # two runs of one regime would share a label and a CSV file
        _require(kind not in regimes[:k], f"regime {kind!r} appears more than once")
    variants = [replace(config, regime_kind=kind) for kind in regimes]
    return _run((variant.regime_kind, variant) for variant in variants)


def _apply_sweep_value(base: ScenarioConfig, parameter: str, value: float) -> ScenarioConfig:
    block = _SWEPT_BLOCKS[parameter]  # SweepSpec has checked the parameter
    try:
        return replace(base, **{block: replace(getattr(base, block), **{parameter: value})})
    except ValueError as exc:
        raise ConfigError(f"sweep value {parameter}={value!r} rejected: {exc}") from exc


def run_sweep(sweep: SweepSpec) -> List[ScenarioResult]:
    """Run the base scenario once per sweep value, in the order given; a value is checked in its turn.

    The reactive part and its states are built once for a kappa, gamma or eta sweep and a bare or
    weak g sweep, and per value for a vsc g sweep, whose mode basis reads g. Assembly memoizes them
    per process on their value inputs, so a second sweep over the same network, basis and
    temperature builds none. Values that leave the generator bit-identical (eta under bare or
    weak, g under bare) propagate it once.
    """
    return _run(
        (f"{sweep.parameter}={value!r}", _apply_sweep_value(sweep.base, sweep.parameter, value))
        for value in sweep.values
    )


def _safe_label(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9._+-]+", "-", label)


def _columns(traj: Trajectory) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The exported blocks: times, state populations, molecule counts and fractions."""
    species_pop = clamp_for_output(traj.species_populations)
    return traj.grid.times, clamp_for_output(traj.state_populations), species_pop, species_pop / MOLECULES


def _spelled_rows(table: np.ndarray) -> Iterator[Tuple[str, ...]]:
    """The rows of a 2-D float ``table``, each float spelled by ``repr``, in blocks of _ROW_BLOCK rows.

    Within a block each distinct column is spelled once: exchange partners' state columns are
    bit-identical (``propagate`` unlumps them from one orbit), and columns are told apart by their bytes.
    """
    for first in range(0, len(table), _ROW_BLOCK):
        spelled: Dict[bytes, List[str]] = {}
        columns = []
        for column in table[first : first + _ROW_BLOCK].T:
            key = column.tobytes()
            if key not in spelled:
                spelled[key] = list(map(repr, column.tolist()))
            columns.append(spelled[key])
        yield from zip(*columns)


def _write_csv(result: ScenarioResult, out_path: Path) -> None:
    traj = result.trajectory
    header = ["time_ps", *(f"p[{label}]" for label in traj.states.labels())]
    header += [f"{column}_{lab}" for column in ("N", "frac") for lab in traj.species_labels]
    with out_path.open("w") as stream:
        stream.write(f"# fingerprint={config_fingerprint(result.config)}\n{','.join(header)}\n")
        for row in _spelled_rows(np.column_stack(_columns(traj))):
            stream.write(",".join(row) + "\n")


def _json_run(result: ScenarioResult) -> Dict[str, Any]:
    """The run's JSON object, its float arrays as numpy arrays."""
    traj = result.trajectory
    times, state_pop, species_pop, fractions = _columns(traj)
    metadata = result.metadata
    return {
        "label": result.label,
        "fingerprint": metadata["fingerprint"],
        "metadata": metadata,
        "time_ps": times,
        "states": list(traj.states.labels()),
        "state_populations": state_pop,
        "species": {
            lab: {"raw": species_pop[:, k], "normalized": fractions[:, k]} for k, lab in enumerate(traj.species_labels)
        },
    }


def _json_floats(spellings: Iterable[str], indent: str) -> str:
    """A list of float reprs as ``json.dumps(indent=2)`` spells it at ``indent``: NaN and Infinity respelled."""
    inner = indent + "  "
    text = f"[\n{inner}" + f",\n{inner}".join(spellings) + f"\n{indent}]"
    return text.replace("nan", "NaN").replace("inf", "Infinity")


def _write_value(stream: TextIO, value: Any, indent: str = "") -> None:
    """Write ``value`` as ``json.dumps(value, indent=2)`` spells it at ``indent``, an array as its list.

    A ScenarioResult is written as its run object, built only here, and a 2-D array row by row
    (``_spelled_rows``).
    Any value json cannot encode raises json's own TypeError.
    """
    if isinstance(value, ScenarioResult):
        value = _json_run(value)
    inner = indent + "  "
    if isinstance(value, np.ndarray) and value.size:
        if value.ndim == 1:
            stream.write(_json_floats(map(repr, value.tolist()), indent))
        else:
            for k, row in enumerate(_spelled_rows(value)):
                stream.write(f"{',' if k else '['}\n{inner}{_json_floats(row, inner)}")
            stream.write(f"\n{indent}]")
        return
    if isinstance(value, dict):
        brackets, items = "{}", ((json.dumps(key) + ": ", item) for key, item in value.items())
    elif isinstance(value, (list, tuple, np.ndarray)):
        brackets, items = "[]", (("", item) for item in value)
    else:
        stream.write(json.dumps(value))
        return
    separator = "\n"
    stream.write(brackets[0])
    for prefix, item in items:
        stream.write(f"{separator}{inner}{prefix}")
        _write_value(stream, item, inner)
        separator = ",\n"
    stream.write(brackets[1] if separator == "\n" else f"\n{indent}{brackets[1]}")


def _write_json(results: Sequence[ScenarioResult], out_path: Path) -> None:
    """Write the bytes of ``json.dumps(payload, indent=2) + "\\n"``, walking the payload: a run's
    metadata and arrays are built only when the walk reaches the run, so one run's are alive at a time."""
    with out_path.open("w") as stream:
        _write_value(stream, {"format_version": 1, "runs": list(results)})
        stream.write("\n")


def export(results: Sequence[ScenarioResult], fmt: str, out_path: str | Path) -> List[Path]:
    """Write results deterministically; returns the written paths.

    "json" always produces one file holding every run, the bytes of ``json.dumps(payload,
    indent=2)`` and a newline. It is written value by value as the payload is walked, and a run's
    metadata and arrays are built only when the walk reaches the run, so memory does not grow with
    the number of runs; an unserializable value raises after the runs before it are written.
    "csv" produces one file per run, written row by row without building metadata: a single run
    lands exactly at ``out_path``, several runs at ``<stem>_<label><suffix>`` next to it, and two
    labels that would name one file raise ConfigError before any file is written.
    """
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format must be 'csv' or 'json', got {fmt!r}")
    if not results:
        raise ConfigError("nothing to export")
    out_path = Path(out_path)
    targets = [out_path]
    if fmt == "csv" and len(results) > 1:
        suffix = out_path.suffix or ".csv"
        targets = [out_path.with_name(f"{out_path.stem}_{_safe_label(r.label)}{suffix}") for r in results]
        for k, target in enumerate(targets):  # labels that differ may spell one file name
            first = results[targets.index(target)].label
            _require(target not in targets[:k], f"runs {first!r} and {results[k].label!r} would both be written to {target}")
    try:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        if fmt == "json":
            _write_json(results, out_path)
        else:
            for target, result in zip(targets, results):
                _write_csv(result, target)
        return targets
    except OSError as exc:
        raise ConfigError(f"failed to write {out_path}: {exc}") from exc

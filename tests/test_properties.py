"""Generator invariants and config round trips over random valid configs (hypothesis).

Every generated config is valid input: 1-4 species with random energies,
displacements and couplings, a cavity that may sit on resonance and may be
uncoupled (g = 0), kappa/gamma/eta that may be 0, and T in [150, 450] K,
under the bare and vsc regimes. Each generator must
conserve probability column by column, keep every off-diagonal rate
non-negative, pair every rate by detailed balance and commute with the
exchange of the two molecules, whose state energies it maps onto each
other bit for bit.

Nonzero displacements reach down to 1e-160, whose one-quantum factors fall
below the smallest normal double, so reactive pairs that underflow are drawn.
Propagated trajectories must conserve probability under all three regimes,
and a config with one wrong field must be rejected by name, both at load and
through the CLI. The process-wide cache of reactive parts must serve inputs
equal in value to cached ones, -0.0 for 0.0 included, with the bits a fresh
build gives, the exchange orbits of its states included, and a p0 equal in
value propagates to the same bits whatever its type. The JSON writer must spell any nesting of dicts with
string keys, lists, tuples, scalars (NaN, +-inf and -0.0 among the floats) and
1-D or 2-D float arrays, empty ones included, as ``json.dumps(indent=2)``
spells it with each array as its list.
"""

import contextlib
import copy
import dataclasses
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import assert_json_export, detailed_balance_worst
from vsckinetics.cli import main
from vsckinetics.config import (
    ENERGY_UNITS,
    ConfigError,
    GridSpec,
    _write_value,
    build_generator,
    config_fingerprint,
    config_from_dict,
    effective_config_dict,
    export,
    run_scenario,
)
from vsckinetics.eigenmodes import REGIME_KINDS, mode_basis
from vsckinetics.propagate import CONSERVATION_TOL, NEGATIVITY_TOL, propagate
from vsckinetics.rates import REACTIVE_CACHE_SIZE, reactive_rates
from vsckinetics.states import initial_distribution
from vsckinetics.units import thermal_energy

OMEGA_V = 2000.0


def zero_or(low, high):
    return st.one_of(st.just(0.0), st.floats(low, high))


@st.composite
def configs(draw):
    n_species = draw(st.integers(1, 4))
    labels = [f"S{i}" for i in range(n_species)]
    species = [
        {
            "label": label,
            "energy": draw(st.floats(-1000.0, 1000.0)),
            "displacement": draw(zero_or(1e-160, 3.0)),
        }
        for label in labels
    ]
    couplings = []
    for i in range(n_species):
        for j in range(i + 1, n_species):
            if draw(st.booleans()):
                couplings.append(
                    {
                        "pair": [labels[i], labels[j]],
                        "J": draw(st.floats(0.1, 50.0)),
                        "lambda_s": draw(st.floats(100.0, 800.0)),
                    }
                )
    return {
        "omega_v": OMEGA_V,
        "species": species,
        "couplings": couplings,
        "cavity": {
            "omega_c": OMEGA_V + draw(zero_or(-300.0, 300.0)),
            "g": draw(zero_or(0.01, 150.0)),
            "kappa": draw(zero_or(1e-3, 10.0)),
        },
        "bath": {
            "gamma": draw(zero_or(1e-4, 1.0)),
            "eta": draw(zero_or(1e-5, 1e-2)),
            "temperature": draw(st.floats(150.0, 450.0)),
        },
        "regime": draw(st.sampled_from(["bare", "vsc"])),
    }


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(configs())
def test_generator_invariants(raw):
    config = config_from_dict(raw)
    gen = build_generator(config)
    K = gen.matrix
    n = len(config.network.species)
    assert K.shape == (4 * n * n, 4 * n * n)

    scale = max(1.0, float(-np.diag(K).min()))
    assert np.abs(K.sum(axis=0)).max() <= 1e-12 * scale

    off = K - np.diag(np.diag(K))
    assert np.all(off >= 0.0)

    energies = gen.states.energies.ravel()
    kT = thermal_energy(config.bath.temperature)
    assert detailed_balance_worst(K, energies, kT) <= 1e-10

    perm = gen.states.exchange
    assert np.array_equal(energies[perm], energies)
    swapped = K[perm][:, perm]
    assert np.array_equal(swapped - np.diag(np.diag(swapped)), off)
    # the diagonal sums the same rates in another order
    assert np.all(np.abs(np.diag(swapped) - np.diag(K)) <= 4 * np.finfo(float).eps * -np.diag(K))


def arrays_reachable(obj):
    """Every numpy array among the fields, and cached properties read so far, of nested dataclasses."""
    for value in vars(obj).values():
        if isinstance(value, np.ndarray):
            yield value
        elif dataclasses.is_dataclass(value):
            yield from arrays_reachable(value)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(configs(), st.data())
def test_cached_parts_are_fresh_builds(raw, data):
    # a twin equal in value, built separately, with some zeros signed the other way
    twin = copy.deepcopy(raw)
    for entry, other in zip(raw["species"], twin["species"]):
        for key in ("energy", "displacement"):
            if data.draw(st.booleans()):
                entry[key], other[key] = data.draw(st.sampled_from([(0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0)]))
    if twin["cavity"]["g"] == 0.0:
        twin["cavity"]["g"] = -0.0
    parts, keys = [], []
    for config in map(config_from_dict, (raw, twin)):
        basis = mode_basis(config.regime_kind, config.cavity, config.omega_v)
        inputs = (config.network, basis, config.bath.temperature)
        keys.append(inputs)
        cached = reactive_rates(*inputs)
        (states, matrix), (fresh_states, fresh_matrix) = cached, reactive_rates.__wrapped__(*inputs)
        assert states.exchange.tobytes() == fresh_states.exchange.tobytes()
        for field in ("species", "modes", "mode_swap"):
            assert getattr(states, field) == getattr(fresh_states, field)
        assert states.energies.tobytes() == fresh_states.energies.tobytes()
        assert matrix.tobytes() == fresh_matrix.tobytes()
        # the orbits propagate lumps on, as the cached states hold them
        assert [a.tobytes() for a in states.orbits] == [a.tobytes() for a in fresh_states.orbits]
        assert not any(array.flags.writeable for array in [matrix, *arrays_reachable(states), *states.orbits])
        parts.append(cached)
    # g = -0.0 loads as 0.0, so the twin's basis is the same too, also below resonance
    assert keys[1] == keys[0]
    assert parts[1] is parts[0]
    assert reactive_rates.cache_info().maxsize == REACTIVE_CACHE_SIZE == 32


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(configs())
def test_equal_starts_propagate_the_same_bits(raw):
    config = config_from_dict(raw)
    gen = build_generator(config)
    grid = GridSpec("log", 0.1, 1.0e3, 5).time_grid
    p0 = initial_distribution(gen.states, config.reactant, config.bath.temperature)
    reference = propagate(gen, p0, grid).state_populations.tobytes()
    for same in (p0.tolist(), np.where(p0 == 0.0, -0.0, p0)):
        assert propagate(gen, same, grid).state_populations.tobytes() == reference
    one_hot = np.zeros(len(gen.states), dtype=int)
    one_hot[0] = 1
    reference = propagate(gen, one_hot.astype(float), grid).state_populations.tobytes()
    assert propagate(gen, one_hot, grid).state_populations.tobytes() == reference
    n = len(gen.states)
    with pytest.raises(ValueError, match=rf"^p0 has shape \(1, {n}\), expected \({n},\)$"):
        propagate(gen, p0[None, :], grid)


def in_units_of_omega_v(raw):
    """The same draw with its energy-like fields read as multiples of omega_v."""
    scaled = copy.deepcopy(raw)
    scaled["energy_unit"] = "hbar_omega_v"
    for species in scaled["species"]:
        species["energy"] /= OMEGA_V
    for coupling in scaled["couplings"]:
        coupling["J"] /= OMEGA_V
        coupling["lambda_s"] /= OMEGA_V
    for key in ("omega_c", "g"):
        scaled["cavity"][key] /= OMEGA_V
    return scaled


@st.composite
def scenarios(draw):
    """A ``configs`` draw in either energy unit, on a short log or linear grid."""
    raw = draw(configs())
    if draw(st.booleans()):
        raw = in_units_of_omega_v(raw)
    spacing = draw(st.sampled_from(["log", "linear"]))
    start = draw(st.floats(0.01, 10.0) if spacing == "log" else zero_or(0.01, 10.0))
    raw["grid"] = {
        "spacing": spacing,
        "start": start,
        "end": start + draw(st.floats(1.0, 1e5)),
        "points": draw(st.integers(2, 12)),
    }
    return raw


def test_effective_config_round_trips():
    kinds = set()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(scenarios())
    def check(raw):
        config = config_from_dict(raw)
        rebuilt = config_from_dict(effective_config_dict(config))
        assert rebuilt == config
        assert config_fingerprint(rebuilt) == config_fingerprint(config)
        kinds.add((raw.get("energy_unit", "cm-1"), config.grid.spacing))

    check()
    assert kinds == {(u, s) for u in ENERGY_UNITS for s in ("log", "linear")}


def test_probability_is_conserved():
    kinds = set()

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(scenarios(), st.sampled_from(REGIME_KINDS))
    def check(raw, kind):
        # weak needs a linewidth; that rejection is tested in test_config_io
        assume(kind != "weak" or raw["cavity"]["kappa"] > 0.0 or raw["bath"]["gamma"] > 0.0)
        config = config_from_dict(dict(raw, regime=kind))
        populations = run_scenario(config).trajectory.state_populations
        assert np.abs(populations.sum(axis=1) - 1.0).max() <= CONSERVATION_TOL
        assert populations.min() >= NEGATIVITY_TOL
        kinds.add((kind, config.grid.spacing))

    check()
    assert kinds == {(k, s) for k in REGIME_KINDS for s in ("log", "linear")}


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(scenarios())
def test_embedded_config_reexports_identical_bytes(raw):
    first = run_scenario(config_from_dict(raw))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        assert_json_export([first], out / "first.json")  # and the streamed bytes are the one-dump bytes
        embedded = json.loads((out / "first.json").read_text())["runs"][0]["metadata"]["config"]
        again = run_scenario(config_from_dict(embedded))
        export([first], "csv", out / "first.csv")
        for fmt in ("json", "csv"):
            export([again], fmt, out / f"again.{fmt}")
            assert (out / f"again.{fmt}").read_bytes() == (out / f"first.{fmt}").read_bytes()


FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
FLOAT_ARRAYS = hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4), elements=FLOATS)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | FLOATS | st.text() | FLOAT_ARRAYS,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(st.text(), children, max_size=4)
    ),
    max_leaves=24,
)


def as_lists(value):
    """``value`` with every array as its nested list."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {key: as_lists(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [as_lists(item) for item in value]
    return value


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(JSON_VALUES)
def test_json_writer_spells_what_json_dumps_spells(value):
    stream = io.StringIO()
    _write_value(stream, value)
    assert stream.getvalue() == json.dumps(as_lists(value), indent=2)


BAD_VALUES = {
    float: ["2000", None, True, [1.0], {"x": 1.0}, math.nan, math.inf, -math.inf],
    int: ["4", None, True, 4.0, 2.5, math.nan, [4]],
    str: [5, None, 1.5, ["A"], {"A": 1}],
    list: [5, None, "AB", {"a": 1}, 1.5],
    dict: [5, None, "x", [1.0]],
}


def fields(value, path=()):
    """Path of every value in a raw config, containers included."""
    found = [path] if path else []
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return found
    for key, item in items:
        found += fields(item, (*path, key))
    return found


def field_name(path) -> str:
    """How a load error names the field at ``path``: keys joined by '.', list indices dropped."""
    keys = [key for key in path if isinstance(key, str)]
    if path[0] == "couplings" and len(path) > 1:
        keys[0] = "coupling"  # the entries of "couplings" report as coupling, coupling.J, ...
    return ".".join(keys)


def with_one_wrong_field(raw, data):
    """A copy of ``raw`` with one value made wrong-typed, non-finite or not a list/object."""
    path = data.draw(st.sampled_from(fields(raw)))
    bad = copy.deepcopy(raw)
    parent = bad
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = data.draw(st.sampled_from(BAD_VALUES[type(parent[path[-1]])]))
    return bad, path


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(scenarios(), st.data())
def test_one_wrong_field_is_named(raw, data):
    bad, path = with_one_wrong_field(raw, data)
    with pytest.raises(ConfigError) as info:
        config_from_dict(bad)
    assert field_name(path) in str(info.value)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(scenarios(), st.data())
def test_one_wrong_field_exits_2_from_the_cli(raw, data):
    bad, path = with_one_wrong_field(raw, data)
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "bad.json", Path(tmp) / "out.csv"
        config.write_text(json.dumps(bad))  # NaN and Infinity as JSON literals
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(["simulate", "--config", str(config), "--out", str(out)])
        assert code == 2
        assert field_name(path) in stderr.getvalue()
        assert "Traceback" not in stderr.getvalue()
        assert not out.exists()

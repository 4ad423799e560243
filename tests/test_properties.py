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
through the CLI.
"""

import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import detailed_balance_worst
from vsckinetics.cli import main
from vsckinetics.config import (
    ENERGY_UNITS,
    ConfigError,
    build_generator,
    config_from_dict,
    effective_config_dict,
    export,
    run_scenario,
)
from vsckinetics.propagate import CONSERVATION_TOL, NEGATIVITY_TOL
from vsckinetics.rates import REGIME_KINDS
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
        assert config_from_dict(effective_config_dict(config)) == config
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
        (exported,) = export([first], "json", out / "first.json")
        embedded = json.loads(exported.read_text())["runs"][0]["metadata"]["config"]
        again = run_scenario(config_from_dict(embedded))
        export([first], "csv", out / "first.csv")
        for fmt in ("json", "csv"):
            export([again], fmt, out / f"again.{fmt}")
            assert (out / f"again.{fmt}").read_bytes() == (out / f"first.{fmt}").read_bytes()


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

"""Config loading, orchestration, deterministic export, and the CLI."""

import importlib
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import time
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import vsckinetics
import vsckinetics.cli as cli_module
import vsckinetics.closed_forms as closed_forms
import vsckinetics.config as config_module
import vsckinetics.eigenmodes as eigenmodes_module
import vsckinetics.propagate as propagate_module
import vsckinetics.rates as rates_module
from conftest import STIFF_REDUCIBLE, assert_json_export, coupling, species
from vsckinetics.cli import main
from vsckinetics.closed_forms import SWEEP_PARAMETERS, vsc_scaling_criterion
from vsckinetics.config import (
    MAX_GRID_POINTS,
    ConfigError,
    GridSpec,
    ScenarioResult,
    SweepSpec,
    bundled_config_path,
    config_fingerprint,
    config_from_dict,
    effective_config_dict,
    export,
    load_config,
    run_comparison,
    run_scenario,
    run_sweep,
)
from vsckinetics.eigenmodes import REGIME_KINDS, CavitySpec, mode_basis
from vsckinetics.propagate import TimeGrid, propagate
from vsckinetics.rates import BathSpec, purcell_exchange_rate, reactive_rates
from vsckinetics.states import CouplingSpec, SpeciesSpec, initial_distribution
from vsckinetics.units import thermal_energy

BLOCK_SPECS = {"species": SpeciesSpec, "couplings": CouplingSpec, "cavity": CavitySpec, "bath": BathSpec}


def fast_dict(**overrides):
    """Small scenario that propagates in milliseconds."""
    base = {
        "name": "fast",
        "omega_v": 2000.0,
        "species": [
            {"label": "A", "energy": 0.0, "displacement": 0.0},
            {"label": "B", "energy": -1200.0, "displacement": 1.5},
        ],
        "couplings": [{"pair": ["A", "B"], "J": 20.0, "lambda_s": 160.0}],
        "regime": "vsc",
        "grid": {"spacing": "log", "start": 1.0, "end": 100.0, "points": 4},
    }
    base.update(overrides)
    return base


SHORT_GRID = GridSpec("log", 0.1, 5.0e4, 40)
# each list starts at its parameter's limit: no leakage, bath coupling, decay or light-matter coupling
SWEEP_VALUES = {"kappa": (0.0, 0.3, 3.0), "eta": (0.0, 1e-3, 1e-2), "gamma": (0.0, 0.01, 0.5), "g": (0.0, 5.0, 60.0)}


def assert_identical_runs(runs, reference, tmp_path):
    """Same labels, bit-identical generators and populations, the same propagation paths and declines,
    no shared arrays, same export bytes."""
    assert [r.label for r in runs] == [r.label for r in reference]
    for run, ref in zip(runs, reference):
        assert run.rate_matrix.matrix.tobytes() == ref.rate_matrix.matrix.tobytes()
        assert run.trajectory.state_populations.tobytes() == ref.trajectory.state_populations.tobytes()
        assert (run.trajectory.path, run.trajectory.declines) == (ref.trajectory.path, ref.trajectory.declines)
    for earlier, later in zip(runs, runs[1:]):
        assert not np.shares_memory(earlier.trajectory.state_populations, later.trajectory.state_populations)
    for fmt in ("csv", "json"):
        written = export(runs, fmt, tmp_path / "runs" / f"out.{fmt}")
        expected = export(reference, fmt, tmp_path / "reference" / f"out.{fmt}")
        assert [p.name for p in written] == [p.name for p in expected]
        assert [p.read_bytes() for p in written] == [p.read_bytes() for p in expected]


def count_calls(monkeypatch):
    """Calls of the parts a sweep may share: states (one per reactive part built) and propagation."""
    calls = {}
    for module, name in ((rates_module, "enumerate_states"), (config_module, "propagate")):
        def counted(*args, original=getattr(module, name), name=name):
            calls[name] = calls.get(name, 0) + 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


def propagate_nan_p0(config):
    gen = config_module.build_generator(config)
    p0 = initial_distribution(gen.states, config.reactant, config.bath.temperature)
    p0[-1] = math.nan
    return propagate(gen, p0, config.grid)


# a value built with NaN or +-inf in place of a number, and the error it raises
NON_FINITE_BUILDS = {
    "grid nan": (lambda c: TimeGrid(points=(0.0, math.nan)), "time grid points must be finite, got nan"),
    "grid inf": (lambda c: TimeGrid(points=(0.0, math.inf)), "time grid points must be finite, got inf"),
    "linear grid to inf": (lambda c: GridSpec("linear", 0.0, math.inf, 3), "grid.end must be finite, got inf"),
    "log grid from nan": (lambda c: GridSpec("log", math.nan, 1.0, 3), "grid.start must be > 0 on a log grid, got nan"),
    "linear grid from nan": (lambda c: GridSpec("linear", math.nan, 1.0, 3), "grid.start must be >= 0, got nan"),
    "grid to nan": (lambda c: GridSpec("log", 1.0, math.nan, 3), r"grid.end must be > grid.start \(1.0\), got nan"),
    "p0 nan": (propagate_nan_p0, "p0 must sum to 1 within 1e-10, got nan"),
    "gamma nan": (lambda c: replace(c.bath, gamma=math.nan), "gamma must be >= 0, got nan"),
    "eta nan": (lambda c: replace(c.bath, eta=math.nan), "eta must be >= 0, got nan"),
    "omega_cut nan": (lambda c: replace(c.bath, omega_cut=math.nan), "omega_cut must be > 0, got nan"),
    "temperature nan": (lambda c: replace(c.bath, temperature=math.nan), "temperature must be > 0, got nan"),
    "kappa nan": (lambda c: replace(c.cavity, kappa=math.nan), "kappa must be >= 0, got nan"),
    "omega_c nan": (lambda c: replace(c.cavity, omega_c=math.nan), "omega_c must be > 0, got nan"),
    "g nan": (lambda c: replace(c.cavity, g=math.nan), "g must be >= 0, got nan"),
    "omega_v nan": (lambda c: mode_basis("bare", c.cavity, math.nan), "omega_v must be > 0, got nan"),
    "energy nan": (lambda c: replace(c.network.species[1], energy=math.nan), "species energy must be finite, got nan"),
    "energy inf": (lambda c: replace(c.network.species[1], energy=-math.inf), "species energy must be finite, got -inf"),
    "displacement nan": (
        lambda c: replace(c.network.species[1], displacement=math.nan), "species displacement must be finite, got nan"
    ),
    "J nan": (lambda c: replace(c.network.couplings[0], J=math.nan), "J must be finite, got nan"),
    "J inf": (lambda c: replace(c.network.couplings[0], J=math.inf), "J must be finite, got inf"),
    "lambda_s nan": (lambda c: replace(c.network.couplings[0], J=0.0, lambda_s=math.nan), "lambda_s must be >= 0, got nan"),
    "kT nan": (lambda c: thermal_energy(math.nan), "temperature must be > 0 K, got nan"),
    "out-rate nan": (lambda c: purcell_exchange_rate(math.nan, 0.01, 0.42, 0.0), "out-rates must be >= 0"),
    "out-rate nan, vibrational": (lambda c: purcell_exchange_rate(1.0, math.nan, 0.42, 0.0), "out-rates must be >= 0"),
    "out-rate nan in an array": (
        lambda c: purcell_exchange_rate(np.array([1.0, 1.0]), np.array([0.01, math.nan]), 0.42, 0.0),
        "out-rates must be >= 0",
    ),
    "epsilon nan": (lambda c: vsc_scaling_criterion(math.nan, 2, 1.0, 1.0), "epsilon must be >= 0, got nan"),
    "k_d nan": (lambda c: vsc_scaling_criterion(0.1, 2, 1.0, math.nan), "rates must be >= 0"),
}


class TestBundledConfigs:
    @pytest.mark.parametrize("name", ["reaction1", "reaction2", "reaction3"])
    def test_loads_and_shares_defaults(self, name):
        config = load_config(bundled_config_path(name))
        assert config.name == name
        assert config.omega_v == 2000.0
        assert config.cavity.omega_c == 2000.0
        assert config.cavity.g == pytest.approx(42.426406871192846, rel=1e-15)
        assert config.cavity.kappa == 1.0
        assert config.bath.gamma == 0.01
        assert config.bath.eta == 0.001
        assert config.bath.omega_cut == pytest.approx(200.0, rel=1e-15)
        assert config.bath.temperature == 298.0
        assert config.regime_kind == "vsc"
        assert config.reactant == "A"
        assert config.grid == GridSpec("log", 0.1, 5.0e4, 400)

    def test_reaction1_values(self, reaction1):
        net = reaction1.network
        assert net.labels() == ("A", "B")
        assert species(net, "B").energy == pytest.approx(-1200.0, rel=1e-15)
        assert species(net, "B").displacement == 1.5
        c = coupling(net, "A", "B")
        assert c.J == pytest.approx(20.0, rel=1e-15)
        assert c.lambda_s == pytest.approx(160.0, rel=1e-15)

    def test_reaction2_values(self, reaction2):
        net = reaction2.network
        assert species(net, "B").energy == pytest.approx(1900.0, rel=1e-15)
        assert species(net, "B").displacement == 1.0
        c = coupling(net, "A", "B")
        assert c.J == pytest.approx(4.0, rel=1e-15)
        assert c.lambda_s == pytest.approx(100.0, rel=1e-15)

    def test_reaction3_values(self, reaction3):
        net = reaction3.network
        assert net.labels() == ("A", "B", "C")
        assert species(net, "B").energy == pytest.approx(-2100.0, rel=1e-15)
        assert species(net, "C").energy == pytest.approx(-2700.0, rel=1e-15)
        assert species(net, "B").displacement == 1.5
        assert species(net, "C").displacement == 4.5
        assert coupling(net, "A", "B").J == pytest.approx(0.6, rel=1e-12)
        assert coupling(net, "A", "B").lambda_s == pytest.approx(100.0, rel=1e-15)
        assert coupling(net, "B", "C").J == pytest.approx(40.0, rel=1e-15)
        assert coupling(net, "B", "C").lambda_s == pytest.approx(600.0, rel=1e-15)
        assert coupling(net, "A", "C") is None

    def test_unknown_bundle_rejected(self):
        with pytest.raises(ConfigError):
            bundled_config_path("reaction9")


class TestSchema:
    def test_defaults(self):
        config = config_from_dict({"species": [{"label": "A"}]})
        assert config.omega_v == 2000.0
        assert config.cavity.omega_c == 2000.0
        assert config.cavity.g == pytest.approx(0.03 / math.sqrt(2.0) * 2000.0, rel=1e-15)
        assert config.cavity.kappa == 1.0
        assert config.bath.gamma == 0.01
        assert config.bath.eta == 0.001
        assert config.bath.omega_cut == pytest.approx(200.0, rel=1e-15)
        assert config.bath.temperature == 298.0
        assert config.regime_kind == "vsc"
        assert config.reactant == "A"
        assert config.grid.points == 400

    def test_energy_unit_conventions_agree(self):
        in_wavenumbers = config_from_dict(fast_dict())
        scaled = config_from_dict(
            fast_dict(
                energy_unit="hbar_omega_v",
                species=[
                    {"label": "A", "energy": 0.0, "displacement": 0.0},
                    {"label": "B", "energy": -0.6, "displacement": 1.5},
                ],
                couplings=[{"pair": ["A", "B"], "J": 0.01, "lambda_s": 0.08}],
            )
        )
        assert species(scaled.network, "B").energy == pytest.approx(
            species(in_wavenumbers.network, "B").energy, rel=1e-12
        )
        assert coupling(scaled.network, "A", "B").J == pytest.approx(20.0, rel=1e-12)
        assert coupling(scaled.network, "A", "B").lambda_s == pytest.approx(160.0, rel=1e-12)
        # displacements and rates are not energies and must never rescale
        assert species(scaled.network, "B").displacement == 1.5
        assert scaled.cavity.kappa == in_wavenumbers.cavity.kappa
        assert scaled.bath.gamma == in_wavenumbers.bath.gamma

    @pytest.mark.parametrize(
        "mutation",
        [
            {"extra_key": 1},
            {"species": [{"label": "A", "colour": "blue"}]},
            {"cavity": {"omega_c": 2000.0, "q_factor": 3}},
            {"bath": {"gamma": 0.01, "friction": 2}},
            {"grid": {"spacing": "log", "start": 1.0, "end": 10.0, "points": 4, "log": True}},
            {"couplings": [{"pair": ["A", "B"], "J": 1.0, "lambda_s": 1.0, "sign": -1}]},
        ],
    )
    def test_unknown_keys_rejected(self, mutation):
        with pytest.raises(ConfigError, match="unknown key"):
            config_from_dict(fast_dict(**mutation))

    @pytest.mark.parametrize(
        "mutation",
        [
            {"species": []},
            {"species": [{"energy": 0.0}]},
            {"species": "A"},
            {"omega_v": -2000.0},
            {"energy_unit": "eV"},
            {"regime": "ultrastrong"},
            {"reactant": "Z"},
            {"couplings": [{"pair": ["A"], "J": 1.0, "lambda_s": 1.0}]},
            {"couplings": [{"pair": ["A", "B"], "J": 1.0, "lambda_s": -5.0}]},
            {"couplings": [{"pair": ["A", "Z"], "J": 1.0, "lambda_s": 1.0}]},
            {"species": [{"label": "A", "energy": "zero"}]},
            {"species": [{"label": "A", "energy": True}]},
            {"bath": {"temperature": -10.0}},
            {"grid": {"spacing": "geometric"}},
            {"grid": {"start": -1.0}},
        ],
    )
    def test_invalid_configs_rejected(self, mutation):
        with pytest.raises(ConfigError):
            config_from_dict(fast_dict(**mutation))

    @pytest.mark.parametrize(
        "mutation, field",
        [
            ({"cavity": {"g": float("nan")}}, "cavity.g"),
            ({"cavity": {"kappa": float("inf")}}, "cavity.kappa"),
            ({"cavity": {"omega_c": -float("inf")}}, "cavity.omega_c"),
            ({"omega_v": float("nan")}, "omega_v"),
            ({"bath": {"temperature": float("inf")}}, "bath.temperature"),
            ({"bath": {"eta": float("nan")}}, "bath.eta"),
            ({"species": [{"label": "A", "energy": float("nan")}]}, "species.energy"),
            ({"couplings": [{"pair": ["A", "B"], "J": float("inf"), "lambda_s": 1.0}]}, "coupling.J"),
            ({"grid": {"end": float("inf")}}, "grid.end"),
            ({"grid": {"points": 2.9}}, "grid.points"),
            ({"grid": {"points": 5.0}}, "grid.points"),
            ({"grid": {"points": "5"}}, "grid.points"),
            ({"grid": {"points": True}}, "grid.points"),
            ({"grid": {"start": -1.0}}, "grid.start"),
            ({"grid": {"spacing": "linear", "start": -5.0}}, "grid.start"),
            ({"grid": {"end": 0.01}}, "grid.end"),
            ({"grid": {"points": 1}}, "grid.points"),
            ({"grid": {"points": MAX_GRID_POINTS + 1}}, "grid.points"),
            ({"grid": {"points": 10**5000}}, "grid.points"),  # past str()'s digit limit
            ({"cavity": {"kappa": 10**5000}}, "cavity.kappa"),
            ({"grid": {"start": 1.0, "end": 1.0000000000000002, "points": 3}}, "grid.points"),
            ({"cavity": {"n_molecules": 2}}, "unknown key"),
        ],
    )
    def test_bad_numbers_rejected_at_load(self, mutation, field):
        # non-finite, non-integer or out-of-domain numbers fail here and name their field, never
        # later as a non-finite generator, an allocation without end or by silent conversion
        with pytest.raises(ConfigError, match=field):
            config_from_dict(fast_dict(**mutation))

    @pytest.mark.parametrize("build, message", NON_FINITE_BUILDS.values(), ids=NON_FINITE_BUILDS.keys())
    def test_non_finite_values_fail_where_they_are_built(self, build, message):
        # NaN fails every range check and a number with no range must be finite, so neither
        # surfaces later as a non-finite generator or population
        with pytest.raises(ValueError, match=f"^{message}$"):
            build(config_from_dict(fast_dict()))

    @pytest.mark.parametrize(
        "mutation, field",
        [
            ({"species": [{"label": 5}, {"label": "B"}]}, "species.label"),
            ({"species": [{"label": None}, {"label": "B"}]}, "species.label"),
            ({"couplings": [{"pair": ["A", 5], "J": 1.0, "lambda_s": 1.0}]}, "coupling.pair"),
            ({"couplings": [{"pair": [["A"], "B"], "J": 1.0, "lambda_s": 1.0}]}, "coupling.pair"),
            ({"reactant": 5}, "reactant"),
            ({"reactant": ["A"]}, "reactant"),
            ({"regime": 1}, "regime"),
            ({"regime": None}, "regime"),
            ({"name": 7}, "name"),
            ({"name": False}, "name"),
        ],
    )
    def test_non_string_names_rejected(self, mutation, field):
        # labels and names are never converted with str(): {"label": 5} is an error
        with pytest.raises(ConfigError, match=f"{field} must be a string"):
            config_from_dict(fast_dict(**mutation))

    @pytest.mark.parametrize(
        "label",
        ["A.A", "A|0", "A,x", "A\nx", "A\rx", "A\tx", "A\x00", "A\x7f", "A\x85", "A\u2028x", "A\u2029x"],
    )
    def test_label_separators_rejected(self, label):
        # "." and "|" build state labels, "," separates CSV columns, control characters
        # and the Unicode line/paragraph separators split lines under str.splitlines()
        raw = fast_dict(species=[{"label": "A"}, {"label": label}], couplings=[])
        with pytest.raises(ConfigError, match="species.label must not contain"):
            config_from_dict(raw)

    @pytest.mark.parametrize("label", ["B-1", "B_2", "B+", "product B", "Ω"])
    def test_other_labels_load(self, label):
        config = config_from_dict(fast_dict(species=[{"label": "A"}, {"label": label}], couplings=[]))
        assert config.network.labels() == ("A", label)

    @pytest.mark.parametrize("couplings", [5, {"a": 1}, "AB", None])
    def test_couplings_must_be_a_list(self, couplings):
        with pytest.raises(ConfigError, match="couplings must be a list"):
            config_from_dict(fast_dict(couplings=couplings))

    @pytest.mark.parametrize("block", BLOCK_SPECS)
    def test_block_keys_are_the_spec_fields(self, block):
        # a probe of the wrong type under an allowed key fails on its value, not as unknown
        candidates = {f.name for spec in BLOCK_SPECS.values() for f in fields(spec)} | {"grid", "probe"}
        accepted = set()
        for key in sorted(candidates):
            raw = fast_dict(cavity={}, bath={})
            target = raw[block][0] if isinstance(raw[block], list) else raw[block]
            target[key] = [None]
            try:
                config_from_dict(raw)
            except ConfigError as exc:
                if str(exc).startswith("unknown key"):
                    continue
            accepted.add(key)
        assert accepted == {f.name for f in fields(BLOCK_SPECS[block])}
        effective = effective_config_dict(config_from_dict(fast_dict()))[block]
        assert set(effective[0] if block in ("species", "couplings") else effective) == accepted

    def test_weak_without_linewidth_rejected(self):
        # the resonant Purcell rate 4 g^2 / k has no finite limit as k -> 0
        raw = fast_dict(regime="weak", cavity={"kappa": 0.0}, bath={"gamma": 0.0})
        with pytest.raises(ConfigError, match=r"cavity\.kappa.*bath\.gamma"):
            config_from_dict(raw)
        for kind in ("bare", "vsc"):
            config_from_dict(dict(raw, regime=kind))
        base = config_from_dict(dict(raw, bath={"gamma": 0.01}))
        with pytest.raises(ConfigError, match=r"gamma=0\.0.*cavity\.kappa.*bath\.gamma"):
            run_sweep(SweepSpec(parameter="gamma", values=(0.0,), base=base))

    def test_vsc_g_must_keep_the_lower_polariton_above_zero(self):
        # omega_minus = 0 at 2 g^2 = omega_c omega_v: g = 1414.2 cm^-1 at omega_c = omega_v = 2000
        for g in (1414.3, 1500.0, 1e154, 1e300):
            with pytest.raises(ConfigError, match=rf"g must be < .* = 1414\.2 cm\^-1 under vsc, got {re.escape(repr(g))}"):
                config_from_dict(fast_dict(cavity={"g": g}))
        config_from_dict(fast_dict(cavity={"g": 1414.2}))
        for kind in ("bare", "weak"):
            base = config_from_dict(fast_dict(regime=kind, cavity={"g": 1e300}))
            with pytest.raises(ConfigError, match="g must be < "):
                run_comparison(base, [kind, "vsc"])
        vsc = config_from_dict(fast_dict())
        with pytest.raises(ConfigError, match=r"g=1500\.0 rejected: g must be < .* 1414\.2 cm\^-1"):
            run_sweep(SweepSpec(parameter="g", values=(1.0, 1500.0), base=vsc))

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.json")

    def test_load_config_reports_parse_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"species": [}')
        with pytest.raises(ConfigError, match="line 1"):
            load_config(path)

    @pytest.mark.parametrize(
        "content",
        [
            b"[" * 100_000,
            json.dumps(fast_dict(name="\u00e9"), ensure_ascii=False).encode("latin-1"),
            b'{"species": [{"label": "A"}], "grid": {"points": ' + b"9" * 5000 + b"}}",
        ],
        ids=["deeply-nested", "latin-1", "long-integer"],
    )
    def test_unreadable_config_names_the_file(self, tmp_path, capsys, content):
        # nested past the parser's recursion limit, not UTF-8, or past int()'s digit limit
        path = tmp_path / "unreadable.json"
        path.write_bytes(content)
        with pytest.raises(ConfigError, match=re.escape(str(path))):
            load_config(path)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()

    def test_name_falls_back_to_file_stem(self, tmp_path):
        raw = fast_dict()
        del raw["name"]
        path = tmp_path / "mycase.json"
        path.write_text(json.dumps(raw))
        assert load_config(path).name == "mycase"


class TestFingerprint:
    def test_stable_and_sensitive(self):
        a = config_from_dict(fast_dict())
        b = config_from_dict(fast_dict())
        assert config_fingerprint(a) == config_fingerprint(b)
        assert len(config_fingerprint(a)) == 64
        assert set(config_fingerprint(a)) <= set("0123456789abcdef")
        changed = config_from_dict(fast_dict(cavity={"kappa": 0.5}))
        assert config_fingerprint(changed) != config_fingerprint(a)

    @pytest.mark.parametrize(
        "raw, fingerprint",
        [
            ("reaction1", "0787b3e64631b8664418dfed1202cad38e1c7c4abc3c2c418a1eea0af4999346"),
            ("reaction2", "d5e4a6c45b65c96340d9abcf2144ad5f91610e5d9600ce0ada89eeda4be006cd"),
            ("reaction3", "73fe6f97feafd3399e999b558e8122c8a0ec0065905fde05c9a45133083c56e8"),
            ({"species": [{"label": "A"}]}, "819e0b468600bb4a8236f7d01d29a70fed5e2625e157fdceeed1014aff09dbf6"),
            (
                {"species": [{"label": "A"}], "energy_unit": "hbar_omega_v", "omega_v": 1650.0},
                "a16ee58c1e9c8f84edc9991f19cdbd4db1ca8e058463ec82dd72cd0521ea1f3b",
            ),
        ],
    )
    def test_pinned(self, raw, fingerprint):
        # every default and unit conversion to the last bit: a 1-ulp change moves the hash
        config = load_config(bundled_config_path(raw)) if isinstance(raw, str) else config_from_dict(raw)
        assert config_fingerprint(config) == fingerprint

    @pytest.mark.parametrize("name", ["reaction1", "reaction2", "reaction3"])
    @pytest.mark.parametrize(
        "grid", [None, GridSpec("log", 0.5, 2.0e3, 7), GridSpec("linear", 0.0, 1.0e4, 11), GridSpec("linear", -0.0, 3, 2)]
    )
    def test_effective_dict_round_trips(self, name, grid):
        # an int or -0.0 bound is spelled as the float it loads as, so equal specs share a fingerprint
        config = load_config(bundled_config_path(name))
        config = config if grid is None else replace(config, grid=grid)
        effective = effective_config_dict(config)
        assert type(effective["grid"]["start"]) is type(effective["grid"]["end"]) is float
        assert math.copysign(1.0, effective["grid"]["start"]) == 1.0
        rebuilt = config_from_dict(effective)
        assert rebuilt == config
        assert config_fingerprint(rebuilt) == config_fingerprint(config)
        assert rebuilt.grid.time_grid == config.grid.time_grid

    def test_a_grid_of_other_times_has_another_fingerprint(self, reaction1):
        # (1, 2, 10) ps and the 3-point linear grid from 1 to 10 ps, (1, 5.5, 10), share their first
        # point, last point and count; the fingerprint reads the spec a config's times come from
        on_points = replace(reaction1, grid=TimeGrid(points=(1.0, 2.0, 10.0)))
        on_spec = replace(reaction1, grid=GridSpec("linear", 1.0, 10.0, 3))
        assert config_fingerprint(on_points) != config_fingerprint(on_spec)
        result = run_scenario(on_spec)
        assert result.trajectory.grid.points == (1.0, 5.5, 10.0)
        rerun = run_scenario(config_from_dict(result.metadata["config"]))
        assert rerun.trajectory.state_populations.tobytes() == result.trajectory.state_populations.tobytes()


class TestOrchestration:
    def test_run_scenario(self):
        config = config_from_dict(fast_dict())
        result = run_scenario(config)
        assert result.label == "fast"
        assert result.trajectory.grid is config.grid.time_grid
        assert result.rate_matrix.matrix.shape == (16, 16)
        meta = result.metadata
        assert meta["fingerprint"] == config_fingerprint(config)
        assert meta["derived"]["basis"] == "vsc"
        assert meta["derived"]["state_count"] == 16
        assert meta["derived"]["g_effective"] == config.cavity.g
        assert len(meta["derived"]["state_labels"]) == 16
        assert run_scenario(config, label="renamed").label == "renamed"

    def test_weak_regime_metadata(self):
        config = config_from_dict(fast_dict(regime="weak"))
        meta = run_scenario(config).metadata
        assert meta["derived"]["basis"] == "bare"
        assert meta["derived"]["g_effective"] == pytest.approx(config.cavity.g / 100.0)

    def test_run_comparison(self):
        config = config_from_dict(fast_dict())
        results = run_comparison(config, ["bare", "weak", "vsc"])
        assert [r.label for r in results] == ["bare", "weak", "vsc"]
        assert [r.config.regime_kind for r in results] == ["bare", "weak", "vsc"]
        with pytest.raises(ConfigError):
            run_comparison(config, [])
        with pytest.raises(ConfigError, match="regime 'vsc' appears more than once"):
            run_comparison(config, ["vsc", "bare", "vsc"])

    def test_run_sweep(self):
        config = config_from_dict(fast_dict())
        results = run_sweep(SweepSpec(parameter="kappa", values=(0.0, 2.0), base=config))
        assert [r.label for r in results] == ["kappa=0.0", "kappa=2.0"]
        assert [r.config.cavity.kappa for r in results] == [0.0, 2.0]
        with pytest.raises(ConfigError):
            SweepSpec(parameter="temperature", values=(1.0,), base=config)
        with pytest.raises(ConfigError):
            SweepSpec(parameter="kappa", values=(), base=config)
        for repeated in ((1.0, 2.0, 1), (0.0, -0.0)):
            with pytest.raises(ConfigError, match="sweep values for kappa repeat"):
                SweepSpec(parameter="kappa", values=repeated, base=config)

    def test_metadata_is_built_on_first_read(self, tmp_path, monkeypatch):
        calls = []
        metadata = ScenarioResult.metadata.fget

        def counted(result):
            calls.append(result.config)
            return metadata(result)

        monkeypatch.setattr(ScenarioResult, "metadata", property(counted))
        base = config_from_dict(fast_dict())
        results = run_sweep(SweepSpec(parameter="kappa", values=(0.0, 1.0, 2.0), base=base))
        assert calls == []
        export(results, "json", tmp_path / "sweep.json")
        assert calls == [r.config for r in results]
        export(results, "csv", tmp_path / "sweep.csv")
        assert len(calls) == 3

    def test_results_compare_by_identity(self):
        # equal-valued arrays have no single truth value: a result, its generator and its
        # trajectory are each equal only to themselves, and hash by identity
        config = config_from_dict(fast_dict())
        a, b = run_scenario(config), run_scenario(config)
        for x, y in ((a, b), (a.rate_matrix, b.rate_matrix), (a.trajectory, b.trajectory)):
            assert x == x and x != y
            assert len({x, y, x}) == 2

    @pytest.mark.parametrize("name", ["reaction1", "reaction2", "reaction3"])
    @pytest.mark.parametrize("kind", REGIME_KINDS)
    @pytest.mark.parametrize("parameter", SWEEP_PARAMETERS)
    def test_sweep_matches_per_value_runs(self, tmp_path, name, kind, parameter):
        base = replace(load_config(bundled_config_path(name)), regime_kind=kind, grid=SHORT_GRID)
        values = SWEEP_VALUES[parameter]
        swept = run_sweep(SweepSpec(parameter=parameter, values=values, base=base))
        block = "cavity" if parameter in ("kappa", "g") else "bath"
        variants = [replace(base, **{block: replace(getattr(base, block), **{parameter: v})}) for v in values]
        alone = [run_scenario(variant, label=f"{parameter}={v!r}") for variant, v in zip(variants, values)]
        assert_identical_runs(swept, alone, tmp_path)

    @pytest.mark.parametrize("name", ["reaction1", "reaction2", "reaction3"])
    def test_comparison_matches_per_regime_runs(self, tmp_path, name):
        config = replace(load_config(bundled_config_path(name)), grid=SHORT_GRID)
        compared = run_comparison(config, list(REGIME_KINDS))
        alone = [run_scenario(replace(config, regime_kind=kind), label=kind) for kind in REGIME_KINDS]
        assert_identical_runs(compared, alone, tmp_path)

    def test_rejected_value_fails_after_the_values_before_it(self, monkeypatch):
        runs = []
        propagate = config_module.propagate
        monkeypatch.setattr(config_module, "propagate", lambda *args: runs.append(args) or propagate(*args))
        base = config_from_dict(fast_dict())
        with pytest.raises(ConfigError, match=r"^sweep value gamma=-1.0 rejected: gamma must be >= 0, got -1.0$"):
            run_sweep(SweepSpec(parameter="gamma", values=(0.01, -1.0), base=base))
        assert len(runs) == 1

    @pytest.mark.parametrize(
        "kind, parameter, builds, propagations",
        [
            *((kind, parameter, 1, 3) for kind in REGIME_KINDS for parameter in ("kappa", "gamma")),
            ("bare", "eta", 1, 1),  # eta acts only through the vsc bath exchange
            ("weak", "eta", 1, 1),
            ("vsc", "eta", 1, 3),
            ("bare", "g", 1, 1),  # g enters neither the identity basis nor a bare generator
            ("weak", "g", 1, 3),  # the Purcell exchange reads g, the identity basis does not
            ("vsc", "g", 3, 3),  # the polariton basis reads g
        ],
    )
    def test_shared_parts_are_built_once(self, monkeypatch, kind, parameter, builds, propagations):
        reactive_rates.cache_clear()
        calls = count_calls(monkeypatch)
        sweep = SweepSpec(parameter, SWEEP_VALUES[parameter], config_from_dict(fast_dict(regime=kind)))
        run_sweep(sweep)
        assert calls == {"enumerate_states": builds, "propagate": propagations}
        assert reactive_rates.cache_info().misses == builds
        # a second identical sweep builds no part
        run_sweep(replace(sweep, base=config_from_dict(fast_dict(regime=kind))))
        assert calls == {"enumerate_states": builds, "propagate": 2 * propagations}
        assert reactive_rates.cache_info().misses == builds

    def test_a_copied_run_reports_the_propagation_it_copied(self, monkeypatch):
        # under bare, eta changes no rate: the sweep propagates its one generator once and copies the rest
        calls = count_calls(monkeypatch)
        base = replace(load_config(bundled_config_path("reaction1")), regime_kind="bare", grid=SHORT_GRID)
        base = replace(base, cavity=replace(base.cavity, kappa=0.0))  # so that two paths decline first
        runs = run_sweep(SweepSpec("eta", SWEEP_VALUES["eta"], base))
        assert calls["propagate"] == 1
        records = [(r.trajectory.path, r.trajectory.declines) for r in runs]
        assert records == [("taylor", ("symmetric: second mode unresolved", "eig: reducible"))] * 3

    def test_comparison_shares_the_bare_basis(self, monkeypatch):
        reactive_rates.cache_clear()
        calls = count_calls(monkeypatch)
        run_comparison(config_from_dict(fast_dict()), ["bare", "weak", "vsc"])
        assert calls == {"enumerate_states": 2, "propagate": 3}
        assert reactive_rates.cache_info().misses == 2

    @pytest.mark.parametrize(
        "run, starts",
        [
            (lambda base: run_sweep(SweepSpec("kappa", SWEEP_VALUES["kappa"], base)), 1),
            (lambda base: run_sweep(SweepSpec("g", SWEEP_VALUES["g"], base)), 3),  # a new StateSpace per value
            (lambda base: run_comparison(base, ["bare", "weak", "vsc"]), 2),  # bare and weak share one
        ],
        ids=["kappa-sweep", "vsc-g-sweep", "comparison"],
    )
    def test_consecutive_runs_over_one_state_space_share_one_thermal_start(self, monkeypatch, run, starts):
        # one p0 drawn, and checked, lumped and weighted once (propagate's start), per stretch of runs
        calls = {"initial_distribution": [], "_lumped_start": []}
        for name, made in calls.items():
            original = getattr(config_module, name)
            monkeypatch.setattr(config_module, name, lambda *args, made=made, f=original: made.append(args) or f(*args))
        propagations = count_calls(monkeypatch)
        results = run(config_from_dict(fast_dict()))
        assert propagations["propagate"] == len(results) == 3
        spaces = [r.rate_matrix.states for r in results]
        firsts = [(s, results[0].config.bath.temperature) for k, s in enumerate(spaces) if s not in spaces[:k]]
        for made in calls.values():
            assert len(made) == starts
            assert [(space, temperature) for space, _, temperature in made] == firsts

    @pytest.mark.parametrize("kind", REGIME_KINDS)
    def test_a_second_sweep_builds_no_reactive_part(self, monkeypatch, tmp_path, kind):
        # equal inputs, built separately: the second sweep shares the first one's parts and states
        sweep = SweepSpec(parameter="g", values=SWEEP_VALUES["g"], base=config_from_dict(fast_dict(regime=kind)))
        first = run_sweep(sweep)
        calls = count_calls(monkeypatch)
        misses = reactive_rates.cache_info().misses
        again = run_sweep(replace(sweep, base=config_from_dict(fast_dict(regime=kind))))
        assert "enumerate_states" not in calls and reactive_rates.cache_info().misses == misses
        assert all(a.rate_matrix.states is b.rate_matrix.states for a, b in zip(first, again))
        assert_identical_runs(again, first, tmp_path)

    def test_g_of_negative_zero_builds_no_second_part(self):
        # below resonance, a g of -0.0 that kept its sign would swap the signs of the "+" and "-" modes
        cavity = {"omega_c": 1900.0, "g": 0.0}
        config = config_from_dict(fast_dict(cavity=cavity))
        config_module.build_generator(config)
        misses = reactive_rates.cache_info().misses
        negative = config_from_dict(fast_dict(cavity=dict(cavity, g=-0.0)))
        (swept,) = run_sweep(SweepSpec("g", (-0.0,), config))
        for loaded in (negative, swept.config):
            assert math.copysign(1.0, loaded.cavity.g) == 1.0
            assert config_fingerprint(loaded) == config_fingerprint(config)
            config_module.build_generator(loaded)
        assert reactive_rates.cache_info().misses == misses

    @pytest.mark.parametrize("kind", REGIME_KINDS)
    def test_a_config_builds_its_basis_once(self, monkeypatch, kind):
        # the config keeps the basis it validated with; the generator reads it and builds none
        config = config_from_dict(fast_dict(regime=kind))
        assert config.basis == mode_basis(kind, config.cavity, config.omega_v)
        builds = []
        monkeypatch.setattr(eigenmodes_module, "build_mode_basis", lambda *args: builds.append(args))
        monkeypatch.setattr(config_module, "mode_basis", lambda *args: builds.append(args))
        config_module.build_generator(config)
        assert builds == []
        with pytest.raises(ValueError, match="basis"):  # derived, so no caller may give it
            replace(config, basis=config.basis)

    def test_sweep_value_validation(self):
        config = config_from_dict(fast_dict())
        with pytest.raises(ConfigError):
            run_sweep(SweepSpec(parameter="gamma", values=(-1.0,), base=config))


class TestExport:
    def test_a_label_built_in_python_cannot_split_the_csv_header(self, tmp_path):
        # "a,x" would add a header field per state: 39 header fields over 21-field rows
        config = config_from_dict(fast_dict())
        with pytest.raises(ValueError, match="species.label must not contain"):
            species = (config.network.species[0], replace(config.network.species[1], label="a,x"))
            network = replace(config.network, species=species, couplings=())
            export([run_scenario(replace(config, network=network))], "csv", tmp_path / "out.csv")
        assert list(tmp_path.iterdir()) == []

    def test_each_distinct_column_is_spelled_as_its_own_floats(self):
        # columns are shared only when their bytes agree within a block of rows: -0.0 is not 0.0,
        # and a column equal to another in one block may differ from it in the next
        rows = 2 * config_module._ROW_BLOCK + 5
        values = np.random.default_rng(3).random(rows)
        late_change = values.copy()
        late_change[-1] = 0.5
        table = np.column_stack(
            [values, values, np.zeros(rows), np.full(rows, -0.0), late_change, np.resize([np.nan, np.inf, -np.inf], rows)]
        )
        assert list(config_module._spelled_rows(table)) == [tuple(map(repr, row)) for row in table.tolist()]

    def test_labels_that_name_one_csv_file_raise_before_any_is_written(self, tmp_path):
        result = run_scenario(config_from_dict(fast_dict()), label="a b")
        twin = replace(result, label="a/b")  # both labels spell the file name out_a-b.csv
        with pytest.raises(ConfigError, match=r"^runs 'a b' and 'a/b' would both be written to .*out_a-b\.csv$"):
            export([result, twin], "csv", tmp_path / "runs" / "out.csv")
        assert not (tmp_path / "runs").exists()
        assert export([result, twin], "json", tmp_path / "out.json") == [tmp_path / "out.json"]

    @pytest.mark.parametrize("name", ["reaction1", "reaction3"])
    @pytest.mark.parametrize("kind", REGIME_KINDS)
    def test_memory_layout_of_the_populations_is_unobservable(self, tmp_path, name, kind):
        result = run_scenario(replace(load_config(bundled_config_path(name)), regime_kind=kind))
        populations = result.trajectory.state_populations
        c_ordered = np.ascontiguousarray(populations)
        assert populations.flags.f_contiguous and not np.shares_memory(c_ordered, populations)
        copied = replace(result, trajectory=replace(result.trajectory, state_populations=c_ordered))
        assert copied.trajectory.species_populations.tobytes() == result.trajectory.species_populations.tobytes()
        for fmt in ("csv", "json"):
            (written,), (expected,) = (export([r], fmt, tmp_path / side / f"out.{fmt}")
                                       for side, r in (("copied", copied), ("propagated", result)))
            assert written.read_bytes() == expected.read_bytes()

    def test_csv_layout(self, tmp_path):
        result = run_scenario(config_from_dict(fast_dict()))
        out = tmp_path / "run.csv"
        (written,) = export([result], "csv", out)
        assert written == out
        lines = out.read_text().splitlines()
        assert lines[0] == f"# fingerprint={result.metadata['fingerprint']}"
        header = lines[1].split(",")
        assert header[0] == "time_ps"
        assert len(header) == 1 + 16 + 2 + 2
        assert header[17:] == ["N_A", "N_B", "frac_A", "frac_B"]
        assert len(lines) == 2 + 4
        row = [float(x) for x in lines[2].split(",")]
        assert row[0] == 1.0
        assert row[19] == pytest.approx(row[17] / 2.0, rel=1e-15)  # frac_A = N_A / 2
        assert sum(row[1:17]) == pytest.approx(1.0, abs=1e-9)

    def test_csv_bytes_deterministic(self, tmp_path):
        config = fast_dict()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        export([run_scenario(config_from_dict(config))], "csv", a)
        export([run_scenario(config_from_dict(config))], "csv", b)
        assert a.read_bytes() == b.read_bytes()

    def test_csv_multi_run_naming(self, tmp_path):
        config = config_from_dict(fast_dict())
        results = run_comparison(config, ["bare", "vsc"])
        written = export(results, "csv", tmp_path / "cmp.csv")
        assert [p.name for p in written] == ["cmp_bare.csv", "cmp_vsc.csv"]
        for path in written:
            assert path.is_file()

    def test_json_round_trip(self, tmp_path):
        config = config_from_dict(fast_dict())
        results = run_comparison(config, ["bare", "vsc"])
        out = tmp_path / "cmp.json"
        (written,) = export(results, "json", out)
        payload = json.loads(written.read_text())
        assert payload["format_version"] == 1
        assert [run["label"] for run in payload["runs"]] == ["bare", "vsc"]
        run = payload["runs"][1]
        assert len(run["time_ps"]) == 4
        assert len(run["states"]) == 16
        assert len(run["state_populations"]) == 4
        assert set(run["species"]) == {"A", "B"}
        raw = np.array(run["species"]["A"]["raw"])
        norm = np.array(run["species"]["A"]["normalized"])
        assert norm == pytest.approx(raw / 2.0, rel=1e-15)
        # embedded effective config rebuilds the exact same scenario
        rebuilt = config_from_dict(run["metadata"]["config"])
        assert config_fingerprint(rebuilt) == run["fingerprint"]

    @pytest.mark.parametrize("name", ["reaction1", "reaction2", "reaction3"])
    def test_json_is_one_dump_of_the_payload(self, tmp_path, name):
        # simulate, compare, and every sweep parameter under every regime
        config = load_config(bundled_config_path(name))
        assert_json_export(run_comparison(config, REGIME_KINDS), tmp_path / "compare.json")
        for kind in REGIME_KINDS:
            variant = replace(config, regime_kind=kind)
            assert_json_export([run_scenario(variant)], tmp_path / f"{kind}.json")
            for parameter, values in SWEEP_VALUES.items():
                sweep = SweepSpec(parameter, values, replace(variant, grid=SHORT_GRID))
                assert_json_export(run_sweep(sweep), tmp_path / f"{kind}_{parameter}.json")

    @pytest.mark.parametrize(
        "name",
        [
            "\x00", 'a"\x00', '"\x00', "\x00" * 3, 'a"\x00\x00', '"\x00"', '\\"', "\\", "\u00e9\u2603\U0001f600", "nan inf",
            "null", '"null"', "null\x00",
        ],
    )
    def test_json_holds_any_name(self, tmp_path, name):
        # the name is the one free-text field: it may end in a quote and NULs, or spell a JSON literal
        results = run_comparison(config_from_dict(fast_dict(name=name)), ["bare", "vsc"])
        assert_json_export(results, tmp_path / "out.json")
        assert json.loads((tmp_path / "out.json").read_text())["runs"][1]["metadata"]["config"]["name"] == name

    def test_json_unserializable_value_raises_json_type_error(self, tmp_path):
        # the runs before it are written; the file is left partial
        results = run_comparison(config_from_dict(fast_dict()), ["bare", "vsc"])
        results[1] = replace(results[1], label=object())
        with pytest.raises(TypeError, match="Object of type object is not JSON serializable"):
            export(results, "json", tmp_path / "out.json")
        assert '"label": "bare"' in (tmp_path / "out.json").read_text()

    def test_json_edge_arrays(self, tmp_path):
        # a config grid has at least two points: the one-row run comes from propagate itself
        full = run_scenario(config_from_dict(fast_dict()))
        p0 = initial_distribution(full.rate_matrix.states, full.config.reactant, full.config.bath.temperature)
        result = replace(full, trajectory=propagate(full.rate_matrix, p0, TimeGrid(points=(1.0,))))
        assert_json_export([result], tmp_path / "one_point.json")
        populations = result.trajectory.state_populations.copy()
        populations[0, :3] = (np.nan, np.inf, -np.inf)
        broken = replace(result, trajectory=replace(result.trajectory, state_populations=populations))
        with np.errstate(invalid="ignore"):
            assert_json_export([broken], tmp_path / "non_finite.json")
        assert "NaN,\n" in (tmp_path / "non_finite.json").read_text()

    def test_json_memory_is_flat_in_the_number_of_runs(self, tmp_path, reaction3):
        # the writer holds one run's arrays at a time: 20 runs peak about where 3 do
        comparison = run_comparison(reaction3, REGIME_KINDS)
        sweep = run_sweep(SweepSpec("kappa", tuple(k / 10 for k in range(20)), reaction3))
        peaks = []
        for results, out in ((comparison, "compare.json"), (sweep, "sweep.json")):
            tracemalloc.start()
            try:
                export(results, "json", tmp_path / out)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0], peaks

    def test_csv_memory_stays_near_json(self, tmp_path, reaction3):
        # both writers hold one run's arrays and at most one row or array of text
        result = run_scenario(replace(reaction3, grid=GridSpec("log", 0.1, 5.0e4, 2000)))
        peaks = {}
        for fmt in ("json", "csv"):
            tracemalloc.start()
            try:
                export([result], fmt, tmp_path / f"run.{fmt}")
                peaks[fmt] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["csv"] <= 2 * peaks["json"], peaks

    def test_metadata_edits_do_not_reach_exports(self, tmp_path):
        # metadata is a new dict on each read, so an edit to one reaches no export
        result = run_scenario(config_from_dict(fast_dict()))
        exported = lambda: [export([result], fmt, tmp_path / f"run.{fmt}")[0].read_bytes() for fmt in ("json", "csv")]
        before = exported()
        result.metadata["config"]["name"] = "edited"
        result.metadata["fingerprint"] = "0" * 64
        assert exported() == before

    def test_export_creates_parent_dirs(self, tmp_path):
        result = run_scenario(config_from_dict(fast_dict()))
        out = tmp_path / "sub" / "dir" / "run.csv"
        export([result], "csv", out)
        assert out.is_file()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_write_failure_names_the_path(self, tmp_path, fmt):
        result = run_scenario(config_from_dict(fast_dict()))
        blocker = tmp_path / "blocker"
        blocker.write_text("")  # a regular file where the output's parent directory should be
        out = blocker / f"run.{fmt}"
        with pytest.raises(ConfigError, match=f"failed to write {re.escape(str(out))}"):
            export([result], fmt, out)

    def test_export_validation(self, tmp_path):
        result = run_scenario(config_from_dict(fast_dict()))
        with pytest.raises(ConfigError):
            export([result], "parquet", tmp_path / "x.parquet")
        with pytest.raises(ConfigError):
            export([], "csv", tmp_path / "x.csv")


class TestCli:
    @pytest.fixture()
    def config_path(self, tmp_path):
        path = tmp_path / "fast.json"
        path.write_text(json.dumps(fast_dict()))
        return path

    def test_simulate(self, config_path, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
        assert out.is_file()
        assert str(out) in capsys.readouterr().out

    def test_simulate_default_output_name(self, config_path, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--config", str(config_path)]) == 0
        assert (tmp_path / "fast.csv").is_file()

    @pytest.mark.parametrize(
        "command, written",
        [
            (["simulate"], "..-escaped-run.csv"),
            (["compare", "--format", "json"], "..-escaped-run_compare.json"),
            (["sweep", "--param", "kappa", "--values", "0.5"], "..-escaped-run_sweep_kappa.csv"),
        ],
    )
    def test_default_output_stays_in_the_working_directory(self, tmp_path, monkeypatch, capsys, command, written):
        # the default stem spells the name as multi-run CSV labels are spelled, so no "/" leaves the directory
        work = tmp_path / "work"
        work.mkdir()
        config = tmp_path / "escaping.json"
        config.write_text(json.dumps(fast_dict(name="../escaped/run")))
        monkeypatch.chdir(work)
        assert main([command[0], "--config", str(config), *command[1:]]) == 0
        assert capsys.readouterr().out == f"{written}\n"
        assert sorted(p.name for p in work.iterdir()) == [written]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["escaping.json", "work"]

    def test_simulate_missing_config(self, tmp_path, capsys):
        code = main(["simulate", "--config", str(tmp_path / "nope.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_simulate_invalid_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(fast_dict(regime="ultrastrong")))
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "x.csv")]) == 2

    def test_compare(self, config_path, tmp_path):
        out = tmp_path / "cmp.json"
        code = main(
            [
                "compare",
                "--config",
                str(config_path),
                "--regimes",
                "bare,vsc",
                "--format",
                "json",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert [run["label"] for run in payload["runs"]] == ["bare", "vsc"]

    def test_compare_unknown_regime(self, config_path, tmp_path, capsys):
        code = main(
            [
                "compare",
                "--config",
                str(config_path),
                "--regimes",
                "bare,ultrastrong",
                "--out",
                str(tmp_path / "x.csv"),
            ]
        )
        assert code == 2
        assert "'ultrastrong'" in capsys.readouterr().err
        assert not list(tmp_path.glob("x*"))

    def test_sweep(self, config_path, tmp_path):
        out = tmp_path / "swp.csv"
        code = main(
            [
                "sweep",
                "--config",
                str(config_path),
                "--param",
                "kappa",
                "--values",
                "0,1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert (tmp_path / "swp_kappa-0.0.csv").is_file()
        assert (tmp_path / "swp_kappa-1.0.csv").is_file()

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["sweep", "--param", "kappa", "--values", "1,1.0"], "kappa"),
            (["compare", "--regimes", "vsc,vsc"], "'vsc'"),
        ],
        ids=["sweep", "compare"],
    )
    def test_repeated_runs_exit_2(self, config_path, tmp_path, capsys, monkeypatch, argv, named):
        # two runs with one label would write one CSV file; nothing may run
        runs = []
        monkeypatch.setattr(config_module, "propagate", lambda *args: runs.append(args))
        out = tmp_path / "dup.csv"
        assert main([*argv, "--config", str(config_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert runs == []
        assert list(tmp_path.glob("dup*")) == []

    def test_sweep_rejects_bad_values(self, config_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "sweep",
                    "--config",
                    str(config_path),
                    "--param",
                    "kappa",
                    "--values",
                    "one,two",
                ]
            )

    @pytest.mark.parametrize(
        "mutation, field",
        [
            ({"cavity": {"g": float("nan")}}, "cavity.g"),
            ({"cavity": {"kappa": float("inf")}}, "cavity.kappa"),
            ({"cavity": {"kappa": 10**400}}, "cavity.kappa"),  # an int that float() cannot hold
            ({"grid": {"points": 2.9}}, "grid.points"),
            ({"grid": {"points": "5"}}, "grid.points"),
            ({"grid": {"start": -1.0}}, "grid.start"),
            ({"cavity": {"n_molecules": 2}}, "n_molecules"),
            ({"species": [{"label": "A"}, {"label": "A.A"}], "couplings": []}, "species.label"),
            ({"species": [{"label": "A"}, {"label": "A,x"}], "couplings": []}, "species.label"),
            ({"species": [{"label": "A"}, {"label": "A\nx"}], "couplings": []}, "species.label"),
            ({"species": [{"label": "A"}, {"label": "A\u2028x"}], "couplings": []}, "species.label"),
            ({"species": [{"label": "A"}, {"label": ""}], "couplings": []}, "species.label"),
            ({"couplings": 5}, "couplings"),
            ({"couplings": {"a": 1}}, "couplings"),
            ({"couplings": "AB"}, "couplings"),
        ],
    )
    def test_bad_config_numbers_exit_2(self, tmp_path, capsys, mutation, field):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(fast_dict(**mutation)))  # NaN/Infinity as JSON literals
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert field in err
        assert "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()

    def test_non_string_label_exits_2(self, tmp_path, capsys):
        raw = fast_dict(species=[{"label": 5}, {"label": "B"}], reactant=5)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert "species.label" in err
        assert "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "mutation",
        [
            *(
                {"regime": kind, "species": [{"label": "A", "displacement": 1e200}, {"label": "B"}]}
                for kind in ("bare", "weak", "vsc")
            ),
            {"regime": "vsc", "bath": {"temperature": 1e-300}},
        ],
    )
    def test_overflow_exits_3(self, tmp_path, capsys, mutation):
        # finite inputs whose arithmetic overflows are a numerical failure, not a traceback
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(fast_dict(**mutation)))
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "x.csv")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: scenario 'fast': overflow building the generator")
        assert "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()

    def test_modes_that_share_no_vibration_compute_no_occupancy(self, tmp_path, capsys):
        # vsc at g = 0 below omega_c: "+" is the bare cavity and shares no vibration with "-", so
        # their thermal occupancy, which overflows at 1e-300 K, is never computed; bare runs there too
        raw = fast_dict(cavity={"g": 0.0, "omega_c": 2100.0}, bath={"temperature": 1e-300})
        for regime in ("vsc", "bare"):
            path = tmp_path / f"{regime}.json"
            path.write_text(json.dumps(dict(raw, regime=regime)))
            assert main(["simulate", "--config", str(path), "--out", str(tmp_path / f"{regime}.csv")]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "regime, param, value, code",
        [
            ("vsc", "gamma", "1e160", 0),  # past 1e154 ps^-1 both eigen paths decline and Taylor finishes
            ("vsc", "gamma", "1e300", 0),
            ("vsc", "eta", "1e200", 0),
            ("vsc", "eta", "1e308", 3),  # the bath exchange rate overflows in assembly
            ("vsc", "kappa", "1e308", 3),  # 2 alpha t overflows the Taylor scaling
            ("bare", "kappa", "1e308", 3),
        ],
    )
    def test_overflowing_rates_finish_or_exit_3(self, tmp_path, capsys, regime, param, value, code):
        # rates past the square root of the largest double, with no numpy warning on the way
        raw = json.loads(bundled_config_path("reaction1").read_text())
        raw["regime"] = regime
        path = tmp_path / "reaction1.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "swp.csv"
        args = ["sweep", "--config", str(path), "--param", param, "--values", value, "--out", str(out)]
        assert main(args) == code
        captured = capsys.readouterr()
        if code == 0:
            assert captured.err == "" and out.is_file()
            assert float(out.read_text().splitlines()[-1].split(",")[-1]) > 0.99  # frac_B at 5e4 ps
        else:
            assert captured.err.startswith("numerical failure: ") and captured.err.count("\n") == 1
            assert not out.exists()

    def test_weak_without_linewidth_exits_2(self, tmp_path, capsys):
        raw = fast_dict(regime="weak", cavity={"kappa": 0.0}, bath={"gamma": 0.0})
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert "cavity.kappa" in err and "bath.gamma" in err
        assert "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()

    def test_cli_never_imports_scipy(self, tmp_path):
        # propagation needs numpy only: with scipy unimportable, both paths still run,
        # the Taylor fallback on bare kappa = 0 and on a stiff reducible config
        configs = []
        for name in ("reaction1", "reaction2", "reaction3"):
            raw = json.loads(bundled_config_path(name).read_text())
            raw["regime"] = "bare"
            raw.setdefault("cavity", {})["kappa"] = 0.0
            configs.append(raw)
        for raw in (*configs, STIFF_REDUCIBLE, fast_dict()):
            (tmp_path / f"{raw['name']}.json").write_text(json.dumps(raw))
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from vsckinetics import cli\n"
            "assert cli.main(['criterion', '--epsilon', '1', '--n-molecules', '2',"
            " '--k-r', '1', '--k-d', '1']) == 0\n"
            "assert cli.main(['fcf', '--lam', '1.5', '--m-to', '1']) == 0\n"
            "for path in sys.argv[1:]:\n"
            "    assert cli.main(['simulate', '--config', path, '--out', path + '.csv']) == 0, path\n"
            "print(sorted(m for m, mod in sys.modules.items() if m.split('.')[0] == 'scipy' and mod))\n"
        )
        paths = sorted(str(p) for p in tmp_path.glob("*.json"))
        assert len(paths) == 5
        src = str(Path(vsckinetics.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-c", code, *paths], capture_output=True, text=True, env=env, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"
        assert all(Path(path + ".csv").is_file() for path in paths)

    @pytest.mark.parametrize("preset", [None, "2"])
    def test_package_import_runs_openblas_on_one_thread(self, preset):
        # a worker thread never pays on generators this small; a value the user set is kept.
        # The package root loads no numpy, so the child loads it through a module that does.
        code = (
            "import os, sys, vsckinetics.propagate\n"
            "assert 'numpy' in sys.modules\n"
            "tasks = '/proc/self/task'\n"
            "print(os.environ['OPENBLAS_NUM_THREADS'],"
            " len(os.listdir(tasks)) if os.path.isdir(tasks) else 1)\n"
        )
        src = str(Path(vsckinetics.__file__).parents[1])
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
        )
        assert done.returncode == 0, done.stderr
        value, threads = done.stdout.split()
        assert value == (preset or "1")
        if preset is None:
            assert threads == "1"

    def test_closed_form_commands_run_without_numpy(self):
        # criterion and fcf --lam evaluate closed forms: with numpy unimportable they print what
        # they always printed, on success and on bad input alike
        cases = [
            (["criterion", "--epsilon", "1", "--n-molecules", "2", "--k-r", "3", "--k-d", "1", "--k-f", "0.004"], 0,
             "lhs (epsilon/N)      = 0.5\nrhs (k_d/(k_r+k_d))  = 0.25\nmodifiable           = True\n"
             "k_ssa (net bare rate) = 0.001 ps^-1\n", ""),
            (["criterion", "--epsilon", "1", "--n-molecules", "0", "--k-r", "1", "--k-d", "1"], 2,
             "", "error: N must be >= 1, got 0.0\n"),
            (["fcf", "--lam", "1.5", "--m-to", "1"], 0,
             "<1|D(1.5)|0> = 0.4869787010375246\nsquared = 0.23714825526419478\n", ""),
            (["fcf"], 2, "", "error: fcf needs either --lam (single element) or --config (full factor)\n"),
            (["fcf", "--lam", "1e200", "--m-from", "2", "--m-to", "2"], 3,
             "", "numerical failure: <2|D(1e+200)|2> overflows\n"),
        ]
        code = (
            "import json, sys\n"
            "sys.modules['numpy'] = None\n"
            "from vsckinetics import cli\n"
            "sys.exit(cli.main(json.loads(sys.argv[1])))\n"
        )
        src = str(Path(vsckinetics.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        for argv, exit_code, out, err in cases:
            done = subprocess.run(
                [sys.executable, "-c", code, json.dumps(argv)], capture_output=True, text=True, env=env, timeout=120
            )
            assert (done.returncode, done.stdout, done.stderr) == (exit_code, out, err), argv

    @pytest.mark.parametrize("command, loads_numpy", [("criterion", False), ("fcf --lam", False), ("fcf --config", True)])
    def test_a_fresh_cli_loads_numpy_only_for_a_model(self, command, loads_numpy):
        # -X importtime names every module the interpreter imports, on stderr
        argv = {
            "criterion": ["criterion", "--epsilon", "1", "--n-molecules", "2", "--k-r", "1", "--k-d", "1"],
            "fcf --lam": ["fcf", "--lam", "1.5", "--m-to", "1"],
            "fcf --config": ["fcf", "--config", str(bundled_config_path("reaction1")), "--species-from", "A",
                             "--species-to", "B", "--occ-from", "0,0,0", "--occ-to", "0,1,0"],
        }[command]
        src = str(Path(vsckinetics.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "vsckinetics.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        imported = {line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines() if line.startswith("import time:")}
        assert "vsckinetics.closed_forms" in imported
        assert ("numpy" in imported) == loads_numpy

    def test_every_export_resolves_to_its_owner(self):
        owners = {
            "ConfigError": config_module, "SweepSpec": config_module, "bundled_config_path": config_module,
            "export": config_module, "load_config": config_module, "run_comparison": config_module,
            "run_scenario": config_module, "run_sweep": config_module, "NumericalError": closed_forms,
        }
        for name, owner in owners.items():
            assert getattr(vsckinetics, name) is getattr(owner, name), name
            assert name in dir(vsckinetics)
        assert vsckinetics.__version__ == "0.1.0"
        assert cli_module.load_config is config_module.load_config
        retired = {  # names these modules once re-exported from closed_forms and eigenmodes
            propagate_module: {"NumericalError", "ScalingCriterion", "vsc_scaling_criterion"},
            rates_module: {"REGIME_KINDS", "MAX_OCCUPATION", "displacement_matrix_element"},
            config_module: {"SWEEP_PARAMETERS"},
        }
        for module, names in retired.items():
            assert not names & set(module.__all__), module.__name__
        unused = [(propagate_module, "ScalingCriterion"), (propagate_module, "vsc_scaling_criterion"),
                  (rates_module, "REGIME_KINDS")]  # imported only to be re-exported, so no longer imported
        assert [(m.__name__, name) for m, name in unused if hasattr(m, name)] == []
        importlib.reload(vsckinetics)  # re-runs the root, which keeps the modules callers already hold
        assert vsckinetics.config is config_module is cli_module.config
        assert vsckinetics.ConfigError is config_module.ConfigError
        for module in (vsckinetics, cli_module):
            with pytest.raises(AttributeError, match="has no attribute 'nothing'"):
                module.nothing

    def test_each_public_name_has_one_home(self):
        homes = {}
        for info in pkgutil.iter_modules(vsckinetics.__path__):
            for name in importlib.import_module(f"vsckinetics.{info.name}").__all__:
                homes.setdefault(name, []).append(info.name)
        assert {name: owners for name, owners in homes.items() if len(owners) > 1} == {}

    def test_importing_the_package_and_its_cli_loads_no_numpy(self):
        code = (
            "import sys\n"
            "import vsckinetics.cli\n"
            "assert 'numpy' not in sys.modules, 'numpy'\n"
            "from vsckinetics import NumericalError\n"
            "assert 'numpy' not in sys.modules, 'NumericalError'\n"
            "import vsckinetics.config\n"  # the import statement reads the module from the package
            "assert 'numpy' in sys.modules and vsckinetics.config is vsckinetics.cli.config\n"
        )
        src = str(Path(vsckinetics.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr

    @pytest.mark.parametrize("name", ["reaction1", "reaction2", "reaction3"])
    @pytest.mark.parametrize("omega_c", [1.0, 0.975])
    def test_vsc_g_sweep_from_zero(self, tmp_path, capsys, name, omega_c):
        # g = 0 under vsc is a valid point, on resonance and detuned
        raw = json.loads(bundled_config_path(name).read_text())
        assert raw["regime"] == "vsc" and raw["energy_unit"] == "hbar_omega_v"
        raw["cavity"]["omega_c"] = omega_c
        raw["grid"] = {"spacing": "log", "start": 1.0, "end": 100.0, "points": 4}
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "swp.csv"
        args = ["sweep", "--config", str(path), "--param", "g", "--values", "0,0.1"]
        assert main([*args, "--out", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        assert (tmp_path / "swp_g-0.0.csv").is_file()
        assert (tmp_path / "swp_g-0.1.csv").is_file()

    @pytest.mark.parametrize("command", ["simulate", "compare", "sweep", "fcf"])
    def test_vsc_g_past_the_lower_polariton_bound_exits_2(self, tmp_path, capsys, command):
        # on the bundled reaction1 cavity omega_minus reaches 0 at g = 1414.2 cm^-1; bare keeps any g
        raw = json.loads(bundled_config_path("reaction1").read_text())
        raw["cavity"]["g"] = 0.75  # 1500 cm^-1 in units of omega_v
        raw["regime"] = "vsc" if command == "simulate" else "bare"
        path = tmp_path / "r1.json"
        path.write_text(json.dumps(raw))
        argv = {
            "simulate": ["simulate", "--config", str(path)],
            "compare": ["compare", "--config", str(path), "--regimes", "bare,vsc"],
            "sweep": ["sweep", "--config", str(bundled_config_path("reaction1")), "--param", "g", "--values", "1500"],
            "fcf": ["fcf", "--config", str(path), "--regime", "vsc", "--species-from", "A", "--species-to", "B",
                    "--occ-from", "0,0,0", "--occ-to", "0,1,0"],
        }[command]
        assert main(argv if command == "fcf" else [*argv, "--out", str(tmp_path / "out.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "g must be < sqrt(omega_c omega_v / 2) = 1414.2 cm^-1 under vsc, got 1500.0" in captured.err
        assert captured.out == "" and list(tmp_path.glob("out*")) == []

    @pytest.mark.parametrize("values", ["1,inf", "nan", "0,-inf"])
    def test_sweep_rejects_non_finite_values(self, config_path, tmp_path, capsys, values):
        out = tmp_path / "swp.csv"
        args = ["sweep", "--config", str(config_path), "--param", "kappa", "--values", values]
        assert main([*args, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "kappa" in err and "finite" in err
        assert list(tmp_path.glob("swp*")) == []

    def test_criterion(self, capsys):
        code = main(
            ["criterion", "--epsilon", "1", "--n-molecules", "1e6", "--k-r", "1", "--k-d", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "modifiable" in out
        assert "False" in out

    def test_criterion_with_net_rate(self, capsys):
        code = main(
            [
                "criterion",
                "--epsilon",
                "1",
                "--n-molecules",
                "2",
                "--k-r",
                "3",
                "--k-d",
                "1",
                "--k-f",
                "0.004",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "True" in out
        assert "k_ssa" in out
        assert repr(0.004 * 0.25) in out

    def test_criterion_when_the_rates_sum_past_the_largest_double(self, capsys):
        argv = ["criterion", "--epsilon", "0.1", "--n-molecules", "1", "--k-r", "1e308", "--k-d", "1e308"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "rhs (k_d/(k_r+k_d))  = 0.5\n" in out
        assert "modifiable           = False\n" in out

    def test_criterion_invalid(self, capsys):
        assert main(
            ["criterion", "--epsilon", "1", "--n-molecules", "0.5", "--k-r", "1", "--k-d", "1"]
        ) == 2

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--epsilon", "nan"),
            ("--n-molecules", "inf"),
            ("--k-r", "inf"),
            ("--k-d", "-inf"),
            ("--k-f", "nan"),
        ],
    )
    def test_criterion_rejects_non_finite_values(self, capsys, flag, value):
        args = {"--epsilon": "1", "--n-molecules": "2", "--k-r": "1", "--k-d": "1", "--k-f": "1"}
        args[flag] = value
        with pytest.raises(SystemExit) as exc:
            main(["criterion", *[f"{name}={text}" for name, text in args.items()]])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"argument {flag}: expected a finite number, got '{value}'" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_fcf_rejects_non_finite_lam(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["fcf", f"--lam={value}", "--m-to", "1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"argument --lam: expected a finite number, got '{value}'" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv, flag", [(["criterion", "--epsilon", "abc"], "--epsilon"), (["fcf", "--lam", "abc"], "--lam")])
    def test_a_word_for_a_number_exits_2(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        # argparse prints its usage, then one error line that names the flag
        assert captured.err.splitlines()[-1].endswith(f"error: argument {flag}: expected a number, got 'abc'")
        assert "Traceback" not in captured.err and captured.out == ""

    def test_a_key_error_is_a_bug_not_bad_input(self, monkeypatch):
        # no input raises KeyError, so one from a command propagates instead of reading as exit 2
        def broken(args):
            raise KeyError("missing")

        monkeypatch.setattr(cli_module, "_cmd_criterion", broken)
        with pytest.raises(KeyError, match="missing"):
            main(["criterion", "--epsilon", "1", "--n-molecules", "2", "--k-r", "1", "--k-d", "1"])

    def test_non_finite_argument_exits_2_from_the_shell(self):
        src = str(Path(vsckinetics.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        argv = ["criterion", "--epsilon", "nan", "--n-molecules", "2", "--k-r", "1", "--k-d", "1"]
        done = subprocess.run(
            [sys.executable, "-m", "vsckinetics.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert done.returncode == 2
        assert "--epsilon" in done.stderr and "Traceback" not in done.stderr
        assert done.stdout == ""

    @pytest.mark.parametrize("flag", ["--m-to", "--m-from"])
    def test_fcf_rejects_a_huge_occupation_at_once(self, capsys, flag):
        began = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(["fcf", "--lam", "1", "--m-from", "0", "--m-to", "0", flag, "3000000"])
        assert time.perf_counter() - began < 0.1
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"argument {flag}: expected an occupation in 0..100, got '3000000'" in captured.err
        assert captured.out == ""

    def test_fcf_element(self, capsys):
        assert main(["fcf", "--lam", "1.5", "--m-to", "1"]) == 0
        assert "0.4869787010375246" in capsys.readouterr().out

    def test_fcf_factor_bare(self, capsys):
        code = main(
            [
                "fcf",
                "--config",
                str(bundled_config_path("reaction1")),
                "--regime",
                "bare",
                "--molecule",
                "1",
                "--species-from",
                "A",
                "--species-to",
                "B",
                "--occ-from",
                "0,0,0",
                "--occ-to",
                "0,1,0",
            ]
        )
        assert code == 0
        assert "0.23714825526419478" in capsys.readouterr().out

    @pytest.mark.parametrize("mode", ["element", "factor"])
    def test_fcf_overflow_exits_3(self, tmp_path, capsys, mode):
        # lam^2 overflows; the element has no value, so it is neither printed as nan nor as 0
        if mode == "element":
            argv = ["fcf", "--lam", "1e200", "--m-from", "2", "--m-to", "2"]
        else:
            raw = fast_dict(species=[{"label": "A"}, {"label": "B", "displacement": 1e200}])
            (tmp_path / "big.json").write_text(json.dumps(raw))
            argv = ["fcf", "--config", str(tmp_path / "big.json"), "--species-from", "A", "--species-to", "B",
                    "--occ-from", "1,0,0", "--occ-to", "1,0,0"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("numerical failure:") and "overflows" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("flag", ["--species-from", "--species-to"])
    def test_fcf_unknown_species_exits_2(self, capsys, flag):
        species = {"--species-from": "A", "--species-to": "B", flag: "Z"}
        argv = ["fcf", "--config", str(bundled_config_path("reaction1"))]
        for name, label in species.items():
            argv += [name, label]
        assert main([*argv, "--occ-from", "0,0,0", "--occ-to", "0,1,0"]) == 2
        captured = capsys.readouterr()
        assert f"{flag}: unknown species 'Z'" in captured.err
        assert captured.out == ""

    def test_fcf_requires_mode(self, capsys):
        assert main(["fcf"]) == 2
        assert main(
            ["fcf", "--config", str(bundled_config_path("reaction1")), "--species-from", "A"]
        ) == 2

    def test_fcf_occupations_need_three_entries(self, capsys):
        argv = ["fcf", "--config", str(bundled_config_path("reaction1")), "--species-from", "A"]
        assert main([*argv, "--species-to", "B", "--occ-from", "0,0", "--occ-to", "0,1,0"]) == 2
        captured = capsys.readouterr()
        assert "three entries" in captured.err
        assert captured.out == ""

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "vsckinetics" in capsys.readouterr().out


def test_readme_library_snippet_runs(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    snippet = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    exec(compile(snippet, "README.md", "exec"), {})
    assert 0.0 <= float(capsys.readouterr().out) <= 1.0
    assert (tmp_path / "r1.csv").read_text().startswith("# fingerprint=")

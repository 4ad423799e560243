"""Config loading, orchestration, deterministic export, and the CLI."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vsckinetics
from conftest import STIFF_REDUCIBLE, coupling, species
from vsckinetics.cli import main
from vsckinetics.config import (
    ConfigError,
    DEFAULT_G_FACTOR,
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
        assert len(config.grid.points) == 400
        assert config.grid.points[0] == 0.1
        assert config.grid.points[-1] == pytest.approx(5.0e4, rel=1e-12)

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
        assert config.cavity.g == pytest.approx(DEFAULT_G_FACTOR * 2000.0, rel=1e-15)
        assert config.cavity.kappa == 1.0
        assert config.bath.gamma == 0.01
        assert config.bath.eta == 0.001
        assert config.bath.omega_cut == pytest.approx(200.0, rel=1e-15)
        assert config.bath.temperature == 298.0
        assert config.regime_kind == "vsc"
        assert config.reactant == "A"
        assert len(config.grid.points) == 400

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
            ({"cavity": {"n_molecules": 2}}, "unknown key"),
        ],
    )
    def test_bad_numbers_rejected_at_load(self, mutation, field):
        # non-finite or non-integer numbers fail here and name their field,
        # never later as a non-finite generator and never by silent conversion
        with pytest.raises(ConfigError, match=field):
            config_from_dict(fast_dict(**mutation))

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

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.json")

    def test_load_config_reports_parse_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"species": [}')
        with pytest.raises(ConfigError, match="line 1"):
            load_config(path)

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

    def test_effective_dict_round_trips(self, reaction1):
        rebuilt = config_from_dict(effective_config_dict(reaction1))
        assert rebuilt == reaction1
        assert config_fingerprint(rebuilt) == config_fingerprint(reaction1)


class TestOrchestration:
    def test_run_scenario(self):
        config = config_from_dict(fast_dict())
        result = run_scenario(config)
        assert result.label == "fast"
        assert result.trajectory.grid == config.grid
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

    def test_run_sweep(self):
        config = config_from_dict(fast_dict())
        results = run_sweep(SweepSpec(parameter="kappa", values=(0.0, 2.0), base=config))
        assert [r.label for r in results] == ["kappa=0.0", "kappa=2.0"]
        assert [r.config.cavity.kappa for r in results] == [0.0, 2.0]
        with pytest.raises(ConfigError):
            SweepSpec(parameter="temperature", values=(1.0,), base=config)
        with pytest.raises(ConfigError):
            SweepSpec(parameter="kappa", values=(), base=config)

    def test_sweep_value_validation(self):
        config = config_from_dict(fast_dict())
        with pytest.raises(ConfigError):
            run_sweep(SweepSpec(parameter="gamma", values=(-1.0,), base=config))


class TestExport:
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

    def test_export_creates_parent_dirs(self, tmp_path):
        result = run_scenario(config_from_dict(fast_dict()))
        out = tmp_path / "sub" / "dir" / "run.csv"
        export([result], "csv", out)
        assert out.is_file()

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
            ({"grid": {"points": 2.9}}, "grid.points"),
            ({"grid": {"points": "5"}}, "grid.points"),
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
        # a worker thread never pays on generators this small; a value the user set is kept
        code = (
            "import os, vsckinetics\n"
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

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "vsckinetics" in capsys.readouterr().out

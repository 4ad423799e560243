"""Command-line interface.

Subcommands:

    simulate   one scenario from a JSON config
    compare    the same scenario under several coupling regimes
    sweep      a family of runs over kappa, eta, gamma, or g
    criterion  evaluate the collective-scaling condition epsilon/N vs k_d/(k_r+k_d)
    fcf        inspect displacement matrix elements and Franck-Condon factors

Exit codes: 0 success, 2 configuration/validation error, 3 numerical failure.

``config``, ``eigenmodes`` and ``rates`` are the package root's lazily executed modules,
so each command loads only what its handler reads: ``criterion`` and ``fcf --lam`` no numpy.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Any, Callable, List, Optional, Sequence

from . import __version__, config, eigenmodes, rates
from .closed_forms import (
    MAX_OCCUPATION,
    SWEEP_PARAMETERS,
    NumericalError,
    displacement_matrix_element,
    vsc_scaling_criterion,
)

__all__ = ["main", "build_parser"]


def __getattr__(name: str) -> Any:
    if name == "load_config":  # for callers that import only the command line; loads ``config``
        return config.load_config
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from exc
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _occupation(text: str) -> int:
    if not (text.strip().isdecimal() and int(text) <= MAX_OCCUPATION):
        raise argparse.ArgumentTypeError(f"expected an occupation in 0..{MAX_OCCUPATION}, got {text!r}")
    return int(text)


def _csv_of(kind: Callable[[str], Any], what: str) -> Callable[[str], List[Any]]:
    def parse(text: str) -> List[Any]:
        try:
            return [kind(tok) for tok in text.split(",") if tok.strip() != ""]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"expected comma-separated {what}, got {text!r}") from exc
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vsckinetics",
        description="Kinetics of nonadiabatic electron transfer under vibrational strong coupling.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="path to a JSON scenario config")
        p.add_argument("--out", default=None, help="output path (default: <config name>.<format>)")
        p.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")

    p_sim = sub.add_parser("simulate", help="run one scenario")
    add_io_flags(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_cmp = sub.add_parser("compare", help="run one scenario under several regimes")
    add_io_flags(p_cmp)
    p_cmp.add_argument(
        "--regimes",
        default="bare,weak,vsc",
        help="comma-separated regimes out of bare, weak, vsc (default: all three)",
    )
    p_cmp.set_defaults(func=_cmd_compare)

    p_swp = sub.add_parser("sweep", help="run a parameter family")
    add_io_flags(p_swp)
    p_swp.add_argument(
        "--param", required=True, choices=SWEEP_PARAMETERS, help="swept parameter"
    )
    p_swp.add_argument(
        "--values", required=True, type=_csv_of(float, "numbers"), help="comma-separated parameter values"
    )
    p_swp.set_defaults(func=_cmd_sweep)

    p_cri = sub.add_parser("criterion", help="collective-scaling criterion calculator")
    p_cri.add_argument("--epsilon", required=True, type=_finite_float, help="relative single-molecule rate change")
    p_cri.add_argument("--n-molecules", required=True, type=_finite_float, help="number of coupled molecules N")
    p_cri.add_argument("--k-r", required=True, type=_finite_float, help="reverse reactive rate, ps^-1")
    p_cri.add_argument("--k-d", required=True, type=_finite_float, help="hot-product decay rate, ps^-1")
    p_cri.add_argument("--k-f", type=_finite_float, default=None, help="forward rate for the net-rate report, ps^-1")
    p_cri.set_defaults(func=_cmd_criterion)

    p_fcf = sub.add_parser("fcf", help="displacement matrix elements / Franck-Condon factors")
    p_fcf.add_argument("--lam", type=_finite_float, default=None, help="displacement for a single matrix element")
    p_fcf.add_argument("--m-from", type=_occupation, default=0, help="initial occupation")
    p_fcf.add_argument("--m-to", type=_occupation, default=0, help="final occupation")
    p_fcf.add_argument("--config", default=None, help="scenario config for a full multimode factor")
    p_fcf.add_argument("--regime", choices=("bare", "vsc"), default="vsc", help="basis for the factor")
    p_fcf.add_argument("--molecule", type=int, default=1, help="reacting molecule (1-based)")
    p_fcf.add_argument("--species-from", default=None, help="initial species label")
    p_fcf.add_argument("--species-to", default=None, help="final species label")
    p_fcf.add_argument("--occ-from", type=_csv_of(_occupation, "integers"), default=None, help="initial occupations, e.g. 0,0,0")
    p_fcf.add_argument("--occ-to", type=_csv_of(_occupation, "integers"), default=None, help="final occupations, e.g. 1,0,0")
    p_fcf.set_defaults(func=_cmd_fcf)

    return parser


def _export(args: argparse.Namespace, results: List, default_stem: str) -> int:
    # a config name may hold "/" or "..": the default file stays in the working directory
    out = args.out if args.out is not None else f"{config._safe_label(default_stem)}.{args.format}"
    for path in config.export(results, args.format, out):
        print(path)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    scenario = config.load_config(args.config)
    return _export(args, [config.run_scenario(scenario)], scenario.name)


def _cmd_compare(args: argparse.Namespace) -> int:
    scenario = config.load_config(args.config)
    regimes = [tok.strip() for tok in args.regimes.split(",") if tok.strip()]
    return _export(args, config.run_comparison(scenario, regimes), f"{scenario.name}_compare")


def _cmd_sweep(args: argparse.Namespace) -> int:
    scenario = config.load_config(args.config)
    sweep = config.SweepSpec(parameter=args.param, values=tuple(args.values), base=scenario)
    return _export(args, config.run_sweep(sweep), f"{scenario.name}_sweep_{args.param}")


def _cmd_criterion(args: argparse.Namespace) -> int:
    result = vsc_scaling_criterion(
        args.epsilon, args.n_molecules, args.k_r, args.k_d, k_f=args.k_f
    )
    print(f"lhs (epsilon/N)      = {result.lhs!r}")
    print(f"rhs (k_d/(k_r+k_d))  = {result.rhs!r}")
    print(f"modifiable           = {result.modifiable}")
    if result.k_ssa is not None:
        print(f"k_ssa (net bare rate) = {result.k_ssa!r} ps^-1")
    return 0


def _cmd_fcf(args: argparse.Namespace) -> int:
    if args.config is None:
        if args.lam is None:  # a ValueError, as ConfigError is, without loading the config module
            raise ValueError("fcf needs either --lam (single element) or --config (full factor)")
        element = displacement_matrix_element(args.m_to, args.m_from, args.lam)
        print(f"<{args.m_to}|D({args.lam!r})|{args.m_from}> = {element!r}")
        print(f"squared = {element * element!r}")
        return 0

    scenario = config.load_config(args.config)
    needed = {
        "--species-from": args.species_from,
        "--species-to": args.species_to,
        "--occ-from": args.occ_from,
        "--occ-to": args.occ_to,
    }
    missing = [flag for flag, value in needed.items() if value is None]
    if missing:
        raise config.ConfigError(f"fcf factor mode needs {', '.join(missing)}")
    occ_from, occ_to = tuple(args.occ_from), tuple(args.occ_to)
    if len(occ_from) != 3 or len(occ_to) != 3:
        raise config.ConfigError("occupation vectors must have three entries")
    basis = eigenmodes.mode_basis(args.regime, scenario.cavity, scenario.omega_v)
    displacements = {s.label: s.displacement for s in scenario.network.species}
    lams = []  # the reacting molecule's mode displacements before and after
    for flag, label in (("--species-from", args.species_from), ("--species-to", args.species_to)):
        if label not in displacements:
            raise config.ConfigError(f"{flag}: unknown species {label!r}")
        lams.append(eigenmodes.mode_displacements(basis, args.molecule, displacements[label]))
    factor = float(rates.franck_condon([occ_to], [occ_from], *lams)[0, 0])
    print(f"|FC|^2 [{args.regime}] {args.species_from}->{args.species_to} "
          f"molecule {args.molecule} {occ_from}->{occ_to} = {factor!r}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NumericalError, OverflowError) as exc:  # finite inputs whose arithmetic overflows
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

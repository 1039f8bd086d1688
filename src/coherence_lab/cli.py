"""Command-line front end.

Commands:

* ``demo``     evaluate the two built-in qubit examples end to end
* ``verify``   run randomized bound-verification ensembles, emit a JSON report
* ``sweep``    tabulate one bound over a grid of weights, emit CSV
* ``saturate`` search for minimal slack of one bound, emit a JSON report

Machine-readable payloads go to stdout or ``--out``; log lines go to stderr.
Exit codes: 0 success, 1 at least one bound report unsatisfied, 2 usage or
configuration error.

Reports are byte-reproducible: canonical JSON uses sorted keys and fixed
17-significant-digit floats, and the ``started_at`` / ``finished_at`` fields
stay null unless ``--timestamps`` is passed (wall-clock time would break
byte-identical re-runs).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

from . import __version__
from .bounds import ALL_BOUND_IDS, BOUNDS, evaluate_all, evaluate_bound
from .ensembles import EnsembleConfig, TrialRecord, run_ensemble, sample_pair
from .entropy import pure_state_coherence
from .errors import CoherenceLabError, ConfigError
from .linalg import StateVector
from .rng import make_generator, subseed
from .search import SearchSpec, minimize_slack
from .superpose import PairKind, SuperpositionCoefficients, classify_pair, superpose
from .tolerances import TOLERANCES

DEFAULT_SEED = 42
SEED_ENV_VAR = "COHERENCE_LAB_SEED"
DEFAULT_DIMS = (2, 4, 8, 16)
DEFAULT_TRIALS = 10_000
_MAX_RECORDED_VIOLATIONS = 20


def _log(message: str) -> None:
    print(message, file=sys.stderr)


# ---------------------------------------------------------------------------
# canonical JSON


def format_float(value: float) -> str:
    """Fixed 17-significant-digit decimal; always re-parses to the same bits."""
    if math.isnan(value) or math.isinf(value):
        raise ValueError("reports must not contain NaN or infinity")
    text = f"{value:.17g}"
    if not any(ch in text for ch in ".eE"):
        text += ".0"
    return text


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, 2-space indent, fixed float format."""

    def render(node, level: int) -> str:
        pad = "  " * level
        if node is None:
            return "null"
        if isinstance(node, bool):
            return "true" if node else "false"
        if isinstance(node, int):
            return str(node)
        if isinstance(node, float):
            return format_float(node)
        if isinstance(node, str):
            return json.dumps(node)
        if isinstance(node, (list, tuple)):
            if not node:
                return "[]"
            body = ",\n".join(f"{pad}  {render(v, level + 1)}" for v in node)
            return "[\n" + body + "\n" + pad + "]"
        if isinstance(node, dict):
            if not node:
                return "{}"
            body = ",\n".join(
                f"{pad}  {json.dumps(str(k))}: {render(v, level + 1)}"
                for k, v in sorted(node.items())
            )
            return "{\n" + body + "\n" + pad + "}"
        raise TypeError(f"cannot serialize {type(node).__name__} canonically")

    return render(obj, 0) + "\n"


def build_report(command: str, config_echo: dict, results, violations: int,
                 timestamps: bool, started: Optional[str], finished: Optional[str]) -> dict:
    return {
        "version": __version__,
        "command": command,
        "config": config_echo,
        "results": results,
        "violations": violations,
        "started_at": started if timestamps else None,
        "finished_at": finished if timestamps else None,
    }


def _now_iso() -> str:
    return datetime.now(timezone.utc).isoformat()


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path:
        try:
            Path(out_path).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot write {out_path}: {exc.strerror or exc}")
        _log(f"wrote {out_path}")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# configuration


def _parse_u64(text: str) -> int:
    value = int(text, 0)
    if not 0 <= value < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    return value


def _parse_nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError("must be >= 0")
    return value


def _parse_pos_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError("must be >= 1")
    return value


def _parse_pos_float(text: str) -> float:
    value = float(text)
    if not value > 0 or not math.isfinite(value):
        raise ValueError("must be a positive finite real")
    return value


def _parse_dim(text: str) -> int:
    value = int(text)
    if value < 2:
        raise ValueError(f"dimension must be >= 2, got {value}")
    return value


def _parse_dims(text: str) -> tuple[int, ...]:
    dims = tuple(_parse_dim(part) for part in text.split(",") if part.strip())
    if not dims:
        raise ValueError("dims must be a comma list of integers >= 2")
    return dims


def _parse_pair_kinds(text: str) -> tuple[PairKind, ...]:
    kinds = []
    for part in text.split(","):
        name = part.strip()
        if not name:
            continue
        try:
            kinds.append(PairKind(name))
        except ValueError:
            valid = ", ".join(k.value for k in PairKind)
            raise ValueError(f"unknown pair kind {name!r} (expected one of: {valid})")
    if not kinds:
        raise ValueError("pair_kinds must name at least one kind")
    return tuple(kinds)


def _parse_bound(text: str) -> str:
    if text not in ALL_BOUND_IDS:
        raise ValueError(f"unknown bound id {text!r} (expected one of: {', '.join(ALL_BOUND_IDS)})")
    return text


def _parse_split(text: str) -> tuple[int, int]:
    parts = [int(p.strip()) for p in text.split(",")]
    if len(parts) != 2:
        raise ValueError("split must be two comma-separated sizes")
    return parts[0], parts[1]


def _parse_format(text: str) -> str:
    if text not in ("json", "csv"):
        raise ValueError("format must be 'json' or 'csv'")
    return text


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ValueError("expected true or false")


_CONFIG_PARSERS = {
    "seed": _parse_u64,
    "trials": _parse_nonneg_int,
    "dims": _parse_dims,
    "dim": _parse_dim,
    "pair_kinds": _parse_pair_kinds,
    "tolerance": _parse_pos_float,
    "workers": _parse_pos_int,
    "out": str,
    "bound": _parse_bound,
    "split": _parse_split,
    "restarts": _parse_pos_int,
    "iterations": _parse_pos_int,
    "grid": str,
    "format": _parse_format,
    "permute": _parse_bool,
}


def _flag_type(key: str):
    """argparse ``type=`` for a flag, from the parser of its config key."""
    parse = _CONFIG_PARSERS[key]

    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))

    return convert


def parse_config_file(path: str) -> dict:
    """Flat ``key = value`` file; '#' starts a comment line."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}")
    values: dict = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, text = line.partition("=")
        key = key.strip()
        text = text.strip()
        if key not in _CONFIG_PARSERS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _CONFIG_PARSERS[key](text)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for key {key!r}: {exc}")
    return values


def _setting(args, config: dict, key: str, default=None):
    """The flag's value if given, else the config key's, else ``default``."""
    value = getattr(args, key)
    return value if value is not None else config.get(key, default)


def _resolve_seed(flag_seed: Optional[int], config: dict) -> int:
    if flag_seed is not None:
        return flag_seed
    if "seed" in config:
        return config["seed"]
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return _parse_u64(env)
        except ValueError as exc:
            raise ConfigError(f"bad {SEED_ENV_VAR} value {env!r}: {exc}")
    return DEFAULT_SEED


# ---------------------------------------------------------------------------
# demo


def _demo_entries(tolerance: float) -> list[dict]:
    inv = 1.0 / math.sqrt(2.0)
    basis_0 = StateVector([1.0, 0.0])
    basis_1 = StateVector([0.0, 1.0])
    plus = StateVector([inv, inv])
    minus = StateVector([inv, -inv])
    coeffs = SuperpositionCoefficients(inv, inv)
    cases = [
        ("omega_1", basis_0, basis_1,
         "equal superposition of two incoherent basis states"),
        ("omega_2", plus, minus,
         "equal superposition of the two maximally coherent qubit states"),
    ]
    entries = []
    for name, phi, psi, description in cases:
        sup = superpose(coeffs, phi, psi)
        reports = evaluate_all(coeffs, phi, psi, tolerance=tolerance)
        term_coherences = [pure_state_coherence(phi), pure_state_coherence(psi)]
        omega_coherence = pure_state_coherence(sup.normalized)
        entries.append(
            {
                "id": name,
                "description": description,
                "pair_class": classify_pair(phi, psi).tag.value,
                "term_coherences": term_coherences,
                "superposition_coherence": omega_coherence,
                "superposition_norm": sup.s,
                "reports": [r.to_dict() for r in reports],
            }
        )
        _log(
            f"{name}: term coherences = {term_coherences[0]:.6f}, "
            f"{term_coherences[1]:.6f}; superposition coherence = {omega_coherence:.6f}"
        )
    return entries


def cmd_demo(args) -> int:
    tolerance = args.tolerance if args.tolerance is not None else TOLERANCES.bound_slack
    started = _now_iso()
    entries = _demo_entries(tolerance)
    finished = _now_iso()
    violations = sum(
        1 for entry in entries for rep in entry["reports"] if not rep["satisfied"]
    )
    report = build_report(
        "demo",
        {"tolerance": tolerance},
        entries,
        violations,
        args.timestamps,
        started,
        finished,
    )
    _emit(canonical_json(report), args.out)
    return 0 if violations == 0 else 1


# ---------------------------------------------------------------------------
# verify


@dataclass(frozen=True)
class VerifySettings:
    seed: int
    trials: int
    dims: tuple[int, ...]
    pair_kinds: tuple[PairKind, ...]
    tolerance: float
    split: Optional[tuple[int, int]] = None
    permute: bool = False
    out: Optional[str] = None


def _verify_settings(args, config: dict) -> VerifySettings:
    dims = config.get("dims", DEFAULT_DIMS)
    if args.dim is not None:
        dims = (args.dim,)
    elif "dim" in config:
        dims = (config["dim"],)
    settings = VerifySettings(
        seed=_resolve_seed(args.seed, config),
        trials=_setting(args, config, "trials", DEFAULT_TRIALS),
        dims=dims,
        pair_kinds=config.get("pair_kinds", tuple(PairKind)),
        tolerance=_setting(args, config, "tolerance", TOLERANCES.bound_slack),
        split=config.get("split"),
        permute=config.get("permute", False),
        out=_setting(args, config, "out"),
    )
    return settings


def _summarize_ensemble(
    records: list[TrialRecord], config: EnsembleConfig
) -> tuple[dict, int]:
    bound_stats: dict[str, dict] = {}
    violating: list[dict] = []
    errors = 0
    error_samples: list[str] = []
    violations = 0
    for record in records:
        if record.error is not None:
            errors += 1
            if len(error_samples) < 5:
                error_samples.append(record.error)
            continue
        trial_violated = False
        for rep in record.reports:
            stats = bound_stats.setdefault(
                rep.bound_id,
                {"count": 0, "violations": 0, "min_slack": math.inf, "max_slack": -math.inf},
            )
            stats["count"] += 1
            stats["min_slack"] = min(stats["min_slack"], rep.slack)
            stats["max_slack"] = max(stats["max_slack"], rep.slack)
            if not rep.satisfied:
                stats["violations"] += 1
                violations += 1
                trial_violated = True
        if trial_violated and len(violating) < _MAX_RECORDED_VIOLATIONS:
            violating.append(record.to_dict())
    summary = {
        "pair_kind": config.pair_kind.value,
        "dim": config.dim,
        "seed": config.seed,
        "trials": config.trials,
        "errors": errors,
        "error_samples": error_samples,
        "violations": violations,
        "bounds": bound_stats,
        "violating_trials": violating,
    }
    return summary, violations


def cmd_verify(args) -> int:
    config = parse_config_file(args.config) if args.config else {}
    settings = _verify_settings(args, config)
    started = _now_iso()
    summaries = []
    total_violations = 0
    combo_index = 0
    for kind in settings.pair_kinds:
        for dim in settings.dims:
            ensemble = EnsembleConfig(
                dim=dim,
                trials=settings.trials,
                pair_kind=kind,
                seed=subseed(settings.seed, combo_index),
                split=settings.split if kind is PairKind.DISJOINT_SUPPORT else None,
                permute=settings.permute,
            )
            records = run_ensemble(ensemble, tolerance=settings.tolerance)
            summary, violations = _summarize_ensemble(records, ensemble)
            summaries.append(summary)
            total_violations += violations
            _log(
                f"verify: {kind.value} d={dim}: {ensemble.trials} trials, "
                f"{violations} violations, {summary['errors']} errors"
            )
            combo_index += 1
    finished = _now_iso()
    # ``workers`` is validated but selects nothing (trials run serially); it is
    # left out of the echoed config so reports stay byte-identical across it.
    config_echo = {
        "seed": settings.seed,
        "trials": settings.trials,
        "dims": list(settings.dims),
        "pair_kinds": [k.value for k in settings.pair_kinds],
        "tolerance": settings.tolerance,
        "split": list(settings.split) if settings.split else None,
        "permute": settings.permute,
    }
    report = build_report(
        "verify",
        config_echo,
        {"ensembles": summaries},
        total_violations,
        args.timestamps,
        started,
        finished,
    )
    _emit(canonical_json(report), settings.out)
    return 0 if total_violations == 0 else 1


# ---------------------------------------------------------------------------
# sweep


def _parse_grid(text: str) -> list[float]:
    try:
        if ":" in text:
            parts = [float(p) for p in text.split(":")]
            if len(parts) != 3:
                raise ValueError("range grid must be start:stop:step")
            start, stop, step = parts
            if step <= 0 or stop < start:
                raise ValueError("grid requires step > 0 and stop >= start")
            count = int(math.floor((stop - start) / step + 0.5)) + 1
            values = [start + i * step for i in range(count)]
        else:
            values = [float(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad grid {text!r}: {exc}")
    if not values:
        raise ConfigError(f"grid {text!r} contains no points")
    for v in values:
        if not 0.0 < v < 1.0:
            raise ConfigError(f"grid point {v!r} outside the open interval (0, 1)")
    return values


def _sweep_pair(bound_id: str, dim: int, seed: int) -> tuple[StateVector, StateVector]:
    kind = BOUNDS[bound_id].default_kind
    ensemble = EnsembleConfig(dim=dim, trials=1, pair_kind=kind, seed=seed)
    gen = make_generator(subseed(seed, 0))
    return sample_pair(gen, ensemble)


def cmd_sweep(args) -> int:
    config = parse_config_file(args.config) if args.config else {}
    bound_id = _setting(args, config, "bound")
    if bound_id is None:
        raise ConfigError("sweep requires --bound (or a 'bound' config key)")
    dim = _setting(args, config, "dim", 2)
    seed = _resolve_seed(args.seed, config)
    tolerance = _setting(args, config, "tolerance", TOLERANCES.bound_slack)
    grid_text = _setting(args, config, "grid")
    if grid_text is None:
        raise ConfigError("sweep requires --grid (or a 'grid' config key)")
    grid = _parse_grid(grid_text)
    out = _setting(args, config, "out")
    fmt = _setting(args, config, "format", "csv")

    phi, psi = _sweep_pair(bound_id, dim, seed)
    rows = []
    violations = 0
    for alpha_sq in grid:
        coeffs = SuperpositionCoefficients(
            math.sqrt(alpha_sq), math.sqrt(1.0 - alpha_sq)
        )
        report = evaluate_bound(bound_id, coeffs, phi, psi, tolerance=tolerance)
        rows.append((alpha_sq, report.lhs, report.rhs, report.slack))
        if not report.satisfied:
            violations += 1

    if fmt == "csv":
        lines = ["alpha_sq,lhs,rhs,slack"]
        lines += [f"{a!r},{l!r},{r!r},{s!r}" for a, l, r, s in rows]
        _emit("\n".join(lines) + "\n", out)
    else:
        started = _now_iso()
        payload = [
            {"alpha_sq": a, "lhs": l, "rhs": r, "slack": s} for a, l, r, s in rows
        ]
        report_obj = build_report(
            "sweep",
            {"bound": bound_id, "dim": dim, "seed": seed, "tolerance": tolerance,
             "grid": grid},
            payload,
            violations,
            args.timestamps,
            started,
            started,
        )
        _emit(canonical_json(report_obj), out)
    return 0 if violations == 0 else 1


# ---------------------------------------------------------------------------
# saturate


def cmd_saturate(args) -> int:
    config = parse_config_file(args.config) if args.config else {}
    bound_id = _setting(args, config, "bound")
    if bound_id is None:
        raise ConfigError("saturate requires --bound (or a 'bound' config key)")
    dim = _setting(args, config, "dim", 2)
    seed = _resolve_seed(args.seed, config)
    tolerance = _setting(args, config, "tolerance", TOLERANCES.bound_slack)
    if args.pair_kind is not None:
        pair_kind = PairKind(args.pair_kind)
    else:
        pair_kind = BOUNDS[bound_id].default_kind
    try:
        spec = SearchSpec(
            bound_id=bound_id,
            dim=dim,
            pair_kind=pair_kind,
            seed=seed,
            restarts=_setting(args, config, "restarts", 16),
            iterations=_setting(args, config, "iterations", 2000),
        )
    except ValueError as exc:
        raise ConfigError(str(exc))

    started = _now_iso()
    result = minimize_slack(spec, tolerance=tolerance)
    finished = _now_iso()
    coeffs, phi, psi = result.best_inputs
    final_report = evaluate_bound(bound_id, coeffs, phi, psi, tolerance=tolerance)
    violations = 0 if final_report.satisfied else 1

    def complex_pair(z: complex) -> list[float]:
        return [z.real, z.imag]

    payload = {
        "bound_id": bound_id,
        "pair_kind": pair_kind.value,
        "dim": dim,
        "restarts": spec.restarts,
        "iterations": spec.iterations,
        "best_slack": result.best_slack,
        "best_inputs": {
            "alpha": complex_pair(coeffs.alpha),
            "beta": complex_pair(coeffs.beta),
            "phi": [complex_pair(z) for z in phi.amps],
            "psi": [complex_pair(z) for z in psi.amps],
        },
        "restart_best": [trace[-1] for trace in result.trace],
        "evaluations": result.evaluations,
        "report": final_report.to_dict(),
    }
    report_obj = build_report(
        "saturate",
        {"bound": bound_id, "pair_kind": pair_kind.value, "dim": dim, "seed": seed,
         "restarts": spec.restarts, "iterations": spec.iterations,
         "tolerance": tolerance},
        payload,
        violations,
        args.timestamps,
        started,
        finished,
    )
    _log(f"saturate: {bound_id} best slack = {result.best_slack:.6e}")
    amps = ", ".join(f"{z.real:.12g}{z.imag:+.12g}j" for z in phi.amps)
    _log(f"saturate: best phi = [{amps}]")
    amps = ", ".join(f"{z.real:.12g}{z.imag:+.12g}j" for z in psi.amps)
    _log(f"saturate: best psi = [{amps}]")
    _log(
        f"saturate: best alpha = {coeffs.alpha.real:.12g}{coeffs.alpha.imag:+.12g}j, "
        f"beta = {coeffs.beta.real:.12g}{coeffs.beta.imag:+.12g}j"
    )
    _emit(canonical_json(report_obj), _setting(args, config, "out"))
    return 0 if violations == 0 else 1


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coherence-lab",
        description=(
            "Relative entropy of coherence for two-term superpositions: "
            "exact relations, bound verification, sweeps, and saturation search."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def option(p: argparse.ArgumentParser, key: str, help: str, **kwargs) -> None:
        # Flags share their parser with the config key of the same name.
        p.add_argument(f"--{key}", type=_flag_type(key), help=help, **kwargs)

    def add_common(p: argparse.ArgumentParser, *, formats=("json",)) -> None:
        p.add_argument("--out", help="write the payload to this path instead of stdout")
        option(p, "tolerance", "bound verdict tolerance")
        option(p, "format", f"payload format (default {formats[0]})", choices=formats)
        p.add_argument(
            "--timestamps",
            action="store_true",
            help="fill started_at/finished_at (breaks byte-identical re-runs)",
        )

    demo = sub.add_parser("demo", help="evaluate the built-in qubit examples")
    add_common(demo)
    demo.set_defaults(handler=cmd_demo)

    verify = sub.add_parser("verify", help="run randomized bound-verification ensembles")
    verify.add_argument("--config", help="flat key = value configuration file")
    option(verify, "seed", "master seed (unsigned 64-bit)")
    option(verify, "dim", "restrict to a single dimension")
    option(verify, "trials", "trials per (pair kind, dimension)")
    option(verify, "workers", "accepted for compatibility; trials always run serially")
    add_common(verify)
    verify.set_defaults(handler=cmd_verify)

    sweep = sub.add_parser("sweep", help="tabulate one bound over a weight grid")
    sweep.add_argument("--config", help="flat key = value configuration file")
    option(sweep, "bound", "bound to tabulate", choices=ALL_BOUND_IDS)
    option(sweep, "dim", "state dimension (default 2)")
    option(sweep, "seed", "seed for the fixed state pair")
    sweep.add_argument(
        "--grid",
        help="|alpha|^2 values: 'start:stop:step' or a comma list, all in (0, 1)",
    )
    add_common(sweep, formats=("csv", "json"))
    sweep.set_defaults(handler=cmd_sweep)

    saturate = sub.add_parser("saturate", help="minimize the slack of one bound")
    saturate.add_argument("--config", help="flat key = value configuration file")
    option(saturate, "bound", "bound to saturate", choices=ALL_BOUND_IDS)
    option(saturate, "dim", "state dimension (default 2)")
    saturate.add_argument(
        "--pair-kind",
        choices=[k.value for k in PairKind],
        help="sampling constraint (default: the bound's natural class)",
    )
    option(saturate, "restarts", "independent restarts (default 16)")
    option(saturate, "iterations", "iterations per restart (default 2000)")
    option(saturate, "seed", "master seed (unsigned 64-bit)")
    add_common(saturate)
    saturate.set_defaults(handler=cmd_saturate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        _log(f"error: {exc}")
        return 2
    except CoherenceLabError as exc:
        _log(f"error: {type(exc).__name__}: {exc}")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

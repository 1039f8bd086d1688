"""Command-line front end.

Commands:

* ``demo``     evaluate the two built-in qubit examples end to end
* ``verify``   run randomized bound-verification ensembles, emit a JSON report
* ``sweep``    tabulate one bound over a grid of weights, emit CSV or JSON
* ``saturate`` search one bound for its least slack (equality: largest residual), emit JSON

Machine-readable payloads go to stdout or ``--out``; log lines go to stderr.
Exit codes: 0 success, 1 at least one bound report unsatisfied, 2 usage or
configuration error, 3 an internal invariant failed (``ConsistencyError``).
A stdout that cannot take the run's text (a report, help or version), for
any cause, gives 2; a stderr failure changes nothing.

Reports are byte-reproducible: canonical JSON uses sorted keys and writes
each float as Python's shortest round-trip ``repr``, the format of ``sweep``'s
CSV, and a report holds no wall-clock time, so it is a function of its
config alone.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import itertools
import json
import math
import os
import sys
from pathlib import Path
from typing import Optional

from . import __version__
from .bounds import ALL_BOUND_IDS, BOUNDS, evaluate_all, evaluate_bound
from .ensembles import EnsembleConfig, sample_pair, summarize_ensembles, trial_stream
from .entropy import pure_state_coherence
from .errors import CoherenceLabError, ConfigError, ConsistencyError
from .linalg import StateVector
from .rng import subseed
from .search import SearchSpec, minimize_slack
from .superpose import PairKind, SuperpositionCoefficients, classify_pair, superpose
from .tolerances import TOLERANCES

SEED_ENV_VAR = "COHERENCE_LAB_SEED"
# A range grid with more points than this is rejected before it is built.
_MAX_GRID_POINTS = 10**6


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _deliver(text: str, stream) -> Optional[str]:
    """Write text to a real stream and flush it: None, or why it could not."""
    if not text:
        return None
    if stream is None:
        return "it is closed"
    try:
        stream.write(text)
        stream.flush()
    except (OSError, ValueError) as exc:  # null it, or its buffer fails again at exit
        with (open(os.devnull, "w") as devnull,
              contextlib.suppress(AttributeError, OSError, ValueError)):
            os.dup2(devnull.fileno(), stream.fileno())
        return getattr(exc, "strerror", None) or str(exc)
    return None


# ---------------------------------------------------------------------------
# canonical JSON and the report envelope


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, 2-space indent, floats as Python's
    shortest round-trip ``repr``; NaN and infinity raise ``ValueError``."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _finish(args, echo: dict, results, violations: int) -> int:
    """Write the JSON report envelope to stdout in one write; return the exit code."""
    report = {
        "version": __version__,
        "command": args.command,
        "config": echo,
        "results": results,
        "violations": violations,
    }
    sys.stdout.write(canonical_json(report))
    return 0 if violations == 0 else 1


# ---------------------------------------------------------------------------
# configuration


def _parse_u64(text: str) -> int:
    value = int(text, 0)
    if not 0 <= value < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    return value


def _int_in(low: int, high: float = math.inf):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise ValueError(f"must be >= {low}, got {value}")
        if value > high:
            raise ValueError(f"must be <= {high}, got {value}")
        return value

    return parse


# A state of the largest accepted dimension holds 1 MiB of amplitudes; without
# a ceiling a huge value ends in a numpy allocation error.
_MAX_DIM = 2**16
_parse_dim = _int_in(2, _MAX_DIM)


def _parse_pos_float(text: str) -> float:
    value = float(text)
    if not value > 0 or not math.isfinite(value):
        raise ValueError("must be a positive finite real")
    return value


def _one_of(choices: dict):
    """Parser of one name: ``choices`` maps each accepted name to its value."""
    def parse(text: str):
        name = text.strip()
        if name not in choices:
            raise ValueError(f"unknown value {name!r} (expected one of: {', '.join(choices)})")
        return choices[name]

    return parse


def _listed(parse, count: Optional[int] = None):
    """Parser of a comma list of ``parse``'s values, empty parts skipped:
    at least one value, or exactly ``count``."""
    def parse_list(text: str) -> tuple:
        values = tuple(parse(part) for part in text.split(",") if part.strip())
        if count is None and not values:
            raise ValueError("expected a comma list of at least one value")
        if count is not None and len(values) != count:
            raise ValueError(f"expected {count} comma-separated values, got {len(values)}")
        return values

    return parse_list


_parse_pair_kind = _one_of({kind.value: kind for kind in PairKind})


def _parse_grid(text: str) -> tuple[float, ...]:
    """|alpha|^2 values, 'start:stop:step' or a comma list, all in (0, 1)."""
    if ":" not in text:
        values = _listed(float)(text)
    else:
        parts = [float(p) for p in text.split(":")]
        if len(parts) != 3:
            raise ValueError("range grid must be start:stop:step")
        start, stop, step = parts
        if not (step > 0 and stop >= start):
            raise ValueError("grid requires step > 0 and stop >= start")
        points = (stop - start) / step + 0.5
        if not points < _MAX_GRID_POINTS:
            raise ValueError(f"range grid has more than {_MAX_GRID_POINTS} points")
        values = tuple(start + i * step for i in range(int(math.floor(points)) + 1))
    for v in values:
        if not 0.0 < v < 1.0:
            raise ValueError(f"grid point {v!r} outside the open interval (0, 1)")
    return values


# Config key (and flag of the same name, with '-' for '_') -> (parser,
# default). A default of None means the setting is optional, is required
# (``bound``, ``grid``) or, for ``pair_kind``, depends on the bound.
_SETTINGS = {
    "seed": (_parse_u64, 42),
    "trials": (_int_in(0), 10_000),
    "dims": (_listed(_parse_dim), (2, 4, 8, 16)),
    "dim": (_parse_dim, 2),
    "pair_kinds": (_listed(_parse_pair_kind), tuple(PairKind)),
    "pair_kind": (_parse_pair_kind, None),
    "tolerance": (_parse_pos_float, TOLERANCES.bound_slack),
    "workers": (_int_in(1), 1),
    "out": (str, None),
    "bound": (_one_of({bound_id: bound_id for bound_id in ALL_BOUND_IDS}), None),
    "split": (_listed(_int_in(1), 2), None),
    "restarts": (_int_in(1), SearchSpec.restarts),
    "iterations": (_int_in(1), SearchSpec.iterations),
    "grid": (_parse_grid, None),
    "format": (_one_of({"csv": "csv", "json": "json"}), "csv"),
}


def _flag_type(key: str):
    """argparse ``type=`` for a flag, from the parser of its config key."""
    parse = _SETTINGS[key][0]

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
    except (OSError, UnicodeDecodeError) as exc:
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
        if key not in _SETTINGS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _SETTINGS[key][0](text)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for key {key!r}: {exc}")
    return values


def _given(args, config: dict, key: str):
    """The flag's value if given, else the config key's, else None."""
    value = getattr(args, key, None)
    return value if value is not None else config.get(key)


def _setting(args, config: dict, key: str):
    """The flag's value if given, else the config key's, else the default."""
    value = _given(args, config, key)
    return value if value is not None else _SETTINGS[key][1]


def _required(args, config: dict, key: str):
    value = _given(args, config, key)
    if value is None:
        raise ConfigError(f"{args.command} requires --{key} (or a '{key}' config key)")
    return value


def _seed(args, config: dict) -> int:
    """Flag, then config key, then ``COHERENCE_LAB_SEED``, then the default."""
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None and _given(args, config, "seed") is None:
        try:
            return _parse_u64(env)
        except ValueError as exc:
            raise ConfigError(f"bad {SEED_ENV_VAR} value {env!r}: {exc}")
    return _setting(args, config, "seed")


# ---------------------------------------------------------------------------
# demo


def cmd_demo(args, config: dict) -> int:
    tolerance = _setting(args, config, "tolerance")
    inv = 1.0 / math.sqrt(2.0)
    coeffs = SuperpositionCoefficients(inv, inv)
    cases = [
        ("omega_1", StateVector([1.0, 0.0]), StateVector([0.0, 1.0]),
         "equal superposition of two incoherent basis states"),
        ("omega_2", StateVector([inv, inv]), StateVector([inv, -inv]),
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
    violations = sum(not r["satisfied"] for e in entries for r in e["reports"])
    return _finish(args, {"tolerance": tolerance}, entries, violations)


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args, config: dict) -> int:
    seed = _seed(args, config)
    trials = _setting(args, config, "trials")
    one_dim = _given(args, config, "dim")
    dims = (one_dim,) if one_dim is not None else _setting(args, config, "dims")
    pair_kinds = _setting(args, config, "pair_kinds")
    tolerance = _setting(args, config, "tolerance")
    split = _setting(args, config, "split")
    ensembles = [
        EnsembleConfig(
            dim=dim,
            trials=trials,
            pair_kind=kind,
            seed=subseed(seed, combo_index),
            split=split if kind is PairKind.DISJOINT_SUPPORT else None,
        )
        for combo_index, (kind, dim) in enumerate(itertools.product(pair_kinds, dims))
    ]
    summaries = summarize_ensembles(ensembles, tolerance=tolerance)
    for summary in summaries:
        _log(
            f"verify: {summary['pair_kind']} d={summary['dim']}: {summary['trials']} trials, "
            f"{summary['violations']} violations, {summary['errors']} errors"
        )
    total_violations = sum(summary["violations"] for summary in summaries)
    # ``workers`` is validated but selects nothing (trials run serially); it is
    # left out of the echoed config so reports stay byte-identical across it.
    echo = {
        "seed": seed,
        "trials": trials,
        "dims": list(dims),
        "pair_kinds": [k.value for k in pair_kinds],
        "tolerance": tolerance,
        "split": list(split) if split else None,
    }
    return _finish(args, echo, {"ensembles": summaries}, total_violations)


# ---------------------------------------------------------------------------
# sweep


def cmd_sweep(args, config: dict) -> int:
    bound_id = _required(args, config, "bound")
    dim = _setting(args, config, "dim")
    seed = _seed(args, config)
    tolerance = _setting(args, config, "tolerance")
    grid = _required(args, config, "grid")

    ensemble = EnsembleConfig(
        dim=dim, trials=1, pair_kind=BOUNDS[bound_id].default_kind, seed=seed
    )
    phi, psi = sample_pair(trial_stream(ensemble, 0), ensemble)
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

    if _setting(args, config, "format") == "csv":
        lines = ["alpha_sq,lhs,rhs,slack"]
        lines += [f"{a!r},{l!r},{r!r},{s!r}" for a, l, r, s in rows]
        sys.stdout.write("\n".join(lines) + "\n")
        return 0 if violations == 0 else 1
    echo = {"bound": bound_id, "dim": dim, "seed": seed, "tolerance": tolerance,
            "grid": grid}
    payload = [{"alpha_sq": a, "lhs": l, "rhs": r, "slack": s} for a, l, r, s in rows]
    return _finish(args, echo, payload, violations)


# ---------------------------------------------------------------------------
# saturate


def cmd_saturate(args, config: dict) -> int:
    bound_id = _required(args, config, "bound")
    dim = _setting(args, config, "dim")
    seed = _seed(args, config)
    tolerance = _setting(args, config, "tolerance")
    pair_kind = _given(args, config, "pair_kind") or BOUNDS[bound_id].default_kind
    try:
        spec = SearchSpec(
            bound_id=bound_id,
            dim=dim,
            pair_kind=pair_kind,
            seed=seed,
            restarts=_setting(args, config, "restarts"),
            iterations=_setting(args, config, "iterations"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc))

    result = minimize_slack(spec, tolerance=tolerance)
    coeffs, phi, psi = result.best_inputs
    violations = 0 if result.report.satisfied else 1

    def complex_pair(z: complex) -> list[float]:
        return [z.real, z.imag]

    def shown(z: complex) -> str:
        return f"{z.real:.12g}{z.imag:+.12g}j"

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
        "restart_best": [v if math.isfinite(v) else None for v in result.restart_best],
        "evaluations": result.evaluations,
        "report": result.report.to_dict(),
    }
    echo = {"bound": bound_id, "pair_kind": pair_kind.value, "dim": dim, "seed": seed,
            "restarts": spec.restarts, "iterations": spec.iterations,
            "tolerance": tolerance}
    _log(f"saturate: {bound_id} best slack = {result.best_slack:.6e}")
    for name, state in (("phi", phi), ("psi", psi)):
        _log(f"saturate: best {name} = [{', '.join(map(shown, state.amps))}]")
    _log(f"saturate: best alpha = {shown(coeffs.alpha)}, beta = {shown(coeffs.beta)}")
    return _finish(args, echo, payload, violations)


# ---------------------------------------------------------------------------
# parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command tree, built at the first ``main`` call and reused: it holds
    no per-call state (the seed variable and config files are read per run)."""
    parser = argparse.ArgumentParser(
        prog="coherence-lab",
        description=(
            "Relative entropy of coherence for two-term superpositions: "
            "exact relations, bound verification, sweeps, and saturation search."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    bound_ids = ", ".join(ALL_BOUND_IDS)

    def option(p: argparse.ArgumentParser, key: str, help: str) -> None:
        # Flags share their parser and default with the config key of the same
        # name; "{default}" in the help text names that default.
        p.add_argument(f"--{key.replace('_', '-')}", type=_flag_type(key),
                       help=help.format(default=_SETTINGS[key][1]))

    def command(name: str, help: str, handler) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        option(p, "out", "write the payload to this path instead of stdout")
        option(p, "tolerance", "bound verdict tolerance (default {default})")
        return p

    command("demo", "evaluate the built-in qubit examples", cmd_demo)

    verify = command("verify", "run randomized bound-verification ensembles", cmd_verify)
    option(verify, "seed", "master seed (unsigned 64-bit)")
    option(verify, "dim", "restrict to a single dimension")
    option(verify, "trials", "trials per (pair kind, dimension) (default {default})")
    option(verify, "workers", "accepted for compatibility; trials always run serially")

    sweep = command("sweep", "tabulate one bound over a weight grid", cmd_sweep)
    option(sweep, "bound", f"bound to tabulate: one of {bound_ids}")
    option(sweep, "dim", "state dimension (default {default})")
    option(sweep, "seed", "seed for the fixed state pair")
    option(sweep, "grid", "|alpha|^2 values: 'start:stop:step' or a comma list, all in (0, 1)")
    option(sweep, "format", "payload format, csv or json (default {default})")

    saturate = command("saturate", "minimize the slack of one bound", cmd_saturate)
    option(saturate, "bound", f"bound to saturate: one of {bound_ids}")
    option(saturate, "dim", "state dimension (default {default})")
    kinds = ", ".join(k.value for k in PairKind)
    option(saturate, "pair_kind",
           f"sampling constraint: one of {kinds} (default: the bound's natural class)")
    option(saturate, "restarts", "independent restarts (default {default})")
    option(saturate, "iterations", "iterations per restart (default {default})")
    option(saturate, "seed", "master seed (unsigned 64-bit)")

    for p in (verify, sweep, saturate):
        p.add_argument("--config", help="flat key = value configuration file")
    return parser


def _run(argv) -> int:
    """Parse argv and run its command; ``--out`` takes the payload it prints."""
    args = _parser().parse_args(argv)
    try:
        config = parse_config_file(args.config) if getattr(args, "config", None) else {}
        out_path = _setting(args, config, "out")
        if not out_path:
            return args.handler(args, config)
        with contextlib.redirect_stdout(io.StringIO()) as payload:
            code = args.handler(args, config)
        try:
            Path(out_path).write_text(payload.getvalue(), encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot write {out_path}: {exc.strerror or exc}")
        _log(f"wrote {out_path}")
        return code
    except ConfigError as exc:
        _log(f"error: {exc}")
        return 2
    except CoherenceLabError as exc:
        _log(f"error: {type(exc).__name__}: {exc}")
        return 3 if isinstance(exc, ConsistencyError) else 2


def main(argv=None) -> int:
    """Run one command into two buffers, then deliver them (the module docstring)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = _run(argv)
    except SystemExit as exc:  # argparse's: raised again once stdout has taken its text
        code = exc
    finally:  # a run that crashes keeps the log lines written before it
        _deliver(err.getvalue(), sys.stderr)
    reason = _deliver(out.getvalue(), sys.stdout)
    if reason is not None:
        _deliver(f"error: cannot write the report to stdout: {reason}\n", sys.stderr)
        return 2
    if isinstance(code, SystemExit):
        raise code
    return code


if __name__ == "__main__":
    raise SystemExit(main())

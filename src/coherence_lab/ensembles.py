"""Seeded random generation of states, pairs, and coefficients.

Every trial of an ensemble reads its own Philox stream keyed by a sub-seed
derived from the master seed and the trial index (see ``rng``), so runs are
bit-for-bit reproducible and each trial is independent of every other.
Within a trial the draw order is fixed: first state, second state, then
coefficients, ``_stream_length`` uniforms in all; a draw that cannot give a
pair of its kind raises ``DegeneratePairError`` and is not redrawn.

``run_ensemble`` runs trials one at a time and is the reference.
``summarize_ensembles`` computes the same summaries in passes over the trials
of all its ensembles, held in (trials, dim) arrays.  The batched values are
the scalar path's floats bit for bit (the row-local forms in ``linalg``,
``superpose``, ``entropy`` and ``bounds.evaluate_rows``), so every comparison
comes out as it does there, and exactly the trials at which the scalar path
would raise are handed back to it.

A pass holds at most ``_CHUNK_ELEMENTS`` trial x dim elements, or one trial,
so memory grows neither with the trial count nor with the ensembles, and
pays numpy's per-call cost per pass, not per ensemble.  It draws once: one
``subseeds`` call over its rows' masters and indices, then one Philox call
over every row's stream, whatever their lengths (4 d + 2 uniforms per
trial, so at most 5 ``_CHUNK_ELEMENTS`` uniforms per pass).  Each group
(one dimension and pair of raw block lengths, disjoint or not) reads its
rows' uniforms as a reshaped slice of that draw and runs the Box-Muller
draws, ``superpose_rows`` and one ``row_coherences`` call over phi, psi and
omega side by side, where a disjoint pair's zero amplitudes are -0.0 terms
as on the scalar path.  A kind's own rule (the projection of an orthogonal
draw, the rejection of an accidentally orthogonal one) runs on the slice of
each of its segments.  ``class_masks`` runs once per non-disjoint group; a
disjoint group's rows are DisjointSupport by construction of its draw.  The
coefficients and ``evaluate_rows``, which runs each bound once over the kept
rows of its classes, run once per pass, and each bound's result folds into
the pass's ensembles with one ``reduceat`` per extreme.  ``_pass`` alone
decides which rows it keeps: a kept row's weights pass the coefficient check
and its s is ``normalizable``, so every binary-entropy argument it reaches
lies in [0, 1 + ``TOLERANCES.norm``].
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .bounds import BoundReport, evaluate_all, evaluate_rows
from .entropy import row_coherences
from .errors import BadSplitError, CoherenceLabError, DegeneratePairError
from .linalg import (StateVector, norm, normalizable, normalize, normalize_rows,
                     project_out_rows, scaled_state)
from .rng import MASK64, UniformRows, complex_normals, ragged_uniforms, stream, subseed, subseeds
from .superpose import (
    PairKind,
    SuperpositionCoefficients,
    class_masks,
    coefficient_map,
    coefficient_weights,
    default_split,
    is_orthogonal,
    superpose_rows,
)
from .tolerances import TOLERANCES

# A summary keeps the records of this many violating trials and this many
# error strings, the first ones in trial-index order.
_MAX_RECORDED_VIOLATIONS = 20
_MAX_ERROR_SAMPLES = 5
# A pass holds trials whose dimensions sum to at most this (unless it is one
# trial), which bounds the kernel's memory whatever the trial count.
_CHUNK_ELEMENTS = 2**14


@dataclass(frozen=True)
class EnsembleConfig:
    """Specification of one randomized verification ensemble."""

    dim: int
    trials: int
    pair_kind: PairKind
    seed: int
    split: Optional[tuple[int, int]] = None

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"ensemble dimension must be >= 2, got {self.dim}")
        if self.trials < 0:
            raise ValueError(f"trial count must be >= 0, got {self.trials}")
        if self.pair_kind is PairKind.DISJOINT_SUPPORT:
            split = self.split if self.split is not None else default_split(self.dim)
            d1, d2 = split
            if d1 < 1 or d2 < 1 or d1 + d2 > self.dim:
                raise BadSplitError(
                    f"split {split} is invalid for dimension {self.dim}"
                )
            object.__setattr__(self, "split", (int(d1), int(d2)))


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one trial: sub-seed, classification, and all reports.

    Sampling or evaluation errors are captured per trial instead of aborting
    the run; a failed trial has an ``error`` string and no reports.
    """

    index: int
    seed: int
    pair_class: Optional[str]
    reports: tuple[BoundReport, ...]
    error: Optional[str]

    def to_dict(self) -> dict:
        record = asdict(self)
        record["reports"] = list(record["reports"])  # asdict keeps the tuple
        return record


def _haar_state(gen: UniformRows, dim: int) -> StateVector:
    raw = complex_normals(gen, dim)  # finite by construction, so only its norm is checked
    n = norm(raw)
    if n <= TOLERANCES.zero_vector:
        raise DegeneratePairError("Gaussian sampling produced a degenerate vector")
    return scaled_state(raw, n)


def haar_random_state(dim: int, seed: int) -> StateVector:
    """Uniform (unitarily invariant) random pure state: independent standard
    complex Gaussian amplitudes, then normalization."""
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    return _haar_state(stream(seed, 2 * dim), dim)


def _orthogonal_pair(gen: UniformRows, dim: int) -> tuple[StateVector, StateVector]:
    phi = _haar_state(gen, dim)
    (projected,), (kept,) = project_out_rows(phi.amps[None], complex_normals(gen, dim)[None])
    if not kept:
        raise DegeneratePairError("the second state is nearly parallel to the first")
    return phi, normalize(projected)


def random_orthogonal_pair(dim: int, seed: int) -> tuple[StateVector, StateVector]:
    """Two random states with |<phi|psi>| below the support tolerance: Gram-Schmidt
    with one re-orthogonalization pass, raising ``DegeneratePairError`` if the
    second raw sample is nearly parallel to the first."""
    if dim < 2:
        raise ValueError(f"dimension must be >= 2, got {dim}")
    return _orthogonal_pair(stream(seed, 4 * dim), dim)


def _disjoint_pair(
    gen: UniformRows, dim: int, split: tuple[int, int]
) -> tuple[StateVector, StateVector]:
    d1, d2 = split
    phi, psi = np.zeros((2, dim), dtype=np.complex128)
    phi[:d1] = _haar_state(gen, d1).amps
    psi[d1 : d1 + d2] = _haar_state(gen, d2).amps
    return StateVector(phi), StateVector(psi)


def _coefficient_pair(gen: UniformRows):
    """alpha and beta from the next two uniforms: scalars or (trials,) rows."""
    theta = 0.5 * np.pi * gen.random()
    return coefficient_map(theta, 2.0 * np.pi * gen.random())


def _coefficients(gen: UniformRows) -> SuperpositionCoefficients:
    alpha, beta = _coefficient_pair(gen)
    return SuperpositionCoefficients(alpha=alpha, beta=beta)


def random_coefficients(seed: int) -> SuperpositionCoefficients:
    """alpha = cos(theta), beta = sin(theta) e^{i phase}; theta uniform on
    [0, pi/2], phase uniform on [0, 2 pi)."""
    return _coefficients(stream(seed, 2))


def sample_pair(gen: UniformRows, config: EnsembleConfig) -> tuple[StateVector, StateVector]:
    """Draw one pair of ``config.pair_kind`` from ``gen``, as a trial does."""
    kind = config.pair_kind
    if kind is PairKind.DISJOINT_SUPPORT:
        return _disjoint_pair(gen, config.dim, config.split)
    if kind is PairKind.ORTHOGONAL_SAME_SPACE:
        return _orthogonal_pair(gen, config.dim)
    phi, psi = _haar_state(gen, config.dim), _haar_state(gen, config.dim)
    if kind is PairKind.NON_ORTHOGONAL and is_orthogonal(np.vdot(phi.amps, psi.amps)):
        raise DegeneratePairError("the pair is accidentally orthogonal")
    return phi, psi


def trial_stream(config: EnsembleConfig, index: int) -> UniformRows:
    """The uniforms trial ``index`` of ``config`` reads: its pair, then alpha and beta."""
    return stream(subseed(config.seed, index), _stream_length(config))


def _run_trial(config: EnsembleConfig, index: int, tolerance: float) -> TrialRecord:
    trial_seed = subseed(config.seed, index)
    gen = trial_stream(config, index)
    try:
        phi, psi = sample_pair(gen, config)
        coeffs = _coefficients(gen)
        kind, reports = evaluate_all(coeffs, phi, psi, tolerance=tolerance)
    except CoherenceLabError as exc:
        return TrialRecord(index, trial_seed, None, (), f"{type(exc).__name__}: {exc}")
    return TrialRecord(index, trial_seed, kind.value, tuple(reports), None)


def run_ensemble(
    config: EnsembleConfig, *, tolerance: float = TOLERANCES.bound_slack
) -> list[TrialRecord]:
    """Run all trials of an ensemble, ordered by trial index.

    The result is a pure function of ``config`` and ``tolerance``: each trial
    reads its own stream, keyed by (master seed, index).
    """
    return [_run_trial(config, k, tolerance) for k in range(config.trials)]


# ---------------------------------------------------------------------------
# batched path


def _blocks(config: EnsembleConfig) -> tuple[int, int]:
    """The lengths of the two raw Gaussian vectors a trial draws."""
    if config.pair_kind is PairKind.DISJOINT_SUPPORT:
        return config.split
    return config.dim, config.dim


def _stream_length(config: EnsembleConfig) -> int:
    """Uniforms per batched trial: a pair per complex normal, then theta and phase."""
    return 2 * sum(_blocks(config)) + 2


def _group(config: EnsembleConfig) -> tuple[int, int, tuple[int, int]]:
    """Trials that share a pass's row-wise stages: of one dimension and pair
    of raw block lengths, hence disjoint or not.  Passes take ensembles in
    the order of this key, stream length first."""
    return _stream_length(config), config.dim, _blocks(config)


def _group_rows(members: list, uniforms: np.ndarray, alpha: np.ndarray, beta: np.ndarray):
    """Per-row values of one group's segments, one trial per row of
    ``uniforms`` and of the coefficients: (the class masks, and ``ok`` and
    the values ``evaluate_rows`` reads).  Each segment is a run of rows, on
    whose slice its kind's rule runs: an OrthogonalSameSpace draw projects
    its second vector, and a NonOrthogonal draw that ``class_masks`` does
    not class NonOrthogonal is not ok, as ``sample_pair`` raises there.  A
    disjoint group's classes come from its draw, by the rule
    ``bounds.row_slacks`` applies: each block is normalized into its own
    columns of zeros, so every term of <phi|psi> has an exact-zero factor
    and every ok row is DisjointSupport; a row that is not ok goes to the
    scalar path whatever its class."""
    _, dim, (d1, d2) = _group(members[0][1])
    disjoint = members[0][1].pair_kind is PairKind.DISJOINT_SUPPORT
    edges = list(itertools.accumulate((len(trials) for _, _, trials in members), initial=0))
    segments = [(config.pair_kind, slice(start, stop))
                for (_, config, _), start, stop in zip(members, edges, edges[1:])]
    gen = UniformRows(uniforms)
    # phi, psi and omega side by side, for the group's one coherence call; a
    # disjoint pair's blocks sit at columns [0, d1) and [d1, d1 + d2).
    states = np.zeros((3, len(uniforms), dim), dtype=np.complex128)
    phi, psi, _ = states
    phi[:, :d1], norms = normalize_rows(complex_normals(gen, d1))
    ok = normalizable(norms)
    raw = complex_normals(gen, d2)
    for kind, rows in segments:
        if kind is PairKind.ORTHOGONAL_SAME_SPACE:
            raw[rows], kept = project_out_rows(phi[rows], raw[rows])
            ok[rows] &= kept
    first = d1 if disjoint else 0
    psi[:, first : first + d2], norms = normalize_rows(raw)
    del raw
    ok &= normalizable(norms)
    if disjoint:
        none = np.zeros(len(uniforms), dtype=bool)
        classes = {PairKind.DISJOINT_SUPPORT: ~none, PairKind.ORTHOGONAL_SAME_SPACE: none,
                   PairKind.NON_ORTHOGONAL: none}
    else:
        classes = class_masks(phi, psi)
        for kind, rows in segments:
            if kind is PairKind.NON_ORTHOGONAL:
                ok[rows] &= classes[PairKind.NON_ORTHOGONAL][rows]
    rows, norms = states.transpose(1, 0, 2), np.empty((3, len(uniforms)))
    superpose_rows(alpha, beta, rows, norms.T)  # omega into states[2], s into norms[2]
    s = norms[2]
    coherence = row_coherences(rows)
    values = {"ok": ok & normalizable(s), "s": s}
    for i, name in enumerate(("phi", "psi", "t1")):
        values["coherence_" + name] = coherence[:, i]
    return classes, values


def _joined(parts: list) -> np.ndarray:
    """``np.concatenate(parts)``, without its copy when there is one part."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _draw(segments: list) -> np.ndarray:
    """The uniforms of a pass's rows, one row's stream after another: one
    ``subseeds`` call over the rows' masters and indices, then one Philox
    call.  Row r of a segment is trial ``trials.start + r``."""
    sizes = [len(trials) for _, _, trials in segments]
    masters = np.array([config.seed & MASK64 for _, config, _ in segments], dtype=np.uint64)
    shifts = np.array([trials.start for _, _, trials in segments]) - np.cumsum([0] + sizes[:-1])
    keys = subseeds(np.repeat(masters, sizes), np.arange(sum(sizes)) + np.repeat(shifts, sizes))
    lengths = [_stream_length(config) for _, config, _ in segments]
    return ragged_uniforms(keys, np.repeat(lengths, sizes))


def _pass(segments: list, tolerance: float):
    """Evaluate a pass on arrays, one trial per row in segment order.
    ``segments`` holds (summary, config, trials), each segment's trial indices
    as a ``range``, sorted by ``_group``.

    Returns the mask of rows at which the scalar path raises, which it must
    run, and for the others, per bound id, the rows, slacks and verdicts: the
    scalar path's, bit for bit.
    """
    groups = [list(members) for _, members in itertools.groupby(segments, lambda seg: _group(seg[1]))]
    drawn = _draw(segments)
    # Each group's (rows, length) uniforms are a reshaped slice of the draw.
    uniforms, start = [], 0
    for members in groups:
        length = _stream_length(members[0][1])
        stop = start + length * sum(len(trials) for _, _, trials in members)
        uniforms.append(drawn[start:stop].reshape(-1, length))
        start = stop
    alpha, beta = _coefficient_pair(UniformRows(_joined([u[:, -2:] for u in uniforms])))
    alpha_sq, beta_sq, ok = coefficient_weights(alpha, beta)
    edges = np.cumsum([len(u) for u in uniforms])[:-1]
    parts = list(map(_group_rows, groups, uniforms, np.split(alpha, edges), np.split(beta, edges)))
    values = {name: _joined([v[name] for _, v in parts]) for name in parts[0][1]}
    ok &= values.pop("ok")
    values.update(alpha_sq=alpha_sq, beta_sq=beta_sq)
    classes = {kind: _joined([c[kind] for c, _ in parts]) & ok for kind in parts[0][0]}
    return ~ok, evaluate_rows(classes, values, tolerance)


def _fold(summary: dict, bound_id: str, count: int, violations: int,
          low: float, high: float) -> None:
    stats = summary["bounds"].setdefault(
        bound_id, {"count": 0, "violations": 0, "min_slack": math.inf, "max_slack": -math.inf}
    )
    stats["count"] += count
    stats["violations"] += violations
    stats["min_slack"] = min(stats["min_slack"], low)
    stats["max_slack"] = max(stats["max_slack"], high)
    summary["violations"] += violations


def _fold_scalar(summary: dict, config: EnsembleConfig, first: int, redo: np.ndarray,
                 violated: np.ndarray, tolerance: float) -> None:
    """Fold in the trials ``first + i`` that ``redo[i]`` marks, run on the
    scalar path, then record the violating trials up to the cap."""
    records = {}
    for position in np.flatnonzero(redo):
        record = records[position] = _run_trial(config, first + int(position), tolerance)
        if record.error is not None:
            summary["errors"] += 1
            if len(summary["error_samples"]) < _MAX_ERROR_SAMPLES:
                summary["error_samples"].append(record.error)
        for rep in record.reports:
            _fold(summary, rep.bound_id, 1, int(not rep.satisfied), rep.slack, rep.slack)
            violated[position] |= not rep.satisfied
    kept = summary["violating_trials"]
    for position in np.flatnonzero(violated)[: _MAX_RECORDED_VIOLATIONS - len(kept)]:
        record = records.get(position) or _run_trial(config, first + int(position), tolerance)
        kept.append(record.to_dict())


def _fold_pass(segments: list, tolerance: float) -> None:
    """Fold a pass's trials into their ensembles' summaries."""
    with np.errstate(all="ignore"):  # rows that overflow or divide by 0 are redone
        redo, results = _pass(segments, tolerance)
    edges = np.cumsum([0] + [len(trials) for _, _, trials in segments])
    violated = np.zeros(len(redo), dtype=bool)
    for bound_id, rows, slack, satisfied in results:
        unsatisfied = rows[~satisfied]
        violated[unsatisfied] = True
        # Each segment's rows are a run of ``rows``; fold the runs that are not empty.
        cuts = np.searchsorted(rows, edges)
        counts = np.diff(cuts)
        live = np.flatnonzero(counts)
        folds = zip(live.tolist(), counts[live].tolist(),
                    np.diff(np.searchsorted(unsatisfied, edges))[live].tolist(),
                    np.minimum.reduceat(slack, cuts[live]).tolist(),
                    np.maximum.reduceat(slack, cuts[live]).tolist())
        for i, count, violations, low, high in folds:
            _fold(segments[i][0], bound_id, count, violations, low, high)
    for (summary, config, trials), first in zip(segments, edges.tolist()):
        rows = slice(first, first + len(trials))
        _fold_scalar(summary, config, trials.start, redo[rows], violated[rows], tolerance)


def summarize_ensembles(
    configs: Sequence[EnsembleConfig], *, tolerance: float = TOLERANCES.bound_slack
) -> list[dict]:
    """The verify report's summary of each ensemble, streamed over passes.

    Per-bound report counts, violations and slack extremes, the error count,
    the first error strings and the records of the first violating trials,
    all equal to what a fold over ``run_ensemble(config, tolerance=tolerance)``
    gives. Only kept trials get a record.

    A pass takes the next trials of each ensemble in turn, ordered by
    ``_group``, up to ``_CHUNK_ELEMENTS`` trial x dim elements and at least
    one trial, so each ensemble folds its trials in index order.  A pass
    draws once, and its other stages run per group or per pass (module
    docstring).
    """
    summaries = [
        {
            "pair_kind": config.pair_kind.value,
            "dim": config.dim,
            "seed": config.seed,
            "trials": config.trials,
            "errors": 0,
            "error_samples": [],
            "violations": 0,
            "bounds": {},
            "violating_trials": [],
        }
        for config in configs
    ]
    order = sorted(range(len(configs)), key=lambda i: _group(configs[i]))
    done = [0] * len(configs)
    while True:
        segments, elements = [], 0
        for i in order:
            config = configs[i]
            take = min(config.trials - done[i], max(0, _CHUNK_ELEMENTS - elements) // config.dim)
            if take or (not segments and done[i] < config.trials):
                take = max(take, 1)
                segments.append((summaries[i], config, range(done[i], done[i] + take)))
                done[i] += take
                elements += take * config.dim
        if not segments:
            return summaries
        _fold_pass(segments, tolerance)


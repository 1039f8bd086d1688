"""Seeded sampling distributions, determinism, and trial aggregation."""

import collections
import importlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from coherence_lab import bounds, cli, ensembles, entropy, linalg
from coherence_lab.bounds import BOUNDS, GAIN_LE_1
from coherence_lab.cli import canonical_json

from coherence_lab import (
    BadSplitError,
    CoherenceLabError,
    DegeneratePairError,
    EnsembleConfig,
    PairKind,
    Tolerances,
    classify_pair,
    default_split,
    haar_random_state,
    random_coefficients,
    random_orthogonal_pair,
    run_ensemble,
)
from coherence_lab.ensembles import (
    _coefficient_pair,
    _coefficients,
    _group,
    _haar_state,
    _orthogonal_pair,
    _stream_length,
    sample_pair,
    summarize_ensembles,
    trial_stream,
)
from coherence_lab.linalg import normalizable, normalize_rows, row_norms
from coherence_lab.rng import (
    MASK64, UniformRows, complex_normals, ragged_uniforms, subseed, subseeds,
)
from coherence_lab.superpose import class_masks
from philox_oracle import numpy_generator


# --- sub-seed mixing -----------------------------------------------------------


def test_subseeds_are_distinct_and_u64():
    seen = {subseed(123456789, k) for k in range(100_000)}
    assert len(seen) == 100_000
    assert all(0 <= s <= MASK64 for s in list(seen)[:100])


def test_subseeds_depend_on_master():
    assert subseed(1, 0) != subseed(2, 0)


# --- haar states -----------------------------------------------------------------


def test_haar_state_is_unit_norm():
    for seed in range(50):
        state = haar_random_state(7, seed)
        assert abs(float(np.linalg.norm(state.amps)) - 1.0) < 1e-12


def test_haar_state_is_deterministic():
    first = haar_random_state(5, 999)
    second = haar_random_state(5, 999)
    assert np.array_equal(first.amps, second.amps)
    assert not np.array_equal(first.amps, haar_random_state(5, 1000).amps)


def test_haar_qubit_population_is_symmetric():
    # |amps_0|^2 of a Haar qubit is uniform on [0, 1]: mean 1/2.  The samples
    # are rows, one stream of 4 uniforms each, drawn as a batched pass draws them.
    samples = 100_000
    keys = subseeds(2024, np.arange(samples))
    gen = UniformRows(ragged_uniforms(keys, np.full(samples, 4)).reshape(samples, 4))
    states, norms = normalize_rows(complex_normals(gen, 2))
    assert normalizable(norms).all()
    assert abs(np.mean(np.abs(states[:, 0]) ** 2) - 0.5) < 0.01


# --- orthogonal pairs --------------------------------------------------------------


def test_orthogonal_pair_overlap_below_threshold():
    for seed in range(100):
        dim = 2 + seed % 15
        phi, psi = random_orthogonal_pair(dim, seed)
        assert abs(np.vdot(phi.amps, psi.amps)) <= 1e-12


def test_orthogonal_pair_is_deterministic():
    a = random_orthogonal_pair(6, 4242)
    b = random_orthogonal_pair(6, 4242)
    assert np.array_equal(a[0].amps, b[0].amps)
    assert np.array_equal(a[1].amps, b[1].amps)


def test_orthogonal_pair_qubit_completeness():
    # In d=2 the orthogonal complement is unique up to phase.
    for seed in range(30):
        phi, psi = random_orthogonal_pair(2, seed)
        complement = np.array([-np.conj(phi.amps[1]), np.conj(phi.amps[0])])
        assert abs(abs(np.vdot(complement, psi.amps)) - 1.0) < 1e-10


# --- disjoint-support pairs ----------------------------------------------------------


def test_disjoint_pair_minimal_blocks():
    config = EnsembleConfig(
        dim=2, trials=1, pair_kind=PairKind.DISJOINT_SUPPORT, seed=5, split=(1, 1)
    )
    phi, psi = sample_pair(numpy_generator(config.seed), config)
    assert abs(abs(phi.amps[0]) - 1.0) < 1e-12 and phi.amps[1] == 0
    assert psi.amps[0] == 0 and abs(abs(psi.amps[1]) - 1.0) < 1e-12


def test_disjoint_pair_out_of_block_amplitudes_are_exactly_zero():
    config = EnsembleConfig(
        dim=8, trials=1, pair_kind=PairKind.DISJOINT_SUPPORT, seed=17, split=(3, 4)
    )
    phi, psi = sample_pair(numpy_generator(config.seed), config)
    assert np.all(phi.amps[3:] == 0)
    assert np.all(psi.amps[:3] == 0)
    assert phi.amps[7] == 0 and psi.amps[7] == 0


def test_disjoint_pair_classifies_as_declared():
    for seed in range(50):
        config = EnsembleConfig(
            dim=6, trials=1, pair_kind=PairKind.DISJOINT_SUPPORT, seed=seed
        )
        phi, psi = sample_pair(numpy_generator(config.seed), config)
        assert classify_pair(phi, psi).tag is PairKind.DISJOINT_SUPPORT


def test_default_split_covers_dimension():
    assert default_split(2) == (1, 1)
    assert default_split(9) == (4, 5)


def test_bad_split_rejected():
    with pytest.raises(BadSplitError):
        EnsembleConfig(dim=4, trials=1, pair_kind=PairKind.DISJOINT_SUPPORT, seed=0, split=(0, 4))
    with pytest.raises(BadSplitError):
        EnsembleConfig(dim=4, trials=1, pair_kind=PairKind.DISJOINT_SUPPORT, seed=0, split=(3, 2))


# --- coefficients -----------------------------------------------------------------------


def test_coefficients_satisfy_constraint():
    for seed in range(100):
        coeffs = random_coefficients(seed)
        assert abs(coeffs.alpha_sq + coeffs.beta_sq - 1.0) < 1e-12
        assert coeffs.alpha.imag == 0.0
        assert 0.0 <= coeffs.alpha.real <= 1.0


def test_coefficients_deterministic():
    assert random_coefficients(77) == random_coefficients(77)


def test_coefficients_weight_is_symmetric_on_average():
    # One row of 2 uniforms per sample, read as ``_coefficients`` reads them.
    samples = 100_000
    keys = subseeds(31337, np.arange(samples))
    gen = UniformRows(ragged_uniforms(keys, np.full(samples, 2)).reshape(samples, 2))
    alpha, _ = _coefficient_pair(gen)
    assert abs(np.mean(np.abs(alpha) ** 2) - 0.5) < 0.01


# --- the package's streams against numpy's Philox ---------------------------------


@pytest.mark.parametrize("seed", [0, 5, MASK64, -3])
def test_public_samplers_read_numpy_philox_bit_for_bit(seed):
    # Up to d = 40, where an orthogonal pair reads 160 uniforms.
    for dim in (2, 3, 8, 16, 40):
        want = _haar_state(numpy_generator(seed), dim)
        assert haar_random_state(dim, seed).amps.tobytes() == want.amps.tobytes()
        got, want = random_orthogonal_pair(dim, seed), _orthogonal_pair(numpy_generator(seed), dim)
        assert [s.amps.tobytes() for s in got] == [s.amps.tobytes() for s in want]
    assert random_coefficients(seed) == _coefficients(numpy_generator(seed))


@pytest.mark.parametrize("kind", list(PairKind), ids=lambda k: k.value)
def test_run_ensemble_reads_numpy_philox_bit_for_bit(monkeypatch, kind):
    config = EnsembleConfig(dim=5, trials=11, pair_kind=kind, seed=404)
    got = run_ensemble(config, tolerance=1e-9)
    # The same trials, each reading numpy's generator keyed by its sub-seed.
    monkeypatch.setattr(ensembles, "stream", lambda seed, n: numpy_generator(seed))
    assert got == run_ensemble(config, tolerance=1e-9)


@pytest.mark.parametrize("kind", list(PairKind), ids=lambda k: k.value)
def test_a_trial_stream_is_the_trials_pair_then_its_coefficients(kind):
    config = EnsembleConfig(dim=6, trials=3, pair_kind=kind, seed=17)
    for record in run_ensemble(config):
        gen = trial_stream(config, record.index)
        want = numpy_generator(record.seed).random(_stream_length(config))
        assert gen.uniforms.tobytes() == want.tobytes()
        phi, psi = sample_pair(gen, config)
        coeffs = _coefficients(gen)
        assert gen.pos == _stream_length(config)  # exactly the trial's uniforms
        assert [r.slack for r in bounds.evaluate_all(coeffs, phi, psi)] == [r.slack for r in record.reports]


# --- ensembles ----------------------------------------------------------------------------


def test_run_ensemble_zero_trials():
    config = EnsembleConfig(dim=4, trials=0, pair_kind=PairKind.ARBITRARY, seed=1)
    assert run_ensemble(config) == []


def test_run_ensemble_is_deterministic():
    config = EnsembleConfig(dim=4, trials=40, pair_kind=PairKind.NON_ORTHOGONAL, seed=8)
    assert run_ensemble(config) == run_ensemble(config)


def test_run_ensemble_trials_do_not_depend_on_trial_count():
    short = EnsembleConfig(dim=3, trials=20, pair_kind=PairKind.ARBITRARY, seed=12)
    long = EnsembleConfig(dim=3, trials=60, pair_kind=PairKind.ARBITRARY, seed=12)
    assert run_ensemble(long)[:20] == run_ensemble(short)


def test_run_ensemble_disjoint_equality_residuals():
    config = EnsembleConfig(
        dim=8, trials=300, pair_kind=PairKind.DISJOINT_SUPPORT, seed=55
    )
    records = run_ensemble(config)
    assert len(records) == 300
    for record in records:
        assert record.error is None
        assert record.pair_class == "DisjointSupport"
        equality = [r for r in record.reports if r.bound_id == "T1_EQUALITY"]
        assert len(equality) == 1 and equality[0].slack <= 1e-9


def test_run_ensemble_records_are_indexed_in_order():
    config = EnsembleConfig(dim=2, trials=25, pair_kind=PairKind.ORTHOGONAL_SAME_SPACE, seed=3)
    records = run_ensemble(config)
    assert [r.index for r in records] == list(range(25))
    assert all(r.seed == subseed(3, r.index) for r in records)


def test_run_ensemble_captures_trial_errors(monkeypatch):
    def explode(*args, **kwargs):
        raise CoherenceLabError("synthetic failure")

    monkeypatch.setattr("coherence_lab.ensembles.evaluate_all", explode)
    config = EnsembleConfig(dim=2, trials=5, pair_kind=PairKind.ARBITRARY, seed=9)
    records = run_ensemble(config)
    assert len(records) == 5
    for record in records:
        assert record.error == "CoherenceLabError: synthetic failure"
        assert record.reports == ()


def test_ensemble_config_validation():
    with pytest.raises(ValueError):
        EnsembleConfig(dim=1, trials=1, pair_kind=PairKind.ARBITRARY, seed=0)
    with pytest.raises(ValueError):
        EnsembleConfig(dim=2, trials=-1, pair_kind=PairKind.ARBITRARY, seed=0)


def test_generated_pairs_match_declared_kind():
    kinds = {
        PairKind.DISJOINT_SUPPORT: "DisjointSupport",
        PairKind.ORTHOGONAL_SAME_SPACE: "OrthogonalSameSpace",
        PairKind.NON_ORTHOGONAL: "NonOrthogonal",
    }
    for kind, tag in kinds.items():
        config = EnsembleConfig(dim=5, trials=30, pair_kind=kind, seed=21)
        for record in run_ensemble(config):
            assert record.pair_class == tag


# --- batched summaries against the scalar path ------------------------------------


def scalar_summary(config, tolerance):
    """The reference: a fold over every ``run_ensemble`` record."""
    bound_stats = {}
    violating = []
    errors = 0
    error_samples = []
    violations = 0
    for record in run_ensemble(config, tolerance=tolerance):
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
        if trial_violated and len(violating) < 20:
            violating.append(record.to_dict())
    return {
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


def assert_matches_scalar(config, tolerance=1e-9):
    """The batched summary is the scalar fold: equal as dicts (floats bit for
    bit) and as canonical bytes."""
    got = summarize_ensembles([config], tolerance=tolerance)[0]
    want = scalar_summary(config, tolerance)
    assert got == want
    assert canonical_json(got) == canonical_json(want)
    return got


@pytest.mark.parametrize("kind", list(PairKind), ids=lambda k: k.value)
def test_summary_matches_scalar_path(kind):
    for dim in range(2, 17):
        config = EnsembleConfig(dim=dim, trials=60, pair_kind=kind, seed=dim * 7919)
        assert_matches_scalar(config)


# (5, (1, 1)) and (5, (1, 3)) leave trailing columns unused.
SPLITS = [(d, (1, d - 1)) for d in range(2, 17)] + [(5, (1, 1)), (5, (1, 3)), (8, (2, 3)),
                                                     (16, (3, 9))]


@pytest.mark.parametrize("dim, split", SPLITS)
def test_summary_matches_scalar_path_for_splits(dim, split):
    config = EnsembleConfig(
        dim=dim, trials=30, pair_kind=PairKind.DISJOINT_SUPPORT, seed=dim + 101, split=split
    )
    assert_matches_scalar(config)


@pytest.mark.parametrize("dim, split", SPLITS)
def test_class_masks_class_every_disjoint_draw_disjoint(monkeypatch, dim, split):
    # A disjoint group takes its classes from its draw and runs no
    # class_masks: on the phi and psi the pass draws, class_masks would class
    # every row with finite amplitudes DisjointSupport, at an overlap of
    # exactly 0.
    drawn = []
    coherences = ensembles.row_coherences

    def captured(rows):
        drawn.append(rows[:, :2].copy())
        return coherences(rows)

    monkeypatch.setattr(ensembles, "row_coherences", captured)
    config = EnsembleConfig(
        dim=dim, trials=200, pair_kind=PairKind.DISJOINT_SUPPORT, seed=dim + 101, split=split
    )
    summarize_ensembles([config])
    [states] = drawn
    phi, psi = states[:, 0], states[:, 1]
    finite = normalizable(row_norms(phi)) & normalizable(row_norms(psi))
    assert finite.all()
    classes, overlaps = class_masks(phi, psi)
    assert classes[PairKind.DISJOINT_SUPPORT].all() and not overlaps.any()


def test_a_disjoint_group_runs_no_class_masks(monkeypatch):
    calls = []
    masks = ensembles.class_masks

    def counted(phi, psi):
        calls.append(len(phi))
        return masks(phi, psi)

    monkeypatch.setattr(ensembles, "class_masks", counted)
    configs = [
        EnsembleConfig(dim=dim, trials=60, pair_kind=PairKind.DISJOINT_SUPPORT, seed=dim, split=split)
        for dim, split in ((5, (1, 3)), (16, (3, 9)), (4, None))
    ]
    summaries = summarize_ensembles(configs, tolerance=1e-9)
    assert calls == []
    assert summaries == [scalar_summary(config, 1e-9) for config in configs]
    # A non-disjoint group in the same pass is classified, once.
    summarize_ensembles([EnsembleConfig(dim=4, trials=20, pair_kind=PairKind.ARBITRARY, seed=1),
                         *configs])
    assert calls == [20]


def _move_tolerances(monkeypatch, tolerances):
    """Set ``tolerances`` in every module that reads one, so both paths see
    the same ones (the package re-exports a function named ``superpose``)."""
    for module in (bounds, ensembles, entropy, linalg,
                   importlib.import_module("coherence_lab.superpose")):
        monkeypatch.setattr(module, "TOLERANCES", tolerances)


@pytest.mark.parametrize("overlap", [None, 0.3])
def test_a_group_of_two_segments_per_kind_equals_the_scalar_fold(
    monkeypatch, tmp_path, capsys, overlap
):
    # verify with dims = 2,2,16 puts two d = 2 ensembles of each non-disjoint
    # kind into one group, so each kind's rule runs on two slices of it.  At
    # an overlap threshold of 0.3 many NonOrthogonal draws are rejected.
    if overlap is not None:
        _move_tolerances(monkeypatch, Tolerances(overlap=overlap))
    path = tmp_path / "run.cfg"
    path.write_text("dims = 2,2,16\ntrials = 125\nseed = 5\n", encoding="utf-8")
    passes = _record_passes(monkeypatch)
    cli.main(["verify", "--config", str(path)])
    report = json.loads(capsys.readouterr().out)
    [(segments, _, _)] = passes
    group = [config.pair_kind for _, config, _ in segments if _group(config) == (10, 2, (2, 2))]
    kinds = (PairKind.ORTHOGONAL_SAME_SPACE, PairKind.NON_ORTHOGONAL, PairKind.ARBITRARY)
    assert collections.Counter(group) == dict.fromkeys(kinds, 2)
    configs = [
        EnsembleConfig(dim=summary["dim"], trials=summary["trials"],
                       pair_kind=PairKind(summary["pair_kind"]), seed=summary["seed"])
        for summary in report["results"]["ensembles"]
    ]
    want = [scalar_summary(config, report["config"]["tolerance"]) for config in configs]
    assert report["results"]["ensembles"] == json.loads(canonical_json(want))


def test_summary_of_zero_trials():
    config = EnsembleConfig(dim=3, trials=0, pair_kind=PairKind.ARBITRARY, seed=4)
    assert_matches_scalar(config)


def _record_draws(monkeypatch, draw=ragged_uniforms):
    """Wrap the Philox and sub-seed calls ``ensembles`` makes; returns each
    Philox call's (keys, stream lengths) as lists, and each sub-seed call's size."""
    draws, seedings = [], []

    def recorded(keys, lengths):
        draws.append((keys.tolist(), lengths.tolist()))
        return draw(keys, lengths)

    def seeded(masters, indices):
        seedings.append(indices.size)
        return subseeds(masters, indices)

    monkeypatch.setattr(ensembles, "ragged_uniforms", recorded)
    monkeypatch.setattr(ensembles, "subseeds", seeded)
    return draws, seedings


def _draws_per_pass(passes, draws, seedings):
    """Check that each pass made one sub-seed call and one Philox call, which
    drew its trials' streams in row order, each at its ``_stream_length``;
    returns the (trials, uniforms) each pass hands out."""
    assert len(draws) == len(seedings) == len(passes)
    handed = []
    for (segments, _, _), (keys, lengths), rows in zip(passes, draws, seedings):
        streams = [(subseed(config.seed, index), _stream_length(config))
                   for _, config, trials in segments for index in trials]
        assert rows == len(streams)
        assert list(zip(keys, lengths)) == streams
        handed.append((len(streams), sum(lengths)))
    return handed


MIXED = [
    # Stream length 10: three kinds at d = 2 (one group) and two disjoint
    # groups, one with an explicit split; then two at d = 3 (length 14, one
    # of them with 0 trials).
    EnsembleConfig(dim=2, trials=50, pair_kind=PairKind.ARBITRARY, seed=1),
    EnsembleConfig(dim=2, trials=40, pair_kind=PairKind.NON_ORTHOGONAL, seed=2),
    EnsembleConfig(dim=2, trials=30, pair_kind=PairKind.ORTHOGONAL_SAME_SPACE, seed=3),
    EnsembleConfig(dim=4, trials=45, pair_kind=PairKind.DISJOINT_SUPPORT, seed=4),
    EnsembleConfig(dim=5, trials=20, pair_kind=PairKind.DISJOINT_SUPPORT, seed=5, split=(1, 3)),
    EnsembleConfig(dim=3, trials=0, pair_kind=PairKind.ARBITRARY, seed=6),
    EnsembleConfig(dim=3, trials=25, pair_kind=PairKind.NON_ORTHOGONAL, seed=7),
]


def test_summaries_of_many_ensembles_are_each_ones_scalar_fold(monkeypatch):
    # Passes of at most 16 trial x dim elements: d = 2 and d = 4 ensembles
    # share passes, and each pass draws all its streams in one Philox call
    # of at most 5 x 16 uniforms.
    monkeypatch.setattr(ensembles, "_CHUNK_ELEMENTS", 16)
    draws, seedings = _record_draws(monkeypatch)
    passes = _record_passes(monkeypatch)
    got = summarize_ensembles(MIXED, tolerance=1e-9)
    assert len(got) == len(MIXED)
    for summary, config in zip(got, MIXED):
        want = scalar_summary(config, 1e-9)
        assert summary == want
        assert canonical_json(summary) == canonical_json(want)
    handed = _draws_per_pass(passes, draws, seedings)
    assert max(uniforms for _, uniforms in handed) <= 5 * 16
    chunks = sum(-(-c.trials // max(1, 16 // c.dim)) for c in MIXED)
    assert len(draws) < chunks
    assert sum(trials for trials, _ in handed) == sum(c.trials for c in MIXED)


def _record_passes(monkeypatch):
    """Wrap ``ensembles._pass``; returns the (segments, redo, results) of each."""
    passes = []
    evaluate = ensembles._pass

    def recorded(segments, tolerance):
        redo, results = evaluate(segments, tolerance)
        passes.append((segments, redo, results))
        return redo, results

    monkeypatch.setattr(ensembles, "_pass", recorded)
    return passes


def _folded_trials(passes, summaries):
    """Each summary's trial indices, in the order its passes folded them."""
    folded = {id(summary): [] for summary in summaries}
    for segments, _, _ in passes:
        for summary, _, trials in segments:
            folded[id(summary)].extend(trials)
    return [folded[id(summary)] for summary in summaries]


def test_default_verify_draws_stay_under_the_pack_cap(monkeypatch):
    # Zero uniforms make every row degenerate, and the scalar fallback is
    # replaced by a no-op, so this runs the passes and their draws only.
    draws, seedings = _record_draws(monkeypatch, lambda keys, lengths: np.zeros(lengths.sum()))
    passes = _record_passes(monkeypatch)
    monkeypatch.setattr(ensembles, "_fold_scalar", lambda *args: None)
    group_rows = ensembles._group_rows

    def checked(members, uniforms, alpha, beta):
        # A group's rows get their streams' uniforms, no more.
        rows = sum(len(trials) for _, _, trials in members)
        assert uniforms.shape == (rows, _stream_length(members[0][1]))
        return group_rows(members, uniforms, alpha, beta)

    monkeypatch.setattr(ensembles, "_group_rows", checked)
    configs = [
        EnsembleConfig(dim=dim, trials=10**4, pair_kind=kind, seed=dim)
        for kind in PairKind
        for dim in (2, 4, 8, 16)
    ]
    summaries = summarize_ensembles(configs)
    handed = _draws_per_pass(passes, draws, seedings)
    assert max(uniforms for _, uniforms in handed) <= 5 * ensembles._CHUNK_ELEMENTS
    drawn, want = collections.Counter(), collections.Counter()
    for _, lengths in draws:  # every trial's stream, once, at its length
        drawn.update(lengths)
    for config in configs:
        want[ensembles._stream_length(config)] += config.trials
    assert drawn == want
    for segments, _, _ in passes:
        assert sum(len(trials) * config.dim for _, config, trials in segments) <= ensembles._CHUNK_ELEMENTS
    # each ensemble's trials, once and in index order
    for trials, config in zip(_folded_trials(passes, summaries), configs):
        assert trials == list(range(config.trials))


def test_a_pass_over_the_budget_holds_one_trial(monkeypatch):
    # A d = 33 trial alone exceeds a 16-element budget: its pass holds just
    # that trial, the d = 2 trials fill passes of their own, and every
    # trial folds once, in index order.
    monkeypatch.setattr(ensembles, "_CHUNK_ELEMENTS", 16)
    draws, seedings = _record_draws(monkeypatch)
    passes = _record_passes(monkeypatch)
    configs = [
        EnsembleConfig(dim=2, trials=21, pair_kind=PairKind.NON_ORTHOGONAL, seed=8),
        EnsembleConfig(dim=33, trials=3, pair_kind=PairKind.ARBITRARY, seed=9),
        EnsembleConfig(dim=33, trials=2, pair_kind=PairKind.DISJOINT_SUPPORT, seed=10),
    ]
    summaries = summarize_ensembles(configs, tolerance=1e-9)
    for segments, _, _ in passes:
        if any(config.dim == 33 for _, config, _ in segments):
            assert [len(trials) for _, _, trials in segments] == [1]
        else:
            assert sum(len(trials) * config.dim for _, config, trials in segments) <= 16
    assert len(passes) == 3 + 2 + 3  # 21 d = 2 trials, 8 per pass
    for trials, config in zip(_folded_trials(passes, summaries), configs):
        assert trials == list(range(config.trials))
    for trials, uniforms in _draws_per_pass(passes, draws, seedings):
        assert uniforms <= 5 * 16 or (trials == 1 and uniforms == 4 * 33 + 2)
    for summary, config in zip(summaries, configs):
        assert summary == scalar_summary(config, 1e-9)


def assert_pass_matches_records(monkeypatch, configs):
    """Per trial, not only the extremes a summary keeps: in one pass over
    every trial of ``configs``, every batched slack and verdict is the scalar
    report's, and a trial the pass keeps is one the scalar path evaluates
    without error.  Each summary is its scalar fold.  Returns,
    per ensemble, the mask of trials the pass hands to the scalar path."""
    monkeypatch.setattr(ensembles, "_CHUNK_ELEMENTS", sum(c.trials * c.dim for c in configs))
    passes = _record_passes(monkeypatch)
    summaries = summarize_ensembles(configs, tolerance=1e-9)
    [(segments, redo, results)] = passes
    position = {id(summary): i for i, summary in enumerate(summaries)}
    owner = [(position[id(summary)], index) for summary, _, trials in segments for index in trials]
    got = {
        (*owner[row], bound_id): (value.hex(), verdict)
        for bound_id, rows, slack, satisfied in results
        for row, value, verdict in zip(rows.tolist(), slack.tolist(), satisfied.tolist())
    }
    masks = [np.zeros(config.trials, dtype=bool) for config in configs]
    for row in np.flatnonzero(redo):
        i, index = owner[row]
        masks[i][index] = True
    want = {
        (i, record.index, rep.bound_id): (rep.slack.hex(), rep.satisfied)
        for i, config in enumerate(configs)
        for record in run_ensemble(config, tolerance=1e-9)
        if not masks[i][record.index]
        for rep in record.reports
    }
    assert got == want
    for summary, config in zip(summaries, configs):
        assert summary == scalar_summary(config, 1e-9)
    return masks


@pytest.mark.parametrize("dim", [2, 3, 16, 33])
@pytest.mark.parametrize("kind", list(PairKind), ids=lambda k: k.value)
def test_batched_trials_equal_the_scalar_reports_bit_for_bit(monkeypatch, kind, dim):
    # One pass holds the ensemble and a disjoint one of its dimension (or a
    # Haar one, for a disjoint ensemble): groups of one dimension share the
    # pass, each with its own coherence call.
    other = PairKind.ARBITRARY if kind is PairKind.DISJOINT_SUPPORT else PairKind.DISJOINT_SUPPORT
    config = EnsembleConfig(dim=dim, trials=150, pair_kind=kind, seed=2000 + dim)
    pair = [config, EnsembleConfig(dim=dim, trials=40, pair_kind=other, seed=3000 + dim)]
    redo = assert_pass_matches_records(monkeypatch, pair)
    assert np.count_nonzero(redo[0]) < config.trials // 10
    # Small passes: many per ensemble, a partial last one, and at d = 33 a
    # single trial per pass.
    monkeypatch.setattr(ensembles, "_CHUNK_ELEMENTS", 40)
    assert_matches_scalar(config)


def test_one_pass_of_mixed_ensembles_equals_the_scalar_reports_bit_for_bit(monkeypatch):
    # Mixed kinds, odd dims, the (1, 3) split and an empty ensemble.
    assert_pass_matches_records(monkeypatch, MIXED)


def test_a_pass_evaluates_each_bound_once(monkeypatch):
    # One pass holding all three pair classes runs each bound's sides once on
    # arrays, over the rows of every class it is checked on.
    calls = collections.Counter()

    def counted(bound_id, sides):
        def wrapped(q, entropy):
            calls[bound_id] += isinstance(q.s, np.ndarray)
            return sides(q, entropy)
        return wrapped

    monkeypatch.setattr(bounds, "BOUNDS", {
        bound_id: replace(bound, sides=counted(bound_id, bound.sides))
        for bound_id, bound in BOUNDS.items()
    })
    passes = _record_passes(monkeypatch)
    kinds = (PairKind.DISJOINT_SUPPORT, PairKind.ORTHOGONAL_SAME_SPACE, PairKind.NON_ORTHOGONAL)
    configs = [EnsembleConfig(dim=4, trials=20, pair_kind=kind, seed=5) for kind in kinds]
    summaries = summarize_ensembles(configs)
    assert len(passes) == 1
    for summary, config in zip(summaries, configs):
        assert summary["bounds"] and summary == scalar_summary(config, 1e-9)
    assert calls == {bound_id: 1 for bound_id in BOUNDS}


def test_a_pass_draws_once_whatever_stream_lengths_it_holds(monkeypatch):
    # One pass of MIXED holds stream lengths 10 and 14; one of the benchmark
    # shape (16 ensembles of 125 trials) holds 6, 10, 18, 34 and 66.
    benchmark = [EnsembleConfig(dim=dim, trials=125, pair_kind=kind, seed=dim)
                 for kind in PairKind for dim in (2, 4, 8, 16)]
    for configs, lengths in ((MIXED, {10, 14}), (benchmark, {6, 10, 18, 34, 66})):
        draws, seedings = _record_draws(monkeypatch)
        passes = _record_passes(monkeypatch)
        summaries = summarize_ensembles(configs, tolerance=1e-9)
        [(segments, _, _)] = passes
        assert {_stream_length(config) for _, config, _ in segments} == lengths
        [(trials, _)] = _draws_per_pass(passes, draws, seedings)
        assert trials == sum(c.trials for c in configs)
        assert summaries == [scalar_summary(config, 1e-9) for config in configs]


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_the_benchmark_shape_runs_no_trial_on_the_scalar_path(monkeypatch, seed):
    # README's default kinds and dims at 125 trials fit in one pass.  A row
    # the pass handed back to the scalar path would keep every summary right
    # but run slower.
    calls = _count_scalar_trials(monkeypatch)
    passes = _record_passes(monkeypatch)
    configs = [
        EnsembleConfig(dim=dim, trials=125, pair_kind=kind, seed=subseed(seed, index))
        for index, (kind, dim) in enumerate((k, d) for k in PairKind for d in (2, 4, 8, 16))
    ]
    summaries = summarize_ensembles(configs)
    assert calls == [] and len(passes) == 1
    for summary, config in zip(summaries, configs):
        assert summary == scalar_summary(config, 1e-9)


THRESHOLDS = {
    # Many Haar pairs count as orthogonal: NonOrthogonal trials raise
    # DegeneratePairError, and T2 applies to Arbitrary pairs with a sizeable
    # overlap.
    "overlap": Tolerances(overlap=0.3),
    # Orthogonal pairs that share small amplitudes count as disjoint, so T1
    # and the gain ceiling are checked (and fail) on them; a pair that is
    # not orthogonal stays NonOrthogonal.
    "support": Tolerances(support=0.4),
    # Short raw vectors and short superpositions error.
    "zero_vector": Tolerances(zero_vector=0.9),
}


@pytest.mark.parametrize("threshold", list(THRESHOLDS))
@pytest.mark.parametrize("kind", list(PairKind), ids=lambda k: k.value)
def test_summary_matches_scalar_path_at_moved_thresholds(monkeypatch, kind, threshold):
    _move_tolerances(monkeypatch, THRESHOLDS[threshold])
    config = EnsembleConfig(dim=3, trials=120, pair_kind=kind, seed=7 + len(threshold))
    # One pass holds the ensemble and the three other kinds at d = 3 and 4.
    others = [
        EnsembleConfig(dim=3 + i % 2, trials=30, pair_kind=other, seed=70 + i)
        for i, other in enumerate(k for k in PairKind if k is not kind)
    ]
    assert_pass_matches_records(monkeypatch, [config, *others])
    monkeypatch.setattr(ensembles, "_CHUNK_ELEMENTS", 60)
    assert_matches_scalar(config)


def _count_scalar_trials(monkeypatch):
    calls = []
    scalar_trial = ensembles._run_trial

    def counted(config, index, tolerance):
        calls.append(index)
        return scalar_trial(config, index, tolerance)

    monkeypatch.setattr(ensembles, "_run_trial", counted)
    return calls


def test_clean_summary_builds_no_trial_records(monkeypatch):
    calls = _count_scalar_trials(monkeypatch)
    config = EnsembleConfig(dim=4, trials=300, pair_kind=PairKind.ARBITRARY, seed=5)
    summary = summarize_ensembles([config])[0]
    assert summary["violations"] == 0 and summary["errors"] == 0
    assert calls == []


@pytest.mark.parametrize("floor", [1.0, 2.5])
def test_summary_with_forced_degenerate_draws_matches_scalar_path(monkeypatch, floor):
    # A high projection floor makes orthogonal draws degenerate. The batch
    # hands the scalar path exactly the trials whose projected norm is at or
    # below the floor, at 1.0 some of them and at 2.5 many, and each records
    # the DegeneratePairError it raises.
    monkeypatch.setattr(ensembles, "_PROJECTION_FLOOR", floor)
    monkeypatch.setattr(ensembles, "_CHUNK_ELEMENTS", 64)
    config = EnsembleConfig(dim=4, trials=200, pair_kind=PairKind.ORTHOGONAL_SAME_SPACE, seed=77)
    calls = _count_scalar_trials(monkeypatch)
    summarize_ensembles([config])[0]
    scalar_trials = len(calls)
    summary = assert_matches_scalar(config)
    assert summary["errors"] == scalar_trials
    assert all(error.startswith(DegeneratePairError.__name__ + ":")
               for error in summary["error_samples"])
    if floor < 2:
        assert 0 < scalar_trials < config.trials
    else:
        assert summary["errors"] > 5


def test_summary_keeps_first_twenty_violating_trials(monkeypatch):
    # At tolerance 1e-300 the equality's round-off residuals are violations.
    monkeypatch.setattr(ensembles, "_CHUNK_ELEMENTS", 32)
    config = EnsembleConfig(dim=4, trials=90, pair_kind=PairKind.DISJOINT_SUPPORT, seed=13)
    summary = assert_matches_scalar(config, tolerance=1e-300)
    assert len(summary["violating_trials"]) == 20
    assert summary["violations"] > 20


def test_summary_keeps_first_twenty_batched_violations(monkeypatch):
    # Read as a lower bound, the gain ceiling is violated by every disjoint
    # pair on both paths, far from its verdict threshold, so the batched path
    # decides these violations itself.
    monkeypatch.setitem(BOUNDS, GAIN_LE_1, replace(BOUNDS[GAIN_LE_1], direction="lower"))
    monkeypatch.setattr(ensembles, "_CHUNK_ELEMENTS", 32)
    calls = _count_scalar_trials(monkeypatch)
    draws, seedings = _record_draws(monkeypatch)
    config = EnsembleConfig(dim=4, trials=90, pair_kind=PairKind.DISJOINT_SUPPORT, seed=21)
    summarize_ensembles([config])[0]
    assert sorted(calls) == list(range(20))
    # 12 passes of 8 trials (the last of 2), each drawn in one Philox call; the
    # trials the scalar path reruns read their own streams, not that call.
    assert [len(keys) for keys, _ in draws] == seedings == [8] * 11 + [2]
    summary = assert_matches_scalar(config)
    assert summary["bounds"][GAIN_LE_1]["violations"] == 90


def test_summary_keeps_first_five_errors(monkeypatch):
    def explode(*args, **kwargs):
        raise CoherenceLabError("synthetic failure")

    def scalar_only(segments, tolerance):
        return np.ones(sum(len(trials) for _, _, trials in segments), dtype=bool), []

    monkeypatch.setattr(ensembles, "evaluate_all", explode)
    monkeypatch.setattr(ensembles, "_pass", scalar_only)  # every trial runs evaluate_all
    monkeypatch.setattr(ensembles, "_CHUNK_ELEMENTS", 8)
    config = EnsembleConfig(dim=4, trials=12, pair_kind=PairKind.DISJOINT_SUPPORT, seed=3)
    summary = assert_matches_scalar(config)
    assert summary["errors"] == 12 and len(summary["error_samples"]) == 5

"""Seeded sampling distributions, determinism, and trial aggregation."""

import importlib
import math
from dataclasses import replace

import numpy as np
import pytest

from coherence_lab import bounds, ensembles, entropy, linalg
from coherence_lab.bounds import BOUNDS, GAIN_LE_1
from coherence_lab.cli import canonical_json

from coherence_lab import (
    BadSplitError,
    CoherenceLabError,
    EnsembleConfig,
    PairKind,
    Tolerances,
    classify_pair,
    default_split,
    haar_random_state,
    random_coefficients,
    random_disjoint_support_pair,
    random_orthogonal_pair,
    run_ensemble,
)
from coherence_lab.ensembles import (
    _coefficients,
    _haar_state,
    summarize_ensemble,
    summarize_ensembles,
)
from coherence_lab.rng import MASK64, make_generator, philox_uniforms, subseed, subseeds


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
    # |amps_0|^2 of a Haar qubit is uniform on [0, 1]: mean 1/2.
    gen = make_generator(2024)
    total = 0.0
    samples = 100_000
    for _ in range(samples):
        total += abs(_haar_state(gen, 2).amps[0]) ** 2
    assert abs(total / samples - 0.5) < 0.01


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
    phi, psi = random_disjoint_support_pair(config)
    assert abs(abs(phi.amps[0]) - 1.0) < 1e-12 and phi.amps[1] == 0
    assert psi.amps[0] == 0 and abs(abs(psi.amps[1]) - 1.0) < 1e-12


def test_disjoint_pair_out_of_block_amplitudes_are_exactly_zero():
    config = EnsembleConfig(
        dim=8, trials=1, pair_kind=PairKind.DISJOINT_SUPPORT, seed=17, split=(3, 4)
    )
    phi, psi = random_disjoint_support_pair(config)
    assert np.all(phi.amps[3:] == 0)
    assert np.all(psi.amps[:3] == 0)
    assert phi.amps[7] == 0 and psi.amps[7] == 0


def test_disjoint_pair_classifies_as_declared():
    for seed in range(50):
        config = EnsembleConfig(
            dim=6, trials=1, pair_kind=PairKind.DISJOINT_SUPPORT, seed=seed
        )
        phi, psi = random_disjoint_support_pair(config)
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
    gen = make_generator(31337)
    samples = 100_000
    total = sum(_coefficients(gen).alpha_sq for _ in range(samples))
    assert abs(total / samples - 0.5) < 0.01


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
    got = summarize_ensemble(config, tolerance=tolerance)
    want = scalar_summary(config, tolerance)
    assert got == want
    assert canonical_json(got) == canonical_json(want)
    return got


@pytest.mark.parametrize("kind", list(PairKind), ids=lambda k: k.value)
def test_summary_matches_scalar_path(kind):
    for dim in range(2, 17):
        config = EnsembleConfig(dim=dim, trials=60, pair_kind=kind, seed=dim * 7919)
        assert_matches_scalar(config)


@pytest.mark.parametrize(
    "dim, split", [(d, (1, d - 1)) for d in range(2, 17)] + [(5, (1, 1)), (8, (2, 3)), (16, (3, 9))]
)
def test_summary_matches_scalar_path_for_splits(dim, split):
    config = EnsembleConfig(
        dim=dim, trials=30, pair_kind=PairKind.DISJOINT_SUPPORT, seed=dim + 101, split=split
    )
    assert_matches_scalar(config)


def test_summary_of_zero_trials():
    config = EnsembleConfig(dim=3, trials=0, pair_kind=PairKind.ARBITRARY, seed=4)
    assert_matches_scalar(config)


def _record_draws(monkeypatch, draw=philox_uniforms):
    """Wrap the Philox call ``ensembles`` makes; returns the (keys, words) of each."""
    draws = []

    def recorded(keys, n):
        draws.append((keys.size, keys.size * n))
        return draw(keys, n)

    monkeypatch.setattr(ensembles, "philox_uniforms", recorded)
    return draws


MIXED = [
    # Stream length 10: three kinds at d = 2 and two disjoint pairs, one with
    # an explicit split, share packs; the d = 3 ones (length 14, one of them
    # with 0 trials) do not.
    EnsembleConfig(dim=2, trials=50, pair_kind=PairKind.ARBITRARY, seed=1),
    EnsembleConfig(dim=2, trials=40, pair_kind=PairKind.NON_ORTHOGONAL, seed=2),
    EnsembleConfig(dim=2, trials=30, pair_kind=PairKind.ORTHOGONAL_SAME_SPACE, seed=3),
    EnsembleConfig(dim=4, trials=45, pair_kind=PairKind.DISJOINT_SUPPORT, seed=4),
    EnsembleConfig(dim=5, trials=20, pair_kind=PairKind.DISJOINT_SUPPORT, seed=5, split=(1, 3)),
    EnsembleConfig(dim=3, trials=0, pair_kind=PairKind.ARBITRARY, seed=6),
    EnsembleConfig(dim=3, trials=25, pair_kind=PairKind.NON_ORTHOGONAL, seed=7),
]


def test_summaries_of_many_ensembles_are_each_ones_scalar_fold(monkeypatch):
    # Chunks of 8, 4, 3 and 5 trials; a pack holds at most 200 words, so a
    # round of length-10 chunks splits into packs of two and three.
    monkeypatch.setattr(ensembles, "_CHUNK_ELEMENTS", 16)
    monkeypatch.setattr(ensembles, "_PACK_WORDS", 200)
    draws = _record_draws(monkeypatch)
    got = summarize_ensembles(MIXED, tolerance=1e-9)
    assert len(got) == len(MIXED)
    for summary, config in zip(got, MIXED):
        want = scalar_summary(config, 1e-9)
        assert summary == want
        assert canonical_json(summary) == canonical_json(want)
    assert max(words for _, words in draws) <= 200
    chunks = sum(-(-c.trials // max(1, 16 // c.dim)) for c in MIXED)
    assert len(draws) < chunks
    assert sum(keys for keys, _ in draws) == sum(c.trials for c in MIXED)


def test_default_verify_draws_stay_under_the_pack_cap(monkeypatch):
    draws = _record_draws(monkeypatch, lambda keys, n: np.zeros((keys.size, n)))
    folded = {}

    def fold(summary, config, first, uniforms, tolerance):
        assert uniforms.shape[1] == ensembles._stream_length(config)
        folded.setdefault(config, []).append(range(first, first + len(uniforms)))

    monkeypatch.setattr(ensembles, "_fold_chunk", fold)
    configs = [
        EnsembleConfig(dim=dim, trials=10**4, pair_kind=kind, seed=dim)
        for kind in PairKind
        for dim in (2, 4, 8, 16)
    ]
    summarize_ensembles(configs)
    assert max(words for _, words in draws) <= ensembles._PACK_WORDS
    for config in configs:  # each ensemble's chunks, in index order
        assert [k for trials in folded[config] for k in trials] == list(range(config.trials))


def assert_batch_matches_records(config):
    """Per trial, not only the extremes a summary keeps: every batched slack
    and verdict is the scalar report's, and a trial the batch keeps is one the
    scalar path evaluates without resampling or error.  Returns the mask of
    trials the batch hands to the scalar path."""
    with np.errstate(all="ignore"):
        keys = subseeds(config.seed, np.arange(config.trials))
        uniforms = philox_uniforms(keys, ensembles._stream_length(config))
        redo, results = ensembles._batch(config, uniforms, 1e-9)
    got = {
        (index, bound_id): (value.hex(), verdict)
        for bound_id, rows, slack, satisfied in results
        for index, value, verdict in zip(rows.tolist(), slack.tolist(), satisfied.tolist())
    }
    want = {
        (record.index, rep.bound_id): (rep.slack.hex(), rep.satisfied)
        for record in run_ensemble(config)
        if not redo[record.index]
        for rep in record.reports
    }
    assert got == want
    return redo


@pytest.mark.parametrize("dim", [2, 3, 16, 33])
@pytest.mark.parametrize("kind", list(PairKind), ids=lambda k: k.value)
def test_batched_trials_equal_the_scalar_reports_bit_for_bit(monkeypatch, kind, dim):
    # Small chunks: many batched calls per ensemble, a partial last chunk,
    # and at d = 33 a single trial per chunk.
    monkeypatch.setattr(ensembles, "_CHUNK_ELEMENTS", 40)
    config = EnsembleConfig(dim=dim, trials=150, pair_kind=kind, seed=2000 + dim)
    redo = assert_batch_matches_records(config)
    assert np.count_nonzero(redo) < config.trials // 10
    assert_matches_scalar(config)


THRESHOLDS = {
    # Many Haar pairs count as orthogonal: NonOrthogonal resamples, and T2
    # applies to Arbitrary pairs with a sizeable overlap.
    "overlap": Tolerances(overlap=0.3),
    # Pairs that share small amplitudes count as disjoint; a NonOrthogonal
    # one then fails T2's overlap hypothesis and errors.
    "support": Tolerances(support=0.4),
    # Short raw vectors resample or error, short superpositions error.
    "zero_vector": Tolerances(zero_vector=0.9),
}


@pytest.mark.parametrize("threshold", list(THRESHOLDS))
@pytest.mark.parametrize("kind", list(PairKind), ids=lambda k: k.value)
def test_summary_matches_scalar_path_at_moved_thresholds(monkeypatch, kind, threshold):
    # Every module that reads a tolerance, so both paths see the same ones
    # (the package re-exports a function named ``superpose``).
    for module in (bounds, ensembles, entropy, linalg,
                   importlib.import_module("coherence_lab.superpose")):
        monkeypatch.setattr(module, "TOLERANCES", THRESHOLDS[threshold])
    monkeypatch.setattr(ensembles, "_CHUNK_ELEMENTS", 60)
    config = EnsembleConfig(dim=3, trials=120, pair_kind=kind, seed=7 + len(threshold))
    assert_batch_matches_records(config)
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
    summary = summarize_ensemble(config)
    assert summary["violations"] == 0 and summary["errors"] == 0
    assert calls == []


@pytest.mark.parametrize("floor", [1.0, 2.5])
def test_summary_with_forced_resamples_matches_scalar_path(monkeypatch, floor):
    # A high projection floor makes orthogonal trials resample. The batch
    # hands the scalar path exactly the trials whose projected norm is at or
    # below the floor: at 1.0 some of them, at 2.5 all, most of which
    # resample and some of which run out of resamples and error.
    monkeypatch.setattr(ensembles, "_PROJECTION_FLOOR", floor)
    monkeypatch.setattr(ensembles, "_CHUNK_ELEMENTS", 64)
    config = EnsembleConfig(dim=4, trials=200, pair_kind=PairKind.ORTHOGONAL_SAME_SPACE, seed=77)
    calls = _count_scalar_trials(monkeypatch)
    summarize_ensemble(config)
    scalar_trials = len(calls)
    summary = assert_matches_scalar(config)
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
    config = EnsembleConfig(dim=4, trials=90, pair_kind=PairKind.DISJOINT_SUPPORT, seed=21)
    summarize_ensemble(config)
    assert sorted(calls) == list(range(20))
    summary = assert_matches_scalar(config)
    assert summary["bounds"][GAIN_LE_1]["violations"] == 90


def test_summary_keeps_first_five_errors(monkeypatch):
    def explode(*args, **kwargs):
        raise CoherenceLabError("synthetic failure")

    def scalar_only(config, uniforms, tolerance):
        return np.ones(len(uniforms), dtype=bool), []

    monkeypatch.setattr(ensembles, "evaluate_all", explode)
    monkeypatch.setattr(ensembles, "_batch", scalar_only)  # every trial runs evaluate_all
    monkeypatch.setattr(ensembles, "_CHUNK_ELEMENTS", 8)
    config = EnsembleConfig(dim=4, trials=12, pair_kind=PairKind.DISJOINT_SUPPORT, seed=3)
    summary = assert_matches_scalar(config)
    assert summary["errors"] == 12 and len(summary["error_samples"]) == 5

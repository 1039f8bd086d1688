"""The relations imply each other on shared pair classes: exact cross-checks.

On an orthogonal pair s^2 = a + b = 1, so T3 is T2 (arXiv:1605.04067): the
two bounds have the same rhs, and lhs that differ only by s^2's round-off.
On a disjoint pair T1 gives C(T1) = X = a C(phi) + b C(psi) + h(a), so T2's
slack 2X - C(T1) is X and GAIN_LE_1's slack 1 - (C(T1) - a C(phi) - b C(psi))
is 1 - h(a).  X and h(a) are computed here from ``pure_state_coherence`` and
``binary_entropy``, apart from the bounds' formulas.

A constant changed in T2 alone or in T3 alone, GAIN_LE_1's 1 changed, or the
h(a) term dropped from the weighted mix breaks one of these; the same change
made to T2 and T3 together, or a wrong power of s in T3, does not.  Each runs
on the scalar path (``evaluate_bound``), on ``row_slacks`` and on
``evaluate_rows``, over sampled triples at d in {2, 4, 8, 16}.
"""

import functools

import numpy as np
import pytest

from coherence_lab import (
    GAIN_LE_1,
    T2_UPPER,
    T3_UPPER,
    EnsembleConfig,
    PairKind,
    evaluate_bound,
)
from coherence_lab.bounds import evaluate_rows, row_slacks
from coherence_lab.ensembles import _coefficients, sample_pair, trial_stream
from coherence_lab.entropy import binary_entropy, pure_state_coherence
from test_invariance import row_values, slotted, triple

DIMS = (2, 4, 8, 16)
TRIALS = 100
# Over 16 000 sampled triples (2000 per kind and d), the differences below
# reached at most 3.3e-15 of max(1, |side|) (1.6e-15 over 1600 triples in an
# earlier measurement); the bound allows three times that.  T2's and T3's rhs
# are held bit-equal.
RELATIVE = 1e-14
EVALUATORS = ("evaluate_bound", "row_slacks", "evaluate_rows")


@functools.cache
def sampled(kind, dim):
    """(alpha, beta, phi, psi) of ``TRIALS`` trials of ``kind`` at ``dim``, as
    (R,) and (R, d) arrays."""
    config = EnsembleConfig(dim=dim, trials=TRIALS, pair_kind=kind, seed=1 + dim)
    triples = []
    for index in range(TRIALS):
        gen = trial_stream(config, index)
        phi, psi = sample_pair(gen, config)
        coeffs = _coefficients(gen)
        triples.append((coeffs.alpha, coeffs.beta, phi.amps, psi.amps))
    alpha, beta, phi, psi = zip(*triples)
    return np.array(alpha), np.array(beta), np.array(phi), np.array(psi)


def assert_close(got, want, scale):
    assert np.all(np.abs(got - want) <= RELATIVE * np.maximum(1.0, scale)), (
        np.max(np.abs(got - want) / np.maximum(1.0, scale)))


def slacks(evaluator, bound_id, rows, kind):
    """The slack of ``bound_id`` at each row, on one evaluator; every row must have one.

    ``evaluate_rows`` applies T3 to the non-orthogonal class only, so the
    orthogonal rows are passed to it as that class for T3: T3 has no hypothesis.
    """
    if evaluator == "evaluate_bound":
        return np.array([evaluate_bound(bound_id, *triple(rows, r)).slack
                         for r in range(len(rows[0]))])
    if evaluator == "row_slacks":
        values = row_slacks(bound_id, *slotted(rows), kind=kind)
        ok = ~np.isnan(values)
    else:
        classes, overlap, fields, ok = row_values(*rows)
        if bound_id == T3_UPPER:
            kind = PairKind.NON_ORTHOGONAL
        classes = {pair_class: np.full(len(overlap), pair_class is kind) for pair_class in classes}
        ok, results = evaluate_rows(classes, overlap, fields, ok)
        ((applied, values),) = [(r, v) for b, r, v, _ in results if b == bound_id]
        assert applied.tolist() == list(range(len(overlap)))
    assert ok.all()
    return values


def mix_and_entropy(rows):
    """X = a C(phi) + b C(psi) + h(a) and h(a) of each row, apart from the bounds."""
    mixes, entropies = [], []
    for r in range(len(rows[0])):
        coeffs, phi, psi = triple(rows, r)
        h = binary_entropy(coeffs.alpha_sq)
        mixes.append(coeffs.alpha_sq * pure_state_coherence(phi)
                     + coeffs.beta_sq * pure_state_coherence(psi) + h)
        entropies.append(h)
    return np.array(mixes), np.array(entropies)


def test_t2_and_t3_have_bit_equal_rhs_on_orthogonal_pairs():
    for dim in DIMS:
        rows = sampled(PairKind.ORTHOGONAL_SAME_SPACE, dim)
        for r in range(TRIALS):
            t2 = evaluate_bound(T2_UPPER, *triple(rows, r))
            t3 = evaluate_bound(T3_UPPER, *triple(rows, r))
            assert t2.rhs == t3.rhs, (dim, r)
            assert_close(t3.lhs, t2.lhs, max(abs(t2.lhs), abs(t3.lhs)))


@pytest.mark.parametrize("evaluator", EVALUATORS)
def test_t3_is_t2_on_orthogonal_pairs(evaluator):
    kind = PairKind.ORTHOGONAL_SAME_SPACE
    for dim in DIMS:
        rows = sampled(kind, dim)
        scale, _ = mix_and_entropy(rows)  # T2's rhs is twice this
        assert_close(slacks(evaluator, T3_UPPER, rows, kind),
                     slacks(evaluator, T2_UPPER, rows, kind), 2.0 * scale)


@pytest.mark.parametrize("evaluator", EVALUATORS)
def test_t2_slack_is_the_t1_mix_on_disjoint_pairs(evaluator):
    kind = PairKind.DISJOINT_SUPPORT
    for dim in DIMS:
        rows = sampled(kind, dim)
        mix, _ = mix_and_entropy(rows)
        assert_close(slacks(evaluator, T2_UPPER, rows, kind), mix, mix)


@pytest.mark.parametrize("evaluator", EVALUATORS)
def test_gain_slack_is_one_minus_the_binary_entropy_on_disjoint_pairs(evaluator):
    kind = PairKind.DISJOINT_SUPPORT
    for dim in DIMS:
        rows = sampled(kind, dim)
        mix, entropy = mix_and_entropy(rows)
        assert_close(slacks(evaluator, GAIN_LE_1, rows, kind), 1.0 - entropy, mix)

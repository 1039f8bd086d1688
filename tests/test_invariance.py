"""Invariances of the relations: checks that need no second implementation.

Every number the relations read (a, b, s, C(phi), C(psi), C(T1)) is unchanged
when one incoherent unitary, a permutation of the reference basis times
diagonal phases, acts on both states (Baumgratz, Cramer & Plenio, PRL 113,
140401, 2014).  So, on any input triple (alpha, phi, psi):

(i)   (phi, psi) -> (P phi, P psi) leaves every side and the pair class as
      they were;
(ii)  (alpha, phi) <-> (beta, psi) leaves T1, GAIN_LE_1, T2 and T3 as they
      were, and maps T4_LOWER_A's sides to T4_LOWER_B's exactly: the
      superposition is the same sum, and T4_B is T4_A with the branches'
      roles exchanged;
(iii) alpha -> alpha e^{i chi} with phi -> e^{-i chi} phi changes nothing;
(iv)  on a disjoint pair, an independent phase on beta and on every
      amplitude changes no slack: beta's phase is one on psi's block, so
      together they are one diagonal unitary on the two blocks.  So a
      disjoint search reads only theta and real amplitudes.

A wrong block or index (a split, an off-by-one in a disjoint block), an
a <-> b swap in T4, or a formula that reads an amplitude for a probability
breaks one of them; a scaled constant does not.  Each runs on the scalar
path (``evaluate_all``, or ``evaluate_bound`` for (iv)), on ``row_slacks``
and on ``evaluate_rows``, over trials of every pair kind at d in {2, 4, 8,
16}, or (iv) of disjoint pairs at d in {2, 3, 8, 16}.
"""

import functools

import numpy as np
import pytest

from coherence_lab import (
    ALL_BOUND_IDS,
    T4_LOWER_A,
    T4_LOWER_B,
    EnsembleConfig,
    PairKind,
    StateVector,
    SuperpositionCoefficients,
    classify_pair,
    evaluate_all,
    evaluate_bound,
)
from coherence_lab.bounds import evaluate_rows, row_slacks
from coherence_lab.ensembles import _coefficients, sample_pair, trial_stream
from coherence_lab.entropy import row_coherences
from coherence_lab.linalg import normalizable
from coherence_lab.superpose import class_masks, coefficient_weights, superpose_rows

DIMS = (2, 4, 8, 16)
TRIALS = 20
# Over 3200 sampled triples (200 per kind and d), the sides moved by at most
# 1.8e-15 (i), 4.4e-15 (ii, T1 to T3) and 4.9e-15 (iii) of max(1, |side|);
# each bound allows about four times that.  (ii) is held exact for T4.
RELATIVE = {"incoherent_unitary": 8e-15, "branch_swap": 2e-14, "coefficient_phase": 2e-14}
BRANCH_SWAP = {T4_LOWER_A: T4_LOWER_B, T4_LOWER_B: T4_LOWER_A}
# Over 1500 sampled disjoint triples (300 at each d in {2, 3, 4, 8, 16}), the
# phases of (iv) moved no slack by more than 2.2e-15 of max(1, |slack|) on any
# of the three paths; the bound allows about four and a half times that.
BLOCK_PHASES = 1e-14


@functools.cache
def trials(kind, dim):
    """(alpha, beta, phi, psi) of a few trials of ``kind`` at ``dim``, as
    (R,) and (R, d) arrays."""
    config = EnsembleConfig(dim=dim, trials=TRIALS, pair_kind=kind, seed=97 * dim)
    triples = []
    for index in range(TRIALS):
        gen = trial_stream(config, index)
        phi, psi = sample_pair(gen, config)
        coeffs = _coefficients(gen)
        triples.append((coeffs.alpha, coeffs.beta, phi.amps, psi.amps))
    alpha, beta, phi, psi = zip(*triples)
    return np.array(alpha), np.array(beta), np.array(phi), np.array(psi)


def incoherent_unitary(alpha, beta, phi, psi, rng):
    # One permutation for all rows, so a disjoint batch keeps one zero pattern.
    perm = rng.permutation(phi.shape[1])
    phases = np.exp(2j * np.pi * rng.random(phi.shape))
    return alpha, beta, phases * phi[:, perm], phases * psi[:, perm]


def branch_swap(alpha, beta, phi, psi, rng):
    return beta, alpha, psi, phi


def coefficient_phase(alpha, beta, phi, psi, rng):
    turn = np.exp(2j * np.pi * rng.random(alpha.shape))
    return alpha * turn, beta, phi / turn[:, None], psi


TRANSFORMS = {
    "incoherent_unitary": incoherent_unitary,
    "branch_swap": branch_swap,
    "coefficient_phase": coefficient_phase,
}
CASES = [(kind, dim) for kind in PairKind for dim in DIMS]


def transformed(name, kind, dim):
    rng = np.random.default_rng(dim + 100 * list(PairKind).index(kind))
    original = trials(kind, dim)
    return original, TRANSFORMS[name](*original, rng)


def triple(rows, r):
    alpha, beta, phi, psi = rows
    return SuperpositionCoefficients(alpha[r], beta[r]), StateVector(phi[r]), StateVector(psi[r])


def image(name, bound_id):
    """The bound whose value a bound takes under the transform."""
    return BRANCH_SWAP.get(bound_id, bound_id) if name == "branch_swap" else bound_id


def assert_close(name, got, want, scale):
    assert abs(got - want) <= RELATIVE[name] * max(1.0, scale), (got, want)


def scalar_reports(rows):
    return [{rep.bound_id: rep for rep in evaluate_all(*triple(rows, r))[1]} for r in range(TRIALS)]


@pytest.mark.parametrize("name", list(TRANSFORMS))
def test_scalar_sides_and_pair_class_are_invariant(name):
    for kind, dim in CASES:
        original, moved = transformed(name, kind, dim)
        for r, (before, after) in enumerate(zip(scalar_reports(original), scalar_reports(moved))):
            assert classify_pair(*triple(moved, r)[1:]) is classify_pair(*triple(original, r)[1:])
            assert sorted(image(name, bound_id) for bound_id in before) == sorted(after)
            for bound_id, rep in before.items():
                new = after[image(name, bound_id)]
                if name == "branch_swap" and bound_id in BRANCH_SWAP:
                    assert (new.lhs, new.rhs) == (rep.lhs, rep.rhs), (kind, dim, r, bound_id)
                    continue
                scale = max(abs(rep.lhs), abs(rep.rhs))
                assert_close(name, new.lhs, rep.lhs, scale)
                assert_close(name, new.rhs, rep.rhs, scale)


@pytest.mark.parametrize("name", list(TRANSFORMS))
def test_row_slacks_are_invariant(name):
    for kind, dim in CASES:
        original, moved = transformed(name, kind, dim)
        scales = [max(max(abs(rep.lhs), abs(rep.rhs)) for rep in reports.values())
                  for reports in scalar_reports(original)]
        for bound_id in ALL_BOUND_IDS:
            want = row_slacks(bound_id, *slotted(original))
            got = row_slacks(image(name, bound_id), *slotted(moved))
            want_ok, got_ok = ~np.isnan(want), ~np.isnan(got)
            assert np.array_equal(got_ok, want_ok), (kind, dim, bound_id)
            if name == "branch_swap" and bound_id in BRANCH_SWAP:
                assert got[got_ok].tobytes() == want[want_ok].tobytes()
                continue
            for r in np.flatnonzero(want_ok):
                assert_close(name, got[r], want[r], scales[r])
        # Every bound that evaluate_all applies to a trial has a slack here.
        applied = {bound_id for reports in scalar_reports(original) for bound_id in reports}
        assert all((~np.isnan(row_slacks(bound_id, *slotted(original)))).any()
                   for bound_id in applied)


def slotted(rows):
    """(alpha, beta, phi, psi) as ``row_slacks`` reads them: phi and psi in
    slots 0 and 1 of (R, 3, d) states (slot 2 is for the superposition), each
    with norm 1."""
    alpha, beta, phi, psi = rows
    return alpha, beta, np.stack([phi, psi, psi], axis=1), np.ones((len(phi), 3))


def row_values(alpha, beta, phi, psi):
    """What ``evaluate_rows`` reads, as ``verify``'s pass computes it: the
    class masks over the rows where the six fields hold, the fields, and
    those rows."""
    classes = class_masks(phi, psi)
    alpha_sq, beta_sq, ok = coefficient_weights(alpha, beta)
    _, _, states, norms = slotted((alpha, beta, phi, psi))
    superpose_rows(alpha, beta, states, norms)
    s = norms[:, 2]
    coherence = row_coherences(states)
    values = {"alpha_sq": alpha_sq, "beta_sq": beta_sq, "s": s, "coherence_phi": coherence[:, 0],
              "coherence_psi": coherence[:, 1], "coherence_t1": coherence[:, 2]}
    ok &= normalizable(s)
    return {kind: mask & ok for kind, mask in classes.items()}, values, ok


@pytest.mark.parametrize("name", list(TRANSFORMS))
def test_evaluate_rows_is_invariant(name):
    for kind, dim in CASES:
        original, moved = transformed(name, kind, dim)
        scales = [max(max(abs(rep.lhs), abs(rep.rhs)) for rep in reports.values())
                  for reports in scalar_reports(original)]
        classes, values, ok = row_values(*original)
        new_classes, new_values, new_ok = row_values(*moved)
        assert ok.all() and new_ok.all()
        for pair_class, members in classes.items():
            assert np.array_equal(new_classes[pair_class], members), (kind, dim, pair_class)
        want = evaluate_rows(classes, values)
        got = evaluate_rows(new_classes, new_values)
        got = {bound_id: (rows, slack) for bound_id, rows, slack, _ in got}
        assert sorted(image(name, bound_id) for bound_id, *_ in want) == sorted(got)
        for bound_id, rows, slack, _ in want:
            new_rows, new = got[image(name, bound_id)]
            assert np.array_equal(new_rows, rows), (kind, dim, bound_id)
            if name == "branch_swap" and bound_id in BRANCH_SWAP:
                assert new.tobytes() == slack.tobytes()
                continue
            for r, row in enumerate(rows.tolist()):
                assert_close(name, new[r], slack[r], scales[row])


def block_phases(alpha, beta, phi, psi, rng):
    def turned(z):
        return z * np.exp(2j * np.pi * rng.random(z.shape))

    return alpha, turned(beta), turned(phi), turned(psi)


def assert_slacks_close(got, want):
    assert np.all(np.abs(got - want) <= BLOCK_PHASES * np.maximum(1.0, np.abs(want))), (got, want)


@pytest.mark.parametrize("dim", [2, 3, 8, 16])
def test_disjoint_slacks_ignore_every_phase(dim):
    kind = PairKind.DISJOINT_SUPPORT
    original = trials(kind, dim)
    moved = block_phases(*original, np.random.default_rng(dim))
    assert not np.allclose(moved[1], original[1]) and not np.allclose(moved[3], original[3])
    for bound_id in ALL_BOUND_IDS:
        want = [evaluate_bound(bound_id, *triple(original, r)).slack for r in range(TRIALS)]
        got = [evaluate_bound(bound_id, *triple(moved, r)).slack for r in range(TRIALS)]
        assert_slacks_close(np.array(got), np.array(want))
        want = row_slacks(bound_id, *slotted(original), kind=kind)
        got = row_slacks(bound_id, *slotted(moved), kind=kind)
        assert not np.isnan(want).any() and not np.isnan(got).any(), bound_id
        assert_slacks_close(got, want)
    classes, values, ok = row_values(*original)
    new_classes, new_values, new_ok = row_values(*moved)
    assert ok.all() and new_ok.all() and classes[kind].all() and new_classes[kind].all()
    want = evaluate_rows(classes, values)
    got = evaluate_rows(new_classes, new_values)
    for (bound_id, rows, slack, _), (new_id, new_rows, new, _) in zip(want, got, strict=True):
        assert (new_id, new_rows.tolist()) == (bound_id, rows.tolist())
        assert_slacks_close(new, slack)

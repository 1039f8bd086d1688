"""A 50-digit mpmath oracle for entropies, coherences, the superposition norm
and the six relations.

Every function starts from the float inputs exactly as given (a double is
exact in mpmath) and computes with 50 significant digits, so comparing a
float result with it measures that result's own rounding error.  With
``renormalize=True``, ``slack`` first scales the inputs to unit norm in
mpmath, which gives the relation's exact value at those inputs.  The formulas
are the paper's, written out independently of ``coherence_lab.bounds``.
"""

import mpmath

DIGITS = 50


def _entropy(probs):
    """-sum p log2 p over p > 0 (0 log 0 = 0), in bits."""
    return -mpmath.fsum(p * mpmath.log(p, 2) for p in probs if p > 0)


def _h(x):
    return _entropy([x, 1 - x])


def _coherence(amps):
    return _entropy([abs(a) ** 2 for a in amps])


def _unit(amps):
    norm = mpmath.sqrt(mpmath.fsum(abs(a) ** 2 for a in amps))
    return [a / norm for a in amps]


def _mp(values):
    return [mpmath.mpc(z.real, z.imag) for z in values]


def binary_entropy(x):
    with mpmath.workdps(DIGITS):
        return _h(mpmath.mpf(x))


def pure_state_coherence(amps, renormalize=False):
    """Shannon entropy of |amps|^2: a pure state's relative entropy of coherence.

    With ``renormalize=True``, of the amplitudes first scaled to unit norm."""
    with mpmath.workdps(DIGITS):
        amps = _mp(amps)
        return _coherence(_unit(amps) if renormalize else amps)


def superposition_norm(alpha, beta, phi, psi):
    """s = ||alpha*phi + beta*psi||, the norm ``superpose`` returns."""
    with mpmath.workdps(DIGITS):
        (alpha, beta), phi, psi = _mp([alpha, beta]), _mp(phi), _mp(psi)
        return mpmath.sqrt(mpmath.fsum(abs(alpha * x + beta * y) ** 2 for x, y in zip(phi, psi)))


def von_neumann_entropy(states, weights):
    """Entropy of the mixture sum_k weights[k] |states[k]><states[k]|, in bits.

    The projectors are built from the amplitudes as given, so a rounding error
    of the float density matrix counts as an error of the float entropy."""
    with mpmath.workdps(DIGITS):
        dim = len(states[0])
        rho = mpmath.matrix(dim, dim)
        for weight, amps in zip(weights, states):
            amps = _mp(amps)
            for i in range(dim):
                for j in range(dim):
                    rho[i, j] += mpmath.mpf(weight) * amps[i] * mpmath.conj(amps[j])
        return _entropy(mpmath.eighe(rho, eigvals_only=True))


def _sides(bound_id, alpha, beta, phi, psi, renormalize):
    (alpha, beta), phi, psi = _mp([alpha, beta]), _mp(phi), _mp(psi)
    if renormalize:
        (alpha, beta), phi, psi = _unit([alpha, beta]), _unit(phi), _unit(psi)
    a, b = abs(alpha) ** 2, abs(beta) ** 2
    raw = [alpha * x + beta * y for x, y in zip(phi, psi)]
    s_sq = mpmath.fsum(abs(z) ** 2 for z in raw)
    c_phi, c_psi, c_t1 = _coherence(phi), _coherence(psi), _coherence(_unit(raw))
    mix = a * c_phi + b * c_psi + _h(a)
    if bound_id == "T1_EQUALITY":
        return c_t1, mix
    if bound_id == "GAIN_LE_1":
        return c_t1 - a * c_phi - b * c_psi, mpmath.mpf(1)
    if bound_id == "T2_UPPER":
        return c_t1, 2 * mix
    if bound_id == "T3_UPPER":
        return s_sq * c_t1, 2 * mix
    if bound_id == "T4_LOWER_A":
        w_own, c_own, w_other, c_other = a, c_phi, b, c_psi
    elif bound_id == "T4_LOWER_B":
        w_own, c_own, w_other, c_other = b, c_psi, a, c_phi
    else:
        raise ValueError(f"no oracle for {bound_id}")
    rhs = (w_own / 2 * c_own - w_other * c_other
           - (s_sq + w_other) * _h(w_other / (s_sq + w_other)))
    return s_sq * c_t1, rhs


def sides(bound_id, alpha, beta, phi, psi, renormalize=False):
    """(lhs, rhs) of any of the six relations, as ``BoundReport`` holds them."""
    with mpmath.workdps(DIGITS):
        return _sides(bound_id, alpha, beta, phi, psi, renormalize)


def slack(bound_id, alpha, beta, phi, psi, renormalize=False):
    """Slack of any of the six relations, signed as ``BoundReport.slack`` is:
    rhs - lhs for upper bounds, lhs - rhs for lower ones, and T1_EQUALITY's
    residual |lhs - rhs|."""
    with mpmath.workdps(DIGITS):
        lhs, rhs = _sides(bound_id, alpha, beta, phi, psi, renormalize)
        if bound_id == "T1_EQUALITY":
            return abs(lhs - rhs)
        return lhs - rhs if bound_id.startswith("T4_LOWER") else rhs - lhs

"""Negativity of the two-spin state, by closed form and by partial transpose.

Negativity is the absolute sum of the negative eigenvalues of the partially
transposed density matrix (Peres-Horodecki, necessary and sufficient for a
pair of qubits); with this convention the two-qubit maximum is 1/2.

Two routes return N itself (a builtin float for one point, an array for
arrays of gamma and Delta or a stack of states) and cross-check each other:

* ``negativity_closed_form``: for the x-projected initial state the partial
  transpose diagonalizes analytically and only one eigenvalue can dip below
  zero, giving

      N = | (1 - e^{-16 gamma})/8
          - sqrt((1 - e^{-16 gamma})^2 + 16 e^{-8 gamma} sin^2(4 Delta)) / 8 |.

  ``appendix_b_eigenvalues`` gives all four eigenvalues of that partial
  transpose.  Both take arrays of gamma and Delta elementwise in one numpy
  pass, and a scalar call and an array call give the same bits.
* ``negativity_numeric``: the general route for any state, needed for tilted
  initial Bloch angles.  A two-qubit partial transpose has at most one
  negative eigenvalue, so ``pt_negativity`` finds only the lowest one: two
  Householder reflections give a real symmetric tridiagonal with the same
  spectrum, Sturm counts bracket the eigenvalue and Newton steps refine it,
  and two more counts certify it.  A row it cannot certify takes LAPACK
  (``pt_spectra``, the full spectra of a (B, 4, 4) stack from one batched
  ``np.linalg.eigvalsh``), and only that row.  ``x_block_spectra`` gives the
  spectra of evolved x-projected states from two exact 2x2 blocks, with an
  error bound.

Eigenvalues within 1e-13 of zero are treated as zero so that separable
states report exactly N = 0.
"""

from __future__ import annotations

import numpy as np

from .dynamics import TwoSpinState, field_phase
from .errors import EigenNonConvergence, InvalidState

__all__ = [
    "appendix_b_eigenvalues",
    "ideal_negativity",
    "negativity_closed_form",
    "negativity_numeric",
    "partial_transpose",
    "pt_negativity",
    "pt_spectra",
]

#: eigenvalues closer to zero than this count as zero, not negative
ZERO_EIGENVALUE_TOL = 1e-13
#: ``pt_negativity`` leaves to LAPACK a lowest eigenvalue within this of
#: -ZERO_EIGENVALUE_TOL, where rounding could decide the zero band
_BAND_MARGIN = 1e-14
#: half-width of the interval that certifies the lowest eigenvalue, a few
#: ulps of a spectrum that lies in [-1/2, 1]
_CERTIFIED = 2.0 ** -50
#: Sturm bisection steps on log|x| over [ZERO_EIGENVALUE_TOL, 1], then
#: Newton steps from the left end of the bracket
_BISECTIONS, _NEWTON_STEPS = 10, 4
#: the flattened rho index of each partial-transpose entry the reduction
#: reads: the diagonal X00..X33, the column X10, X20, X30 and X12, X13, X23
_PT_ENTRIES = np.array([0, 5, 10, 15, 1, 8, 9, 3, 7, 14])


def appendix_b_eigenvalues(gamma, delta) -> tuple:
    """The four analytic partial-transpose eigenvalues (Lambda_1..Lambda_4).

    Elementwise for arrays of gamma and Delta (four arrays); builtin floats
    for scalars.  gamma may be +inf; a negative gamma raises ValueError.
    Only Lambda_2 can be negative; Lambda_1 >= 0 and Lambda_3 >= Lambda_4.
    The Lambda_3/4 discriminant (3 + e)^2 + 16 e' cos^2 - 8(1 + e) is
    evaluated as (1 - e)^2 + 16 e' cos^2, the same polynomial without the
    catastrophic cancellation near gamma = 0, and 1 - e^{-16 gamma} as
    -expm1(-16 gamma), accurate for tiny gamma.  Beyond an exponent of
    745.2, and at gamma = +inf, e^-x is exactly 0 and -expm1(-x) exactly 1.
    """
    # [()] turns a 0-d array into a numpy scalar, whose arithmetic is cheap
    gamma = np.asarray(gamma, dtype=float)[()]
    if (gamma < 0).any():
        raise ValueError(f"gamma must be >= 0, got {np.min(gamma)}")
    e16 = np.exp(-16.0 * gamma)
    e8 = np.exp(-8.0 * gamma)
    u = -np.expm1(-16.0 * gamma)
    four_delta = 4.0 * np.asarray(delta, dtype=float)[()]
    s = np.sin(four_delta)
    c = np.cos(four_delta)
    uu = u * u
    r12 = np.sqrt(uu + 16.0 * e8 * (s * s))
    r34 = np.sqrt(uu + 16.0 * e8 * (c * c))
    lams = ((u + r12) / 8.0, (u - r12) / 8.0,
            (3.0 + e16 + r34) / 8.0, (3.0 + e16 - r34) / 8.0)
    if np.ndim(lams[0]):
        return lams
    return tuple(float(x) for x in lams)


def negativity_closed_form(gamma, delta):
    """Closed-form negativity |Lambda_2| of the x-projected state; gamma may
    be +inf.

    Elementwise for arrays of gamma and Delta, one numpy pass for all; a
    builtin float for scalars.
    """
    return abs(appendix_b_eigenvalues(gamma, delta)[1])


def ideal_negativity(delta):
    """Zero-dephasing negativity of the x-projected state, |sin(4 Delta)|/2.

    Elementwise for an array of Delta.
    """
    out = 0.5 * np.abs(np.sin(4.0 * np.asarray(delta, dtype=float)))
    return out if out.ndim else float(out)


def partial_transpose(rho: np.ndarray) -> np.ndarray:
    """Transpose the second-spin indices of a 4x4 two-spin matrix, or of
    each matrix in a (B, 4, 4) stack."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim not in (2, 3) or rho.shape[-2:] != (4, 4):
        raise InvalidState(f"expected a 4x4 or (B, 4, 4) matrix, got {rho.shape}")
    lead = rho.shape[:-2]
    return np.ascontiguousarray(
        rho.reshape(*lead, 2, 2, 2, 2).swapaxes(-3, -1).reshape(*lead, 4, 4))


def pt_spectra(rhos) -> np.ndarray:
    """Partial-transpose spectra for a batch of 4x4 density matrices.

    Input (B, 4, 4) or (4, 4), as a ``TwoSpinState`` or as an array, which
    is checked as one (``InvalidState`` unless every matrix is a finite,
    Hermitian, unit-trace, positive density matrix); output (B, 4) or (4,)
    real ascending, from one batched LAPACK eigvalsh.  The partial transpose
    only permutes the entries that check covered.
    """
    if not isinstance(rhos, TwoSpinState):
        rhos = TwoSpinState(rhos)
    pt = partial_transpose(rhos.rho)
    try:
        return np.linalg.eigvalsh(pt)
    except np.linalg.LinAlgError as exc:
        raise EigenNonConvergence(f"partial-transpose spectrum: {exc}") from exc


def x_block_spectra(rhos, h: float = 0.0, t=0.0) -> tuple:
    """Unordered partial-transpose spectra, (B, 4) or (4,), of a
    ``TwoSpinState`` of x-projected states in the field h at times t, and
    a bound 4 ||F||_F on the error of their negativity.  With the field
    phase undone, X = [[P, Q], [R, S]] (2x2 corners, rows and columns 2, 3
    swapped) is, in the basis (|0> +- |3>)/sqrt 2, (|1> +- |2>)/sqrt 2, the
    blocks (P + S +- (Q + R))/2 coupled by F = (P - S - Q + R)/2 (0 for an
    exact x-state); by Weyl's inequality each sorted eigenvalue of X lies
    within ||F||_2 <= ||F||_F of theirs."""
    rho = rhos.rho if h == 0.0 else rhos.rho * field_phase(h, t).conj()
    x = partial_transpose(rho)
    p, q = x[..., :2, :2], x[..., :2, 3:1:-1]
    r, s = x[..., 3:1:-1, :2], x[..., 3:1:-1, 3:1:-1]
    blocks = 0.5 * np.stack([p + s + (q + r), p + s - (q + r)])
    a, d = blocks[..., 0, 0].real, blocks[..., 1, 1].real
    mean = 0.5 * (a + d)
    radius = np.hypot(0.5 * (a - d), np.abs(blocks[..., 0, 1]))
    spectra = np.moveaxis(np.concatenate([mean - radius, mean + radius]), 0, -1)
    return spectra, 2.0 * np.linalg.norm(p - s - q + r, axis=(-2, -1))


def _tridiagonal(rho):
    """Diagonal d (4, B) and squared off-diagonal e2 (3, B) of a real
    symmetric tridiagonal with the spectrum of each partial transpose of a
    (B, 4, 4) stack: a Householder reflection takes column 0, a 2x2 unitary
    rotation the rest of column 1.  e2 is kept above 1e-300, so that a
    zero pivot never meets a zero numerator."""
    a00, a11, a22, a33, x1, x2, x3, a12, a13, a23 = \
        rho.reshape(-1, 16).T[_PT_ENTRIES]
    a00, a11, a22, a33 = a00.real, a11.real, a22.real, a33.real
    # H = I - tau v v^H with v = x + sigma e^(i arg x1) e1 maps x to sigma
    n1 = x1.real ** 2 + x1.imag ** 2
    s1 = n1 + (x2.real ** 2 + x2.imag ** 2) + (x3.real ** 2 + x3.imag ** 2)
    sigma, abs1 = np.sqrt(s1), np.sqrt(n1)
    tau = np.where(sigma > 0.0, 1.0 / (sigma * (sigma + abs1)), 0.0)
    v1 = x1 + sigma * np.where(abs1 > 0.0, x1 / abs1, 1.0)
    p1 = tau * (a11 * v1 + a12 * x2 + a13 * x3)
    p2 = tau * (a12.conj() * v1 + a22 * x2 + a23 * x3)
    p3 = tau * (a13.conj() * v1 + a23.conj() * x2 + a33 * x3)
    k = 0.5 * tau * (v1.conj() * p1 + x2.conj() * p2 + x3.conj() * p3).real
    w1, w2, w3 = p1 - k * v1, p2 - k * x2, p3 - k * x3
    # the trailing 3x3 block of H X H
    b11 = a11 - 2.0 * (v1 * w1.conj()).real
    c = a22 - 2.0 * (x2 * w2.conj()).real
    f = a33 - 2.0 * (x3 * w3.conj()).real
    u1 = a12 - v1 * w2.conj() - w1 * x2.conj()
    u2 = a13 - v1 * w3.conj() - w1 * x3.conj()
    g = a23 - x2 * w3.conj() - w2 * x3.conj()
    # rows (u1, u2) and (-conj u2, conj u1) / sqrt(s2) rotate (u1, u2)^H
    # onto the first axis of the trailing [[c, g], [g^*, f]]
    n1 = u1.real ** 2 + u1.imag ** 2
    n2 = u2.real ** 2 + u2.imag ** 2
    s2 = n1 + n2
    flat = s2 == 0.0
    d2 = np.where(flat, c, (n1 * c + n2 * f
                            + 2.0 * (u1 * g * u2.conj()).real) / s2)
    off = u1 * u2 * (f - c) + u1 * u1 * g - u2 * u2 * g.conj()
    e3 = np.where(flat, g.real ** 2 + g.imag ** 2,
                  (off.real ** 2 + off.imag ** 2) / (s2 * s2))
    return (np.stack([a00, b11, d2, c + f - d2]),
            np.maximum(np.stack([s1, s2, e3]), 1e-300))


def _below(d, e2, x):
    """Sturm count: how many eigenvalues of each tridiagonal lie below x,
    from the signs of the LDL^T pivots of T - x I."""
    dx = d - x
    q = dx[0]
    count = (q < 0.0).astype(np.int8)
    for k in (1, 2, 3):
        q = dx[k] - e2[k - 1] / q
        count += q < 0.0
    return count


def pt_negativity(rhos):
    """Negativity of each state of a ``TwoSpinState`` stack from the lowest
    eigenvalue of its partial transpose, and whether it is certified: (B,)
    arrays, also for one state.

    A row is N = 0 when its tridiagonal T has no eigenvalue below -1e-13 +
    1e-14.  Otherwise, with exactly one there, a fixed number of Sturm
    bisection steps brackets it on log|x| and Newton steps on det(T - x I)
    climb to it from the left, where they are monotone; N = -x is certified
    when T - (x - d) I is positive definite, T - (x + d) I is not, with d =
    2^-50, and x + d < -1e-13 - 1e-14.  Any other row is left uncertified
    (N = nan) for LAPACK.  Each row is computed on its own, with the same
    bits in a block and alone.
    """
    rho = rhos.rho.reshape(-1, 4, 4)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d, e2 = _tridiagonal(rho)
        lo = np.full(len(rho), ZERO_EIGENVALUE_TOL)
        hi = np.ones(len(rho))
        for _ in range(_BISECTIONS):
            mid = np.sqrt(lo * hi)
            below = _below(d, e2, -mid) > 0
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        x = -hi
        for _ in range(_NEWTON_STEPS):
            # d/dx log det(T - x I) = sum of q_k'/q_k over the pivots q_k
            dx = d - x
            q = dx[0]
            slope = ratio = -1.0 / q
            for k in (1, 2, 3):
                t = e2[k - 1] / q
                q = dx[k] - t
                ratio = (t * ratio - 1.0) / q
                slope = slope + ratio
            x = x - 1.0 / slope
        edge = np.full_like(x, _BAND_MARGIN - ZERO_EIGENVALUE_TOL)
        count = _below(d[:, None], e2[:, None],
                       np.stack([x - _CERTIFIED, x + _CERTIFIED, edge]))
    zero = count[2] == 0
    certified = zero | ((count[2] == 1) & (count[0] == 0) & (count[1] > 0)
                        & (x + _CERTIFIED
                           < -ZERO_EIGENVALUE_TOL - _BAND_MARGIN))
    return np.where(zero, 0.0, np.where(certified, -x, np.nan)), certified


def negativity_from_spectrum(eigs):
    """Sum of |negative eigenvalues|, ignoring ones within the zero band.

    Sums along the last axis: a float for one spectrum, an array for a
    (B, 4) batch of spectra.
    """
    eigs = np.asarray(eigs, dtype=float)
    out = np.sum(np.where(eigs < -ZERO_EIGENVALUE_TOL, -eigs, 0.0), axis=-1)
    return out if out.ndim else float(out)


def negativity_numeric(state: TwoSpinState):
    """Negativity of an arbitrary two-spin state via its partial transpose:
    a builtin float for one state, an array for a (B, 4, 4) stack.  The
    certified lowest eigenvalue of ``pt_negativity``, and LAPACK's spectrum
    for a row it cannot certify."""
    out, certified = pt_negativity(state)
    if not certified.all():
        out[~certified] = negativity_from_spectrum(
            pt_spectra(state.rho.reshape(-1, 4, 4)[~certified]))
    return out if state.rho.ndim == 3 else float(out[0])

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
  initial Bloch angles.  The 4x4 Hermitian partial transpose is diagonalized
  by LAPACK (``np.linalg.eigvalsh``); ``pt_spectra`` returns the spectra of
  a whole (B, 4, 4) stack from one call, and ``x_block_spectra`` those of
  evolved x-projected states from two exact 2x2 blocks, with an error bound.

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
    "pt_spectra",
]

#: eigenvalues closer to zero than this count as zero, not negative
ZERO_EIGENVALUE_TOL = 1e-13


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
    a builtin float for one state, an array for a (B, 4, 4) stack."""
    return negativity_from_spectrum(pt_spectra(state))

"""Negativity of the two-spin state, by closed form and by partial transpose.

Negativity is the absolute sum of the negative eigenvalues of the partially
transposed density matrix (Peres-Horodecki, necessary and sufficient for a
pair of qubits); with this convention the two-qubit maximum is 1/2.

Three routes are provided and cross-check each other:

* ``negativity_closed_form``: for the x-projected initial state the partial
  transpose diagonalizes analytically and only one eigenvalue can dip below
  zero, giving

      N = | (1 - e^{-16 gamma})/8
          - sqrt((1 - e^{-16 gamma})^2 + 16 e^{-8 gamma} sin^2(4 Delta)) / 8 |.

* ``appendix_b_eigenvalues``: all four analytic eigenvalues of that partial
  transpose.  Both closed forms take arrays of gamma and Delta elementwise
  in one numpy pass, and one code path serves a scalar call and an array
  call alike, so the two give the same bits.
* ``negativity_numeric``: the general route for any state, needed for tilted
  initial Bloch angles.  The 4x4 Hermitian partial transpose is diagonalized
  by LAPACK (``np.linalg.eigvalsh``); ``pt_spectra`` takes a whole (B, 4, 4)
  stack in one call.

Eigenvalues within 1e-13 of zero are treated as zero so that separable
states report exactly N = 0.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dynamics import TwoSpinState
from .errors import EigenNonConvergence, InvalidState

__all__ = [
    "NegativityMethod",
    "NegativityResult",
    "appendix_b_eigenvalues",
    "ideal_negativity",
    "negativity_closed_form",
    "negativity_numeric",
    "partial_transpose",
    "pt_spectra",
]

#: eigenvalues closer to zero than this count as zero, not negative
ZERO_EIGENVALUE_TOL = 1e-13


class NegativityMethod(enum.Enum):
    CLOSED_FORM = "closed_form"
    NUMERIC_PT = "numeric_pt"


@dataclass(frozen=True)
class NegativityResult:
    """Negativity plus the full partial-transpose spectrum.

    ``lambdas`` holds the four eigenvalues in any order, and
    ``eigenvalues`` sorts them ascending when first read, so a caller that
    needs only ``value`` never builds the spectrum.  For arrays of gamma
    and Delta, ``value`` and each of ``lambdas`` are arrays, and
    ``eigenvalues`` is an array with one ascending spectrum along its last
    axis; for scalars ``eigenvalues`` is a tuple of floats.
    """

    value: float
    lambdas: tuple
    method: NegativityMethod

    @cached_property
    def eigenvalues(self):
        if np.ndim(self.lambdas[0]):
            return np.sort(np.stack(self.lambdas, axis=-1), axis=-1)
        return tuple(sorted(self.lambdas))


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


def negativity_closed_form(gamma, delta) -> NegativityResult:
    """Closed-form negativity for the x-projected state; gamma may be +inf.

    Elementwise for arrays of gamma and Delta, one numpy pass for all.
    """
    lams = appendix_b_eigenvalues(gamma, delta)
    return NegativityResult(abs(lams[1]), lams, NegativityMethod.CLOSED_FORM)


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

    Input (B, 4, 4) or (4, 4) complex Hermitian, as an array or a
    ``TwoSpinState``; output (B, 4) or (4,) real ascending, from one
    batched LAPACK eigvalsh.  A raw array is checked finite and Hermitian
    here.  A ``TwoSpinState`` is not: it has checked both already, and the
    partial transpose only permutes the entries it checked.
    """
    if isinstance(rhos, TwoSpinState):
        pt = partial_transpose(rhos.rho)
    else:
        pt = partial_transpose(rhos)
        if not np.all(np.isfinite(pt)):
            raise InvalidState("partial transpose has non-finite entries")
        herm_defect = np.max(np.abs(pt - pt.conj().swapaxes(-1, -2)),
                             initial=0.0)
        if herm_defect > 1e-10:
            raise InvalidState(f"partial transpose not Hermitian "
                               f"(defect {herm_defect:.3e})")
    try:
        return np.linalg.eigvalsh(pt)
    except np.linalg.LinAlgError as exc:
        raise EigenNonConvergence(f"partial-transpose spectrum: {exc}") from exc


def negativity_from_spectrum(eigs):
    """Sum of |negative eigenvalues|, ignoring ones within the zero band.

    Sums along the last axis: a float for one spectrum, an array for a
    (B, 4) batch of spectra.
    """
    eigs = np.asarray(eigs, dtype=float)
    out = np.sum(np.where(eigs < -ZERO_EIGENVALUE_TOL, -eigs, 0.0), axis=-1)
    return out if out.ndim else float(out)


def negativity_numeric(state: TwoSpinState) -> NegativityResult:
    """Negativity of an arbitrary two-spin state via its partial transpose."""
    eigs = pt_spectra(state)
    return NegativityResult(negativity_from_spectrum(eigs),
                            tuple(float(x) for x in eigs),
                            NegativityMethod.NUMERIC_PT)

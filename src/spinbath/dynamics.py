"""Reduced two-spin density matrix under common-bath dephasing.

Basis ordering is fixed to |1,1>, |1,-1>, |-1,1>, |-1,-1> (m = +1 first);
the partial-transpose index bookkeeping downstream depends on it.  With
M = m1 + m2 and N = n1 + n2, each element of the reduced state evolves as

    rho[m, n](t) = c_m c_n^* * exp(-i h t (M - N) / 2)
                             * exp(-(M - N)^2 gamma(t))
                             * exp(-i (M^2 - N^2) Delta(t)),

so the diagonal is frozen, coherences between different magnetization
sectors dephase with gamma, and the bath-induced Ising phase Delta acts
between the |m1+m2| = 2 sectors and the M = 0 block.  A divergent gamma is
the exact infinite-dephasing limit: elements with M != N are exactly zero,
everything else keeps its phase factors (which are 1 there).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decoherence import DecoherenceFactors
from .errors import InvalidState

__all__ = [
    "InitialProductState",
    "GeneralInitialState",
    "TwoSpinState",
    "FieldConfig",
    "X_PROJECTED",
    "bloch_product_to_general",
    "evolve",
    "evolve_ideal",
]

# m-labels per basis index, basis |1,1>, |1,-1>, |-1,1>, |-1,-1>
_M_LABELS = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]])
_M_SUM = _M_LABELS.sum(axis=1)  # m1 + m2 per index
#: lowest eigenvalue a valid density matrix may have
_POSITIVITY_TOL = 1e-10


@dataclass(frozen=True)
class InitialProductState:
    """Product of two Bloch-sphere pure states, |m=+1> at the north pole."""

    theta1: float
    theta2: float
    phi1: float = 0.0
    phi2: float = 0.0

    def __post_init__(self):
        for name in ("theta1", "theta2"):
            v = getattr(self, name)
            if not (0.0 <= v <= np.pi):
                raise ValueError(f"{name} must lie in [0, pi], got {v}")
        for name in ("phi1", "phi2"):
            v = getattr(self, name)
            if not (0.0 <= v < 2.0 * np.pi):
                raise ValueError(f"{name} must lie in [0, 2*pi), got {v}")


@dataclass(frozen=True)
class GeneralInitialState:
    """Normalized amplitudes c[m1, m2] in the fixed basis ordering."""

    c: tuple

    def __post_init__(self):
        c = np.asarray(self.c, dtype=complex)
        if c.shape != (4,):
            raise InvalidState(f"need 4 amplitudes, got shape {c.shape}")
        norm = float(np.sum(np.abs(c) ** 2))
        if abs(norm - 1.0) > 1e-12:
            raise InvalidState(f"amplitudes not normalized: sum |c|^2 = {norm!r}")
        object.__setattr__(self, "c", tuple(complex(x) for x in c))

    def amplitudes(self) -> np.ndarray:
        return np.array(self.c, dtype=complex)


@dataclass(frozen=True)
class FieldConfig:
    """Uniform magnetic field along z; enters only as a local phase."""

    h: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.h):
            raise ValueError(f"h must be finite, got {self.h}")


@dataclass(frozen=True)
class TwoSpinState:
    """4x4 reduced density matrix in the |m1, m2> basis, or a (B, 4, 4)
    stack of them along a leading time axis.

    Every matrix must be finite, Hermitian, of unit trace and positive
    (lowest eigenvalue >= -1e-10).  Positivity is screened with one batched
    Cholesky factorization of rho + 1e-10 I, which exists exactly when the
    lowest eigenvalue exceeds -1e-10 (up to rounding near that threshold);
    only a stack it rejects is decided by a batched eigvalsh.  ``rho`` is
    a read-only view of a complex input, not a copy.
    """

    rho: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=complex)
        if rho.ndim not in (2, 3) or rho.shape[-2:] != (4, 4):
            raise InvalidState(
                f"density matrix must be 4x4 or (B, 4, 4), got {rho.shape}")
        if not np.all(np.isfinite(rho)):
            raise InvalidState("density matrix has non-finite entries")
        if np.max(np.abs(rho - rho.conj().swapaxes(-1, -2)), initial=0.0) > 1e-12:
            raise InvalidState("density matrix is not Hermitian")
        trace = np.trace(rho, axis1=-2, axis2=-1)
        bad = (np.abs(trace.real - 1.0) > 1e-12) | (np.abs(trace.imag) > 1e-12)
        if np.any(bad):
            raise InvalidState(f"trace must be 1, got {trace[bad].flat[0]}")
        try:
            np.linalg.cholesky(rho + _POSITIVITY_TOL * np.eye(4))
        except np.linalg.LinAlgError:
            lowest = float(np.min(np.linalg.eigvalsh(rho)[..., 0], initial=0.0))
            if lowest < -_POSITIVITY_TOL:
                raise InvalidState(
                    f"density matrix not positive (min eig {lowest:.3e})")
        # freeze a view: the caller's own array stays writable
        rho = rho.view()
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)

    def purity(self):
        """Tr rho^2 (real for Hermitian rho); an array for a stack."""
        out = np.sum(np.abs(self.rho) ** 2, axis=(-2, -1))
        return out if out.ndim else float(out)

    def to_json_obj(self) -> list:
        """Nested [re, im] pairs, the CLI state-dump format (one per matrix
        for a stack)."""
        return np.stack([self.rho.real, self.rho.imag], axis=-1).tolist()


def bloch_product_to_general(init: InitialProductState) -> GeneralInitialState:
    """Tensor-product amplitudes c[m1, m2] = amp1(m1) * amp2(m2).

    amp(+1) = cos(theta/2) and amp(-1) = e^{i phi} sin(theta/2), i.e. the
    north pole is the m = +1 projection.
    """
    def amps(theta, phi):
        return np.array([np.cos(0.5 * theta),
                         np.exp(1j * phi) * np.sin(0.5 * theta)])

    a1 = amps(init.theta1, init.phi1)
    a2 = amps(init.theta2, init.phi2)
    return GeneralInitialState(tuple(np.kron(a1, a2)))


#: both spins along +x: every amplitude exactly 1/2
X_PROJECTED = GeneralInitialState((0.5, 0.5, 0.5, 0.5))


def is_x_projected(init: GeneralInitialState) -> bool:
    return bool(np.max(np.abs(init.amplitudes() - 0.5)) <= 1e-12)


def evolve(init: GeneralInitialState, df: DecoherenceFactors,
           field: FieldConfig, t) -> TwoSpinState:
    """Reduced state at time t from the initial amplitudes and bath factors.

    t, df.gamma, df.delta and df.gamma_divergent may be scalars or arrays
    over one leading time axis of length B; the result then holds a
    (B, 4, 4) stack, validated in one pass (``TwoSpinState``).
    """
    t, gamma, delta = (np.asarray(a, dtype=float)[..., None, None]
                       for a in (t, df.gamma, df.delta))
    divergent = np.asarray(df.gamma_divergent, dtype=bool)[..., None, None]
    c = init.amplitudes()
    rho0 = np.outer(c, c.conj())
    M = _M_SUM.astype(float)
    dM = M[:, None] - M[None, :]
    dM2 = M[:, None] ** 2 - M[None, :] ** 2

    phase = np.exp(-1j * (0.5 * field.h * t * dM + delta * dM2))
    # a divergent gamma zeroes the M != N elements exactly; its +inf never
    # enters the exponent (inf * 0 would be nan on the diagonal)
    damp = np.exp(-(dM ** 2) * np.where(divergent, 0.0, gamma))
    damp = np.where(divergent & (dM != 0.0), 0.0, damp)
    return TwoSpinState(rho0 * phase * damp)


def evolve_ideal(init: GeneralInitialState, delta: float) -> TwoSpinState:
    """Zero-dephasing limit: the diagonal unitary U = exp(-i Delta (Sz1+Sz2)^2).

    (sigma_z^(1) + sigma_z^(2))^2 = diag(4, 0, 0, 4) in this basis, so
    U = diag(e^{-4i Delta}, 1, 1, e^{-4i Delta}); the result is pure and
    equals evolve() with gamma = 0 and h = 0 exactly.
    """
    c = init.amplitudes()
    u = np.exp(-1j * delta * _M_SUM.astype(float) ** 2)
    uc = u * c
    return TwoSpinState(np.outer(uc, uc.conj()))

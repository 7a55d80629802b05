"""SU(2) Mach-Zehnder phase estimation on fixed-particle-number inputs.

Two bosonic modes with total particle number N map onto a spin j = N/2; the
interferometer acts as the rotation exp(-i phi J2), so outcome statistics are
squared Wigner rotation-matrix columns.  Factorial formulas overflow long
before the dimensions used here, so every column comes from a real symmetric
tridiagonal eigenproblem, which stays orthogonal to round-off:

* one phase: column m of d(phi) is the eigenvector of cos(phi) J3 +
  sin(phi) J1 for the exact eigenvalue m, one inverse iteration in O(j)
  time and memory (``outcome_distribution``);
* many phases: one eigendecomposition of J2, cached per j, serves a whole
  phase grid (``outcome_table``, ``outcome_amplitude_curve``) and the dense
  matrix ``wigner_d`` the kernels are tested against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal, expm
from scipy.linalg.lapack import dstein

from .errors import FisherlabError, SizeLimit, ZeroPosterior

SIZE_CAP = 4097                       # max matrix dimension 2j+1
POSTERIOR_WINDOW = (-math.pi / 2.0, math.pi / 2.0)
POSTERIOR_POINTS = 4001


def _check_two_j(two_j: int) -> None:
    if two_j < 0:
        raise ValueError("2j must be a non-negative integer")
    if two_j + 1 > SIZE_CAP:
        raise SizeLimit(f"dimension {two_j + 1} exceeds cap {SIZE_CAP}")


def _as_two_j(j: float) -> int:
    two_j = int(round(2 * j))
    if abs(2 * j - two_j) > 1e-12:
        raise ValueError("j must be integer or half-integer")
    return two_j


@dataclass(frozen=True)
class FockInput:
    """Particle counts at the two input ports; j = (n1+n2)/2, m = (n1-n2)/2.

    Construction enforces the size cap 2j+1 <= SIZE_CAP, so an oversized
    input fails before any kernel call or output.
    """

    n1: int
    n2: int

    def __post_init__(self):
        if self.n1 < 0 or self.n2 < 0 or self.n1 != int(self.n1) or self.n2 != int(self.n2):
            raise ValueError("particle counts must be non-negative integers")
        _check_two_j(self.n1 + self.n2)

    @property
    def j(self) -> float:
        return (self.n1 + self.n2) / 2.0

    @property
    def m(self) -> float:
        return (self.n1 - self.n2) / 2.0

    @property
    def n_total(self) -> int:
        return self.n1 + self.n2


@dataclass(frozen=True)
class AngularMomentumRep:
    """Matrices J1, J2, J3 on the spin-j block, basis ordered k = j .. -j."""

    j: float
    j1: np.ndarray
    j2: np.ndarray
    j3: np.ndarray

    @property
    def k_values(self) -> np.ndarray:
        return self.j - np.arange(int(round(2 * self.j)) + 1)


@dataclass(frozen=True)
class WignerRotation:
    """Real orthogonal matrix d^j_{k,m}(phi) = <j,k|exp(-i phi J2)|j,m>."""

    j: float
    phi: float
    d: np.ndarray

    def column(self, m: float) -> np.ndarray:
        return self.d[:, _index_of(self.j, m)]


def _index_of(j: float, m: float) -> int:
    idx = int(round(j - m))
    if idx < 0 or idx > int(round(2 * j)):
        raise ValueError(f"m={m} outside the spin-{j} ladder")
    return idx


def build_rep(j: float) -> AngularMomentumRep:
    """Angular momentum matrices with the standard ladder coefficients."""
    two_j = _as_two_j(j)
    _check_two_j(two_j)
    dim = two_j + 1
    k = j - np.arange(dim)
    # <k+1| J+ |k> = sqrt(j(j+1) - k(k+1)); with k descending this sits one
    # row above the diagonal.
    raise_c = np.sqrt(j * (j + 1.0) - k[1:] * (k[1:] + 1.0))
    jp = np.zeros((dim, dim))
    jp[np.arange(dim - 1), np.arange(1, dim)] = raise_c
    jm = jp.T.copy()
    j1 = (jp + jm) / 2.0
    j2 = (jp - jm) / 2.0j
    j3 = np.diag(k).astype(complex)
    return AngularMomentumRep(j=j, j1=j1.astype(complex), j2=j2, j3=j3)


def _half_ladder(two_j: int) -> tuple[np.ndarray, np.ndarray]:
    """k = j .. -j and the J1 off-diagonal (1/2) sqrt(j(j+1) - k(k+1))."""
    j = two_j / 2.0
    k = j - np.arange(two_j + 1)
    return k, 0.5 * np.sqrt(j * (j + 1.0) - k[1:] * (k[1:] + 1.0))


@functools.lru_cache(maxsize=2)
def _generator_eigensystem(two_j: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of J2 via its real symmetric tridiagonal conjugate.

    With D = diag(i^n), D^-1 J2 D is real symmetric tridiagonal; its
    eigenvectors V and eigenvalues lam give
    d(phi) = Re[ i^(r-c) * (V exp(-i phi lam) V^T) ].
    Cached read-only per j: safe for concurrent use.  A run uses one j, so
    two entries suffice and bound the cache at ~270 MB at the size cap.
    """
    k, off = _half_ladder(two_j)
    lam, vec = eigh_tridiagonal(np.zeros_like(k), off)
    lam.setflags(write=False)
    vec.setflags(write=False)
    return lam, vec


def _reduce_phase(phi):
    return (phi + math.pi) % (2.0 * math.pi) - math.pi


def wigner_d(j: float, phi: float) -> WignerRotation:
    """Rotation matrix exp(-i phi J2) in the |j,k> basis, k = j .. -j.

    phi is reduced to (-pi, pi] first; for half-integer j this may flip the
    global sign (period 4 pi), which leaves every probability unchanged.
    """
    two_j = _as_two_j(j)
    _check_two_j(two_j)
    phi = _reduce_phase(phi)
    lam, vec = _generator_eigensystem(two_j)
    core = (vec * np.exp(-1j * phi * lam)) @ vec.T
    n = np.arange(two_j + 1)
    phase = 1j ** ((n[:, None] - n[None, :]) % 4)
    return WignerRotation(j=j, phi=phi, d=np.real(phase * core))


def outcome_amplitude_curve(j: float, k: float, m: float,
                            phis: np.ndarray) -> np.ndarray:
    """d^j_{k,m}(phi) evaluated on an array of phases (single eigensolve).

    With weights w_n = V[k, n] V[m, n], d_{k,m}(phi) is
    Re[i^(k-m) sum_n w_n e^{-i phi lam_n}] (row indices k, m).  The spectrum
    of J2 is exactly the integers -j .. j, ascending in the cached
    eigensystem, so the sum is e^{i j phi} P(z) with z = e^{-i phi} and
    P(z) = sum_n w_n z^n.  Horner's rule evaluates P with one complex
    exponential per phase instead of 2j+1.
    """
    two_j = _as_two_j(j)
    _check_two_j(two_j)
    _, vec = _generator_eigensystem(two_j)
    ki, mi = _index_of(j, k), _index_of(j, m)
    w = vec[ki] * vec[mi]
    phis = np.asarray(phis, dtype=float)
    z = np.exp(-1j * phis)
    poly = np.full(phis.shape, w[-1], dtype=complex)
    for w_n in w[-2::-1]:
        poly *= z
        poly += w_n
    return np.real(1j ** ((ki - mi) % 4) * np.exp(0.5j * two_j * phis) * poly)


def outcome_distribution(source: FockInput, phi: float) -> np.ndarray:
    """Probabilities p_k(phi) over k = j .. -j: squared column m of d(phi).

    The column exp(-i phi J2)|j,m> is, up to sign, the eigenvector of
    cos(phi) J3 + sin(phi) J1 for the eigenvalue m.  In the |j,k> basis that
    operator is real symmetric tridiagonal with the exact spectrum -j .. j,
    so with the eigenvalue known exactly one LAPACK inverse iteration
    (``dstein``) gives the column: O(j) time and memory, no eigenvalue
    search and no cached eigenbasis.  Sign conventions drop out of p.
    """
    two_j = int(source.n_total)
    if not math.isfinite(phi):
        raise ValueError("phase must be finite")
    if two_j == 0:
        return np.ones(1)
    phi = _reduce_phase(phi)
    k, off = _half_ladder(two_j)
    dim = two_j + 1
    # the whole matrix is one unsplit block: block index 1, ending at row dim
    vec, info = dstein(k * math.cos(phi), off * math.sin(phi),
                       np.array([source.m]), np.ones(dim, dtype=np.int32),
                       np.full(dim, dim, dtype=np.int32))
    if info != 0:
        raise FisherlabError(f"inverse iteration for m={source.m} did not converge")
    return vec[:, 0] ** 2


def outcome_table(source: FockInput, phis: np.ndarray) -> np.ndarray:
    """Probabilities p_k(phi) for every phase in ``phis``: a (G, 2j+1) table.

    Row g is ``outcome_distribution(source, phis[g])``, formed for all
    phases at once as two real products in the cached eigenbasis,
    (V[m] * cos(phi lam)) V^T and (V[m] * sin(phi lam)) V^T.
    """
    lam, vec = _generator_eigensystem(int(source.n_total))
    angle = _reduce_phase(np.asarray(phis, dtype=float).reshape(-1, 1)) * lam
    v_m = vec[_index_of(source.j, source.m)]
    re = (v_m * np.cos(angle)) @ vec.T
    im = (v_m * np.sin(angle)) @ vec.T
    return re * re + im * im


def mz_transform_check(j: float, phi: float) -> float:
    """Max deviation of the beamsplitter-phase-beamsplitter compositions.

    Checks (a) exp(i pi/2 J1) exp(-i phi J3) exp(-i pi/2 J1) against
    exp(-i phi J2) and (b) U+ J3 U against -sin(phi) J1 + cos(phi) J3,
    both with brute-force matrix exponentials; returns max of the two.
    """
    rep = build_rep(j)
    bs = expm(1j * (math.pi / 2.0) * rep.j1)
    shift = np.diag(np.exp(-1j * phi * np.diag(rep.j3)))
    u = bs @ shift @ bs.conj().T
    dev_a = np.abs(u - expm(-1j * phi * rep.j2)).max()
    rotated = u.conj().T @ rep.j3 @ u
    dev_b = np.abs(rotated - (-math.sin(phi) * rep.j1 + math.cos(phi) * rep.j3)).max()
    return float(max(dev_a, dev_b))


def moments(source: FockInput, phi: float) -> tuple[float, float]:
    """Closed-form output moments <J3> = m cos(phi) and
    <J3^2> = m^2 cos^2(phi) + (j(j+1) - m^2) sin^2(phi)/2."""
    j, m = source.j, source.m
    mean = m * math.cos(phi)
    mean_sq = (m ** 2 * math.cos(phi) ** 2
               + 0.5 * (j * (j + 1.0) - m ** 2) * math.sin(phi) ** 2)
    return mean, mean_sq


def linearized_phase_error(source: FockInput, phi: float) -> float | None:
    """Error of the linearized readout, Delta J3 / |d<J3>/dphi|.

    Evaluates to sqrt((j(j+1) - m^2) / (2 m^2)) independently of phi; returns
    None for m = 0, where linearization degenerates to 0/0 and fails as a
    matter of principle, not as an exception.
    """
    j, m = source.j, source.m
    if m == 0:
        return None
    # spread of J3 is sin(phi) sqrt([j(j+1) - m^2]/2) in closed form (the
    # difference of second moments cancels catastrophically near phi = 0 if
    # formed numerically), the slope of <J3> is -m sin(phi): sin(phi) drops
    # out and the ratio is phi-independent.
    return math.sqrt((j * (j + 1.0) - m ** 2) / (2.0 * m ** 2))


def fisher_phase_at_zero(source: FockInput, verify: bool = True) -> float:
    """Fisher information at the phi = 0 working point: 2 [j(j+1) - m^2].

    The raw score sum is 0/0 at phi = 0; the closed form realizes its
    L'Hospital limit -2 p_m''(0), which is re-checked by a second central
    difference of p_m, read from the single-phase column kernel, when
    ``verify`` is set.  The truncation error of that
    difference grows like (j step)^2, so the step is 1/(300 j).
    """
    j, m = source.j, source.m
    f0 = 2.0 * (j * (j + 1.0) - m ** 2)
    if verify and f0 > 0:
        step = 1.0 / (300.0 * max(j, 1.0))
        i = _index_of(j, m)
        p = [outcome_distribution(source, s)[i] for s in (-step, step)]
        fd = -2.0 * (p[0] + p[1] - 2.0) / step ** 2
        if abs(fd / f0 - 1.0) > 1e-3:
            raise FisherlabError(
                f"closed-form F0={f0} disagrees with finite difference {fd}")
    return f0


@dataclass(frozen=True)
class Posterior:
    """Flat-prior phase posterior on a uniform grid, trapezoid-normalized."""

    grid: np.ndarray
    density: np.ndarray
    shots: tuple[float, ...] = ()

    def variance(self) -> float:
        mean = np.trapezoid(self.grid * self.density, self.grid)
        return float(np.trapezoid((self.grid - mean) ** 2 * self.density, self.grid))


def posterior_flat(window: tuple[float, float] = POSTERIOR_WINDOW,
                   n_points: int = POSTERIOR_POINTS) -> Posterior:
    lo, hi = window
    if not -math.pi <= lo < hi <= math.pi:
        raise ValueError("window must lie within [-pi, pi]")
    grid = np.linspace(lo, hi, n_points)
    density = np.full(n_points, 1.0 / (hi - lo))
    return Posterior(grid=grid, density=density)


def posterior_update(post: Posterior, source: FockInput,
                     outcome_k: float) -> Posterior:
    """Multiply the posterior by the exact likelihood p_k(phi) and renormalize."""
    like = outcome_amplitude_curve(source.j, outcome_k, source.m, post.grid) ** 2
    density = post.density * like
    total = np.trapezoid(density, post.grid)
    if total < 1e-300:
        raise ZeroPosterior("posterior vanished: outcomes contradict the window")
    return Posterior(grid=post.grid, density=density / total,
                     shots=post.shots + (outcome_k,))


def resource_scaling(j: float, n_repeats: int) -> float:
    """Predicted variance 1/(n j^2) = 4 n / N_tot^2 for n repeats of an
    N = 2j, m = 0 shot."""
    if n_repeats < 1:
        raise ValueError("n_repeats must be at least 1")
    return 1.0 / (n_repeats * j ** 2)

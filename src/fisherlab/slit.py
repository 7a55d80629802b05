"""Single-slit diffraction as a momentum-estimation experiment.

The far-field detection statistics form a location family in the reduced
coordinate mu with parameter nu; its Fisher information, together with the
position variance of the aperture state, reproduces (and saturates) the
momentum-position uncertainty relation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import sici

from .errors import PhaseUnwrapFailure
from .models import ModelKind, ParametricModel, SUPPORT_EPS

# quadrature window / resolution for the Fisher integral; the remainder
# beyond the window is added in closed form, see _tail_integral.
FISHER_WINDOW = 40.0
FISHER_POINTS = 8001

DENSITY_WINDOW = 40.0
DENSITY_POINTS = 8001
# degree of the Chebyshev interpolant of the grid normalization log Z(nu)
LOG_NORM_DEGREE = 64
# |mu - nu| below which the score of ln sinc^2 uses its Taylor series
SCORE_SERIES_T = 1e-4

# default grid for momentum-representation wavefunctions: wide enough that
# the truncated 1/mu^2 tail mass stays below the 1e-6 norm budget.
MOMENTUM_WINDOW = 5.0e5
MOMENTUM_POINTS = 10_000_001
POSITION_POINTS = 4001


class Representation(Enum):
    POSITION = "position"
    MOMENTUM = "momentum"


@dataclass(frozen=True)
class SlitGeometry:
    """Slit of width ``a`` illuminated by a plane wave.

    ``k_x`` is the transverse wavenumber of the incident wave; natural units
    ``hbar = 1`` by default.
    """

    a: float = 1.0
    wavelength: float = 1.0
    distance: float = 1.0
    k_x: float = 0.0
    hbar: float = 1.0

    def __post_init__(self):
        if self.a <= 0 or self.wavelength <= 0 or self.distance <= 0:
            raise ValueError("slit width, wavelength and screen distance must be positive")
        if self.hbar <= 0:
            raise ValueError("hbar must be positive")

    @property
    def k(self) -> float:
        return 2.0 * math.pi / self.wavelength

    @property
    def nu(self) -> float:
        """Dimensionless peak location: nu = a k_x / 2."""
        return 0.5 * self.a * self.k_x


def sinc(x):
    """Unnormalized sinc, sin(x)/x, with the limit 1 at x = 0.

    One sine per entry and no scaling of x by pi (``np.sinc`` is the
    normalized sin(pi x)/(pi x)); a scalar argument gives a scalar.
    """
    x = np.asarray(x, dtype=float)
    out = np.sin(x, out=np.empty_like(x))
    with np.errstate(invalid="ignore"):
        out /= x
    out[x == 0.0] = 1.0
    return out[()]


def sinc_deriv(x):
    """d/dx sinc(x); series expansion near 0 avoids cancellation."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = np.abs(x) < 1e-4
    xs = x[small]
    out[small] = -xs / 3.0 + xs ** 3 / 30.0
    xb = x[~small]
    out[~small] = np.cos(xb) / xb - np.sin(xb) / xb ** 2
    return out


def farfield_density(mu, nu: float = 0.0):
    """Far-field detection density (1/pi) sinc^2(mu - nu)."""
    return sinc(np.asarray(mu, dtype=float) - nu) ** 2 / np.pi


def farfield_model(geometry: SlitGeometry,
                   mu_max: float = DENSITY_WINDOW,
                   n_points: int = DENSITY_POINTS,
                   theta_domain: tuple[float, float] = (-8.0, 8.0)
                   ) -> ParametricModel:
    """Far-field statistics as a grid model in mu with parameter nu.

    The density is renormalized on the grid so the trapezoid-integral
    invariant holds exactly; the raw physical density is ``farfield_density``.
    The analytic derivative accounts for the (tiny) nu-dependence of the grid
    normalization so the derivative integrates to zero exactly.
    """
    grid = np.linspace(-mu_max, mu_max, n_points)

    def raw(theta: float) -> np.ndarray:
        return farfield_density(grid, theta)

    def draw(theta: float) -> np.ndarray:
        t = grid - theta
        return -2.0 / np.pi * sinc(t) * sinc_deriv(t)

    def prob(theta: float) -> np.ndarray:
        u = raw(theta)
        return u / np.trapezoid(u, grid)

    def dprob(theta: float) -> np.ndarray:
        u = raw(theta)
        du = draw(theta)
        z = np.trapezoid(u, grid)
        dz = np.trapezoid(du, grid)
        return (du * z - u * dz) / z ** 2

    # The grid normalization log Z(theta) is smooth and nearly constant, so a
    # Chebyshev interpolant, built on first use, makes subset log-probability
    # queries cheap for likelihood scans; it reproduces the trapezoid value to
    # ~1e-15.  Its first two derivatives serve the score.
    @functools.cache
    def log_norm() -> tuple[np.polynomial.Chebyshev, ...]:
        f = np.polynomial.Chebyshev.interpolate(
            lambda thetas: np.log([np.trapezoid(raw(t), grid) for t in thetas]),
            LOG_NORM_DEGREE, domain=theta_domain)
        return f, f.deriv(), f.deriv(2)

    def log_prob_at(idx: np.ndarray, theta: np.ndarray) -> np.ndarray:
        # ln sinc^2(t) - ln pi - log Z, formed in place
        lnp = sinc(grid[idx] - theta)
        np.square(lnp, out=lnp)
        with np.errstate(divide="ignore"):
            np.log(lnp, out=lnp)
        lnp -= math.log(math.pi) + log_norm()[0](theta)
        return lnp

    def score_at(idx: np.ndarray, theta: np.ndarray):
        # ln p = 2 ln|sin t / t| - ln pi - log Z(theta), t = mu - theta:
        # d/dtheta = -2 (cot t - 1/t) - log Z', and
        # d2/dtheta2 = 2 (1/t^2 - csc^2 t) - log Z'', with csc^2 = 1 + cot^2;
        # a Taylor series below SCORE_SERIES_T, where both forms cancel.
        t = grid[idx] - theta
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = np.reciprocal(t)
            cot = np.tan(t)
            np.reciprocal(cot, out=cot)
            d1 = inv - cot
            np.square(inv, out=inv)
            np.square(cot, out=cot)
            d2 = np.subtract(inv, cot, out=inv)
        d1 *= 2.0
        d2 -= 1.0
        d2 *= 2.0
        small = np.abs(t) < SCORE_SERIES_T
        ts = t[small]
        d1[small] = 2.0 * ts / 3.0 + 2.0 * ts ** 3 / 45.0
        d2[small] = -2.0 / 3.0 - 2.0 * ts ** 2 / 15.0
        _, dlog_norm, d2log_norm = log_norm()
        d1 -= dlog_norm(theta)
        d2 -= d2log_norm(theta)
        return d1, d2

    return ParametricModel(
        kind=ModelKind.CONTINUOUS_GRID,
        outcomes=grid,
        prob=prob,
        dprob=dprob,
        theta_domain=theta_domain,
        name="slit",
        log_prob_at=log_prob_at,
        score_at=score_at,
    )


def _tail_integral(w: float) -> float:
    """Closed form of ``int_w^inf (d/dt sinc t)^2 dt`` via sine/cosine integrals."""
    si, _ = sici(2.0 * w)
    is1 = math.pi / 2.0 - si                      # int_w^inf sin(2t)/t
    ic2 = math.cos(2.0 * w) / w - 2.0 * is1       # int_w^inf cos(2t)/t^2
    is3 = math.sin(2.0 * w) / (2.0 * w * w) + ic2  # int_w^inf sin(2t)/t^3
    ic4 = math.cos(2.0 * w) / (3.0 * w ** 3) - 2.0 / 3.0 * is3
    return 1.0 / (2.0 * w) + 1.0 / (6.0 * w ** 3) + ic2 / 2.0 - is3 - ic4 / 2.0


def fisher_slit(geometry: SlitGeometry) -> float:
    """Fisher information of the far-field pattern, F = (4/pi) int (sinc')^2.

    Grid quadrature over the central window plus the closed-form tail; the
    result is independent of nu (location family) and equals 4/3 to well
    below 1e-6.
    """
    grid = np.linspace(-FISHER_WINDOW, FISHER_WINDOW, FISHER_POINTS)
    central = np.trapezoid(sinc_deriv(grid) ** 2, grid)
    return 4.0 / math.pi * (central + 2.0 * _tail_integral(FISHER_WINDOW))


def position_variance(geometry: SlitGeometry) -> float:
    """Variance of position over the aperture: quadrature of x^2/a on the slit.

    The mean vanishes by symmetry; Gauss-Legendre quadrature is exact for the
    quadratic integrand so the closed form a^2/12 is matched to round-off.
    """
    nodes, weights = np.polynomial.legendre.leggauss(40)
    half = geometry.a / 2.0
    x = half * nodes
    return float(np.sum(weights * half * x ** 2 / geometry.a))


def uncertainty_chain(geometry: SlitGeometry) -> tuple[float, float, float]:
    """Fisher bound on the momentum variance, Heisenberg bound, and product.

    Converts the mu-space CRB through (delta mu)^2 = (a/2 hbar)^2 (delta p)^2
    and returns ``(dp2_bound_from_fisher, heisenberg_bound, product)`` where
    product = dp2_bound * (delta x)^2 = hbar^2/4 for the slit state (the
    minimum-uncertainty equality case).
    """
    hbar = geometry.hbar
    f_mu = fisher_slit(geometry)
    scale = (2.0 * hbar / geometry.a) ** 2
    dp2_bound = scale / f_mu
    dx2 = position_variance(geometry)
    heisenberg_bound = hbar ** 2 / (4.0 * dx2)
    return dp2_bound, heisenberg_bound, dp2_bound * dx2


def truncated_momentum_variance(geometry: SlitGeometry, window: float) -> float:
    """``int_{-W}^{W} mu^2 (1/pi) sinc^2(mu) dmu``: grows like W/pi, unbounded.

    The integrand equals sin^2(mu)/pi away from 0, so the truncated variance
    has no finite limit: the far-field pattern is heavy-tailed.
    """
    if window <= 0:
        raise ValueError("window must be positive")
    n = max(4001, int(window / 0.025) | 1)
    grid = np.linspace(-window, window, n)
    return float(np.trapezoid(grid ** 2 * farfield_density(grid), grid))


@dataclass(frozen=True)
class SlitWavefunction:
    """Sampled slit wavefunction in either representation."""

    geometry: SlitGeometry
    representation: Representation
    grid: np.ndarray
    amplitude: np.ndarray

    def norm(self) -> float:
        return float(np.trapezoid(np.abs(self.amplitude) ** 2, self.grid))


def slit_wavefunction(geometry: SlitGeometry,
                      representation: Representation,
                      window: float | None = None,
                      n_points: int | None = None) -> SlitWavefunction:
    """Build the slit state on a grid.

    Position: plane wave of unit density 1/a across the aperture.  Momentum:
    real amplitude sinc(mu - nu)/sqrt(pi) (the Fourier transform of the
    aperture state, with the aperture centered at the origin).
    """
    if representation is Representation.POSITION:
        half = geometry.a / 2.0
        grid = np.linspace(-half, half, n_points or POSITION_POINTS)
        amp = np.exp(1j * geometry.k_x * grid) / math.sqrt(geometry.a)
    else:
        w = MOMENTUM_WINDOW if window is None else window
        grid = np.linspace(-w, w, n_points or MOMENTUM_POINTS)
        amp = (sinc(grid - geometry.nu) / math.sqrt(math.pi)).astype(complex)
    return SlitWavefunction(geometry=geometry, representation=representation,
                            grid=grid, amplitude=amp)


def fisher_from_wavefunction(psi: SlitWavefunction
                             ) -> tuple[float, float, float]:
    """Momentum-space Fisher information and its variance/phase decomposition.

    Returns ``(F_p, variance_term, phase_term)`` with

        F_p           = int (d|psi|^2/dmu)^2 / |psi|^2 dmu
        variance_term = (4/hbar^2) <(Delta X)^2>
        phase_term    = 4 int |psi|^2 [d(arg psi)/dmu + Xbar/hbar]^2 dmu

    so that F_p = variance_term - phase_term.  The phase derivative is the
    gauge-invariant Im(psi* psi')/|psi|^2, which never needs branch cuts; the
    unwrap check below only validates that the sampled phase is resolvable.
    """
    if psi.representation is not Representation.MOMENTUM:
        raise ValueError("momentum-representation wavefunction required")
    hbar = psi.geometry.hbar
    grid = psi.grid
    amp = np.asarray(psi.amplitude, dtype=complex)
    q = np.abs(amp) ** 2
    support = q > SUPPORT_EPS
    _check_phase_resolvable(amp, support)

    damp = np.gradient(amp, grid)
    cross = np.conj(amp) * damp
    dq = 2.0 * np.real(cross)
    phase_rate = np.zeros_like(q)
    phase_rate[support] = np.imag(cross[support]) / q[support]

    f_integrand = np.zeros_like(q)
    f_integrand[support] = dq[support] ** 2 / q[support]
    f_p = float(np.trapezoid(f_integrand, grid))

    kinetic = float(np.trapezoid(np.abs(damp) ** 2, grid))   # <X^2>/hbar^2
    xbar = -hbar * float(np.trapezoid(q * phase_rate, grid))
    variance_term = 4.0 * (kinetic - (xbar / hbar) ** 2)
    phase_term = 4.0 * float(np.trapezoid(q * (phase_rate + xbar / hbar) ** 2, grid))
    return f_p, variance_term, phase_term


def _check_phase_resolvable(amp: np.ndarray, support: np.ndarray) -> None:
    """Raise when the sampled phase is too coarse to track between neighbours.

    Jumps are folded modulo pi so that the exact-pi jump of a real amplitude
    changing sign (zero crossings inside the support) stays benign; what is
    flagged is a smooth-phase increment that cannot be resolved on the grid.
    """
    both = support[:-1] & support[1:]
    if not np.any(both):
        return
    raw = np.angle(amp)
    jump = np.abs(raw[1:] - raw[:-1]) % np.pi
    jump = np.minimum(jump, np.pi - jump)
    if np.any(jump[both] > 0.45 * np.pi):
        raise PhaseUnwrapFailure("phase moves too fast between adjacent grid points")

"""Non-unitary state evolution, distinguishability time series, and the
critical-scaling extractors: recurrence time (from mid-level crossings, so it
holds for the narrow peaks near the exceptional point), relaxation time and
power-law exponent.  Every fit is the one closed-form least-squares line of
``_line_fit``."""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidWindow, NoOscillation, StateAnnihilated
from .models import HamiltonianSpec, build_hamiltonian, classify_regime
from .qcore import ID2, as_density_matrix, evolve_ket, propagator

TRACE_FLOOR = 1e-300
_LOG_TRACE_FLOOR = np.log(TRACE_FLOOR)
_LN2 = np.log(2.0)
DEFAULT_POINTS = 512
MIN_RECURRENCE_POINTS = 64   # fewest samples fit_recurrence_time accepts


@dataclass
class TimeSeries:
    """Sampled scalar signal on a strictly increasing time grid."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.shape != self.values.shape or self.times.ndim != 1:
            raise ValueError("times and values must be 1-d arrays of equal length")
        if len(self.times) >= 2 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")
        if not (np.all(np.isfinite(self.times)) and np.all(np.isfinite(self.values))):
            raise ValueError("times and values must be finite")


@dataclass
class FitResult:
    parameter: float
    stderr: float
    window: tuple = field(default=(0.0, 0.0))
    residual_rms: float = 0.0


def evolve(spec: HamiltonianSpec, rho0, t: float) -> np.ndarray:
    """Normalized non-unitary evolution of rho0 to time t.

    rho(t) = U rho0 U^dag / Tr[U rho0 U^dag] with U = e^{-iHt}.  The trace
    normalization cancels any multiple of the identity added to H, so the
    balanced and passive PT families produce identical states until the
    survival probability Tr[U rho0 U^dag] falls below TRACE_FLOOR = 1e-300.
    passive-pt's carries an extra e^{-2at}, which takes it there past about
    t = 345/a: passive-pt raises StateAnnihilated where pt may still run.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t!r}")
    rho0 = as_density_matrix(rho0)
    prop = propagator(build_hamiltonian(spec), [t])
    (m00,), (m11,), (m01,) = _normalized_evolution(prop, rho0, [t])
    return np.array([[m00, m01], [m01.conjugate(), m11]])


def _normalized_evolution(prop, rho, times):
    """Entries (m00, m11, m01) of U rho U^dag / Tr[U rho U^dag] over the grid
    of ``prop = propagator(H, times)``, m00 and m11 real.

    rho is evolved as kets.  With k the index of its larger diagonal entry
    and j the other, rho_kk rho = f f^dag + d e_j e_j^dag, where f is column
    k of rho and d = det rho >= 0 (0 for a pure state), so both terms go
    through ``evolve_ket``.  An eigenvector factor would not do: its rounding
    leaks into the other direction, which the evolution amplifies by t near
    the exceptional point.  The survival probability is tested as a
    logarithm, with the propagator's e^{g} added back, which no amplified
    state overflows.  At the exceptional point a ket grows as t, and its
    square overflows past t ~ 1e154; only then are the kets scaled, at each
    time, by the one power of two 2^-e that brings their largest entry into
    [1/2, 1), and squared again.  The scaling is exact, so the normalized
    entries do not move, and e is added back in the logarithm too.
    """
    k = int(rho[1, 1].real > rho[0, 0].real)
    det = max((rho[0, 0] * rho[1, 1]).real - abs(rho[0, 1]) ** 2, 0.0)
    kets = [evolve_ket(prop, rho[:, k])]
    if det > 0:
        kets.append(evolve_ket(prop, ID2[1 - k]))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        m00, m11, m01 = _unnormalized(kets, det)
        tr = m00 + m11
        log_g2 = 2 * prop[3]   # log |e^{g}|^2
        if not tr.max(initial=0.0) < np.inf:   # an overflow; NaN takes this branch too
            e = np.frexp(np.abs(kets).max(axis=(0, 1)))[1]
            m00, m11, m01 = _unnormalized(np.array(kets) * np.ldexp(1.0, -e), det)
            tr = m00 + m11
            log_g2 = log_g2 + 2 * _LN2 * e
        log_p = np.log(tr) + (log_g2 - np.log(rho[k, k].real))
    if not log_p.min(initial=np.inf) >= _LOG_TRACE_FLOOR:   # NaN fails too
        i = np.argmax(~(log_p >= _LOG_TRACE_FLOOR))
        raise StateAnnihilated(f"log survival probability {log_p[i]:.6g} is below "
                               f"log(TRACE_FLOOR) = {_LOG_TRACE_FLOOR:.6g} at t = {times[i]}")
    return m00 / tr, m11 / tr, m01 / tr


def _unnormalized(kets, det):
    """(m00, m11, m01) of u u^dag + det v v^dag from kets = [u] or [u, v]."""
    (u0, u1), *mixed = kets
    m00 = u0.real**2 + u0.imag**2
    m11 = u1.real**2 + u1.imag**2
    m01 = u0 * u1.conj()
    for v0, v1 in mixed:
        m00 = m00 + det * (v0.real**2 + v0.imag**2)
        m11 = m11 + det * (v1.real**2 + v1.imag**2)
        m01 = m01 + det * (v0 * v1.conj())
    return m00, m11, m01


def distinguishability_series(spec: HamiltonianSpec, rho1, rho2, times) -> TimeSeries:
    """Trace distance between the two evolved states at each grid time.

    The difference of two unit-trace qubit states has eigenvalues +-r with
    r^2 = ((d00 - d11)/2)^2 + |d01|^2, so D = r, clipped to 1.
    """
    rho1 = as_density_matrix(rho1)
    rho2 = as_density_matrix(rho2)
    ts = np.asarray(times, dtype=float)
    prop = propagator(build_hamiltonian(spec), ts)
    a00, a11, a01 = _normalized_evolution(prop, rho1, ts)
    b00, b11, b01 = _normalized_evolution(prop, rho2, ts)
    z = ((a00 - b00) - (a11 - b11)) / 2
    d01 = a01 - b01
    vals = np.minimum(np.sqrt(z * z + d01.real**2 + d01.imag**2), 1.0)
    return TimeSeries(times=ts, values=vals)


def default_time_grid(spec: HamiltonianSpec, points: int = DEFAULT_POINTS) -> np.ndarray:
    """Sampling grid matched to the regime: four periods when unbroken, eight
    relaxation times when broken (as the no-symmetry family is at every a > 0
    with c != 0), a logarithmic grid at the exceptional point."""
    regime = classify_regime(spec)
    if regime.kind == "exceptional-point":
        return np.geomspace(0.1, 200.0, points)
    count = 4 if regime.kind == "unbroken" else 8   # periods T or relaxation times tau
    return np.linspace(0.0, count * regime.timescale, points)


def fit_recurrence_time(series: TimeSeries) -> FitResult:
    """Period from the upward crossings of the mid level (max + min)/2.

    Consecutive upward crossings lie one period apart whatever the waveform,
    so near the exceptional point, where D(t) is a train of narrow peaks, the
    estimate holds as well as for a near-sinusoid.  Each crossing time is
    interpolated linearly between its two samples, and T is the
    least-squares slope of crossing time against crossing index; ``stderr``
    is the slope's standard error from the residuals (inf for two
    crossings) and ``residual_rms`` the RMS of the crossing-time residuals.

    A waveform with two unequal peaks per period that both clear the mid
    level crosses it upward twice per period, so the slope alone reads T/2.
    A fitted P is accepted only when the series overlaps itself shifted by
    P: max |y(t + P) - y(t)|, with y interpolated linearly, stays within
    max |Delta^2 y|/4, twice the interpolation error.  Otherwise P is refit
    on every second crossing and checked again.

    Raises NoOscillation for a constant series, for fewer than two crossings
    (monotone decay), when an excursion above the mid level inside the
    window spans a single sample (a step wider than the excursions leaves at
    most one sample in each and may step over whole peaks, so counting
    crossings would return a multiple of T), and when neither fit overlaps
    the series with itself.  An excursion that touches either end of the
    window is cut short by it, so its length says nothing of the step; it is
    judged by the one-sample rule only when no excursion lies wholly inside
    the window (a grid that steps over every interior peak).
    """
    t, y = series.times, series.values
    if len(t) < MIN_RECURRENCE_POINTS:
        raise ValueError(f"need at least {MIN_RECURRENCE_POINTS} samples, got {len(t)}")
    dt = np.diff(t)
    if not np.allclose(dt, dt[0], rtol=1e-8, atol=0):
        raise ValueError("recurrence fit needs a uniform time grid")
    lo, hi = y.min(), y.max()
    if hi - lo < 1e-9 * max(1.0, abs(y.mean())):
        raise NoOscillation("series is constant")
    mid = (hi + lo) / 2
    edges = np.diff((y > mid).astype(np.int8), prepend=0, append=0)
    starts, ends = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)
    inside = (starts > 0) & (ends < len(y))
    single = starts[(ends - starts == 1) & (inside | ~inside.any())]
    if len(single):
        raise NoOscillation(f"the excursion above the mid level at t = {t[single[0]]:.6g} "
                            f"spans one sample; the grid step {dt[0]:.6g} does not resolve it")
    i = starts[starts > 0]
    if len(i) < 2:
        raise NoOscillation("fewer than two upward crossings of the mid level")
    crossings = t[i - 1] + (mid - y[i - 1]) / (y[i] - y[i - 1]) * dt[i - 1]
    tol = np.abs(np.diff(y, 2)).max() / 4
    for c in (crossings, crossings[::2]):
        if len(c) < 2:
            break
        period, stderr, rms = _line_fit(np.arange(len(c)), c)
        shifted = t[t <= t[-1] - period]
        if np.abs(np.interp(shifted + period, t, y) - y[:len(shifted)]).max() > tol:
            continue
        return FitResult(period, stderr, (float(t[0]), float(t[-1])), rms)
    raise NoOscillation(f"the series does not overlap itself shifted by its fitted period "
                        f"{period:.6g} within {tol:.3g}")


def window_mask(times: np.ndarray, window) -> np.ndarray:
    """Which times lie in the closed window (t_min, t_max); InvalidWindow
    when fewer than the 3 points that give a fitted line an error."""
    t_min, t_max = window
    mask = (times >= t_min) & (times <= t_max)
    if mask.sum() < 3:
        raise InvalidWindow(f"window ({t_min:g}, {t_max:g}) holds {mask.sum()} points; need >= 3")
    return mask


def _window_slice(series: TimeSeries, window, log_time: bool):
    mask = window_mask(series.times, window)
    t = series.times[mask]
    y = series.values[mask]
    if np.any(y <= 0):
        raise InvalidWindow("series has non-positive values inside the window")
    if log_time and t[0] <= 0:
        raise InvalidWindow("log-log fit needs t_min > 0")
    return t, y


def _line_fit(x: np.ndarray, y: np.ndarray):
    """Least-squares slope of y against x with x centred, the slope's
    standard error (inf from two points) and the RMS residual."""
    dx = x - x.mean()
    sxx = float(dx @ dx)
    slope = float(dx @ y / sxx)
    norm = np.hypot.reduce(y - y.mean() - slope * dx)   # sqrt(SSE), which cannot overflow
    stderr = float(norm / np.sqrt((len(x) - 2) * sxx)) if len(x) > 2 else np.inf
    return slope, stderr, float(norm / np.sqrt(len(x)))


def fit_relaxation_time(series: TimeSeries, window) -> FitResult:
    """Exponential decay constant from linear least squares of log D vs t.

    In the broken regime D(t) = C e^{-t/tau} [1 + O(e^{-t/tau})], so the fit
    is biased by the correction term, and the bias depends on the window
    only in units of tau.  On (4 tau, 12 tau) tau reads about 0.26% low at
    every a; each 4 tau the window moves later shrinks the bias by
    e^4 ~ 54: -4.7e-5 on (8 tau, 16 tau), -8.5e-7 on (12 tau, 20 tau).
    """
    t, y = _window_slice(series, window, log_time=False)
    slope, slope_err, rms = _line_fit(t, np.log(y))
    if not slope < 0:
        raise InvalidWindow(f"log D has slope {slope:g} inside the window; a relaxation needs < 0")
    return FitResult(-1.0 / slope, abs(slope_err / slope**2), (float(t[0]), float(t[-1])), rms)


def fit_power_law_exponent(series: TimeSeries, window) -> FitResult:
    """Log-log slope of the series on the window."""
    t, y = _window_slice(series, window, log_time=True)
    slope, slope_err, rms = _line_fit(np.log(t), np.log(y))
    return FitResult(slope, slope_err, (float(t[0]), float(t[-1])), rms)

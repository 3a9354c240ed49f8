"""Non-unitary state evolution, distinguishability time series, and the
critical-scaling extractors: recurrence time, relaxation time, power-law
exponent."""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidWindow, NoOscillation, StateAnnihilated
from .models import HamiltonianSpec, build_hamiltonian, classify_regime
from .qcore import as_density_matrix, propagator, trace_distance

TRACE_FLOOR = 1e-300
_LOG_TRACE_FLOOR = np.log(TRACE_FLOOR)
FOURIER_HARMONICS = 3   # more than 3 overfits desk-scale grids
DEFAULT_POINTS = 512


@dataclass
class TimeSeries:
    """Sampled scalar signal on a strictly increasing time grid."""

    times: np.ndarray
    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.shape != self.values.shape or self.times.ndim != 1:
            raise ValueError("times and values must be 1-d arrays of equal length")
        if len(self.times) >= 2 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")
        if not (np.all(np.isfinite(self.times)) and np.all(np.isfinite(self.values))):
            raise ValueError("times and values must be finite")

    def __len__(self):
        return len(self.times)


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
    balanced and passive PT families produce identical states.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t!r}")
    rho0 = as_density_matrix(rho0)
    W, g = propagator(build_hamiltonian(spec), [t])
    return as_density_matrix(_normalized_evolution(W, g, rho0, [t])[0])


def _normalized_evolution(W, g, rho, times):
    """W rho W^dag / Tr[W rho W^dag] over a ``propagator`` stack; the survival
    probability e^{2g} Tr[W rho W^dag] is tested as a logarithm, which no
    amplified state overflows."""
    m = W @ rho @ W.conj().transpose(0, 2, 1)
    tr = m.trace(axis1=1, axis2=2).real
    with np.errstate(divide="ignore", invalid="ignore"):
        log_p = np.log(tr) + 2 * g
    if not log_p.min(initial=np.inf) >= _LOG_TRACE_FLOOR:   # NaN fails too
        k = np.argmax(~(log_p >= _LOG_TRACE_FLOOR))
        raise StateAnnihilated(f"log survival probability {log_p[k]:.6g} is below "
                               f"log(TRACE_FLOOR) = {_LOG_TRACE_FLOOR:.6g} at t = {times[k]}")
    return m / tr[:, None, None]


def distinguishability_series(spec: HamiltonianSpec, rho1, rho2, times) -> TimeSeries:
    """Trace distance between the two evolved states at each grid time."""
    rho1 = as_density_matrix(rho1)
    rho2 = as_density_matrix(rho2)
    ts = np.asarray(times, dtype=float)
    W, g = propagator(build_hamiltonian(spec), ts)
    vals = trace_distance(_normalized_evolution(W, g, rho1, ts),
                          _normalized_evolution(W, g, rho2, ts))
    label = f"D(t) {spec.family.value} a={spec.a:g}"
    if spec.family.value == "nosym":
        label += f" c={spec.c:g}"
    return TimeSeries(times=ts, values=vals, label=label)


def default_time_grid(spec: HamiltonianSpec, points: int = DEFAULT_POINTS) -> np.ndarray:
    """Sampling grid matched to the regime: four periods when unbroken, eight
    relaxation times when broken, a logarithmic grid at the exceptional point.

    The no-symmetry family decays without a closed-form timescale; a uniform
    [0, 10] grid covers the regime probed here.
    """
    if spec.family.value == "nosym":
        return np.linspace(0.0, 10.0, points)
    regime = classify_regime(spec.a)
    if regime.kind == "unbroken":
        period = np.pi / np.sqrt(1.0 - spec.a**2)
        return np.linspace(0.0, 4 * period, points)
    if regime.kind == "broken":
        tau = 1.0 / (2.0 * np.sqrt(spec.a**2 - 1.0))
        return np.linspace(0.0, 8 * tau, points)
    return np.geomspace(0.1, 200.0, points)


def _fourier_design(t: np.ndarray, f: float) -> np.ndarray:
    cols = [np.ones_like(t)]
    for h in range(1, FOURIER_HARMONICS + 1):
        w = 2 * np.pi * h * f * t
        cols.append(np.cos(w))
        cols.append(np.sin(w))
    return np.column_stack(cols)


def _fourier_sse(t: np.ndarray, y: np.ndarray, f: float) -> float:
    design = _fourier_design(t, f)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    r = y - design @ coef
    return float(r @ r)


def fit_recurrence_time(series: TimeSeries) -> FitResult:
    """Period of the dominant oscillation.

    A discrete Fourier transform locates the dominant peak; the frequency is
    then refined by least squares of a truncated Fourier series (three
    harmonics) over the full window.  Raises NoOscillation when the spectrum
    has no interior peak above the noise floor, as for monotone decay.
    """
    t, y = series.times, series.values
    if len(t) < 64:
        raise ValueError(f"need at least 64 samples, got {len(t)}")
    dt = np.diff(t)
    if not np.allclose(dt, dt[0], rtol=1e-8, atol=0):
        raise ValueError("recurrence fit needs a uniform time grid")
    y = y - y.mean()
    if np.ptp(y) < 1e-9 * max(1.0, abs(series.values.mean())):
        raise NoOscillation("series is constant")
    mags = np.abs(np.fft.rfft(y))
    k = int(np.argmax(mags[1:]) + 1)
    if k < 2 or k + 1 >= len(mags):
        raise NoOscillation("dominant power sits at the edge of the spectrum")
    if not (mags[k] > mags[k - 1] and mags[k] >= mags[k + 1]):
        raise NoOscillation("no interior spectral peak")
    if mags[k] < 5.0 * np.median(mags[1:]):
        raise NoOscillation("spectral peak does not clear the noise floor")

    # parabolic interpolation of the peak bin, then nonlinear refinement
    denom = mags[k - 1] - 2 * mags[k] + mags[k + 1]
    shift = 0.5 * (mags[k - 1] - mags[k + 1]) / denom if denom != 0 else 0.0
    f0 = (k + shift) / (len(t) * dt[0])
    # imported here: scipy.optimize adds about 20 MB and 0.1 s to the import
    # of ptsim, and only this fit and the angle synthesis use it
    from scipy.optimize import minimize_scalar

    opt = minimize_scalar(
        lambda f: _fourier_sse(t, y, f),
        bounds=(0.7 * f0, 1.3 * f0),
        method="bounded",
        options={"xatol": 1e-13},
    )
    f_hat = float(opt.x)
    span = t[-1] - t[0]
    if 1.0 / f_hat > span / 2:
        raise NoOscillation("fewer than two periods in the window")

    sse = _fourier_sse(t, y, f_hat)
    dof = max(len(t) - (2 * FOURIER_HARMONICS + 2), 1)
    h = 1e-6 * f_hat
    curv = (_fourier_sse(t, y, f_hat + h) - 2 * sse + _fourier_sse(t, y, f_hat - h)) / h**2
    var_f = 2.0 * (sse / dof) / curv if curv > 0 else np.inf
    stderr_f = np.sqrt(var_f) if np.isfinite(var_f) else 0.0
    return FitResult(
        parameter=1.0 / f_hat,
        stderr=float(stderr_f / f_hat**2),
        window=(float(t[0]), float(t[-1])),
        residual_rms=float(np.sqrt(sse / len(t))),
    )


def _window_slice(series: TimeSeries, window, log_time: bool):
    t_min, t_max = window
    mask = (series.times >= t_min) & (series.times <= t_max)
    if mask.sum() < 3:
        raise InvalidWindow(f"window {window} selects {int(mask.sum())} points; need >= 3")
    t = series.times[mask]
    y = series.values[mask]
    if np.any(y <= 0):
        raise InvalidWindow("series has non-positive values inside the window")
    if log_time and t[0] <= 0:
        raise InvalidWindow("log-log fit needs t_min > 0")
    return t, y


def _line_fit(x: np.ndarray, logy: np.ndarray):
    coef, cov = np.polyfit(x, logy, 1, cov=True)
    resid = logy - np.polyval(coef, x)
    rms = float(np.sqrt(np.mean(resid**2)))
    return float(coef[0]), float(np.sqrt(cov[0, 0])), rms


def fit_relaxation_time(series: TimeSeries, window) -> FitResult:
    """Exponential decay constant from linear least squares of log D vs t."""
    t, y = _window_slice(series, window, log_time=False)
    slope, slope_err, rms = _line_fit(t, np.log(y))
    tau = -1.0 / slope
    return FitResult(
        parameter=tau,
        stderr=abs(slope_err / slope**2),
        window=(float(t[0]), float(t[-1])),
        residual_rms=rms,
    )


def fit_power_law_exponent(series: TimeSeries, window) -> FitResult:
    """Log-log slope of the series on the window."""
    t, y = _window_slice(series, window, log_time=True)
    slope, slope_err, rms = _line_fit(np.log(t), np.log(y))
    return FitResult(
        parameter=slope,
        stderr=slope_err,
        window=(float(t[0]), float(t[-1])),
        residual_rms=rms,
    )

"""Batch experiment runner.

Subcommands reproduce the simulated datasets behind each figure as CSV, plus
circuit compilation and tomography.  Every experiment is deterministic given
its seed: CSV numbers carry 17 significant digits with LF line endings, so a
re-run with the same configuration is byte-identical.

Configuration files are flat key-value text (``key = value``, ``#`` comments)
whose keys match the long option names; command-line flags win over file
values.  The sweepable keys ``family``, ``a``, ``c`` and ``initial`` accept
semicolon-separated lists of equal length, which fan out into one run (and
one output file) per entry; every run is checked before the first one starts.
"""

import argparse
import functools
import itertools
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import embedding, optics
from .dynamics import (
    MIN_RECURRENCE_POINTS, default_time_grid, distinguishability_series, evolve,
    fit_power_law_exponent, fit_recurrence_time, fit_relaxation_time, window_mask,
)
from .errors import CompileFailed, ConfigError, InvalidWindow, NoOscillation, PTSimError
from .models import Family, HamiltonianSpec, build_hamiltonian, classify_regime
from .qcore import fidelity, mat_exp, polarization_ket, pure_state
from .tomography import born_probabilities, mle_reconstruct, simulate_counts, standard_bases

_SWEEP_KEYS = ("family", "a", "c", "initial")


def _conversion(value) -> str:
    """printf conversion of a value: an integer in full, a float to 17
    significant digits (which round-trips every double), anything else as
    its str."""
    if isinstance(value, (int, np.integer)):
        return "%d"
    if isinstance(value, (float, np.floating)):
        return "%.17g"
    return "%s"


def _write_text(path, text: str):
    out = Path(path)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="\n") as fh:
        fh.write(text)


def write_csv(path, meta: dict, header, rows):
    """Write rows with deterministic formatting: 17 significant digits, LF.

    Each column keeps the type of its first row, so one format string,
    built from that row and repeated once per row, formats the whole body in
    one call.
    """
    lines = [f"# {k} = " + _conversion(v) % (v,) for k, v in meta.items()]
    lines.append(",".join(header))
    rows = list(rows)
    if rows:
        row_format = ",".join(map(_conversion, rows[0]))
        lines.append("\n".join([row_format] * len(rows))
                     % tuple(itertools.chain.from_iterable(rows)))
    _write_text(path, "\n".join(lines) + "\n")


def load_config(path) -> dict:
    """Parse a flat key-value config file, collecting every violation."""
    violations = []
    values = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError([f"config: cannot read {path}: {exc}"]) from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, val = (part.strip() for part in line.partition("="))
        if not sep:
            violations.append(f"config line {lineno}: expected 'key = value', got {raw!r}")
        elif not key:
            violations.append(f"config line {lineno}: empty key")
        elif key in values:
            violations.append(f"config line {lineno}: duplicate key {key!r}")
        else:
            values[key] = val
    if violations:
        raise ConfigError(violations)
    return values


def _run_seed(master: int, index: int) -> int:
    """Deterministic per-run seed derived from the master seed."""
    return int(np.random.SeedSequence(master, spawn_key=(index,)).generate_state(1)[0])


class _Invalid(ValueError):
    """Text naming an inadmissible value; the message is the violation."""


def _admit(convert, admitted, message: str):
    """Parser that converts the text and refuses values ``admitted`` rejects,
    saying ``message`` formatted with ``value`` and ``raw``."""
    def parse(raw: str):
        value = convert(raw)
        if not admitted(value):
            raise _Invalid(message.format(value=value, raw=raw))
        return value
    return parse


def _pt_regime(a: float):
    """Regime of the pt family at a, which scaling and embed run; _Invalid
    when its w^2 overflows."""
    try:
        return classify_regime(HamiltonianSpec(Family.PT, a))
    except ValueError as exc:
        raise _Invalid(str(exc)) from None


def _family(raw: str) -> Family:
    return Family(raw.lower())


def _floats(raw: str) -> tuple:
    return tuple(float(x) for x in raw.split(","))


def _kets(raw: str):
    """Polarization kets and their labels from comma-separated labels."""
    labels = tuple(s.strip() for s in raw.split(","))
    try:
        return tuple(polarization_ket(label) for label in labels), labels
    except ValueError as exc:
        raise _Invalid(str(exc)) from None


def _target_file(raw: str) -> np.ndarray:
    """One matrix row per line, comma-separated complex literals."""
    try:
        rows = [[complex(tok.strip().replace(" ", "")) for tok in line.split(",")]
                for line in map(str.strip, Path(raw).read_text().splitlines())
                if line and not line.startswith("#")]
        return np.array(rows, dtype=complex)
    except (OSError, ValueError) as exc:
        raise _Invalid(str(exc)) from exc


_positive_int = _admit(int, lambda n: n > 0, "must be an integer > 0, got {raw!r}")
_finite_nonnegative = _admit(float, lambda x: 0 <= x < np.inf,
                             "must be finite and >= 0, got {value}")
_finite_positive = _admit(float, lambda x: 0 < x < np.inf, "must be finite and > 0, got {value}")
# the one rule for embed's a and compile's embedded family: no dilation unless unbroken
_dilation_a = _admit(_finite_nonnegative, lambda a: _pt_regime(a).kind == "unbroken",
                     "embedding needs the unbroken regime, got {value}")
_two_kets = _admit(_kets, lambda kets: len(kets[1]) == 2,
                   "expected two comma-separated states, got {raw!r}")
_distinct_kets = _admit(_two_kets, lambda kets: kets[1][0] != kets[1][1],
                        "{raw} gives one state twice, so D(t) = 0 at every t: nothing to fit")
_VARIANTS = [v.value for v in optics.DecompositionVariant]

_PARSERS = {
    "seed": _admit(int, lambda n: n >= 0, "must be an integer >= 0, got {raw!r}"),
    # the qubit experiments evolve a 2x2 Hamiltonian; compile also takes the dilation
    "family": _admit(_family, lambda f: f is not Family.EMBEDDED,
                     "embedded is the two-qubit dilation; use embed or compile"),
    "a": _finite_nonnegative,
    "c": float,
    "initial": _two_kets,
    "state": _admit(_kets, lambda kets: len(kets[1]) == 1, "expected one state, got {raw!r}"),
    "t": _finite_nonnegative,
    "t-min": _finite_positive,
    "t-max": _finite_positive,
    "points": _positive_int,
    "shots": _positive_int,
    "restarts": _positive_int,
    "window": _admit(_floats, lambda w: len(w) == 2, "expected t0,t1, got {raw!r}"),
    "regime": _admit(str.lower, lambda r: r in _SCALING,
                     "expected unbroken or broken, got {raw!r}"),
    "variant": _admit(str.lower, lambda v: v in _VARIANTS,
                      f"expected one of {_VARIANTS}, got {{raw!r}}"),
    "target-file": _target_file,
}


def _parse(key: str, raw, parser, violations: list):
    """Parsed text, or a value put through a rule; None with its violation recorded."""
    try:
        return parser(raw)
    except _Invalid as exc:
        violations.append(f"{key}: {exc}")
    except (ValueError, TypeError):
        violations.append(f"{key}: cannot parse {raw!r}")
    return None


def _spec_meta(spec: HamiltonianSpec) -> dict:
    return {"family": spec.family.value, "a": spec.a, "c": spec.c}


def _check_powerlaw(v) -> list:
    """The exponent fit's window must hold enough points of the planned grid."""
    if "grid" in v:
        try:
            window_mask(v["grid"], v["window"])
        except InvalidWindow as exc:
            return [f"window: {exc}"]
    return []


def _run_distinguishability(v, seed, out):
    spec, ((k1, k2), labels) = v["spec"], v["initial"]
    series = distinguishability_series(spec, pure_state(k1), pure_state(k2), v["grid"])
    meta = {"experiment": "distinguishability", **_spec_meta(spec),
            "initial": "|".join(labels), "seed": seed}
    write_csv(out, meta, ["t", "D"], zip(series.times, series.values))
    summary = f"family={spec.family.value} a={spec.a!r} initial={','.join(labels)}"
    regime = classify_regime(spec)
    if regime.kind == "exceptional-point":
        return f"{summary} no-recurrence (D(t) does not recur at the exceptional point) -> {out}"
    if regime.kind == "broken":
        summary += f" tau_theory={regime.timescale:.6g}"
    try:
        summary += f" T_fit={fit_recurrence_time(series).parameter:.6g}"
    except (NoOscillation, ValueError) as exc:
        return f"{summary} no-recurrence ({exc}) -> {out}"
    if regime.kind == "unbroken":
        summary += f" T_theory={regime.timescale:.6g}"
    return f"{summary} -> {out}"


# each scaling regime's default a values
_SCALING = {"unbroken": (0.2, 0.5, 0.8, 0.9), "broken": (1.1, 1.25, 1.5, 2.0)}


def _check_scaling(v) -> list:
    regime, points = v["regime"], v["points"]
    if regime is None:
        return []
    v["a"] = v["a"] or _SCALING[regime]
    violations = []
    for a in v["a"]:
        kind = _parse("a", a, lambda x: _pt_regime(x).kind, violations)
        if a == 0:
            violations.append(f"a: {a} makes H Hermitian, so D(t) is constant and has no timescale")
        elif kind not in (None, regime):   # None: w^2 overflows, already recorded
            violations.append(f"a: {a} is in the {kind} regime, not the {regime} one")
    if regime == "unbroken" and points is not None and points < MIN_RECURRENCE_POINTS:
        violations.append(f"points: the recurrence fit needs >= {MIN_RECURRENCE_POINTS}, "
                          f"got {points}")
    return violations


def _run_scaling(v, seed, out):
    regime, points, ((k1, k2), labels) = v["regime"], v["points"], v["initial"]
    rho1, rho2 = pure_state(k1), pure_state(k2)
    rows = []
    for a in v["a"]:
        spec = HamiltonianSpec(Family.PT, a)
        theory = classify_regime(spec).timescale
        if regime == "unbroken":
            grid = default_time_grid(spec, points)
            fit = fit_recurrence_time(distinguishability_series(spec, rho1, rho2, grid))
        else:
            grid = np.linspace(0.0, 13 * theory, points)
            series = distinguishability_series(spec, rho1, rho2, grid)
            fit = fit_relaxation_time(series, (4 * theory, 12 * theory))
        rows.append((a, fit.parameter, theory))
    name = "T" if regime == "unbroken" else "tau"
    meta = {"experiment": "scaling", "regime": regime, "initial": "|".join(labels),
            "points": points, "seed": seed}
    write_csv(out, meta, ["a", f"{name}_fit", f"{name}_theory"], rows)
    return f"regime={regime} {len(rows)} points -> {out}"


def _run_powerlaw(v, seed, out):
    spec, ((k1, k2), labels), window = v["spec"], v["initial"], v["window"]
    series = distinguishability_series(spec, pure_state(k1), pure_state(k2), v["grid"])
    fit = fit_power_law_exponent(series, window)
    meta = {"experiment": "powerlaw", **_spec_meta(spec), "initial": "|".join(labels),
            "window": f"{window[0]:g}..{window[1]:g}", "exponent_fit": fit.parameter,
            "seed": seed}
    write_csv(out, meta, ["t", "D"], zip(series.times, series.values))
    return (f"family={spec.family.value} a={spec.a!r} initial={','.join(labels)} "
            f"exponent={fit.parameter:.4f} (stderr {fit.stderr:.2g}) -> {out}")


def _run_embed(v, seed, out):
    a, ((k1, k2), labels), grid = v["a"], v["initial"], v["grid"]
    d = distinguishability_series(HamiltonianSpec(Family.PT, a), pure_state(k1),
                                  pure_state(k2), grid)
    s = embedding.entanglement_entropy_series(a, k1, grid)
    meta = {"experiment": "embed", "a": a, "initial": "|".join(labels),
            "entropy_log_base": 2, "seed": seed}
    # the total state is pure, so I = 2S as in mutual_information_series
    write_csv(out, meta, ["t", "D", "S", "I"], zip(grid, d.values, s.values, 2 * s.values))
    return f"a={a!r} initial={','.join(labels)} (S, I follow {labels[0]}) -> {out}"


def _run_tomography(v, seed, out):
    spec, ((ket,), (state,)), t, shots = v["spec"], v["state"], v["t"], v["shots"]
    rho = evolve(spec, pure_state(ket), t)
    bases = standard_bases(2)
    probs = born_probabilities(rho, bases)
    records = simulate_counts(probs, shots, seed, labels=[b.label for b in bases])
    meta = {"experiment": "tomography", **_spec_meta(spec), "state": state, "t": t,
            "shots": shots, "seed": seed}
    rows = [(r.basis_label, r.counts, r.shots, r.seed) for r in records]
    write_csv(out, meta, ["basis_label", "counts", "shots", "seed"], rows)
    fid = fidelity(mle_reconstruct(records, bases), rho)
    return f"a={spec.a!r} t={t!r} state={state} mle_fidelity={fid:.6f} -> {out}"


def _check_compile(v) -> list:
    """The variant fixes the target's dimension; the embedded family's is 4."""
    target, family, variant = v["target-file"], v["family"], v["variant"]
    violations = []
    if target is None and family is Family.EMBEDDED and "spec" in v:
        _parse("a", v["a"], _dilation_a, violations)
    if variant is None or (target is None and None in (family, v["a"])):
        return violations
    shape = target.shape if target is not None else (4, 4) if family is Family.EMBEDDED else (2, 2)
    dim = 4 if variant == optics.DecompositionVariant.TWO_QUBIT else 2
    if shape != (dim, dim):
        source = "the target file" if target is not None else f"family {family.value}"
        violations.append(f"variant: {variant} needs a {dim}x{dim} target; {source} gives "
                          f"shape {shape}")
    return violations


def _run_compile(v, seed, out):
    target, variant, restarts = v["target-file"], v["variant"], v["restarts"]
    if target is None:
        target = mat_exp(build_hamiltonian(v["spec"]), v["t"])
    if variant == optics.DecompositionVariant.TWO_QUBIT:
        sol = optics.compile_two_qubit(target, restarts=restarts, seed=seed)
    else:
        sol = optics.compile_single_qubit(target, variant, restarts=restarts, seed=seed)
    _write_text(out, optics.solution_record(sol))
    if not sol.success:
        raise CompileFailed(sol.residual)
    return f"variant={sol.variant.value} residual={sol.residual:.3g} -> {out}"


@dataclass(frozen=True)
class Experiment:
    """One subcommand.  ``runner(values, seed, out)`` writes one run's output
    and returns its summary line.  ``options`` maps each key to its default
    text (None: no default); a ``required`` entry ``x`` or ``x|y`` names keys
    of which one must be given; ``parsers`` replaces ``_PARSERS`` for keys read
    differently; ``grid`` builds a series run's time grid from its valid
    values before ``check``, which returns a run's violations and may fill
    values;
    ``suffix`` ends the default output path out/<name>_{i}<suffix>."""

    help: str
    runner: Callable
    options: dict
    required: tuple = ()
    sweeps: bool = False
    parsers: dict = field(default_factory=dict)
    check: Callable = lambda values: []
    grid: Callable | None = None
    suffix: str = ".csv"


EXPERIMENTS = {
    "distinguishability": Experiment(
        "trace-distance series D(t)", _run_distinguishability,
        {"family": "pt", "a": None, "c": "0", "initial": "H,V", "t-max": None, "points": "512"},
        required=("a",), sweeps=True,
        grid=lambda v: (default_time_grid(v["spec"], v["points"]) if v["t-max"] is None
                        else np.linspace(0.0, v["t-max"], v["points"]))),
    "scaling": Experiment(
        "recurrence or relaxation time versus a", _run_scaling,
        {"regime": "unbroken", "a": None, "initial": "H,V", "points": "512"},
        parsers={"a": lambda raw: tuple(map(_finite_nonnegative, raw.split(","))),
                 "initial": _distinct_kets},
        check=_check_scaling),
    "powerlaw": Experiment(
        "exceptional-point log-log series and exponent", _run_powerlaw,
        {"family": "pt", "a": None, "c": "0", "initial": "H,V", "t-min": "0.1",
         "t-max": "200", "points": "512", "window": "20,200"},
        required=("a",), sweeps=True, parsers={"initial": _distinct_kets}, check=_check_powerlaw,
        grid=lambda v: np.geomspace(v["t-min"], v["t-max"], v["points"])),
    "embed": Experiment(
        "two-qubit dilation: D, entanglement entropy, mutual information", _run_embed,
        {"a": "0.5", "initial": "H,V", "t-max": None, "points": "256"},
        sweeps=True, parsers={"a": _dilation_a},
        grid=lambda v: np.linspace(0.0, v["t-max"] or 2 * _pt_regime(v["a"]).timescale,
                                   v["points"])),   # two recurrence periods by default
    "tomography": Experiment(
        "simulated photon counts and MLE reconstruction", _run_tomography,
        {"family": "pt", "a": None, "c": "0", "state": "H", "t": "1.0", "shots": "18000"},
        required=("a",)),
    "compile": Experiment(
        "wave-plate angle synthesis for a target operator", _run_compile,
        {"variant": None, "target-file": None, "family": "passive-pt", "a": None,
         "c": "0", "t": "1.0", "restarts": "50"},
        required=("variant", "target-file|a"), parsers={"family": _family},
        check=_check_compile, suffix=".txt"),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptsim", description="Experiment runner for PT-symmetric non-unitary dynamics")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = [(name, e.help, list(e.options)) for name, e in EXPERIMENTS.items()]
    every_key = sorted({key for e in EXPERIMENTS.values() for key in e.options})
    commands.append(("run", "run the experiment named in a config file", every_key))
    for name, help_text, keys in commands:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat key-value config file")
        p.add_argument("--seed", help="master seed (default 0)")
        p.add_argument("--out", help="output path (template for sweeps)")
        for key in keys:
            p.add_argument(f"--{key}", dest=key.replace("-", "_"))
    return parser


def _raw_options(ns: argparse.Namespace):
    """The experiment and its option text: config file values under the flags."""
    flags = {key.replace("_", "-"): text.strip() for key, text in vars(ns).items()
             if text is not None and key != "command"}
    values = load_config(ns.config) if ns.config else {}
    command = values.get("experiment") if ns.command == "run" else ns.command
    if command not in EXPERIMENTS:
        raise ConfigError(
            [f"experiment: config must name one of {tuple(EXPERIMENTS)}, got {command!r}"])
    allowed = {*EXPERIMENTS[command].options, "config", "seed", "out"}
    violations = [f"config key {key!r} is not valid for {command}"
                  for key in values if key not in allowed | {"experiment"}]
    if values.get("experiment", command) != command:
        violations.append(f"experiment: config says {values['experiment']!r} "
                          f"but the subcommand is {command!r}")
    # only `run` has flags that its experiment may not take
    violations += [f"flag --{key} is not valid for {command}"
                   for key in flags if key not in allowed]
    if violations:
        raise ConfigError(violations)
    values.pop("experiment", None)
    return command, {**values, **flags}


def _plan(ns: argparse.Namespace) -> list:
    """(runner, values, seed, out) of every run, or a ConfigError naming every
    violation found in any run."""
    name, raw = _raw_options(ns)
    exp = EXPERIMENTS[name]
    sweep = {key: [s.strip() for s in raw[key].split(";")]
             for key in _SWEEP_KEYS if raw.get(key)}
    width = max(map(len, sweep.values()), default=1)
    violations = [f"{key}: sweep length {len(texts)} does not match {width}"
                  for key, texts in sweep.items() if len(texts) not in (1, width)]
    if width > 1 and not exp.sweeps:
        violations.append(f"{name}: sweeps are not supported")
    master_seed = _parse("seed", raw.get("seed") or "0", _PARSERS["seed"], violations)
    if violations:
        raise ConfigError(violations)
    template = raw.get("out") or f"out/{name}_{{i}}{exp.suffix}"
    jobs = []
    for i in range(width):
        before = len(violations)
        # a key given once holds for every run of the sweep
        run = {**raw, **{key: texts[i % len(texts)] for key, texts in sweep.items()}}
        values = {}
        for key, default in exp.options.items():
            text = run.get(key) or default
            parser = exp.parsers.get(key, _PARSERS[key])
            values[key] = None if text is None else _parse(key, text, parser, violations)
        for entry in exp.required:
            keys = entry.split("|")
            if not any(run.get(key) for key in keys):
                violations.append(f"{name}: provide " + " or ".join(f"--{k}" for k in keys)
                                  if len(keys) > 1 else f"{entry}: required, no value given")
        family, c = values.get("family"), values.get("c")
        if c and family not in (None, Family.NO_SYMMETRY):   # -0.0 is falsy, so admitted
            violations.append(f"c: family {family.value} takes no c (only nosym does), got {c}")
        elif "family" in values and None not in (family, values["a"], c):
            try:
                values["spec"] = HamiltonianSpec(family, values["a"], c)
            except ValueError as exc:
                violations.append(f"hamiltonian: {exc}")
        if exp.grid and len(violations) == before:
            grid = exp.grid(values)
            if np.all(np.diff(grid) > 0):   # a series needs strictly increasing times
                values["grid"] = grid
            else:
                violations.append(f"times: {len(grid)} points from {grid[0]:g} to "
                                  f"{grid[-1]:g} do not strictly increase")
        violations += exp.check(values)
        subs = {key: run.get(key, "") for key in _SWEEP_KEYS}
        subs["initial"] = subs["initial"].replace(",", "")
        try:
            out = template.format(i=i, **subs)
        except (KeyError, IndexError, ValueError):
            violations.append(f"out: bad placeholder in {template!r}")
            out = None
        jobs.append((exp.runner, values, _run_seed(master_seed, i), out))
    outs = [job[3] for job in jobs]
    shared = sorted({out for out in outs if out is not None and outs.count(out) > 1})
    if shared:
        violations.append(f"out: {template!r} gives more than one run the path "
                          f"{', '.join(map(repr, shared))}; use a placeholder such as {{i}}")
    if violations:
        raise ConfigError(list(dict.fromkeys(violations)))   # once, not once per run
    return jobs


def main(argv=None) -> int:
    ns = _build_parser().parse_args(argv)
    try:
        for runner, values, seed, out in _plan(ns):
            print(runner(values, seed, out))
        return 0
    except PTSimError as exc:
        record = {"error": type(exc).__name__}
        if isinstance(exc, ConfigError):
            record["violations"] = exc.violations
        elif isinstance(exc, CompileFailed):
            record["residual"] = exc.residual
        else:
            record["message"] = str(exc)
        print(json.dumps(record), file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1


if __name__ == "__main__":
    sys.exit(main())

"""Batch experiment runner.

Subcommands reproduce the simulated datasets behind each figure as CSV, plus
circuit compilation and tomography.  Every experiment is deterministic given
its seed: CSV numbers carry 17 significant digits with LF line endings, so a
re-run with the same configuration is byte-identical.

Configuration files are flat key-value text (``key = value``, ``#`` comments)
whose keys match the long option names; command-line flags win over file
values.  The sweepable keys ``family``, ``a``, ``c`` and ``initial`` accept
semicolon-separated lists of equal length, which fan out into one run (and
one output file) per entry.
"""

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import embedding, optics, tomography
from .dynamics import (
    default_time_grid,
    distinguishability_series,
    fit_power_law_exponent,
    fit_recurrence_time,
    fit_relaxation_time,
)
from .errors import CompileFailed, ConfigError, NoOscillation, PTSimError
from .models import Family, HamiltonianSpec, build_hamiltonian, classify_regime
from .qcore import mat_exp, polarization_ket, pure_state
from .tomography import born_probabilities, mle_reconstruct, simulate_counts, standard_bases

EXPERIMENTS = ("distinguishability", "scaling", "powerlaw", "embed", "tomography", "compile")

_COMMON_KEYS = ("experiment", "seed", "out", "config")
_EXPERIMENT_KEYS = {
    "distinguishability": ("family", "a", "c", "initial", "t-max", "points"),
    "scaling": ("regime", "a", "initial", "points"),
    "powerlaw": ("family", "a", "c", "initial", "t-min", "t-max", "points", "window"),
    "embed": ("a", "initial", "t-max", "points"),
    "tomography": ("family", "a", "c", "state", "t", "shots"),
    "compile": ("variant", "target-file", "family", "a", "c", "t", "restarts"),
}


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def write_csv(path, meta: dict, header, rows):
    """Write rows with deterministic formatting: 17 significant digits, LF."""
    out = Path(path)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"# {k} = {_fmt(v)}" for k, v in meta.items()]
    lines.append(",".join(header))
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    with open(out, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


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
        if "=" not in line:
            violations.append(f"config line {lineno}: expected 'key = value', got {raw!r}")
            continue
        key, _, val = line.partition("=")
        key = key.strip()
        if not key:
            violations.append(f"config line {lineno}: empty key")
            continue
        if key in values:
            violations.append(f"config line {lineno}: duplicate key {key!r}")
            continue
        values[key] = val.strip()
    if violations:
        raise ConfigError(violations)
    return values


def _run_seed(master: int, index: int) -> int:
    """Deterministic per-run seed derived from the master seed."""
    return int(np.random.SeedSequence(master, spawn_key=(index,)).generate_state(1)[0])


class _Violations(list):
    def parse(self, raw, name, conv, default=None):
        if raw is None:
            return default
        try:
            return conv(raw)
        except (ValueError, TypeError):
            self.append(f"{name}: cannot parse {raw!r}")
            return default


def _parse_family(raw: str) -> Family:
    return Family(raw.strip().lower())


def _parse_initial_pair(raw: str):
    labels = [s.strip() for s in raw.split(",")]
    if len(labels) != 2:
        raise ValueError(raw)
    return tuple(polarization_ket(lbl) for lbl in labels), tuple(labels)


def _positive_int(raw: str) -> int:
    v = int(raw)
    if v <= 0:
        raise ValueError(raw)
    return v


def _sweep_values(ns, errors: _Violations):
    """Expand semicolon lists in the sweepable fields into aligned runs."""
    fields = {}
    for name in ("family", "a", "c", "initial"):
        raw = getattr(ns, name, None)
        fields[name] = None if raw is None else [s.strip() for s in str(raw).split(";")]
    width = max((len(v) for v in fields.values() if v is not None), default=1)
    for name, vals in fields.items():
        if vals is None:
            fields[name] = [None] * width
        elif len(vals) == 1:
            fields[name] = vals * width
        elif len(vals) != width:
            errors.append(
                f"{name}: sweep length {len(vals)} does not match {width}"
            )
            fields[name] = (vals * width)[:width]
    return [dict(zip(fields, combo)) for combo in zip(*fields.values())]


def _resolve_out(template: str, subs: dict, n_runs: int, errors: _Violations) -> str:
    try:
        path = template.format(**subs)
    except (KeyError, IndexError, ValueError):
        errors.append(f"out: bad placeholder in {template!r}")
        return template
    if n_runs > 1 and path == template and "{" not in template:
        errors.append(
            f"out: {template!r} needs a placeholder such as {{i}} or {{a}} "
            f"to separate {n_runs} sweep runs"
        )
    return path


def _spec_from(run: dict, errors: _Violations, default_family="pt") -> HamiltonianSpec | None:
    fam = errors.parse(run["family"] or default_family, "family", _parse_family)
    a = errors.parse(run["a"], "a", float)
    c = errors.parse(run["c"] or "0", "c", float, 0.0)
    if fam is None or a is None or c is None:
        return None
    if a < 0:
        errors.append(f"a: must be >= 0, got {a}")
        return None
    try:
        return HamiltonianSpec(fam, a, c)
    except (ValueError, PTSimError) as exc:
        errors.append(f"hamiltonian: {exc}")
        return None


# ---------------------------------------------------------------------------
# experiment implementations (one run each; sweeps fan out above)

def _run_distinguishability(run, ns, seed, out):
    errors = _Violations()
    spec = _spec_from(run, errors)
    initial = errors.parse(run["initial"] or "H,V", "initial", _parse_initial_pair)
    points = errors.parse(ns.points or "512", "points", _positive_int)
    t_max = errors.parse(ns.t_max, "t-max", float)
    if errors:
        raise ConfigError(errors)
    (k1, k2), labels = initial
    grid = (
        np.linspace(0.0, t_max, points)
        if t_max is not None
        else default_time_grid(spec, points)
    )
    series = distinguishability_series(spec, pure_state(k1), pure_state(k2), grid)
    meta = {
        "experiment": "distinguishability",
        "family": spec.family.value,
        "a": spec.a,
        "c": spec.c,
        "initial": "|".join(labels),
        "seed": seed,
    }
    write_csv(out, meta, ["t", "D"], zip(series.times, series.values))
    summary = f"family={spec.family.value} a={spec.a:g} initial={','.join(labels)}"
    try:
        fit = fit_recurrence_time(series)
        theory = (
            np.pi / np.sqrt(1 - spec.a**2)
            if spec.family is not Family.NO_SYMMETRY and spec.a < 1
            else None
        )
        summary += f" T_fit={fit.parameter:.6g}"
        if theory is not None:
            summary += f" T_theory={theory:.6g}"
    except (NoOscillation, ValueError):
        summary += " no-recurrence"
    return f"{summary} -> {out}"


def _run_scaling(run, ns, seed, out):
    errors = _Violations()
    regime = (ns.regime or "unbroken").strip().lower()
    if regime not in ("unbroken", "broken"):
        errors.append(f"regime: expected unbroken or broken, got {ns.regime!r}")
    raw_a = run["a"] or ("0.2,0.5,0.8,0.9" if regime == "unbroken" else "1.1,1.25,1.5,2.0")
    a_values = errors.parse(raw_a.replace(";", ","), "a",
                            lambda s: [float(v) for v in s.split(",")])
    initial = errors.parse(run["initial"] or "H,V", "initial", _parse_initial_pair)
    points = errors.parse(ns.points or "512", "points", _positive_int)
    if errors:
        raise ConfigError(errors)
    (k1, k2), labels = initial
    rho1, rho2 = pure_state(k1), pure_state(k2)
    rows = []
    for a in a_values:
        spec = HamiltonianSpec(Family.PT, a)
        if regime == "unbroken":
            if not 0 <= a < 1:
                raise ConfigError([f"a: {a} is not in the unbroken regime [0, 1)"])
            theory = np.pi / np.sqrt(1 - a * a)
            grid = np.linspace(0.0, 4 * theory, points)
            fit = fit_recurrence_time(
                distinguishability_series(spec, rho1, rho2, grid)
            )
        else:
            if a <= 1:
                raise ConfigError([f"a: {a} is not in the broken regime (1, inf)"])
            theory = 1.0 / (2 * np.sqrt(a * a - 1))
            grid = np.linspace(0.0, 13 * theory, points)
            series = distinguishability_series(spec, rho1, rho2, grid)
            fit = fit_relaxation_time(series, (4 * theory, 12 * theory))
        rows.append((a, fit.parameter, theory))
    name = "T" if regime == "unbroken" else "tau"
    meta = {
        "experiment": "scaling",
        "regime": regime,
        "initial": "|".join(labels),
        "points": points,
        "seed": seed,
    }
    write_csv(out, meta, ["a", f"{name}_fit", f"{name}_theory"], rows)
    return f"regime={regime} {len(rows)} points -> {out}"


def _run_powerlaw(run, ns, seed, out):
    errors = _Violations()
    spec = _spec_from(run, errors)
    initial = errors.parse(run["initial"] or "H,V", "initial", _parse_initial_pair)
    points = errors.parse(ns.points or "512", "points", _positive_int)
    t_min = errors.parse(ns.t_min or "0.1", "t-min", float)
    t_max = errors.parse(ns.t_max or "200", "t-max", float)
    window = errors.parse(ns.window or "20,200", "window",
                          lambda s: tuple(float(v) for v in s.split(",")))
    if window is not None and len(window) != 2:
        errors.append(f"window: expected t0,t1, got {ns.window!r}")
    if errors:
        raise ConfigError(errors)
    (k1, k2), labels = initial
    grid = np.geomspace(t_min, t_max, points)
    series = distinguishability_series(spec, pure_state(k1), pure_state(k2), grid)
    fit = fit_power_law_exponent(series, window)
    meta = {
        "experiment": "powerlaw",
        "family": spec.family.value,
        "a": spec.a,
        "c": spec.c,
        "initial": "|".join(labels),
        "window": f"{window[0]:g}..{window[1]:g}",
        "exponent_fit": fit.parameter,
        "seed": seed,
    }
    write_csv(out, meta, ["t", "D"], zip(series.times, series.values))
    return (
        f"family={spec.family.value} a={spec.a:g} initial={','.join(labels)} "
        f"exponent={fit.parameter:.4f} (stderr {fit.stderr:.2g}) -> {out}"
    )


def _run_embed(run, ns, seed, out):
    errors = _Violations()
    a = errors.parse(run["a"] or "0.5", "a", float)
    initial = errors.parse(run["initial"] or "H,V", "initial", _parse_initial_pair)
    points = errors.parse(ns.points or "256", "points", _positive_int)
    t_max = errors.parse(ns.t_max, "t-max", float)
    if a is not None and not 0 <= a < 1:
        errors.append(f"a: embedding needs 0 <= a < 1, got {a}")
    if errors:
        raise ConfigError(errors)
    (k1, k2), labels = initial
    if t_max is None:
        t_max = 2 * np.pi / np.sqrt(1 - a * a)   # two recurrence periods
    grid = np.linspace(0.0, t_max, points)
    d = embedding.distinguishability_series(a, k1, k2, grid)
    s = embedding.entanglement_entropy_series(a, k1, grid)
    mi = embedding.mutual_information_series(a, k1, grid)
    rows = zip(grid, d.values, s.values, mi.values)
    meta = {
        "experiment": "embed",
        "a": a,
        "initial": "|".join(labels),
        "entropy_log_base": 2,
        "seed": seed,
    }
    write_csv(out, meta, ["t", "D", "S", "I"], rows)
    return f"a={a:g} initial={','.join(labels)} (S, I follow {labels[0]}) -> {out}"


def _run_tomography(run, ns, seed, out):
    errors = _Violations()
    spec = _spec_from(run, errors)
    state = (ns.state or "H").strip()
    t = errors.parse(ns.t or "1.0", "t", float)
    shots = errors.parse(ns.shots or "18000", "shots", _positive_int)
    try:
        ket = polarization_ket(state)
    except ValueError as exc:
        errors.append(f"state: {exc}")
        ket = None
    if errors:
        raise ConfigError(errors)
    from .dynamics import evolve

    rho = evolve(spec, pure_state(ket), t)
    bases = standard_bases(2)
    probs = born_probabilities(rho, bases)
    records = simulate_counts(probs, shots, seed, labels=[b.label for b in bases])
    meta = {
        "experiment": "tomography",
        "family": spec.family.value,
        "a": spec.a,
        "c": spec.c,
        "state": state,
        "t": t,
        "shots": shots,
        "seed": seed,
    }
    write_csv(
        out, meta,
        ["basis_label", "counts", "shots", "seed"],
        [(r.basis_label, r.counts, r.shots, r.seed) for r in records],
    )
    estimate = mle_reconstruct(records, bases)
    from .qcore import fidelity

    fid = fidelity(estimate, rho)
    return f"a={spec.a:g} t={t:g} state={state} mle_fidelity={fid:.6f} -> {out}"


def _read_target_file(path):
    rows = []
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        rows.append([complex(tok.strip().replace(" ", "")) for tok in line.split(",")])
    return np.array(rows, dtype=complex)


def _run_compile(run, ns, seed, out):
    errors = _Violations()
    restarts = errors.parse(ns.restarts or "50", "restarts", _positive_int)
    variant_raw = (ns.variant or "").strip().lower()
    try:
        variant = optics.DecompositionVariant(variant_raw)
    except ValueError:
        errors.append(
            f"variant: expected one of "
            f"{[v.value for v in optics.DecompositionVariant]}, got {ns.variant!r}"
        )
        variant = None
    target = None
    if ns.target_file:
        try:
            target = _read_target_file(ns.target_file)
        except (OSError, ValueError) as exc:
            errors.append(f"target-file: {exc}")
    elif run["a"] is not None:
        t = errors.parse(ns.t or "1.0", "t", float)
        if run["family"] == "embedded":
            a = errors.parse(run["a"], "a", float)
            if a is not None and t is not None:
                target = mat_exp(embedding.build_h_tot(a), t)
        else:
            spec = _spec_from(run, errors, default_family="passive-pt")
            if spec is not None and t is not None:
                target = mat_exp(build_hamiltonian(spec), t)
    else:
        errors.append("compile: provide --target-file or --family/--a/--t")
    if errors or target is None:
        raise ConfigError(errors or ["compile: no target"])
    if variant is optics.DecompositionVariant.TWO_QUBIT:
        sol = optics.compile_two_qubit(target, restarts=restarts, seed=seed)
    else:
        sol = optics.compile_single_qubit(target, variant, restarts=restarts, seed=seed)
    record = optics.solution_record(sol)
    if out:
        path = Path(out)
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="\n") as fh:
            fh.write(record)
        dest = str(out)
    else:
        sys.stdout.write(record)
        dest = "stdout"
    if not sol.success:
        raise CompileFailed(
            sol.residual, f"best residual {sol.residual:.6g} (record written to {dest})"
        )
    return f"variant={sol.variant.value} residual={sol.residual:.3g} -> {dest}"


_RUNNERS = {
    "distinguishability": _run_distinguishability,
    "scaling": _run_scaling,
    "powerlaw": _run_powerlaw,
    "embed": _run_embed,
    "tomography": _run_tomography,
    "compile": _run_compile,
}

_NO_SWEEP = ("scaling", "tomography", "compile")


# ---------------------------------------------------------------------------
# argument plumbing

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptsim",
        description="Experiment runner for PT-symmetric non-unitary dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, flags):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat key-value config file")
        p.add_argument("--seed", help="master seed (default 0)")
        p.add_argument("--out", help="output CSV path (template for sweeps)")
        for flag in flags:
            p.add_argument(f"--{flag}", dest=flag.replace("-", "_"))
        return p

    add("distinguishability", "trace-distance series D(t)",
        _EXPERIMENT_KEYS["distinguishability"])
    add("scaling", "recurrence or relaxation time versus a",
        _EXPERIMENT_KEYS["scaling"])
    add("powerlaw", "exceptional-point log-log series and exponent",
        _EXPERIMENT_KEYS["powerlaw"])
    add("embed", "two-qubit dilation: D, entanglement entropy, mutual information",
        _EXPERIMENT_KEYS["embed"])
    add("tomography", "simulated photon counts and MLE reconstruction",
        _EXPERIMENT_KEYS["tomography"])
    add("compile", "wave-plate angle synthesis for a target operator",
        _EXPERIMENT_KEYS["compile"])
    add("run", "run the experiment named in a config file",
        sorted({k for keys in _EXPERIMENT_KEYS.values() for k in keys}))
    return parser


def _merge_config(ns: argparse.Namespace) -> argparse.Namespace:
    if not ns.config:
        return ns
    values = load_config(ns.config)
    command = ns.command
    if command == "run":
        command = values.get("experiment")
        if command not in EXPERIMENTS:
            raise ConfigError(
                [f"experiment: config must name one of {EXPERIMENTS}, got {command!r}"]
            )
        ns.command = command
    violations = []
    allowed = set(_EXPERIMENT_KEYS[command]) | set(_COMMON_KEYS)
    for key, value in values.items():
        if key not in allowed:
            violations.append(f"config key {key!r} is not valid for {command}")
            continue
        if key in ("experiment", "config"):
            if key == "experiment" and value != command:
                violations.append(
                    f"experiment: config says {value!r} but the subcommand is {command!r}"
                )
            continue
        dest = key.replace("-", "_")
        if getattr(ns, dest, None) is None:   # flags win over file values
            setattr(ns, dest, value)
    if violations:
        raise ConfigError(violations)
    return ns


def _fill_missing(ns: argparse.Namespace):
    for keys in _EXPERIMENT_KEYS.values():
        for key in keys:
            dest = key.replace("-", "_")
            if not hasattr(ns, dest):
                setattr(ns, dest, None)
    for key in ("seed", "out"):
        if not hasattr(ns, key):
            setattr(ns, key, None)


def main(argv=None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        ns = _merge_config(ns)
        _fill_missing(ns)
        errors = _Violations()
        master_seed = errors.parse(ns.seed or "0", "seed", int, 0)
        runner = _RUNNERS[ns.command]
        runs = _sweep_values(ns, errors)
        if len(runs) > 1 and ns.command in _NO_SWEEP:
            errors.append(f"{ns.command}: sweeps are not supported")
        out_template = ns.out or f"out/{ns.command}_{{i}}.csv"
        if errors:
            raise ConfigError(errors)
        jobs = []
        for i, run in enumerate(runs):
            subs = {"i": i, **{k: (v if v is not None else "") for k, v in run.items()}}
            subs["initial"] = str(subs["initial"]).replace(",", "")
            out = _resolve_out(out_template, subs, len(runs), errors)
            jobs.append((run, _run_seed(master_seed, i), out))
        if errors:
            raise ConfigError(errors)
        for run, seed, out in jobs:
            print(runner(run, ns, seed, out))
        return 0
    except ConfigError as exc:
        json.dump({"error": "ConfigError", "violations": exc.violations}, sys.stderr)
        sys.stderr.write("\n")
        return 2
    except CompileFailed as exc:
        json.dump({"error": "CompileFailed", "residual": exc.residual}, sys.stderr)
        sys.stderr.write("\n")
        return 1
    except PTSimError as exc:
        json.dump(
            {"error": type(exc).__name__, "message": str(exc)}, sys.stderr
        )
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())

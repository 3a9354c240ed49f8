"""The benchmark's three workloads: inputs, operation lists and output checks.

Every ptsim call goes through a module attribute (``ptsim.dynamics.evolve``,
not a name bound at import), so the tracer's wrappers take effect.
"""

import contextlib
import io
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np
from scipy.linalg import expm

import ptsim
import ptsim.cli

import checks
import reference


class OperationFailed(Exception):
    """An operation ran to its end but did not reach its goal."""

    def __init__(self, message, value=None):
        super().__init__(message)
        self.value = value


@dataclass
class Op:
    label: str        # names the operation in messages
    group: str        # operations that are timed and traced together
    kind: str         # "qubit", "dilation", or "fault" (timed apart)
    fn: Callable[[], Any]
    info: Any = None


@dataclass
class Outcome:
    op: Op
    seconds: float
    ok: bool
    value: Any


def _seed_ints(seed: int, n: int) -> list:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


class Figures:
    """Every figure config through ``ptsim.cli.main``, both scaling sweeps,
    and one run that the program gets wrong (StateAnnihilated at a = 2)."""

    name = "figures"
    # the configs present when the benchmark was defined: a config added
    # later would change the work that wall_s compares
    CONFIGS = ("fig2", "fig3", "fig4a", "fig4b", "fig4c", "fig5a", "fig5b", "figS2", "figS3")
    SCALING_A = {"unbroken": (0.2, 0.5, 0.8, 0.9), "broken": (1.1, 1.25, 1.5, 2.0)}
    FAULT_ARGV = ["distinguishability", "--family", "pt", "--a", "2.0",
                  "--initial", "H,V", "--t-max", "300"]

    def __init__(self, root: Path, seed: int, out_dir: Path):
        self.root, self.out_dir = root, out_dir
        self._ops = None

    def generate(self):
        ops = []
        for name in self.CONFIGS:
            cfg = _read_config(self.root / "configs" / f"{name}.cfg")
            kind = "dilation" if cfg["experiment"] == "embed" else "qubit"
            default_points = 256 if kind == "dilation" else 512
            info = {"points": int(cfg.get("points", default_points)), "runs": _sweep_width(cfg)}
            ops.append(self._cli_op(name, kind, ["run", "--config", str(cfg["path"])], info))
        for regime, a_values in self.SCALING_A.items():
            ops.append(self._cli_op(f"scaling-{regime}", "qubit",
                                    ["scaling", "--regime", regime],
                                    {"runs": 1, "a": a_values}))
        ops.append(self._cli_op("fault", "fault", list(self.FAULT_ARGV),
                                {"runs": 1, "points": 512}))
        self._ops = ops

    def _cli_op(self, label, kind, argv, info):
        out = self.out_dir / label
        argv = argv + ["--out", f"{out}/{{i}}.csv"]
        info = dict(info, out=out)
        return Op(label, label, kind, lambda: _run_cli(argv), info)

    def ops(self):
        return self._ops

    def prepare(self, op):
        shutil.rmtree(op.info["out"], ignore_errors=True)

    def check(self, outcomes):
        problems, outputs, series_points = [], 0, 0
        for oc in outcomes:
            if not oc.ok:
                continue
            info = oc.op.info
            files = sorted(Path(info["out"]).glob("*.csv"))
            if len(files) != info["runs"]:
                problems.append(f"{oc.op.label}: {len(files)} CSVs, expected {info['runs']}")
            for path in files:
                meta, header, data = checks.read_csv(path)
                experiment = meta.get("experiment")
                if experiment == "scaling":
                    found = checks.check_scaling(meta, header, data, info["a"])
                    points = len(data) * int(meta["points"])
                    series_points += points
                elif experiment == "embed":
                    found = checks.check_embed(meta, header, data, info["points"])
                    points = len(data)
                elif experiment in ("distinguishability", "powerlaw"):
                    found = checks.check_series(meta, header, data, info["points"])
                    points = len(data)
                    series_points += points
                else:
                    found, points = [f"unexpected experiment {experiment!r}"], 0
                problems += [f"{oc.op.label}/{path.name}: {p}" for p in found]
                if oc.op.kind != "fault":
                    outputs += points
        return problems, {"outputs": outputs, "series_points": series_points}


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ptsim.cli.main(argv)
    if code != 0:
        lines = err.getvalue().strip().splitlines()
        raise OperationFailed(f"exit {code}: {lines[-1] if lines else ''}")


def _read_config(path):
    values = {"path": path}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def _sweep_width(cfg):
    return max(len(cfg[k].split(";")) for k in ("family", "a", "c", "initial") if k in cfg)


class Tomography:
    """Criterion-9 reconstructions of pt qubit states plus dilation states."""

    name = "tomography"
    A = 0.5
    SHOTS = 18000
    QUBIT_TIMES = 32
    DILATION_TIMES = 16
    LABELS = ("H", "V")
    # independent count records per state and pass: the MLE's iteration
    # count depends on the counts, so more records steady the latencies
    REALIZATIONS = 3
    MLE_OPTIONS = {"max_iter": 2000, "tol": 1e-8, "full_output": True}

    def __init__(self, root: Path, seed: int, out_dir: Path):
        self.seed = seed
        period = reference.recurrence_time(self.A)
        self.qubit_grid = np.linspace(0.0, 2 * period, self.QUBIT_TIMES)
        self.dilation_grid = np.linspace(0.0, 2 * period, self.DILATION_TIMES)
        self._truth = None
        self._ops = None

    def generate(self):
        qc, tomo, emb = ptsim.qcore, ptsim.tomography, ptsim.embedding
        spec = ptsim.models.HamiltonianSpec(ptsim.models.Family.PT, self.A)
        bases = {2: tomo.standard_bases(2), 4: tomo.standard_bases(4)}
        kets = {lbl: qc.polarization_ket(lbl) for lbl in self.LABELS}
        h_tot = emb.build_h_tot(self.A)
        seeds = iter(_seed_ints(self.seed, self.REALIZATIONS * len(self.LABELS)
                                * (self.QUBIT_TIMES + self.DILATION_TIMES)))
        ops = []
        for r in range(self.REALIZATIONS):
            for i, t in enumerate(self.qubit_grid):
                for lbl in self.LABELS:
                    rho0 = qc.pure_state(kets[lbl])
                    ops.append(Op(f"qubit #{r} t={t:.4f} {lbl}", "qubit", "qubit",
                                  self._qubit_op(spec, rho0, t, bases[2], next(seeds)),
                                  {"index": i, "label": lbl, "realization": r}))
            for i, t in enumerate(self.dilation_grid):
                for lbl in self.LABELS:
                    psi0 = emb.embed_initial(kets[lbl], self.A)
                    ops.append(Op(f"dilation #{r} t={t:.4f} {lbl}", "dilation", "dilation",
                                  self._dilation_op(h_tot, psi0, t, bases[4], next(seeds)),
                                  {"index": i, "label": lbl, "realization": r}))
        self._ops = ops

    def _qubit_op(self, spec, rho0, t, bases, seed):
        def op():
            rho = ptsim.dynamics.evolve(spec, rho0, t)
            return self._reconstruct(rho, bases, seed)
        return op

    def _dilation_op(self, h_tot, psi0, t, bases, seed):
        def op():
            rho = ptsim.qcore.pure_state(ptsim.qcore.mat_exp(h_tot, t) @ psi0)
            return self._reconstruct(rho, bases, seed)
        return op

    def _reconstruct(self, rho, bases, seed):
        tomo = ptsim.tomography
        probs = tomo.born_probabilities(rho, bases)
        records = tomo.simulate_counts(probs, self.SHOTS, seed, [b.label for b in bases])
        estimate, info = tomo.mle_reconstruct(records, bases, **self.MLE_OPTIONS)
        return {"state": rho, "estimate": estimate, "loglike": info["loglike"],
                "iterations": info["iterations"]}

    def ops(self):
        return self._ops

    def prepare(self, op):
        pass

    def truth(self):
        """Reference states, computed once and outside the timed region."""
        if self._truth is None:
            qubit = {lbl: reference.projectors(reference.evolved_pure(
                reference.hamiltonian("pt", self.A), reference.KETS[lbl], self.qubit_grid))
                for lbl in self.LABELS}
            dilation = {lbl: reference.dilation_states(self.A, lbl, self.dilation_grid)
                        for lbl in self.LABELS}
            self._truth = qubit, dilation
        return self._truth

    def check(self, outcomes):
        qubit, dilation = self.truth()
        problems = []
        est = {}
        fidelities = []
        for oc in outcomes:
            if not oc.ok:
                continue
            v, info = oc.value, oc.op.info
            i, lbl = info["index"], info["label"]
            # the history is only needed here; dropping it keeps memory flat
            # across passes, so peak_rss_mb does not grow with run length
            found = checks.check_estimate(v["estimate"], v.pop("loglike"))
            if oc.op.kind == "qubit":
                true = qubit[lbl][i]
                est[(info["realization"], i, lbl)] = v["estimate"]
            else:
                psi = dilation[lbl][i]
                true = np.outer(psi, psi.conj())
                fidelities.append(reference.pure_fidelity(psi, v["estimate"]))
            err = np.abs(v["state"] - true).max()
            if not err <= checks.TARGET_TOL:
                found.append(f"true state differs from the reference by {err:.3g}")
            problems += [f"{oc.op.label}: {p}" for p in found]
        d_true = reference.trace_distance2(qubit["H"], qubit["V"])
        for r in range(self.REALIZATIONS):
            pairs = [i for i in range(self.QUBIT_TIMES)
                     if all((r, i, lbl) in est for lbl in self.LABELS)]
            if not pairs:
                continue
            d_hat = np.array([reference.trace_distance2(est[(r, i, "H")], est[(r, i, "V")])
                              for i in pairs])
            mae = float(np.mean(np.abs(d_hat - d_true[pairs])))
            if not mae < checks.QUBIT_MAE_LIMIT:
                problems.append(f"record set {r}: reconstructed D(t) MAE {mae:.4f} "
                                f">= {checks.QUBIT_MAE_LIMIT}")
        if fidelities:
            bound = checks.fidelity_bound(4, self.SHOTS)
            if not np.mean(fidelities) > bound:
                problems.append(f"dilation mean fidelity {np.mean(fidelities):.5f} <= {bound:.5f}")
        return problems, {"outputs": sum(oc.ok for oc in outcomes), "series_points": 0}


class Compile:
    """Wave-plate angle synthesis: random full12 targets, pt-simplified
    propagators on both sides of the exceptional point, two-qubit unitaries."""

    name = "compile"
    GOAL = 1e-6
    RESTARTS = 50
    FULL12_TARGETS = 120
    PT_A = (0.3, 0.6, 0.9, 1.0, 1.2, 1.6, 2.0)
    PT_T = (0.5, 1.5)
    # (t, solver seed): fixed, because one 4x4 synthesis takes 1.7-5.3 s
    # depending on its start points, and three seeded draws a run would
    # spread the two-qubit time far wider than any useful bound
    TWO_QUBIT = ((0.3, 3), (0.7, 7), (1.5, 15))
    TWO_QUBIT_A = 0.5
    TWO_QUBIT_RESTARTS = 60

    def __init__(self, root: Path, seed: int, out_dir: Path):
        self.seed = seed
        self._ops = None

    def generate(self):
        optics, models = ptsim.optics, ptsim.models
        rng = np.random.default_rng(self.seed)
        ops = []
        for k in range(self.FULL12_TARGETS):
            z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            q, r = np.linalg.qr(z)
            target = rng.uniform(0.3, 1.0) * q * (np.diag(r) / np.abs(np.diag(r)))
            seed = int(rng.integers(2**31))
            ops.append(Op(f"full12 #{k}", "full12", "qubit",
                          self._single_op(lambda target=target: target,
                                          optics.DecompositionVariant.FULL12, seed),
                          {"reference": target}))
        for a in self.PT_A:
            for t in self.PT_T:
                spec = models.HamiltonianSpec(models.Family.PASSIVE_PT, a)

                def target(spec=spec, t=t):
                    return ptsim.qcore.mat_exp(ptsim.models.build_hamiltonian(spec), t)

                ops.append(Op(f"pt-simplified a={a} t={t}", "pt-simplified", "qubit",
                              self._single_op(target, optics.DecompositionVariant.PT_SIMPLIFIED,
                                              int(rng.integers(2**31))),
                              {"reference": reference.propagator2(
                                  reference.hamiltonian("passive-pt", a), t)}))
        # each two-qubit target follows a share of the single-qubit ones, so
        # the single-qubit timings sample the whole pass, not its first part
        share = -(-len(ops) // len(self.TWO_QUBIT))
        self._ops = []
        for k, (t, seed) in enumerate(self.TWO_QUBIT):
            self._ops += ops[k * share:(k + 1) * share]
            self._ops.append(Op(
                f"two-qubit t={t}", "two-qubit", "dilation", self._two_qubit_op(t, seed),
                {"reference": expm(-1j * t * reference.h_tot(self.TWO_QUBIT_A))}))

    def _single_op(self, make_target, variant, seed):
        def op():
            target = make_target()
            sol = ptsim.optics.compile_single_qubit(target, variant, restarts=self.RESTARTS,
                                                    seed=seed, success_residual=self.GOAL)
            return _solution(sol, target)
        return op

    def _two_qubit_op(self, t, seed):
        def op():
            target = ptsim.qcore.mat_exp(ptsim.embedding.build_h_tot(self.TWO_QUBIT_A), t)
            sol = ptsim.optics.compile_two_qubit(target, restarts=self.TWO_QUBIT_RESTARTS,
                                                 seed=seed, success_residual=self.GOAL)
            return _solution(sol, target)
        return op

    def ops(self):
        return self._ops

    def prepare(self, op):
        pass

    def check(self, outcomes):
        problems = []
        for oc in outcomes:
            v = oc.value
            if v is None:
                continue
            ref = oc.op.info["reference"]
            found = checks.check_target(v["target"], ref)
            found += checks.check_angle_record(v["record"], ref, self.GOAL)
            problems += [f"{oc.op.label}: {p}" for p in found]
        return problems, {"outputs": sum(oc.ok for oc in outcomes), "series_points": 0}


def _solution(sol, target):
    value = {
        "target": target,
        "restarts": sol.restarts_used,
        "record": {"variant": sol.variant.value, "angles": dict(sol.angles),
                   "residual": sol.residual, "global_phase": sol.global_phase,
                   "success": sol.success},
    }
    if not sol.success:
        raise OperationFailed(f"residual {sol.residual:.3g} misses the goal", value)
    return value


WORKLOADS = {w.name: w for w in (Figures, Tomography, Compile)}


def per_layer(workload, spans, passes, traced, series_points):
    """Per-layer metrics of the traced passes, each a total per pass unless
    its name says per call, point, reconstruction or target."""
    fault = [f"op:{oc.op.group}" for oc in traced[0] if oc.op.kind == "fault"]

    def mask(*names, prefix=None, roots=None):
        return spans.select(names, prefix=prefix, roots=roots, exclude_roots=fault)

    def per_pass(m, field):
        return float(field[m].sum()) / passes

    def mean_dur(m, scale):
        return float(spans.dur_s[m].mean()) * scale if m.any() else 0.0

    s = spans.self_s
    out = {}
    for fn in ("mat_exp", "as_density_matrix"):
        m = mask(f"qcore.{fn}")
        out[f"qcore.{fn}.calls"] = float(m.sum()) / passes
        out[f"qcore.{fn}.self_s"] = per_pass(m, s)
    out["qcore.trace_distance.self_s"] = per_pass(mask("qcore.trace_distance"), s)
    out["qcore.entropy.self_s"] = per_pass(
        mask("qcore.von_neumann_entropy", "qcore.partial_trace"), s)
    series = mask("dynamics.distinguishability_series")
    out["dynamics.series.self_s"] = per_pass(series, s)
    out["dynamics.series.us_per_point"] = (
        float(spans.dur_s[series].sum()) / series_points * 1e6 if series_points else 0.0)
    out["dynamics.fit.self_s"] = per_pass(mask(
        "dynamics.fit_recurrence_time", "dynamics.fit_relaxation_time",
        "dynamics.fit_power_law_exponent"), s)
    evolve = mask("dynamics.evolve")
    out["dynamics.evolve.calls"] = float(evolve.sum()) / passes
    out["dynamics.evolve.self_s"] = per_pass(evolve, s)
    out["embedding.self_s"] = per_pass(mask(prefix="embedding."), s)

    for label in Figures.CONFIGS + tuple(f"scaling-{r}" for r in Figures.SCALING_A):
        m = mask("cli.main", roots=[f"op:{label}"])
        out[f"cli.{label}.ms"] = float(np.median(spans.dur_s[m])) * 1e3 if m.any() else 0.0
    out["cli.self_s"] = per_pass(mask(prefix="cli."), s)

    for dim, group in ((2, "qubit"), (4, "dilation")):
        m = mask("tomography.mle_reconstruct", roots=[f"op:{group}"])
        out[f"tomography.mle{dim}.ms_per_recon"] = mean_dur(m, 1e3)
        its = [oc.value["iterations"] for p in traced for oc in p
               if workload == Tomography.name and oc.ok and oc.op.group == group]
        out[f"tomography.mle{dim}.iterations_per_recon"] = float(np.mean(its)) if its else 0.0
    for fn in ("simulate_counts", "born_probabilities"):
        out[f"tomography.{fn}.self_s"] = per_pass(mask(f"tomography.{fn}"), s)

    single = "optics.compile_single_qubit"
    out["optics.full12.ms_per_target"] = mean_dur(mask(single, roots=["op:full12"]), 1e3)
    out["optics.pt_simplified.ms_per_target"] = mean_dur(
        mask(single, roots=["op:pt-simplified"]), 1e3)
    out["optics.two_qubit.s_per_target"] = mean_dur(mask("optics.compile_two_qubit"), 1.0)
    solved = [oc.value for p in traced for oc in p
              if workload == Compile.name and oc.value is not None]
    out["optics.restarts_used"] = float(sum(v["restarts"] for v in solved)) / passes
    out["optics.two_qubit.residual_max"] = max(
        (v["record"]["residual"] for v in solved if v["record"]["variant"] == "two-qubit"),
        default=0.0)
    return out


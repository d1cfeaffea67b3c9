"""The benchmark's workloads call public functions and methods of the
package, and its per-layer metrics name them; renaming or deleting one of
them, or changing how it is called, must fail here, not only when the
benchmark runs."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

# the layer modules the tracer rebinds (the package itself loads them lazily)
from jetwave import elliptic, evolution, geometry, paradiff, spectral, symbols  # noqa: F401

ROOT = Path(__file__).resolve().parents[1]


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_spans():
    return _load("spans")


@pytest.mark.parametrize("name", [w["name"] for w in json.loads(
    (ROOT / "BENCHMARK.json").read_text())["workloads"]])
def test_workload_unit_passes_its_gate(name):
    """One unit of each benchmark workload runs through the calls the
    benchmark makes and passes the workload's own output gate, so a change
    that breaks one of those calls fails here."""
    wl = _load("workloads").WORKLOADS[name]()
    wl.setup(np.random.default_rng(0))
    inputs = wl.make(np.random.default_rng(1), 0)
    out = wl.run(inputs)
    assert wl.check(inputs, out) is None
    assert wl.work(inputs, out) > 0.0


def test_dtn_cold_units_start_from_the_half_grid():
    """dtn-cold-64's cold solves start from a radial-level solve (the same
    grid with 16 radial nodes), itself started from a half-grid solve, so
    its units take at most 2 fine CG iterations on average (10-13 cold),
    each after some coarse ones.  A count fails here if the rule stops
    firing, where wall time would only drift.  The first unit, the gate
    test's, has the largest perturbation of the five (0.19 of the radius)
    and takes 3."""
    wl = _load("workloads").WORKLOADS["dtn-cold-64"]()
    wl.setup(np.random.default_rng(0))
    rng = np.random.default_rng(1)
    bundles = [wl.run(wl.make(rng, i)) for i in range(5)]
    assert all(b.coarse_iterations >= 1 for b in bundles)
    assert np.mean([b.iterations for b in bundles]) <= 2


def test_calculus_units_sample_half_the_lattice(monkeypatch):
    """calculus-32's identity report and apply_paradiff sample lambda on half
    the lattice: the mirror half is the conjugate, which the symbol's
    reality condition gives.  The report takes 480 of the 960 Nyquist-free
    frequencies xi != 0 of 32^2.  A count fails here if the half-lattice
    rule stops firing, where wall time would only drift."""
    spans = _load_spans()
    wl = _load("workloads").WORKLOADS["calculus-32"]()
    wl.setup(np.random.default_rng(0))
    eta, psi = wl.make(np.random.default_rng(1), 0)
    report_samples = []
    lattice_checks = symbols._lattice_checks

    def counted(identities, grid, xt, xz):
        report_samples.append(len(xt))
        return lattice_checks(identities, grid, xt, xz)

    monkeypatch.setattr(symbols, "_lattice_checks", counted)
    tracer = spans.Tracer()
    with tracer.installed():
        out = wl.run((eta, psi))
    assert wl.check((eta, psi), out) is None
    # the principal identities, then the two radial factorizations
    assert report_samples == [480, 480]
    full = (~eta.grid.nyquist_mask()).sum() - 1
    assert full == 960 == 2 * len(symbols.lattice_points(eta.grid)[0])
    U = paradiff.good_unknown(eta, psi,
                              wl.solver.trace_bundle(eta, psi, wl.tol).B)
    dec = spectral.decomposition(U.grid)
    # the active frequencies of U's half-spectrum: each k_z > 0 column
    # stands for its k_z < 0 mirror too, the k_z = 0 column holds both
    active = ((dec.blocks[2:].sum(axis=0) != 0.0) & (U.coefficients != 0.0)
              & ~U.grid.nyquist_mask()[:, :dec.blocks.shape[2]])
    assert tracer.paradiff_samples > 0
    assert 2 * tracer.paradiff_samples == 2 * active[:, 1:].sum() + active[:, 0].sum()


def test_calculus_units_take_no_complex_step(monkeypatch):
    """A calculus-32 unit reads every xi-gradient from the closed form its
    closure declares: the report and apply_paradiff take no complex step
    and evaluate no closure at a complex xi.  xi_gradient is called 361
    times on unit 0, once per closure, chunk and call site; the chain rules
    read their factors' gradients without calling it.  A count fails here
    if a declaration stops firing, where wall time would only drift."""
    wl = _load("workloads").WORKLOADS["calculus-32"]()
    wl.setup(np.random.default_rng(0))
    surface = wl.make(np.random.default_rng(1), 0)
    complex_args, stepped, gradients = [], [], []
    evaluate, xi_gradient = symbols._evaluate, symbols.xi_gradient

    def spy(fn, *args):
        if any(not callable(a) and np.iscomplexobj(a) for a in args):
            complex_args.append(fn)
        return evaluate(fn, *args)

    def counted(*args):
        gradients.append(1)
        return xi_gradient(*args)

    monkeypatch.setattr(symbols, "_evaluate", spy)
    monkeypatch.setattr(symbols, "xi_gradient", counted)
    monkeypatch.setattr(symbols, "_complex_step",
                        lambda *args: stepped.append(args))
    out = wl.run(surface)
    assert wl.check(surface, out) is None
    assert complex_args == [] and stepped == []
    assert len(gradients) == 361


def test_evolve_units_carry_their_stage_guesses():
    """evolve-32's stage solves start the radial level's CG from earlier
    potentials carried to the new trace through the cylinder's harmonic
    extension, so each of its units 0-4 takes at most 30 stage CG
    iterations over both levels (3 fine and 24 on the radial level carried,
    5 and 31 uncarried).  A count fails here if the carry stops firing,
    where wall time would only drift."""
    wl = _load("workloads").WORKLOADS["evolve-32"]()
    wl.setup(np.random.default_rng(0))
    rng = np.random.default_rng(1)
    for i in range(5):
        traj = wl.run(wl.make(rng, i))
        assert sum(r.elliptic_iterations + r.elliptic_coarse_iterations
                   for r in traj.reports) <= 30


def test_every_per_layer_metric_is_produced():
    spans = _load_spans()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer = spans.Tracer()
    with tracer.installed():
        produced = tracer.metrics(1.0, 1.0)
    missing = [m["name"] for m in bench["per_layer"] if m["name"] not in produced]
    assert not missing, f"per-layer metrics no longer produced: {missing}"


def test_traced_reports_repeat_counts(grid16):
    """The traced benchmark fails unless two passes give identical counts;
    evaluations shared inside one identity report must not carry over."""
    spans = _load_spans()
    th, zz = grid16.mesh()
    counts = []
    for _ in range(2):
        # a fresh field: a field caches its own coefficients once computed
        eta = spectral.TorusField(grid16, 1.0 + 0.1 * np.cos(th) * np.cos(zz))
        tracer = spans.Tracer()
        with tracer.installed():
            symbols.symbol_identity_report(eta, 1.0, 1.0)
        counts.append(tracer.counts())
    assert counts[0]["calls"]["symbols.symbol_identity_report"] == 1
    assert counts[0] == counts[1]


def test_traced_dtn_repeat_counts(grid16):
    """Two traced passes over requests at mean radii 1.0, 1.05, 1.0 on one
    shared solver give identical counts, and no solve builds a
    preconditioner: the solver keeps no state between requests."""
    spans = _load_spans()
    solver = elliptic.DtnSolver(grid16, 32)
    th, zz = grid16.mesh()
    counts = []
    for _ in range(2):
        tracer = spans.Tracer()
        with tracer.installed():
            for R in (1.0, 1.05, 1.0):
                # fresh fields: a field caches its own coefficients
                eta = spectral.TorusField(
                    grid16, R * (1.0 + 0.1 * np.cos(th) * np.cos(zz)))
                psi = spectral.TorusField(grid16, 0.3 * np.sin(2 * th + zz))
                solver.trace_bundle(eta, psi)
        counts.append(tracer.counts())
    assert counts[0]["calls"]["elliptic.trace_bundle"] == 3
    assert counts[0]["precond_builds"] == 0
    assert counts[0] == counts[1]


def test_traced_warm_bundle_counts(grid16):
    """The transforms of one warm trace_bundle on 16 x 16 x 32 are those of
    the CG iterations on the grid and on the 16-node radial level, plus a
    fixed start cost on each (one K of the start's zero-trace interior and
    the one-layer transforms of the closed-form K(1 (x) psi)), with no
    strain pass after either solve, and the Nyquist projections of eta and
    psi; the radial level takes eta's derivatives from the fine solve; the
    trace algebra pads each distinct input field once."""
    spans = _load_spans()
    n_rho, n = 32, 16
    solver = elliptic.DtnSolver(grid16, n_rho)
    th, zz = grid16.mesh()

    def fields():
        # fresh fields: a field caches its own coefficients and padding
        return (spectral.TorusField(grid16, 1.0 + 0.1 * np.cos(th) * np.cos(zz)),
                spectral.TorusField(grid16, 0.3 * np.sin(2 * th + zz)))

    eta, psi = fields()
    guess = solver.solve(1.02 * eta, psi).potential
    eta, psi = fields()
    tracer = spans.Tracer()
    with tracer.installed():
        bundle = solver.trace_bundle(eta, psi, guess=guess)
    counts = tracer.counts()
    (its,) = counts["cg_iters_per_solve"]
    assert its == bundle.iterations
    coarse_its = bundle.coarse_iterations
    assert coarse_its > 0

    layer, half = n * n, n * (n // 2 + 1)          # points of one (theta, z) layer

    def level(n_rho, its):
        """Transform points of a warm solve with n_rho radial nodes."""
        ni = n_rho - 1
        # _apply_K given the half-spectrum: gradients, flux spectra, divergence
        k_known = 2 * n_rho * half + 2 * n_rho * layer + n_rho * half
        per_iteration = ni * layer + ni * half + k_known   # preconditioner + K
        warm_start = ni * layer + k_known                  # K of the start's interior
        lift = layer + 2 * half + 2 * layer + 2 * half     # closed-form K(lift)
        return its * per_iteration + warm_start + lift

    # the solve's Nyquist projections of eta and psi: a real transform pair
    # of one layer each
    projections = 2 * (layer + half)
    assert counts["fft_points"]["elliptic"] == (
        level(n_rho, its) + level(16, coarse_its) + projections)

    # spectral layer: every dealiased evaluation is one real transform pair
    # at each end, plus one per padded input; each derivative is one inverse
    # transform of a coarse half-spectrum, and each of the two fields
    # differentiated (the projected eta and the potential's trace) one
    # forward transform
    derivatives = counts["calls"]["spectral.spectral_derivative"]
    assert derivatives == 4
    fine = grid16.padded()
    fine_layer, fine_half = fine.n_theta * fine.n_z, fine.n_theta * (fine.n_z // 2 + 1)
    evals = counts["calls"]["spectral.nonlinear_eval"]
    pads, odd = divmod(counts["fft_calls"]["spectral"] - 2 * evals - derivatives - 2, 2)
    assert odd == 0
    assert counts["fft_points"]["spectral"] == (
        pads * (layer + fine_half) + evals * (fine_layer + half)
        + derivatives * half + 2 * layer)
    # the inputs: d_rho phi, eta, eta_theta, psi_theta, B, grad_bar eta
    # (two), flux, V_theta, V_z, V . grad_bar eta
    assert evals == 12 and pads == 11


def test_traced_simulate_reports_steps_and_dt(grid16):
    """evolution.steps and evolution.dt are read from the dt argument of
    each step_rk4 call: they must equal the run's step count and its dt."""
    spans = _load_spans()
    th, zz = grid16.mesh()
    state = geometry.SurfaceState(
        spectral.TorusField(grid16, 1.0 + 0.01 * np.cos(th + zz)),
        spectral.TorusField(grid16, 0.005 * np.sin(zz)), 1.0, 1.0)
    cfg = evolution.EvolutionConfig(t_final=0.3)
    tracer = spans.Tracer()
    with tracer.installed():
        traj = evolution.simulate(state, cfg, elliptic.DtnSolver(grid16, 24))
    metrics = tracer.metrics(1.0, 1.0)
    assert traj.status == "completed" and len(traj.times) > 2
    assert metrics["evolution.steps"] == len(traj.times) - 1
    assert metrics["evolution.dt"] == traj.dt

"""End-to-end acceptance checks; each test prints one PASS/FAIL line."""
import json

import numpy as np
import pytest

import dpaimd
from dpaimd import cli
from dpaimd.baseline import solve_optimum
from dpaimd.engine import LAMBDA_MIN
from dpaimd.metrics import cost_ratio
from dpaimd.model import CostFunction, PolyBatch, ResourceConfig
from dpaimd.privacy import NoiseKind, NoiseSpec, ScaleMode
from oracles import (
    empirical_dp_ratio,
    empirical_dp_violation_fraction,
    linear_fit_r2,
    solve_grid_oracle,
)


def report(criterion: int, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


def gaussian_sigma(dq, epsilon, delta):
    """The calibrated Gaussian sigma for sensitivity ``dq``, as a run computes it."""
    spec = NoiseSpec(kind=NoiseKind.GAUSSIAN, epsilon=epsilon, delta=delta,
                     scale_mode=ScaleMode.CALIBRATED, sensitivity=dq)
    return spec.noise_scale(0)


def noiseless_pair():
    return [NoiseSpec(kind=NoiseKind.NONE), NoiseSpec(kind=NoiseKind.NONE)]


@pytest.fixture(scope="module")
def full_reference_run():
    """Noiseless six-agent, two-resource run at the full 2e5-step horizon."""
    config = cli.reference_system_config(noiseless_pair())
    trace = dpaimd.run(config, dense=True)
    optimum = solve_optimum(config.agents, config.resources)
    return config, trace, optimum


def test_acceptance_1_calibration_exactness():
    s1 = gaussian_sigma(1.32, 0.2, 0.01)
    s2 = gaussian_sigma(2.53, 0.2, 0.01)
    ok = abs(s1 - 20.50) <= 0.01 and abs(s2 - 39.31) <= 0.01
    report(1, ok, f"sigma1={s1:.5f}, sigma2={s2:.5f}")


def test_acceptance_2_noiseless_convergence(full_reference_run):
    config, trace, optimum = full_reference_run
    xbar = trace.xbar[-1]
    rel_err = float(np.max(np.abs(xbar - optimum.x_star) / optimum.x_star))
    ratio = cost_ratio(trace, config.agents, optimum)
    gap = xbar.sum(axis=0) - np.array([r.capacity for r in config.resources])
    ok = rel_err <= 0.05 and ratio <= 1.01
    report(2, ok, f"max_rel_error={rel_err:.4f}, cost_ratio={ratio:.4f}, "
           "feasibility gap sum(xbar) - C = (" + ", ".join(f"{g:+.4f}" for g in gap) + ")")


def test_acceptance_3_baseline_matches_grid_oracle():
    def power(c, e):
        return CostFunction(np.array([c]), np.array([[e]]))

    def resources(*caps):
        return [ResourceConfig(capacity=c, alpha=0.01, beta=0.5, gamma=1e-3)
                for c in caps]

    instances = [
        ([power(1.0, 2), power(2.0, 2)], resources(3.0)),      # analytic (2, 1)
        ([power(5.0, 2), power(15.0, 2)], resources(4.0)),
        ([power(1.0, 2)] * 3, resources(1.0)),
        ([dpaimd.quad_quartic_cost(12, 20), dpaimd.quadratic_cost(25)],
         resources(1.0, 1.2)),
        ([power(1.0, 4), power(2.0, 4)], resources(3.0)),
    ]
    resolution = 1e-3
    worst = 0.0
    for costs, rcs in instances:
        opt = solve_optimum(costs, rcs)
        grid = solve_grid_oracle(costs, rcs, resolution=resolution)
        worst = max(worst, float(np.max(np.abs(opt.x_star - grid.x_star))))
    analytic = solve_optimum(*instances[0])
    analytic_ok = np.allclose(analytic.x_star, [[2.0], [1.0]], atol=2 * resolution)
    ok = worst <= 2 * resolution and analytic_ok
    report(3, ok, f"max |x* - grid| = {worst:.2e} over {len(instances)} instances")


def test_acceptance_4_privacy_accuracy_tradeoff():
    grid = [(20.5, 39.31), (50.0, 70.0), (70.0, 110.0)]
    seeds = (101, 102, 103)
    # a seed fixes the agents, so one solve per seed serves every sigma grid
    optima = {}
    means = []
    for s1, s2 in grid:
        noise = [
            NoiseSpec(kind=NoiseKind.GAUSSIAN, epsilon=0.2, delta=0.01,
                      scale_mode=ScaleMode.FIXED, scale=s1),
            NoiseSpec(kind=NoiseKind.GAUSSIAN, epsilon=0.2, delta=0.01,
                      scale_mode=ScaleMode.FIXED, scale=s2),
        ]
        ratios = []
        for seed in seeds:
            config = cli.reference_system_config(noise, seed=seed, steps=30_000)
            trace = dpaimd.run(config)
            if seed not in optima:
                optima[seed] = solve_optimum(config.agents, config.resources)
            ratios.append(cost_ratio(trace, config.agents, optima[seed]))
        means.append(float(np.mean(ratios)))
    ok = means[0] <= means[1] <= means[2] and means[2] > means[0]
    report(4, ok, "mean cost_ratio per sigma grid: "
           + ", ".join(f"{m:.4f}" for m in means))


def test_acceptance_5_empirical_dp_bound():
    details = []
    ok = True
    for eps in (0.1, 0.5, 1.0):
        r = empirical_dp_ratio(NoiseKind.LAPLACE, 1.0 / eps, 1.0, bins=8,
                               samples=10 ** 6, rng=np.random.default_rng(2))
        details.append(f"laplace eps={eps}: {r:.4f}")
        ok = ok and r <= 1.10 * eps
    sigma = gaussian_sigma(1.0, 0.5, 0.01)
    frac = empirical_dp_violation_fraction(
        NoiseKind.GAUSSIAN, sigma, 1.0, 0.5, bins=80,
        samples=10 ** 6, rng=np.random.default_rng(4),
    )
    details.append(f"gaussian violating mass: {frac:.5f}")
    ok = ok and frac <= 0.01 + 0.005
    report(5, ok, "; ".join(details))


def test_acceptance_6_communication_complexity(full_reference_run):
    _, trace, _ = full_reference_run
    per_step = trace.event_bits.sum(axis=1)
    bits_ok = bool((per_step <= trace.n_resources).all())
    total_ok = trace.broadcast_bits_total == int(trace.event_counts.sum()) \
        and trace.cum_bits[-1] == trace.broadcast_bits_total
    r2 = linear_fit_r2(trace.cum_bits)
    ok = bits_ok and total_ok and r2 >= 0.95
    report(6, ok, f"max bits/step={int(per_step.max())}, "
           f"total={trace.broadcast_bits_total}, R2={r2:.6f}")


def test_acceptance_7_sensitivity_convergence(full_reference_run):
    _, trace, _ = full_reference_run
    details = []
    ok = True
    for j in range(trace.n_resources):
        events = np.nonzero(trace.event_bits[:, j])[0]
        mid_step = events[events.size // 2]
        final = float(trace.sensitivity[-1, j])
        increment = final - float(trace.sensitivity[mid_step, j])
        ok = ok and final > 0 and increment <= 0.10 * final
        details.append(f"resource {j}: final={final:.4f}, last-half +{increment:.4f}")
    report(7, ok, "; ".join(details))


def test_acceptance_8_deterministic_summaries(tmp_path):
    config = cli.reference_system_config(
        [NoiseSpec(kind=NoiseKind.GAUSSIAN, epsilon=0.2, delta=0.01,
                   scale_mode=ScaleMode.FIXED, scale=20.50),
         NoiseSpec(kind=NoiseKind.GAUSSIAN, epsilon=0.2, delta=0.01,
                   scale_mode=ScaleMode.FIXED, scale=39.31)],
        steps=2_000,
    )
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cli.serialize_config(config)), encoding="utf-8")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    code1 = cli.main(["run", "--config", str(path), "--out", str(out1)])
    code2 = cli.main(["run", "--config", str(path), "--out", str(out2)])
    name = f"summary_p000_s{config.seed}.json"
    same = (out1 / name).read_bytes() == (out2 / name).read_bytes()
    ok = code1 == 0 and code2 == 0 and same
    report(8, ok, "byte-identical summary JSON" if same else "summaries differ")


def test_acceptance_9_invariant_suite(full_reference_run):
    config, trace, optimum = full_reference_run
    checks = {}

    # post-MD strict decrease wherever a back-off was applied
    events = trace.event_bits.astype(bool)
    strict = True
    for j in range(trace.n_resources):
        steps_j = np.nonzero(events[:, j])[0]
        steps_j = steps_j[steps_j > 0]
        recorded = ~np.isnan(trace.lambda_hat[steps_j, :, j])
        strict &= bool((trace.x[steps_j, :, j][recorded]
                        < trace.x[steps_j - 1, :, j][recorded]).all())
    checks["post-MD decrease"] = strict

    # overshoot above capacity never exceeds n * alpha
    agg = trace.x.sum(axis=1)
    checks["bounded overshoot"] = all(
        agg[:, j].max() <= r.capacity + config.n_agents * r.alpha + 1e-9
        for j, r in enumerate(config.resources)
    )

    # the recorded average is the exact running mean of the demand over every
    # step: the recorded demands plus the initial zero sample x(0) = 0
    mean = trace.x.sum(axis=0) / (trace.steps + 1)
    checks["event-average exact"] = bool(np.allclose(trace.xbar[-1], mean, atol=1e-10))

    lam = trace.lambda_hat[~np.isnan(trace.lambda_hat)]
    checks["lambda clamp"] = bool(((lam >= LAMBDA_MIN) & (lam <= 1.0)).all())

    h = 1e-6
    fd_ok = True
    for f in config.agents[:2]:
        x = np.array([0.7, 0.9])
        value = PolyBatch([f]).value
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fd = float(value((x + e)[None])[0] - value((x - e)[None])[0]) / (2 * h)
            fd_ok &= abs(f.partial(x, j) - fd) <= 1e-4 * max(1.0, abs(fd))
    checks["finite-difference partials"] = fd_ok

    parsed = cli.parse_config(cli.serialize_config(config))
    checks["config round-trip"] = (
        parsed.steps == config.steps
        and parsed.seed == config.seed
        and all(np.array_equal(a.coeffs, b.coeffs)
                and np.array_equal(a.exponents, b.exponents)
                for a, b in zip(parsed.agents, config.agents))
        and parsed.resources == config.resources
        and parsed.noise == config.noise
    )

    failed = [name for name, ok in checks.items() if not ok]
    report(9, not failed, "all invariants hold" if not failed
           else "failed: " + ", ".join(failed))

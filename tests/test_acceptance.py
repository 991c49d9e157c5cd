"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from conftest import P0, P_NS, V_MAX, random_state, tick_scenario
from oflc import machine, optimizer
from oflc.cli import main as cli_main
from oflc.config import parse_config
from oflc.linearization import compute_terms, torque_rate_identity_residual
from oflc.loop import ControllerSettings, closed_loop_tf_check
from oflc.machine import torque
from oflc.profiles import ConstantProfile, SinusoidProfile, StepProfile, TrapezoidProfile
from oflc.sim import Scenario, run_continuous, run_open_loop, run_scenario

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


def _report(criterion, ok, detail):
    print(f"\ncriterion {criterion}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------- shared runs

@pytest.fixture(scope="module")
def s1():
    scenario, settings = parse_config((SCENARIO_DIR / "s1.cfg").read_text())
    return scenario, settings


@pytest.fixture(scope="module")
def s1_oflc(s1):
    scenario, settings = s1
    return run_scenario(scenario, "oflc", settings=settings)


@pytest.fixture(scope="module")
def s1_flc(s1):
    scenario, settings = s1
    return run_scenario(scenario, "flc_z0", settings=settings)


@pytest.fixture(scope="module")
def clamp_run():
    # deliberately infeasible torque reference exercising the clamp
    scenario = Scenario(params=P0, duration=0.05, tau_ref=SinusoidProfile(120.0, 10.0),
                        speed=TrapezoidProfile(0.0, 250.0, 0.005, 0.02),
                        dt_plant=1e-5, dt_ctrl=1e-4, horizon=1e-3, v_max=V_MAX)
    return run_scenario(scenario, "oflc", settings=ControllerSettings(kp=0.0, ki=0.0))


@pytest.fixture(scope="module")
def nonsalient_run():
    scenario = Scenario(params=P_NS, duration=0.1, tau_ref=ConstantProfile(4.0),
                        speed=ConstantProfile(100.0), dt_plant=2e-6, dt_ctrl=2e-6,
                        horizon=1e-3, v_max=V_MAX)
    return run_scenario(scenario, "oflc", settings=ControllerSettings(kp=0.0, ki=0.0))


@pytest.fixture(scope="module")
def all_run_frames(s1_oflc, s1_flc, clamp_run, nonsalient_run):
    return (
        [(f, P0) for f in s1_oflc.frames]
        + [(f, P0) for f in s1_flc.frames]
        + [(f, P0) for f in clamp_run.frames]
        + [(f, P_NS) for f in nonsalient_run.frames]
    )


# ---------------------------------------------------------------- criteria

def test_criterion_1_exact_linearization():
    # closed loop with control evaluated continuously (zero-order-hold
    # quantization would otherwise dominate the continuous-time identity)
    rng = np.random.default_rng(7)
    t0 = time.monotonic()
    worst = 0.0
    dt = 1e-5
    for _ in range(10):
        amp = rng.uniform(1.0, 6.0)
        freq = rng.uniform(2.0, 20.0)
        off = rng.uniform(-2.0, 2.0)
        u_prof = SinusoidProfile(amp, freq, offset=off, phase=rng.uniform(0, 2 * np.pi))
        om_prof = TrapezoidProfile(rng.uniform(-50, 50), rng.uniform(100, 250),
                                   0.002, rng.uniform(0.01, 0.02))
        run = run_continuous(P0, V_MAX, u_prof, om_prof, 0.03, dt,
                             z_smoothing=0.5, i0=(rng.uniform(-2, 2), rng.uniform(-5, 5)))
        tau_dot = (run.tau[2:] - run.tau[:-2]) / (2.0 * dt)
        res = np.abs(run.tau[1:-1] + P0.mu * tau_dot - run.u[1:-1])
        ok = ~(run.clamped[:-2] | run.clamped[1:-1] | run.clamped[2:])
        bound = 1e-3 * np.maximum(1.0, np.abs(run.u[1:-1]))
        worst = max(worst, float((res[ok] / bound[ok]).max()))
    elapsed = time.monotonic() - t0
    _report(1, worst <= 1.0 and elapsed < 30.0,
            f"max residual {worst:.2e} of tolerance; runtime {elapsed:.1f}s < 30s")


def test_criterion_2_closed_loop_transfer_function():
    mu = P0.mu
    dt = 1e-5
    kw = dict(duration=5.0 * mu, dt=dt)
    on = run_continuous(P0, V_MAX, StepProfile(0.0, 6.0, 0.0), ConstantProfile(0.0),
                        z_smoothing=0.5, **kw)
    off = run_continuous(P0, V_MAX, StepProfile(0.0, 6.0, 0.0), ConstantProfile(0.0),
                         use_z=False, **kw)
    mu_hat = closed_loop_tf_check(on.t, on.tau, 6.0)
    tau_at_mu = on.tau[round(mu / dt)]
    expect = 6.0 * (1.0 - np.exp(-1.0))
    z_diff = float(np.abs(on.tau - off.tau).max())
    ok = (abs(mu_hat - mu) <= 0.01 * mu
          and abs(tau_at_mu - expect) <= 0.01 * expect
          and z_diff <= 1e-6)
    _report(2, ok, f"mu_hat {mu_hat:.6f} vs {mu}; tau(mu) {tau_at_mu:.4f} vs {expect:.4f}; "
                   f"z on/off max diff {z_diff:.2e}")


def test_criterion_3_orthogonality_every_tick(all_run_frames):
    worst = 0.0
    for frame, params in all_run_frames:
        z = np.array([frame.z_d, frame.z_q])
        zn = np.linalg.norm(z)
        if zn == 0.0:
            continue
        terms = compute_terms((frame.i_d, frame.i_q), frame.omega, params)
        worst = max(worst, abs(float(np.dot((terms.b_d, terms.b_q), z))) / (np.sqrt(terms.b_norm_sq) * zn))
    _report(3, worst <= 1e-10, f"worst |b.z| / (|b||z|) = {worst:.2e} over {len(all_run_frames)} ticks")


def test_criterion_4_voltage_limit_every_tick(all_run_frames, clamp_run):
    worst = max(np.linalg.norm((f.v_d, f.v_q)) / V_MAX for f, _ in all_run_frames)
    n_clamped = clamp_run.saturation_counts["u_clamped"]
    _report(4, worst <= 1.0 + 1e-9 and n_clamped > 0,
            f"max |v|/v_max = {worst:.12f}; clamp exercised on {n_clamped} ticks")


def test_criterion_5_minimum_principle_oracle():
    rng = np.random.default_rng(11)
    t0 = time.monotonic()
    worst = 0.0
    s_grid = np.linspace(-1.0, 1.0, 2001)
    for _ in range(1000):
        i, omega, terms = random_state(rng, P0)
        u, _ = optimizer.clamp_torque_command(rng.uniform(-30, 30), terms, V_MAX)
        z_max = optimizer.z_limit(u, terms, V_MAX)
        A = optimizer.costate_matrices(i, omega, u, terms, P0)
        lam, _ = optimizer.estimate_costate(i, A, 1e-3)
        z_star, _ = optimizer.optimal_z(lam, terms, P0, z_max)
        h_star = optimizer.hamiltonian(i, lam, u, z_star, terms, omega, P0)
        # dense sweep of the admissible segment {s n : |s| <= z_max}
        n = np.array([-terms.b_q, terms.b_d]) / np.sqrt(terms.b_norm_sq)
        h0 = optimizer.hamiltonian(i, lam, u, np.zeros(2), terms, omega, P0)
        slope = float(np.asarray(lam) @ (n / (P0.L_d, P0.L_q)))
        h_sweep = h0 + (s_grid * z_max) * slope
        best = float(h_sweep.min())
        worst = max(worst, (h_star - best) / max(1.0, abs(best)))
    elapsed = time.monotonic() - t0
    _report(5, worst <= 1e-6 and elapsed < 5.0,
            f"worst H excess {worst:.2e}; runtime {elapsed:.1f}s < 5s")


def test_criterion_6_gradient_checks():
    rng = np.random.default_rng(13)
    worst_A = worst_phi = worst_h = 0.0
    for _ in range(500):
        i, omega, terms = random_state(rng, P0)
        u = rng.uniform(-20, 20)
        A = np.array(optimizer.costate_matrices(i, omega, u, terms, P0))
        dphi = np.array(optimizer.dphi_di(i, omega, P0))
        dh = np.array(optimizer.dh_di(omega, P0))
        eps = 1e-5
        A_fd = np.empty((2, 2))
        dphi_fd = np.empty(2)
        dh_fd = np.empty((2, 2))
        for j in range(2):
            dv = np.zeros(2)
            dv[j] = eps
            fp = optimizer.current_dynamics(i + dv, omega, u, np.zeros(2), P0)
            fm = optimizer.current_dynamics(i - dv, omega, u, np.zeros(2), P0)
            A_fd[:, j] = -(fp - fm) / (2 * eps)
            dphi_fd[j] = (compute_terms(i + dv, omega, P0).phi - compute_terms(i - dv, omega, P0).phi) / (2 * eps)
            dh_fd[:, j] = np.subtract(machine.voltage_drift(i + dv, omega, P0),
                                      machine.voltage_drift(i - dv, omega, P0)) / (2 * eps)
        worst_A = max(worst_A, np.linalg.norm(A - A_fd) / max(np.linalg.norm(A), 1.0))
        worst_phi = max(worst_phi, np.linalg.norm(dphi - dphi_fd) / max(np.linalg.norm(dphi), 1.0))
        worst_h = max(worst_h, np.linalg.norm(dh - dh_fd) / max(np.linalg.norm(dh), 1.0))
    _report(6, worst_A <= 1e-5 and worst_phi <= 1e-6 and worst_h <= 1e-6,
            f"A {worst_A:.2e} (<=1e-5); dphi/di {worst_phi:.2e}, dh/di {worst_h:.2e} (<=1e-6)")


def test_criterion_7_identity_arbitration():
    dt = 1e-6
    omega = 150.0

    def v_fn(t):
        return np.array([5.0 * np.sin(2 * np.pi * 300 * t), 8.0 * np.cos(2 * np.pi * 200 * t)])

    ts, traj = run_open_loop(P0, v_fn, lambda t: omega, (1.0, 2.0), 2e-3, dt)
    shipped, printed = [], []
    for k in range(1, len(ts) - 1):
        args = (traj[k - 1], traj[k], traj[k + 1], v_fn(ts[k]), omega, dt, P0)
        shipped.append(abs(torque_rate_identity_residual(*args)))
        printed.append(abs(torque_rate_identity_residual(*args, printed_b_d=True)))
    tau_scale = max(1.0, max(abs(torque(x, P0)) for x in traj))
    ok = max(shipped) <= 1e-3 * tau_scale and max(shipped) <= max(printed)
    _report(7, ok, f"shipped b_d residual {max(shipped):.2e} vs printed variant {max(printed):.2e}")


def test_criterion_8_energy_saving_on_s1(s1_oflc, s1_flc):
    ratio = s1_oflc.cost_integral / s1_flc.cost_integral
    _report(8, s1_oflc.cost_integral <= s1_flc.cost_integral,
            f"cost OFLC {s1_oflc.cost_integral:.3f} <= FLC(z=0) {s1_flc.cost_integral:.3f}; "
            f"ratio {ratio:.3f} (saving {100 * (1 - ratio):.1f}%; reported, not asserted)")


def test_criterion_9_non_salient_zero_d_current(nonsalient_run):
    i_d = np.array([f.i_d for f in nonsalient_run.frames])
    tail = i_d[int(0.8 * len(i_d)):]  # after >= 10 mu settle
    worst = float(np.abs(tail).max())
    _report(9, worst <= 0.05, f"steady-state |i_d| <= {worst:.3f} A (limit 0.05 A)")


def test_criterion_10_integrator_order():
    from scipy.linalg import expm
    from oflc.sim import rk4_plant_step

    # Richardson order on a smooth salient trajectory
    def endpoint(dt, n):
        return np.array(rk4_plant_step(1.0, -2.0, 0.0, 3.0, 4.0, 0.0, tick_scenario(P0, dt, n, 200.0))[:2])

    T = 0.01
    dt = 2e-4
    e1, e2, e3 = endpoint(dt, round(T / dt)), endpoint(dt / 2, round(2 * T / dt)), endpoint(dt / 4, round(4 * T / dt))
    order = float(np.log2(np.linalg.norm(e1 - e2) / np.linalg.norm(e2 - e3)))

    # linear (non-salient) case against the matrix-exponential solution
    params = P_NS
    omega, v = 150.0, np.array([5.0, -3.0])
    # textbook q drift -R i_q - omega (L_d i_d + psi) (Krause et al., Analysis of Electric Machinery)
    M = np.array([[-params.R / params.L_d, params.L_q * omega / params.L_d],
                  [-params.L_d * omega / params.L_q, -params.R / params.L_q]])
    c = np.array([v[0] / params.L_d, (v[1] - params.psi * omega) / params.L_q])
    n = 2000
    i = np.array(rk4_plant_step(2.0, -1.0, 0.0, *v.tolist(), 0.0, tick_scenario(params, 1e-6, n, omega))[:2])
    i_star = -np.linalg.solve(M, c)
    exact = i_star + expm(M * (n * 1e-6)) @ (np.array([2.0, -1.0]) - i_star)
    lin_err = float(np.linalg.norm(i - exact) / max(1.0, np.linalg.norm(exact)))
    _report(10, order >= 3.9 and lin_err <= 1e-9,
            f"observed order {order:.2f} (>=3.9); linear-case error {lin_err:.2e} (<=1e-9)")


def test_criterion_11_transform_round_trip():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(1000):
        theta = rng.uniform(-100.0, 100.0)
        prod = machine.park_matrix(theta, P0.p) @ machine.inverse_park_matrix(theta, P0.p)
        worst = max(worst, float(np.abs(prod - np.eye(2)).max()))
    _report(11, worst <= 1e-12, f"max |K Kinv - I| = {worst:.2e} over 1000 angles")


def test_criterion_12_compare_determinism(tmp_path):
    cfg = str(SCENARIO_DIR / "s1.cfg")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["compare", "--scenario", cfg, "--out", str(out_a)]) == 0
    assert cli_main(["compare", "--scenario", cfg, "--out", str(out_b)]) == 0
    same = all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for name in ("oflc_trace.csv", "flc_z0_trace.csv", "compare_summary.txt")
    )
    _report(12, same, "repeated compare runs produced bit-identical traces")

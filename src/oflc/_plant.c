/* The compiled twin of sim.rk4_plant_step's substep loop in mechanical mode at a constant load.
 *
 * It does every float operation of the Python loop, in the same order, on IEEE binary64; built with
 * -ffp-contract=off and without -ffast-math, so no multiply-add is fused and no subnormal is flushed, every result
 * equals CPython's bit for bit.
 *
 * k: dt, h/2, h/3, h/4, a_d, a_q, a_d h/2, a_d h/3, a_d h/4, a_q h/2, a_q h/3, a_q h/4, L_d, L_q, psi, p, c_1, c_2,
 *    friction, dt/J, as in Scenario._plant.
 * x: i_d, i_q, omega_m, the first substep's electrical speed omega, v_d, v_q and the load torque; on return x[0:3]
 *    holds the tick's i_d, i_q and omega_m. */
void oflc_mechanical_tick(const double *k, double *x, int n)
{
    const double dt = k[0], h2 = k[1], h3 = k[2], h4 = k[3], a_d = k[4], a_q = k[5], a2_d = k[6], a3_d = k[7],
                 a4_d = k[8], a2_q = k[9], a3_q = k[10], a4_q = k[11], psi = k[14], p = k[15], c_1 = k[16],
                 c_2 = k[17], friction = k[18], k_m = k[19], v_d = x[4], v_q = x[5], tau_load = x[6];
    double y_d = k[12] * x[0], y_q = k[13] * x[1], omega_m = x[2], omega = x[3];
    for (int j = 0; j < n; j++) {
        const double o2 = h2 * omega, o3 = h3 * omega, o4 = h4 * omega;
        const double r_d = a_d * y_d + omega * y_q + v_d, r_q = a_q * y_q - omega * (y_d + psi) + v_q;
        const double x_d = r_d + (a4_d * r_d + o4 * r_q), x_q = r_q + (a4_q * r_q - o4 * r_d);
        const double z_d = r_d + (a3_d * x_d + o3 * x_q), z_q = r_q + (a3_q * x_q - o3 * x_d);
        y_d = y_d + dt * (r_d + (a2_d * z_d + o2 * z_q));
        y_q = y_q + dt * (r_q + (a2_q * z_q - o2 * z_d));
        omega_m += (y_q * (c_1 + c_2 * y_d) - tau_load - friction * omega_m) * k_m;
        omega = p * omega_m;
    }
    x[0] = y_d / k[12];
    x[1] = y_q / k[13];
    x[2] = omega_m;
}

/* The compiled twins of loop.control_law's law and of sim.rk4_plant_step's substep loop in mechanical mode at a
 * constant load, as the CPython extension module _kernels; oflc.kernels builds and loads it.
 *
 * Each does every float operation of its Python twin, in the same order, on IEEE binary64; built with
 * -ffp-contract=off and without -ffast-math, so no multiply-add is fused and no subnormal is flushed, every result
 * equals CPython's bit for bit.  Both take Python objects through METH_FASTCALL, so a call costs about what a call
 * of a Python builtin does. */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <string.h>

/* The constants of one run's law, packed by loop.control_law in this order, each a double. */
typedef struct {
    double mu_d, mu_q, t_dq, k_tau, psi, saliency, L_d, L_q, neg_L_d, h_dd, mu, g_dq, g_qd, v_max, inv_h, two_h,
        v_max2, alpha_z, z_smoothing, eps_b2, cond_limit, eps_d, use_z, u_clamped, lambda_fallback, z_zeroed,
        z_at_limit;
} Law;

/* Copy the packed doubles of `packed`, a bytes object of exactly `size` bytes, into `out`; -1 with TypeError if it
 * is not one. */
static int unpack(PyObject *packed, void *out, size_t size)
{
    if (!PyBytes_CheckExact(packed) || (size_t)PyBytes_GET_SIZE(packed) != size) {
        PyErr_Format(PyExc_TypeError, "expected the packed constants, %zu bytes", size);
        return -1;
    }
    memcpy(out, PyBytes_AS_STRING(packed), size);
    return 0;
}

/* A new tuple of the n floats x and, unless it is NULL, the new reference last after them; NULL with an exception
 * set where an object cannot be made. */
static PyObject *tuple_of(const double *x, Py_ssize_t n, PyObject *last)
{
    PyObject *out = PyTuple_New(n + (last != NULL));
    if (out == NULL) {
        Py_XDECREF(last);
        return NULL;
    }
    for (Py_ssize_t j = 0; j < n; j++) {
        PyObject *item = PyFloat_FromDouble(x[j]);
        if (item == NULL) {
            Py_XDECREF(last);
            Py_DECREF(out);
            return NULL;
        }
        PyTuple_SET_ITEM(out, j, item);
    }
    if (last != NULL)
        PyTuple_SET_ITEM(out, n, last);
    return out;
}

/* law(packed, python_law, i_dq, omega, u_raw): the law of loop.control_law, whose docstring is its contract, on a
 * tuple of two floats and two floats (exact types).  Any other call, and a degenerate b, goes to python_law, the
 * closure it twins, so that its results, result types, errors and messages are that closure's. */
static PyObject *law(PyObject *module, PyObject *const *args, Py_ssize_t nargs, PyObject *kwnames)
{
    if (nargs < 2) {
        PyErr_SetString(PyExc_TypeError, "law takes the packed constants and the Python law first");
        return NULL;
    }
    PyObject *i_dq = nargs == 5 ? args[2] : NULL;
    if (nargs != 5 || kwnames != NULL || !PyTuple_CheckExact(i_dq) || PyTuple_GET_SIZE(i_dq) != 2
        || !PyFloat_CheckExact(PyTuple_GET_ITEM(i_dq, 0)) || !PyFloat_CheckExact(PyTuple_GET_ITEM(i_dq, 1))
        || !PyFloat_CheckExact(args[3]) || !PyFloat_CheckExact(args[4]))
        return PyObject_Vectorcall(args[1], args + 2, nargs - 2, kwnames);
    Law k;
    if (unpack(args[0], &k, sizeof k) < 0)
        return NULL;
    const double i_d = PyFloat_AS_DOUBLE(PyTuple_GET_ITEM(i_dq, 0));
    const double i_q = PyFloat_AS_DOUBLE(PyTuple_GET_ITEM(i_dq, 1));
    const double omega = PyFloat_AS_DOUBLE(args[3]), u_raw = PyFloat_AS_DOUBLE(args[4]);
    /* compute_terms: b = mu L^-1 grad tau, h and phi = tau + b^T h */
    const double b_d = k.mu_d * (k.t_dq * i_q), b_q = k.mu_q * (k.k_tau * (k.psi + k.saliency * i_d));
    const double b2 = b_d * b_d + b_q * b_q, b_norm = sqrt(b2);
    if (b2 < k.eps_b2) /* DegenerateBError, raised by the Python law with its message */
        return PyObject_Vectorcall(args[1], args + 2, 3, NULL);
    const double h_dq = k.L_q * omega, h_qd = k.neg_L_d * omega;
    const double h_d = k.h_dd * i_d + h_dq * i_q;
    const double h_q = h_qd * i_d + k.h_dd * i_q - k.psi * omega;
    const double phi = k.k_tau * (k.psi * i_q + k.saliency * i_d * i_q) + b_d * h_d + b_q * h_q;
    /* clamp_torque_command */
    const double u_min = phi - b_norm * k.v_max, u_max = phi + b_norm * k.v_max;
    const int clamped = u_raw > u_max || u_raw < u_min;
    const double u = u_raw > u_max ? u_max : u_raw < u_min ? u_min : u_raw;
    /* costate_matrices: A = (u - phi) Lambda + Gamma */
    const double dphi_d = k.L_d * b_d / k.mu + k.g_qd * h_q + k.h_dd * b_d + h_qd * b_q;
    const double dphi_q = k.L_q * b_q / k.mu + k.g_dq * h_d + h_dq * b_d + k.h_dd * b_q;
    const double gb_d = k.g_qd * b_q, gb_q = k.g_dq * b_d;
    const double w = 2.0 / (b2 * b2);
    const double j_dd = -w * b_d * gb_d, j_dq = k.g_dq / b2 - w * b_d * gb_q;
    const double j_qd = k.g_qd / b2 - w * b_q * gb_d, j_qq = -w * b_q * gb_q;
    const double e = u - phi;
    const double c_d = b_d / b2, c_q = b_q / b2;
    /* estimate_costate: M = I/h + A^T, lambda = 2 M^-1 i or the fallback 2 h i */
    const double m_dd = k.inv_h + (c_d * dphi_d - k.h_dd - e * j_dd) / k.L_d;
    const double m_qd = (c_d * dphi_q - h_dq - e * j_dq) / k.L_d;
    const double m_dq = (c_q * dphi_d - h_qd - e * j_qd) / k.L_q;
    const double m_qq = k.inv_h + (c_q * dphi_q - k.h_dd - e * j_qq) / k.L_q;
    const double det = m_dd * m_qq - m_dq * m_qd;
    long flags = clamped ? (long)k.u_clamped : 0;
    double lam_d, lam_q, z_d = 0.0, z_q = 0.0;
    if (m_dd * m_dd + m_dq * m_dq + m_qd * m_qd + m_qq * m_qq < k.cond_limit * fabs(det)) {
        lam_d = 2.0 * ((m_qq * i_d - m_dq * i_q) / det);
        lam_q = 2.0 * ((m_dd * i_q - m_qd * i_d) / det);
    } else {
        lam_d = k.two_h * i_d;
        lam_q = k.two_h * i_q;
        flags |= (long)k.lambda_fallback;
    }
    if (k.use_z != 0.0) {
        /* z_limit; a clamped u leaves exactly no budget, and one inside the band a negative one only by rounding */
        const double disc = clamped ? 0.0 : k.v_max2 - e * e / b2;
        const double z_max = disc < 0.0 ? 0.0 : sqrt(disc);
        /* optimal_z: m n on the line perpendicular to b, n = (-b_q, b_d) / |b| */
        const double n_d = -b_q / b_norm, n_q = b_d / b_norm;
        const double s = n_d * (lam_d / k.L_d) + n_q * (lam_q / k.L_q);
        if (k.z_smoothing > 0.0) {
            const double m = -k.alpha_z * z_max * s / sqrt(s * s + k.z_smoothing * k.z_smoothing);
            z_d = m * n_d;
            z_q = m * n_q;
            flags |= z_max <= 0.0 ? (long)k.z_zeroed : 0;
        } else if (fabs(s) < k.eps_d || z_max <= 0.0) {
            flags |= (long)k.z_zeroed;
        } else {
            const double m = -copysign(k.alpha_z * z_max, s);
            z_d = m * n_d;
            z_q = m * n_q;
            flags |= (long)k.z_at_limit;
        }
    }
    /* linearize: v = b/|b|^2 (u - phi) + z */
    const double out[7] = {c_d * e + z_d, c_q * e + z_q, u, lam_d, lam_q, z_d, z_q};
    PyObject *last = PyLong_FromLong(flags);
    return last == NULL ? NULL : tuple_of(out, 7, last);
}

/* mechanical_tick(packed, i_d, i_q, omega_m, omega, v_d, v_q, tau_load, n) -> (i_d, i_q, omega_m): the n substeps
 * of one mechanical tick at a constant load, omega the first substep's electrical speed.  packed holds 20 doubles:
 * dt, h/2, h/3, h/4, a_d, a_q, a_d h/2, a_d h/3, a_d h/4, a_q h/2, a_q h/3, a_q h/4, L_d, L_q, psi, p, c_1, c_2,
 * friction and dt/J, as sim.Scenario packs them. */
static PyObject *mechanical_tick(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    double k[20], x[7];
    if (nargs != 9) {
        PyErr_Format(PyExc_TypeError, "mechanical_tick takes 9 arguments (%zd given)", nargs);
        return NULL;
    }
    if (unpack(args[0], k, sizeof k) < 0)
        return NULL;
    for (int j = 0; j < 7; j++)
        if ((x[j] = PyFloat_AsDouble(args[j + 1])) == -1.0 && PyErr_Occurred())
            return NULL;
    const long n = PyLong_AsLong(args[8]);
    if (n == -1 && PyErr_Occurred())
        return NULL;
    const double dt = k[0], h2 = k[1], h3 = k[2], h4 = k[3], a_d = k[4], a_q = k[5], a2_d = k[6], a3_d = k[7],
                 a4_d = k[8], a2_q = k[9], a3_q = k[10], a4_q = k[11], psi = k[14], p = k[15], c_1 = k[16],
                 c_2 = k[17], friction = k[18], k_m = k[19], v_d = x[4], v_q = x[5], tau_load = x[6];
    double y_d = k[12] * x[0], y_q = k[13] * x[1], omega_m = x[2], omega = x[3];
    for (long j = 0; j < n; j++) {
        const double o2 = h2 * omega, o3 = h3 * omega, o4 = h4 * omega;
        const double r_d = a_d * y_d + omega * y_q + v_d, r_q = a_q * y_q - omega * (y_d + psi) + v_q;
        const double x_d = r_d + (a4_d * r_d + o4 * r_q), x_q = r_q + (a4_q * r_q - o4 * r_d);
        const double z_d = r_d + (a3_d * x_d + o3 * x_q), z_q = r_q + (a3_q * x_q - o3 * x_d);
        y_d = y_d + dt * (r_d + (a2_d * z_d + o2 * z_q));
        y_q = y_q + dt * (r_q + (a2_q * z_q - o2 * z_d));
        omega_m += (y_q * (c_1 + c_2 * y_d) - tau_load - friction * omega_m) * k_m;
        omega = p * omega_m;
    }
    const double out[3] = {y_d / k[12], y_q / k[13], omega_m};
    return tuple_of(out, 3, NULL);
}

static PyMethodDef methods[] = {
    {"law", (PyCFunction)(void (*)(void))law, METH_FASTCALL | METH_KEYWORDS, NULL},
    {"mechanical_tick", (PyCFunction)(void (*)(void))mechanical_tick, METH_FASTCALL, NULL},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module_def = {PyModuleDef_HEAD_INIT, "_kernels", NULL, -1, methods};

PyMODINIT_FUNC PyInit__kernels(void) { return PyModule_Create(&module_def); }

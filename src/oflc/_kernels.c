/* The compiled twins of loop.control_law's law and of sim.rk4_plant_step's substep loop, as the CPython extension
 * module _kernels of three functions: law, and the loop's two tick functions, mechanical_tick (a mechanical speed at a
 * constant load) and profile_tick (a varying speed profile), which share its substep body; oflc.kernels builds and
 * loads it.
 *
 * Each does every float operation of its Python twin, in the same order, on IEEE binary64; built with
 * -ffp-contract=off and without -ffast-math, so no multiply-add is fused and no subnormal is flushed, every result
 * equals CPython's bit for bit.  All take Python objects through METH_FASTCALL, so a call costs about what a call
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
 * tuple of two floats and two floats (exact types), with the float operations of loop.composed_control_law's steps in
 * their order, in 0.2-0.3 us a call against 5-9 us for that composition.  Any other call, and a degenerate b, goes
 * to python_law, the composition it twins, so that its results, result types, errors and messages are the
 * composition's. */
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

/* The plant's constants, packed by sim.Scenario in this order, each a double: dt, h/2, h/3, h/4, a_d, a_q,
 * a_d h/2, a_d h/3, a_d h/4, a_q h/2, a_q h/3, a_q h/4, L_d, L_q, psi and p. */
typedef struct {
    double dt, h2, h3, h4, a_d, a_q, a2_d, a3_d, a4_d, a2_q, a3_q, a4_q, L_d, L_q, psi, p;
} Plant;

/* The plant's constants, then the mechanical speed's Euler step: c_1, c_2, friction and dt/J. */
typedef struct {
    Plant plant;
    double c_1, c_2, friction, k_m;
} Mechanical;

/* The flux linkages L_d i_d and L_q i_q. */
typedef struct {
    double d, q;
} Flux;

/* One RK4 substep of the flux y at the held electrical speed omega and voltage v: the body of the Python loop, every
 * float operation in its order, and the one copy of it here. */
static inline Flux substep(const Plant *k, Flux y, double omega, double v_d, double v_q)
{
    const double o2 = k->h2 * omega, o3 = k->h3 * omega, o4 = k->h4 * omega;
    const double r_d = k->a_d * y.d + omega * y.q + v_d, r_q = k->a_q * y.q - omega * (y.d + k->psi) + v_q;
    const double x_d = r_d + (k->a4_d * r_d + o4 * r_q), x_q = r_q + (k->a4_q * r_q - o4 * r_d);
    const double z_d = r_d + (k->a3_d * x_d + o3 * x_q), z_q = r_q + (k->a3_q * x_q - o3 * x_d);
    return (Flux){y.d + k->dt * (r_d + (k->a2_d * z_d + o2 * z_q)), y.q + k->dt * (r_q + (k->a2_q * z_q - o2 * z_d))};
}

/* Read the n Python floats (or numbers) args into x; -1 with an exception set where one is not a number. */
static int doubles(PyObject *const *args, double *x, int n)
{
    for (int j = 0; j < n; j++)
        if ((x[j] = PyFloat_AsDouble(args[j])) == -1.0 && PyErr_Occurred())
            return -1;
    return 0;
}

/* mechanical_tick(packed, i_d, i_q, omega_m, omega, v_d, v_q, tau_load, n) -> (i_d, i_q, omega_m): the n substeps
 * of one mechanical tick at a constant load, omega the first substep's electrical speed; packed is a Mechanical. */
static PyObject *mechanical_tick(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Mechanical k;
    double x[7];
    if (nargs != 9) {
        PyErr_Format(PyExc_TypeError, "mechanical_tick takes 9 arguments (%zd given)", nargs);
        return NULL;
    }
    if (unpack(args[0], &k, sizeof k) < 0 || doubles(args + 1, x, 7) < 0)
        return NULL;
    const long n = PyLong_AsLong(args[8]);
    if (n == -1 && PyErr_Occurred())
        return NULL;
    const double v_d = x[4], v_q = x[5], tau_load = x[6];
    Flux y = {k.plant.L_d * x[0], k.plant.L_q * x[1]};
    double omega_m = x[2], omega = x[3];
    for (long j = 0; j < n; j++) {
        y = substep(&k.plant, y, omega, v_d, v_q);
        omega_m += (y.q * (k.c_1 + k.c_2 * y.d) - tau_load - k.friction * omega_m) * k.k_m;
        omega = k.plant.p * omega_m;
    }
    const double out[3] = {y.d / k.plant.L_d, y.q / k.plant.L_q, omega_m};
    return tuple_of(out, 3, NULL);
}

/* *omega = speed(t); -1 with the exception set where the call raises or its result is not a number. */
static int read_speed(PyObject *speed, PyObject *t, double *omega)
{
    PyObject *reading = PyObject_CallOneArg(speed, t);
    if (reading == NULL)
        return -1;
    *omega = PyFloat_AsDouble(reading);
    Py_DECREF(reading);
    return *omega == -1.0 && PyErr_Occurred() ? -1 : 0;
}

/* profile_tick(packed, speed, n, i_d, i_q, v_d, v_q, t, omega) -> (i_d, i_q): the n substeps of one tick under a
 * varying speed profile, the callable speed; packed is a Plant.  The first substep runs at omega, or at speed(t) where
 * omega is None, and substep j >= 1 at speed(t + j dt), the float the Python loop computes, called in its order; an
 * error the profile raises propagates as it is. */
static PyObject *profile_tick(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Plant k;
    double x[5], omega;
    if (nargs != 9) {
        PyErr_Format(PyExc_TypeError, "profile_tick takes 9 arguments (%zd given)", nargs);
        return NULL;
    }
    if (unpack(args[0], &k, sizeof k) < 0)
        return NULL;
    PyObject *speed = args[1];
    const long n = PyLong_AsLong(args[2]);
    if ((n == -1 && PyErr_Occurred()) || doubles(args + 3, x, 5) < 0)
        return NULL;
    if (args[8] == Py_None ? read_speed(speed, args[7], &omega) < 0 : doubles(args + 8, &omega, 1) < 0)
        return NULL;
    const double v_d = x[2], v_q = x[3], t = x[4];
    Flux y = {k.L_d * x[0], k.L_q * x[1]};
    for (long j = 0; j < n; j++) {
        if (j) {
            PyObject *t_j = PyFloat_FromDouble(t + (double)j * k.dt);
            const int failed = t_j == NULL || read_speed(speed, t_j, &omega) < 0;
            Py_XDECREF(t_j);
            if (failed)
                return NULL;
        }
        y = substep(&k, y, omega, v_d, v_q);
    }
    const double out[2] = {y.d / k.L_d, y.q / k.L_q};
    return tuple_of(out, 2, NULL);
}

static PyMethodDef methods[] = {
    {"law", (PyCFunction)(void (*)(void))law, METH_FASTCALL | METH_KEYWORDS, NULL},
    {"mechanical_tick", (PyCFunction)(void (*)(void))mechanical_tick, METH_FASTCALL, NULL},
    {"profile_tick", (PyCFunction)(void (*)(void))profile_tick, METH_FASTCALL, NULL},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module_def = {PyModuleDef_HEAD_INIT, "_kernels", NULL, -1, methods};

PyMODINIT_FUNC PyInit__kernels(void) { return PyModule_Create(&module_def); }

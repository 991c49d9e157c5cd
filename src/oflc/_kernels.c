/* The compiled twins of loop.control_law's law, of sim.rk4_plant_step's substep loop and of sim.run_scenario's tick
 * loop for a loop.TorqueController, as the CPython extension module _kernels of three functions: law; tick, which
 * steps the loop's ticks under a varying speed profile and in mechanical mode, at a constant or a varying load; and
 * run, which steps every tick of a run after its first; oflc.kernels builds and loads it.
 *
 * Each does every float operation of its Python twin, in the same order, on IEEE binary64; built with
 * -ffp-contract=off and without -ffast-math, so no multiply-add is fused and no subnormal is flushed, every result
 * equals CPython's bit for bit.  The law and the substep loop are written once, as static inline functions that
 * law and run, and tick and run, call.  Each function takes Python objects through METH_FASTCALL, so a call costs
 * about what a call of a Python builtin does. */
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

/* The law of loop.control_law at the currents (i_d, i_q), the electrical speed omega and the torque command u_raw,
 * with the float operations of loop.composed_control_law's steps in their order: out = (v_d, v_q, u_feasible,
 * lambda_d, lambda_q, z_d, z_q), and the flags returned; -1 where b is degenerate, where the Python law raises
 * DegenerateBError, with out untouched.  The one copy of the law here, which law and run call. */
static inline long law_at(const Law *k, double i_d, double i_q, double omega, double u_raw, double out[7])
{
    /* compute_terms: b = mu L^-1 grad tau, h and phi = tau + b^T h */
    const double b_d = k->mu_d * (k->t_dq * i_q), b_q = k->mu_q * (k->k_tau * (k->psi + k->saliency * i_d));
    const double b2 = b_d * b_d + b_q * b_q, b_norm = sqrt(b2);
    if (b2 < k->eps_b2) /* where the Python law raises DegenerateBError */
        return -1;
    const double h_dq = k->L_q * omega, h_qd = k->neg_L_d * omega;
    const double h_d = k->h_dd * i_d + h_dq * i_q;
    const double h_q = h_qd * i_d + k->h_dd * i_q - k->psi * omega;
    const double phi = k->k_tau * (k->psi * i_q + k->saliency * i_d * i_q) + b_d * h_d + b_q * h_q;
    /* clamp_torque_command */
    const double u_min = phi - b_norm * k->v_max, u_max = phi + b_norm * k->v_max;
    const int clamped = u_raw > u_max || u_raw < u_min;
    const double u = u_raw > u_max ? u_max : u_raw < u_min ? u_min : u_raw;
    /* costate_matrices: A = (u - phi) Lambda + Gamma */
    const double dphi_d = k->L_d * b_d / k->mu + k->g_qd * h_q + k->h_dd * b_d + h_qd * b_q;
    const double dphi_q = k->L_q * b_q / k->mu + k->g_dq * h_d + h_dq * b_d + k->h_dd * b_q;
    const double gb_d = k->g_qd * b_q, gb_q = k->g_dq * b_d;
    const double w = 2.0 / (b2 * b2);
    const double j_dd = -w * b_d * gb_d, j_dq = k->g_dq / b2 - w * b_d * gb_q;
    const double j_qd = k->g_qd / b2 - w * b_q * gb_d, j_qq = -w * b_q * gb_q;
    const double e = u - phi;
    const double c_d = b_d / b2, c_q = b_q / b2;
    /* estimate_costate: M = I/h + A^T, lambda = 2 M^-1 i or the fallback 2 h i */
    const double m_dd = k->inv_h + (c_d * dphi_d - k->h_dd - e * j_dd) / k->L_d;
    const double m_qd = (c_d * dphi_q - h_dq - e * j_dq) / k->L_d;
    const double m_dq = (c_q * dphi_d - h_qd - e * j_qd) / k->L_q;
    const double m_qq = k->inv_h + (c_q * dphi_q - k->h_dd - e * j_qq) / k->L_q;
    const double det = m_dd * m_qq - m_dq * m_qd;
    long flags = clamped ? (long)k->u_clamped : 0;
    double lam_d, lam_q, z_d = 0.0, z_q = 0.0;
    if (m_dd * m_dd + m_dq * m_dq + m_qd * m_qd + m_qq * m_qq < k->cond_limit * fabs(det)) {
        lam_d = 2.0 * ((m_qq * i_d - m_dq * i_q) / det);
        lam_q = 2.0 * ((m_dd * i_q - m_qd * i_d) / det);
    } else {
        lam_d = k->two_h * i_d;
        lam_q = k->two_h * i_q;
        flags |= (long)k->lambda_fallback;
    }
    if (k->use_z != 0.0) {
        /* z_limit; a clamped u leaves exactly no budget, and one inside the band a negative one only by rounding */
        const double disc = clamped ? 0.0 : k->v_max2 - e * e / b2;
        const double z_max = disc < 0.0 ? 0.0 : sqrt(disc);
        /* optimal_z: m n on the line perpendicular to b, n = (-b_q, b_d) / |b| */
        const double n_d = -b_q / b_norm, n_q = b_d / b_norm;
        const double s = n_d * (lam_d / k->L_d) + n_q * (lam_q / k->L_q);
        if (k->z_smoothing > 0.0) {
            const double m = -k->alpha_z * z_max * s / sqrt(s * s + k->z_smoothing * k->z_smoothing);
            z_d = m * n_d;
            z_q = m * n_q;
            flags |= z_max <= 0.0 ? (long)k->z_zeroed : 0;
        } else if (fabs(s) < k->eps_d || z_max <= 0.0) {
            flags |= (long)k->z_zeroed;
        } else {
            const double m = -copysign(k->alpha_z * z_max, s);
            z_d = m * n_d;
            z_q = m * n_q;
            flags |= (long)k->z_at_limit;
        }
    }
    /* linearize: v = b/|b|^2 (u - phi) + z */
    const double v[7] = {c_d * e + z_d, c_q * e + z_q, u, lam_d, lam_q, z_d, z_q};
    memcpy(out, v, sizeof v);
    return flags;
}

/* law(packed, python_law, i_dq, omega, u_raw): the law of loop.control_law, whose docstring is its contract, on a
 * tuple of two floats and two floats (exact types), in 0.2-0.3 us a call against 5-9 us for loop.composed_control_law.
 * Any other call, and a degenerate b, goes to python_law, the composition it twins, so that its results, result
 * types, errors and messages are the composition's. */
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
    double out[7];
    if (unpack(args[0], &k, sizeof k) < 0)
        return NULL;
    const long flags = law_at(&k, PyFloat_AS_DOUBLE(PyTuple_GET_ITEM(i_dq, 0)),
                              PyFloat_AS_DOUBLE(PyTuple_GET_ITEM(i_dq, 1)), PyFloat_AS_DOUBLE(args[3]),
                              PyFloat_AS_DOUBLE(args[4]), out);
    if (flags < 0) /* DegenerateBError, raised by the Python law with its message */
        return PyObject_Vectorcall(args[1], args + 2, 3, NULL);
    PyObject *last = PyLong_FromLong(flags);
    return last == NULL ? NULL : tuple_of(out, 7, last);
}

/* The plant's constants, packed by sim.Scenario in this order, each a double: dt, h/2, h/3, h/4, a_d, a_q,
 * a_d h/2, a_d h/3, a_d h/4, a_q h/2, a_q h/3, a_q h/4, L_d, L_q, psi and p; then the mechanical speed's Euler step,
 * c_1, c_2, friction and dt/J, and 1 where its load varies, else 0 (all five 0 under a speed profile). */
typedef struct {
    double dt, h2, h3, h4, a_d, a_q, a2_d, a3_d, a4_d, a2_q, a3_q, a4_q, L_d, L_q, psi, p, c_1, c_2, friction, k_m,
        load_varies;
} Plant;

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

/* *x = profile(at), or profile(t) where at is NULL; -1 with the exception set where the call raises, an error of the
 * profile's as it is, or its result is not a number. */
static int read_at(PyObject *profile, PyObject *at, double t, double *x)
{
    PyObject *t_obj = at != NULL ? Py_NewRef(at) : PyFloat_FromDouble(t);
    PyObject *reading = t_obj == NULL ? NULL : PyObject_CallOneArg(profile, t_obj);
    Py_XDECREF(t_obj);
    if (reading == NULL)
        return -1;
    *x = PyFloat_AsDouble(reading);
    Py_DECREF(reading);
    return *x == -1.0 && PyErr_Occurred() ? -1 : 0;
}

/* The n substeps of one tick of sim.rk4_plant_step's loop from time t, the object t_obj, at the held voltage v: they
 * step the currents i and the mechanical speed *omega_m, the first at the electrical speed omega; k is a Plant.
 * Under a speed profile (load None) substep j >= 1 runs at speed(t + j dt), and *omega_m stays.  In mechanical mode
 * (a load profile; speed is not called) the load is read at t_obj, and a varying one again after each later
 * substep j, at t + j dt; omega_m then takes its Euler step and sets the next substep's speed, p omega_m.  Every
 * profile call is the loop's, at its float times and in its order.  The mode is tested once, outside the two loops.
 * The one copy of the loop here, which tick and run call; -1 with the exception set where a profile's call fails. */
static inline int steps(const Plant *k, PyObject *speed, PyObject *load, long n, PyObject *t_obj, double t,
                        double omega, double v_d, double v_q, double i[2], double *omega_m)
{
    double w_m = *omega_m, tau_load;
    Flux y = {k->L_d * i[0], k->L_q * i[1]};
    if (load == Py_None) {
        for (long j = 0; j < n; j++) {
            if (j && read_at(speed, NULL, t + (double)j * k->dt, &omega) < 0)
                return -1;
            y = substep(k, y, omega, v_d, v_q);
        }
    } else {
        if (read_at(load, t_obj, t, &tau_load) < 0)
            return -1;
        for (long j = 0; j < n; j++) {
            y = substep(k, y, omega, v_d, v_q);
            if (k->load_varies != 0.0 && j && read_at(load, NULL, t + (double)j * k->dt, &tau_load) < 0)
                return -1;
            w_m += (y.q * (k->c_1 + k->c_2 * y.d) - tau_load - k->friction * w_m) * k->k_m;
            omega = k->p * w_m;
        }
    }
    i[0] = y.d / k->L_d;
    i[1] = y.q / k->L_q;
    *omega_m = w_m;
    return 0;
}

/* tick(packed, speed, load, n, i_d, i_q, omega_m, v_d, v_q, t, omega) -> (i_d, i_q, omega_m): the n substeps of one
 * tick of sim.rk4_plant_step's loop (see steps), the first at the electrical speed omega; packed is a Plant.  Under
 * a speed profile omega_m passes through as the object given. */
static PyObject *tick(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Plant k;
    double x[7];
    if (nargs != 11) {
        PyErr_Format(PyExc_TypeError, "tick takes 11 arguments (%zd given)", nargs);
        return NULL;
    }
    if (unpack(args[0], &k, sizeof k) < 0)
        return NULL;
    const long n = PyLong_AsLong(args[3]);
    if ((n == -1 && PyErr_Occurred()) || doubles(args + 4, x, 7) < 0
        || steps(&k, args[1], args[2], n, args[9], x[5], x[6], x[3], x[4], x, &x[2]) < 0)
        return NULL;
    PyObject *last = args[2] == Py_None ? Py_NewRef(args[6]) : PyFloat_FromDouble(x[2]);
    return last == NULL ? NULL : tuple_of(x, 2, last);
}

/* Release the n references item, some of them NULL; NULL, for an error already set. */
static PyObject *release(PyObject **item, int n)
{
    for (int j = 0; j < n; j++)
        Py_XDECREF(item[j]);
    return NULL;
}

/* The constants of loop.TorqueController's tick, packed by it in this order, each a double: 1.5 p, psi, L_d - L_q,
 * 1.5 R, kp, ki, dt_ctrl and optimizer.B_DEGENERATE. */
typedef struct {
    double k_tau, psi, saliency, k_cu, kp, ki, dt, b_degenerate;
} Tick;

/* The closed-form map of a tick at a constant speed, packed by sim.Scenario from sim._tick_map's (D, G, e_q): D and
 * G row-major, then e_q. */
typedef struct {
    double d_dd, d_dq, d_qd, d_qq, g_dd, g_dq, g_qd, g_qq, e_q;
} Map;

/* run(frame, law, tick, plant, speed, load, n, tau_ref, frames, n_ctrl, i_d, i_q, omega_m, integrator, v_d, v_q)
 * -> aborted: ticks len(frames) .. n_ctrl - 1 of sim.run_scenario's loop for a loop.TorqueController, from the state
 * the last tick left: the currents, the mechanical speed, the PI integral and the held voltage.  frame (the class
 * loop.ControlFrame), law (a Law) and tick (a Tick) are the controller's; plant, speed, load and n are tick's first
 * four arguments, or a Map as plant where the speed is constant.  Each tick reads the speed profile (or takes
 * p omega_m) and then tau_ref at k dt_ctrl; does TorqueController.step's torque, copper loss and PI step and runs
 * law_at, or where b is degenerate holds the voltage, flagged B_DEGENERATE; appends its frame to the list frames;
 * and steps the plant, by the map's two lines in rk4_plant_step's order or by steps.  Returns True at the first
 * tick whose currents are not finite, whose frame stays in the list, and False after the last tick; a profile's
 * error propagates as it is. */
static PyObject *run(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Law law;
    Tick c;
    Plant k;
    Map m;
    double x[6];
    if (nargs != 16) {
        PyErr_Format(PyExc_TypeError, "run takes 16 arguments (%zd given)", nargs);
        return NULL;
    }
    PyTypeObject *frame = (PyTypeObject *)args[0];
    PyObject *speed = args[4], *load = args[5], *tau_ref = args[7], *frames = args[8];
    if (!PyType_Check(args[0]) || !PyType_IsSubtype(frame, &PyTuple_Type) || !PyList_CheckExact(frames)) {
        PyErr_SetString(PyExc_TypeError, "run takes a tuple class first and a list of frames");
        return NULL;
    }
    const int mapped = PyBytes_CheckExact(args[3]) && (size_t)PyBytes_GET_SIZE(args[3]) == sizeof m;
    if (unpack(args[1], &law, sizeof law) < 0 || unpack(args[2], &c, sizeof c) < 0
        || (mapped ? unpack(args[3], &m, sizeof m) : unpack(args[3], &k, sizeof k)) < 0)
        return NULL;
    const long n = PyLong_AsLong(args[6]), n_ctrl = PyLong_AsLong(args[9]);
    if (((n == -1 || n_ctrl == -1) && PyErr_Occurred()) || doubles(args + 10, x, 6) < 0)
        return NULL;
    double i[2] = {x[0], x[1]}, omega_m = x[2], integrator = x[3], held[2] = {x[4], x[5]};
    for (long tick_k = (long)PyList_GET_SIZE(frames); tick_k < n_ctrl; tick_k++) {
        const double t = (double)tick_k * c.dt;
        double omega, tau, out[7];
        /* the frame's fields, each a new reference: t, tau_ref and omega are the objects the profiles took and gave */
        PyObject *item[16] = {PyFloat_FromDouble(t)};
        if (item[0] == NULL)
            return NULL;
        item[9] = load == Py_None ? PyObject_CallOneArg(speed, item[0]) : PyFloat_FromDouble(k.p * omega_m);
        if (item[9] == NULL || ((omega = PyFloat_AsDouble(item[9])) == -1.0 && PyErr_Occurred()))
            return release(item, 16);
        item[5] = PyObject_CallOneArg(tau_ref, item[0]);
        if (item[5] == NULL || ((tau = PyFloat_AsDouble(item[5])) == -1.0 && PyErr_Occurred()))
            return release(item, 16);
        const double tau_est = c.k_tau * (c.psi * i[1] + c.saliency * i[0] * i[1]);
        const double p_copper = c.k_cu * (i[0] * i[0] + i[1] * i[1]);
        const double e = tau - tau_est;
        const double integ_next = integrator + e * c.dt;
        const double u_raw = tau + c.kp * e + c.ki * integ_next;
        long flags = law_at(&law, i[0], i[1], omega, u_raw, out);
        if (flags < 0) { /* the torque channel is uncontrollable: hold the previous voltage */
            const double hold[7] = {held[0], held[1], u_raw, 0.0, 0.0, 0.0, 0.0};
            memcpy(out, hold, sizeof hold);
            flags = (long)c.b_degenerate;
        } else {
            if (!(flags & (long)law.u_clamped))
                integrator = integ_next;
            held[0] = out[0];
            held[1] = out[1];
        }
        const double field[15] = {t, i[0], i[1], out[0], out[1], tau, tau_est, u_raw, out[2], omega, out[5], out[6],
                                  out[3], out[4], p_copper};
        for (int j = 1; j < 16; j++)
            if (item[j] == NULL && (item[j] = j == 15 ? PyLong_FromLong(flags) : PyFloat_FromDouble(field[j])) == NULL)
                return release(item, 16);
        PyObject *row = frame->tp_alloc(frame, 16);
        if (row == NULL)
            return release(item, 16);
        for (int j = 0; j < 16; j++)
            PyTuple_SET_ITEM(row, j, item[j]);
        /* the plant step reads a load at the frame's t, which the row keeps alive */
        const int failed = PyList_Append(frames, row) < 0
            || (!mapped && steps(&k, speed, load, n, item[0], t, omega, out[0], out[1], i, &omega_m) < 0);
        Py_DECREF(row);
        if (failed)
            return NULL;
        if (mapped) {
            const double w_q = out[1] + m.e_q;
            const double i_d = i[0] + (m.d_dd * i[0] + m.d_dq * i[1]) + (m.g_dd * out[0] + m.g_dq * w_q);
            i[1] = i[1] + (m.d_qd * i[0] + m.d_qq * i[1]) + (m.g_qd * out[0] + m.g_qq * w_q);
            i[0] = i_d;
        }
        if (!isfinite(i[0]) || !isfinite(i[1]))
            Py_RETURN_TRUE;
    }
    Py_RETURN_FALSE;
}

static PyMethodDef methods[] = {
    {"law", (PyCFunction)(void (*)(void))law, METH_FASTCALL | METH_KEYWORDS, NULL},
    {"tick", (PyCFunction)(void (*)(void))tick, METH_FASTCALL, NULL},
    {"run", (PyCFunction)(void (*)(void))run, METH_FASTCALL, NULL},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module_def = {PyModuleDef_HEAD_INIT, "_kernels", NULL, -1, methods};

PyMODINIT_FUNC PyInit__kernels(void) { return PyModule_Create(&module_def); }

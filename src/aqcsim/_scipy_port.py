"""DOP853 with dense output, and bounded Brent minimization, ported from scipy 1.17.1.

Importing scipy.integrate (and with it scipy.special, scipy.optimize and
scipy.sparse) costs more than half a second per process, for the two
routines aqcsim takes from it.  This module ports them operation for
operation, so every float they return is bitwise the one scipy returns:

- solve_ivp: scipy.integrate.solve_ivp(method="DOP853", dense_output=True)
  -- the Dormand-Prince 8(5,3) pair with its 7th-order extended-stage dense
  output (Hairer, Norsett & Wanner, Solving Ordinary Differential Equations
  I, Sec. II.5 and II.6), the initial-step heuristic of Sec. II.4, and
  OdeSolution's choice of segment at a step boundary.  Only what aqcsim
  uses is kept: a descending span, a real state vector, scalar rtol and
  atol, no events, t_eval, max_step or vectorized right-hand side.  It is
  one function, with no solver object (scipy's t_old, y_old, h_previous,
  t_bound and step methods) and no direction sign: each step goes t -> t - h.
  Its dense output keeps only the rows of the state that the caller names
  (the level solve names 2 dim of its dim (dim + 2)), and their values
  are scipy's bitwise.  Only the layout differs, never an operation: the
  stage views K[:s].T, tableau rows and one stage buffer are built once per
  solve, stages call fun directly and are counted per stage loop, step
  control runs on Python floats, and a norm is numpy's sqrt(x.dot(x)).
- minimize_scalar_bounded: scipy.optimize.minimize_scalar(method="bounded"),
  Brent's golden-section and parabolic search on a closed interval.

Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
All rights reserved.

Redistribution and use in source and binary forms, with or without
modification, are permitted provided that the following conditions
are met:

1. Redistributions of source code must retain the above copyright
   notice, this list of conditions and the following disclaimer.

2. Redistributions in binary form must reproduce the above
   copyright notice, this list of conditions and the following
   disclaimer in the documentation and/or other materials provided
   with the distribution.

3. Neither the name of the copyright holder nor the names of its
   contributors may be used to endorse or promote products derived
   from this software without specific prior written permission.

THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
"AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
(INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, nextafter, sqrt

import numpy as np

# -- the DOP853 tableau ------------------------------------------------------

N_STAGES = 12
N_STAGES_EXTENDED = 16
INTERPOLATOR_POWER = 7

C = np.array([0.0,
              0.526001519587677318785587544488e-01,
              0.789002279381515978178381316732e-01,
              0.118350341907227396726757197510,
              0.281649658092772603273242802490,
              0.333333333333333333333333333333,
              0.25,
              0.307692307692307692307692307692,
              0.651282051282051282051282051282,
              0.6,
              0.857142857142857142857142857142,
              1.0,
              1.0,
              0.1,
              0.2,
              0.777777777777777777777777777778])

A = np.zeros((N_STAGES_EXTENDED, N_STAGES_EXTENDED))
A[1, 0] = 5.26001519587677318785587544488e-2

A[2, 0] = 1.97250569845378994544595329183e-2
A[2, 1] = 5.91751709536136983633785987549e-2

A[3, 0] = 2.95875854768068491816892993775e-2
A[3, 2] = 8.87627564304205475450678981324e-2

A[4, 0] = 2.41365134159266685502369798665e-1
A[4, 2] = -8.84549479328286085344864962717e-1
A[4, 3] = 9.24834003261792003115737966543e-1

A[5, 0] = 3.7037037037037037037037037037e-2
A[5, 3] = 1.70828608729473871279604482173e-1
A[5, 4] = 1.25467687566822425016691814123e-1

A[6, 0] = 3.7109375e-2
A[6, 3] = 1.70252211019544039314978060272e-1
A[6, 4] = 6.02165389804559606850219397283e-2
A[6, 5] = -1.7578125e-2

A[7, 0] = 3.70920001185047927108779319836e-2
A[7, 3] = 1.70383925712239993810214054705e-1
A[7, 4] = 1.07262030446373284651809199168e-1
A[7, 5] = -1.53194377486244017527936158236e-2
A[7, 6] = 8.27378916381402288758473766002e-3

A[8, 0] = 6.24110958716075717114429577812e-1
A[8, 3] = -3.36089262944694129406857109825
A[8, 4] = -8.68219346841726006818189891453e-1
A[8, 5] = 2.75920996994467083049415600797e1
A[8, 6] = 2.01540675504778934086186788979e1
A[8, 7] = -4.34898841810699588477366255144e1

A[9, 0] = 4.77662536438264365890433908527e-1
A[9, 3] = -2.48811461997166764192642586468
A[9, 4] = -5.90290826836842996371446475743e-1
A[9, 5] = 2.12300514481811942347288949897e1
A[9, 6] = 1.52792336328824235832596922938e1
A[9, 7] = -3.32882109689848629194453265587e1
A[9, 8] = -2.03312017085086261358222928593e-2

A[10, 0] = -9.3714243008598732571704021658e-1
A[10, 3] = 5.18637242884406370830023853209
A[10, 4] = 1.09143734899672957818500254654
A[10, 5] = -8.14978701074692612513997267357
A[10, 6] = -1.85200656599969598641566180701e1
A[10, 7] = 2.27394870993505042818970056734e1
A[10, 8] = 2.49360555267965238987089396762
A[10, 9] = -3.0467644718982195003823669022

A[11, 0] = 2.27331014751653820792359768449
A[11, 3] = -1.05344954667372501984066689879e1
A[11, 4] = -2.00087205822486249909675718444
A[11, 5] = -1.79589318631187989172765950534e1
A[11, 6] = 2.79488845294199600508499808837e1
A[11, 7] = -2.85899827713502369474065508674
A[11, 8] = -8.87285693353062954433549289258
A[11, 9] = 1.23605671757943030647266201528e1
A[11, 10] = 6.43392746015763530355970484046e-1

A[12, 0] = 5.42937341165687622380535766363e-2
A[12, 5] = 4.45031289275240888144113950566
A[12, 6] = 1.89151789931450038304281599044
A[12, 7] = -5.8012039600105847814672114227
A[12, 8] = 3.1116436695781989440891606237e-1
A[12, 9] = -1.52160949662516078556178806805e-1
A[12, 10] = 2.01365400804030348374776537501e-1
A[12, 11] = 4.47106157277725905176885569043e-2

A[13, 0] = 5.61675022830479523392909219681e-2
A[13, 6] = 2.53500210216624811088794765333e-1
A[13, 7] = -2.46239037470802489917441475441e-1
A[13, 8] = -1.24191423263816360469010140626e-1
A[13, 9] = 1.5329179827876569731206322685e-1
A[13, 10] = 8.20105229563468988491666602057e-3
A[13, 11] = 7.56789766054569976138603589584e-3
A[13, 12] = -8.298e-3

A[14, 0] = 3.18346481635021405060768473261e-2
A[14, 5] = 2.83009096723667755288322961402e-2
A[14, 6] = 5.35419883074385676223797384372e-2
A[14, 7] = -5.49237485713909884646569340306e-2
A[14, 10] = -1.08347328697249322858509316994e-4
A[14, 11] = 3.82571090835658412954920192323e-4
A[14, 12] = -3.40465008687404560802977114492e-4
A[14, 13] = 1.41312443674632500278074618366e-1

A[15, 0] = -4.28896301583791923408573538692e-1
A[15, 5] = -4.69762141536116384314449447206
A[15, 6] = 7.68342119606259904184240953878
A[15, 7] = 4.06898981839711007970213554331
A[15, 8] = 3.56727187455281109270669543021e-1
A[15, 12] = -1.39902416515901462129418009734e-3
A[15, 13] = 2.9475147891527723389556272149
A[15, 14] = -9.15095847217987001081870187138


B = A[N_STAGES, :N_STAGES]

E3 = np.zeros(N_STAGES + 1)
E3[:-1] = B.copy()
E3[0] -= 0.244094488188976377952755905512
E3[8] -= 0.733846688281611857341361741547
E3[11] -= 0.220588235294117647058823529412e-1

E5 = np.zeros(N_STAGES + 1)
E5[0] = 0.1312004499419488073250102996e-1
E5[5] = -0.1225156446376204440720569753e+1
E5[6] = -0.4957589496572501915214079952
E5[7] = 0.1664377182454986536961530415e+1
E5[8] = -0.3503288487499736816886487290
E5[9] = 0.3341791187130174790297318841
E5[10] = 0.8192320648511571246570742613e-1
E5[11] = -0.2235530786388629525884427845e-1

# First 3 coefficients are computed separately.
D = np.zeros((INTERPOLATOR_POWER - 3, N_STAGES_EXTENDED))
D[0, 0] = -0.84289382761090128651353491142e+1
D[0, 5] = 0.56671495351937776962531783590
D[0, 6] = -0.30689499459498916912797304727e+1
D[0, 7] = 0.23846676565120698287728149680e+1
D[0, 8] = 0.21170345824450282767155149946e+1
D[0, 9] = -0.87139158377797299206789907490
D[0, 10] = 0.22404374302607882758541771650e+1
D[0, 11] = 0.63157877876946881815570249290
D[0, 12] = -0.88990336451333310820698117400e-1
D[0, 13] = 0.18148505520854727256656404962e+2
D[0, 14] = -0.91946323924783554000451984436e+1
D[0, 15] = -0.44360363875948939664310572000e+1

D[1, 0] = 0.10427508642579134603413151009e+2
D[1, 5] = 0.24228349177525818288430175319e+3
D[1, 6] = 0.16520045171727028198505394887e+3
D[1, 7] = -0.37454675472269020279518312152e+3
D[1, 8] = -0.22113666853125306036270938578e+2
D[1, 9] = 0.77334326684722638389603898808e+1
D[1, 10] = -0.30674084731089398182061213626e+2
D[1, 11] = -0.93321305264302278729567221706e+1
D[1, 12] = 0.15697238121770843886131091075e+2
D[1, 13] = -0.31139403219565177677282850411e+2
D[1, 14] = -0.93529243588444783865713862664e+1
D[1, 15] = 0.35816841486394083752465898540e+2

D[2, 0] = 0.19985053242002433820987653617e+2
D[2, 5] = -0.38703730874935176555105901742e+3
D[2, 6] = -0.18917813819516756882830838328e+3
D[2, 7] = 0.52780815920542364900561016686e+3
D[2, 8] = -0.11573902539959630126141871134e+2
D[2, 9] = 0.68812326946963000169666922661e+1
D[2, 10] = -0.10006050966910838403183860980e+1
D[2, 11] = 0.77771377980534432092869265740
D[2, 12] = -0.27782057523535084065932004339e+1
D[2, 13] = -0.60196695231264120758267380846e+2
D[2, 14] = 0.84320405506677161018159903784e+2
D[2, 15] = 0.11992291136182789328035130030e+2

D[3, 0] = -0.25693933462703749003312586129e+2
D[3, 5] = -0.15418974869023643374053993627e+3
D[3, 6] = -0.23152937917604549567536039109e+3
D[3, 7] = 0.35763911791061412378285349910e+3
D[3, 8] = 0.93405324183624310003907691704e+2
D[3, 9] = -0.37458323136451633156875139351e+2
D[3, 10] = 0.10409964950896230045147246184e+3
D[3, 11] = 0.29840293426660503123344363579e+2
D[3, 12] = -0.43533456590011143754432175058e+2
D[3, 13] = 0.96324553959188282948394950600e+2
D[3, 14] = -0.39177261675615439165231486172e+2
D[3, 15] = -0.14972683625798562581422125276e+3

# each stage's tableau row A[s, :s] and node C[s], as a Python float
_TABLEAU = tuple((A[s, :s], float(C[s])) for s in range(N_STAGES_EXTENDED))

# -- step-size control ---------------------------------------------------------

SAFETY = 0.9  # multiplies steps computed from the asymptotic error behaviour
MIN_FACTOR = 0.2  # smallest allowed decrease of a step
MAX_FACTOR = 10  # largest allowed increase of a step
ERROR_ESTIMATOR_ORDER = 7
ERROR_EXPONENT = -1 / (ERROR_ESTIMATOR_ORDER + 1)

SUCCESS_MESSAGE = "The solver successfully reached the end of the integration interval."
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def select_initial_step(fun, t0, y0, f0, interval_length, rtol, atol):
    """The first step's size down from t0, from the local Lipschitz estimate of Sec. II.4."""
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    # t0 - h0 must not pass the end of the interval
    h0 = min(h0, interval_length)
    y1 = y0 - h0 * f0
    f1 = fun(t0 - h0, y1)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (ERROR_ESTIMATOR_ORDER + 1))
    return min(100 * h0, h1, interval_length)


def _error_norm(K_T, h, scale):
    """The RMS of the scaled local error, from the 5th- and 3rd-order estimates, as a float."""
    err5 = np.dot(K_T, E5) / scale
    err3 = np.dot(K_T, E3) / scale
    err5_norm_2 = sqrt(err5.dot(err5))**2
    err3_norm_2 = sqrt(err3.dot(err3))**2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return abs(h) * err5_norm_2 / sqrt(denom * len(scale))


def _stages(fun, t, y, h, stages, y_stage):
    """Fill K[s] of each stage (K[s], K[:s].T, A[s, :s], C[s]), its state in y_stage; count them."""
    dot, multiply, add = np.dot, np.multiply, np.add
    for K_s, K_T, a, c in stages:
        multiply(dot(K_T, a, y_stage), h, y_stage)
        add(y_stage, y, y_stage)
        K_s[:] = fun(t + c * h, y_stage)  # converts to float as np.asarray does
    return len(stages)


class DenseSolution:
    """The piecewise interpolant of a descending DOP853 solve, evaluated at many points at once.

    Segment i runs from ts[i] down to ts[i + 1] and holds, for the rows of
    the state that the solve kept, the state y_old[i] at ts[i] and its
    interpolant's coefficients F[i].  At a step boundary the later segment
    is taken, as scipy's OdeSolution takes it for a descending solve
    (searchsorted side "right").  Every point of an evaluation goes through
    the same elementwise arithmetic as in scipy's Dop853DenseOutput, so a
    row of the result is bitwise scipy's value of that row of the state.
    """

    def __init__(self, ts, y_old, F):
        self.ts = np.asarray(ts)
        self.y_old = np.asarray(y_old)  # (segments, kept rows)
        self.F = np.asarray(F)  # (segments, 7, kept rows)
        self.t_old = self.ts[:-1]
        self.h = self.ts[1:] - self.t_old

    def _segments(self, t):
        last = len(self.F) - 1
        segments = np.searchsorted(self.ts[::-1], t, side="right") - 1
        np.clip(segments, 0, last, out=segments)
        return last - segments

    def __call__(self, t):
        """The kept rows of the state at each t: shape (kept rows, len(t)), or (kept rows,) for scalar t.

        The Horner terms are gathered one at a time, so no temporary is
        larger than the result.
        """
        t = np.asarray(t, dtype=float)
        points = np.atleast_1d(t)
        segments = self._segments(points)
        x = ((points - self.t_old[segments]) / self.h[segments])[:, None]
        y = np.zeros((points.size, self.F.shape[2]), dtype=float)
        for i in range(INTERPOLATOR_POWER):
            y += self.F[segments, INTERPOLATOR_POWER - 1 - i]
            if i % 2 == 0:
                y *= x
            else:
                y *= 1 - x
        y += self.y_old[segments]
        return y[0] if t.ndim == 0 else y.T


@dataclass
class OdeResult:
    """What solve_ivp returns: status 0 reached the end, -1 stopped early (see message)."""

    sol: DenseSolution | None
    nfev: int
    status: int
    message: str


def solve_ivp(fun, t_span, y0, rtol, atol, rows) -> OdeResult:
    """Integrate y' = fun(t, y) down t_span = (t0, tf), tf < t0, with DOP853 and dense output.

    scipy.integrate.solve_ivp(fun, t_span, y0, method="DOP853", rtol=rtol,
    atol=atol, dense_output=True), with y0 a real vector and atol a scalar.
    The dense output keeps only `rows` (an index into y, slice(None) for
    all of it) of each step's state and interpolant coefficients, so a
    long solve of a large state holds only what its caller reads; each kept
    value is bitwise scipy's.  fun must not hold on to the y it is given:
    the stages reuse one buffer.  Every accepted step moves t by at least
    10 spacings of the float grid, so no segment of the dense output has
    zero length.  Exceptions raised by fun propagate.
    """
    t0, tf = map(float, t_span)
    y0 = np.asarray(y0).astype(float, copy=False)
    if y0.ndim != 1 or not np.isfinite(y0).all():
        raise ValueError("y0 must be a finite 1-D vector")
    if not tf < t0:
        raise ValueError("t_span must descend")
    nfev = 0

    def counted(t, y):
        nonlocal nfev
        nfev += 1
        return np.asarray(fun(t, y), dtype=float)

    ts, y_old, F = [t0], [], []

    def result(status, message):
        return OdeResult(DenseSolution(ts, y_old, F) if F else None, nfev, status, message)

    t, y = t0, y0
    f = counted(t, y)
    h_abs = float(select_initial_step(counted, t, y, f, t0 - tf, rtol, atol))
    K = np.empty((N_STAGES_EXTENDED, y.size), dtype=float)  # the stages of a step
    y_stage = np.empty_like(y)  # the state of every stage of the solve
    # each stage's row of K, the rows before it as columns, its tableau row and node
    stages = [(K[s], K[:s].T, a, c) for s, (a, c) in enumerate(_TABLEAU)]
    step_stages, extra_stages = stages[1:N_STAGES], stages[N_STAGES + 1:]
    K_step, K_error = K[:N_STAGES].T, K[:N_STAGES + 1].T
    while t > tf:
        K[0] = f
        min_step = 10 * abs(nextafter(t, -inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:  # shrink the step until its error is accepted
            if not h_abs >= min_step:  # also ends a NaN step
                return result(-1, TOO_SMALL_STEP)
            t_new = max(t - h_abs, tf)
            h = t_new - t
            h_abs = abs(h)
            nfev += _stages(fun, t, y, h, step_stages, y_stage)
            y_new = y + h * np.dot(K_step, B)
            f_new = counted(t + h, y_new)
            K[N_STAGES] = f_new
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _error_norm(K_error, h, scale)
            if error_norm < 1:
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            rejected = True
        if error_norm == 0:
            factor = MAX_FACTOR
        else:
            factor = min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
        h_abs *= min(1, factor) if rejected else factor
        # the 7 coefficients of the step's interpolant, from three extra stages
        nfev += _stages(fun, t, y, h, extra_stages, y_stage)
        # scipy's elementwise expressions and its product D K, on the kept rows only
        f_kept, y_kept = f[rows], y[rows]
        coeffs = np.empty((INTERPOLATOR_POWER, y_kept.size))
        delta_y = np.subtract(y_new[rows], y_kept, out=coeffs[0])
        np.subtract(np.multiply(h, f_kept, out=coeffs[1]), delta_y, out=coeffs[1])
        np.add(f_new[rows], f_kept, out=coeffs[2])
        np.subtract(2 * delta_y, np.multiply(h, coeffs[2], out=coeffs[2]), out=coeffs[2])
        np.multiply(h, np.dot(D, K[:, rows], out=coeffs[3:]), out=coeffs[3:])
        F.append(coeffs)
        ts.append(t_new)
        y_old.append(y_kept)
        t, y, f = t_new, y_new, f_new
    return result(0, SUCCESS_MESSAGE)


# -- bounded scalar minimization -----------------------------------------------


def minimize_scalar_bounded(func, bounds, xatol):
    """(x, f(x)) at a local minimum of func on the closed interval `bounds`.

    scipy.optimize.minimize_scalar(func, bounds=bounds, method="bounded",
    options={"xatol": xatol}); the search stops after 500 evaluations, as
    scipy's does by default.
    """
    x1, x2 = bounds
    if not (np.isfinite(x1) and np.isfinite(x2)):
        raise ValueError("Optimization bounds must be finite scalars.")
    if x1 > x2:
        raise ValueError("The lower bound exceeds the upper bound.")

    sqrt_eps = sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - sqrt(5.0))
    a, b = x1, x2
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = func(x)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while (np.abs(xf - xm) > (tol2 - 0.5 * (b - a))):
        golden = True
        # Check for parabolic fit
        if np.abs(e) > tol1:
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = np.abs(q)
            r = e
            e = rat

            # Check for acceptability of parabola
            if ((np.abs(p) < np.abs(0.5*q*r)) and (p > q*(a - xf)) and
                    (p < q * (b - xf))):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if ((x - a) < tol2) or ((b - x) < tol2):
                    si = np.sign(xm - xf) + ((xm - xf) == 0)
                    rat = tol1 * si

        if golden:  # do a golden-section step
            if xf >= xm:
                e = a - xf
            else:
                e = b - xf
            rat = golden_mean*e

        si = np.sign(rat) + (rat == 0)
        x = xf + si * np.maximum(np.abs(rat), tol1)
        fu = func(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1

        if num >= 500:
            break

    return xf, fx

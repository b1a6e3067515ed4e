"""The oracle's Newton solve as it was before the dense top, kept verbatim.

``BlockTridiagonal`` reduces all the way to one block, inverting each
level's pivots with the 27-product ``_inv3`` adjugate, and
``_transcription_qp`` refines both the predictor and the corrector solve:
one factor and four solves per interior-point iteration.
``tests/test_oracle_replay.py`` replays the oracle with this QP and asserts
the same iteration counts and feasibility, and costs within 1e-9 relative,
and ``tests/test_verifier.py`` checks the new ``_inv3`` against this one bit
for bit.
"""
from __future__ import annotations

import math

import numpy as np

from cavcross.model import ScenarioConfig
from cavcross.verifier import (ELASTIC_PRICE, GAP_REL_TOL, RES_TOL, START_MU,
                               TO_BOUNDARY, _step_to_bound)


def _inv3(M):
    """Inverses of the 3x3 matrices M[:, :, k], from their adjugates."""
    (a, b, c), (d, e, f), (g, k, i) = M
    out = np.empty_like(M)
    out[0, 0] = e * i - f * k
    out[1, 0] = f * g - d * i
    out[2, 0] = d * k - e * g
    out[0, 1] = c * k - b * i
    out[1, 1] = a * i - c * g
    out[2, 1] = b * g - a * k
    out[0, 2] = b * f - c * e
    out[1, 2] = c * d - a * f
    out[2, 2] = a * e - b * d
    out /= a * out[0, 0] + b * out[1, 0] + c * out[2, 0]
    return out


def _mv(A, x):
    """A_k x_k for every block k."""
    return np.einsum("ijk,jk->ik", A, x)


def _mtv(A, x):
    """A_k^T x_k for every block k."""
    return np.einsum("jik,jk->ik", A, x)


class BlockTridiagonal:
    """Factor of ``L_k x_{k-1} + D_k x_k + L_{k+1}^T x_{k+1} = r_k``, 3x3 blocks.

    The system is symmetric block tridiagonal. Blocks are stored with the
    block index last, ``D[:, :, k]`` and ``r[:, k]``, so each of the nine
    entries is one contiguous array; ``L[:, :, 0]`` has no effect. Block
    cyclic reduction: each level eliminates the even-numbered blocks and
    leaves a system of the same form on the odd ones, half the size, so the
    factor is O(n) batched 3x3 work over log2(n) levels and keeps, per
    level, only the inverses of the eliminated blocks and the coupling
    blocks. Pivots are whole diagonal blocks, so the system needs no
    definiteness, only nonsingular pivot blocks at every level.
    """

    def __init__(self, L, D):
        self.levels = []
        while D.shape[2] > 1:
            inv = _inv3(D[:, :, 0::2])
            keep, cross = D.shape[2] // 2, (D.shape[2] - 1) // 2
            # odd block j couples to even block j by L[2j+1] and, for
            # j < cross, to even block j+1 by L[2j+2]^T; eliminating both
            # gives the next level (products written in place: the first
            # level is the size of the whole horizon)
            left, right = L[:, :, 1::2], L[:, :, 2::2]
            m = np.einsum("ijk,jlk->ilk", left, inv[:, :, :keep])
            d_next = np.einsum("ijk,ljk->ilk", m, left)
            np.subtract(D[:, :, 1::2], d_next, out=d_next)
            l_next = np.einsum("ijk,jlk->ilk", m, L[:, :, 0:2 * keep:2])
            l_next *= -1.0
            m = np.einsum("jik,jlk->ilk", right, inv[:, :, 1:], out=m[:, :, :cross])
            d_next[:, :, :cross] -= np.einsum("ijk,jlk->ilk", m, right)
            self.levels.append((inv, L))
            L, D = l_next, d_next
        self.top = _inv3(D)

    def solve(self, r):
        ws = []
        for inv, L in self.levels:
            w = _mv(inv, r[:, 0::2])
            ws.append(w)
            r = r[:, 1::2] - _mv(L[:, :, 1::2], w[:, :r.shape[1] // 2])
            r[:, :w.shape[1] - 1] -= _mtv(L[:, :, 2::2], w[:, 1:])
        # level l's blocks sit at x[:, 2^l - 1::2^l], its odd ones at the next level's
        x = np.empty((3, sum(w.shape[1] for w in ws) + 1))
        stride = 1 << len(ws)
        x[:, stride - 1::stride] = _mv(self.top, r)
        for (inv, L), w in zip(reversed(self.levels), reversed(ws)):
            stride //= 2
            blocks = x[:, stride - 1::stride]
            odd = blocks[:, 1::2]
            c = np.zeros_like(w)
            c[:, 1:] = _mv(L[:, :, 2::2], odd[:, :w.shape[1] - 1])
            c[:, :odd.shape[1]] += _mtv(L[:, :, 1::2], odd)
            blocks[:, 0::2] = w - _mv(inv, c)
        return x


def _transcription_qp(n, h, v0, cfg: ScenarioConfig, u_lo, u_hi, gap_bound,
                      hold_idx, max_iter):
    """Exact minimizer of the transcribed crossing, by a primal-dual interior point.

    Variables are the states p_k, v_k for k = 1..n (p_0 = 0, v_0 = v0) with
    u_k = (v_k - v_{k-1})/h, so the objective gamma*n*h + sum u_k^2 h/2 is a
    convex quadratic and ``_rollout``'s dynamics are the n equalities
    p_k - p_{k-1} = h (v_{k-1} + v_k)/2. The control and speed boxes are
    hard: v0 lies strictly inside the speed box, so u = 0 is strictly
    inside both. The gap rows p_k + phi v_k <= gap_bound[k-1], the hold
    p_hold_idx <= L and the two halves of p_n = D are elastic: each may be
    exceeded by a slack priced at ``ELASTIC_PRICE`` per unit. That gives a
    strict interior to a ride that ends exactly on the gap bound and stops
    an unreachable target at a finite answer instead of the iteration cap.
    Mehrotra predictor-corrector steps; each Newton system, ordered by stage
    as (multiplier_k, p_k, v_k), is symmetric block tridiagonal and is
    factored once per iteration by cyclic reduction for both the predictor
    and the corrector, each solve followed by one step of iterative
    refinement. Work and memory are O(n); the memory is kept to a few dozen
    arrays of length n, since the free-horizon scan reaches n of several
    thousand.

    Returns (v_1..v_n, total elastic slack, iterations).
    """
    D = cfg.exit_distance
    # Constraint rows by kind: cp*p_k + cv*v_k + cu*u_k <= bound at the
    # stages of one slice (all of them, or one). The first four kinds, the
    # control and speed boxes, are hard; the rest are elastic.
    every = slice(0, n)
    kinds = [(every, 0.0, 0.0, 1.0, u_hi), (every, 0.0, 0.0, -1.0, -u_lo),
             (every, 0.0, 1.0, 0.0, cfg.v_max), (every, 0.0, -1.0, 0.0, -cfg.v_min),
             (slice(n - 1, n), 1.0, 0.0, 0.0, D), (slice(n - 1, n), -1.0, 0.0, 0.0, -D)]
    if gap_bound is not None:
        kinds.append((every, 1.0, cfg.phi, 0.0, gap_bound))
    if hold_idx is not None:
        kinds.append((slice(hold_idx - 1, hold_idx), 1.0, 0.0, 0.0, cfg.L))
    spans, m = [], 0
    for kind in kinds:
        size = kind[0].stop - kind[0].start
        spans.append((slice(m, m + size),) + kind)
        m += size
    el = slice(4 * n, m)

    def row_values(p, v, v_start, minus_bound):
        """Every row's left-hand side (less its bound if ``minus_bound``)."""
        u = np.diff(v, prepend=v_start) / h
        out = np.zeros(m)
        for rows, at, cp, cv, cu, bound in spans:
            x = out[rows]
            for coef, val in ((cp, p), (cv, v), (cu, u)):
                if coef:
                    x += coef * val[at]
            if minus_bound:
                x -= bound
        return out

    def row_adjoint(z):
        """The transposed row map: z's gradient on (p, v)."""
        gp, gv, gu = np.zeros(n), np.zeros(n), np.zeros(n)
        for rows, at, cp, cv, cu, _ in spans:
            for coef, g in ((cp, gp), (cv, gv), (cu, gu)):
                if coef:
                    g[at] += coef * z[rows]
        gu /= h
        gv += gu
        gv[:-1] -= gu[1:]
        return gp, gv

    def dynamics(p, v, v_start):
        out = np.diff(p, prepend=0.0)
        out[0] -= 0.5 * h * v_start
        out[1:] -= 0.5 * h * v[:-1]
        out -= 0.5 * h * v
        return out

    def add_dynamics_adjoint(y, gp, gv):
        gp += y
        gp[:-1] -= y[1:]
        gv -= 0.5 * h * y
        gv[:-1] -= 0.5 * h * y[1:]

    def add_energy_gradient(v, v_start, gv):
        u = np.diff(v, prepend=v_start) / h
        gv += u
        gv[:-1] -= u[1:]

    def newton_factor():
        """The Newton matrix with the row barriers folded into the stage blocks."""
        kkt_d = np.zeros((3, 3, n))
        kkt_l = np.zeros((3, 3, n))
        # v_k - v_{k-1} coupling: energy 1/h plus the control rows' barriers
        cu = kkt_l[2, 2]
        for rows, at, cp, cv, cu_coef, _ in spans:
            for coef, acc in ((cp * cp, kkt_d[1, 1]), (cp * cv, kkt_d[1, 2]),
                              (cv * cv, kkt_d[2, 2]), (cu_coef * cu_coef, cu)):
                if coef:
                    acc[at] += coef * iq[rows]
        cu /= h
        cu += 1.0
        cu /= h
        kkt_d[2, 2] += cu
        kkt_d[2, 2, :-1] += cu[1:]
        kkt_d[2, 1] = kkt_d[1, 2]
        kkt_d[0, 1] = kkt_d[1, 0] = 1.0
        kkt_d[0, 2] = kkt_d[2, 0] = -0.5 * h
        cu *= -1.0
        kkt_l[0, 1] = -1.0
        kkt_l[0, 2] = -0.5 * h
        return BlockTridiagonal(kkt_l, kkt_d)

    def newton_apply(x):
        """The Newton matrix times x = (multipliers, p, v), matrix-free."""
        dy, dp, dv = x
        q = row_values(dp, dv, 0.0, False)
        q *= iq
        gp, gv = row_adjoint(q)
        add_dynamics_adjoint(dy, gp, gv)
        add_energy_gradient(dv, 0.0, gv)
        return np.stack([dynamics(dp, dv, 0.0), gp, gv])

    def newton_rhs(t):
        q = iq * t
        gp, gv = row_adjoint(q)
        gp += r_p
        gv += r_v
        return -np.stack([r_dyn, gp, gv])

    def solve_refined(fac, rhs):
        x = fac.solve(rhs)
        rhs -= newton_apply(x)
        x += fac.solve(rhs)
        return x

    def direction(fac, c_s, c_e):
        """Newton step for complementarity targets c_s, c_e, and its longest step.

        The row multipliers and slacks are eliminated into the stage blocks;
        the solve of the reduced system gets one step of iterative
        refinement. ``c_s`` is overwritten.
        """
        el_shift = (c_e - e * r_e) / w
        t = c_s
        t /= z
        t += r_row
        t[el] -= el_shift
        x = solve_refined(fac, newton_rhs(t))
        dz = row_values(x[1], x[2], 0.0, False)
        dz += t
        dz *= iq
        # ds = c_s/z - s*dz/z, with c_s/z recovered from t, in t's place
        ds = t
        ds -= r_row
        ds[el] += el_shift
        t = s * dz
        t /= z
        ds -= t
        de = e * dz[el]
        de /= w
        de += el_shift
        dw = r_e - dz[el]
        step = min(_step_to_bound(s, ds), _step_to_bound(e, de),
                   _step_to_bound(z, dz), _step_to_bound(w, dw))
        return x, ds, de, dz, dw, step

    def corrector_targets(fac):
        """Mehrotra's targets: the predictor's complementarity, centred."""
        _, ds, de, dz, dw, step = direction(fac, -s * z, -e * w)
        a = min(1.0, step)
        gap = float(s @ z + e @ w)
        gap_aff = gap + sum(a * (q @ dr + dq @ r) + a * a * (dq @ dr)
                            for q, dq, r, dr in ((s, ds, z, dz), (e, de, w, dw)))
        centre = (gap_aff / gap) ** 3 * gap / (s.size + e.size)
        # c = centre - s*z - ds*dz, cancelling the predictor's second-order term
        ds *= dz
        ds += s * z
        np.subtract(centre, ds, out=ds)
        de *= dw
        de += e * w
        np.subtract(centre, de, out=de)
        return ds, de

    # start from the constant control that reaches D, kept strictly inside
    # both boxes (v0 lies strictly inside the speed box)
    T = n * h
    lo, hi = max(u_lo, (cfg.v_min - v0) / T), min(u_hi, (cfg.v_max - v0) / T)
    margin = 0.25 * (hi - lo)
    uc = min(max(2.0 * (D - v0 * T) / (T * T), lo + margin), hi - margin)
    p = h * np.arange(1, n + 1)
    v = v0 + uc * p
    p *= v0 + 0.5 * uc * p
    s = -row_values(p, v, v0, True)
    s[el] = np.maximum(s[el], 0.0) + 1.0
    z = START_MU / s
    w = ELASTIC_PRICE - z[el]
    e = START_MU / w
    y = np.zeros(n)

    it = 0
    while True:
        r_row = row_values(p, v, v0, True)
        r_row += s
        r_row[el] -= e
        r_dyn = dynamics(p, v, v0)
        r_p, r_v = row_adjoint(z)
        add_dynamics_adjoint(y, r_p, r_v)
        add_energy_gradient(v, v0, r_v)
        r_e = ELASTIC_PRICE - z[el]
        r_e -= w
        du = np.diff(v, prepend=v0)
        cost = cfg.gamma * T + 0.5 / h * float(du @ du)
        gap = float(s @ z + e @ w)
        # dual residuals are judged relative to the multipliers they sum
        dual_scale = max(1.0, np.max(np.abs(y)), np.max(z))
        res = max(np.max(np.abs(r_row)), np.max(np.abs(r_dyn)),
                  max(np.max(np.abs(r_p)), np.max(np.abs(r_v))) / dual_scale)
        gap_tol = GAP_REL_TOL * max(1.0, cost)
        done = (gap <= gap_tol and res <= RES_TOL
                and np.max(np.abs(r_e)) <= RES_TOL * ELASTIC_PRICE)
        # far below the gap tolerance the barrier terms only amplify
        # round-off, so a residual still above RES_TOL there is its floor
        if done or gap <= 1e-2 * gap_tol or it >= max_iter or not math.isfinite(gap + res):
            return v, float(np.sum(e)), it
        it += 1

        iq = z / s
        iq[el] = 1.0 / (s[el] / z[el] + e / w)
        fac = newton_factor()
        x, ds, de, dz, dw, step = direction(fac, *corrector_targets(fac))
        fac = None   # the next factor is built with this one released
        a = min(1.0, TO_BOUNDARY * step)
        for var, dvar in ((y, x[0]), (p, x[1]), (v, x[2]), (s, ds), (e, de), (z, dz), (w, dw)):
            var += a * dvar


"""Independent validation: constraint audits and an exact transcription oracle.

``audit`` re-checks a solved trajectory against every constraint and
optimality-condition invariant — it never trusts the solver's own
bookkeeping. The control and speed bounds and the sign checks come from
closed-form candidates, every arc's two ends and interior v and u extrema;
continuity, the terminal position and the merging-zone hold are evaluated
at their times, the Hamiltonian on 50 points per cubic. The gap-ride
("track") arcs, whose extrema are found by a scan, are sampled on the 1 ms
grid, in blocks of ``GRID_BLOCK`` points. The rear-end gap behind a leader
takes its grid maximum from ``model.worst_lag``, the branch and bound over
the closed-form gap bounds that the fleet check uses too, sampling the grid
only where no bound rules a run out.

``transcription_oracle`` discretizes the same problem on a uniform grid
(piecewise-constant control, exact dynamics, the gap at the grid points,
the hold at the grid point nearest tm, the terminal position) and solves
the result, a convex QP, to its exact optimum with a Mehrotra
predictor-corrector interior-point method. Each iteration factors its
block-tridiagonal Newton matrix once by block cyclic reduction
(``BlockTridiagonal``), O(n) in the number of steps, as in Rao, Wright and
Rawlings (1998), down to a top of at most ``TOP_BLOCKS`` blocks inverted
densely. It then solves twice, the predictor once and the corrector once,
each solve one batched product a level down and two back up. With
the horizon free it scans and golden-sections the horizon over such solves,
solving only the horizons whose cost can change a decision: a horizon's
cost is at least its travel-time term gamma*T plus the least energy that
reaches the exit from v0 in T (``_least_energy``), and a horizon too short
to reach the exit at full acceleration and top speed is infeasible, so
comparisons that these bounds settle are skipped. The answer is the one
that solving every candidate gives, bit for bit.
``iters`` caps the interior-point iterations of each solve, ``seed`` has no
effect, and ``OracleResult.penalty`` is the total elastic slack: the gap,
hold and terminal rows may be exceeded at a price, so an unreachable target
comes back at a normal iteration count with its shortfall in
``max_violation``. It shares no machinery with the arc solver, so agreement
between the two is evidence, not tautology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import GRID_BLOCK, PiecewiseTrajectory, ScenarioConfig, worst_lag

BOUND_TOL = 1e-9
GAP_TOL = 1e-6
CONT_TOL = 1e-8
H_TOL = 1e-8


@dataclass
class AuditCheck:
    name: str
    worst: float
    t_worst: float
    tol: float

    @property
    def ok(self) -> bool:
        return self.worst <= self.tol


@dataclass
class AuditReport:
    checks: list = field(default_factory=list)

    def add(self, name, worst, t_worst, tol):
        self.checks.append(AuditCheck(name, float(worst), float(t_worst), tol))

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.ok]

    def __str__(self):
        lines = []
        for c in self.checks:
            mark = "ok " if c.ok else "FAIL"
            lines.append(f"[{mark}] {c.name}: worst {c.worst:.3e} at t={c.t_worst:.3f}"
                         f" (tol {c.tol:.0e})")
        return "\n".join(lines)


def audit(traj: PiecewiseTrajectory, cfg: ScenarioConfig, *, leader=None,
          lateral_tm=None, u_limits=None, terminal_mode="free", step=1e-3) -> AuditReport:
    """Full constraint and invariant audit of one solved trajectory.

    The control and speed bounds and the sign checks (free-time lower caps,
    the single cubic's control signs) take the worst of closed-form
    candidates: every arc's values at its two ends and at its interior v
    and u extrema. On "cubic", "sat" and "cruise" arcs u is linear and v
    has at most one stationary point, so that is exact; it also checks the
    left arc's value at each junction, where a grid sees only the right
    arc's. The 1 ms grid, ``dense_times(step)``, is sampled only where the
    candidates are not enough: over "track" arcs, whose extrema are found
    by a scan, and for the rear-end gap behind a leader at the grid times
    from the leader's entry on. It is evaluated and reduced ``GRID_BLOCK``
    points at a time, keeping the first worst point. A worst value tied
    between the candidates and the grid is reported at the earlier time.
    The rear-end gap is the maximum of ``p + phi*v + delta0 - P_leader``
    over those grid times, exactly as sampling all of them gives it, but
    found by ``model.worst_lag`` with no floor: runs of the grid whose
    closed-form bound lies more than GAP_MARGIN below the best sampled value
    are never sampled.
    """
    rep = AuditReport()
    u_lo, u_hi = u_limits if u_limits is not None else (cfg.u_min, cfg.u_max)
    # the four bound checks, then -u, -v and u for min u, min v and max u
    quantities = {
        "control upper bound": lambda u, v: u - u_hi,
        "control lower bound": lambda u, v: u_lo - u,
        "speed upper bound": lambda u, v: v - cfg.v_max,
        "speed lower bound": lambda u, v: cfg.v_min - v,
        "-u": lambda u, v: -u,
        "-v": lambda u, v: -v,
        "u": lambda u, v: u,
    }
    worst = dict.fromkeys(quantities, (-math.inf, math.nan))   # (value, t) of each maximum

    def reduce(ts, u, v):
        for name, fn in quantities.items():
            values = fn(u, v)
            i = int(np.argmax(values))
            best, t_best = worst[name]
            if values[i] > best or (values[i] == best and ts[i] < t_best):
                worst[name] = (float(values[i]), float(ts[i]))

    cand = [(arc, t) for arc in traj.arcs for t in
            [arc.t_start, *sorted(t for t, _ in arc.v_extrema() + arc.u_extrema()), arc.t_end]]
    reduce(np.array([t for _, t in cand]), np.array([arc.u(t) for arc, t in cand]),
           np.array([arc.v(t) for arc, t in cand]))
    tracks = [i for i, arc in enumerate(traj.arcs) if arc.kind == "track"]
    if tracks or leader is not None:
        ts = traj.dense_times(step)
    if tracks:
        # the grid times each arc evaluates in ``sample``
        cuts = np.searchsorted(ts, [arc.t_start for arc in traj.arcs[1:]]).tolist()
        for i in tracks:
            arc, lo, hi = traj.arcs[i], ([0] + cuts)[i], (cuts + [ts.size])[i]
            for at in range(lo, hi, GRID_BLOCK):
                seg = ts[at:min(at + GRID_BLOCK, hi)]
                reduce(seg, arc.u(seg), arc.v(seg))
    for name in list(quantities)[:4]:
        rep.add(name, *worst[name], BOUND_TOL)

    # junction continuity, measured arc-to-arc at each breakpoint
    worst_state, worst_u, t_state, t_u = 0.0, 0.0, traj.t0, traj.t0
    for left, right in zip(traj.arcs[:-1], traj.arcs[1:]):
        tb = left.t_end
        dp = abs(float(left.p(tb)) - float(right.p(tb)))
        dv = abs(float(left.v(tb)) - float(right.v(tb)))
        du = abs(float(left.u(tb)) - float(right.u(tb)))
        if max(dp, dv) > worst_state:
            worst_state, t_state = max(dp, dv), tb
        if du > worst_u:
            worst_u, t_u = du, tb
    rep.add("state continuity", worst_state, t_state, CONT_TOL)
    rep.add("control continuity", worst_u, t_u, CONT_TOL)

    pf = float(traj.eval(traj.tf)[0])
    rep.add("terminal position", abs(pf - cfg.exit_distance), traj.tf, GAP_TOL)

    if leader is not None:
        start = int(np.searchsorted(ts, leader.t0))
        rep.add("rear-end gap", *worst_lag(traj, leader, cfg.phi, cfg.delta0, ts[start:]),
                GAP_TOL)

    if lateral_tm is not None and lateral_tm > traj.t0:
        t_eval = min(lateral_tm, traj.tf)
        rep.add("merging-zone hold", float(traj.eval(t_eval)[0]) - cfg.L, t_eval, GAP_TOL)

    # Hamiltonian profile: constant on every unconstrained cubic, and zero
    # after the last costate jump when the terminal time is free. The
    # multiplier of a binding gap ride or merging-zone hold shifts H on
    # everything before it, so only arcs past that point must sit at zero.
    h_gate = traj.t0
    if lateral_tm is not None and lateral_tm < traj.tf:
        h_gate = max(h_gate, lateral_tm)
    for arc in traj.arcs:
        if arc.kind == "track":
            h_gate = max(h_gate, arc.t_end)
    worst_flat, t_flat = 0.0, traj.t0
    h_free, t_free = 0.0, traj.tf
    for arc in traj.arcs:
        if arc.kind != "cubic":
            continue
        tt = np.linspace(arc.t_start, arc.t_end, 50)
        uu = arc.u(tt)
        vv = arc.v(tt)
        H = cfg.gamma - 0.5 * uu * uu + arc.a * vv
        spread = float(np.max(H) - np.min(H))
        if spread > worst_flat:
            worst_flat, t_flat = spread, arc.t_start
        if terminal_mode == "free" and arc.t_start >= h_gate - 1e-9:
            j = int(np.argmax(np.abs(H)))
            if abs(H[j]) > h_free:
                h_free, t_free = float(abs(H[j])), float(tt[j])
    rep.add("Hamiltonian flatness", worst_flat, t_flat, H_TOL)
    if terminal_mode == "free":
        rep.add("free-terminal Hamiltonian", h_free, t_free, H_TOL)
        # free-time solutions stay strictly off the lower caps
        rep.add("free-time off lower control cap", u_lo + BOUND_TOL + worst["-u"][0],
                worst["-u"][1], 0.0)
        rep.add("free-time off lower speed cap", cfg.v_min + BOUND_TOL + worst["-v"][0],
                worst["-v"][1], 0.0)

    single_cubic = len(traj.arcs) == 1 and traj.arcs[0].kind == "cubic"
    if terminal_mode == "free" and single_cubic:
        arc = traj.arcs[0]
        rep.add("accel-relax slope sign", arc.a, traj.t0, 1e-12)
        rep.add("accel-relax control sign", *worst["-u"], BOUND_TOL)
        rep.add("accel-relax terminal control", abs(float(arc.u(traj.tf))), traj.tf, CONT_TOL)
    if terminal_mode == "fixed" and single_cubic:
        rep.add("single-signed control", worst["-u"][0] * worst["u"][0], traj.t0, 1e-10)
    return rep


# ---------------------------------------------------------------------------
# direct-transcription oracle
# ---------------------------------------------------------------------------

ELASTIC_PRICE = 1e4     # l1 price of a unit of slack on a gap, hold or terminal row
TO_BOUNDARY = 0.995     # fraction of the step to the nearest bound taken
GAP_REL_TOL = 1e-10     # complementarity gap over the cost at convergence
RES_TOL = 1e-9          # primal and dual residuals at convergence
START_MU = 1.0          # complementarity product of the starting point
FEASIBLE_TOL = 1e-4     # worst rolled-out violation of a feasible answer (m, m/s)
INFEASIBLE_PRICE = 1e3  # times (1 + max_violation), added to an infeasible horizon's cost


@dataclass
class OracleResult:
    cost: float
    controls: np.ndarray
    tf: float
    penalty: float          # total elastic slack at the returned point
    max_violation: float    # worst physical constraint violation (m, m/s)
    feasible: bool
    iterations: int         # interior-point iterations of the returned solve


def _rollout(u, t0, v0, dt):
    """Exact discrete rollout for piecewise-constant control."""
    v = np.empty(u.size + 1)
    p = np.empty(u.size + 1)
    v[0], p[0] = v0, 0.0
    np.cumsum(u * dt, out=v[1:])
    v[1:] += v0
    incr = v[:-1] * dt + 0.5 * u * dt * dt
    np.cumsum(incr, out=p[1:])
    return p, v


# each cofactor of a 3x3 matrix, row by row of the adjugate, is one product
# of two of its flat entries (a b c / d e f / g k i = 0..8) less another:
# the first factors of the nine positive products, then of the nine
# negative ones, over the second factors of the same
_COFACTORS = np.array([[4, 2, 1, 5, 0, 2, 3, 1, 0, 5, 1, 2, 3, 2, 0, 4, 0, 1],
                       [8, 7, 5, 6, 8, 3, 7, 6, 4, 7, 8, 4, 8, 6, 5, 6, 7, 3]])
TOP_BLOCKS = 8   # cyclic reduction stops at this many blocks, inverted densely


def _inv3(M):
    """Inverses of the 3x3 matrices M[:, :, k], from their adjugates.

    The eighteen products of the nine cofactors come from one gather of the
    flat entries; the determinant is the expansion along the first column.
    """
    flat = M.reshape(9, -1)
    first, second = flat[_COFACTORS]
    adj = first * second
    adj = np.subtract(adj[:9], adj[9:], out=adj[:9])
    column = flat[:3] * adj[0::3]
    adj /= column[0] + column[1] + column[2]
    return adj.reshape(M.shape)


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
    leaves a system of the same form on the odd ones, half the size, until
    at most ``TOP_BLOCKS`` blocks remain; that top system is inverted as one
    dense matrix of at most 24x24. The factor is O(n) batched 3x3 work and
    keeps, per level, the inverses of the eliminated blocks and one stored
    product ``fwd``: for odd block j, ``fwd[:, :3, j]`` is L[2j+1]·inv_j and
    ``fwd[:, 3:, j]`` is L[2j+2]^T·inv_{j+1}, the two products the reduction
    forms anyway. Each solve's forward sweep is one batched product a level
    with ``fwd`` over the stacked even blocks (j, j+1). Every pivot block is
    symmetric, so inv·L^T = (L·inv)^T and the back substitution reads both
    of its coupling products from ``fwd`` too, transposed. Pivots are whole
    diagonal blocks, so the system needs no definiteness, only nonsingular
    pivot blocks at every level and a nonsingular top.
    """

    def __init__(self, L, D):
        self.levels = []
        while D.shape[2] > TOP_BLOCKS:
            inv = _inv3(D[:, :, 0::2])
            keep, cross = D.shape[2] // 2, (D.shape[2] - 1) // 2
            # odd block j couples to even block j by L[2j+1] and, for
            # j < cross, to even block j+1 by L[2j+2]^T; eliminating both
            # gives the next level
            left, right = L[:, :, 1::2], L[:, :, 2::2]
            fwd = np.empty((3, 6, keep))
            left_inv = np.einsum("ijk,jlk->ilk", left, inv[:, :, :keep], out=fwd[:, :3])
            # einsum writes rows shorter than their stride slowly, so copy
            right_inv = np.einsum("jik,jlk->ilk", right, inv[:, :, 1:])
            fwd[:, 3:, :cross] = right_inv
            fwd[:, 3:, cross:] = 0.0
            d_next = np.einsum("ijk,ljk->ilk", left_inv, left)
            np.subtract(D[:, :, 1::2], d_next, out=d_next)
            d_next[:, :, :cross] -= np.einsum("ijk,jlk->ilk", right_inv, right)
            l_next = np.einsum("ijk,jlk->ilk", left_inv, L[:, :, 0:2 * keep:2])
            l_next *= -1.0
            self.levels.append((inv, fwd))
            L, D = l_next, d_next
        # the top system as one dense matrix, block row k at rows 3k..3k+2
        n = D.shape[2]
        dense = np.zeros((n, 3, n, 3))
        k = np.arange(n)
        dense[k, :, k, :] = D.transpose(2, 0, 1)
        dense[k[1:], :, k[:-1], :] = L[:, :, 1:].transpose(2, 0, 1)
        dense[k[:-1], :, k[1:], :] = L[:, :, 1:].transpose(2, 1, 0)
        self.top = np.linalg.inv(dense.reshape(3 * n, 3 * n))

    def solve(self, r):
        evens = []
        for _, fwd in self.levels:
            keep, even = fwd.shape[2], r[:, 0::2]
            evens.append(even)
            # even blocks j and j+1 of odd block j; fwd is zero past the last
            pair = np.empty((6, keep))
            pair[:3] = even[:, :keep]
            pair[3:, :even.shape[1] - 1] = even[:, 1:]
            pair[3:, even.shape[1] - 1:] = 0.0
            r = r[:, 1::2] - _mv(fwd, pair)
        # level l's blocks sit at x[:, 2^l - 1::2^l], its odd ones at the next level's
        x = np.empty((3, sum(even.shape[1] for even in evens) + r.shape[1]))
        stride = 1 << len(evens)
        x[:, stride - 1::stride] = (self.top @ r.T.ravel()).reshape(-1, 3).T
        for (inv, fwd), even in zip(reversed(self.levels), reversed(evens)):
            stride //= 2
            blocks = x[:, stride - 1::stride]
            # x_even = inv·even - fwd^T·x_odd, the two halves of fwd^T·x_odd
            # landing on even blocks j and j+1
            back = _mtv(fwd, blocks[:, 1::2])
            x_even = blocks[:, 0::2]
            np.einsum("ijk,jk->ik", inv, even, out=x_even)
            x_even[:, :back.shape[1]] -= back[:3]
            x_even[:, 1:] -= back[3:, :x_even.shape[1] - 1]
        return x


def _step_to_bound(x, dx):
    """Largest step along dx keeping the positive x nonnegative (inf if none binds)."""
    fall = float(np.min(dx / x, initial=0.0))
    return -1.0 / fall if fall < 0.0 else math.inf


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
    The rows sit in one fixed layout with one bounds vector, the boxes
    first and the elastic rows after, and the row map, its transpose and
    the Newton blocks each read or write the rows' slices directly.
    Mehrotra predictor-corrector steps; each Newton system, ordered by stage
    as (multiplier_k, p_k, v_k), is symmetric block tridiagonal and is
    factored once per iteration by cyclic reduction for both the predictor
    and the corrector, which are solved once each: two solves an iteration.
    Neither solve is refined: on the oracle's own Newton systems the
    solve's backward error is at round-off (checked densely in the tests).
    The stage variables (y, p, v) are the rows of one array, the
    slacks (s, e) one vector and their multipliers (z, w) another, so a
    step moves each in one pass and one ratio test covers each. Work and
    memory are O(n); the memory is kept to a few dozen arrays of length n,
    since the free-horizon scan reaches n of several thousand.

    Returns (v_1..v_n, total elastic slack, iterations).
    """
    D = cfg.exit_distance
    # Constraint rows row <= bound, in one fixed layout: u_k <= u_hi,
    # -u_k <= -u_lo, v_k <= v_max and -v_k <= -v_min (n rows each, hard),
    # then the elastic rows: p_n <= D and -p_n <= -D, the gap rows
    # p_k + phi v_k <= gap_bound[k-1] (n rows, with a leader) and the hold
    # p_hold_idx <= L (one row, with a hold).
    n2, n3, n4 = 2 * n, 3 * n, 4 * n
    gap_rows = slice(n4 + 2, n4 + 2 + n)
    m = n4 + 2 + (n if gap_bound is not None else 0) + (hold_idx is not None)
    el = slice(n4, m)
    bounds = np.empty(m)
    bounds[:n], bounds[n:n2] = u_hi, -u_lo
    bounds[n2:n3], bounds[n3:n4] = cfg.v_max, -cfg.v_min
    bounds[n4], bounds[n4 + 1] = D, -D
    if gap_bound is not None:
        bounds[gap_rows] = gap_bound
    if hold_idx is not None:
        bounds[-1] = cfg.L

    def increments(x, x_start, out):
        """x_k - x_{k-1} for k = 1..n, with x_0 = x_start, into ``out``."""
        out[0] = x[0] - x_start
        np.subtract(x[1:], x[:-1], out=out[1:])
        return out

    def row_values(p, v, v_start, out):
        """Every row's left-hand side, into ``out``."""
        u = increments(v, v_start, out[:n])
        u /= h
        np.negative(u, out=out[n:n2])
        out[n2:n3] = v
        np.negative(v, out=out[n3:n4])
        out[n4], out[n4 + 1] = p[-1], -p[-1]
        if gap_bound is not None:
            np.multiply(cfg.phi, v, out=out[gap_rows])
            out[gap_rows] += p
        if hold_idx is not None:
            out[-1] = p[hold_idx - 1]
        return out

    def row_adjoint(z, gp, gv):
        """The transposed row map: z's gradient on (p, v), into gp and gv."""
        gu = z[:n] - z[n:n2]
        np.subtract(z[n2:n3], z[n3:n4], out=gv)
        if gap_bound is not None:
            gp[:] = z[gap_rows]
            gv += cfg.phi * z[gap_rows]
        else:
            gp.fill(0.0)
        gp[-1] += z[n4] - z[n4 + 1]
        if hold_idx is not None:
            gp[hold_idx - 1] += z[-1]
        gu /= h
        gv += gu
        gv[:-1] -= gu[1:]

    def newton_factor():
        """The Newton matrix with the row barriers folded into the stage blocks."""
        kkt_d = np.zeros((3, 3, n))
        kkt_l = np.zeros((3, 3, n))
        # v_k - v_{k-1} coupling: energy 1/h plus the control rows' barriers
        cu = np.add(iq[:n], iq[n:n2], out=kkt_l[2, 2])
        np.add(iq[n2:n3], iq[n3:n4], out=kkt_d[2, 2])
        kkt_d[1, 1, -1] = iq[n4] + iq[n4 + 1]
        if gap_bound is not None:
            kkt_d[1, 1] += iq[gap_rows]
            np.multiply(cfg.phi, iq[gap_rows], out=kkt_d[1, 2])
            kkt_d[2, 2] += (cfg.phi * cfg.phi) * iq[gap_rows]
        if hold_idx is not None:
            kkt_d[1, 1, hold_idx - 1] += iq[-1]
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

    def newton_rhs(t):
        """Minus the stage residuals plus the rows' share of t, into ``rhs``."""
        row_adjoint(iq * t, rhs[1], rhs[2])
        rhs[0] = 0.0
        np.add(rhs, resid, out=rhs)
        return np.negative(rhs, out=rhs)

    def direction(fac, c):
        """Newton step for complementarity targets c of [s; e], and its longest step.

        The row multipliers and slacks are eliminated into the stage blocks,
        and the reduced system is solved once. Returns the stage step, the
        steps of [s; e] and of [z; w], and the longest step keeping both
        nonnegative.
        """
        el_shift = c[m:] - e * r_e
        el_shift /= w
        t = c[:m] / z
        t += r_row
        t[el] -= el_shift
        x = fac.solve(newton_rhs(t))
        dse, dzw = np.empty(se.size), np.empty(se.size)
        ds, de, dz, dw = dse[:m], dse[m:], dzw[:m], dzw[m:]
        row_values(x[1], x[2], 0.0, dz)
        dz += t
        dz *= iq
        # ds = (c_s - s*dz)/z
        np.multiply(s, dz, out=ds)
        np.subtract(c[:m], ds, out=ds)
        ds /= z
        np.multiply(e, dz[el], out=de)
        de /= w
        de += el_shift
        np.subtract(r_e, dz[el], out=dw)
        return x, dse, dzw, min(_step_to_bound(se, dse), _step_to_bound(zw, dzw))

    def corrector_targets(fac, gap):
        """Mehrotra's targets: the predictor's complementarity, centred."""
        minus_sz = se * zw
        minus_sz *= -1.0
        _, dse, dzw, step = direction(fac, minus_sz)
        a = min(1.0, step)
        gap_aff = gap + a * float(se @ dzw + dse @ zw) + a * a * float(dse @ dzw)
        centre = (gap_aff / gap) ** 3 * gap / se.size
        # c = centre - s*z - ds*dz, cancelling the predictor's second-order term
        dse *= dzw
        dse -= minus_sz
        return np.subtract(centre, dse, out=dse)

    # start from the constant control that reaches D, kept strictly inside
    # both boxes (v0 lies strictly inside the speed box)
    T = n * h
    lo, hi = max(u_lo, (cfg.v_min - v0) / T), min(u_hi, (cfg.v_max - v0) / T)
    margin = 0.25 * (hi - lo)
    uc = min(max(2.0 * (D - v0 * T) / (T * T), lo + margin), hi - margin)
    # the stage variables (multiplier y_k, p_k, v_k) as the rows of one
    # array, like a Newton step; the row slacks s and the elastic slacks e
    # (m - n4 of them) as one vector, their multipliers z and w as another
    state = np.empty((3, n))
    y, p, v = state
    y.fill(0.0)
    p[:] = h * np.arange(1, n + 1)
    np.multiply(uc, p, out=v)
    v += v0
    p *= v0 + 0.5 * uc * p
    se, zw = np.empty(2 * m - n4), np.empty(2 * m - n4)
    s, e, z, w = se[:m], se[m:], zw[:m], zw[m:]
    np.subtract(bounds, row_values(p, v, v0, s), out=s)
    s[el] = np.maximum(s[el], 0.0) + 1.0
    np.divide(START_MU, s, out=z)
    np.subtract(ELASTIC_PRICE, z[el], out=w)
    np.divide(START_MU, w, out=e)
    # per-iteration work arrays: row residuals, the stage residuals
    # (dynamics, gradients on p and v) and the Newton right-hand side
    r_row, resid, rhs = np.empty(m), np.empty((3, n)), np.empty((3, n))
    r_dyn, r_p, r_v = resid

    it = 0
    while True:
        row_values(p, v, v0, r_row)
        r_row -= bounds
        r_row += s
        r_row[el] -= e
        # the dynamics p_k - p_{k-1} - h (v_{k-1} + v_k)/2
        increments(p, 0.0, r_dyn)
        r_dyn[0] -= 0.5 * h * v0
        r_dyn[1:] -= 0.5 * h * v[:-1]
        r_dyn -= 0.5 * h * v
        # the Lagrangian's gradient on (p, v): rows, dynamics, energy
        row_adjoint(z, r_p, r_v)
        r_p += y
        r_p[:-1] -= y[1:]
        r_v -= 0.5 * h * y
        r_v[:-1] -= 0.5 * h * y[1:]
        du = increments(v, v0, np.empty(n))
        cost = cfg.gamma * T + 0.5 / h * float(du @ du)
        du /= h
        r_v += du
        r_v[:-1] -= du[1:]
        r_e = ELASTIC_PRICE - z[el]
        r_e -= w
        gap = float(se @ zw)
        # dual residuals are judged relative to the multipliers they sum
        dual_scale = max(1.0, np.max(np.abs(y)), np.max(z))
        res = max(np.max(np.abs(r_row)), np.max(np.abs(r_dyn)),
                  np.max(np.abs(resid[1:])) / dual_scale)
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
        x, dse, dzw, step = direction(fac, corrector_targets(fac, gap))
        fac = None   # the next factor is built with this one released
        a = min(1.0, TO_BOUNDARY * step)
        x *= a
        state += x
        dse *= a
        se += dse
        dzw *= a
        zw += dzw


def _unreachable(T, v0, cfg: ScenarioConfig, u_hi):
    """True if no answer the oracle calls feasible reaches the exit in ``T``.

    A feasible answer has v <= v_max + FEASIBLE_TOL at the grid points, and
    so everywhere (v is piecewise linear), and u <= u_hi; it travels at most
    as far as full acceleration to that speed and cruise after. Short of the
    exit by more than ten times FEASIBLE_TOL, it misses the terminal row.
    """
    v_bar = cfg.v_max + FEASIBLE_TOL
    t1 = min(T, max(v_bar - v0, 0.0) / u_hi) if u_hi > 0.0 else T
    reach = v0 * t1 + 0.5 * u_hi * t1 * t1 + v_bar * (T - t1)
    return reach < cfg.exit_distance - 10.0 * FEASIBLE_TOL


def _outer_cost(res: OracleResult):
    """The free-horizon search's cost of one horizon: the cost, plus
    INFEASIBLE_PRICE*(1 + max_violation) if infeasible."""
    return res.cost if res.feasible else res.cost + INFEASIBLE_PRICE * (1.0 + res.max_violation)


def _least_energy(n, h, v0, D):
    """A lower bound on the energy term of any outer cost on n steps of h.

    The rollout ends at p_n = v0*n*h + h^2 * sum((n - k + 1/2) u_k), so by
    Cauchy-Schwarz sum(u_k^2) h/2 >= r^2 / (2 h^3 S), S = n(4n^2 - 1)/12,
    for any answer ending within r of the offset D - v0*n*h. A feasible
    answer ends within FEASIBLE_TOL of the exit; r allows twice that, for
    the rollout's rounding. An infeasible answer's outer cost carries
    INFEASIBLE_PRICE instead, so the bound is capped there, and it is
    shrunk by 1e-9 relative for the rounding of the summed cost.
    """
    r = max(abs(D - v0 * (n * h)) - 2.0 * FEASIBLE_TOL, 0.0)
    S = n * (4.0 * n * n - 1.0) / 12.0
    return min(r * r / (2.0 * h ** 3 * S) * (1.0 - 1e-9), INFEASIBLE_PRICE)


def transcription_oracle(t0, v0, cfg: ScenarioConfig, *, tf=None, dt=0.01,
                         leader=None, lateral_tm=None, u_limits=None,
                         iters=10000, seed=0):
    """Exact optimum of the transcribed problem for one CAV solve.

    With ``tf`` given, solves the transcription on n = max(round((tf -
    t0)/dt), 8) steps exactly (``_transcription_qp``); with ``tf=None``,
    scans 7 candidate horizons from t0 + D/max(v_max, v0) bracketing the
    best one and refines by 10 golden-section steps on the outer cost: the
    cost, plus INFEASIBLE_PRICE*(1 + max_violation) if infeasible, so with
    no feasible horizon the search heads for the least infeasible one. A
    candidate is solved only if its cost can change a decision, by three
    exact rules:

    * the outer cost is at least the travel-time term gamma*n*h plus
      ``_least_energy``, so a scan point whose floor reaches the least cost
      before it cannot be the first minimum, and a golden point m2 whose
      floor exceeds m1's cost loses;
    * by the same floor, a golden point m1 whose floor reaches the cost of
      an m2 already solved loses;
    * a horizon that ``_unreachable`` rejects is infeasible, so its outer
      cost is at least INFEASIBLE_PRICE: such scan points are solved only if
      no other point costs less, and such a golden point m1 loses to an m2
      that costs less.

    The result is identical to solving every candidate. ``iters`` caps the
    interior-point iterations of each solve. ``seed`` is accepted for
    callers that pass one and has no effect: the solve is deterministic.
    """
    u_lo, u_hi = u_limits if u_limits is not None else (cfg.u_min, cfg.u_max)

    def steps(tf_val):
        n = max(int(round((tf_val - t0) / dt)), 8)
        return n, (tf_val - t0) / n

    def solve_fixed(tf_val):
        n, h = steps(tf_val)
        leader_p = None
        if leader is not None:
            grid = t0 + np.arange(n + 1) * h
            lead = leader.extended(tf_val + h)
            leader_p = lead.sample(np.maximum(grid, leader.t0))[0]
        lat_idx = None
        if lateral_tm is not None and lateral_tm > t0:
            lat_idx = min(int(round((lateral_tm - t0) / h)), n)
        v, slack, its = _transcription_qp(
            n, h, v0, cfg, u_lo, u_hi,
            None if leader_p is None else leader_p[1:] - cfg.delta0,
            lat_idx if lat_idx else None, iters)
        u = np.clip(np.diff(v, prepend=v0) / h, u_lo, u_hi)
        cost = cfg.gamma * (n * h) + float(np.sum(0.5 * u * u) * h)
        p, v = _rollout(u, t0, v0, h)
        viol = [float(np.max(v - cfg.v_max, initial=0.0)),
                float(np.max(cfg.v_min - v, initial=0.0)),
                abs(float(p[-1]) - cfg.exit_distance)]
        if leader_p is not None:
            viol.append(float(np.max(p + cfg.phi * v + cfg.delta0 - leader_p,
                                     initial=0.0)))
        if lat_idx is not None:
            viol.append(max(float(p[lat_idx]) - cfg.L, 0.0))
        worst = max(viol)
        return OracleResult(cost=cost, controls=u, tf=tf_val, penalty=slack,
                            max_violation=worst, feasible=worst < FEASIBLE_TOL,
                            iterations=its)

    if tf is not None:
        return solve_fixed(float(tf))

    # outer scan on the horizon, memoized on the rounded candidate; a
    # candidate is solved only when its cost can change a decision
    cache = {}

    def outer_cost(tf_val):
        key = round(tf_val, 6)
        if key not in cache:
            cache[key] = _outer_cost(solve_fixed(tf_val))
        return cache[key]

    def cost_floor(tf_val):
        """A lower bound on ``outer_cost(tf_val)`` that solves nothing.

        The travel-time term gamma*n*h plus ``_least_energy``, unless the
        rounded key is cached: then the cached cost itself, which may come
        from a nearby horizon and so need not exceed this horizon's floor.
        """
        key = round(tf_val, 6)
        if key in cache:
            return cache[key]
        n, h = steps(tf_val)
        return cfg.gamma * (n * h) + _least_energy(n, h, v0, cfg.exit_distance)

    def unreachable(tf_val):
        return _unreachable(tf_val - t0, v0, cfg, u_hi)

    t_scan0 = t0 + cfg.exit_distance / max(cfg.v_max, v0)
    t_scan1 = t0 + cfg.exit_distance / max(min(v0, cfg.v_max) * 0.35, 0.5)
    grid = list(np.linspace(t_scan0, t_scan1, 7))
    # The first minimum of the grid, in increasing tf. A candidate whose
    # floor reaches the least cost before it cannot be the first minimum.
    # Unreachable candidates cost at least INFEASIBLE_PRICE and are solved
    # only if nothing else costs less.
    costs = [math.inf] * len(grid)
    least = math.inf
    for i, g in enumerate(grid):
        if not unreachable(g) and cost_floor(g) < least:
            costs[i] = outer_cost(g)
            least = min(least, costs[i])
    if not least < INFEASIBLE_PRICE:
        for i, g in enumerate(grid):
            if unreachable(g):
                costs[i] = outer_cost(g)
    best = grid[min(range(len(grid)), key=costs.__getitem__)]
    span = grid[1] - grid[0]
    lo, hi = best - span, best + span
    phi_g = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(10):
        m1 = hi - phi_g * (hi - lo)
        m2 = lo + phi_g * (hi - lo)
        # outer_cost(m1) < outer_cost(m2), decided from a bound where one suffices
        if unreachable(m1) and outer_cost(m2) < INFEASIBLE_PRICE:
            lo = m1
        elif cost_floor(m1) >= cache.get(round(m2, 6), math.inf):
            lo = m1
        elif outer_cost(m1) < cost_floor(m2) or outer_cost(m1) < outer_cost(m2):
            hi = m2
        else:
            lo = m1
    return solve_fixed(0.5 * (lo + hi))

"""Hand-rolled reference implementations used as test oracles.

Everything here is written scalar-by-scalar, independent of the vectorized
production paths it is used to check.
"""

import math

import numpy as np


def sigmoid_scalar(x):
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def sigmoid_where(x):
    """The logistic function as numpy once computed it, a where() picking
    the numerator; the production sigmoid must equal it bit for bit."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def grid_from_gates(W, U, b):
    """The weight grid [n + m + 1, 4m] filled entry by entry from per-gate
    blocks W [4][n][m], U [4][m][m] and b [4][m]: rows [x; h; bias], column
    g * m + j carrying gate g of unit j."""
    n, m = len(W[0]), len(b[0])
    grid = np.zeros((n + m + 1, 4 * m))
    for g in range(4):
        for j in range(m):
            for k in range(n):
                grid[k][g * m + j] = W[g][k][j]
            for k in range(m):
                grid[n + k][g * m + j] = U[g][k][j]
            grid[n + m][g * m + j] = b[g][j]
    return grid


def gates_from_grid(grid):
    """The per-gate blocks (W [4, n, m], U [4, m, m], b [4, m]) read entry by
    entry out of a weight grid [n + m + 1, 4m]; the inverse of grid_from_gates."""
    rows, cols = len(grid), len(grid[0])
    m = cols // 4
    n = rows - m - 1
    W, U, b = np.zeros((4, n, m)), np.zeros((4, m, m)), np.zeros((4, m))
    for g in range(4):
        for j in range(m):
            for k in range(n):
                W[g][k][j] = grid[k][g * m + j]
            for k in range(m):
                U[g][k][j] = grid[n + k][g * m + j]
            b[g][j] = grid[n + m][g * m + j]
    return W, U, b


def lstm_step_loops(W, U, b, x, h_prev, C_prev):
    """One cell step with explicit python loops over units and inputs.

    W: [4, n, m], U: [4, m, m], b: [4, m]; gate order (i, f, c, o).
    Returns (i, f, c_tilde, o, h, C) as lists of floats.
    """
    n = len(x)
    m = len(h_prev)
    gates = []
    for g in range(4):
        vals = []
        for j in range(m):
            acc = b[g][j]
            for k in range(n):
                acc += x[k] * W[g][k][j]
            for k in range(m):
                acc += h_prev[k] * U[g][k][j]
            vals.append(acc)
        gates.append(vals)
    i = [sigmoid_scalar(v) for v in gates[0]]
    f = [sigmoid_scalar(v) for v in gates[1]]
    c_tilde = [math.tanh(v) for v in gates[2]]
    o = [sigmoid_scalar(v) for v in gates[3]]
    C = [f[j] * C_prev[j] + i[j] * c_tilde[j] for j in range(m)]
    h = [o[j] * math.tanh(C[j]) for j in range(m)]
    return i, f, c_tilde, o, h, C


def dot_loop(a, b):
    acc = 0.0
    for x, y in zip(a, b):
        acc += x * y
    return acc


def mse_loop(predictions, targets):
    acc = 0.0
    for p, t in zip(predictions, targets):
        acc += (p - t) ** 2
    return acc / len(predictions)


def sequence_predictions_loop(W, U, b, w_out, b_out, window):
    """Forward a window from zero state, loop math, reading out w_out . h + b_out
    after every step; each step is a list of n_inputs values or, for one
    input, a bare number."""
    m = len(b[0])
    h = [0.0] * m
    C = [0.0] * m
    preds = []
    for step in window:
        x = list(step) if np.ndim(step) else [step]
        _, _, _, _, h, C = lstm_step_loops(W, U, b, x, h, C)
        preds.append(dot_loop(w_out, h) + b_out)
    return preds


def window_last_prediction(W, U, b, w_out, b_out, window):
    return sequence_predictions_loop(W, U, b, w_out, b_out, window)[-1]


def batch_mse_loops(W, U, b, w_out, b_out, windows, targets):
    preds = [window_last_prediction(W, U, b, w_out, b_out, w) for w in windows]
    return mse_loop(preds, targets)


def batch_loss_and_grads_loop(W, U, b, w_out, b_out, X, y):
    """Batch MSE of the last-step predictions and its BPTT gradients, one
    window, step and unit at a time.

    X: [B][T][n] nested lists, y: [B]. Returns (loss, dW, dU, db, dw_out,
    db_out) with the gradients shaped like W [4, n, m], U [4, m, m], b [4, m].
    """
    B, T, n = len(X), len(X[0]), len(X[0][0])
    m = len(b[0])
    dW = np.zeros((4, n, m))
    dU = np.zeros((4, m, m))
    db = np.zeros((4, m))
    dw_out = [0.0] * m
    db_out = 0.0
    loss = 0.0
    for s in range(B):
        # forward, keeping every step's gates and state
        steps = []
        h = [0.0] * m
        C = [0.0] * m
        for t in range(T):
            i, f, g, o, h, C = lstm_step_loops(W, U, b, X[s][t], h, C)
            steps.append((i, f, g, o, h, C))
        err = dot_loop(w_out, h) + b_out - y[s]
        loss += err * err
        dpred = 2.0 * err / B
        db_out += dpred
        for k in range(m):
            dw_out[k] += dpred * h[k]
        dh = [dpred * w_out[k] for k in range(m)]
        dC = [0.0] * m
        for t in range(T - 1, -1, -1):
            i, f, g, o, _, C = steps[t]
            h_prev = steps[t - 1][4] if t > 0 else [0.0] * m
            C_prev = steps[t - 1][5] if t > 0 else [0.0] * m
            dh_next = [0.0] * m
            for j in range(m):
                tc = math.tanh(C[j])
                dC[j] += dh[j] * o[j] * (1.0 - tc * tc)
                da = (
                    dC[j] * g[j] * i[j] * (1.0 - i[j]),
                    dC[j] * C_prev[j] * f[j] * (1.0 - f[j]),
                    dC[j] * i[j] * (1.0 - g[j] * g[j]),
                    dh[j] * tc * o[j] * (1.0 - o[j]),
                )
                for gate in range(4):
                    db[gate][j] += da[gate]
                    for k in range(n):
                        dW[gate][k][j] += X[s][t][k] * da[gate]
                    for k in range(m):
                        dU[gate][k][j] += h_prev[k] * da[gate]
                        dh_next[k] += da[gate] * U[gate][k][j]
                dC[j] *= f[j]
            dh = dh_next
    return loss / B, dW, dU, db, np.array(dw_out), db_out


def crossbar_unroll_loop(g_plus, g_minus, k_scale, X, noise):
    """Time-multiplexed crossbar unroll from the zero state, one column read
    at a time: cycle m reads the four gate columns of unit m, and the new h
    is latched only after all M cycles of a step.

    Conductances [R, 4M] in siemens, X [B, T, n], noise [B, T, 4M]. Returns
    (h [B, T, M], reads [B, T, 4M]).
    """
    B, T, n = X.shape
    R, C4 = g_plus.shape
    M = C4 // 4
    h_all = np.empty((B, T, M))
    reads = np.empty((B, T, C4))
    for s in range(B):
        h = [0.0] * M
        C = [0.0] * M
        for t in range(T):
            v = list(X[s, t]) + h + [1.0]
            for unit in range(M):
                vals = []
                for gate in range(4):
                    col = gate * M + unit
                    acc = 0.0
                    for r in range(R):
                        acc += v[r] * (g_plus[r, col] - g_minus[r, col])
                    value = acc * k_scale * (1.0 + noise[s, t, col])
                    reads[s, t, col] = value
                    vals.append(value)
                C[unit] = sigmoid_scalar(vals[1]) * C[unit] + sigmoid_scalar(vals[0]) * math.tanh(vals[2])
                h_all[s, t, unit] = sigmoid_scalar(vals[3]) * math.tanh(C[unit])
            h = list(h_all[s, t])
    return h_all, reads


def finite_difference_grads(loss_fn, arrays, step=1e-5):
    """Central-difference gradient of loss_fn() w.r.t. each array, in place.

    loss_fn takes no arguments and reads the arrays; each entry is perturbed
    by +/- step and restored.
    """
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for idx in range(flat.size):
            keep = flat[idx]
            flat[idx] = keep + step
            up = loss_fn()
            flat[idx] = keep - step
            down = loss_fn()
            flat[idx] = keep
            gflat[idx] = (up - down) / (2.0 * step)
        grads.append(g)
    return grads


def nearest_level_exhaustive(w, conductances, index_space):
    """Quantize one weight by scanning all levels; ties go to the higher level.

    With index_space=True (uniformly spaced conductances) distances are
    compared in level-step units, where the half-way tie is exact in floating
    point. Otherwise the scan runs over reconstructed weight values.
    """
    g = np.asarray(conductances, dtype=np.float64)
    g_min, g_max = g[0], g[-1]
    n_levels = len(g)
    clamped = min(1.0, max(-1.0, w))
    if index_space:
        target = abs(clamped) * (n_levels - 1)
        positions = list(range(n_levels))
    else:
        target = abs(clamped)
        positions = [(g[k] - g_min) / (g_max - g_min) for k in range(n_levels)]
    best = 0
    best_dist = abs(target - positions[0])
    for k in range(1, n_levels):
        d = abs(target - positions[k])
        if d <= best_dist:
            best = k
            best_dist = d
    if clamped >= 0:
        pair = (best, 0)
    else:
        pair = (0, best)
    recon = (g[pair[0]] - g[pair[1]]) / (g_max - g_min)
    return pair, recon

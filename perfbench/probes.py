"""Fixed reference tasks that measure how fast the host runs at a given moment.

The host this benchmark was built on runs the same code up to twice as
slowly for stretches of seconds to minutes, and by different factors for
different instruction mixes. So each timed iteration is bracketed by
reference probes of the same kind of work, and a time is reported as its
ratio to the probes around it, scaled to seconds at the probe's nominal
speed. The probes do not use xbarlstm, so no change to the program moves
them. Changing a probe or its nominal time changes the unit of every
metric scaled by it.
"""

import subprocess
import sys
import time

# Probe times on an unloaded 2-CPU Intel Xeon host; they define the scale.
PROBE_NOMINAL_S = 0.003
FLOOR_NOMINAL_S = 0.110

FLOOR_CODE = "import numpy"


def probe_seconds():
    """Wall seconds of a fixed in-process task with the program's mix of work:
    seeded stream construction, small matmuls, transcendental functions and
    fancy indexing, driven from a Python loop."""
    import numpy as np

    levels = np.linspace(0.5e-6, 5e-6, 16)
    t0 = time.perf_counter()
    for seed in range(12):
        ss_a, ss_b = np.random.SeedSequence(seed).spawn(2)
        rng = np.random.default_rng(ss_a)
        grid = rng.uniform(-1.0, 1.0, (6, 16))
        idx = np.minimum(np.floor(np.abs(grid) * 15 + 0.5).astype(np.int64), 15)
        g_plus = np.where(grid >= 0, levels[idx], levels[0]) * (1 + 0.05 * rng.standard_normal((6, 16)))
        g_minus = np.where(grid >= 0, levels[0], levels[idx])
        noise = 0.01 * np.random.default_rng(ss_b).standard_normal((143, 4, 4)).transpose(0, 2, 1).reshape(143, 16)
        V = np.ones((143, 6))
        H = np.zeros((143, 4))
        C = np.zeros((143, 4))
        for _ in range(3):
            V[:, 1:5] = H
            A = (V @ (g_plus - g_minus)) * 2.2e5 * (1 + noise)
            i = 1 / (1 + np.exp(-A[:, :4]))
            f = 1 / (1 + np.exp(-A[:, 4:8]))
            C = f * C + i * np.tanh(A[:, 8:12])
            H = (1 / (1 + np.exp(-A[:, 12:]))) * np.tanh(C)
        float(np.sqrt(np.mean(H.sum(axis=1) ** 2)))
    return time.perf_counter() - t0


def process_seconds(code, env, cwd):
    """Wall seconds of one fresh ``python3 -c CODE`` process."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env, check=True, timeout=60)
    return time.perf_counter() - t0

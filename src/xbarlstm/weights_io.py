"""Plain-text weight exchange format.

Fourteen named matrices in a fixed order, each introduced by a header line
``name rows cols`` followed by that many rows of space-separated decimals
with 17 significant digits (lossless for doubles, so export -> import ->
export is byte-identical). The per-gate blocks are views of the weight
grid, cut and named in one place (named_matrices): side by side they form
its [N,4M] / [M,4M] / [1,4M] row bands, and the [M,1] output weights and
single bias follow, which lets weights trained elsewhere be imported.
"""

import numpy as np

from .config import open_text
from .kernels import LstmParams, OutputLayer, grid_dims

MATRIX_NAMES = (
    "W_i", "W_f", "W_c", "W_o",
    "U_i", "U_f", "U_c", "U_o",
    "b_i", "b_f", "b_c", "b_o",
    "w_out", "b_out",
)


def named_matrices(params: LstmParams, out: OutputLayer) -> dict:
    """The weight file's matrices by name, in file order; the twelve gate
    blocks W_g [N, M], U_g [M, M], b_g [1, M] are views of the grid."""
    n, m = grid_dims(params.grid.shape)
    gates = [params.grid[rows, g * m : (g + 1) * m] for rows in (slice(0, n), slice(n, n + m), slice(n + m, None))
             for g in range(4)]
    return dict(zip(MATRIX_NAMES, [*gates, out.w_out[:, None], np.array([[out.b_out]])]))


def write_weights(params: LstmParams, out: OutputLayer, path) -> None:
    lines = []
    for name, mat in named_matrices(params, out).items():
        lines.append(f"{name} {mat.shape[0]} {mat.shape[1]}")
        for row in mat:
            lines.append(" ".join(f"{v:.17g}" for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_weights(path):
    """Parse a weight file back into (LstmParams, OutputLayer).

    The fourteen blocks must appear in canonical order with mutually
    consistent shapes.
    """
    with open_text(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    mats = {}
    pos = 0
    for name in MATRIX_NAMES:
        if pos >= len(lines):
            raise ValueError(f"{path}: missing matrix {name!r}")
        header = lines[pos].split()
        if len(header) != 3 or header[0] != name:
            raise ValueError(f"{path}: expected header for {name!r}, got {lines[pos]!r}")
        try:
            rows, cols = int(header[1]), int(header[2])
        except ValueError:
            raise ValueError(f"{path}: bad shape in header {lines[pos]!r}") from None
        if rows < 1 or cols < 1:
            raise ValueError(f"{path}: matrix {name!r} has shape ({rows}, {cols}), expected at least (1, 1)")
        pos += 1
        if pos + rows > len(lines):
            raise ValueError(f"{path}: truncated matrix {name!r}")
        block = []
        for r in range(rows):
            values = lines[pos + r].split()
            if len(values) != cols:
                raise ValueError(f"{path}: matrix {name!r} row {r} has {len(values)} values, expected {cols}")
            try:
                block.append([float(v) for v in values])
            except ValueError:
                raise ValueError(f"{path}: matrix {name!r} row {r} contains a non-number") from None
            if not np.all(np.isfinite(block[r])):
                raise ValueError(f"{path}: matrix {name!r} row {r} contains a non-finite value")
        mats[name] = np.array(block)
        pos += rows
    if pos != len(lines):
        raise ValueError(f"{path}: {len(lines) - pos} unexpected trailing lines")

    n_inputs, n_hidden = mats["W_i"].shape
    params = LstmParams(np.zeros((n_inputs + n_hidden + 1, 4 * n_hidden)))
    out = OutputLayer(np.zeros(n_hidden), 0.0)
    for name, block in named_matrices(params, out).items():  # the gate blocks fill the grid through their views
        if mats[name].shape != block.shape:
            raise ValueError(f"{path}: {name} has shape {mats[name].shape}, expected {block.shape}")
        block[...] = mats[name]
    return params, OutputLayer(mats["w_out"][:, 0], mats["b_out"][0, 0])


def packed_shapes(params: LstmParams):
    """Shapes of the gate-concatenated view: inputs, recurrent, biases,
    output weights, output bias."""
    n, m = grid_dims(params.grid.shape)
    return [(n, 4 * m), (m, 4 * m), (1, 4 * m), (m, 1), (1, 1)]

"""Plain-text weight exchange format.

Fourteen named matrices in a fixed order, each introduced by a header line
``name rows cols`` followed by that many rows of space-separated decimals
with 17 significant digits (lossless for doubles, so export -> import ->
export is byte-identical). The per-gate blocks pack side by side into the
concatenated [1,4M] / [M,4M] / [1,4M] matrices plus the [M,1] output
weights and single bias, which lets weights trained elsewhere be imported.
"""

import numpy as np

from .core import Dims, LstmParams, OutputLayer

MATRIX_NAMES = (
    "W_i", "W_f", "W_c", "W_o",
    "U_i", "U_f", "U_c", "U_o",
    "b_i", "b_f", "b_c", "b_o",
    "w_out", "b_out",
)


def _matrices(params: LstmParams, out: OutputLayer):
    mats = {}
    for g, name in enumerate(("i", "f", "c", "o")):
        mats[f"W_{name}"] = params.W[g]
        mats[f"U_{name}"] = params.U[g]
        mats[f"b_{name}"] = params.b[g][None, :]
    mats["w_out"] = out.w_out[:, None]
    mats["b_out"] = np.array([[out.b_out]])
    return mats


def write_weights(params: LstmParams, out: OutputLayer, path) -> None:
    mats = _matrices(params, out)
    lines = []
    for name in MATRIX_NAMES:
        mat = mats[name]
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
    with open(path) as fh:
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
        pos += 1
        if pos + rows > len(lines):
            raise ValueError(f"{path}: truncated matrix {name!r}")
        block = np.empty((rows, cols))
        for r in range(rows):
            values = lines[pos + r].split()
            if len(values) != cols:
                raise ValueError(f"{path}: matrix {name!r} row {r} has {len(values)} values, expected {cols}")
            try:
                block[r] = [float(v) for v in values]
            except ValueError:
                raise ValueError(f"{path}: matrix {name!r} row {r} contains a non-number") from None
            if not np.all(np.isfinite(block[r])):
                raise ValueError(f"{path}: matrix {name!r} row {r} contains a non-finite value")
        mats[name] = block
        pos += rows
    if pos != len(lines):
        raise ValueError(f"{path}: {len(lines) - pos} unexpected trailing lines")

    n_inputs, n_hidden = mats["W_i"].shape
    for prefix, want in (("W", (n_inputs, n_hidden)), ("U", (n_hidden, n_hidden)), ("b", (1, n_hidden))):
        for gate in "ifco":
            got = mats[f"{prefix}_{gate}"].shape
            if got != want:
                raise ValueError(f"{path}: {prefix}_{gate} has shape {got}, expected {want}")
    if mats["w_out"].shape != (n_hidden, 1):
        raise ValueError(f"{path}: w_out has shape {mats['w_out'].shape}, expected ({n_hidden}, 1)")
    if mats["b_out"].shape != (1, 1):
        raise ValueError(f"{path}: b_out has shape {mats['b_out'].shape}, expected (1, 1)")

    params = LstmParams(
        np.stack([mats[f"W_{g}"] for g in "ifco"]),
        np.stack([mats[f"U_{g}"] for g in "ifco"]),
        np.stack([mats[f"b_{g}"][0] for g in "ifco"]),
    )
    out = OutputLayer(mats["w_out"][:, 0], mats["b_out"][0, 0])
    return params, out


def packed_shapes(dims: Dims):
    """Shapes of the gate-concatenated view: inputs, recurrent, biases,
    output weights, output bias."""
    n, m = dims.n_inputs, dims.n_hidden
    return [(n, 4 * m), (m, 4 * m), (1, 4 * m), (m, 1), (1, 1)]

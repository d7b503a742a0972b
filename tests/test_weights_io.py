import numpy as np
import numpy.testing as npt
import pytest

from xbarlstm.core import Dims, LstmParams, OutputLayer
from xbarlstm.weights_io import MATRIX_NAMES, packed_shapes, read_weights, write_weights

from _oracles import gates_from_grid, grid_from_gates


def random_model(seed, n_inputs=1, n_hidden=4):
    """A model built from per-gate blocks by the layout oracle, and those blocks."""
    rng = np.random.default_rng(seed)
    gates = (
        rng.uniform(-1, 1, (4, n_inputs, n_hidden)),
        rng.uniform(-1, 1, (4, n_hidden, n_hidden)),
        rng.uniform(-1, 1, (4, n_hidden)),
    )
    out = OutputLayer(rng.uniform(-1, 1, n_hidden), rng.uniform(-1, 1))
    return LstmParams(grid_from_gates(*gates)), out, gates


def file_blocks(path):
    """Every matrix of a weight file by name, parsed without the reader."""
    blocks, lines = {}, path.read_text().splitlines()
    pos = 0
    while pos < len(lines):
        name, rows, _ = lines[pos].split()
        blocks[name] = np.array([[float(v) for v in ln.split()] for ln in lines[pos + 1 : pos + 1 + int(rows)]])
        pos += 1 + int(rows)
    return blocks


@pytest.mark.parametrize("seed", range(5))
def test_round_trip_byte_identical(tmp_path, seed):
    params, out, gates = random_model(seed)
    p1, p2 = tmp_path / "w1.txt", tmp_path / "w2.txt"
    write_weights(params, out, p1)
    back_params, back_out = read_weights(p1)
    write_weights(back_params, back_out, p2)
    assert p1.read_bytes() == p2.read_bytes()
    for back, want in zip(gates_from_grid(back_params.grid), gates):
        npt.assert_array_equal(back, want)
    npt.assert_array_equal(back_out.w_out, out.w_out)
    assert back_out.b_out == out.b_out


def test_round_trip_exact_values_other_dims(tmp_path):
    params, out, (W, U, b) = random_model(9, n_inputs=3, n_hidden=6)
    path = tmp_path / "w.txt"
    write_weights(params, out, path)
    back_params, back_out = read_weights(path)
    assert back_params.dims == Dims(3, 6)
    npt.assert_array_equal(back_params.grid, grid_from_gates(W, U, b))
    npt.assert_array_equal(back_out.w_out, out.w_out)
    # each named block of the file holds that gate's entries, as the oracle lays them out
    blocks = file_blocks(path)
    for g, gate in enumerate("ifco"):
        npt.assert_array_equal(blocks[f"W_{gate}"], W[g])
        npt.assert_array_equal(blocks[f"U_{gate}"], U[g])
        npt.assert_array_equal(blocks[f"b_{gate}"], b[g][None, :])
    npt.assert_array_equal(blocks["w_out"], out.w_out[:, None])
    assert blocks["b_out"].tolist() == [[out.b_out]]


def test_file_layout_and_packed_view(tmp_path):
    params, out, _ = random_model(0)
    path = tmp_path / "w.txt"
    write_weights(params, out, path)
    lines = path.read_text().splitlines()
    headers = [ln for ln in lines if ln.split()[0] in MATRIX_NAMES]
    assert [h.split()[0] for h in headers] == list(MATRIX_NAMES)
    assert headers[0] == "W_i 1 4"
    assert headers[4] == "U_i 4 4"
    assert headers[8] == "b_i 1 4"
    assert headers[12] == "w_out 4 1"
    assert headers[13] == "b_out 1 1"
    # gate blocks concatenate into the [1,16], [4,16], [1,16], [4,1], [1,1] views
    assert packed_shapes(Dims(1, 4)) == [(1, 16), (4, 16), (1, 16), (4, 1), (1, 1)]


class TestMalformed:
    def test_missing_matrix(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("W_i 1 2\n0.5 0.5\n")
        with pytest.raises(ValueError, match="W_f"):
            read_weights(path)

    def test_wrong_order(self, tmp_path):
        params, out, _ = random_model(1)
        path = tmp_path / "w.txt"
        write_weights(params, out, path)
        lines = path.read_text().splitlines()
        lines[0] = "W_f 1 4"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="W_i"):
            read_weights(path)

    def test_bad_value(self, tmp_path):
        params, out, _ = random_model(2)
        path = tmp_path / "w.txt"
        write_weights(params, out, path)
        text = path.read_text().replace("W_i 1 4\n", "W_i 1 4\nx y z w\n", 1)
        lines = text.splitlines()
        del lines[2]  # drop the displaced original row
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="W_i"):
            read_weights(path)

    def test_inconsistent_shapes(self, tmp_path):
        params, out, _ = random_model(3)
        path = tmp_path / "w.txt"
        write_weights(params, out, path)
        lines = path.read_text().splitlines()
        k = lines.index("U_i 4 4")
        lines[k] = "U_i 2 4"
        del lines[k + 3 : k + 5]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="U_i"):
            read_weights(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value(self, tmp_path, value):
        params, out, _ = random_model(5)
        path = tmp_path / "w.txt"
        write_weights(params, out, path)
        lines = path.read_text().splitlines()
        k = lines.index("U_f 4 4") + 3
        lines[k] = " ".join(lines[k].split()[:-1] + [value])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="'U_f' row 2 contains a non-finite value"):
            read_weights(path)

    def test_trailing_garbage(self, tmp_path):
        params, out, _ = random_model(4)
        path = tmp_path / "w.txt"
        write_weights(params, out, path)
        path.write_text(path.read_text() + "0.1 0.2\n")
        with pytest.raises(ValueError, match="trailing"):
            read_weights(path)

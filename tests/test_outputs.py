import numpy as np

from doublephase.outputs import write_history_csv, write_matrix_csv, write_path_profile_csv


def test_history_csv_bytes(tmp_path):
    # floats by repr, signed zero and infinities kept, one newline per row
    history = [(1.5, float("inf")), (-0.0, 1e-300), (np.float64(0.1), 2)]
    path = write_history_csv(tmp_path / "h.csv", history)
    assert path.read_bytes() == (
        b"iteration,energy,residual\n0,1.5,inf\n1,-0.0,1e-300\n2,0.1,2.0\n"
    )


def test_history_csv_of_no_rows_is_the_header(tmp_path):
    assert write_history_csv(tmp_path / "h.csv", []).read_bytes() == b"iteration,energy,residual\n"


def test_path_profile_csv_bytes(tmp_path):
    path = write_path_profile_csv(tmp_path / "p.csv", [(0, [0.25, -np.inf]), (7, []), (9, [-0.0])])
    assert path.read_bytes() == b"iteration,k,energy\n0,0,0.25\n0,1,-inf\n9,0,-0.0\n"


def test_matrix_csv_bytes(tmp_path):
    matrix = np.array([[0.0, 1 / 3, -0.0], [np.inf, 2.0, 1e17]])
    path = write_matrix_csv(tmp_path / "m.csv", matrix)
    assert path.read_bytes() == (
        b"u0,u1,u2\n0.0,0.3333333333333333,-0.0\ninf,2.0,1e+17\n"
    )
    empty = write_matrix_csv(tmp_path / "e.csv", np.zeros((0, 2)))
    assert empty.read_bytes() == b"u0,u1\n"

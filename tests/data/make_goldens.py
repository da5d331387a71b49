"""Regenerates the golden files in this directory.

The recursions here are written independently from the package (plain
Python, no imports from quantes) so the stored paths act as an oracle for
the library implementation. Run from the repository root:

    python3 tests/data/make_goldens.py
"""

import csv
import pathlib

import numpy as np

HERE = pathlib.Path(__file__).parent


def synthetic_returns(n=60, seed=20240817):
    rng = np.random.default_rng(seed)
    y = 1.5 * rng.standard_normal(n) - 0.1
    return y


def sav_path(y, omega, eta, beta1, q0):
    q = [q0]
    for t in range(1, len(y)):
        q.append(omega + eta * q[t - 1] + beta1 * abs(y[t - 1]))
    return q


def ar_es(y, q, g1, g2, g3, x0):
    # Taylor (2019): the offset moves after a violation of the previous period
    x = [x0]
    for t in range(1, len(y)):
        if y[t - 1] <= q[t - 1]:
            x.append(g1 + g2 * (q[t - 1] - y[t - 1]) + g3 * x[t - 1])
        else:
            x.append(x[t - 1])
    es = [qt - xt for qt, xt in zip(q, x)]
    return es, x


def tables():
    """File name -> (header, rows) of every golden file."""
    y = synthetic_returns()
    omega, eta, beta1 = -0.2, 0.85, -0.1
    q0 = -1.8
    q = sav_path(y, omega, eta, beta1, q0)
    g1, g2, g3, x0 = 0.05, 0.12, 0.80, 0.3
    es, x = ar_es(y, q, g1, g2, g3, x0)
    return {
        "synthetic_returns.csv": (["y"], [[v] for v in y]),
        "golden_sav_path.csv": (["q"], [[v] for v in q]),
        "golden_ar_es.csv": (["es", "x"], [list(r) for r in zip(es, x)]),
    }


def render(header, rows, fh):
    w = csv.writer(fh)
    w.writerow(header)
    for row in rows:
        w.writerow([f"{v:.12g}" for v in row])


def main():
    for name, (header, rows) in tables().items():
        with open(HERE / name, "w", newline="") as fh:
            render(header, rows, fh)
    print("golden files written to", HERE)


if __name__ == "__main__":
    main()

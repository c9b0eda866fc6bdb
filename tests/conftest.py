import numpy as np
import pytest

from hubofs.dataset import Dataset
from hubofs.hubo import HuboCoefficients


def random_instance(seed: int, n: int) -> HuboCoefficients:
    """Dense random HUBO with all coefficients i.i.d. uniform in [-1, 1]."""
    rng = np.random.default_rng(seed)
    h = rng.uniform(-1, 1, n)
    j = {
        (a, b): float(rng.uniform(-1, 1)) for a in range(n) for b in range(a + 1, n)
    }
    k = {
        (a, b, c): float(rng.uniform(-1, 1))
        for a in range(n)
        for b in range(a + 1, n)
        for c in range(b + 1, n)
    }
    return HuboCoefficients.from_terms(n=n, h=h, j_terms=j, k_terms=k)


def term_dict(index: np.ndarray, values: np.ndarray) -> dict:
    """``{(i, ...): value}`` of one term family's index rows and values."""
    return dict(zip(map(tuple, index.tolist()), values.tolist()))


def naive_energy(c: HuboCoefficients, spins) -> float:
    """Dense triple-loop oracle, independent of the sparse evaluator."""
    n = c.n
    h = np.zeros(n)
    jmat = np.zeros((n, n))
    kcube = np.zeros((n, n, n))
    for i in range(n):
        h[i] = c.h[i]
    for (i, j), v in c.j_terms.items():
        jmat[i, j] = v
    for (i, j, k), v in c.k_terms.items():
        kcube[i, j, k] = v
    total = 0.0
    for i in range(n):
        total += h[i] * spins[i]
    for i in range(n):
        for j in range(i + 1, n):
            total += jmat[i, j] * spins[i] * spins[j]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                total += kcube[i, j, k] * spins[i] * spins[j] * spins[k]
    return total + c.constant


REDUNDANT_DUPS = (0, 1, 2)
REDUNDANT_INDS = (3, 4, 5)
REDUNDANT_NOISE = (6, 7, 8, 9)


def make_redundant_dataset(seed: int, n_rows: int = 1200) -> Dataset:
    """n=10 binary-feature classification set with built-in redundancy.

    One informative feature (15% label flips) duplicated three times, three
    independent informative features (10% flips), four coin-flip noise
    features. Used to demonstrate that the three-body terms suppress
    selecting the whole duplicate group.
    """
    rng = np.random.default_rng(seed)
    y = np.array([0, 1] * (n_rows // 2))

    def noisy_copy(q):
        return np.where(rng.random(n_rows) < q, 1 - y, y).astype(float)

    dup = noisy_copy(0.15)
    columns = [dup, dup, dup, noisy_copy(0.1), noisy_copy(0.1), noisy_copy(0.1)]
    columns += [(rng.random(n_rows) < 0.5).astype(float) for _ in range(4)]
    names = (
        "dup_a",
        "dup_b",
        "dup_c",
        "ind_1",
        "ind_2",
        "ind_3",
        "noise_1",
        "noise_2",
        "noise_3",
        "noise_4",
    )
    return Dataset(features=np.column_stack(columns), target=y, feature_names=names)


def write_demo_csv(path, seed: int = 5, n_rows: int = 400) -> None:
    """Small mixed-type CSV (numeric + categorical + binary target) for CLI tests."""
    rng = np.random.default_rng(seed)
    y = np.array([0, 1] * (n_rows // 2))

    def noisy_copy(q):
        return np.where(rng.random(n_rows) < q, 1 - y, y).astype(float)

    strong = noisy_copy(0.1)
    cols = {
        "strong_a": strong,
        "strong_b": strong,
        "mid_1": noisy_copy(0.2),
        "mid_2": noisy_copy(0.2),
        "noise_1": (rng.random(n_rows) < 0.5).astype(float),
        "noise_2": rng.normal(0.0, 1.0, n_rows),
    }
    cat = np.where(rng.random(n_rows) < 0.5, "red", "blue")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + ",color,label\n")
        for r in range(n_rows):
            cells = [f"{cols[name][r]:.6f}" for name in cols]
            cells.append(cat[r])
            cells.append("pos" if y[r] else "neg")
            fh.write(",".join(cells) + "\n")


@pytest.fixture
def demo_csv(tmp_path):
    path = tmp_path / "demo.csv"
    write_demo_csv(path)
    return path

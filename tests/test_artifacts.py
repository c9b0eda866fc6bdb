import itertools
import json

import numpy as np
import pytest

from hubofs.artifacts import term_rows, write_json


def written(tmp_path, doc) -> str:
    path = tmp_path / "doc.json"
    write_json(path, doc)
    return path.read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "doc",
    [
        {},
        {"schema": "s", "J": [], "K": [], "pairs": [], "triples": []},
        {"J": [[0, 1, -0.0]], "K": [[0, 1, 2, 0.0]]},
        {
            "schema": "s",
            "n": 3,
            "h": [1e-300, -2.5, 0.1],
            "pairs": [[0, 1, -1.25e-7], [0, 2, 5e20], [1, 2, -0.0]],
            "triples": [[0, 1, 2, 1.7976931348623157e308], [0, 1, 3, -5e-324]],
            "names": ["a\nb", "é", "\"q\""],
            "provenance": {"seed": 7, "nested": [1, {"x": None, "y": True}], "empty": {}},
        },
        {"pairs": [[0, 1, float("nan")]], "triples": [[0, 1, 2, float("-inf")]], "J": [[0, 1, 1.0]]},
    ],
)
def test_write_json_matches_json_dump(tmp_path, doc):
    assert written(tmp_path, doc) == json.dumps(doc, indent=1) + "\n"


def test_write_json_matches_json_dump_on_a_coefficient_sized_document(tmp_path):
    rng = np.random.default_rng(5)
    n = 32
    pairs = np.array(list(itertools.combinations(range(n), 2)))
    triples = np.array(list(itertools.combinations(range(n), 3)))
    values = rng.normal(size=len(triples)) * 10.0 ** rng.integers(-20, 20, len(triples))
    doc = {
        "schema": "s",
        "n": n,
        "h": rng.normal(size=n).tolist(),
        "J": term_rows(pairs, -rng.exponential(size=len(pairs))),
        "K": term_rows(triples, values),
        "constant": -0.0,
    }
    assert written(tmp_path, doc) == json.dumps(doc, indent=1) + "\n"

"""Fuzz the four artifact loaders: whatever the bytes, only HubofsError escapes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_instance
from hubofs.errors import HubofsError
from hubofs.hubo import load_coefficients, save_coefficients
from hubofs.mi import MiTensors, load_tensors, save_tensors
from hubofs.postselect import (
    ImportanceScores,
    read_importance_csv,
    threshold_select,
    write_importance_csv,
)
from hubofs.samplers import load_samples, save_samples, simulated_annealing

LOADERS = {
    "coefficients": load_coefficients,
    "samples": load_samples,
    "tensors": load_tensors,
    "importance": read_importance_csv,
}

# Fragments that push a mutated artifact past the first parse into the checks.
TOKENS = [b",", b"\n", b"# ", b"=", b"-1", b"0", b"1", b"1.5", b"nan", b"1e999", b'"', b"[", b"]",
          b"{", b"}", b"null", b"\xff", b"x"]


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Valid bytes of each artifact kind, plus a scratch path to write mutants to."""
    root = tmp_path_factory.mktemp("artifacts")
    c = random_instance(3, 4)
    save_coefficients(root / "coefficients", c, feature_names=("a", "b", "c", "d"))
    save_samples(root / "samples", simulated_annealing(c, shots=6, sweeps=3, seed=1))
    save_tensors(
        root / "tensors",
        MiTensors.from_terms(
            relevance=np.array([0.5, 0.25, 0.125]),
            redundancy={(0, 1): 0.1, (0, 2): 0.2, (1, 2): 0.3},
            triadic={(0, 1, 2): 0.05},
        ),
    )
    scores = ImportanceScores(scores=np.array([0.75, 0.25]), retained_count=4, rho=0.5)
    write_importance_csv(root / "importance", scores, ("a", "b,c"), threshold_select(scores, 0.5))
    return {kind: (root / kind).read_bytes() for kind in LOADERS}, root / "mutant"


@st.composite
def mutations(draw, valid: bytes) -> bytes:
    data = bytearray(valid)
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(["delete", "insert", "replace"]))
        if op == "delete":
            del data[pos : pos + draw(st.integers(1, 24))]
        else:
            chunk = draw(st.sampled_from(TOKENS) | st.binary(max_size=6))
            end = pos if op == "insert" else pos + len(chunk)
            data[pos:end] = chunk
    return bytes(data)


@pytest.mark.parametrize("kind", sorted(LOADERS))
@settings(max_examples=250, deadline=None)
@given(data=st.data())
def test_only_hubofs_errors_escape(artifacts, kind, data):
    valid, path = artifacts
    blob = data.draw(st.binary(max_size=64) | mutations(valid[kind]), label="bytes")
    path.write_bytes(blob)
    try:
        LOADERS[kind](path)
    except HubofsError:
        pass

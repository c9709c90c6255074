"""Unit tests for sample summaries."""

import math

import numpy as np
import pytest

from repro.analysis import summarize


def test_summarize_keys_and_values():
    out = summarize(np.array([1.0, 2.0, 3.0, 4.0]))
    assert out["n"] == 4
    assert out["mean"] == 2.5
    assert out["min"] == 1.0 and out["max"] == 4.0
    assert out["p50"] == 2.5


def test_summarize_empty():
    out = summarize(np.array([]))
    assert out["n"] == 0
    assert math.isnan(out["mean"])

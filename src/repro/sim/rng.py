"""Deterministic named random substreams.

Every stochastic component of an experiment draws from its own
``numpy.random.Generator``, derived from ``(experiment seed, component
name)``. Substreams are independent of creation order, so adding a new
component or reordering initialization never perturbs existing streams —
a requirement for comparable parameter sweeps (common random numbers
across policies are obtained by reusing stream names).
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["IndexStream", "RngHub", "substream_seed"]


def substream_seed(seed: int, name: str) -> int:
    """Derive a stable 128-bit integer seed from ``(seed, name)``.

    Uses BLAKE2b over the decimal seed and the UTF-8 name, so the mapping
    is stable across Python/NumPy versions and platforms.
    """
    digest = hashlib.blake2b(
        f"{seed}:{name}".encode("utf-8"), digest_size=16
    ).digest()
    return int.from_bytes(digest, "little")


class IndexStream:
    """Uniform indices from a private substream, drawn a block at a time.

    ``integers(n)`` returns, as a Python int, exactly what
    ``int(generator.integers(n))`` returns for ``1 <= n < 2**32``: numpy
    spends one 32-bit word per try on Lemire's multiply-shift with
    rejection (none for ``n == 1``), and a full-range ``uint32`` block is
    those same words in the same order. Drawing ahead is unobservable
    because nothing else reads the generator — :class:`RngHub` hands a
    name out as a raw stream or as an index stream, never both.
    """

    __slots__ = ("_generator", "_pop")

    def __init__(self, generator: np.random.Generator):
        self._generator = generator
        self._pop = [].pop  # next word; IndexError asks for a new block

    def integers(self, n: int) -> int:
        """A uniform integer in ``[0, n)``."""
        if not 1 < n <= 0xFFFFFFFF:
            if n == 1:
                return 0
            raise ValueError(f"n must be in [1, 2**32), got {n!r}")
        while True:
            try:
                m = self._pop() * n
            except IndexError:
                block = self._generator.integers(0, 2**32, size=1024, dtype=np.uint32)
                self._pop = block[::-1].tolist().pop
                continue
            low = m & 0xFFFFFFFF
            # the rejection threshold is below n, so it is only worked
            # out for the n-in-2**32 words that could fall under it
            if low >= n or low >= (2**32 - n) % n:
                return m >> 32


class RngHub:
    """Factory of named, deterministic ``numpy.random.Generator`` streams.

    Example
    -------
    >>> hub = RngHub(42)
    >>> a = hub.stream("arrivals")
    >>> b = hub.stream("service")
    >>> hub2 = RngHub(42)
    >>> float(a.random()) == float(hub2.stream("arrivals").random())
    True
    """

    __slots__ = ("seed", "_streams")

    def __init__(self, seed: int):
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self.seed = int(seed)
        self._streams: dict[str, np.random.Generator | IndexStream] = {}

    def _seeded(self, name: str) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(substream_seed(self.seed, name))
        )

    def stream(self, name: str) -> np.random.Generator:
        """Return the (cached) generator for ``name``."""
        generator = self._streams.get(name)
        if generator is None:
            generator = self._streams[name] = self._seeded(name)
        elif type(generator) is IndexStream:
            raise ValueError(f"substream {name!r} is already an index stream")
        return generator

    def index_stream(self, name: str) -> IndexStream:
        """Return the (cached) :class:`IndexStream` for ``name``."""
        stream = self._streams.get(name)
        if stream is None:
            stream = self._streams[name] = IndexStream(self._seeded(name))
        elif type(stream) is not IndexStream:
            raise ValueError(f"substream {name!r} is already a raw generator")
        return stream

    def fork(self, name: str) -> "RngHub":
        """A child hub whose streams are disjoint from this hub's.

        Used to give each point of a parameter sweep its own universe of
        substreams derived from a single experiment seed.
        """
        return RngHub(substream_seed(self.seed, f"fork:{name}") & (2**63 - 1))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RngHub seed={self.seed} streams={sorted(self._streams)}>"

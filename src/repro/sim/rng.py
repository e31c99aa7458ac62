"""Deterministic random number generation for workload generators."""

from __future__ import annotations

import random


class DeterministicRandom(random.Random):
    """A :class:`random.Random` that refuses to be seeded from the OS.

    Workload generators (FIO, PostMark, Dbench, ...) need randomness for their
    access patterns but the reproduction must stay bit-for-bit deterministic,
    so every generator receives one of these seeded from the experiment name.
    """

    def __init__(self, seed: int | str = 0) -> None:
        if isinstance(seed, str):
            seed = sum((i + 1) * b for i, b in enumerate(seed.encode("utf-8")))
        super().__init__(seed)
        self._initial_seed = seed

    @property
    def initial_seed(self) -> int:
        """Seed the generator was created with."""
        return int(self._initial_seed)

    def reseed(self) -> None:
        """Reset the stream back to its initial seed."""
        super().seed(self._initial_seed)

    def __reduce__(self):
        # random.Random's own __reduce__ rebuilds with the default seed and
        # only restores the stream position, silently dropping
        # ``_initial_seed`` — after a copy or pickle (kernel snapshot/fork),
        # ``substream`` would then derive from the wrong root.  Rebuild with
        # the real seed, then restore the exact stream position.
        return (_rebuild_rng, (self._initial_seed, self.getstate()))

    def substream(self, name: str) -> "DeterministicRandom":
        """An independent deterministic stream derived from this one's seed.

        Derivation uses only the *initial* seed, never the current stream
        position, so ``rng.substream("ops")`` yields the same stream no
        matter how much of ``rng`` was already consumed — the property the
        fsstress fuzzer relies on to keep its op, crash-point and payload
        streams independent yet reproducible from one seed.
        """
        return DeterministicRandom(f"{self._initial_seed}/{name}")

    def zipf_index(self, n: int, skew: float = 1.1) -> int:
        """Pick an index in ``[0, n)`` with a Zipf-like popularity skew."""
        if n <= 0:
            raise ValueError("population must be positive")
        # Inverse-CDF sampling over a truncated zeta distribution.
        u = self.random()
        total = sum(1.0 / (i + 1) ** skew for i in range(n))
        acc = 0.0
        for i in range(n):
            acc += (1.0 / (i + 1) ** skew) / total
            if u <= acc:
                return i
        return n - 1


def _rebuild_rng(seed: int, state) -> DeterministicRandom:
    """Reconstruct a copied/pickled :class:`DeterministicRandom`."""
    rng = DeterministicRandom(seed)
    rng.setstate(state)
    return rng

"""Seeded integer streams for the claims' Monte Carlo phases.

``Stream(seed)`` is the standard library's generator with numpy's scalar
``integers(low, high=None)``, so a numpy ``Generator`` may be passed wherever
a stream is taken.  No report byte depends on the draws: each verdict rests
on a certificate (a bound, a Schreier pass, orbit-stabilizer or exhaustion).
Python keeps only ``random()``'s sequence stable across versions, so
``integers`` scales it; the bias, at most (high - low) / 2^53, cannot change
a certified chain.
"""

import random


class Stream(random.Random):
    """``random.Random(seed)`` with ``Generator.integers``' scalar draws."""

    def integers(self, low, high=None) -> int:
        """A uniform integer of [low, high), or of [0, low) without high."""
        if high is None:
            low, high = 0, low
        if high <= low:
            raise ValueError(f"range [{low}, {high}) is empty")
        return low + int(self.random() * (high - low))

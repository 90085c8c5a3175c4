"""Deterministic retry backoff for the simulated cluster.

Every retry loop in the repro needs jitter (synchronized retries after a
failover arrive as a second stampede) but must stay deterministic: the
chaos convergence harness asserts byte-identical end states, and a
``random`` draw would entangle retry timing with every other consumer of
the module-level RNG. :func:`seeded_jitter` hashes the caller-supplied
identity parts instead — same inputs, same jitter, on every run and
every platform. :func:`retry_delay` is the schedule of every loop that
retries an unroutable send (gateway route retry, shard client-bound retry).
"""

from __future__ import annotations

import zlib


def seeded_jitter(*parts: object) -> float:
    """A deterministic pseudo-random float in ``[0, 1)`` from *parts*.

    Callers pass whatever identifies the retry (node id, message kind,
    attempt number); distinct identities decorrelate, identical ones
    repeat exactly. CRC-32 is plenty: this spreads retry timestamps, it
    does not need cryptographic quality.
    """
    key = ":".join(str(part) for part in parts)
    return zlib.crc32(key.encode("utf-8")) / 2**32


#: Unroutable-send retries: first delay, attempt budget, cap on one delay.
RETRY_BASE_S = 0.25
RETRY_ATTEMPTS = 6
RETRY_MAX_S = 4.0


def retry_delay(attempt: int, *identity: object) -> float:
    """Capped exponential backoff with deterministic per-op jitter.

    The cap bounds late attempts (uncapped ``base * 2**attempt`` waits
    far past any failover); the jitter (up to +50%, hashed from the op's
    *identity* and the attempt) spreads the retries of ops parked by the
    same death instead of firing them as one synchronized stampede.
    """
    delay = min(RETRY_BASE_S * (2.0**attempt), RETRY_MAX_S)
    return delay * (1.0 + 0.5 * seeded_jitter(*identity, attempt))

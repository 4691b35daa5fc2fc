"""Seeded process-level chaos injection for the supervised runtime.

Where :mod:`repro.resilience.faults` corrupts *values* flowing through
the arithmetic, this module breaks *processes and disks* — the failure
modes the supervised worker pool (:mod:`repro.supervise.pool`) exists
to survive.  Three chaos kinds are supported:

``kill``
    the worker SIGKILLs itself right before computing a cell or a lane
    group — an OOM-kill / segfault stand-in that no Python ``except``
    can see;
``hang``
    the worker blocks ``SIGTERM``/``SIGALRM`` and sleeps past any
    budget — hung native code that only the parent watchdog's
    escalation to SIGKILL can clear;
``enospc``
    a result-cache write raises ``OSError(ENOSPC)`` — a full disk,
    which the cache layer must absorb by disabling itself rather than
    failing the cell.

Configuration rides in the environment so it reaches every worker
process regardless of start method::

    REPRO_CHAOS="kill:0.15,hang:0.05,enospc:0.02"  # kind:probability
    REPRO_CHAOS_SEED=1337                          # default 0

Determinism: each chaos decision hashes ``(seed, kind, key)`` — no
random state, no draw ordering — so the same configuration injects the
same failures at the same points in every run, across processes and
start methods.  ``kill`` and ``hang`` decide once per dispatch, keyed
on the dispatch's first cell and its *attempt* number
(``<cell_id>#<attempt>``), so a killed cell, or a lane group whose
cells the pool then runs one by one, is a fresh coin flip when the
pool runs it again: chaos exercises the recovery machinery without
condemning any cell forever (quarantine still triggers if the coin
keeps coming up kill ``--max-worker-deaths`` times).

Because ``kill`` and ``hang`` fire only from the supervised worker's
task loop, a chaos-enabled *serial* run (or the parent process) is
never killed — only ``enospc`` can fire in-parent, and that path is
handled gracefully by the cache.
"""

from __future__ import annotations

import contextlib
import errno
import hashlib
import os
import signal
import time
from dataclasses import dataclass, field
from typing import Mapping

__all__ = ["CHAOS_KINDS", "ChaosConfig", "chaos_from_env",
           "chaos_worker_entry", "maybe_chaos_enospc"]

#: the supported chaos kinds, i.e. valid keys in ``REPRO_CHAOS``
CHAOS_KINDS = ("kill", "hang", "enospc")

_OFF = frozenset({"", "off", "0", "no", "none", "false", "disabled"})


@dataclass(frozen=True)
class ChaosConfig:
    """Parsed chaos rates plus the seed that fixes every decision."""

    rates: Mapping[str, float] = field(default_factory=dict)
    seed: int = 0
    #: how long an injected hang stalls (overridden in tests via
    #: ``REPRO_CHAOS_HANG_S``; the watchdog is expected to kill sooner)
    hang_seconds: float = 3600.0

    def decide(self, kind: str, key: str) -> bool:
        """Deterministic Bernoulli(rate) draw for *kind* at *key*.

        Hashes ``seed:kind:key`` into a uniform in [0, 1) — stateless,
        so workers and tests agree on every decision without sharing
        any RNG stream.
        """
        rate = self.rates.get(kind, 0.0)
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        digest = hashlib.sha256(
            f"{self.seed}\x1f{kind}\x1f{key}".encode()).digest()
        return int.from_bytes(digest[:8], "big") / 2.0 ** 64 < rate


def _parse(spec: str, seed: int, hang_seconds: float) -> ChaosConfig:
    rates: dict[str, float] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        kind, sep, rate_s = part.partition(":")
        kind = kind.strip().lower()
        if kind not in CHAOS_KINDS:
            raise ValueError(f"unknown chaos kind {kind!r} in "
                             f"REPRO_CHAOS={spec!r}; known: {CHAOS_KINDS}")
        try:
            rate = float(rate_s) if sep else 1.0
        except ValueError:
            raise ValueError(f"bad chaos rate {rate_s!r} for {kind!r} in "
                             f"REPRO_CHAOS={spec!r}") from None
        if not (0.0 <= rate <= 1.0):
            raise ValueError(f"chaos rate for {kind!r} must be in [0, 1], "
                             f"got {rate!r}")
        rates[kind] = rate
    return ChaosConfig(rates=rates, seed=seed, hang_seconds=hang_seconds)


_parsed: tuple[tuple[str, str, str], ChaosConfig | None] | None = None


def chaos_from_env() -> ChaosConfig | None:
    """The ambient chaos configuration, or ``None`` when chaos is off.

    Parsed from ``REPRO_CHAOS`` / ``REPRO_CHAOS_SEED`` and memoized on
    the raw environment values, so the per-call cost on the hot path
    (every cache write probes ``enospc``) is a few dict lookups.
    """
    global _parsed
    raw = (os.environ.get("REPRO_CHAOS", ""),
           os.environ.get("REPRO_CHAOS_SEED", "0"),
           os.environ.get("REPRO_CHAOS_HANG_S", ""))
    if _parsed is not None and _parsed[0] == raw:
        return _parsed[1]
    spec, seed_s, hang_s = raw
    if spec.strip().lower() in _OFF:
        config: ChaosConfig | None = None
    else:
        config = _parse(spec, int(seed_s or "0"),
                        float(hang_s) if hang_s else 3600.0)
    _parsed = (raw, config)
    return config


def chaos_worker_entry(cells, attempt: int) -> None:
    """Chaos point at the top of a supervised worker's dispatch.

    One decision per dispatch, keyed on the first of its *cells* (one
    cell, or a lane group's cells) and the dispatch *attempt*: a lane
    group of 19 cells dies at the configured ``kill`` rate, not at
    ``1 - (1 - rate)**19``.  Called from :mod:`repro.supervise.worker`
    only — never from the serial path — so injected kills and hangs
    always land on a *disposable* process the pool can respawn.
    """
    config = chaos_from_env()
    if config is None:
        return
    key = f"{cells[0].cell_id}#{attempt}"
    if config.decide("kill", key):
        # the harshest exit there is: no atexit, no finally, no signal
        os.kill(os.getpid(), signal.SIGKILL)
    if config.decide("hang", key):
        _hang(config)


def _hang(config: ChaosConfig) -> None:
    """Emulate hung native code: uninterruptible by SIGTERM/SIGALRM.

    Blocking the catchable signals means the inner SIGALRM budget and
    the watchdog's polite SIGTERM both bounce off — exactly the case
    the grace-period escalation to SIGKILL exists for.
    """
    with contextlib.suppress(AttributeError, ValueError, OSError):
        signal.pthread_sigmask(signal.SIG_BLOCK,
                               {signal.SIGTERM, signal.SIGALRM})
    deadline = time.monotonic() + config.hang_seconds
    while time.monotonic() < deadline:
        time.sleep(0.05)


def maybe_chaos_enospc(key: str) -> None:
    """Chaos point inside result-cache writes: raise a fake full disk."""
    config = chaos_from_env()
    if config is not None and config.decide("enospc", key):
        raise OSError(errno.ENOSPC,
                      "chaos-injected: No space left on device", key)

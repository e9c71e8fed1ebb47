"""Deterministic seeded fault injection.

A :class:`FaultInjector` is installed process-wide (or propagated to
worker children via the ``REPRO_CHAOS`` environment variable) and fires
at named *injection points* sprinkled through the runtime —
``worker.child``, ``checkpoint.write``, ``cache.read``, ``cache.write``.
When no injector is installed, :func:`chaos_point` is a no-op costing
one global read, so production paths pay nothing.

Determinism: every probabilistic decision draws from one
``random.Random(seed)`` in injection-point call order, so a run with a
fixed seed and a fixed schedule of points replays the same faults.

Fault kinds:

``kill``
    ``SIGKILL`` the current process (simulates the OOM-killer / a power
    cut — no cleanup handlers run).
``oom``
    raise :class:`MemoryError` (simulates an rlimit trip).
``error``
    raise ``RuntimeError`` (an arbitrary in-process crash).
``stall``
    sleep (simulates a wedged solver; watchdogs should fire).
``disk_full``
    raise ``OSError(ENOSPC)``.
``truncate``
    chop the file at the point's ``path`` to half its size (torn write).
``bitflip``
    XOR one byte of the file at ``path`` (silent media corruption).

Network faults (PR 10) are *cooperative*: firing one raises
:class:`NetworkFault`, which the service path catches at its injection
points (``service.accept``, ``service.response``, ``service.stream``)
and turns into the wire-level misbehaviour — the injector cannot reach
into a socket, but the server can:

``conn_reset``
    abort the connection without a response (client sees ECONNRESET).
``slow_write``
    stretch the response out over ``delay`` seconds (client timeouts).
``torn_stream``
    close an NDJSON stream mid-record (a torn line at the client).
``reject_503``
    answer ``503 Service Unavailable`` with a ``Retry-After`` header.
"""

from __future__ import annotations

import errno
import json
import os
import signal
import time
from dataclasses import dataclass, field
from random import Random
from typing import Optional

from ..obs import WARN, metrics, tracer

ENV_VAR = "REPRO_CHAOS"

#: kinds the service path interprets by catching :class:`NetworkFault`
NETWORK_KINDS = ("conn_reset", "slow_write", "torn_stream", "reject_503")

_KINDS = (
    "kill", "oom", "error", "stall", "disk_full", "truncate", "bitflip",
) + NETWORK_KINDS


class NetworkFault(Exception):
    """An injected wire-level fault; the service path catches it at the
    injection point and performs the misbehaviour on the real socket."""

    def __init__(self, kind: str, point: str, delay: float = 0.0):
        self.kind = kind
        self.point = point
        self.delay = delay
        super().__init__(f"chaos: injected {kind} at {point}")


@dataclass(frozen=True)
class FaultSpec:
    """One fault armed at one injection point."""

    point: str                    # injection point name, e.g. "checkpoint.write"
    kind: str                     # one of _KINDS
    probability: float = 1.0      # chance of firing per visit
    count: Optional[int] = None   # max firings; None = every matching visit
    delay: float = 2.0            # stall duration, seconds (kind="stall")

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} (not in {_KINDS})")


@dataclass(frozen=True)
class ChaosConfig:
    """A seed plus the armed faults — the whole experiment, serializable."""

    seed: int
    specs: tuple[FaultSpec, ...] = field(default_factory=tuple)

    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "specs": [
                    {
                        "point": s.point,
                        "kind": s.kind,
                        "probability": s.probability,
                        "count": s.count,
                        "delay": s.delay,
                    }
                    for s in self.specs
                ],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "ChaosConfig":
        data = json.loads(text)
        return cls(
            seed=int(data["seed"]),
            specs=tuple(FaultSpec(**spec) for spec in data.get("specs", [])),
        )


class FaultInjector:
    """Fires configured faults at visited injection points."""

    def __init__(self, config: ChaosConfig):
        self.config = config
        self.rng = Random(config.seed)
        self.fired: dict[int, int] = {}  # spec index -> times fired
        self.visits: dict[str, int] = {}

    def fire(self, point: str, **ctx) -> None:
        self.visits[point] = self.visits.get(point, 0) + 1
        for i, spec in enumerate(self.config.specs):
            if spec.point != point:
                continue
            if spec.count is not None and self.fired.get(i, 0) >= spec.count:
                continue
            # always draw, so later decisions don't depend on spent specs
            roll = self.rng.random()
            if roll >= spec.probability:
                continue
            self.fired[i] = self.fired.get(i, 0) + 1
            self._perform(spec, point, ctx)

    def _perform(self, spec: FaultSpec, point: str, ctx: dict) -> None:
        metrics().counter(f"chaos.injected.{spec.kind}").inc()
        tr = tracer()
        if tr.enabled:
            tr.event(
                "chaos.inject",
                level=WARN,
                msg=f"[chaos] injecting {spec.kind} at {point}",
                point=point,
                kind=spec.kind,
            )
        kind = spec.kind
        if kind == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        elif kind == "oom":
            raise MemoryError(f"chaos: injected OOM at {point}")
        elif kind == "error":
            raise RuntimeError(f"chaos: injected crash at {point}")
        elif kind == "stall":
            time.sleep(spec.delay)
        elif kind == "disk_full":
            raise OSError(errno.ENOSPC, f"chaos: injected ENOSPC at {point}")
        elif kind in ("truncate", "bitflip"):
            path = ctx.get("path")
            if path:
                _corrupt_file(path, kind, self.rng)
        elif kind in NETWORK_KINDS:
            raise NetworkFault(kind, point, delay=spec.delay)


def _corrupt_file(path: str, kind: str, rng: Random) -> None:
    try:
        size = os.path.getsize(path)
        if size == 0:
            return
        with open(path, "r+b") as f:
            if kind == "truncate":
                f.truncate(size // 2)
            else:
                pos = rng.randrange(size)
                f.seek(pos)
                byte = f.read(1)
                f.seek(pos)
                f.write(bytes([byte[0] ^ 0xFF]))
    except OSError:
        pass  # the fault failed to land; the run proceeds unfaulted


# -- process-wide installation -----------------------------------------------

_injector: Optional[FaultInjector] = None


def install(config: ChaosConfig) -> FaultInjector:
    """Arm ``config`` process-wide; returns the live injector."""
    global _injector
    _injector = FaultInjector(config)
    return _injector


def uninstall() -> None:
    global _injector
    _injector = None


def current_injector() -> Optional[FaultInjector]:
    return _injector


def set_injector(injector: Optional[FaultInjector]) -> None:
    """Adopt ``injector`` (state included) as this process's own; a pool
    worker runs each task under the injector its parent had armed."""
    global _injector
    _injector = injector


def chaos_point(point: str, **ctx) -> None:
    """Visit a named injection point (no-op unless an injector is armed)."""
    if _injector is not None:
        _injector.fire(point, **ctx)


def maybe_install_from_env() -> Optional[FaultInjector]:
    """Arm the injector from ``REPRO_CHAOS`` (worker-child propagation).

    Env installation only happens when nothing is armed yet, so an
    in-process ``install`` wins; pool workers also prefer the injector
    their parent sends with each task (see ``runtime.workers``).
    """
    if _injector is not None:
        return _injector
    raw = os.environ.get(ENV_VAR)
    if not raw:
        return None
    try:
        config = ChaosConfig.from_json(raw)
    except (ValueError, KeyError, TypeError):
        return None  # a malformed experiment must never break production
    return install(config)

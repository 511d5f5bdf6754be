"""Sample-filtering oracles (§4.2 zero steps, §4.3 scheduling noise).

Zero steps are benign but must be dropped from the data: the victim
made no progress, so the channel state still reflects the *previous*
round.  :class:`ZeroStepFilter` drops samples whose payload shows no
victim activity.

In a noisy runqueue — scheduling pattern ``((V|N)A)+`` after the victim
and noise vruntimes converge — the attacker must also know *who ran
last*.  :class:`VictimPresenceOracle` implements the template-attack
oracle of §4.3: it monitors cache lines known (from offline profiling)
to be touched by the victim's code and reports whether the victim
executed during the nap.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Sequence

from repro.channels.flush_reload import FlushReload
from repro.kernel import actions as act
from repro.obs import get_obs


class ZeroStepFilter:
    """Drop samples in which no monitored line was touched.

    Works on any payload that is a sequence of hit booleans (the
    Flush+Reload result format).
    """

    @staticmethod
    def is_zero_step(data: Any) -> bool:
        if data is None:
            return True
        if isinstance(data, (list, tuple)):
            return not any(data)
        return False

    @classmethod
    def filter(cls, payloads: Sequence[Any]) -> List[Any]:
        return [d for d in payloads if not cls.is_zero_step(d)]


class VictimPresenceOracle(FlushReload):
    """"Victim ran last?" template oracle (§4.3).

    Flush+Reload over cache lines on the victim's instruction path
    (pre-computed at cache-line granularity from a profiling run):
    ``measure()`` is true when any of them hit, i.e. the victim
    executed since the attacker last flushed them.  Intended to be
    composed with a real measurer — record the round's data only when
    the oracle is true.
    """

    def measure(self) -> Iterator[act.Action]:
        hits = yield from super().measure()
        return any(hits)


class OracleGatedMeasurer:
    """Compose a presence oracle with a payload measurer.

    The payload is measured first, then the oracle; the round is
    recorded as ``(present, data)`` so analysis can keep only rounds
    where the victim ran last — the §4.3 recipe for surviving the
    ``((V|N)A)+`` regime.
    """

    def __init__(self, oracle: VictimPresenceOracle, measurer: Any):
        self.oracle = oracle
        self.measurer = measurer
        metrics = get_obs().metrics
        self._m_present = metrics.counter("attack.oracle_present")
        self._m_absent = metrics.counter("attack.oracle_absent")

    def measure(self) -> Iterator[act.Action]:
        data = yield from self.measurer.measure()
        present = yield from self.oracle.measure()
        (self._m_present if present else self._m_absent).inc()
        return (present, data)

"""The §4.3 victim-presence oracle in a live noisy attack.

In the ((V|N)A)+ regime the attacker cannot know which thread ran
during its nap; the oracle (Flush+Reload on a victim code line) tells
it, and only oracle-positive rounds become data points.
"""

from repro.core.oracle import OracleGatedMeasurer, VictimPresenceOracle
from repro.core.primitive import ControlledPreemption, PreemptionConfig
from repro.cpu.program import StraightlineProgram
from repro.experiments.setup import build_env
from repro.kernel.threads import ComputeBody, ProgramBody
from repro.sched.task import Task


class NullMeasurer:
    """Payload stand-in: the oracle is what is under test."""

    def measure(self):
        return "payload"
        yield  # pragma: no cover


def run_noisy_oracle_attack(rounds=600, seed=1):
    env = build_env("cfs", n_cores=1, seed=seed)
    kernel = env.kernel
    noise = Task("noise", body=ComputeBody())
    program = StraightlineProgram()
    victim = Task("victim", body=ProgramBody(program))
    # Template at cache-line granularity (the paper pre-computes the
    # victim's trace): every other line of the loop, so any ~3-line
    # stretch of victim progress hits at least one monitored line.
    template = [program.base_pc + 128 * i for i in range(32)]
    oracle = VictimPresenceOracle(template)
    attacker = ControlledPreemption(
        PreemptionConfig(nap_ns=900.0, rounds=rounds,
                         extra_compute_ns=12_000.0,
                         stop_on_exhaustion=False),
        measurer=OracleGatedMeasurer(oracle, NullMeasurer()),
    )
    kernel.spawn(noise, cpu=0)
    attacker.launch(kernel, 0)
    wake = attacker.wake_time(kernel, 0, within=1e9)
    # Victim woken just before the attack, 250 µs of vruntime behind the
    # noise thread (converges mid-attack, as in Fig 4.6).
    kernel.sim.call_at(
        wake - 2_000.0,
        lambda: kernel.spawn(
            victim, cpu=0, wake_placement=True,
            sleep_vruntime=max(0.0, noise.vruntime - 250_000.0),
        ),
    )
    retired = []
    attacker.on_sample = lambda s: retired.append(program.retired)
    attacker.run(kernel, max_time=30e9)
    return attacker, retired


class TestPresenceOracleLive:
    def test_oracle_matches_ground_truth(self):
        attacker, retired = run_noisy_oracle_attack()
        checks = 0
        agree = 0
        for (before, after), sample in zip(
            zip(retired, retired[1:]), attacker.samples[1:]
        ):
            present, _ = sample.data
            victim_ran = after > before
            checks += 1
            agree += present == victim_ran
        assert checks > 400
        # The oracle is a real measurement, not a bit read from the
        # simulator, so boundary rounds can mislabel — but it must be
        # highly reliable.
        assert agree / checks > 0.9

    def test_both_regimes_observed(self):
        attacker, retired = run_noisy_oracle_attack()
        presence = [s.data[0] for s in attacker.samples if s.data]
        # Early regime: victim runs every nap → mostly present.
        early = presence[10:150]
        assert sum(early) / len(early) > 0.8
        # Late regime (post-convergence): the noise thread steals naps.
        late = presence[-150:]
        assert 0.1 < sum(late) / len(late) < 0.9

    def test_payload_attached_to_positive_rounds(self):
        attacker, _ = run_noisy_oracle_attack(rounds=100)
        assert all(
            s.data[1] == "payload" for s in attacker.samples if s.data
        )

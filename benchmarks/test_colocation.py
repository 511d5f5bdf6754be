"""§4.4 — core colocation via the load balancer.

The paper's scheme: N−1 pinned dummies leave one idle core; the victim
lands there; the attacker pins alongside; the victim never migrates.
Also the stated limitation on a fully loaded machine.
"""

from conftest import banner, row

from repro.experiments.colocation import (
    run_colocation,
    run_fully_loaded_colocation,
)
from repro.experiments.setup import scaled


def test_colocation():
    trials = max(3, scaled(30, minimum=3) // 4)

    outcomes = [run_colocation(n_cores=16, seed=s) for s in range(trials)]
    degraded = run_fully_loaded_colocation(n_cores=16, seed=0)
    banner("§4.4: colocation without pinning privileges (16 cores)")
    successes = sum(1 for o in outcomes if o.colocated)
    stayed = sum(1 for o in outcomes if o.victim_stayed)
    preemptions = [o.preemptions_on_target for o in outcomes if o.colocated]
    row(f"victim lands on the idle core ({trials} trials)", "always",
        f"{successes}/{trials}")
    row("victim stays during the attack", "yes", f"{stayed}/{trials}")
    row("threads used (N−1 dummies + 1 measurer)", "16",
        str(outcomes[0].attacker_threads_used))
    row("preemptions achieved on the target core", "attack works",
        f"min {min(preemptions)}")
    row("fully loaded machine defeats the scheme", "yes (limitation)",
        str(degraded))
    assert successes == trials
    assert stayed == trials
    assert min(preemptions) > 100
    assert degraded

"""Fig 4.6 — vruntime progression with a third (noise) thread.

Before the victim's vruntime converges with the noise thread's, the
attack proceeds as in the quiet case; afterwards scheduling follows
((V|N)A)+ and the attack continues against whichever thread runs.
"""

from conftest import banner, row

from repro.experiments.noise import pattern_matches_vn_a, run_noise_experiment
from repro.experiments.setup import scaled


def test_fig_4_6():
    run = run_noise_experiment(
        rounds=scaled(4000, minimum=800), seed=1
    )
    banner("Fig 4.6: vruntime progression in a noisy system (A + V + N)")
    assert run.convergence_time is not None
    print(f"  victim/noise vruntimes converge "
          f"{(run.convergence_time - 5e9) / 1e6:.2f} ms into the attack")
    body = run.pattern_before[1:-1]
    print(f"  pre-convergence exits : {body[:48]}…")
    print(f"  post-convergence exits: {run.pattern_after[:48]}…")
    row("pre-convergence regime", "(VA)+",
        f"{1 - body.count('N') / len(body):.1%} V/A")
    row("post-convergence regime", "((V|N)A)+",
        str(pattern_matches_vn_a(run.pattern_after)))
    row("preemptions before / after convergence", "attack continues",
        f"{run.preemptions_before} / {run.preemptions_after}")
    assert body.count("N") / len(body) < 0.1
    assert pattern_matches_vn_a(run.pattern_after)
    assert "N" in run.pattern_after
    assert run.preemptions_after > 50

"""Robustness study: sensor frame loss, seed variance and DVFS headroom.

Three production questions the XRBench harness can answer beyond the
paper's headline figures:

1. *How gracefully does a design degrade when sensors glitch?*  — inject
   frame loss into the input streams and watch the QoE-led score decay.
2. *How trustworthy is a single run of a dynamic scenario?* — multi-seed
   statistics with confidence intervals (the artifact appendix warns the
   outdoor / AR-assistant scenarios are non-deterministic).
3. *How much battery does deadline slack buy?* — pick the slowest DVFS
   point per model that still meets its deadline (appendix B.1's
   slack-into-energy argument).

Run:  python examples/robustness_study.py
"""

from __future__ import annotations

from repro import Harness, HarnessConfig, build_accelerator
from repro.api import RunSpec
from repro.eval import dvfs_ablation, seed_sweep


def frame_loss_sweep() -> None:
    print("1) Sensor frame loss on VR gaming (accelerator A @ 8K PEs)")
    system = build_accelerator("A", 8192)
    for loss in (0.0, 0.05, 0.15, 0.30):
        harness = Harness(
            config=HarnessConfig(frame_loss_probability=loss)
        )
        score = harness.run_scenario("vr_gaming", system).score
        print(
            f"   loss={loss:4.0%}: overall={score.overall:.3f} "
            f"qoe={score.qoe:.3f} rt={score.rt:.3f}"
        )
    print()


def seed_statistics() -> None:
    print("2) Seed variance of the dynamic scenarios (A @ 4K PEs)")
    for scenario in ("outdoor_activity_a", "ar_assistant",
                     "social_interaction_b"):
        spec = RunSpec(scenario=scenario, accelerator="A", pes=4096)
        sweep = seed_sweep(spec, seeds=15)
        overall = sweep.get("overall")
        lo, hi = overall.confidence_interval()
        print(
            f"   {scenario:<22s} {overall.mean:.3f} "
            f"(95% CI [{lo:.3f}, {hi:.3f}], spread "
            f"{overall.maximum - overall.minimum:.3f})"
        )
    print()


def dvfs_headroom() -> None:
    print("3) Slack-aware DVFS on a 4K-PE WS engine")
    rows = dvfs_ablation()
    total_nominal = sum(r["nominal_energy_mj"] for r in rows.values())
    total_scaled = sum(r["scaled_energy_mj"] for r in rows.values())
    for code, row in rows.items():
        print(
            f"   {code}: slack {row['slack_ms']:6.1f} ms, latency "
            f"{row['nominal_latency_ms']:6.1f} ms -> run at "
            f"f={row['chosen_frequency']:.1f} "
            f"({row['energy_saving']:+.0%} energy)"
        )
    print(
        f"   aggregate per-inference energy: {total_nominal:.0f} mJ -> "
        f"{total_scaled:.0f} mJ "
        f"({1 - total_scaled / total_nominal:+.0%} saved)"
    )


def main() -> None:
    frame_loss_sweep()
    seed_statistics()
    dvfs_headroom()


if __name__ == "__main__":
    main()

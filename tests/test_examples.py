"""Smoke tests: the fast examples run and print their known tables."""

from __future__ import annotations

import runpy
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def run_example(name: str, capsys) -> list[str]:
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out.splitlines()


def test_custom_scheduler_table(capsys):
    lines = run_example("custom_scheduler.py", capsys)
    assert lines[1:] == [
        "latency-greedy   overall=0.453 rt=0.511 qoe=1.000 drops=0.0%",
        "round-robin      overall=0.460 rt=0.519 qoe=1.000 drops=0.0%",
        "edf              overall=0.453 rt=0.511 qoe=1.000 drops=0.0%",
        "affinity (ours)  overall=0.375 rt=0.480 qoe=0.896 drops=12.4%",
    ]


def test_model_splitting_table(capsys):
    lines = run_example("model_splitting.py", capsys)
    assert lines[3:7] == [
        "  1    0.308   0.36   0.74   26.7%    0.57   0.00",
        "  2    0.228   0.28   0.85   26.0%    1.00   0.00",
        "  3    0.174   0.23   0.77   25.9%    0.90   0.00",
        "  4    0.219   0.27   0.83   19.8%    1.00   0.00",
    ]


def test_quickstart_suite_score(capsys):
    lines = run_example("quickstart.py", capsys)
    assert lines[1] == (
        "  overall=0.308  rt=0.355  energy=0.760  acc=1.000  qoe=0.744"
    )
    assert lines[-1] == "  XRBench SCORE: 0.858"


def test_robustness_study_tables(capsys):
    lines = run_example("robustness_study.py", capsys)
    assert lines[1:5] == [
        "   loss=  0%: overall=0.926 qoe=1.000 rt=1.000",
        "   loss=  5%: overall=0.916 qoe=0.989 rt=1.000",
        "   loss= 15%: overall=0.857 qoe=0.922 rt=1.000",
        "   loss= 30%: overall=0.757 qoe=0.811 rt=1.000",
    ]
    assert lines[7:10] == [
        "   outdoor_activity_a     0.926 (95% CI [0.921, 0.931], "
        "spread 0.020)",
        "   ar_assistant           0.765 (95% CI [0.761, 0.769], "
        "spread 0.031)",
        "   social_interaction_b   0.943 (95% CI [0.943, 0.943], "
        "spread 0.000)",
    ]
    assert lines[-1] == (
        "   aggregate per-inference energy: 2025 mJ -> 1266 mJ (+37% saved)"
    )


def test_engine_failure_recovery(capsys):
    lines = run_example("engine_failure.py", capsys)
    assert lines[7:9] == [
        "  1 in-flight dispatch(es) killed, 1 retried, 1 recovered, 0 lost",
        "  mean kill-to-completion recovery latency 8.79 ms",
    ]
    assert lines[11] == (
        "  mean session QoE 0.415 vs fault-free 0.441 (94.1% retained)"
    )


def test_session_churn_tables(capsys):
    lines = run_example("session_churn.py", capsys)
    assert lines[1:5] == [
        "   session 0: online 0.05s..0.51s (active 0.46s of 0.75s) "
        "qoe=0.734 overall=0.470",
        "   session 1: online 0.29s..0.61s (active 0.32s of 0.75s) "
        "qoe=0.528 overall=0.019",
        "   session 2: online 0.27s..0.63s (active 0.37s of 0.75s) "
        "qoe=0.440 overall=0.000",
        "   session 3: online 0.26s..0.65s (active 0.39s of 0.75s) "
        "qoe=0.667 overall=0.071",
    ]
    assert lines[11:13] == [
        "   resume-first: mean overall=0.030, 143 missed deadlines",
        "     preemptive: mean overall=0.024, 153 missed deadlines",
    ]


def test_dvfs_slack_table(capsys):
    lines = run_example("dvfs_slack.py", capsys)
    assert lines[3:6] == [
        "static            34658.7     +0.0%      75       0.704  "
        "nominal x660",
        "slack             34522.3     -0.4%      75       0.704  "
        "nominal x615, eco x45",
        "race_to_idle      55515.2    +60.2%       0       0.880  "
        "boost x660",
    ]


def test_ar_gaming_deep_dive_summaries(capsys):
    lines = run_example("ar_gaming_deep_dive.py", capsys)
    assert lines[1] == (
        "utilisation  99.8%   drops  26.7%   overall score 0.31"
    )
    assert lines[10] == (
        "utilisation  88.9%   drops   0.0%   overall score 0.45"
    )

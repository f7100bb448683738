"""Every CI workflow parses as YAML, and each of its jobs has steps.

A workflow that does not parse runs none of its jobs, and nothing says so
on a push: an unquoted ``: `` in a step name is enough.
"""

from __future__ import annotations

from pathlib import Path

import pytest

WORKFLOWS = Path(__file__).resolve().parent.parent / ".github" / "workflows"


def test_every_workflow_parses_and_every_job_has_steps():
    yaml = pytest.importorskip("yaml")
    workflows = sorted(WORKFLOWS.glob("*.y*ml"))
    assert workflows
    for workflow in workflows:
        jobs = yaml.safe_load(workflow.read_text(encoding="utf-8"))["jobs"]
        assert jobs, workflow.name
        for name, job in jobs.items():
            steps = job.get("steps")
            assert steps and all(isinstance(step, dict) for step in steps), (workflow.name, name)

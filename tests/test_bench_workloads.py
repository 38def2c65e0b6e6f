"""The benchmark drives the program through ``bench/workloads.py``; a change to a
name, signature or keyword that it uses breaks the benchmark's runs.  These tests
run a few of its tasks in process, so such a change fails here first."""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from cliffcalc.cli import render_job

WORKLOADS_FILE = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_FILE)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()


def test_the_first_paravector_tasks_pass(tmp_path):
    for task in workloads.paravector(0, tmp_path).tasks[:8]:
        passed, detail = task()
        assert passed, detail


@pytest.mark.parametrize("kind", sorted(set(workloads.CLI_KINDS)))
def test_a_cli_job_of_each_kind_renders_and_passes_its_check(tmp_path, kind):
    # the job the cold-CLI workload writes first for this kind, rendered in process
    rng = np.random.default_rng([0, 4])
    for index, each in enumerate(workloads.CLI_KINDS):
        job, expect = workloads.cli_job(each, rng, index, tmp_path)
        if each == kind:
            break
    passed, detail = workloads._cli_check(kind, json.loads(render_job(job)), expect)
    assert passed, detail

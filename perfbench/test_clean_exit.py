"""The benchmark runner must leave nothing running or written behind.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_tmp"


def _session_members(session: int):
    """Pids of live processes whose session id is ``session``."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[3]) == session:
            members.append(int(entry.name))
    return members


def _scratch_entries():
    return set(SCRATCH.iterdir()) if SCRATCH.exists() else set()


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    process = subprocess.Popen(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        stdout, stderr = process.communicate(timeout=300)
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()
    leftover = _session_members(process.pid)
    assert not leftover, f"processes still running: {leftover}"
    return subprocess.CompletedProcess(process.args, process.returncode,
                                       stdout, stderr)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_store_rerun_leaves_no_process_or_file(trace):
    before = _scratch_entries()
    done = _run(ROOT, "--workload", "store_rerun", "--seed", "3",
                "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"], done.stdout
    assert result["failed"] == 0 and result["attempted"] > 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in section}
    assert _scratch_entries() <= before


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", "chain_sparse", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert not any(line.startswith("{")
                   for line in done.stdout.splitlines())
